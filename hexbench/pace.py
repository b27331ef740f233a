"""A fixed reference workload that tracks how fast the machine runs right now.

The benchmark runs on a few vCPUs of a shared host whose speed moves between
states about 1.5x apart, for seconds and sometimes minutes at a time; the
process's own CPU time moves with it, so no clock can tell the states apart.
A reference workload timed next to each request can: its time moves with the
state while its work never changes.  ``Pace`` times one pass before the
first request and one after every request, so each request lies between two
passes; its factor is ``REFERENCE_S`` over the mean of those two.
Multiplying a request's wall time by its factor gives its time at the
reference speed.

The reference work is plain Python in the shape of the program's own inner
loops (breadth-first search over dict distances, composing and inverting
permutation tuples) on a graph and permutations drawn once from a fixed seed.
It imports nothing from splithex, so no change to the program can change it,
and it runs with the garbage collector off, so the objects the program keeps
alive cannot slow it down either.
"""

from __future__ import annotations

import gc
import random
import time

DEGREE = 126  # vertices of the incidence graph of GH(2,2)
# Seconds one pass takes on a 2-vCPU Intel Xeon VM in its fast state; the
# unit that scaled times are expressed in.
REFERENCE_S = 0.0045


def _reference_input():
    rng = random.Random(20250109)
    adjacency = [tuple(rng.sample(range(DEGREE), 3)) for _ in range(DEGREE)]
    perms = [tuple(rng.sample(range(DEGREE), DEGREE)) for _ in range(8)]
    return adjacency, perms


ADJACENCY, PERMS = _reference_input()


def reference_pass() -> int:
    """The fixed work: 21 BFS runs and 480 compositions and inversions."""
    checksum = 0
    for source in range(0, DEGREE, 6):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for v in frontier:
                for w in ADJACENCY[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        following.append(w)
            frontier = following
        checksum += sum(dist.values())
    perm = PERMS[0]
    for _ in range(60):
        for other in PERMS:
            perm = tuple(other[i] for i in perm)
            inverse = [0] * DEGREE
            for i, image in enumerate(perm):
                inverse[image] = i
    return checksum + perm[0] + inverse[0]


def time_pass() -> float:
    """Wall seconds of one reference pass with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_pass()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Reference passes timed between the requests of one run."""

    def __init__(self):
        time_pass()  # warm-up: the first pass pays for bytecode caches
        self.passes = [time_pass()]

    def mark(self) -> None:
        """Time a pass; call it after each request."""
        self.passes.append(time_pass())

    def factors(self) -> list:
        """One scale factor per request, in the order of the requests."""
        return [2.0 * REFERENCE_S / (before + after)
                for before, after in zip(self.passes, self.passes[1:])]
