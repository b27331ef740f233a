"""Seeded request streams for the three workloads.

Everything here is plain Python on tuples and frozensets; nothing imports
splithex, so the invariants each generator promises (a relabeling keeps the
line set, a substitution breaks the lines-per-point count) are checked by
counting alone.  The same seed always gives the same stream.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import count

PAIRINGS = (0, 1, 2)


def balanced_pairings(rng: random.Random):
    """Endless pairing indices: each block of three is a seeded shuffle of 0, 1, 2.

    Balanced blocks keep every run's mix of pairings the same, so the spread
    between seeds measures the program rather than the draw.
    """
    while True:
        block = list(PAIRINGS)
        rng.shuffle(block)
        yield from block


def relabel(points: tuple, lines: tuple, rng: random.Random) -> tuple[tuple, tuple]:
    """Shuffle the order of the points and of the lines.

    The point set and the line set are unchanged, only their indices move,
    so every geometric property of the structure is kept while the
    incidence graph the group search sees is relabeled.
    """
    new_points = list(points)
    rng.shuffle(new_points)
    new_lines = list(lines)
    rng.shuffle(new_lines)
    return tuple(new_points), tuple(new_lines)


def lines_per_point(points: tuple, lines: tuple) -> Counter:
    """How many lines pass through each point (points on no line count 0)."""
    through = Counter({p: 0 for p in points})
    for line in lines:
        through.update(line)
    return through


def substitute(points: tuple, lines: tuple, rng: random.Random) -> tuple:
    """Replace one point of one line by a point not on that line.

    In a structure with 3 lines on every point, the removed point is then on
    2 lines and the added one on 4, so the result cannot be a partial linear
    space of order (2, 2).  Raises ValueError if the input is not
    3-per-point uniform, because the promise would not hold.
    """
    if set(lines_per_point(points, lines).values()) != {3}:
        raise ValueError("substitution needs a structure with 3 lines per point")
    index = rng.randrange(len(lines))
    line = lines[index]
    removed = rng.choice(sorted(line))
    added = rng.choice([p for p in points if p not in line])
    new_line = (line - {removed}) | {added}
    new_lines = lines[:index] + (new_line,) + lines[index + 1:]
    through = lines_per_point(points, new_lines)
    if through[removed] != 2 or through[added] != 4:
        raise AssertionError("substitution did not break the lines-per-point count")
    return new_lines


def cli_cold_stream(seed: int):
    """Pairing indices for fresh ``splithex verify`` processes."""
    return balanced_pairings(random.Random(f"cli-cold/{seed}"))


def aut_relabeled_stream(seed: int, bases: dict):
    """Relabelings of the hexagon for pairing ``seed % 3``.

    ``bases`` maps a pairing to its (points, lines).  Yields
    (request id, pairing, points, lines).
    """
    rng = random.Random(f"aut-relabeled/{seed}")
    pairing = seed % 3
    points, lines = bases[pairing]
    for request in count():
        yield (request, pairing, *relabel(points, lines, rng))


def screen_mixed_stream(seed: int, bases: dict):
    """Requests of two candidates: a relabeled hexagon and a substitution.

    The stream of candidates is exactly half PASS and half FAIL, with the
    order inside each request seeded.  Pairing both kinds in one request
    gives every request the same mix; single-candidate requests would put
    the median latency in the gap between the PASS and the FAIL times.
    Yields (request id, ((pairing, points, lines, expect_pass), ...)).
    """
    rng = random.Random(f"screen-mixed/{seed}")
    pairings = balanced_pairings(rng)
    for request in count():
        kinds = [True, False]
        rng.shuffle(kinds)
        candidates = []
        for expect_pass in kinds:
            pairing = next(pairings)
            points, lines = relabel(*bases[pairing], rng)
            if not expect_pass:
                lines = substitute(points, lines, rng)
            candidates.append((pairing, points, lines, expect_pass))
        yield request, tuple(candidates)
