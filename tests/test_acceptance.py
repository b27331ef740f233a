"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact equality; the whole construction is
desk-scale and fully reproducible.
"""

import json
import random
from collections import Counter
from itertools import combinations

from splithex.cli import run_verify, strip_timing
from splithex.geometry import (
    exterior_points,
    hyperoval_partitions,
    nonzero_vectors,
    ti_lines,
    ti_planes,
    unital_points,
)
from splithex.groups import (
    PermutationGroup,
    nonequivalence_certificate,
    preserves_incidence,
)
from splithex.hexagon import (
    build,
    concurrency_graph,
    diameter,
    distance_distribution,
    dual,
    girth,
    incidence_graph,
    point_graph,
    verify_concurrency_witnesses,
    verify_generalized_hexagon,
    verify_partial_linear_space,
    verify_plane_property,
)


def _line(number, name, ok):
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_strata_counts(partition, strata):
    ok = (
        len(nonzero_vectors()) == 63
        and len(strata.isotropic) == 27
        and len(strata.norm_one) == 36
        and len(unital_points()) == 9
        and len(exterior_points()) == 12
        and len(strata.oval_vectors) == 18
        and len(strata.twin_vectors) == 18
        and len(partition.oval) == 6
        and len(partition.twin) == 6
    )
    _line(1, "strata-counts", ok)


def test_criterion_02_symplectic_facts():
    lines = ti_lines()
    planes = ti_planes()
    meets = {len(line & plane) for line in lines for plane in planes}
    ok = (
        len(lines) == 315
        and len(planes) == 135
        and all(len(plane) == 7 for plane in planes)
        and all(
            sum(1 for plane in planes if line <= plane) == 3
            for line in lines
        )
        and meets <= {0, 1, 3}
    )
    _line(2, "symplectic-facts", ok)


def test_criterion_03_partial_linear_space(structure):
    report = verify_partial_linear_space(structure)
    kinds = [t.kind for t in structure.tags]
    through = Counter(p for line in structure.lines for p in line)
    ok = (
        report.passed
        and len(structure.points) == 63
        and len(structure.lines) == 63
        and (kinds.count("scalar"), kinds.count("oval"), kinds.count("twin"))
        == (9, 27, 27)
        and all(len(line) == 3 for line in structure.lines)
        and all(through[p] == 3 for p in structure.points)
        and _no_pair_on_two_lines(structure)
    )
    _line(3, "partial-linear-space", ok)


def _no_pair_on_two_lines(structure):
    seen = set()
    for line in structure.lines:
        for pair in combinations(line, 2):
            key = frozenset(pair)
            if key in seen:
                return False
            seen.add(key)
    return True


def test_criterion_04_plane_property(structure):
    report = verify_plane_property(structure)
    ok = report.passed and all(c.witness is None for c in report.checks)
    _line(4, "point-plane-property", ok)


def test_criterion_05_concurrency_witnesses(strata, partition):
    report = verify_concurrency_witnesses(strata, partition)
    qualifying = next(
        c for c in report.checks if c.name == "qualifying-pairs-have-witness"
    )
    ok = report.passed and qualifying.detail == 108
    _line(5, "concurrency-witnesses", ok)


def test_criterion_06_concurrency_graph(structure):
    graph = concurrency_graph(structure)
    ok = graph.connected and set(graph.degrees()) == {6}
    _line(6, "concurrency-graph", ok)


def test_criterion_07_generalized_hexagon(structure):
    graph = incidence_graph(structure)
    pg = point_graph(structure)
    ok = (
        graph.vertex_count == 126
        and graph.edge_count == 189
        and girth(graph) == 12
        and diameter(graph) == 6
        and all(
            distance_distribution(pg, base) == (1, 6, 24, 32)
            for base in range(pg.vertex_count)
        )
        and verify_generalized_hexagon(structure).passed
        and verify_generalized_hexagon(dual(structure)).passed
    )
    _line(7, "generalized-hexagon", ok)


def test_criterion_08_automorphism_group(aut_generators, aut_group, structure):
    rng = random.Random(8)
    shuffles_agree = True
    for _ in range(3):
        shuffled = list(aut_generators)
        rng.shuffle(shuffled)
        shuffles_agree = shuffles_agree and PermutationGroup(126, shuffled).order == 12096
    ok = (
        aut_group.order == 12096
        and all(
            preserves_incidence(structure, g[:63], tuple(x - 63 for x in g[63:]))
            for g in aut_generators
        )
        and shuffles_agree
    )
    _line(8, "automorphism-group", ok)


def test_criterion_09_representations(actions):
    points_action, lines_action = actions
    witness = nonequivalence_certificate(points_action, lines_action)
    ok = (
        points_action.order == 12096
        and lines_action.order == 12096
        and len(points_action.orbits()) == 1
        and len(lines_action.orbits()) == 1
        and witness is not None
        and witness.fixed_points != witness.fixed_lines
        and points_action.stabilizer_orbit_sizes(0) == (1, 6, 24, 32)
    )
    _line(9, "degree-63-representations", ok)


def test_criterion_10_pairing_robustness():
    verdicts = [
        verify_generalized_hexagon(build(p)).passed for p in hyperoval_partitions()
    ]
    # golden per-pairing outcomes, frozen after the first computation
    ok = len(verdicts) == 3 and verdicts[0] is True and verdicts == [True, True, True]
    _line(10, "pairing-robustness", ok)


def test_criterion_11_determinism():
    first = run_verify(pairing=0)
    second = run_verify(pairing=0)
    bytes_first = json.dumps(strip_timing(first.to_dict()), indent=2).encode()
    bytes_second = json.dumps(strip_timing(second.to_dict()), indent=2).encode()
    ok = bytes_first == bytes_second
    _line(11, "determinism", ok)
