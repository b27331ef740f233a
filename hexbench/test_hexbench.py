"""Tests of the benchmark's own input generators, tracer, tail statistic and
pace factors.

Run with ``python3 -m pytest hexbench``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402  (puts src first on sys.path)
import inputs  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
from run import tail  # noqa: E402


@pytest.fixture(scope="module")
def bases():
    return bootstrap.library()


def test_relabel_is_a_bijection_that_keeps_the_line_set(bases):
    points, lines = bases[0]
    new_points, new_lines = inputs.relabel(points, lines, random.Random(7))
    assert sorted(new_points) == sorted(points)
    assert len(set(new_points)) == len(points)
    assert set(new_lines) == set(lines) and len(new_lines) == len(lines)
    assert (new_points, new_lines) != (points, lines)


def test_substitution_breaks_the_lines_per_point_count(bases):
    points, lines = bases[1]
    for seed in range(20):
        new_lines = inputs.substitute(points, lines, random.Random(seed))
        changed = [i for i, (a, b) in enumerate(zip(lines, new_lines)) if a != b]
        assert len(changed) == 1
        assert len(new_lines[changed[0]]) == 3
        through = inputs.lines_per_point(points, new_lines)
        assert sorted(Counter(through.values()).items()) == [(2, 1), (3, 61), (4, 1)]


def test_substitution_refuses_a_non_uniform_structure():
    points = (1, 2, 3, 4)
    with pytest.raises(ValueError):
        inputs.substitute(points, (frozenset({1, 2, 3}),), random.Random(0))


def test_streams_repeat_for_a_seed_and_differ_between_seeds(bases):
    def take(seed):
        return list(islice(inputs.screen_mixed_stream(seed, bases), 4))

    assert take(3) == take(3)
    assert take(3) != take(4)
    assert list(islice(inputs.cli_cold_stream(5), 9)) == \
        list(islice(inputs.cli_cold_stream(5), 9))
    relabeled = list(islice(inputs.aut_relabeled_stream(4, bases), 3))
    assert {pairing for _, pairing, _, _ in relabeled} == {4 % 3}


def test_screen_requests_hold_one_pass_and_one_fail_with_balanced_pairings(bases):
    requests = list(islice(inputs.screen_mixed_stream(11, bases), 6))
    candidates = [c for _, pair in requests for c in pair]
    for _, pair in requests:
        assert sorted(c[3] for c in pair) == [False, True]
    assert Counter(c[0] for c in candidates) == {0: 4, 1: 4, 2: 4}
    for _, points, lines, expect_pass in candidates:
        uniform = set(inputs.lines_per_point(points, lines).values()) == {3}
        assert uniform == expect_pass


def test_self_time_subtracts_direct_children():
    trace = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["inner", 5.0, 6.0, 0, 0],
    ]
    times = spans.self_times(trace)
    assert times["outer"] == pytest.approx(6.0)
    assert times["inner"] == pytest.approx(3.0)
    assert times["leaf"] == pytest.approx(1.0)
    assert spans.first_self_times(trace)["inner"] == pytest.approx(2.0)


def test_tracer_sees_calls_inside_the_package_and_uninstalls(bases):
    from splithex import geometry, hexagon

    original = hexagon.incidence_graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        structure = hexagon.build(geometry.hyperoval_partitions()[0])
        hexagon.verify_generalized_hexagon(structure)
    finally:
        tracer.uninstall()
    assert hexagon.incidence_graph is original
    names = Counter(name for name, *_ in tracer.spans)
    # verify_generalized_hexagon reaches incidence_graph through module globals
    assert names["hexagon.incidence_graph"] == 1
    assert names["hexagon.verify_partial_linear_space"] == 1
    assert tracer.counts["hexagon.bfs_distances"] > 0
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


@pytest.mark.parametrize("n, pct, rank", [(5, 100, 5), (11, 9, 1), (20, 50, 10),
                                          (100, 90, 90)])
def test_tail_leaves_at_least_ten_samples_above(n, pct, rank):
    got_pct, value = tail([float(i) for i in range(1, n + 1)])
    assert (got_pct, value) == (pct, float(rank))
    if n > 10:
        assert sum(1 for i in range(1, n + 1) if i > value) >= 10


def test_pace_scales_each_request_by_the_mean_of_its_bracketing_passes():
    run = pace.Pace()
    assert len(run.passes) == 1
    run.passes = [pace.REFERENCE_S * 2, pace.REFERENCE_S, pace.REFERENCE_S]
    assert run.factors() == [pytest.approx(2 / 3), pytest.approx(1.0)]
    run.mark()
    assert len(run.factors()) == 3
    assert pace.reference_pass() == pace.reference_pass()
