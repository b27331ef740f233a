"""Known answers from the paper, and the checks that compare outputs to them.

Every expected value here is a constant of GH(2,2) or of G2(2) as the
paper states it; none is read from splithex.  Each check returns a list of
mismatch messages, empty when the output agrees.
"""

from __future__ import annotations

import json

POINTS = 63
LINES = 63
TI_LINES = 315
TI_PLANES = 135
DIAMETER = 6
GIRTH = 12
GROUP_ORDER = 12096
SUBDEGREES = (1, 6, 24, 32)
CONCURRENCY_DEGREE = 6  # 3 points on a line, 2 further lines on each

VERIFY_CHECKS = (
    "symplectic-counts", "strata-counts", "partial-linear-space",
    "point-plane-property", "concurrency-witnesses", "concurrency-connected",
    "classification-hypotheses", "generalized-hexagon",
    "dual-generalized-hexagon", "automorphism-group-order",
    "generators-preserve-incidence", "induced-actions", "character-witness",
)


def _expect(errors: list, label: str, got, want) -> None:
    if got != want:
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def check_cli_report(pairing: int, returncode: int, stdout: str) -> list:
    """``splithex verify --with-aut --format json`` for one pairing."""
    errors: list = []
    _expect(errors, "exit code", returncode, 0)
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return errors + [f"report is not JSON: {exc}"]
    _expect(errors, "pairing", report.get("pairing"), pairing)
    _expect(errors, "verdict", report.get("verdict"), "PASS")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    _expect(errors, "checks run", tuple(checks), VERIFY_CHECKS)
    if tuple(checks) != VERIFY_CHECKS:
        return errors
    failed = [name for name, c in checks.items() if c.get("pass") is not True]
    _expect(errors, "failed checks", failed, [])

    def witness(name):
        return checks[name].get("witness") or {}

    counts = witness("symplectic-counts")
    _expect(errors, "vectors", counts.get("vectors"), POINTS)
    _expect(errors, "t.i. lines", counts.get("ti_lines"), TI_LINES)
    _expect(errors, "t.i. planes", counts.get("ti_planes"), TI_PLANES)
    pls = witness("partial-linear-space")
    _expect(errors, "points", pls.get("point-count"), POINTS)
    _expect(errors, "lines", pls.get("line-count"), LINES)
    for name in ("generalized-hexagon", "dual-generalized-hexagon"):
        gh = witness(name)
        _expect(errors, f"{name} diameter", gh.get("incidence-diameter"), DIAMETER)
        _expect(errors, f"{name} girth", gh.get("incidence-girth"), GIRTH)
    _expect(errors, "group order", witness("automorphism-group-order").get("order"),
            GROUP_ORDER)
    _expect(errors, "non-automorphic generators",
            witness("generators-preserve-incidence").get("bad"), 0)
    actions = witness("induced-actions")
    _expect(errors, "point action order", actions.get("point_action_order"), GROUP_ORDER)
    _expect(errors, "line action order", actions.get("line_action_order"), GROUP_ORDER)
    _expect(errors, "point orbits", actions.get("point_orbits"), 1)
    _expect(errors, "line orbits", actions.get("line_orbits"), 1)
    _expect(errors, "subdegrees", tuple(actions.get("point_subdegrees", ())), SUBDEGREES)
    chi = witness("character-witness")
    if not isinstance(chi, dict) or chi.get("fixed_points") == chi.get("fixed_lines"):
        errors.append(f"character witness does not separate the actions: {chi!r}")
    return errors


def _transitive(generators, degree: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in generators:
            if g[x] not in seen:
                seen.add(g[x])
                frontier.append(g[x])
    return len(seen) == degree


def _automorphism(point_perm, line_perm, lines_as_indices) -> bool:
    """Does the pair map line j's points onto line line_perm[j]'s points?"""
    return all(
        frozenset(point_perm[i] for i in line) == lines_as_indices[line_perm[j]]
        for j, line in enumerate(lines_as_indices)
    )


def check_automorphisms(points, lines, generators, group_order, point_action,
                        line_action, subdegrees, witness) -> list:
    """The aut-relabeled chain on one relabeled hexagon."""
    errors: list = []
    index = {p: i for i, p in enumerate(points)}
    as_indices = [frozenset(index[p] for p in line) for line in lines]
    npts = len(points)
    bad = 0
    for g in generators:
        if sorted(g) != list(range(npts + len(lines))) or \
                any(g[i] >= npts for i in range(npts)):
            bad += 1
            continue
        line_part = tuple(x - npts for x in g[npts:])
        if not _automorphism(g[:npts], line_part, as_indices):
            bad += 1
    _expect(errors, "non-automorphic generators", bad, 0)
    _expect(errors, "group order", group_order, GROUP_ORDER)
    _expect(errors, "point action order", point_action.order, GROUP_ORDER)
    _expect(errors, "line action order", line_action.order, GROUP_ORDER)
    _expect(errors, "point action transitive",
            _transitive(point_action.generators, POINTS), True)
    _expect(errors, "line action transitive",
            _transitive(line_action.generators, LINES), True)
    _expect(errors, "subdegrees", tuple(subdegrees), SUBDEGREES)
    if witness is None:
        errors.append("no character witness")
        return errors
    fixed_points = sum(1 for i, x in enumerate(witness.on_points) if i == x)
    fixed_lines = sum(1 for i, x in enumerate(witness.on_lines) if i == x)
    _expect(errors, "witness fixed points", witness.fixed_points, fixed_points)
    _expect(errors, "witness fixed lines", witness.fixed_lines, fixed_lines)
    if fixed_points == fixed_lines:
        errors.append("character witness fixes as many points as lines")
    if not _automorphism(witness.on_points, witness.on_lines, as_indices):
        errors.append("character witness is not an automorphism")
    return errors


def _detail(report, name):
    return next((c.detail for c in report.checks if c.name == name), None)


def check_screen(expect_pass: bool, results: dict) -> list:
    """The screen-mixed verifier reports for one candidate line set.

    A genuine hexagon passes everything.  A substitution leaves a point on
    2 lines and another on 4, so the partial-linear-space, plane, hexagon
    and dual-hexagon checks and the classification hypotheses must fail;
    the concurrency witnesses depend only on the pairing and must pass.
    """
    errors: list = []
    _expect(errors, "concurrency_witnesses", results["concurrency_witnesses"].passed,
            True)
    for name in ("partial_linear_space", "plane_property", "generalized_hexagon",
                 "classification_hypotheses", "dual_generalized_hexagon"):
        _expect(errors, name, results[name].passed, expect_pass)
    if expect_pass:
        graph = results["concurrency_graph"]
        _expect(errors, "concurrency graph vertices", graph.vertex_count, LINES)
        _expect(errors, "concurrency degrees", set(graph.degrees()),
                {CONCURRENCY_DEGREE})
        for name in ("generalized_hexagon", "dual_generalized_hexagon"):
            _expect(errors, f"{name} diameter",
                    _detail(results[name], "incidence-diameter"), DIAMETER)
            _expect(errors, f"{name} girth",
                    _detail(results[name], "incidence-girth"), GIRTH)
    return errors
