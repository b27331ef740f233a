"""Command-line interface: verify, counts, pairings, aut, export.

``verify`` runs the full verification ladder and exits 0 only if every
check passes; reports are deterministic except for the ``millis`` timing
fields, which comparison tooling should strip (see ``strip_timing``).

The ladder is one list of ``(name, anchor, fn)`` stages: ``verify`` runs
``BASE_STAGES`` (plus ``AUT_STAGES`` with ``--with-aut``) and ``aut`` runs
``AUT_STAGES`` alone; both exit 1 if any stage they ran fails.  A stage
backed by a verifier report carries one payload: the ``detail`` of every
check, plus, when the report fails, a ``failures`` map from each failing
check to its witness.

Each stage's verdict is a :class:`hexagon.Check` with the payload as its
witness, and ``verify`` gathers them in a :class:`VerificationReport`: a
:class:`hexagon.Report` with the version, the pairing and the ``millis``
sidecar, one stage time per check.  The JSON and text forms read each
check's anchor by name from the stage table (``ANCHORS``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .algebra import to_gf2
from .geometry import (
    exterior_points,
    hyperoval_partitions,
    mask_codes,
    nonzero_vectors,
    self_polar_triangles,
    strata_for,
    ti_line_masks,
    ti_plane_masks,
    unital_points,
)
from .groups import (
    PermutationGroup,
    automorphism_generators,
    character_witness,
    induced_actions,
    preserves_incidence,
)
from .hexagon import (
    DISTANCE_DISTRIBUTION,
    Check,
    IncidenceStructure,
    Report,
    build,
    concurrency_graph,
    dual,
    incidence_graph,
    point_graph,
    verify_classification_hypotheses,
    verify_concurrency_witnesses,
    verify_generalized_hexagon,
    verify_partial_linear_space,
    verify_plane_property,
)

EXPECTED_GROUP_ORDER = 12096
EXPECTED_STRATA_COUNTS = dict(
    isotropic_vectors=27, norm_one_vectors=36, unital_points=9,
    exterior_points=12, oval_points=6, twin_points=6, oval_vectors=18,
    twin_vectors=18,
)


class VerificationReport(Report):
    """The ladder's checks for one pairing, in stage order, and ``millis``,
    the timing sidecar: each check's time in milliseconds, in check order."""

    _fields = ("version", "pairing", "checks", "millis")

    def __init__(self, version: str, pairing: int, checks: tuple, millis: tuple):
        self.__dict__.update(version=version, pairing=pairing, checks=checks,
                             millis=millis)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        checks = []
        for c, millis in zip(self.checks, self.millis, strict=True):
            out = {"name": c.name, "anchor": ANCHORS[c.name], "pass": c.passed}
            if c.witness is not None:
                out["witness"] = _jsonable(c.witness)
            out["millis"] = millis
            checks.append(out)
        return {"version": self.version, "pairing": self.pairing, "checks": checks,
                "verdict": self.verdict}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {ANCHORS[c.name]}")
            if c.witness is not None:
                lines.append(f"       {_compact(c.witness)}")
        headline = next(
            (c for c in self.checks if c.name == "generalized-hexagon"), None
        )
        if headline is not None:
            lines.append(f"GH(2,2): {'PASS' if headline.passed else 'FAIL'}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def strip_timing(report_dict: dict) -> dict:
    """Drop the millis sidecar fields so reports can be compared bytewise."""
    out = dict(report_dict)
    out["checks"] = [
        {k: v for k, v in check.items() if k != "millis"}
        for check in report_dict["checks"]
    ]
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _compact(value) -> str:
    return json.dumps(_jsonable(value))


def _render(info: dict, fmt: str) -> str:
    """Indented JSON, or one ``key: value`` line per entry with dicts and
    lists as compact JSON."""
    if fmt == "json":
        return json.dumps(info, indent=2) + "\n"
    return "".join(f"{key}: {_compact(v) if isinstance(v, (dict, list)) else v}\n"
                   for key, v in info.items())


# ---------------------------------------------------------------------------
# the verification ladder: (name, anchor, fn) stages run over one context


def _context(pairing: int) -> dict:
    """Shared inputs of the stages; the automorphism stages add their results."""
    if pairing not in (0, 1, 2):
        raise ValueError(f"pairing must be 0, 1 or 2, got {pairing}")
    partition = hyperoval_partitions()[pairing]
    return {
        "partition": partition,
        "strata": strata_for(partition),
        "structure": build(partition),
    }


def _run_stages(stages, ctx: dict) -> tuple:
    """Each stage's check (its payload the witness) and time in ms, in stage order."""
    checks, millis = [], []
    for name, _, fn in stages:
        start = time.perf_counter()
        passed, witness = fn(ctx)
        millis.append(round((time.perf_counter() - start) * 1000.0, 3))
        checks.append(Check(name, passed, witness=witness))
    return tuple(checks), tuple(millis)


def _payload(report) -> tuple:
    """A verifier report as (passed, details of every check + failures)."""
    details = {c.name: c.detail for c in report.checks if c.detail is not None}
    if not report.passed:
        details["failures"] = {
            c.name: _jsonable(c.witness) for c in report.failures()
        }
    return report.passed, details


def _meet_counts(line_masks, plane_masks) -> list:
    """For each line (a 3-member mask), how many of the plane masks meet it
    in 0, 1, 2 and 3 vectors.

    The census is bit-sliced: holding[x] has bit j set when plane j holds
    the vector with code x, so for a line {a, b, c} the plane at each bit
    position meets it in as many vectors as A, B, C have that bit set.
    Adding the three bits position by position, ``ones`` is the low bit of
    that sum and ``twos`` its high bit.  Every plane falls in exactly one of
    the four meets, so every line-plane pair is still counted."""
    holding = [0] * 64
    for j, M in enumerate(plane_masks):
        for x in mask_codes(M):
            holding[x] |= 1 << j
    every = (1 << len(plane_masks)) - 1
    counts = []
    for L in line_masks:
        a, b, c = mask_codes(L)
        A, B, C = holding[a], holding[b], holding[c]
        ones = A ^ B ^ C
        twos = A & B | C & (A ^ B)
        by_meet = (every & ~(ones | twos), ones & ~twos, twos & ~ones, ones & twos)
        counts.append(tuple(planes.bit_count() for planes in by_meet))
    return counts


def _symplectic_counts(ctx):
    line_masks, plane_masks = ti_line_masks(), ti_plane_masks()
    plane_sizes = {M.bit_count() for M in plane_masks}
    # all 315 x 135 line-plane pairs, counted by meet; a line lies in a plane
    # exactly when they meet in all 3 of its vectors
    meet_counts = _meet_counts(line_masks, plane_masks)
    per_line = {n[3] for n in meet_counts}
    meets = {k for n in meet_counts for k in range(4) if n[k]}
    counts = {
        "vectors": len(nonzero_vectors()),
        "ti_lines": len(line_masks),
        "ti_planes": len(plane_masks),
        "plane_sizes": sorted(plane_sizes),
        "planes_per_line": sorted(per_line),
        "line_plane_meets": sorted(meets),
    }
    ok = (
        counts["vectors"] == 63
        and counts["ti_lines"] == 315
        and counts["ti_planes"] == 135
        and plane_sizes == {7}
        and per_line == {3}
        and meets <= {0, 1, 3}
    )
    return ok, counts


def _strata_counts(ctx) -> dict:
    partition, strata = ctx["partition"], ctx["strata"]
    return {
        "isotropic_vectors": len(strata.isotropic),
        "norm_one_vectors": len(strata.norm_one),
        "unital_points": len(unital_points()),
        "exterior_points": len(exterior_points()),
        "oval_points": len(partition.oval),
        "twin_points": len(partition.twin),
        "oval_vectors": len(strata.oval_vectors),
        "twin_vectors": len(strata.twin_vectors),
    }


def _check_strata_counts(ctx):
    counts = _strata_counts(ctx)
    return counts == EXPECTED_STRATA_COUNTS, counts


def _concurrency_connected(ctx):
    graph = concurrency_graph(ctx["structure"])
    degrees = set(graph.degrees())
    payload = {"connected": graph.connected, "degrees": sorted(degrees)}
    return graph.connected and degrees == {6}, payload


def _group_order(ctx):
    structure = ctx["structure"]
    npts, nlines = len(structure.points), len(structure.lines)
    generators = automorphism_generators(
        incidence_graph(structure), [0] * npts + [1] * nlines
    )
    group = PermutationGroup(npts + nlines, generators)
    ctx["generators"] = generators
    ctx["group"] = group
    # two routes to the order: the chain's, and the search tree's
    ok = group.order == generators.order == EXPECTED_GROUP_ORDER
    return ok, {"order": group.order}


def _generators_preserve_incidence(ctx):
    structure = ctx["structure"]
    npts = len(structure.points)
    bad = 0
    for g in ctx["generators"]:
        line_part = tuple(x - npts for x in g[npts:])
        if not preserves_incidence(structure, g[:npts], line_part):
            bad += 1
    return bad == 0, {"generators": len(ctx["generators"]), "bad": bad}


def _induced_actions(ctx):
    points_action, lines_action = induced_actions(ctx["group"], ctx["structure"])
    payload = {
        "point_action_order": points_action.order,
        "line_action_order": lines_action.order,
        "point_orbits": len(points_action.orbits()),
        "line_orbits": len(lines_action.orbits()),
        "point_subdegrees": list(points_action.stabilizer_orbit_sizes(0)),
    }
    ok = (
        points_action.order == lines_action.order == EXPECTED_GROUP_ORDER
        and payload["point_orbits"] == payload["line_orbits"] == 1
        # a distance-transitive group: subdegrees are the distance distribution
        and tuple(payload["point_subdegrees"]) == DISTANCE_DISTRIBUTION
    )
    return ok, payload


def _character_witness(ctx):
    witness = character_witness(ctx["group"], len(ctx["structure"].points))
    if witness is None:
        return False, "no character certificate"
    return True, {"fixed_points": witness.fixed_points,
                  "fixed_lines": witness.fixed_lines}


BASE_STAGES = (
    ("symplectic-counts",
     "63 isotropic vectors, 315 totally isotropic lines and 135 totally "
     "isotropic planes over GF(2); planes hold 7 vectors, every t.i. line "
     "lies in exactly 3 t.i. planes, and a line meets a plane in 0, 1 or "
     "3 vectors",
     _symplectic_counts),
    ("strata-counts",
     "27 isotropic and 36 norm-one vectors; 9 unital and 12 exterior "
     "points; two hyperoval halves of 6 points carrying 18 vectors each",
     _check_strata_counts),
    ("partial-linear-space",
     "63 points and 63 lines (9 scalar + 27 oval + 27 twin), 3 points per "
     "line, 3 lines per point, two points on at most one common line",
     lambda ctx: _payload(verify_partial_linear_space(ctx["structure"]))),
    ("point-plane-property",
     "for every point, the union of its three lines is a 7-vector totally "
     "isotropic plane",
     lambda ctx: _payload(verify_plane_property(ctx["structure"]))),
    ("concurrency-witnesses",
     "every ordered pair of isotropic vectors with hermitian value 1 whose "
     "span meets the hyperoval twice admits an orthogonal norm-one witness "
     "placing their oval lines on a common point",
     lambda ctx: _payload(
         verify_concurrency_witnesses(ctx["strata"], ctx["partition"]))),
    ("concurrency-connected",
     "the line-concurrency graph on 63 lines is connected and 6-regular",
     _concurrency_connected),
    ("classification-hypotheses",
     "every point lies on three lines spanning a plane and the concurrency "
     "graph is connected; hypotheses only -- the hexagon conclusion is "
     "verified independently by the generalized-hexagon check",
     lambda ctx: _payload(verify_classification_hypotheses(ctx["structure"]))),
    ("generalized-hexagon",
     "the incidence graph has 126 vertices, 189 edges, diameter 6 and "
     "girth 12; the point distance distribution is (1, 6, 24, 32) from "
     "every base point",
     lambda ctx: _payload(verify_generalized_hexagon(ctx["structure"]))),
    ("dual-generalized-hexagon",
     "the dual structure (points and lines interchanged) passes the same "
     "generalized-hexagon check",
     lambda ctx: _payload(verify_generalized_hexagon(dual(ctx["structure"])))),
)

AUT_STAGES = (
    ("automorphism-group-order",
     "the automorphism group of the structure has order exactly 12096",
     _group_order),
    ("generators-preserve-incidence",
     "every generator maps lines to lines and preserves all 189 "
     "incidences",
     _generators_preserve_incidence),
    ("induced-actions",
     "the induced degree-63 actions on points and on lines are both "
     "transitive and faithful of order 12096, with point subdegrees "
     "1, 6, 24, 32",
     _induced_actions),
    ("character-witness",
     "some automorphism fixes different numbers of points and lines, "
     "separating the two degree-63 permutation characters",
     _character_witness),
)

ANCHORS = {name: anchor for name, anchor, _ in BASE_STAGES + AUT_STAGES}


def run_verify(pairing: int = 0, with_aut: bool = False) -> VerificationReport:
    """Run the verification ladder for one hyperoval pairing."""
    stages = BASE_STAGES + AUT_STAGES if with_aut else BASE_STAGES
    checks, millis = _run_stages(stages, _context(pairing))
    return VerificationReport(__version__, pairing, checks, millis)


# ---------------------------------------------------------------------------
# other subcommands


def collect_counts(pairing: int) -> dict:
    ctx = _context(pairing)
    structure = ctx["structure"]
    kinds = {}
    for tag in structure.tags:
        kinds[tag.kind] = kinds.get(tag.kind, 0) + 1
    # The triangle count sits between the unitary and the hyperoval strata.
    strata = list(_strata_counts(ctx).items())
    return {
        "pairing": pairing,
        "nonzero_vectors": len(nonzero_vectors()),
        **dict(strata[:4]),
        "self_polar_triangles": len(self_polar_triangles()),
        **dict(strata[4:]),
        "ti_lines": len(ti_line_masks()),
        "ti_planes": len(ti_plane_masks()),
        "hexagon_points": len(structure.points),
        "hexagon_lines": len(structure.lines),
        "line_kinds": {k: kinds[k] for k in sorted(kinds)},
    }


def collect_pairings() -> list:
    out = []
    for partition in hyperoval_partitions():
        structure = build(partition)
        report = verify_generalized_hexagon(structure)
        out.append(
            {
                "pairing": partition.index,
                "verdict": "PASS" if report.passed else "FAIL",
                "checks": {c.name: c.passed for c in report.checks},
            }
        )
    return out


def collect_aut(pairing: int) -> dict:
    checks, _ = _run_stages(AUT_STAGES, _context(pairing))
    return _aut_summary(pairing, checks)


def _aut_summary(pairing: int, checks) -> dict:
    checks = {c.name: c for c in checks}
    actions = checks["induced-actions"].witness
    witness = checks["character-witness"]
    return {
        "pairing": pairing,
        "generators": checks["generators-preserve-incidence"].witness["generators"],
        "order": checks["automorphism-group-order"].witness["order"],
        "point_action_order": actions["point_action_order"],
        "line_action_order": actions["line_action_order"],
        "point_transitive": actions["point_orbits"] == 1,
        "line_transitive": actions["line_orbits"] == 1,
        "point_subdegrees": actions["point_subdegrees"],
        "character_witness": witness.witness if witness.passed else None,
    }


# ---------------------------------------------------------------------------
# export


def _bit_string(v) -> str:
    return "".join(map(str, to_gf2(v)))


def export_hexagon(structure: IncidenceStructure, fmt: str) -> str:
    lines = [
        {
            "points": list(members),
            "kind": tag.kind,
            "seed": structure.points.index(tag.seed),
        }
        for tag, members in zip(structure.tags, structure.incidences)
    ]
    if fmt == "json":
        payload = {
            "points": [_bit_string(p) for p in structure.points],
            "lines": lines,
        }
        return json.dumps(payload, indent=2) + "\n"
    out = [f"p{i} {_bit_string(p)}" for i, p in enumerate(structure.points)]
    for i, line in enumerate(lines):
        members = " ".join(f"p{j}" for j in line["points"])
        out.append(f"l{i} {line['kind']} {members} seed=p{line['seed']}")
    return "\n".join(out) + "\n"


def _graph_names(what: str, structure: IncidenceStructure):
    if what == "incidence-graph":
        names = [f"p{i}" for i in range(len(structure.points))]
        names += [f"l{i}" for i in range(len(structure.lines))]
        return incidence_graph(structure), names
    if what == "concurrency-graph":
        return concurrency_graph(structure), [
            f"l{i}" for i in range(len(structure.lines))
        ]
    if what == "point-graph":
        return point_graph(structure), [
            f"p{i}" for i in range(len(structure.points))
        ]
    raise ValueError(f"unknown graph: {what}")


def export_graph(structure: IncidenceStructure, what: str, fmt: str) -> str:
    graph, names = _graph_names(what, structure)
    edges = sorted(
        (names[u], names[v])
        for u in range(graph.vertex_count)
        for v in graph.adjacency[u]
        if u < v
    )
    if fmt == "json":
        payload = {"vertices": names, "edges": [[u, v] for u, v in edges]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "dot":
        out = [f"graph {what.replace('-', '_')} {{"]
        for name in names:
            shape = "box" if name.startswith("l") else "circle"
            out.append(f'  {name} [shape={shape}];')
        for u, v in edges:
            out.append(f"  {u} -- {v};")
        out.append("}")
        return "\n".join(out) + "\n"
    return "\n".join(f"{u} {v}" for u, v in edges) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _emit(text: str, out_path) -> None:
    """Write text to out_path or stdout; an unwritable path exits 2, not 1."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"splithex: cannot write {out_path}: {exc.strerror or exc}",
              file=sys.stderr)
        raise SystemExit(2) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splithex",
        description=(
            "Construct the split Cayley hexagon of order 2 from the unitary "
            "plane over GF(4) and verify it"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--pairing", type=int, choices=(0, 1, 2), default=0,
                       help="hyperoval pairing index (default 0)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to a file")

    p_verify = sub.add_parser("verify", help="run the verification ladder")
    add_common(p_verify)
    p_verify.add_argument("--with-aut", action="store_true",
                          help="also compute the automorphism group checks")

    p_counts = sub.add_parser("counts", help="print the fundamental counts")
    add_common(p_counts)

    p_pairings = sub.add_parser(
        "pairings", help="hexagon verdict for each of the 3 hyperoval pairings"
    )
    p_pairings.add_argument("--format", choices=("text", "json"), default="text")
    p_pairings.add_argument("--out", default=None)

    p_aut = sub.add_parser("aut", help="automorphism group and the two actions")
    add_common(p_aut)

    p_export = sub.add_parser("export", help="export the structure or a graph")
    p_export.add_argument(
        "--what",
        choices=("hexagon", "incidence-graph", "concurrency-graph", "point-graph"),
        default="hexagon",
    )
    add_common(p_export, formats=("json", "dot", "text"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        report = run_verify(pairing=args.pairing, with_aut=args.with_aut)
        text = report.to_json() if args.format == "json" else report.to_text()
        _emit(text, args.out)
        return 0 if report.passed else 1

    if args.command == "counts":
        _emit(_render(collect_counts(args.pairing), args.format), args.out)
        return 0

    if args.command == "pairings":
        verdicts = collect_pairings()
        if args.format == "json":
            text = json.dumps(verdicts, indent=2) + "\n"
        else:
            text = "".join(
                f"pairing {v['pairing']}: GH(2,2) {v['verdict']}\n" for v in verdicts
            )
        _emit(text, args.out)
        return 0 if all(v["verdict"] == "PASS" for v in verdicts) else 1

    if args.command == "aut":
        checks, _ = _run_stages(AUT_STAGES, _context(args.pairing))
        _emit(_render(_aut_summary(args.pairing, checks), args.format), args.out)
        return 0 if all(c.passed for c in checks) else 1

    if args.command == "export":
        structure = build(hyperoval_partitions()[args.pairing])
        if args.what == "hexagon":
            if args.format == "dot":
                parser.error(
                    "hexagon export supports json or text; "
                    "use --what incidence-graph for dot"
                )
            text = export_hexagon(structure, args.format)
        else:
            text = export_graph(structure, args.what, args.format)
        _emit(text, args.out)
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
