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
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .algebra import to_gf2
from .geometry import (
    exterior_points,
    hyperoval_partitions,
    nonzero_vectors,
    self_polar_triangles,
    strata_for,
    ti_lines,
    ti_plane_masks,
    ti_planes,
    unital_points,
    vector_mask,
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
    IncidenceStructure,
    build,
    concurrency_graph,
    dual,
    incidence_graph,
    is_connected,
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


@dataclass(frozen=True)
class CheckRecord:
    """One report entry: the claim checked, outcome, payload and timing."""

    name: str
    anchor: str
    passed: bool
    witness: object = None
    millis: float = 0.0

    def to_dict(self) -> dict:
        out = {"name": self.name, "anchor": self.anchor, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        out["millis"] = self.millis
        return out


@dataclass(frozen=True)
class VerificationReport:
    version: str
    pairing: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "pairing": self.pairing,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.anchor}")
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
    records = []
    for name, anchor, fn in stages:
        start = time.perf_counter()
        passed, witness = fn(ctx)
        elapsed = round((time.perf_counter() - start) * 1000.0, 3)
        records.append(CheckRecord(name, anchor, passed, witness, elapsed))
    return tuple(records)


def _payload(report) -> tuple:
    """A verifier report as (passed, details of every check + failures)."""
    details = {c.name: c.detail for c in report.checks if c.detail is not None}
    if not report.passed:
        details["failures"] = {
            c.name: _jsonable(c.witness) for c in report.failures()
        }
    return report.passed, details


def _symplectic_counts(ctx):
    lines = ti_lines()
    planes = ti_planes()
    plane_sizes = {len(M) for M in planes}
    # Each line and plane as a mask over the vector codes; one intersection
    # per line-plane pair gives both counts: a line lies in a plane exactly
    # when they meet in all of its vectors.
    plane_masks = ti_plane_masks()
    per_line, meets = set(), set()
    for L in lines:
        mask = vector_mask(L)
        sizes = [(mask & M).bit_count() for M in plane_masks]
        per_line.add(sizes.count(len(L)))
        meets.update(sizes)
    counts = {
        "vectors": len(nonzero_vectors()),
        "ti_lines": len(lines),
        "ti_planes": len(planes),
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
    connected = is_connected(graph)
    payload = {"connected": connected, "degrees": sorted(degrees)}
    return connected and degrees == {6}, payload


def _group_order(ctx):
    structure = ctx["structure"]
    npts, nlines = len(structure.points), len(structure.lines)
    generators = automorphism_generators(
        incidence_graph(structure), [0] * npts + [1] * nlines
    )
    group = PermutationGroup(npts + nlines, generators)
    ctx["generators"] = generators
    ctx["group"] = group
    return group.order == EXPECTED_GROUP_ORDER, {"order": group.order}


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


def run_verify(pairing: int = 0, with_aut: bool = False) -> VerificationReport:
    """Run the verification ladder for one hyperoval pairing."""
    stages = BASE_STAGES + AUT_STAGES if with_aut else BASE_STAGES
    return VerificationReport(
        version=__version__, pairing=pairing,
        checks=_run_stages(stages, _context(pairing)),
    )


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
        "ti_lines": len(ti_lines()),
        "ti_planes": len(ti_planes()),
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
    return _aut_summary(pairing, _run_stages(AUT_STAGES, _context(pairing)))


def _aut_summary(pairing: int, records) -> dict:
    checks = {c.name: c for c in records}
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
        records = _run_stages(AUT_STAGES, _context(args.pairing))
        info = _aut_summary(args.pairing, records)
        _emit(_render(info, args.format), args.out)
        return 0 if all(c.passed for c in records) else 1

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
