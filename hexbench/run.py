"""The splithex benchmark: one caller in a closed loop, one process.

    python3 hexbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each exists):

* ``cli-cold``       a fresh interpreter per request runs
                     ``splithex verify --with-aut --format json --pairing k``;
* ``aut-relabeled``  in-process, warm caches: the automorphism chain on a
                     seeded relabeling of the hexagon for pairing seed % 3;
* ``screen-mixed``   in-process, warm caches: every verifier on requests of
                     one relabeled hexagon and one single-point
                     substitution, so the candidates are half PASS, half FAIL.

Each request is timed alone and then checked against the paper's answers
(``answers.py``); a request that raises, exits non-zero or disagrees is
failed.  With ``--trace 0`` the loop runs for ``--seconds`` and reports the
end-to-end metrics.  The host's speed drifts by up to 1.5x over seconds to
minutes, so each time is scaled to a reference speed by a fixed reference
workload timed between the requests (``pace.py``); the wall times as measured
are printed next to them.  With ``--trace 1`` each request of a fixed, seeded list
is run untraced and then with span wrappers patched into splithex, so call
counts repeat exactly for a seed, and the per-layer metrics plus the tracing
overhead are reported.  The last line of output is one JSON object; a fuller
record (and, when tracing, every span) is written to ``hexbench/out/``.

At most one child process runs at a time and no threads are started.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BOOTSTRAP = HERE / "bootstrap.py"
CLI_TRACE = OUT / "cli.spans.json"  # written by each traced cli-cold child in turn
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import bootstrap  # noqa: E402  (puts src first on sys.path)
import inputs  # noqa: E402
import spans  # noqa: E402
from pace import Pace  # noqa: E402

# Fresh interpreters timed for setup_s, spread evenly over the run because the
# machine's speed drifts over seconds; the median is reported.
SETUP_REPEATS = 10
FLOOR_REPEATS = 7  # bare interpreters timed for cli.python_floor_ms
# Requests in a traced run, fixed so that call counts repeat for a seed.
TRACE_REQUESTS = {"cli-cold": 6, "aut-relabeled": 12, "screen-mixed": 30}
CHILD_TIMEOUT_S = 120
# Per-layer metrics measured once per fresh interpreter, not per request.
COLD_SPANS = ("cli.import", "geometry.hyperoval_partitions", "geometry.ti_lines",
              "geometry.ti_planes")


# ---------------------------------------------------------------------------
# child processes


def _child(args, **kwargs) -> subprocess.CompletedProcess:
    """Run one child to completion from the checkout root."""
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)


def _load_trace(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    path.unlink()
    return trace


def setup_probe(trace: bool) -> dict:
    """Time import, geometry caches and three builds in a fresh interpreter."""
    trace_path = OUT / "setup.spans.json"
    proc = _child([BOOTSTRAP, "setup", *(["--trace", trace_path] if trace else [])])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout)
    if trace:
        probe["trace"] = _load_trace(trace_path)
    return probe


def python_floor_ms(repeats: int) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _child(["-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    stream: object  # seed -> iterator of requests
    run: object  # (request, traced) -> output
    check: object  # (request, output) -> list of mismatches
    in_process: bool = True
    # (request, output) -> [(label, seconds)] for parts timed inside a request
    parts: object = lambda request, output: []


def cli_cold() -> Workload:
    def run(request, traced):
        index, pairing = request
        extra = ["--trace", CLI_TRACE, "--request", index] if traced else []
        return _child([BOOTSTRAP, "cli", *extra, "--", "verify", "--with-aut",
                       "--format", "json", "--pairing", pairing])

    def check(request, proc):
        return answers.check_cli_report(request[1], proc.returncode, proc.stdout)

    return Workload("cli-cold", lambda seed: enumerate(inputs.cli_cold_stream(seed)),
                    run, check, in_process=False)


def aut_relabeled() -> Workload:
    from splithex import groups, hexagon

    bases = bootstrap.library()
    coloring = [0] * 63 + [1] * 63  # points, then lines: the bipartition

    def run(request, traced):
        _, _, points, lines = request
        structure = hexagon.IncidenceStructure(points=points, lines=lines)
        graph = hexagon.incidence_graph(structure)
        generators = groups.automorphism_generators(graph, coloring)
        group = groups.PermutationGroup(len(coloring), generators)
        point_action, line_action = groups.induced_actions(group, structure)
        subdegrees = point_action.stabilizer_orbit_sizes(0)
        witness = groups.nonequivalence_certificate(point_action, line_action)
        return generators, group.order, point_action, line_action, subdegrees, witness

    def check(request, output):
        return answers.check_automorphisms(request[2], request[3], *output)

    return Workload("aut-relabeled",
                    lambda seed: inputs.aut_relabeled_stream(seed, bases), run, check)


def screen_mixed() -> Workload:
    from splithex import geometry, hexagon

    bases = bootstrap.library()

    def screen(pairing, points, lines):
        structure = hexagon.IncidenceStructure(points=points, lines=lines)
        partition = geometry.hyperoval_partitions()[pairing]
        strata = geometry.strata_for(partition)
        return {
            "partial_linear_space": hexagon.verify_partial_linear_space(structure),
            "plane_property": hexagon.verify_plane_property(structure),
            "concurrency_witnesses":
                hexagon.verify_concurrency_witnesses(strata, partition),
            "concurrency_graph": hexagon.concurrency_graph(structure),
            "generalized_hexagon": hexagon.verify_generalized_hexagon(structure),
            "classification_hypotheses":
                hexagon.verify_classification_hypotheses(structure),
            "dual_generalized_hexagon":
                hexagon.verify_generalized_hexagon(hexagon.dual(structure)),
        }

    def run(request, traced):
        out = []
        for pairing, points, lines, _ in request[1]:
            start = time.perf_counter()
            results = screen(pairing, points, lines)
            out.append((results, time.perf_counter() - start))
        return out

    def check(request, output):
        return [error for candidate, (results, _) in zip(request[1], output)
                for error in answers.check_screen(candidate[3], results)]

    def parts(request, output):
        return [("pass" if candidate[3] else "fail", seconds)
                for candidate, (_, seconds) in zip(request[1], output)]

    return Workload("screen-mixed",
                    lambda seed: inputs.screen_mixed_stream(seed, bases), run, check,
                    parts=parts)


MAKERS = {"cli-cold": cli_cold, "aut-relabeled": aut_relabeled,
          "screen-mixed": screen_mixed}
WORKLOADS = tuple(MAKERS)


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Sample:
    seconds: float
    errors: list
    parts: list = field(default_factory=list)  # [(label, seconds)]

    def scaled(self, factor: float) -> "Sample":
        return Sample(self.seconds * factor, self.errors,
                      [(label, seconds * factor) for label, seconds in self.parts])


@dataclass
class Run:
    samples: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.errors)

    def latencies_ms(self) -> list:
        return [s.seconds * 1000.0 for s in self.samples]

    def part_latencies_ms(self, label: str) -> list:
        return [seconds * 1000.0 for s in self.samples
                for part, seconds in s.parts if part == label]


def serve(workload: Workload, request, traced: bool = False) -> Sample:
    """Time one request, then check its output outside the timed region."""
    start = time.perf_counter()
    try:
        output = workload.run(request, traced)
    except Exception as exc:  # a raising request is a failed request
        return Sample(time.perf_counter() - start, [f"raised {exc!r}"])
    seconds = time.perf_counter() - start
    return Sample(seconds, workload.check(request, output),
                  workload.parts(request, output))


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest whole percentile with at least 10
    samples above it, by nearest rank; the maximum when there are 10 or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    pct = 100 * (n - 10) // n
    return pct, xs[max(1, math.ceil(pct * n / 100)) - 1]


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple:
    """The closed loop for ``seconds``; returns (run, metrics, extras).

    Every time is scaled to the reference speed by the reference passes that
    bracket it (see ``pace.py``); the wall times as measured are reported
    next to them as ``*_wall_*`` extras.
    """
    stream = workload.stream(seed)
    pace = Pace()
    timed = []  # set-up seconds and request Samples, with a pace pass after each
    wall_setups = []

    def probe():
        wall_setups.append(setup_probe(trace=False)["setup_s"])
        timed.append(wall_setups[-1])
        pace.mark()

    probe()
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if now >= start + seconds * len(wall_setups) / SETUP_REPEATS:
            probe()
        timed.append(serve(workload, next(stream)))
        pace.mark()
    factors = pace.factors()
    setups = [t * f for t, f in zip(timed, factors) if isinstance(t, float)]
    wall = Run([t for t in timed if isinstance(t, Sample)])
    run = Run([t.scaled(f) for t, f in zip(timed, factors) if isinstance(t, Sample)])
    latencies = run.latencies_ms()
    pct, tail_ms = tail(latencies)
    wall_ms = wall.latencies_ms()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (len(latencies) / (sum(latencies) / 1000.0), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    extras = {
        "error_rate": (run.failed / len(latencies), "ratio"),
        "latency_tail_percentile": (pct, "%"),
        "requests": (len(latencies), "count"),
        "setup_wall_s": (statistics.median(wall_setups), "s"),
        "requests_per_s_wall": (len(wall_ms) / (sum(wall_ms) / 1000.0), "1/s"),
        "latency_p50_wall_ms": (statistics.median(wall_ms), "ms"),
        "latency_tail_wall_ms": (tail(wall_ms)[1], "ms"),
        "pace_pass_p50_ms": (statistics.median(pace.passes) * 1000.0, "ms"),
    }
    for label in ("pass", "fail"):
        if subset := run.part_latencies_ms(label):
            extras[f"{label}_p50_ms"] = (statistics.median(subset), "ms")
    return run, metrics, extras


def per_layer(workload: Workload, seed: int) -> tuple:
    """A fixed request list, each request run untraced and then traced.

    Returns (run, metrics, spans).  Running the pair back to back keeps the
    machine's drift out of the tracing overhead.
    """
    requests = list(islice(workload.stream(seed), TRACE_REQUESTS[workload.name]))
    tracer = spans.Tracer()
    plain, traced = [], []
    for i, request in enumerate(requests):
        plain.append(serve(workload, request))
        if workload.in_process:
            tracer.request = i
            tracer.install()
            try:
                traced.append(serve(workload, request, True))
            finally:
                tracer.uninstall()
        else:
            traced.append(serve(workload, request, True))
            tracer.absorb(_load_trace(CLI_TRACE))

    n = len(requests)
    self_s = spans.self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans) + tracer.counts
    metrics = {}
    for name in spans.SPAN_NAMES:
        if name not in COLD_SPANS:
            metrics[f"{name}.ms"] = (self_s[name] * 1000.0 / n, "ms")
    for name in (*spans.SPAN_NAMES, *spans.COUNT_NAMES):
        if name not in COLD_SPANS:
            metrics[f"{name}.calls"] = (calls[name] / n, "count")
    for name in ("groups.generators", "groups.elements.yielded"):
        metrics[name] = (calls[name] / n, "count")
    refine = calls["groups.refine"]
    metrics["groups.useful_ratio"] = (
        calls["groups.generators"] / refine if refine else 0.0, "ratio")

    firsts = [spans.first_self_times(setup_probe(trace=True)["trace"]["spans"])
              for _ in range(SETUP_REPEATS)]
    for name in COLD_SPANS:
        metrics[f"{name}.ms"] = (statistics.median(f[name] for f in firsts) * 1000.0,
                                 "ms")
    metrics["cli.python_floor_ms"] = (python_floor_ms(FLOOR_REPEATS), "ms")
    overhead = statistics.median(t.seconds / p.seconds for p, t in zip(plain, traced))
    metrics["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
    return Run(plain + traced), metrics, tracer.spans


# ---------------------------------------------------------------------------
# output


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, wanted: list) -> dict:
    workload = MAKERS[name]()
    OUT.mkdir(exist_ok=True)
    if trace:
        run, metrics, span_list = per_layer(workload, seed)
        extras = {}
    else:
        run, metrics, extras = end_to_end(workload, seed, seconds)
        span_list = None
    mismatches = [e for s in run.samples for e in s.errors]
    print(f"# {name} seed={seed} trace={int(trace)} requests={len(run.samples)} "
          f"failed={run.failed}")
    table = {**metrics, **extras}
    for key, (value, unit) in table.items():
        print(f"{name:14s} {key:42s} {value:14.4f} {unit}")
    for message in sorted(set(mismatches))[:10]:
        print(f"{name:14s} MISMATCH {message}")
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record = {
        "workload": name, "seed": seed, "trace": trace, "environment": environment(),
        "attempted": len(run.samples), "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "mismatches": sorted(set(mismatches)),
    }
    if span_list is not None:
        record["spans"] = span_list
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    return {
        "correct": run.failed == 0,
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splithex" / "__init__.py").is_file():
        print(f"splithex sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace), wanted)
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
