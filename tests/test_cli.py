import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splithex.cli as cli_module
import splithex.hexagon as hexagon_module
from splithex.cli import (
    collect_aut,
    collect_counts,
    collect_pairings,
    main,
    run_verify,
    strip_timing,
)
from splithex.geometry import ti_line_masks, ti_plane_masks
from splithex.groups import (
    Automorphisms,
    PermutationGroup,
    character_witness,
    induced_actions,
)
from splithex.hexagon import Check, Report, bfs_distances, verify_generalized_hexagon


def test_run_verify_passes_and_has_schema():
    report = run_verify(pairing=0)
    assert report.passed
    payload = report.to_dict()
    assert set(payload) == {"version", "pairing", "checks", "verdict"}
    assert payload["verdict"] == "PASS"
    assert payload["pairing"] == 0
    for check in payload["checks"]:
        assert {"name", "anchor", "pass", "millis"} <= set(check)
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "symplectic-counts",
        "strata-counts",
        "partial-linear-space",
        "point-plane-property",
        "concurrency-witnesses",
        "concurrency-connected",
        "classification-hypotheses",
        "generalized-hexagon",
        "dual-generalized-hexagon",
    ]


def test_the_report_is_a_report_of_checks_with_a_timing_sidecar():
    report = run_verify(pairing=0, with_aut=True)
    assert isinstance(report, Report)
    assert all(type(c) is Check for c in report.checks)
    assert report.failures() == ()
    assert len(report.millis) == len(report.checks)
    assert [c["millis"] for c in report.to_dict()["checks"]] == list(report.millis)


def test_every_stage_has_one_anchor_in_the_stage_table():
    stages = cli_module.BASE_STAGES + cli_module.AUT_STAGES
    names = [name for name, _, _ in stages]
    assert len(set(names)) == len(names)
    assert cli_module.ANCHORS == {name: anchor for name, anchor, _ in stages}
    report = run_verify(pairing=0, with_aut=True)
    assert [(c["name"], c["anchor"]) for c in report.to_dict()["checks"]] == [
        (name, anchor) for name, anchor, _ in stages]


def test_run_verify_with_aut_adds_group_checks():
    report = run_verify(pairing=0, with_aut=True)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names[-4:] == [
        "automorphism-group-order",
        "generators-preserve-incidence",
        "induced-actions",
        "character-witness",
    ]
    order_check = next(c for c in report.checks if c.name == "automorphism-group-order")
    assert order_check.witness == {"order": 12096}


def test_the_ladder_searches_each_graph_once(monkeypatch):
    searched = []

    def counted(graph, start):
        searched.append(graph)
        return bfs_distances(graph, start)

    monkeypatch.setattr(hexagon_module, "bfs_distances", counted)
    assert run_verify(0).passed
    # one BFS of the incidence graph, which the dual inherits, and one of
    # the concurrency graph, which the hypotheses stage reads again
    assert len(searched) == 2
    assert sorted(graph.vertex_count for graph in searched) == [63, 126]


def test_the_group_order_needs_the_search_order_to_agree(monkeypatch):
    # the chain still finds 12096, but the search tree reports another order
    search = cli_module.automorphism_generators

    def miscounted(graph, coloring):
        gens = search(graph, coloring)
        return Automorphisms(gens, gens.base, 2 * gens.order)

    monkeypatch.setattr(cli_module, "automorphism_generators", miscounted)
    report = run_verify(pairing=0, with_aut=True)
    order_check = next(c for c in report.checks if c.name == "automorphism-group-order")
    assert not order_check.passed and report.verdict == "FAIL"
    assert order_check.witness == {"order": 12096}


@pytest.mark.parametrize("entry", [run_verify, collect_counts, collect_aut])
@pytest.mark.parametrize("pairing", [-1, 3, 7])
def test_every_entry_point_rejects_a_pairing_out_of_range(entry, pairing):
    with pytest.raises(ValueError, match="pairing must be 0, 1 or 2"):
        entry(pairing)


@pytest.mark.parametrize("pairing", [1, 2])
def test_run_verify_other_pairings_pass(pairing):
    report = run_verify(pairing=pairing)
    assert report.passed
    assert report.pairing == pairing


def test_reports_are_deterministic():
    a = run_verify(pairing=0)
    b = run_verify(pairing=0)
    ja = json.dumps(strip_timing(a.to_dict()), indent=2)
    jb = json.dumps(strip_timing(b.to_dict()), indent=2)
    assert ja == jb


def test_text_report_headline():
    text = run_verify(pairing=0).to_text()
    assert "GH(2,2): PASS" in text
    assert "verdict: PASS" in text


def test_main_verify_exit_codes(capsys):
    assert main(["verify"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pairing", "7"])
    assert exc.value.code == 2


def test_main_verify_json(capsys):
    assert main(["verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "PASS"


def test_main_verify_reports_failure_with_exit_1(monkeypatch, capsys):
    # a hand-built report: its one check takes its anchor from the stage table
    failing = cli_module.VerificationReport(
        version="0.0.0",
        pairing=0,
        checks=(Check("generalized-hexagon", False, witness={"girth": 10}),),
        millis=(0.0,),
    )
    monkeypatch.setattr(
        cli_module, "run_verify", lambda pairing=0, with_aut=False: failing
    )
    assert cli_module.main(["verify"]) == 1
    out = capsys.readouterr().out
    anchor = cli_module.ANCHORS["generalized-hexagon"]
    assert f"[FAIL] generalized-hexagon: {anchor}" in out
    assert '{"girth": 10}' in out
    assert "GH(2,2): FAIL" in out
    assert "verdict: FAIL" in out
    assert main(["verify", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [{
        "name": "generalized-hexagon", "anchor": anchor, "pass": False,
        "witness": {"girth": 10}, "millis": 0.0,
    }]


# sha256 of the indented JSON of each deterministic report; any change to a
# verify, counts or aut output shows here.
GOLDEN_VERIFY_DIGESTS = {
    (0, False): "77e4f4560225a079cb9d3af87e67e0ae960dff8b5f5b6875e288dd5e9990dcc3",
    (0, True): "3609f01c3bdc7c2028b1291bd6c7f8b48f0ff1cca5fc94d5c7fec753ae3df1ba",
    (1, False): "52f102a2d3420b333df064435c5da47a69b75d4de9710e1b70a3ea0b41b5232e",
    (1, True): "216d4e956b10a085eacd425856da2225ac2b2d72090d304dc73d7af96da48c8f",
    (2, False): "f67812ab665022df6976af9c4823c0cecc427820a7aacf61da85a107ee1431f0",
    (2, True): "d4f62d0e4bbe380aeb400c75fb4d3cf068b5fd0d5fafa417624c765a2cd9c581",
}
GOLDEN_COUNTS_DIGESTS = {
    0: "804a31e003bc36bf39cf8c26fa3fc59a72054a392e72767bf6af72feed994a64",
    1: "49d1ea6de9eed70b08175e579f3c34f519a5c9e73241ea84ff4aa51bf568eabf",
    2: "62d8402bc34c6b468e24c33a7247becdffdea368c7afc374b2d633b455ec13e1",
}
GOLDEN_AUT_DIGEST = "a1f5261d3866d893914494529c687fa86040bfb0d3c16e456c9a3354fdd1d7dd"

# sha256 of the stdout of each CLI command below: every export, both
# pairings formats and the text forms of counts and aut.
GOLDEN_OUTPUT_DIGESTS = {
    "export --pairing 0 --what hexagon --format json":
        "f2237263814fe1b64805845e7e0c7441f2e629bbaed2e36c3c6f113ad6bcc981",
    "export --pairing 0 --what hexagon --format text":
        "993fb822a735d3bcbf3218bfd094d03b62f3f667dc2e617c6129f40984b82e58",
    "export --pairing 0 --what incidence-graph --format json":
        "88863de9b199ff2adccb3df06ea46f1b374024582d618795863a48249d9e619f",
    "export --pairing 0 --what incidence-graph --format dot":
        "67b50c2fdf9a512c39bbc84f11f23b248f00716aa1a6978de8d66ba5c54ed0b4",
    "export --pairing 0 --what incidence-graph --format text":
        "738e675ffe8068636b1008673310c3250c9746abd00d06bff61969c56888b8da",
    "export --pairing 0 --what concurrency-graph --format json":
        "0b2bb101aa3fa9ccd5f14df14f9876b333aadcdce6435fd8f697a968052d6b9b",
    "export --pairing 0 --what concurrency-graph --format dot":
        "54351df3b0ec390117b881c75353eb975c365f0aa49b1aeb2459aa3443cb0ba5",
    "export --pairing 0 --what concurrency-graph --format text":
        "9f39d6e1241558e75cc4c8fc68ee1f66e8e6335c5347b039475e1f34661862d0",
    "export --pairing 0 --what point-graph --format json":
        "108a440e6a8078a14a93c831afbdafc456858909c88dfb19c71e69ef4f15620b",
    "export --pairing 0 --what point-graph --format dot":
        "d82d51084a65ea5d421f44b235605548e129cbf7d9b1ec86b0613f0d0826920d",
    "export --pairing 0 --what point-graph --format text":
        "54dd849c67b3f2c1a43009f8e98b0858ccf5505d2b3981a4f59334899f4f5da9",
    "export --pairing 1 --what hexagon --format json":
        "7d4f75d07b3888075397347d8cd9821f6e89b5c5f2c3c10cb0c87a4f5d23b741",
    "export --pairing 1 --what hexagon --format text":
        "f85f66e11b4091eaa43a5c02b6491a38dcc7d79031d410375ec69ae9818adef3",
    "export --pairing 1 --what incidence-graph --format json":
        "7ea6f73d22b317a2658d9114c647b8cb58b2591f50e67fd603687e712a68e7f2",
    "export --pairing 1 --what incidence-graph --format dot":
        "d57f584313810e44bea918fa7d63030e98d262bb93443fb38043f90397de8b2e",
    "export --pairing 1 --what incidence-graph --format text":
        "2d45e56d339267ec35299ccc45c7a413f9a825de6aa0a50e3b1a1d89c82e26b1",
    "export --pairing 1 --what concurrency-graph --format json":
        "6b2774a84078b8196b34716515a89b1f6a72c848ff70897f5296e96a32a117aa",
    "export --pairing 1 --what concurrency-graph --format dot":
        "f7fad350eb8396c81ed9da5a65e99aae921aa632d105f89c28d3fcf650abdbbf",
    "export --pairing 1 --what concurrency-graph --format text":
        "4990f7301f447e311dfbb122a2ddf6b11768488e32d1be71e9a02c1f249222af",
    "export --pairing 1 --what point-graph --format json":
        "0d4a0f5dd870a75e9dbb6e1d43ba13a516acd20fd352756c196cd1611325d3cf",
    "export --pairing 1 --what point-graph --format dot":
        "50e9f1102ecdc1a9fb466e5ca1e0337dfe4b7e5dc483e3b9ee1cb31d0cef1512",
    "export --pairing 1 --what point-graph --format text":
        "611fd02698e8901e38d17cd3dde0b083cc24b8acb1efe0db0874b9be205284a0",
    "export --pairing 2 --what hexagon --format json":
        "3aa4e383a6931d6c3c66f678f57f95fdd64ba8239ef4972a3e45443b82440f08",
    "export --pairing 2 --what hexagon --format text":
        "f079df70af0a158e3d5fc7d2355532cc139d033b57e569738da976b97d644467",
    "export --pairing 2 --what incidence-graph --format json":
        "c1e5a427f91a0b6e4a0b9bb07b6e2df1f0803be15af94cc6620d7aae5b21e4ec",
    "export --pairing 2 --what incidence-graph --format dot":
        "02c3bc0498d137cc37d4ff171581d85924cb63b84a01c01dac7ebd1e6df7d334",
    "export --pairing 2 --what incidence-graph --format text":
        "eda4f9fcedaa9eb675bcce06f645902321aaeea362064a3951c53b0660867ac5",
    "export --pairing 2 --what concurrency-graph --format json":
        "8e1dbabe28ea8df0caffcf16e1342a1d8d1432c11e18fe5cf935ccea7b62c03a",
    "export --pairing 2 --what concurrency-graph --format dot":
        "ec1f1037487ac564a0293c37ef43edaac8a58165d261fce46271e3f9ec0b1c80",
    "export --pairing 2 --what concurrency-graph --format text":
        "d12d561c320248d6ae2d8e77c6bdab04566e1e4cc35d5d6b78e0f1faebd9d52c",
    "export --pairing 2 --what point-graph --format json":
        "0b76a8d8bb6afa0f97b97410af1d04bd322adf37c6e75babc144e7631835ef5a",
    "export --pairing 2 --what point-graph --format dot":
        "6d828533d1cda5d2343af35e55e6218f3b13a274c4dab42045d07660c27d05f3",
    "export --pairing 2 --what point-graph --format text":
        "66a21b5fd3b4880ec3ee438fbaa54e738ac291e3a245150e08bb768008875f25",
    "pairings --format text":
        "78c7dc5bd3c6e6409b95ee431868728c91d5c139552c762dfee8167503c02076",
    "pairings --format json":
        "b241cfa03ca3ad200e8b3b4da029732c17314ebba0c9d67c74d62ea204d290ac",
    "counts --pairing 0":
        "2dba0c196a3700c1d56fa3b116c71ad5f5c749fc7e45aaa51b569458f07be888",
    "counts --pairing 1":
        "c37f38f7c3c82c9f641ae44b3c19e16e038c9e5032f0829380a48560cd48880e",
    "counts --pairing 2":
        "e7db14b6176b865693d68e76456a8b4463f2eb00c9f4bf1560771535283bb116",
    "aut --pairing 0":
        "0e14b305482273d541baa36feccc825a104d88206530101d7dca8a56ddb54976",
    "aut --pairing 1":
        "23f8fd4b0a18b1f9eb594e307d9d2805e9c3d7c4577105d8df93fc5d6189f1db",
    "aut --pairing 2":
        "8aebd2e917fb6eb27de1af570cd6bd1b16fac0e400f260f3636d10b049fad383",
}

def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize(("pairing", "with_aut"), sorted(GOLDEN_VERIFY_DIGESTS))
def test_verify_report_matches_golden_digest(pairing, with_aut):
    report = run_verify(pairing, with_aut)
    digest = _digest(strip_timing(report.to_dict()))
    assert digest == GOLDEN_VERIFY_DIGESTS[(pairing, with_aut)]


@pytest.mark.parametrize("pairing", sorted(GOLDEN_COUNTS_DIGESTS))
def test_counts_match_golden_digest(pairing):
    assert _digest(collect_counts(pairing)) == GOLDEN_COUNTS_DIGESTS[pairing]


def test_aut_matches_golden_digest():
    assert _digest(collect_aut(0)) == GOLDEN_AUT_DIGEST


@pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUT_DIGESTS))
def test_cli_output_matches_golden_digest(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_OUTPUT_DIGESTS[command]


def test_verify_corrupted_structure_fails_with_witnesses(monkeypatch, capsys, corrupted):
    monkeypatch.setattr(cli_module, "build", lambda partition: corrupted)
    assert main(["verify", "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    failed = {name for name, c in checks.items() if not c["pass"]}
    assert failed == {
        "partial-linear-space",
        "point-plane-property",
        "concurrency-connected",
        "classification-hypotheses",
        "generalized-hexagon",
        "dual-generalized-hexagon",
    }
    assert checks["concurrency-witnesses"]["pass"]
    # every failing report-backed step: the details of every check, then the
    # failing checks with their witnesses
    hexagon_keys = [
        "incidence-vertex-count", "incidence-edge-count", "incidence-diameter",
        "incidence-girth", "point-distance-distribution", "failures",
    ]
    expected_keys = {
        "partial-linear-space": [
            "point-count", "line-count", "line-kind-counts", "points-per-line",
            "lines-per-point", "failures",
        ],
        "point-plane-property": ["plane-size-7", "failures"],
        "classification-hypotheses": [
            "three-lines-span-a-plane", "concurrency-graph-connected", "failures",
        ],
        "generalized-hexagon": hexagon_keys,
        "dual-generalized-hexagon": hexagon_keys,
    }
    for name, keys in expected_keys.items():
        payload = checks[name]["witness"]
        assert list(payload) == keys
        failures = payload["failures"]
        assert failures and any(w is not None for w in failures.values())
    assert checks["partial-linear-space"]["witness"]["failures"] == {
        "lines-per-point": [0, 0, 2],
        "order": None,
    }


# sha256 of the corrupted fixture's ``verify`` output, computed before the
# table-driven plane and concurrency-witness checks: the millis-stripped JSON
# (hashed like the digests above) and the text report.
GOLDEN_CORRUPTED_DIGESTS = {
    "json": "14ad79986f1cef5e1fe6c47ffd6405670e612db5f093e4a13dfd89da3babdd08",
    "text": "13328ffc39ee2cd0af2814486f6c37537df0392f78f677d5c2e411efece800d4",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_CORRUPTED_DIGESTS))
def test_corrupted_report_matches_golden_digest(monkeypatch, capsys, corrupted, fmt):
    monkeypatch.setattr(cli_module, "build", lambda partition: corrupted)
    assert main(["verify", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        digest = _digest(strip_timing(json.loads(out)))
    else:
        digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_CORRUPTED_DIGESTS[fmt]


def test_counts_values():
    counts = collect_counts(0)
    assert counts["nonzero_vectors"] == 63
    assert counts["isotropic_vectors"] == 27
    assert counts["norm_one_vectors"] == 36
    assert counts["ti_lines"] == 315
    assert counts["ti_planes"] == 135
    assert counts["line_kinds"] == {"oval": 27, "scalar": 9, "twin": 27}


# codes 1..6 and 9: not closed (1 ^ 9 is missing) and not isotropic (the
# vectors with codes 1 and 2 are not orthogonal); some t.i. lines meet it twice
NON_ISOTROPIC_7_SET = sum(1 << c for c in (1, 2, 3, 4, 5, 6, 9))


def naive_meet_counts(line_masks, plane_masks):
    """Per line, the planes meeting it in 0..3 vectors, one pair at a time."""
    return [
        tuple(sum((line & plane).bit_count() == k for plane in plane_masks)
              for k in range(4))
        for line in line_masks
    ]


def corrupted_planes(case):
    planes = set(ti_plane_masks())
    if case != "genuine":
        planes.remove(min(planes))
    if case == "swapped":
        planes.add(NON_ISOTROPIC_7_SET)
    return frozenset(planes)


@pytest.mark.parametrize("case", ["genuine", "dropped", "swapped"])
def test_symplectic_counts_census_and_failure(monkeypatch, capsys, case):
    planes = corrupted_planes(case)
    # the bit-sliced census counts what the pair-by-pair loop counts
    census = naive_meet_counts(ti_line_masks(), planes)
    assert cli_module._meet_counts(ti_line_masks(), planes) == census
    monkeypatch.setattr(cli_module, "ti_plane_masks", lambda: planes)
    status = main(["verify", "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    [stage] = [c for c in checks if c["name"] == "symplectic-counts"]
    counts = stage["witness"]
    assert counts["planes_per_line"] == sorted({n[3] for n in census})
    assert counts["line_plane_meets"] == [k for k in range(4)
                                          if any(n[k] for n in census)]
    assert all(c["pass"] for c in checks if c is not stage)
    if case == "genuine":
        assert status == 0 and stage["pass"]
        assert counts["planes_per_line"] == [3]
        assert counts["line_plane_meets"] == [0, 1, 3]
        return
    assert status == 1 and not stage["pass"]
    if case == "dropped":
        # the dropped plane's 7 lines lie in only 2 planes
        assert counts["ti_planes"] == 134
        assert counts["planes_per_line"] == [2, 3]
    else:
        assert counts["ti_planes"] == 135 and counts["plane_sizes"] == [7]
        assert counts["planes_per_line"] != [3]
        assert 2 in counts["line_plane_meets"]


def test_cold_counts_and_verify_decode_no_tuples():
    # both read the symplectic space and the hermitian perps as masks:
    # ti_lines/ti_planes stay unbuilt
    script = (
        "import contextlib, io\n"
        "from splithex import cli, geometry\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['counts']) == 0\n"
        "    assert cli.main(['verify', '--with-aut']) == 0\n"
        "print(*(f.cache_info().currsize for f in (geometry.ti_lines,"
        " geometry.ti_planes)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_pairings_all_pass():
    verdicts = collect_pairings()
    assert [v["pairing"] for v in verdicts] == [0, 1, 2]
    assert [v["verdict"] for v in verdicts] == ["PASS", "PASS", "PASS"]


@pytest.mark.parametrize("pairing", [0, 1, 2])
def test_character_witness_stage_matches_certificate(pairing):
    ctx = cli_module._context(pairing)
    checks, _ = cli_module._run_stages(cli_module.AUT_STAGES, ctx)
    checks = {c.name: c for c in checks}
    structure = ctx["structure"]
    npts = len(structure.points)
    # the joint group rebuilt from the two actions' generators, not the
    # group object the stage scanned
    point_action, line_action = induced_actions(ctx["group"], structure)
    joined = [a + tuple(x + npts for x in b)
              for a, b in zip(point_action.generators, line_action.generators)]
    degree = npts + len(structure.lines)
    certificate = character_witness(PermutationGroup(degree, joined), npts)
    assert certificate is not None
    assert checks["character-witness"].witness == {
        "fixed_points": certificate.fixed_points,
        "fixed_lines": certificate.fixed_lines,
    }


def test_aut_summary():
    info = collect_aut(0)
    assert info["order"] == 12096
    assert info["point_action_order"] == 12096
    assert info["line_action_order"] == 12096
    assert info["point_subdegrees"] == [1, 6, 24, 32]
    assert info["character_witness"] == {"fixed_points": 7, "fixed_lines": 9}


def test_main_aut_reports_a_failing_stage_with_exit_1(monkeypatch, capsys):
    # a character scan that exhausts the group without a certificate; the
    # golden output digests check that aut exits 0 on pairings 0-2
    name, anchor, _ = cli_module.AUT_STAGES[-1]
    failing = (name, anchor, lambda ctx: (False, "no character certificate"))
    stages = cli_module.AUT_STAGES[:-1] + (failing,)
    monkeypatch.setattr(cli_module, "AUT_STAGES", stages)
    assert main(["aut", "--format", "json"]) == 1
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 12096
    assert info["character_witness"] is None


def test_main_counts_and_pairings(capsys):
    assert main(["counts", "--format", "json"]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["hexagon_lines"] == 63
    assert main(["pairings"]) == 0
    out = capsys.readouterr().out
    assert "pairing 0: GH(2,2) PASS" in out


def test_main_pairings_reports_a_failing_pairing_with_exit_1(monkeypatch, capsys,
                                                             corrupted):
    build = cli_module.build
    monkeypatch.setattr(cli_module, "build", lambda partition: (
        corrupted if partition.index == 1 else build(partition)))
    assert main(["pairings"]) == 1
    assert capsys.readouterr().out == (
        "pairing 0: GH(2,2) PASS\n"
        "pairing 1: GH(2,2) FAIL\n"
        "pairing 2: GH(2,2) PASS\n"
    )
    assert main(["pairings", "--format", "json"]) == 1
    verdicts = json.loads(capsys.readouterr().out)
    assert [v["verdict"] for v in verdicts] == ["PASS", "FAIL", "PASS"]
    failing = {c.name for c in verify_generalized_hexagon(corrupted).failures()}
    assert failing
    for v in verdicts:
        expected = failing if v["pairing"] == 1 else set()
        assert {name for name, ok in v["checks"].items() if not ok} == expected


def test_export_hexagon_json(capsys):
    assert main(["export", "--what", "hexagon", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 63
    assert all(len(bits) == 6 and set(bits) <= {"0", "1"} for bits in payload["points"])
    assert len(payload["lines"]) == 63
    for line in payload["lines"]:
        assert sorted(line["points"]) == line["points"]
        assert len(line["points"]) == 3
        assert line["kind"] in {"scalar", "oval", "twin"}
        assert 0 <= line["seed"] < 63


def test_export_dot_names(capsys):
    assert main(["export", "--what", "incidence-graph", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph incidence_graph {")
    assert "p0 [shape=circle];" in out
    assert "l62 [shape=box];" in out
    assert "p0 -- l" in out


def test_export_point_graph_json(capsys):
    assert main(["export", "--what", "point-graph", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["vertices"]) == 63
    assert len(payload["edges"]) == 189


def test_export_hexagon_dot_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["export", "--what", "hexagon", "--format", "dot"])
    assert exc.value.code == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", "--format", "json", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "PASS"


def test_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a directory: every check passes, but the report cannot be written
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"splithex: cannot write {tmp_path}: Is a directory"]
    target = tmp_path / "report.txt"
    assert main(["verify", "--out", str(target)]) == 0
    assert target.read_text() == run_verify().to_text()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splithex.cli", "counts", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nonzero_vectors"] == 63


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter under the same environment, since
    # site may load modules (typing, say) before any import of ours
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys; print(' '.join(sorted(sys.modules)))"
    loaded = []
    for script in (probe, "import splithex.cli; " + probe):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(proc.stdout.split()))
    added = loaded[1] - loaded[0]
    assert "splithex.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
