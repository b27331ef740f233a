import hashlib
import json
import subprocess
import sys

import pytest

from splithex.cli import (
    collect_aut,
    collect_counts,
    collect_pairings,
    main,
    run_verify,
    strip_timing,
)


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


def test_run_verify_rejects_bad_pairing():
    with pytest.raises(ValueError, match="pairing"):
        run_verify(pairing=7)


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
    assert a.to_dict(timing=False) == b.to_dict(timing=False)


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
    import splithex.cli as cli_module

    failing = cli_module.VerificationReport(
        version="0.0.0",
        pairing=0,
        checks=(
            cli_module.CheckRecord(
                name="doomed", anchor="always fails", passed=False
            ),
        ),
    )
    monkeypatch.setattr(
        cli_module, "run_verify", lambda pairing=0, with_aut=False: failing
    )
    assert cli_module.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out


# sha256 of the indented JSON of each deterministic report; any change to a
# verify, counts or aut output shows here.
GOLDEN_VERIFY_DIGESTS = {
    (0, False): "77e4f4560225a079cb9d3af87e67e0ae960dff8b5f5b6875e288dd5e9990dcc3",
    (0, True): "7864c66759b0fd8ed0b4ef87a0201ac4b664a7e5043fa1d03a43057af5171824",
    (1, False): "52f102a2d3420b333df064435c5da47a69b75d4de9710e1b70a3ea0b41b5232e",
    (1, True): "9c1a71640bd6d0771f0dc08da570b0584f7ed3e99aa95f4808e11a2d020354b4",
    (2, False): "f67812ab665022df6976af9c4823c0cecc427820a7aacf61da85a107ee1431f0",
    (2, True): "7b3cd15e28d80f8a23199e0b911ec5c4c06ad69b1bca8202080821d28e21f1a6",
}
GOLDEN_COUNTS_DIGESTS = {
    0: "804a31e003bc36bf39cf8c26fa3fc59a72054a392e72767bf6af72feed994a64",
    1: "49d1ea6de9eed70b08175e579f3c34f519a5c9e73241ea84ff4aa51bf568eabf",
    2: "62d8402bc34c6b468e24c33a7247becdffdea368c7afc374b2d633b455ec13e1",
}
GOLDEN_AUT_DIGEST = "41644ec8303f56c1f4a1712fa9a2c0cf8360fb94f80ab8e9aded7da3a6ff8e1c"


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


def test_verify_corrupted_structure_fails_with_witnesses(monkeypatch, capsys, corrupted):
    import splithex.cli as cli_module

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


def test_counts_values():
    counts = collect_counts(0)
    assert counts["nonzero_vectors"] == 63
    assert counts["isotropic_vectors"] == 27
    assert counts["norm_one_vectors"] == 36
    assert counts["ti_lines"] == 315
    assert counts["ti_planes"] == 135
    assert counts["line_kinds"] == {"oval": 27, "scalar": 9, "twin": 27}


def test_pairings_all_pass():
    verdicts = collect_pairings()
    assert [v["pairing"] for v in verdicts] == [0, 1, 2]
    assert [v["verdict"] for v in verdicts] == ["PASS", "PASS", "PASS"]


def test_aut_summary():
    info = collect_aut(0)
    assert info["order"] == 12096
    assert info["point_action_order"] == 12096
    assert info["line_action_order"] == 12096
    assert info["point_subdegrees"] == [1, 6, 24, 32]
    assert info["character_witness"] == {"fixed_points": 0, "fixed_lines": 1}


def test_main_counts_and_pairings(capsys):
    assert main(["counts", "--format", "json"]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["hexagon_lines"] == 63
    assert main(["pairings"]) == 0
    out = capsys.readouterr().out
    assert "pairing 0: GH(2,2) PASS" in out


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splithex.cli", "counts", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nonzero_vectors"] == 63
