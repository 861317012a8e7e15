"""End-to-end CLI tests: payload shapes, exit codes, determinism."""

import json

import pytest

from effcone.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestCount:
    def test_rowscan_rational(self, capsys):
        code, payload = run_json(
            capsys, "count", "--tri", "0,0", "-1,0", "-15/7,20/7",
        )
        assert code == 0
        assert payload["count"] == 3
        assert payload["method"] == "rowscan"
        assert payload["vertices"] == [["0", "0"], ["-1", "0"], ["-15/7", "20/7"]]

    def test_pick_integral(self, capsys):
        code, payload = run_json(
            capsys, "count", "--tri", "0,0", "-5,0", "-15,20", "--method", "pick",
        )
        assert code == 0 and payload["count"] == 61

    def test_pick_rejects_rational(self, capsys):
        code = main(["count", "--tri", "0,0", "-1,0", "-15/7,20/7", "--method", "pick"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCounts:
    def test_h0(self, capsys):
        code, payload = run_json(
            capsys, "h0", "--surface", "4,5,7", "--family", "B", "--n", "7",
        )
        assert code == 0 and payload["h0"] == 79
        assert payload["surface"] == {"a": 4, "b": 5, "c": 7, "p": -2, "q": 3}

    def test_nu(self, capsys):
        code, payload = run_json(
            capsys, "nu", "--surface", "4,13,23", "--family", "C", "--n", "3",
        )
        assert code == 0 and (payload["h0"], payload["nu"]) == (37, 8)

    def test_invalid_surface(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["h0", "--surface", "4,6,7", "--family", "B", "--n", "1"])
        assert excinfo.value.code == 2

    def test_gated_family(self, capsys):
        # Reduced type 1: the B polytope shape does not apply.
        assert main(["h0", "--surface", "4,5,9", "--family", "B", "--n", "1"]) == 2


class TestEhrhart:
    def test_exact(self, capsys):
        code, payload = run_json(
            capsys, "ehrhart", "--surface", "4,5,7", "--family", "B", "--n", "7",
        )
        assert code == 0
        assert payload["c0"] == "1" and payload["value"] == "79"
        assert payload["h0"] == 79 and payload["exact_match"] is True

    def test_rejects_positive_p(self, capsys):
        assert main(["ehrhart", "--surface", "4,5,19", "--family", "B", "--n", "1"]) == 2


class TestGamma:
    def test_json(self, capsys):
        code, payload = run_json(capsys, "gamma", "--surface", "4,5,7", "--n-max", "12")
        assert code == 0
        assert payload["best"] == "12" == payload["prediction"]
        assert payload["match"] is True
        assert payload["witnesses"] == [
            {"family": "B", "n": 7, "nu": 12},
            {"family": "C", "n": 5, "nu": 12},
        ]
        assert len(payload["table"]) == 24

    def test_csv(self, capsys):
        code, out = run(capsys, "gamma", "--surface", "4,5,7", "--n-max", "3",
                        "--format", "csv")
        # The predicted threshold is first attained at n = 5, so a horizon
        # of 3 is a (reported) mismatch: csv rows still emit, exit code 1.
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,h0,nu,value"
        assert len(lines) == 7
        assert lines[1] == "B,1,3,1,7"

    def test_csv_exit_zero_at_attaining_horizon(self, capsys):
        code, out = run(capsys, "gamma", "--surface", "4,5,7", "--n-max", "5",
                        "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "C,5,79,12,12"

    def test_csv_rejected_on_json_only_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--b", "5", "--p", "-2", "--format", "csv"])
        assert excinfo.value.code == 2


class TestClassify:
    def test_negative_p_is_shielded(self, capsys):
        code, payload = run_json(capsys, "classify", "--b", "13", "--p", "-4")
        assert code == 0
        assert payload["x"] == "13/4"
        (cls,) = payload["classifications"]
        assert cls == {
            "k": 1, "branch": "I'+", "m0": 3, "family": "C", "nu0": 8,
            "gamma_pred": "104/3",
        }

    def test_boundary_reports_both(self, capsys):
        code, payload = run_json(capsys, "classify", "--b", "5", "--p", "-2")
        assert code == 0
        assert [c["branch"] for c in payload["classifications"]] == ["I'-", "I'+"]
        assert {c["gamma_pred"] for c in payload["classifications"]} == {"12"}

    def test_out_of_range(self, capsys):
        assert main(["classify", "--b", "7", "--p", "-4"]) == 2

    def test_invalid_surface(self, capsys):
        # b/(-p) = 10/3 is in range, but c = 3b + 4p = 18 shares 2 with b.
        assert main(["classify", "--b", "10", "--p", "-3"]) == 2
        assert "(4, 10, 18)" in capsys.readouterr().err


class TestLowerBound:
    def test_small_a(self, capsys):
        code, payload = run_json(capsys, "lower-bound", "--surface", "3,5,7")
        assert code == 0 and payload["bound"] == 10

    def test_rejected_surface(self, capsys):
        assert main(["lower-bound", "--surface", "4,5,7"]) == 2


class TestReduce:
    def test_bare_head(self, capsys):
        code, payload = run_json(capsys, "reduce", "--head", "3,5", "--u0", "1")
        assert code == 0
        assert payload["chain"] == [[3, 5], [1, 2]]
        assert payload["sigmas"] == [-1]
        assert payload["total"] == "1/5" == payload["deficit_direct"]
        assert payload["identity_exact"] is True

    def test_paper_policy_drift_is_exit_one(self, capsys):
        code, payload = run_json(
            capsys, "reduce", "--head", "3,5", "--u0", "4", "--delta", "paper",
        )
        assert code == 1
        assert payload["identity_exact"] is False
        assert payload["total"] == "1" and payload["deficit_direct"] == "0"

    def test_bare_head_needs_unit_determinant(self, capsys):
        assert main(["reduce", "--head", "4,13", "--u0", "0"]) == 2

    def test_standard_chain_with_surface_head(self, capsys):
        code, payload = run_json(
            capsys, "reduce", "--entry", "4", "--k", "1",
            "--surface", "4,13,23", "--u0", "5",
        )
        assert code == 0
        assert payload["chain"] == [[4, 13], [1, 3], [1, 2]]
        assert payload["identity_exact"] is True

    def test_c_case_flips_lead(self, capsys):
        code, payload = run_json(
            capsys, "reduce", "--entry", "2", "--k", "1", "--c-case",
            "--surface", "4,49,87", "--u0", "11",
        )
        assert code == 0
        assert payload["sigmas"][0] == -1
        assert payload["identity_exact"] is True

    def test_entry_and_k_must_pair(self, capsys):
        assert main(["reduce", "--k", "1", "--u0", "0"]) == 2
        assert main(["reduce", "--entry", "4", "--u0", "0"]) == 2

    def test_bare_mode_rejects_chain_flags(self, capsys):
        assert main(["reduce", "--head", "3,5", "--u0", "0", "--c-case"]) == 2

    def test_surface_head_needs_negative_p(self, capsys):
        assert main(
            ["reduce", "--entry", "4", "--k", "1", "--surface", "4,5,19", "--u0", "0"]
        ) == 2


class TestFamily:
    def test_sequence(self, capsys):
        code, payload = run_json(
            capsys, "family", "--alpha", "1", "--beta", "3", "--tau", "1",
            "--count", "2",
        )
        assert code == 0
        assert [(s["b"], s["c"]) for s in payload["surfaces"]] == [(7, 13), (13, 23)]
        assert [s["x"] for s in payload["surfaces"]] == ["7/2", "13/4"]

    def test_interval_filter(self, capsys):
        code, payload = run_json(
            capsys, "family", "--alpha", "1", "--beta", "3", "--tau", "1",
            "--count", "2", "--interval", "3,36/11",
        )
        assert code == 0
        assert [(s["b"], s["c"]) for s in payload["surfaces"]] == [(13, 23), (19, 33)]


class TestVerify:
    def test_json_report(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--surface", "4,5,7", "--n-max", "6", "--jobs", "1",
        )
        assert code == 0
        agg = payload["aggregate"]
        assert agg["surfaces"] == 1 and agg["failure_count"] == 0
        assert agg["all_gamma_match"] is True
        assert agg["smallest_clean_b"] == 5

    def test_csv_rows(self, capsys):
        code, out = run(
            capsys, "verify", "--surface", "4,7,13", "--n-max", "4",
            "--jobs", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,branch,family,n,h0,rhs,margin"
        assert len(lines) == 1 + 2 * 4  # one classification, two families

    def test_non_integer_jobs_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFCONE_JOBS", "x")
        assert main(["verify", "--surface", "4,5,7", "--n-max", "2"]) == 2
        err = capsys.readouterr().err
        assert "EFFCONE_JOBS" in err and "'x'" in err


class TestCalibrate:
    def test_summary_omits_instances(self, capsys):
        code, payload = run_json(capsys, "calibrate-delta", "--beta-max", "5")
        assert code == 0
        assert payload["disagreement_count"] == 18
        assert payload["matrix"] == {
            "agree_0": 54, "agree_1": 0, "paper_1_true_0": 18, "paper_0_true_1": 0,
        }
        assert payload["disagreements"] == "omitted (rerun with --instances)"

    def test_instances_included_on_request(self, capsys):
        code, payload = run_json(
            capsys, "calibrate-delta", "--beta-max", "5", "--instances",
        )
        assert code == 0
        assert len(payload["disagreements"]) == 18
        assert all(d["sigma"] == -1 for d in payload["disagreements"])


class TestHarness:
    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "gamma", "--surface", "4,13,23", "--n-max", "9")
        _, second = run(capsys, "gamma", "--surface", "4,13,23", "--n-max", "9")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "payload.json"
        code = main(["h0", "--surface", "4,5,7", "--family", "C", "--n", "5",
                     "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["h0"] == 79

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("effcone ")
