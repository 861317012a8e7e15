"""End-to-end CLI tests: payload shapes, exit codes, determinism, the JSON
writer against its oracle, the option-table parser against the full argparse
tree, and golden digests of captured outputs."""

import argparse
import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effcone.verify
from conftest import gamma_table, jsonable, verify_csv
from effcone import cli, gamma_search, make_surface
from effcone.cli import main
from effcone.verify import Records


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

    def test_unclassified_surface_has_null_prediction(self, capsys):
        code, payload = run_json(capsys, "gamma", "--surface", "4,7,17", "--n-max", "5")
        assert code == 0
        assert payload["prediction"] is None and payload["match"] is None
        assert payload["best"] == "68/3"
        assert payload["witnesses"] == [{"family": "B", "n": 3, "nu": 4}]

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

    def test_table_matches_the_plain_dict_oracle(self, capsys, pool, named_surfaces):
        # Pool surfaces from all four branches, the named ones, and P(3,5,7),
        # whose one family is AZ.
        surfaces = [surface for surface, _, _ in pool][::5] + named_surfaces
        for surface in surfaces + [make_surface(3, 5, 7)]:
            table = gamma_table(gamma_search(surface, 200))
            argv = ["gamma", "--surface", f"{surface.a},{surface.b},{surface.c}",
                    "--n-max", "200"]
            code, out = run(capsys, *argv, "--format", "csv")
            assert out == dict_writer_csv(list(table[0]), table)
            json_code, out = run(capsys, *argv)
            assert json_code == code
            # The table's bytes; every other field is read back as written.
            assert out == reference_json({**json.loads(out), "table": table}) + "\n"

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
        # 11*49 - 36*15 = -1: the head's link sign is worked out, not declared.
        code, payload = run_json(
            capsys, "reduce", "--entry", "2", "--k", "1",
            "--surface", "4,49,87", "--u0", "11",
        )
        assert code == 0
        assert payload["sigmas"][0] == -1
        assert payload["identity_exact"] is True

    @pytest.mark.parametrize("argv", [
        ["reduce", "--surface", "4,13,23", "--head", "3,5", "--u0", "0"],
        ["reduce", "--entry", "4", "--k", "1", "--head", "3,5", "--surface", "4,13,23",
         "--u0", "5"],
    ], ids=["bare", "standard"])
    def test_surface_and_head_are_one_head(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "effcone: error: --surface and --head both name the head; give one of them\n"
        )

    def test_c_case_is_an_unknown_argument(self, capsys):
        argv = ["reduce", "--entry", "2", "--k", "1", "--c-case", "--u0", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --c-case" in capsys.readouterr().err

    def test_entry_and_k_must_pair(self, capsys):
        assert main(["reduce", "--k", "1", "--u0", "0"]) == 2
        assert main(["reduce", "--entry", "4", "--u0", "0"]) == 2

    def test_bare_mode_rejects_chain_flags(self, capsys):
        assert main(["reduce", "--surface", "4,13,23", "--u0", "0"]) == 2

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

    def test_exhausted_filter_prints_rationals(self, capsys):
        argv = ["family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "5",
                "--interval", "5/2,11/4"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "effcone: error: only 0/5 surfaces for alpha=1, beta=3, tau=1, "
            "interval=[5/2, 11/4]\n"
        ))


class TestVerify:
    def test_refused_surface_is_named_once(self, capsys):
        assert main(["verify", "--surface", "3,5,7", "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("effcone: error: P(3,5,7): classification requires a = 4 "
                                "and p < 0, got a = 3 and p = -1\n")

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_error_names_the_failing_surface(self, capsys, jobs):
        code = main([
            "verify", "--surface", "4,5,7", "--surface", "4,7,17",
            "--n-max", "5", "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "effcone: error: P(4,7,17): abscissa b/(-p) = 7 outside the open "
            "interval (2, 16/3)\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_n_max_below_one_names_no_surface(self, capsys, monkeypatch, jobs):
        # Refused once, before any surface is swept or any worker started.
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code = main([
            "verify", "--surface", "4,5,7", "--surface", "4,7,13",
            "--n-max", "0", "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err == "effcone: error: require n_max >= 1, got 0\n"

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert main(["verify", "--surface", "4,5,7", "--n-max", "2", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"effcone: error: require jobs >= 1, got {jobs}\n"

    def test_one_worker_by_default(self, capsys, monkeypatch):
        # Without --jobs, no worker pool is started.
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli._parse_args(["verify", "--surface", "4,5,7", "--n-max", "40"]).jobs == 1
        code, out = run(capsys, "verify", "--surface", "4,5,7", "--surface", "4,13,23",
                        "--n-max", "40")
        assert code == 0 and json.loads(out)["aggregate"]["surfaces"] == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_worker_processes_write_the_bytes_of_one_job(self, capsys, fmt):
        # A real process pool: each report, with its Records of margin rows,
        # is pickled in a worker and unpickled here.
        argv = ["verify", "--surface", "4,5,7", "--surface", "4,13,23", "--n-max", "40",
                "--format", fmt]
        code, out = run(capsys, *argv, "--jobs", "2")
        assert (code, out) == run(capsys, *argv, "--jobs", "1")
        assert code == 0 and out.count("\n") > 200

    def test_csv_matches_the_dict_writer_oracle(self, capsys, pool, named_surfaces):
        # Pool surfaces from all four branches, and the named ones, two of
        # which sit on a branch boundary and so have two classifications.
        surfaces = [surface for surface, _, _ in pool][::5] + named_surfaces
        argv = [tok for s in surfaces for tok in ("--surface", f"{s.a},{s.b},{s.c}")]
        code, out = run(capsys, "verify", *argv, "--n-max", "30", "--format", "csv")
        assert code == 0
        assert out == verify_csv(effcone.verify.sweep(surfaces, 30))
        assert out.count("\n") > 30 * len(surfaces)

    def test_failures_match_the_oracle(self, capsys, monkeypatch):
        # Lowered margins make failures, which no surface has at its true margins.
        for name in ("margin_general", "margin_at_multiple"):
            original = getattr(effcone.verify, name)
            monkeypatch.setattr(effcone.verify, name, lambda *args, f=original: f(*args) - 8)
        code, out = run(capsys, "verify", "--surface", "4,5,7", "--surface", "4,13,23",
                        "--n-max", "40")
        reports = effcone.verify.sweep([make_surface(4, 5, 7), make_surface(4, 13, 23)], 40)
        assert code == 1 and all(report["failures"] for report in reports)
        payload = {"reports": reports, "aggregate": effcone.verify.aggregate_sweep(reports)}
        assert out == reference_json(expanded(payload)) + "\n"

    def test_pool_is_sized_by_the_surfaces(self, capsys, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        argv = ["verify", "--surface", "4,5,7", "--surface", "4,13,23", "--n-max", "4"]
        assert run(capsys, *argv, "--jobs", "64") == run(capsys, *argv, "--jobs", "1")
        assert sizes == [2]

    def test_cli_import_loads_no_process_pool(self):
        # Only verify --jobs N > 1 imports the pool, inside verify.sweep.
        env = dict(os.environ, PYTHONPATH=str(Path(effcone.__file__).parents[1]))
        code = (
            "import sys, effcone.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_cli_import_loads_no_dataclasses(self):
        # The value classes are built by hand: dataclasses, with the inspect it
        # imports, added about 20 ms to the start-up of every CLI call.
        env = dict(os.environ, PYTHONPATH=str(Path(effcone.__file__).parents[1]))
        code = "import sys, effcone.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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

    def test_identity_failure_exits_one(self, capsys, monkeypatch):
        # The real check, handed a partner alpha1 one too large, fails on the
        # first pair, (alpha0, beta0) = (1, 2) with sigma = +1.
        check = effcone.verify._check_partners
        monkeypatch.setattr(
            effcone.verify, "_check_partners",
            lambda alpha0, beta0, *partners: check(alpha0, beta0, *(
                (alpha1 + 1, beta1, sigma) for alpha1, beta1, sigma in partners
            )),
        )
        assert main(["calibrate-delta", "--beta-max", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("effcone: verification failure: ")
        assert "(alpha0=1, beta0=2, sigma=1)" in captured.err


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

    @pytest.mark.parametrize("argv", [
        ("h0", "--surface", "4,5,7", "--family", "B", "--n", "3"),
        ("gamma", "--surface", "4,5,7", "--n-max", "3", "--format", "csv"),
    ], ids=["json", "csv"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv, where):
        target = str(tmp_path / "no" / "x.out" if where == "missing-directory" else tmp_path)
        assert main([*argv, "--output", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("effcone: error: ") and target in captured.err

    @pytest.mark.parametrize("argv", [
        ("count", "--tri", "0,0", "1e3000,0", "0,1e3000"),
        ("h0", "--surface", "4,5,7", "--family", "B", "--n", "1" + "0" * 2200),
    ], ids=["count", "h0"])
    def test_integer_past_the_digit_limit_is_a_usage_error(self, capsys, argv):
        # Rendering these counts passes Python's int-to-str digit limit, though
        # every argument fits under it.  The message names the limit, not
        # Python's advice to raise it.
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            f"effcone: error: an integer has more than {limit} digits, the most that "
            "Python converts between integers and text\n"
        )
        assert "set_int_max_str_digits" not in captured.err

    @pytest.mark.parametrize("argv", [
        ("count", "--tri", "0,0", "1,0", "1" * 5000 + ",1"),
        ("count", "--tri", "0,0", "1,0", "1e5000,1"),
        ("count", "--tri", "0,0", "1e999999999,0", "0,1"),
        ("count", "--tri", "0,0", "-1e999999999,0", "0,1"),
        ("count", "--tri", "0,0", "1e-999999999,0", "0,1"),
        ("family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "2",
         "--interval", "1e-999999999,3"),
        ("h0", "--surface", "4,5,7", "--family", "B", "--n", "1" * 5000),
        ("h0", "--surface", "4,5," + "1" * 5000, "--family", "B", "--n", "1"),
    ], ids=["rational", "exponent", "huge-exponent", "negative-huge-exponent",
            "huge-negative-exponent", "interval", "int", "surface"])
    def test_argument_past_the_digit_limit_is_a_usage_error(self, capsys, argv):
        # Parsing these values passes the limit the other way, str to int, or
        # would build a power of ten past it; the message names the limit and
        # does not echo the 5000 digits.  None builds that power.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert time.perf_counter() - start < 1
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert err.endswith(
            f"an integer has more than {limit} digits, the most that Python converts "
            "between integers and text\n"
        )
        assert "set_int_max_str_digits" not in err and "1" * 100 not in err

    def test_closed_stdout_pipe_is_quiet(self):
        # The payload (about 470 KB) overruns the pipe buffer, so the writer
        # is still writing when the reader goes away.
        env = dict(os.environ, PYTHONPATH=str(Path(effcone.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "effcone.cli", "calibrate-delta", "--beta-max", "30",
             "--instances"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(64).startswith(b"{")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and "Error" not in err

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("effcone ")


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-10**80, max_value=10**80),
    st.integers(min_value=-10**12, max_value=10**12).map(Fraction),
    st.fractions(max_denominator=10**15),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600 '),
)
KEYS = st.text(alphabet='ab"\\\n\xe9\u03b2', max_size=4)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=30,
)
# Record lists: lists and tuples of flat dicts, which the writer renders as
# one block of records unless an item is empty or not flat.  Keys and strings
# hold the characters of the literal texts around each value.
RECORD_TEXT = st.text(alphabet='}{,"\\\n: a', max_size=6)
RECORD_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.fractions(max_denominator=10**6), RECORD_TEXT,
)
FLAT_DICTS = st.dictionaries(RECORD_TEXT, RECORD_SCALARS, min_size=1, max_size=4)


@st.composite
def record_lists(draw):
    records = draw(st.lists(FLAT_DICTS, min_size=1, max_size=5))
    if draw(st.booleans()):  # an empty record among them
        records.insert(draw(st.integers(0, len(records))), {})
    return tuple(records) if draw(st.booleans()) else records


@st.composite
def nested_record_lists(draw):
    """A record list nested 0 to 3 deep in lists, tuples and dicts."""
    payload = draw(record_lists())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("list", "tuple", "dict")))
        if kind == "list":
            payload = [payload, draw(record_lists())]
        elif kind == "tuple":
            payload = (payload,)
        else:
            payload = {draw(RECORD_TEXT): payload}
    return payload


# Uniform record lists: plain dicts sharing one key set, each in its own
# insertion order, holding ints, strings, Fractions, bools and None.  The
# writer walks the plain list; as a one-block Records of the same columns, the
# block writer puts their values between the literal texts of a record, one
# "%" per record.  Keys and strings hold "%" and its format letters, which
# that "%" must not read.
UNIFORM_TEXT = st.text(alphabet='%sd{}"\\\n\xe9', max_size=6)
UNIFORM_INTS = st.integers(-10**30, 10**30)
UNIFORM_SCALARS = st.sampled_from((
    UNIFORM_INTS, UNIFORM_TEXT, st.builds(Fraction, UNIFORM_INTS, st.integers(1, 10**6)),
    st.booleans(), st.none(),
))
# Mostly one type per column; the block writer writes a mixed column's values
# one at a time, each by its own type's text.
MIXED_COLUMNS = st.lists(UNIFORM_SCALARS, min_size=2, max_size=3).map(st.one_of)
UNIFORM_COLUMNS = UNIFORM_SCALARS | MIXED_COLUMNS


@st.composite
def uniform_record_lists(draw):
    """2 to 40 records, each column's values drawn in one list and each
    record's key order in one more."""
    keys = draw(st.lists(UNIFORM_TEXT, min_size=1, max_size=8, unique=True))
    count = draw(st.integers(2, 40))
    columns = {key: draw(st.lists(draw(UNIFORM_COLUMNS), min_size=count, max_size=count))
               for key in keys}
    orders = draw(st.lists(st.permutations(keys), min_size=count, max_size=count))
    records = [{key: columns[key][i] for key in order} for i, order in enumerate(orders)]
    for _ in range(draw(st.integers(0, 2))):  # the row texts depend on the depth
        records = {draw(UNIFORM_TEXT): records}
    return records


class Level(IntEnum):
    HIGH = 7


class Tag(str):
    pass


def reference_json(payload) -> str:
    return json.dumps(jsonable(payload), indent=2, sort_keys=True)


def as_records(payload):
    """``payload``, a record list nested in dicts, with the list replaced by a
    one-block Records of its columns; None if its records' key sets differ."""
    if isinstance(payload, dict):
        (key, value), = payload.items()
        table = as_records(value)
        return None if table is None else {key: table}
    keys = tuple(payload[0])
    if any(record.keys() != set(keys) for record in payload):
        return None
    columns = {key: [record[key] for record in payload] for key in keys}
    return Records(keys, [({}, columns)])


# Scalars the writer renders as their text: exact str, int, bool, None and
# Fraction.
SCALAR_LEAVES = (
    True, False, 1, 0, None, "", '"', "\\", "\x00\x1f\n\t\x7f", "\xe9\u2028\U0001f600",
    Fraction(-7, 3), Fraction(5), Fraction(-4),
)
# Leaves of no exact scalar type, which the writer refuses: an IntEnum member,
# a str subclass and floats.
NON_EXACT_LEAVES = (
    Level.HIGH, Tag("%d"), 1.5, -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
)


def with_scalar_leaves(test):
    """``test`` with an example per scalar leaf, alone and as a dict value
    beside a nested container, and one of True and False beside 1 and 0."""
    test = example({"t": True, "one": 1, "f": False, "zero": 0, "list": [[True, 1]]})(test)
    for leaf in SCALAR_LEAVES:
        test = example(leaf)(example({"leaf": leaf, "nested": {"x": [leaf]}})(test))
    return test


class TestJsonWriter:
    @settings(max_examples=400)
    @given(PAYLOADS)
    @with_scalar_leaves
    @example({"a": [{"b": ({"c": [{"d": Fraction(-7, 3)}]},)}], "e": {}, "f": []})
    @example([[[[[1, True, None]]]], [], {}, ((),)])
    @example({"x": [True, 1, False, 0, -(10**70)], "y": Fraction(5), "z": Fraction(-1, 2)})
    @example({"q\"\\": "\x00\u00e9\U0001f600", "": {"\u03b2": ["\t"]}})
    def test_matches_indented_dumps(self, payload):
        assert cli._render_json(payload) == reference_json(payload)

    @settings(max_examples=200)
    @given(nested_record_lists())
    @example([{"a": "},\n    {"}, {"},\n    {": Fraction(1, 3)}])
    @example({"k": [{"x": 1}, {}, {"y": [2]}]})
    @example(([{"}": "{"}],))
    def test_record_lists_match_indented_dumps(self, payload):
        assert cli._render_json(payload) == reference_json(payload)

    @settings(max_examples=200)
    @given(uniform_record_lists())
    @example([{"n": 1, "s": "a"}, {"s": "b", "n": True}])
    @example({"big": [{"x": 10**299 + 1, "y": "y"}, {"y": "z", "x": -(10**300 - 1)}]})
    @example([{"%": 5}, {"%": -5}])
    @example([{"%d": "%s"}, {"%d": "\n"}])
    @example([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    @example([{"a": 1}, {"a": 2, "b": 3}])
    @example([{"q": Fraction(-1, 3), "t": True, "z": None},
              {"z": None, "t": False, "q": Fraction(2)}])
    @example([{"x": None, "%s": Fraction(1, 2)}, {"x": Fraction(1, 2), "%s": None}])
    def test_uniform_record_lists_match_indented_dumps(self, payload):
        assert cli._render_json(payload) == reference_json(payload)
        table = as_records(payload)
        if table is not None:
            assert cli._render_json(table) == reference_json(payload)

    @pytest.mark.parametrize("bad", [
        object(), {1, 2}, 1j, b"bytes", Decimal("1.5"),
        {"a": [1, {"b": object()}]}, [{"c": {2}}], ({"d": b"x"},),
        # Nested values in a Records, which no command builds.
        Records(("n", "x"), [({"x": [1, 2]}, {"n": range(2)})]),
        Records(("n", "x"), [({"x": 0}, {"n": [1, {"y": 2}]})]),
    ])
    def test_unsupported_type_raises(self, bad):
        with pytest.raises(TypeError):
            reference_json(bad)
        with pytest.raises(TypeError):
            cli._render_json(bad)

    def test_non_exact_leaves_raise(self):
        for leaf in NON_EXACT_LEAVES:
            for payload in (
                leaf,
                {"leaf": leaf, "nested": {"x": [leaf]}},
                [{"n": 1}, {"n": leaf}],
                [{"s": "%s"}, {"s": leaf}],
                Records(("n", "s"), [({"s": "%s"}, {"n": [1, leaf]})]),
                Records(("n", "s"), [({"s": leaf}, {"n": range(2)})]),
            ):
                with pytest.raises(TypeError, match=f"type {type(leaf).__name__} is not"):
                    cli._render_json(payload)


class DictSubclass(dict):
    pass


def test_record_list_of_dict_subclasses_matches_indented_dumps():
    # A plain list of records is walked, and a dict subclass in it is written
    # as a dict.
    payload = [DictSubclass(b=1, a=2), {"c": Fraction(1, 3)}]
    assert cli._render_json(payload) == reference_json(payload)


def count_writes(monkeypatch) -> list:
    """Record the depth of every ``cli._write_json`` call from now on."""
    depths = []
    write = cli._write_json

    def counting_write(obj, depth, out):
        depths.append(depth)
        write(obj, depth, out)

    monkeypatch.setattr(cli, "_write_json", counting_write)
    return depths


def test_scalar_column_records_take_the_template(monkeypatch):
    # Writing record by record would render the same bytes, with a call per
    # record and per value.
    columns = {"n": range(1000), "s": [str(n) for n in range(1000)],
               "q": [Fraction(n, 7) for n in range(1000)],
               "odd": [n % 2 == 1 for n in range(1000)], "none": [None] * 1000}
    records = Records(columns, [({}, columns)])
    depths = count_writes(monkeypatch)
    assert cli._render_json({"records": records}) == reference_json({"records": list(records)})
    assert depths == [0, 1]
    squares = [n * n for n in range(1000)]
    squares[500] = Fraction(1, 3)  # a mixed column
    records = Records(("n", "sq"), [({}, {"n": range(1000), "sq": squares})])
    depths.clear()
    assert cli._render_json({"records": records}) == reference_json({"records": list(records)})
    assert depths == [0, 1]


# Records: column blocks of flat dicts, which the writer renders a block at a
# time, the block's shared values joined to the literal texts of a record.  Keys
# and strings hold "%" and its format letters, quotes, backslashes and
# non-ASCII characters.
BLOCK_TEXT = st.text(alphabet='%sd"\\\n\xe9\u2028\U0001f600 {},', max_size=6)
SHARED_VALUES = st.one_of(
    st.integers(-10**30, 10**30), BLOCK_TEXT, st.fractions(max_denominator=10**6),
    st.booleans(), st.none(),
)
BLOCK_COLUMNS = st.one_of(
    st.lists(st.integers(-10**30, 10**30), max_size=5),
    st.builds(range, st.integers(-9, 9), st.integers(-9, 9), st.sampled_from((1, 2, -3))),
    st.lists(BLOCK_TEXT, max_size=5),
)
# CSV cells of no exact scalar type, written as their str().
FALLBACK_ITEMS = st.one_of(st.booleans(), st.just(Level.HIGH), st.floats())


@st.composite
def records_values(draw):
    keys = tuple(draw(st.lists(BLOCK_TEXT, min_size=1, max_size=5, unique=True)))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        column_keys = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        length = draw(st.integers(0, 5))
        columns = {}
        for key in column_keys:
            # A mixed column, whose values the block writer writes one at
            # a time.
            column = draw(BLOCK_COLUMNS | st.lists(SHARED_VALUES, max_size=5))
            columns[key] = (list(column) + [0] * length)[:length]
        if draw(st.booleans()):  # a column as the producers build it, a range
            key = draw(st.sampled_from(column_keys))
            start = draw(st.integers(-5, 5))
            columns[key] = range(start, start + length)
        shared = {key: draw(SHARED_VALUES) for key in keys if key not in columns}
        blocks.append((shared, columns))
    return Records(keys, blocks)


@st.composite
def nested_records(draw):
    """A Records value nested 0 to 4 deep in lists, tuples and dicts."""
    payload = draw(records_values())
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("list", "tuple", "dict")))
        if kind == "list":
            payload = [payload, draw(SHARED_VALUES)]
        elif kind == "tuple":
            payload = (payload,)
        else:
            payload = {draw(BLOCK_TEXT): payload}
    return payload


def expanded(payload):
    """``payload`` with every Records value replaced by the list of its dicts."""
    if isinstance(payload, Records):
        return list(payload)
    if isinstance(payload, dict):
        return {key: expanded(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [expanded(value) for value in payload]
    return payload


# One-field blocks: every disagreement block has this shape, appended with no
# "%" per record.  Texts hold "%", "%d", quotes, backslashes, NUL, U+2028 and
# non-ASCII characters, and keys and shared values "%d" and "%%s".
ONE_FIELD_TEXT = st.text(alphabet='%ds"\\\0\u2028\xe9\U0001f600 ', max_size=6)
ONE_FIELD_KEYS = st.sampled_from(("%d", "%%s")) | ONE_FIELD_TEXT
ONE_FIELD_COLUMNS = st.one_of(
    st.lists(st.integers(-10**80, 10**80), max_size=5),
    st.builds(range, st.integers(-9, 9), st.integers(-9, 9)),
    st.lists(ONE_FIELD_TEXT, max_size=5),
)


@st.composite
def one_field_records(draw):
    """A Records value of one-column blocks, some empty, nested 0 to 4 deep."""
    keys = tuple(draw(st.lists(ONE_FIELD_KEYS, min_size=1, max_size=5, unique=True)))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        field = draw(st.sampled_from(keys))
        shared = {key: draw(st.sampled_from(("%d", "%%s")) | SHARED_VALUES)
                  for key in keys if key != field}
        blocks.append((shared, {field: draw(ONE_FIELD_COLUMNS)}))
    payload = Records(keys, blocks)
    for _ in range(draw(st.integers(0, 4))):
        payload = {draw(ONE_FIELD_KEYS): payload} if draw(st.booleans()) else [payload]
    return payload



class TestRecordsWriter:
    @settings(max_examples=300)
    @given(nested_records())
    @example(Records(("n",)))
    @example({"rows": Records(("n", "s"), [({"s": "%d%%"}, {"n": range(0)})])})
    @example([Records(("%", "%d", "%%s"), [
        ({"%": "%s", "%d": Fraction(-1, 3)}, {"%%s": range(3)}),
        ({"%d": None}, {"%": ["%%", "\u2028"], "%%s": [True, 2]}),
        ({"%": 10**40, "%d": False}, {"%%s": [Fraction(3, 2), 1]}),
    ])])
    @example({"r": [Records(("%%\0%d", "n", "s"), [
        ({"%%\0%d": "%d%%\0"}, {"n": range(-1, 2), "s": ["%s", "\0%%", "%d"]}),
        ({"s": "%%d\0"}, {"n": [10**40, 0], "%%\0%d": [Fraction(-1, 3), None]}),
    ])]})
    def test_matches_indented_dumps_of_the_records(self, payload):
        assert cli._render_json(payload) == reference_json(expanded(payload))

    @pytest.mark.parametrize("column", [
        [Fraction(1, 2)], [None], [True, False], [Fraction(3), Fraction(-1, 3)],
    ])
    def test_scalar_columns_take_the_template(self, column):
        shared = {"s": "%s"}
        out = []
        cli._block_rows(("n", "s"), shared, {"n": column}, 1, out)
        payload = {"rows": Records(("s", "n"), [(shared, {"n": column})])}
        assert "[" + "".join(out)[1:] + "\n]" == reference_json(list(payload["rows"]))
        assert cli._render_json(payload) == reference_json(expanded(payload))

    @pytest.mark.parametrize("column", [
        [1, True], [None, Fraction(1, 2)], [1, Fraction(5, 2)], ["a", 1],
    ])
    def test_mixed_columns_are_written_in_the_block(self, column, monkeypatch):
        shared = {"s": "%s"}
        records = Records(("s", "n"), [(shared, {"n": column})])
        out = []
        cli._block_rows(("n", "s"), shared, {"n": column}, 1, out)
        # The block's rows are the records' list, bar its brackets.
        assert "[" + "".join(out)[1:] + "\n]" == reference_json(list(records))
        depths = count_writes(monkeypatch)
        payload = {"rows": records}
        assert cli._render_json(payload) == reference_json(expanded(payload))
        assert depths == [0, 1]

    def test_unsupported_shared_value_raises(self):
        with pytest.raises(TypeError, match="type float is not"):
            cli._block_rows(("n", "x"), {"x": 0.5}, {"n": range(2)}, 1, [])

    def test_records_take_the_template(self, monkeypatch):
        records = Records(("u", "s", "f"), [({"s": "%x", "f": Fraction(2, 3)}, {"u": range(500)})])
        depths = count_writes(monkeypatch)
        assert cli._render_json({"r": records}) == reference_json({"r": list(records)})
        assert depths == [0, 1]

    @settings(max_examples=300)
    @given(one_field_records())
    @example(Records(("%d", "%%s"), [
        ({"%%s": "%d"}, {"%d": range(0)}), ({"%%s": "%%s"}, {"%d": [10**80, -(10**80)]}),
        ({"%d": "%s"}, {"%%s": []}), ({"%d": None}, {"%%s": ["%", "%d", '"\\\0\u2028\xe9']}),
    ]))
    # An empty range from 0 beside one the digit table covers: a slice up to
    # its stop -1 would not be empty.
    @example(Records(("n", "s"), [({"s": "a"}, {"n": range(0, -1)}),
                                  ({"s": "b"}, {"n": range(3)})]))
    def test_one_field_blocks_match_indented_dumps(self, payload):
        assert cli._render_json(payload) == reference_json(expanded(payload))

    def test_one_field_block_is_appended_as_value_texts(self):
        # No row is formatted: the head, then each value's text with one
        # shared string between them, then the tail.
        out = []
        cli._block_rows(("n", "s"), {"s": "%d"}, {"n": range(3)}, 1, out)
        head, first, joint, second, joint2, third, tail = out
        assert (first, second, third) == ("0", "1", "2") and joint is joint2
        assert head == ',\n  {\n    "n": ' and tail == ',\n    "s": "%d"\n  }'
        assert joint == tail + head
        cli._block_rows(("n",), {}, {"n": []}, 1, out)
        assert len(out) == 7

    @pytest.mark.parametrize("ranges", [
        [range(5)], [range(0, 4), range(2, 6)], [range(3, 7)], [range(-3, 2), range(4)],
        [range(0, 10, 2), range(3)], [range(0), range(2)], [range(0, -1), range(3)],
        [range(5, 2), range(0, -1)], [range(10**6, 10**6 + 2)],
    ], ids=["from-0", "above-0", "above-0-alone", "negative-start", "step-2", "empty",
            "reversed-empty", "both-empty", "far-from-0"])
    @pytest.mark.parametrize("keys", [("n", "s"), ("n",)], ids=["shared", "one-key"])
    def test_counting_columns_match_the_references(self, ranges, keys):
        # Each block's column is a range; the digit table serves the step-1
        # ones from 0 up whenever they hold at least as many values as it has.
        records = Records(keys, [({"s": "%d"}, {"n": column}) if "s" in keys
                                 else ({}, {"n": column}) for column in ranges])
        assert cli._render_json(records) == reference_json(list(records))
        assert cli._render_json({"r": [records]}) == reference_json({"r": [list(records)]})
        assert cli._render_csv(records) == dict_writer_csv(records.keys, records)

    @pytest.mark.parametrize("render", [cli._render_json, cli._render_csv], ids=["json", "csv"])
    def test_blocks_share_the_table_texts(self, render, monkeypatch):
        # Both blocks slice "10", "11" and "12" from one table: the same objects.
        records = Records(("n", "s"), [({"s": "a"}, {"n": range(13)}),
                                       ({"s": "b"}, {"n": range(10, 13)})])
        block_rows, appended = cli._block_rows, []

        def recording(*args):
            out = args[4]
            start = len(out)
            block_rows(*args)
            appended.append([piece for piece in out[start:] if piece.isdigit()])

        monkeypatch.setattr(cli, "_block_rows", recording)
        render(records)
        first, second = appended
        assert first == list(map(str, range(13))) and second == ["10", "11", "12"]
        assert all(map(lambda a, b: a is b, first[10:], second))

    @pytest.mark.parametrize("ranges, table", [
        ([range(10**6, 10**6 + 2)], 0), ([range(3, 7)], 0), ([range(0, 4), range(2, 6)], 6),
        ([range(0, 3), range(0, -1), range(-5, 0)], 3), ([range(0, 10, 2)], 0),
    ])
    def test_table_makes_no_more_texts_than_it_replaces(self, ranges, table):
        blocks = [({"s": "x"}, {"n": column}) for column in ranges]
        texts = cli._digit_table(Records(("n", "s"), blocks).blocks)
        assert texts == list(map(str, range(table)))
        assert len(texts) <= sum(map(len, ranges))

    def test_table_reads_only_one_column_blocks(self):
        # A two-column block keeps its one % per record and adds nothing to the table.
        records = Records(("n", "m"), [({}, {"n": range(50), "m": range(50)})])
        assert cli._digit_table(records.blocks) == []


# Records as CSV: str cells hold the characters a cell is quoted for, "%", NUL
# and the empty string; ints reach 10**80 either way.
CSV_ALPHABET = ',"\r\n%d \0\xe9'
CSV_INTS = st.integers(-10**80, 10**80)


@st.composite
def csv_records(draw, alphabet=CSV_ALPHABET):
    """A Records value whose columns hold ints, a range, strs or mixed values,
    its texts drawn from ``alphabet``."""
    text = st.text(alphabet=alphabet, max_size=4)
    values = st.one_of(CSV_INTS, text, st.fractions(max_denominator=10**6),
                       st.booleans(), st.none())
    keys = tuple(draw(st.lists(text, min_size=1, max_size=5, unique=True)))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        column_keys = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        length = draw(st.integers(0, 5))
        columns = {}
        for key in column_keys:
            items = draw(st.sampled_from((CSV_INTS, text, values | FALLBACK_ITEMS)))
            columns[key] = draw(st.lists(items, min_size=length, max_size=length))
        if draw(st.booleans()):
            start = draw(st.integers(-5, 5))
            columns[draw(st.sampled_from(column_keys))] = range(start, start + length)
        shared = {key: draw(values) for key in keys if key not in columns}
        blocks.append((shared, columns))
    return Records(keys, blocks)


def dict_writer_csv(keys, rows) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, keys, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def csv_text(value) -> str:
    return "" if value is None else str(value)


class TestCsvWriter:
    # csv.writer leaves a "\r" unquoted with "\n" line ends, and csv.reader
    # then splits the row there: only records without one match its bytes.
    @settings(max_examples=300)
    @given(csv_records(CSV_ALPHABET.replace("\r", "")))
    @example(Records(("",), [({}, {"": ["", "a", None, 10**80]})]))
    @example(Records(("a\nb", "x"), [({"x": "\n"}, {"a\nb": ["", ",", '"', "\n", "%d"]})]))
    @example(Records(("s", "n"), [({"s": "\0%%d"}, {"n": [1, 2]}), ({"s": "%"}, {"n": [3]})]))
    @example(Records(("%d", "%%s", "n"), [
        ({"%d": "%s", "%%s": ""}, {"n": range(0)}),
        ({"%d": -(10**80), "%%s": Fraction(-7, 3)}, {"n": range(2)}),
        ({"%d": None}, {"n": [1, 2], "%%s": ["%", True]}),
    ]))
    @example(Records(("%%\0%d", "n", "s"), [
        ({"%%\0%d": "%d%%\0"}, {"n": range(-1, 2), "s": ["%s", "\0%%", "%d"]}),
    ]))
    def test_matches_dict_writer(self, records):
        assert cli._render_csv(records) == dict_writer_csv(records.keys, records)

    @settings(max_examples=300)
    @given(csv_records())
    @example(Records(("a\rb", "x"), [({"x": "\r"}, {"a\rb": ["", ",", '"', "\r\n", "%d"]})]))
    @example(Records(("\r",), [({}, {"\r": ["\r", "", "a\rb"]})]))
    def test_csv_reader_reads_the_records_back(self, records):
        rows = list(csv.reader(io.StringIO(cli._render_csv(records), newline="")))
        assert rows == [list(records.keys)] + [
            list(map(csv_text, record.values())) for record in records
        ]


# argv that argparse rejects or answers (help, version) before any handler runs.
PARSE_EXITS = [
    [], ["--help"], ["-h", "verify"], ["--version"], ["bogus"], ["Count"], ["-5"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["count", "--tri", "0,0", "1,x", "2,2"],
    ["h0", "--surface", "4,6,7", "--family", "B", "--n", "1"],
    ["gamma", "--surface", "4,5,7", "--n-max", "x"],
    ["classify", "--b", "5", "--p", "-2", "--format", "csv"],
    ["reduce", "--entry", "5", "--u0", "0"],
    ["family", "--alpha", "1", "--beta", "3", "--tau", "2", "--count", "1"],
    ["count"], ["h0", "--surface", "4,5,7", "--n", "1"], ["verify", "--n-max", "2"],
    ["calibrate-delta"],
    ["verify", "--surface", "4,5,7", "--n-max", "2", "--jobs", "1", "extra"],
    ["classify", "--b", "5", "--p", "-2", "x", "-1"],
    ["h0", "--surface", "4,5,7", "--family", "B", "--n", "7", "--bogus"],
    ["count", "--version"],
    ["count", "--tri", "0,0", "1,0", "0,1", "--=x"],
    # Each a well-formed call but for its last tokens: values that start with
    # "-", a help flag, a missing value.
    ["classify", "--b", "5", "--p", "-x"],
    ["classify", "--b", "5", "--p", "-2", "--output", "-x"],
    ["gamma", "--surface", "4,5,7", "--n-max", "5", "-h"],
    ["verify", "--surface", "4,5,7", "--n-max"],
    ["count", "--tri", "0,0", "1,0"],
]

# One exact, well-formed argv per command, which the option table reads alone.
WELL_FORMED = [
    ["count", "--tri", "0,0", "-1,0", "-15/7,20/7", "--method", "rowscan"],
    ["h0", "--surface", "4,5,7", "--family", "AZ", "--n", "3"],
    ["nu", "--surface", "4,13,23", "--family", "B", "--n", "5"],
    ["ehrhart", "--surface", "4,13,23", "--family", "C", "--n", "10"],
    ["gamma", "--surface", "4,5,7", "--n-max", "5", "--format", "csv"],
    ["classify", "--b", "13", "--p", "-4"],
    ["lower-bound", "--surface", "3,5,7", "--format", "json"],
    ["reduce", "--entry", "4", "--k", "1", "--surface", "4,13,23", "--u0", "5"],
    ["family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "2",
     "--interval", "3,36/11"],
    ["verify", "--surface", "4,5,7", "--surface", "4,13,23", "--n-max", "12", "--jobs", "1"],
    ["calibrate-delta", "--beta-max", "8", "--instances"],
]

# Values that each option converts and accepts, by its type.
RATIONAL_TEXTS = st.fractions(max_denominator=10**6).map(str)
VALUE_TEXTS = {
    cli._parse_int: st.integers(-10**30, 10**30).map(str),
    cli._parse_pair: st.tuples(RATIONAL_TEXTS, RATIONAL_TEXTS).map(",".join),
    cli._parse_head: st.tuples(st.integers(), st.integers()).map(lambda ab: "%d,%d" % ab),
    cli._parse_surface: st.sampled_from(["4,5,7", "4,13,23", "4,7,13", "3,5,7"]),
    None: st.text(max_size=8).filter(lambda text: not text.startswith("-")),
}


@st.composite
def well_formed_argv(draw) -> list[str]:
    """A valid call of any command, drawn from its option table: every required
    option and a random subset of the others, in random order, with an
    "append" option given one to three times."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = []
    for flag, kwargs in cli._COMMANDS[name][1]:
        if not (kwargs.get("required") or draw(st.booleans())):
            continue
        values = (st.sampled_from(kwargs["choices"]).map(str) if "choices" in kwargs
                  else VALUE_TEXTS[kwargs.get("type")])
        count = 0 if kwargs.get("action") == "store_true" else kwargs.get("nargs", 1)
        for _ in range(draw(st.integers(1, 3)) if kwargs.get("action") == "append" else 1):
            options.append([flag, *(draw(values) for _ in range(count))])
    return [name, *itertools.chain.from_iterable(draw(st.permutations(options)))]


def exit_outcome(capsys, call):
    with pytest.raises(SystemExit) as excinfo:
        call()
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def count_parsers(monkeypatch) -> list:
    """Record the prog of every ArgumentParser built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


class TestParser:
    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
    def test_lazy_parser_matches_full(self, capsys, monkeypatch, argv):
        # Help and usage wrap at the terminal width when they are formatted.
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            lazy = exit_outcome(capsys, lambda: main(argv))
            full = exit_outcome(
                capsys, lambda: cli._build_parser().parse_args(cli._shield_negatives(argv))
            )
            assert lazy == full, columns

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
    def test_well_formed_call_builds_no_parser(self, capsys, monkeypatch, argv):
        built = count_parsers(monkeypatch)
        assert main(argv) == 0
        assert built == []

    @settings(max_examples=300)
    @given(argv=well_formed_argv())
    @example(argv=["family", "--alpha", "1", "--beta", "3", "--tau", "-1", "--count", "2",
                   "--output", ""])
    @example(argv=["classify", "--p", "-4", "--b", "13"])
    @example(argv=["verify", "--surface", "4,5,7", "--n-max", "3", "--surface", "4,7,13",
                   "--surface", "4,5,7"])
    def test_table_namespace_matches_full(self, argv):
        argv = cli._shield_negatives(argv)
        with pytest.MonkeyPatch.context() as patch:
            built = count_parsers(patch)
            args = cli._parse_args(argv)
        assert built == []
        assert args == cli._build_parser().parse_args(argv)

    def test_leftover_argument_builds_the_full_tree(self, capsys, monkeypatch):
        built = count_parsers(monkeypatch)
        code, _, err = exit_outcome(
            capsys, lambda: main(["classify", "--b", "13", "--p", "-4", "x"])
        )
        assert code == 2
        assert err.startswith("usage: effcone [-h] [--version]")
        assert err.endswith("effcone: error: unrecognized arguments: x\n")
        assert built == ["effcone", *(f"effcone {name}" for name in cli._COMMANDS)]

    @pytest.mark.parametrize("argv", [
        ["count", "--tri", "0,0", "1,0", "0,1/0"],
        ["reduce", "--entry", "2", "--k", "1", "--u0", "1", "--head", "1/0,3"],
        ["family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "2",
         "--interval", "1/0,2"],
    ], ids=lambda argv: argv[0])
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        code, out, err = exit_outcome(capsys, lambda: main(argv))
        assert code == 2
        assert "zero denominator in '1/0'" in err
        assert "Traceback" not in err

    # One valid argv per command; "--n-m" and "--inst" are abbreviated flags. The
    # last two fall back to the full tree: a repeated flag, whose last value
    # wins, and "--n=5".
    @pytest.mark.parametrize("argv", [
        ["count", "--tri", "0,0", "-1,0", "-15/7,20/7", "--method", "pick"],
        ["h0", "--surface", "4,5,7", "--family", "AZ", "--n", "3"],
        ["nu", "--surface", "4,13,23", "--family", "B", "--n", "5", "--output", "nu.json"],
        ["ehrhart", "--surface", "4,13,23", "--family", "C", "--n", "10"],
        ["gamma", "--surface", "4,5,7", "--n-max", "20", "--format", "csv",
         "--output", "gamma.csv"],
        ["classify", "--b", "13", "--p", "-4"],
        ["lower-bound", "--surface", "4,13,23", "--format", "json"],
        ["reduce", "--entry", "4", "--k", "1", "--surface", "4,13,23", "--u0", "5"],
        ["family", "--alpha", "1", "--beta", "3", "--tau", "-1", "--count", "2",
         "--interval", "3,36/11"],
        ["verify", "--surface", "4,5,7", "--surface", "4,7,13", "--n-m", "3"],
        ["calibrate-delta", "--beta-max", "10", "--inst"],
        pytest.param(["h0", "--surface", "4,5,7", "--family", "B", "--n", "5", "--n", "7"],
                     id="h0 --n 5 --n 7"),
        pytest.param(["h0", "--surface", "4,5,7", "--family", "B", "--n=5"], id="h0 --n=5"),
    ], ids=lambda argv: argv[0])
    def test_lazy_namespace_matches_full(self, argv):
        argv = cli._shield_negatives(argv)
        assert cli._parse_args(argv) == cli._build_parser().parse_args(argv)

    def test_repeated_flag_keeps_the_last_value(self):
        argv = ["h0", "--surface", "4,5,7", "--family", "B", "--n", "5", "--n", "7"]
        assert cli._parse_args(argv).n == 7


def cli_outcome(capsys, argv):
    """Exit code and stdout + stderr of one call, whether argparse exits or
    the handler returns."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out + captured.err


# argv with a value that argparse rejects, and the reason it must print.
VALUE_ERRORS = [
    (["h0", "--surface", "4,6,7", "--family", "B", "--n", "1"],
     "argument --surface: weights (4, 6, 7) are not pairwise coprime"),
    (["h0", "--surface", "-4,5", "--family", "B", "--n", "1"],
     "argument --surface: expected 'a,b,c', got '-4,5'"),
    (["count", "--tri", "0,0", "-1", "0,1"],
     "argument --tri: expected 'x,y', got '-1'"),
    (["reduce", "--head", "1/2,5", "--u0", "1"],
     "argument --head: expected integers 'alpha,beta', got '1/2,5'"),
    (["count", "--tri", "0,0", "1,x", "2,2"],
     "argument --tri: Invalid literal for Fraction: 'x'"),
    (["count", "--tri", "0,0", "1/2e999999999,0", "0,1"],
     "argument --tri: Invalid literal for Fraction: '1/2e999999999'"),
    (["count", "--tri", "0,0", "0.0.0e999999999,0", "0,1"],
     "argument --tri: Invalid literal for Fraction: '0.0.0e999999999'"),
    (["classify", "--b", "5", "--p", "-3/2"],
     "argument --p: invalid int value: '-3/2'"),
    (["-5"], "invalid choice: '-5'"),
]


class TestValueParsing:
    @pytest.mark.parametrize("argv, vertex", [
        (["count", "--tri", "0,0", "-1.5,2", "3,0"], ["-3/2", "2"]),
        (["count", "--tri", "0,0", "-1e1,0", "0,1"], ["-10", "0"]),
    ], ids=["-1.5", "-1e1"])
    def test_negative_decimal_vertex(self, capsys, argv, vertex):
        code, payload = run_json(capsys, *argv)
        assert code == 0
        assert vertex in payload["vertices"]

    @pytest.mark.parametrize("zero", ["0e999999999", "-0.00E-999999999", "+.0e+9_999_999_999"])
    def test_zero_with_a_huge_exponent_is_zero(self, capsys, zero):
        start = time.perf_counter()
        code, payload = run_json(capsys, "count", "--tri", "0,0", "1,0", f"{zero},1")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert payload["vertices"][2] == ["0", "1"] and payload["count"] == 3

    def test_negative_decimal_interval(self, capsys):
        code, payload = run_json(
            capsys, "family", "--alpha", "1", "--beta", "3", "--tau", "1",
            "--count", "2", "--interval", "-1.5,4",
        )
        assert code == 0
        assert payload["request"]["interval"] == ["-3/2", "4"]
        assert payload["surfaces"]

    @pytest.mark.parametrize("argv, message", VALUE_ERRORS,
                             ids=[" ".join(argv) for argv, _ in VALUE_ERRORS])
    def test_error_names_the_reason(self, capsys, argv, message):
        code, output = cli_outcome(capsys, argv)
        assert code == 2
        assert message in output
        for leak in ("_parse_", "' -", "Fraction("):
            assert leak not in output


# (argv, exit code, SHA-256 of stdout, the --output file and stderr joined by
# NUL) captured before the JSON writer and the per-command parser existed.
GOLDEN = [
    (["count", "--tri", "0,0", "-1,0", "-15/7,20/7"], 0,
     "b4b9d6632eaec247ef29f186e3651d413a2ce930b06cc5cf17a18a7fac3cafe0"),
    (["count", "--tri", "0,0", "-5,0", "-15,20", "--method", "pick"], 0,
     "5aa1d2fe1e7a2375b7874ec7ebef6204a1c785e0c30cd3db5d46e621ded6d583"),
    (["count", "--tri", "0,0", "-1,0", "-15/7,20/7", "--method", "pick"], 2,
     "031d30dcbd8715a6032b95b1a152cce6d68c01761fb1bca0229609a55d3e9d10"),
    (["h0", "--surface", "4,5,7", "--family", "B", "--n", "7"], 0,
     "b972bfca1e52ba00c5edc3ff40ab8f00f45e1e5c719e61792fadbbe6c170277b"),
    (["nu", "--surface", "4,13,23", "--family", "C", "--n", "3"], 0,
     "b5f6ec4ede682cb17c7ff6c47868571f76778dcaff7cd00d8bb8e9751fb1d22a"),
    (["ehrhart", "--surface", "4,13,23", "--family", "B", "--n", "1000"], 0,
     "9831d5ed4c2fd3821a384ecafb4f32a872e9a95d26b810d2f6ce10c25d558b77"),
    (["gamma", "--surface", "4,5,7", "--n-max", "12"], 0,
     "7915550a30ff11411d1493d25b668be913bbcc98167ee855cc57cd2bc6927bee"),
    (["gamma", "--surface", "4,13,23", "--n-max", "9", "--format", "csv"], 0,
     "4418b541810ef55f861dbf524bc6334ad3e655a7a4c3943ed97e441336e5f4a0"),
    (["classify", "--b", "13", "--p", "-4"], 0,
     "b487a091091b3f913fbb8a81532e2d07d5e316406c7d8e05430f70a85f50cc13"),
    (["classify", "--b", "5", "--p", "-2"], 0,
     "07dae43e9d5cc689ff099ab324632ce1dbca900b125dcc903e7bf97df39e8c50"),
    (["classify", "--b", "10", "--p", "-3"], 2,
     "bfa455e4e9374e1d5ac945ccabf57f1a08796fa5db055ff8f2a7eed802d70f3a"),
    (["lower-bound", "--surface", "3,5,7"], 0,
     "97ef9eb2e675efd47a9956cef0f15f5a6575e163a47ab5715d857c7c356cf166"),
    (["reduce", "--head", "3,5", "--u0", "1"], 0,
     "de873e548560012ef2b4b734918035d7805da85ede2e620afd56c89035538f5b"),
    (["reduce", "--head", "3,5", "--u0", "4", "--delta", "paper"], 1,
     "89a579c1d255420bb91a179c3b4040a89c5b07d24df68c2250a88044756a5e2a"),
    (["reduce", "--entry", "4", "--k", "1", "--surface", "4,13,23", "--u0", "5"], 0,
     "2ea55cac032a8704a71060b5cf5aa9ade8e327692f5ad14dbc1b5ca089267acc"),
    (["family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "4"], 0,
     "62f8115c6f0ba30b7604b8ea43f5996dce1aecdf22224f2d47de45e9cef2f805"),
    (["family", "--alpha", "1", "--beta", "3", "--tau", "1", "--count", "2",
      "--interval", "3,36/11"], 0,
     "7f548939501c3b4ad55e038967a2b4e64599e9e5d3f3979e6b61800411538079"),
    (["verify", "--surface", "4,5,7", "--surface", "4,13,23", "--n-max", "12",
      "--jobs", "1"], 0,
     "5700f3e056c1edd9d5bb61a77d0835c03f4059893d8a7ded407dc01fa7a6d327"),
    (["verify", "--surface", "4,7,13", "--n-max", "6", "--jobs", "1", "--format", "csv"], 0,
     "0aae22bb513dab335203e5955e23984050388bad86691210614c0096a98d5175"),
    (["calibrate-delta", "--beta-max", "8"], 0,
     "f795bb3732f0adcb0fcafc01acb6fc03f5113a11e4d520235b8f227f71ea8464"),
    (["calibrate-delta", "--beta-max", "8", "--instances"], 0,
     "d869f685cce52759c3921967a588bf918776edbc332085e5daadfaa25933bfe3"),
    # Captured before record lists of exact ints and strs took a row template.
    (["calibrate-delta", "--beta-max", "24", "--instances"], 0,
     "c4d4e2d0eea766346a82933efedb59f114ec31aa3faac9a7ba1a8a29140e5011"),
    # Captured before the calibration report was built in closed form.
    (["calibrate-delta", "--beta-max", "80"], 0,
     "0bd0e2c87217f288997c404f758ee2683c75b0ea7efb423afac3253d6f7a6611"),
    (["verify", "--surface", "4,13,23", "--surface", "4,7,13", "--n-max", "60",
      "--jobs", "1"], 0,
     "4a1762df87aa1a32bce9528d2259a55fed1f61685a2917b431a6174faff64397"),
    (["h0", "--surface", "4,5,7", "--family", "C", "--n", "5", "--output", "OUT"], 0,
     "efa56e68e60d8b1e0f0d9741b0fc431c6ab0c41985a267e7bb4502a70c4c4bf6"),
    (["gamma", "--surface", "4,5,7", "--n-max", "5", "--format", "csv",
      "--output", "OUT"], 0,
     "667c45a0ba7f32f9a4a7aa427307b92f5d5ece052c2df3f3cc7a60c6fe824a9d"),
    (["verify", "--surface", "4,7,13", "--n-max", "3", "--jobs", "1", "--output", "OUT"], 0,
     "e839ea90cac704737b35b0865e35c2520aad3bfb99b074f601febe4774dafc2b"),
    # Captured before section_counts counted the AZ family.
    (["gamma", "--surface", "3,5,7", "--n-max", "60"], 0,
     "350140747f433523543de8d271b74aae2b845e57353d19f4bd12ec4599c9b106"),
    (["gamma", "--surface", "3,5,7", "--n-max", "60", "--format", "csv"], 0,
     "d36643998190ae2a4392ab074b5f4126b790d45fed4e7a0a4bd8e943b8454f45"),
]


class TestGolden:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN,
                             ids=[" ".join(argv) for argv, _, _ in GOLDEN])
    def test_output_digest(self, capsys, tmp_path, argv, code, digest):
        target = tmp_path / "payload"
        assert main([str(target) if tok == "OUT" else tok for tok in argv]) == code
        captured = capsys.readouterr()
        written = target.read_text(encoding="utf-8") if target.exists() else ""
        blob = "\0".join((captured.out, written, captured.err)).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


# The 40 "ehrhart --surface S --family F --n N" calls of each of the benchmark's
# deep-ehrhart seeds 1 to 3, as "S F N", and the SHA-256 of their stdouts joined
# by NUL, captured before the closed forms were evaluated over one integer
# denominator and before scalar leaves were rendered without the encoder.
DEEP_EHRHART = {
    1: (
        "4,2087,3261 C 27297, 4,1273,2263 C 48833, 4,2677,4759 B 46164, 4,2533,4223 B 73153, "
        "4,1783,2973 B 11497, 4,1895,3369 B 13000, 4,2975,5289 B 81315, 4,2759,4905 C 34459, "
        "4,1237,2199 C 19476, 4,2551,4253 C 77084, 4,2331,4661 C 21762, 4,2933,6599 B 23142, "
        "4,1007,1677 B 16349, 4,2383,3973 C 12228, 4,1535,2729 B 32613, 4,1571,2793 C 86840, "
        "4,1885,3771 C 15418, 4,1895,2961 B 25920, 4,2459,4917 C 54639, 4,1825,3651 B 91637, "
        "4,1063,2125 B 20423, 4,2705,4507 B 41173, 4,2347,3913 B 29154, 4,2701,4503 C 30631, "
        "4,1593,3187 B 36697, 4,1817,3027 C 17322, 4,2663,4161 C 10935, 4,2981,6707 B 57824, "
        "4,1319,2061 B 10300, 4,2709,6095 C 61596, 4,2405,5411 C 24327, 4,1353,2707 C 97014, "
        "4,1307,2177 C 43244, 4,2215,3461 C 69162, 4,1525,2711 B 18321, 4,2829,5659 B 14594, "
        "4,1447,2261 B 64791, 4,2835,5669 B 51714, 4,1247,2217 C 13723, 4,1853,3707 C 38832",
        "8ba9f63d8bdb2c34af53dc9e5497c7dbae4e3ccdd2fc9898d0370130fc8a6143",
    ),
    2: (
        "4,1607,2857 C 13741, 4,1075,2149 B 20623, 4,1653,3719 B 23149, 4,2393,4787 C 15339, "
        "4,2349,4699 C 96852, 4,2117,3527 C 43546, 4,1819,3637 C 54774, 4,1747,3493 C 21743, "
        "4,2543,4521 B 13010, 4,1373,2747 B 36726, 4,2965,5271 C 48956, 4,1509,3395 C 61299, "
        "4,2609,4347 B 41165, 4,1075,1793 B 28899, 4,2075,3689 B 81612, 4,2321,3867 B 16338, "
        "4,2687,4777 C 87017, 4,2791,4361 C 10846, 4,1519,2533 C 12265, 4,1331,2661 B 51853, "
        "4,2983,4661 B 10335, 4,2481,4963 B 91682, 4,1261,2103 B 11529, 4,2089,3483 B 72998, "
        "4,2183,3881 C 34544, 4,2173,3863 C 19335, 4,2087,3261 B 25753, 4,1877,4223 C 24517, "
        "4,2241,4483 B 14460, 4,1913,3827 C 38814, 4,2561,4267 C 17368, 4,1813,3223 B 45900, "
        "4,2087,3261 C 69049, 4,2919,4561 B 64937, 4,2395,3993 C 77535, 4,1531,2553 C 30597, "
        "4,1957,4403 B 57980, 4,1383,2161 C 27301, 4,2245,3991 B 18394, 4,2183,3881 B 32494",
        "d3f8c54b1d4e7860751ed7dbb635f92147267be9677af9e3b2816dce3c41d9f2",
    ),
    3: (
        "4,2209,3927 C 19362, 4,1477,2955 B 14486, 4,2867,5097 B 32575, 4,2173,4347 B 91482, "
        "4,2965,6671 B 23065, 4,2857,4763 B 11544, 4,1253,2507 C 96676, 4,1835,3669 B 51632, "
        "4,2851,5701 C 54536, 4,1319,2345 C 34625, 4,2005,3343 B 73253, 4,2471,4393 C 86928, "
        "4,1621,3647 C 24485, 4,1511,2361 B 10303, 4,2651,4713 B 81899, 4,2013,4027 C 38555, "
        "4,2469,4939 C 15394, 4,2727,4261 B 25961, 4,2687,4477 B 16307, 4,2023,3161 C 27414, "
        "4,1525,2711 B 18330, 4,2279,3561 B 65066, 4,1031,2061 B 20576, 4,2755,4593 C 77241, "
        "4,1925,3207 C 43362, 4,2311,3853 C 30688, 4,1383,2161 C 68943, 4,2785,4643 C 12171, "
        "4,2757,6203 C 61150, 4,1131,2261 C 21667, 4,2339,3897 B 41105, 4,1813,3223 C 48716, "
        "4,2191,3653 B 29078, 4,1319,2061 C 10886, 4,2963,4937 C 17350, 4,2929,5207 B 45912, "
        "4,1031,1833 B 13018, 4,1197,2395 B 36323, 4,2111,3753 C 13687, 4,2885,6491 B 58163",
        "895fe60027b7a558eb1c98d27b76f8485801b6fe75ddaed68a6c2c1e9adcdd33",
    ),
}


@pytest.mark.parametrize("seed", sorted(DEEP_EHRHART))
def test_deep_ehrhart_digest(capsys, seed):
    calls, digest = DEEP_EHRHART[seed]
    outputs = []
    for call in calls.split(", "):
        surface, family, n = call.split()
        assert main(["ehrhart", "--surface", surface, "--family", family, "--n", n]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(outputs) == 40
    assert hashlib.sha256("\0".join(outputs).encode()).hexdigest() == digest


# (argv, SHA-256 as TestGolden takes it) of the two record lists, captured
# before margin rows and calibration records were kept as column blocks.
# "POOL" stands for one --surface per conftest pool surface, then per named one.
RECORD_GOLDEN = [
    (["verify", "POOL", "--n-max", "200", "--jobs", "1"],
     "7ca438c89f9bef94295bf70af6c23ede063120599188b6266cc2e4998f3bfba4"),
    (["verify", "POOL", "--n-max", "200", "--jobs", "1", "--format", "csv"],
     "3111713ad4697d8fb20285ae0239c1bcf58a54f980d84f52c76762d6ad03d82a"),
    (["calibrate-delta", "--beta-max", "80", "--instances"],
     "cce9cdbd91a64877bad7184e890af4fa72b85e337fda616d1e95c3579ce1b198"),
    (["calibrate-delta", "--beta-max", "24"],
     "17aedef85b289e4080c7b04d6df97ea5ef23f88a6467963b93a9066db158f506"),
]


def pool_argv(pool, named_surfaces) -> list[str]:
    surfaces = [surface for surface, _, _ in pool] + named_surfaces
    return [tok for s in surfaces for tok in ("--surface", f"{s.a},{s.b},{s.c}")]


@pytest.mark.parametrize("argv, digest", RECORD_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in RECORD_GOLDEN])
def test_record_list_digest(capsys, pool, named_surfaces, argv, digest):
    surfaces = pool_argv(pool, named_surfaces)
    assert len(surfaces) == 2 * 86
    assert main([tok for arg in argv for tok in (surfaces if arg == "POOL" else [arg])]) == 0
    captured = capsys.readouterr()
    blob = "\0".join((captured.out, "", captured.err)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def readme_examples():
    """``(argv, head, expected)`` for every ``$ effcone ...`` line of README.md:
    its arguments, the ``| head -N`` line limit (or None), and the lines
    printed under it up to the next blank line or code fence."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ effcone "):
            continue
        command, _, pipe = line[len("$ effcone "):].partition("|")
        head = None
        if pipe:
            match = re.fullmatch(r"\s*head -(\d+)\s*", pipe)
            assert match, f"unsupported pipe in README example: {line}"
            head = int(match.group(1))
        expected = []
        for out in lines[i + 1:]:
            if not out or out.startswith("```"):
                break
            expected.append(out)
        examples.append(pytest.param(shlex.split(command), head, expected, id=command.strip()))
    return examples


def matches_with_ellipsis(expected: list[str], actual: list[str]) -> bool:
    """Whether ``actual`` equals ``expected`` with each ``...`` line standing
    for zero or more left-out lines."""
    pattern = "".join(
        r"(?:[^\n]*\n)*?" if line.strip() == "..." else re.escape(line) + "\n"
        for line in expected
    )
    return re.fullmatch(pattern, "".join(out + "\n" for out in actual)) is not None


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(readme_examples()) >= 5

    @pytest.mark.parametrize("argv, head, expected", readme_examples())
    def test_output_lines(self, capsys, argv, head, expected):
        code, out = run(capsys, *argv)
        assert code == 0
        actual = out.splitlines()[:head]
        assert matches_with_ellipsis(expected, actual), "\n".join(actual)

    def test_ellipsis_matching(self):
        assert matches_with_ellipsis(["{", "...", "}"], ["{", "}"])
        assert matches_with_ellipsis(["{", "...", "}"], ["{", "  1,", "  2", "}"])
        assert matches_with_ellipsis(["a", "...", "c", "..."], ["a", "b", "c", "d"])
        assert not matches_with_ellipsis(["{", "...", "}"], ["{", "1"])
        assert not matches_with_ellipsis(["a", "b"], ["a", "b", "c"])
        assert not matches_with_ellipsis(["a.b"], ["axb"])
