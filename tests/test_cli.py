"""End-to-end CLI tests: payload shapes, exit codes, determinism, the JSON
writer against its oracle, the per-command parser against the full one, and
golden digests of captured outputs."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effcone.verify
from conftest import jsonable
from effcone import cli
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

        monkeypatch.setattr(effcone.verify, "ProcessPoolExecutor", no_pool)
        code = main([
            "verify", "--surface", "4,5,7", "--surface", "4,7,13",
            "--n-max", "0", "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err == "effcone: error: require n_max >= 1, got 0\n"

    def test_non_integer_jobs_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFCONE_JOBS", "x")
        assert main(["verify", "--surface", "4,5,7", "--n-max", "2"]) == 2
        err = capsys.readouterr().err
        assert "EFFCONE_JOBS" in err and "'x'" in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert main(["verify", "--surface", "4,5,7", "--n-max", "2", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == (
            f"effcone: error: --jobs must be at least 1, got {jobs}\n"
        )

    @pytest.mark.parametrize("env", ["0", "-4"])
    def test_jobs_variable_below_one_is_a_usage_error(self, capsys, monkeypatch, env):
        monkeypatch.setenv("EFFCONE_JOBS", env)
        assert main(["verify", "--surface", "4,5,7", "--n-max", "2"]) == 2
        assert capsys.readouterr().err == (
            f"effcone: error: EFFCONE_JOBS must be at least 1, got {env}\n"
        )

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

        monkeypatch.setattr(effcone.verify, "ProcessPoolExecutor", InProcessPool)
        argv = ["verify", "--surface", "4,5,7", "--surface", "4,13,23", "--n-max", "4"]
        assert run(capsys, *argv, "--jobs", "64") == run(capsys, *argv, "--jobs", "1")
        assert sizes == [2]


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
        check = effcone.verify._check_partner
        monkeypatch.setattr(
            effcone.verify, "_check_partner",
            lambda alpha0, beta0, alpha1, beta1, sigma:
                check(alpha0, beta0, alpha1 + 1, beta1, sigma),
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
        ("count", "--tri", "0,0", "1,0", "1e5000,1"),
        ("h0", "--surface", "4,5,7", "--family", "B", "--n", "1" + "0" * 2200),
    ], ids=["count", "h0"])
    def test_integer_past_the_digit_limit_is_a_usage_error(self, capsys, argv):
        # Rendering these counts passes Python's int-to-str digit limit.
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("effcone: error: ")

    def test_closed_stdout_pipe_is_quiet(self):
        # The payload (about 470 KB) overruns the pipe buffer, so the writer
        # is still writing when the reader goes away.
        env = dict(os.environ, PYTHONPATH=str(Path(effcone.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "effcone.cli", "calibrate-delta", "--beta-max", "30",
             "--instances"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
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
# Record lists: lists and tuples of flat dicts, which the writer renders with
# one encoder call unless an item is empty or not flat.  Keys and strings hold
# the characters of the joins it re-indents.
RECORD_TEXT = st.text(alphabet='}{,"\\\n: a', max_size=6)
RECORD_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.fractions(max_denominator=10**6), RECORD_TEXT,
)
FLAT_DICTS = st.dictionaries(RECORD_TEXT, RECORD_SCALARS, min_size=1, max_size=4)


@st.composite
def record_lists(draw):
    records = draw(st.lists(FLAT_DICTS, min_size=1, max_size=5))
    if draw(st.booleans()):  # an empty dict sends the list down the general path
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
# insertion order, holding ints and strings; the writer renders them through a
# "%"-template.  Keys and strings hold its format characters.
UNIFORM_TEXT = st.text(alphabet='%sd{}"\\\n\xe9', max_size=6)
UNIFORM_INTS = st.integers(-10**30, 10**30)


@st.composite
def uniform_record_lists(draw):
    keys = draw(st.lists(UNIFORM_TEXT, min_size=1, max_size=8, unique=True))
    columns = {  # mostly one type per column; a mixed column takes the fallback
        key: draw(st.sampled_from((UNIFORM_INTS, UNIFORM_TEXT, UNIFORM_INTS | UNIFORM_TEXT)))
        for key in keys
    }
    records = [
        {key: draw(columns[key]) for key in draw(st.permutations(keys))}
        for _ in range(draw(st.integers(2, 40)))
    ]
    for _ in range(draw(st.integers(0, 2))):  # the template depends on the depth
        records = {draw(UNIFORM_TEXT): records}
    return records


class Level(IntEnum):
    HIGH = 7


class Tag(str):
    pass


def reference_json(payload) -> str:
    return json.dumps(jsonable(payload), indent=2, sort_keys=True)


class TestJsonWriter:
    @settings(max_examples=400)
    @given(PAYLOADS)
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
    @example([{"n": 1}, {"n": Level.HIGH}])
    @example([{"s": "%s"}, {"s": Tag("%d")}])
    @example({"big": [{"x": 10**299 + 1, "y": "y"}, {"y": "z", "x": -(10**300 - 1)}]})
    @example([{"%": 5}, {"%": -5}])
    @example([{"%d": "%s"}, {"%d": "\n"}])
    @example([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    @example([{"a": 1}, {"a": 2, "b": 3}])
    def test_uniform_record_lists_match_indented_dumps(self, payload):
        assert cli._render_json(payload) == reference_json(payload)

    @pytest.mark.parametrize("bad", [
        object(), {1, 2}, 1j, b"bytes", Decimal("1.5"),
        {"a": [1, {"b": object()}]}, [{"c": {2}}], ({"d": b"x"},),
    ])
    def test_unsupported_type_raises(self, bad):
        with pytest.raises(TypeError):
            reference_json(bad)
        with pytest.raises(TypeError):
            cli._render_json(bad)


class DictSubclass(dict):
    pass


def test_record_list_of_dict_subclasses_matches_indented_dumps():
    # The one-call record path takes exact dicts only; a subclass takes the
    # general path, which must render it the same.
    payload = [DictSubclass(b=1, a=2), {"c": Fraction(1, 3)}]
    assert cli._render_json(payload) == reference_json(payload)


def count_encoders(monkeypatch) -> list:
    """Record the depth of every ``cli._json_encoder`` lookup from now on."""
    depths = []
    encoder = cli._json_encoder

    def counting_encoder(depth):
        depths.append(depth)
        return encoder(depth)

    monkeypatch.setattr(cli, "_json_encoder", counting_encoder)
    return depths


def test_int_str_records_take_the_template(monkeypatch):
    # A silent fallback to the encoder path would render the same bytes.
    records = [{"n": n, "s": str(n), "sq": n * n} for n in range(1000)]
    depths = count_encoders(monkeypatch)
    assert cli._render_json({"records": records}) == reference_json({"records": records})
    assert depths == []
    records[500] = dict(records[500], sq=Fraction(1, 3))
    assert cli._render_json({"records": records}) == reference_json({"records": records})
    assert depths == [3]


# argv that argparse rejects or answers (help, version) before any handler runs.
PARSE_EXITS = [
    [], ["--help"], ["-h", "verify"], ["--version"], ["bogus"], ["Count"], ["-5"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["count", "--tri", "0,0", "1,x", "2,2"],
    ["h0", "--surface", "4,6,7", "--family", "B", "--n", "1"],
    ["gamma", "--surface", "4,5,7", "--n-max", "x"],
    ["classify", "--b", "5", "--p", "-2", "--format", "csv"],
    ["reduce", "--entry", "5", "--u0", "0"],
    ["reduce", "--surface", "4,13,23", "--head", "3,5", "--u0", "0"],
    ["family", "--alpha", "1", "--beta", "3", "--tau", "2", "--count", "1"],
    ["count"], ["h0", "--surface", "4,5,7", "--n", "1"], ["verify", "--n-max", "2"],
    ["calibrate-delta"],
    ["verify", "--surface", "4,5,7", "--n-max", "2", "--jobs", "1", "extra"],
    ["classify", "--b", "5", "--p", "-2", "x", "-1"],
    ["h0", "--surface", "4,5,7", "--family", "B", "--n", "7", "--bogus"],
    ["count", "--version"],
    ["count", "--tri", "0,0", "1,0", "0,1", "--=x"],
]


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

    def test_well_formed_call_builds_one_parser(self, capsys, monkeypatch):
        built = count_parsers(monkeypatch)
        assert main(["classify", "--b", "13", "--p", "-4"]) == 0
        assert built == ["effcone classify"]

    def test_leftover_argument_builds_the_full_tree(self, capsys, monkeypatch):
        built = count_parsers(monkeypatch)
        code, _, err = exit_outcome(
            capsys, lambda: main(["classify", "--b", "13", "--p", "-4", "x"])
        )
        assert code == 2
        assert err.startswith("usage: effcone [-h] [--version]")
        assert err.endswith("effcone: error: unrecognized arguments: x\n")
        assert built == ["effcone classify", "effcone",
                         *(f"effcone {name}" for name in cli._COMMANDS)]

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

    # One valid argv per command; "--n-m" and "--inst" are abbreviated flags.
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
    ], ids=lambda argv: argv[0])
    def test_lazy_namespace_matches_full(self, argv):
        argv = cli._shield_negatives(argv)
        assert cli._parse_args(argv) == cli._build_parser().parse_args(argv)


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
