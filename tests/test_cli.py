"""Command-line runner: exit codes, report stability, scenario handling."""

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlattice import cli, jsonio
from unlattice.errors import TagMismatch
from unlattice.runner import SCHEMA, build_sequence

UN_NULL_SCENARIO = {
    "schema": 1,
    "name": "units-un-null",
    "source": {"gallery": "std_units_c0", "params": {"horizon": 64}},
    "diagnostic": {"name": "un_qip", "horizon": 64},
    "expect": "NULL",
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_run_ok(tmp_path, capsys):
    path = write_scenario(tmp_path, UN_NULL_SCENARIO)
    assert run_cli(["run", path]) == cli.EXIT_OK
    out = capsys.readouterr()
    result = json.loads(out.out)
    assert result["report"]["verdict"] == "NULL"
    assert result["expect_met"] is True
    assert result["schema"] == 1
    assert "NULL" in out.err  # progress goes to stderr only


def test_run_output_is_bit_stable(tmp_path):
    path = write_scenario(tmp_path, UN_NULL_SCENARIO)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["run", path, "--output", out1]) == cli.EXIT_OK
    assert run_cli(["run", path, "--output", out2]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_run_expect_mismatch(tmp_path, capsys):
    bad = dict(UN_NULL_SCENARIO, expect="NOT_NULL")
    path = write_scenario(tmp_path, bad)
    assert run_cli(["run", path]) == cli.EXIT_MISMATCH
    result = json.loads(capsys.readouterr().out)
    assert result["expect_met"] is False


TYPEWRITER = {"gallery": "typewriter", "params": {"max_level": 4}}
RADEMACHER = {"gallery": "rademacher"}
C0_LITERAL = {"tag": {"kind": "c0"}, "coords": {"1": 1.0}}
STEP_TAG = {"kind": "lp_step", "p": 1.0, "measure": {"level": 0, "weights": [1.0]}}
STEP_LITERAL = {"tag": STEP_TAG, "level": 1, "values": [1.0, 0.5]}


def inline(*elements):
    return {"inline": {"elements": list(elements)}}


MALFORMED = (
    {"schema": 2},
    {"schema": "1"},
    {"surprise": 1},
    {"expect": 5},
    {"expect": "MAYBE"},
    {"diagnostic": {"name": "un_qip", "bogus": 3}},
    {"diagnostic": {"name": 5}},
    {"source": {"gallery": "unknown_entry"}},
    {"source": {"gallery": "std_units_c0", "params": {"length": 64}}},
    # an object that is not one
    {"tolerance": 5},
    {"source": "std_units_c0"},
    {"source": {"inline": [C0_LITERAL]}},
    {"diagnostic": "norm"},
    # a required key missing
    {"source": TYPEWRITER, "diagnostic": {"name": "in_measure"}},
    {"source": RADEMACHER, "diagnostic": {"name": "weak"}},
    {"source": {"inline": {"name": "no elements"}}},
    {"source": inline({"tag": {"kind": "c0"}})},
    {"source": inline({"coords": {"1": 1.0}})},
    {"source": inline({"tag": STEP_TAG, "values": [1.0]})},
    # a value of the wrong type
    {"tolerance": {"window": "16"}},
    {"tolerance": {"window": 1.5}},
    {"tolerance": {"tol": "1e-6"}},
    {"tolerance": {"tol": True}},
    {"source": {"gallery": "std_units_c0", "params": {"horizon": True}}},
    {"source": {"gallery": "typewriter", "params": {"max_level": "4"}}},
    {"source": {"gallery": "typewriter", "params": {"p": "2"}}},
    {"source": {"gallery": 5}},
    {"source": {"gallery": ["std_units_c0"]}},
    {"source": {"inline": {"elements": [C0_LITERAL], "name": 5}}},
    {"diagnostic": {"name": "un", "tests": 5}},
    {"diagnostic": {"name": "un", "tests": [5]}},
    {"diagnostic": {"name": "norm", "limit": "zero"}},
    {"source": RADEMACHER, "diagnostic": {"name": "weak", "functionals": 5}},
    # element literals that do not parse
    {"source": inline({"tag": {"kind": "c0"}, "coords": {"one": 1.0}})},
    {"source": inline({"tag": {"kind": "c0"}, "coords": {"1": "abc"}})},
    {"source": inline({"tag": {"kind": "c0"}, "coords": [1.0]})},
    {"source": inline({"tag": "c0", "coords": {"1": 1.0}})},
    {"source": inline(dict(STEP_LITERAL, values=["a", "b"]))},
    {"source": inline(dict(STEP_LITERAL, values={"a": 1}))},
    {"source": inline(dict(STEP_LITERAL, tag=dict(STEP_TAG, p="1")))},
    # levels that are not integers, or too large to have their 2**level cells
    {"source": inline(dict(STEP_LITERAL, level=1.9))},
    {"source": inline(dict(STEP_LITERAL, level="1"))},
    {"source": inline(dict(STEP_LITERAL, level=2, values=[1.0] * 4,
                           tag=dict(STEP_TAG, measure={"level": 2.7, "weights": [0.25] * 4})))},
    {"source": inline(dict(STEP_LITERAL, tag=dict(STEP_TAG, measure={"level": "0",
                                                                     "weights": [1.0]})))},
    {"source": inline(dict(STEP_LITERAL, level=10 ** 12))},
    {"source": inline(dict(STEP_LITERAL, tag=dict(STEP_TAG, measure={"level": 10 ** 12,
                                                                     "weights": [1.0]})))},
    # step functionals on a sequence that is not a step model
    {"diagnostic": {"name": "weak", "functionals": "constant_one"}},
    {"diagnostic": {"name": "weak", "functionals": "step_family"}},
    # values that used to be coerced or ignored
    {"source": {"gallery": "std_units_c0", "params": {"horizon": "64"}}},
    {"source": {"gallery": "std_units_c0", "params": {"horizon": 6.7}}},
    {"diagnostic": {"name": "un_qip", "horizon": "64"}},
    {"source": TYPEWRITER, "diagnostic": {"name": "in_measure", "delta": "0.5"}},
    {"source": RADEMACHER, "diagnostic": {"name": "weak", "functionals": "constant_one",
                                          "modulus": "false"}},
    {"source": TYPEWRITER, "diagnostic": {"name": "in_measure", "delta": 0.5, "limit": 1}},
    {"diagnostic": {"name": "pointwise", "limit": C0_LITERAL}},
    {"source": RADEMACHER, "diagnostic": {"name": "weak", "functionals": "step_family",
                                          "limit": None}},
    # the JSON constants NaN, Infinity and -Infinity are not numbers
    {"source": {"gallery": "typewriter", "params": {"max_level": 3, "p": math.nan}},
     "diagnostic": {"name": "norm"}},
    {"source": inline({"tag": {"kind": "lp", "p": math.inf}, "coords": {"1": 1.0}})},
    {"tolerance": {"tol": math.nan}},
    {"source": TYPEWRITER, "diagnostic": {"name": "in_measure", "delta": -math.inf}},
)


def test_run_validation_failures(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    for text in (b"{not json", b"\xff\xfe", b"[" * 100_000, b"[1, 2]"):
        garbled.write_bytes(text)
        assert run_cli(["run", garbled]) == cli.EXIT_VALIDATION
        assert "error (validation)" in capsys.readouterr().err

    for mutation in MALFORMED:
        path = write_scenario(tmp_path, dict(UN_NULL_SCENARIO, **mutation))
        assert run_cli(["run", path]) == cli.EXIT_VALIDATION, mutation
        assert "error (validation)" in capsys.readouterr().err

    missing = {"schema": 1, "source": UN_NULL_SCENARIO["source"]}
    path = write_scenario(tmp_path, missing)
    assert run_cli(["run", path]) == cli.EXIT_VALIDATION


def test_run_csv_format(tmp_path, capsys):
    path = write_scenario(tmp_path, UN_NULL_SCENARIO)
    assert run_cli(["run", path, "--format", "csv"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 65
    assert lines[1].startswith("1,")
    assert run_cli(["run", path]) == cli.EXIT_OK
    values = json.loads(capsys.readouterr().out)["report"]["values"]
    assert [float(line.split(",")[1]) for line in lines[1:]] == values


def test_tol_override_flips_verdict(tmp_path, capsys):
    # norm values are constantly 1; a huge tol renders them null
    scenario = {
        "schema": 1,
        "source": {"gallery": "std_units_c0", "params": {"horizon": 64}},
        "diagnostic": {"name": "norm"},
    }
    path = write_scenario(tmp_path, scenario)
    assert run_cli(["run", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "NOT_NULL"
    assert run_cli(["run", path, "--tol", "2.0"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "NULL"
    # the flag also overrides a tolerance the scenario gives
    path = write_scenario(tmp_path, dict(scenario, tolerance={"tol": 1e-6, "window": 8}))
    assert run_cli(["run", path, "--tol", "2.0", "--window", "4"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["verdict"], report["tol"], report["window"]) == ("NULL", 2.0, 4)


def test_env_tol_default(tmp_path, capsys, monkeypatch):
    scenario = {
        "schema": 1,
        "source": {"gallery": "std_units_c0", "params": {"horizon": 64}},
        "diagnostic": {"name": "norm"},
    }
    path = write_scenario(tmp_path, scenario)
    monkeypatch.setenv("UNLATTICE_TOL", "2.0")
    assert run_cli(["run", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "NULL"

    # a value that does not parse is a validation error, not a traceback
    for name, value, argv in (("UNLATTICE_TOL", "abc", ["run", path]),
                              ("UNLATTICE_WINDOW", "1.5", ["run", path]),
                              ("UNLATTICE_AXIOM_SAMPLES", "many", ["axioms", "l2"])):
        with monkeypatch.context() as env:
            env.setenv(name, value)
            assert run_cli(argv) == cli.EXIT_VALIDATION
        assert f"error (validation): {name}=" in capsys.readouterr().err


def test_suite_aggregates_and_keeps_going(tmp_path, capsys):
    write_scenario(tmp_path, UN_NULL_SCENARIO, "a_good.json")
    write_scenario(tmp_path, dict(UN_NULL_SCENARIO, expect="NOT_NULL"),
                   "b_mismatch.json")
    (tmp_path / "c_broken.json").write_text("{")
    assert run_cli(["suite", tmp_path]) == cli.EXIT_VALIDATION
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["total"] == 3
    assert aggregate["failed"] == 2
    codes = {r["file"]: r["exit_code"] for r in aggregate["scenarios"]}
    assert codes == {"a_good.json": 0, "b_mismatch.json": 1, "c_broken.json": 2}


def test_suite_empty_dir_warns(tmp_path, capsys):
    assert run_cli(["suite", tmp_path]) == cli.EXIT_OK
    out = capsys.readouterr()
    assert "no scenario files" in out.err
    assert json.loads(out.out)["total"] == 0


def test_gallery_list_and_dump_roundtrip(tmp_path, capsys):
    assert run_cli(["gallery", "list"]) == cli.EXIT_OK
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "typewriter" in names

    assert run_cli(["gallery", "dump", "typewriter"]) == cli.EXIT_OK
    dump = json.loads(capsys.readouterr().out)
    assert dump["entry"] == "typewriter"
    # dumped scenarios are directly consumable
    path = write_scenario(tmp_path, dump["scenarios"][0])
    assert run_cli(["run", path]) == cli.EXIT_OK


def test_axioms_verb(tmp_path, capsys):
    assert run_cli(["axioms", "l2", "--samples", "50"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_failures"] == 0
    assert run_cli(["axioms", "weird-space", "--samples", "5"]) == cli.EXIT_VALIDATION
    assert run_cli(["axioms", "lfoo", "--samples", "5"]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv, env", [
    (["--samples", "-5"], None),
    (["--samples", "0"], None),
    ([], "-5"),
    (["--seed", "-1", "--samples", "5"], None),
])
def test_axioms_bad_values_exit_2_with_one_line(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("UNLATTICE_AXIOM_SAMPLES", env)
    assert run_cli(["axioms", "c0", *argv]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (validation)") and captured.err.count("\n") == 1


def test_kp_verb(tmp_path, capsys):
    scenario = {
        "schema": 1,
        "source": {"gallery": "overlap_l2", "params": {"horizon": 256}},
        "diagnostic": {"name": "un_qip"},
    }
    path = write_scenario(tmp_path, scenario)
    assert run_cli(["kp", path, "--count", "4"]) == cli.EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(result["selected_indices"]) == 4
    for k, r in enumerate(result["residual_norms"], start=1):
        assert r < 2.0 ** -k


def test_inline_source(tmp_path, capsys):
    element = {"tag": {"kind": "lp", "p": 2.0}, "coords": {"1": 0.5}}
    scenario = {
        "schema": 1,
        "source": {"inline": {"elements": [element] * 8, "name": "const"}},
        "diagnostic": {"name": "norm"},
        "expect": "NOT_NULL",
    }
    path = write_scenario(tmp_path, scenario)
    assert run_cli(["run", path]) == cli.EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["sequence"] == "const"
    assert result["report"]["values"] == [0.5] * 8


def test_inline_step_elements_share_one_tag():
    step_tag = {"kind": "lp_step", "p": 1.0, "measure": {"level": 1, "weights": [0.25, 0.75]}}
    elements = [{"tag": dict(step_tag), "level": 1, "values": [v, 1.0]} for v in (1.0, 2.0, 3.0)]
    seq = build_sequence({"inline": {"elements": elements}})
    assert all(seq.at(n).tag is seq.tag for n in range(1, 4))
    # each call parses its own tags
    assert build_sequence({"inline": {"elements": elements}}).tag is not seq.tag

    other = dict(step_tag, measure={"level": 1, "weights": [0.5, 0.5]})
    elements.append({"tag": other, "level": 1, "values": [1.0, 1.0]})
    with pytest.raises(TagMismatch):
        build_sequence({"inline": {"elements": elements}})


def inline_step_scenario(diagnostic):
    """A step scenario whose elements share one tag object in memory and
    hold separate, equal copies of it once written out and parsed."""
    tag = {"kind": "lp_step", "p": 2, "measure": {"level": 2, "weights": [0.1, 0.2, 0.3, 0.4]}}
    elements = [{"tag": tag, "level": 2 + n % 2,
                 "values": [(-1.0) ** (n + k) * 0.25 ** n * (1 + k) for k in range(4 << n % 2)]}
                for n in range(24)]
    return {"schema": 1, "source": {"inline": {"name": "step", "elements": elements}},
            "diagnostic": diagnostic}


STEP_DIAGNOSTICS = (
    {"name": "norm"},
    {"name": "un"},
    {"name": "in_measure", "delta": 0.001},
    {"name": "weak", "functionals": [{"tag": {"kind": "lp_step", "p": 2.0, "measure": {
        "level": 2, "weights": [0.1, 0.2, 0.3, 0.4]}}, "level": 3, "values": [1.0] * 8}]},
    {"name": "pointwise"},
)


@pytest.mark.parametrize("diagnostic", STEP_DIAGNOSTICS, ids=lambda d: d["name"])
def test_inline_step_reports_do_not_depend_on_parsing(diagnostic):
    scenario = inline_step_scenario(diagnostic)
    parsed = json.loads(json.dumps(scenario))
    ts = cli.ToleranceSpec()
    reports = [jsonio.dumps(cli.execute_scenario(s, ts)["report"], indent=2)
               for s in (scenario, parsed)]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verdict"] == "NULL"


def test_inline_step_scenario_file_runs(tmp_path, capsys):
    scenario = dict(inline_step_scenario({"name": "norm"}), expect="NULL")
    assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "NULL"


@pytest.mark.parametrize("bad, message", [
    ({"level": 3, "values": [1.0] * 7}, "values must have 2**level entries"),
    # a scenario file holds no NaN; an integer past the float range fails the conversion
    ({"level": 2, "values": [1.0, 2.0, 10 ** 400, 4.0]},
     "malformed element literal: OverflowError: int too large to convert to float"),
    ({"level": 1, "values": [1.0, 2.0]}, "function level below the measure's base level"),
    ({"level": 2}, "malformed element literal: KeyError: 'values'"),
])
def test_a_malformed_step_literal_after_valid_ones_exits_2(tmp_path, capsys, bad, message):
    # the valid literals form groups that pass their checks; the bad one is refused
    scenario = inline_step_scenario({"name": "norm"})
    elements = scenario["source"]["inline"]["elements"]
    elements.insert(20, dict(bad, tag=elements[0]["tag"]))
    assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.err == f"error (validation): {message}\n" and out.out == ""


def test_step_overflow_exits_2_without_warning(tmp_path, capsys):
    tag = {"kind": "lp_step", "p": 1.0, "measure": {"level": 0, "weights": [1.0]}}
    scenario = {
        "schema": 1,
        "source": {"inline": {"elements": [{"tag": tag, "level": 0, "values": [1e308]}]}},
        "diagnostic": {"name": "norm",
                       "limit": {"tag": tag, "level": 0, "values": [-1e308]}},
    }
    path = write_scenario(tmp_path, scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", path]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error (validation)") and err.count("\n") == 1


@pytest.mark.parametrize("source, diagnostic", [
    # the l1 norm overflows to inf, which a report may not hold
    (inline({"tag": {"kind": "lp", "p": 1.0}, "coords": {"1": 1e308, "2": 1e308}}), "norm"),
    # 32767 x 16384 cells exceed the coordinate matrix budget
    ({"gallery": "typewriter", "params": {"max_level": 15}}, "pointwise"),
    # 2**40 terms exceed it too, and are refused before one is generated
    ({"gallery": "std_units_c0", "params": {"horizon": 2 ** 40}}, "norm"),
    # so do 2**40 terms of the pointwise diagnostic
    ({"gallery": "std_units_c0", "params": {"horizon": 2 ** 40}}, {"name": "pointwise"}),
    # 2**max_level - 1 terms over it are refused when the sequence is built,
    # before 2**max_level is computed or the norm table allocated
    ({"gallery": "typewriter", "params": {"max_level": 40}}, "norm"),
    ({"gallery": "typewriter", "params": {"max_level": 10 ** 8}}, "norm"),
])
def test_limits_exit_2_with_one_line(tmp_path, capsys, source, diagnostic):
    if isinstance(diagnostic, str):
        diagnostic = {"name": diagnostic}
    scenario = {"schema": 1, "source": source, "diagnostic": diagnostic}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error (validation)") and err.count("\n") == 1


@pytest.mark.parametrize("horizon", [8193, 10 ** 5])
def test_units_pointwise_holds_stored_coordinates_only(tmp_path, capsys, horizon):
    # horizon terms x horizon touched coordinates, but only horizon stored ones
    scenario = {"schema": 1, "source": {"gallery": "std_units_c0", "params": {"horizon": horizon}},
                "diagnostic": {"name": "pointwise"}, "expect": "NULL"}
    assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "NULL" and report["values"] == [1.0] * horizon
    assert report["extras"]["coordinates"] == [str(c) for c in range(1, horizon + 1)]


L1 = {"kind": "lp", "p": 1.0}
C0 = {"kind": "c0"}
STEP = {"kind": "lp_step", "p": 1.0, "measure": {"level": 0, "weights": [1.0]}}
LINF = {"kind": "linf"}
DIRECT_SUM = {"kind": "l1_oplus_linf"}


@pytest.mark.parametrize("code, source, diagnostic", [
    ("tag-mismatch", {"inline": {"elements": [{"tag": C0, "coords": {"1": 1.0}},
                                              {"tag": L1, "coords": {"2": 1.0}}]}}, "norm"),
    ("tag-mismatch", inline({"tag": C0, "coords": {"1": 1.0}}),
     {"name": "norm", "limit": {"tag": L1, "coords": {"1": 1.0}}}),
    ("tag-mismatch", inline({"tag": C0, "coords": {"1": 1.0}}),
     {"name": "weak", "functionals": [{"tag": L1, "coords": {"1": 1.0}}]}),
    ("negative-test-vector", inline({"tag": C0, "coords": {"1": 1.0}}),
     {"name": "un", "tests": [{"tag": C0, "coords": {"1": -1.0}}]}),
    ("non-step-sequence", {"gallery": "std_units_c0", "params": {"horizon": 8}},
     {"name": "in_measure", "delta": 0.5}),
    # one cell past the maximum refinement level 14
    ("refinement-overflow", inline({"tag": STEP, "level": 15, "values": [0.0] * 2 ** 15}),
     "pointwise"),
])
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, code, source, diagnostic):
    if isinstance(diagnostic, str):
        diagnostic = {"name": diagnostic}
    scenario = {"schema": 1, "source": source, "diagnostic": diagnostic}
    assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error ({code}): ") and err.count("\n") == 1


def test_linf_un_qip_reads_every_coordinate(tmp_path, capsys):
    # the strong unit 1 has no horizon: units past the default qip horizon of
    # 4096 are seen, by un_qip and by the "qip" test family of un alike, and a
    # horizon of 2**30 costs nothing
    qip = {"num_tests": 1, "test_family": "quasi-interior-point"}
    for horizon, params, extras in (
            (8192, {"name": "un_qip"}, dict(qip, qip_horizon=4096)),
            (8, {"name": "un_qip", "horizon": 2 ** 30}, dict(qip, qip_horizon=2 ** 30)),
            (8192, {"name": "un"}, {"num_tests": 1})):
        scenario = {"schema": 1, "diagnostic": params, "expect": "NOT_NULL",
                    "source": {"gallery": "std_units_linf", "params": {"horizon": horizon}}}
        assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["values"] == [1.0] * horizon
        assert report["witness"] == {"index": horizon - horizon // 4 + 1, "value": 1.0,
                                     "test_index": 0}
        assert report["extras"] == extras


def test_summable_units_on_linf_are_summable(tmp_path, capsys):
    # linf's quasi-interior point 1 is not summable: the family pairs with
    # (2**-n) there, as in c0 and lp, so the units are weakly null
    scenario = {"schema": 1, "diagnostic": {"name": "weak", "functionals": "summable_units"},
                "expect": "NULL",
                "source": {"gallery": "std_units_linf", "params": {"horizon": 64}}}
    assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "NULL"
    assert report["values"] == [2.0 ** -n for n in range(1, 65)]


@pytest.mark.parametrize("term, functional", [
    ({"tag": L1, "coords": {"1": 1.0, "2": 1.0}}, {"tag": L1, "coords": {"1": 1e308, "2": 1e308}}),
    ({"tag": L1, "coords": {"1": 1e308, "2": -1e308}},
     {"tag": L1, "coords": {"1": 1e308, "2": 1e308}}),
    ({"tag": STEP, "level": 0, "values": [1e308]}, {"tag": STEP, "level": 0, "values": [1e308]}),
    # each part's pairing is finite, their sum is not
    ({"tag": DIRECT_SUM, "left": {"tag": L1, "coords": {"1": 1.0}},
      "right": {"tag": LINF, "coords": {"1": 1.0}}},
     {"tag": DIRECT_SUM, "left": {"tag": L1, "coords": {"1": 1e308}},
      "right": {"tag": LINF, "coords": {"1": 1e308}}}),
])
def test_pairing_beyond_the_float_range_exits_2(tmp_path, capsys, term, functional):
    scenario = {"schema": 1, "source": inline(term),
                "diagnostic": {"name": "weak", "functionals": [functional]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", write_scenario(tmp_path, scenario)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error (validation): the pairing exceeds the float range\n"


def test_gallery_dump_needs_name(capsys):
    with pytest.raises(SystemExit):
        run_cli(["gallery", "dump"])


# ---------------------------------------------------------------------------
# mutated scenarios
# ---------------------------------------------------------------------------

FUZZ_STEP_TAG = {"kind": "lp_step", "p": 2.0, "measure": {"level": 1, "weights": [0.25, 0.75]}}
FUZZ_BASES = (
    {"schema": 1, "name": "units",
     "source": {"gallery": "std_units_c0", "params": {"horizon": 16}},
     "diagnostic": {"name": "un_qip", "horizon": 16},
     "tolerance": {"tol": 1e-3, "window": 4}, "expect": "NULL"},
    {"schema": 1, "name": "typewriter",
     "source": {"gallery": "typewriter", "params": {"max_level": 4, "p": 1.0}},
     "diagnostic": {"name": "in_measure", "delta": 0.5},
     "tolerance": {"tol": 0.2, "window": 4}, "expect": "NULL"},
    {"schema": 1, "name": "sparse",
     "source": {"inline": {"name": "sparse", "elements": [
         {"tag": {"kind": "lp", "p": 1.0}, "coords": {"1": 2.0 ** -n, str(n): 1.0}}
         for n in range(2, 6)]}},
     "diagnostic": {"name": "un", "tests": [
         {"tag": {"kind": "lp", "p": 1.0}, "coords": {"1": 1.0, "2": 0.5, "3": 0.25}}]},
     "tolerance": {"tol": 0.1, "window": 2}, "expect": "NULL"},
    {"schema": 1, "name": "step",
     "source": {"inline": {"name": "step", "elements": [
         {"tag": FUZZ_STEP_TAG, "level": 2, "values": [1.0, -1.0, 1.0, -1.0]},
         {"tag": FUZZ_STEP_TAG, "level": 1, "values": [0.5, 0.25]},
         {"tag": FUZZ_STEP_TAG, "level": 1, "values": [0.0, 0.0625]}]}},
     "diagnostic": {"name": "weak", "modulus": False, "functionals": [
         {"tag": FUZZ_STEP_TAG, "level": 1, "values": [1.0, 0.0]}]},
     "tolerance": {"tol": 0.1, "window": 1}, "expect": "NULL"},
)

_small_int = st.integers(min_value=-8, max_value=8)
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": _small_int,
    "number": st.floats(min_value=-8, max_value=8),
    "string": st.text(max_size=4),
    "array": st.lists(_small_int | st.text(max_size=2), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _small_int, max_size=2),
}
_TYPE_OF = {type(None): "null", bool: "boolean", int: "integer", float: "number",
            str: "string", list: "array", dict: "object"}


def _paths(node, path=()):
    """The path of ``node`` and of every value below it."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one to three mutations at any depth: a key
    dropped, an unknown key added, or a value replaced by one of another
    JSON type."""
    scenario = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(scenario))
        kind = draw(st.sampled_from(("drop", "add", "replace")))
        if kind == "add":
            path = draw(st.sampled_from([q for q in paths if isinstance(_at(scenario, q), dict)]))
            target = _at(scenario, path)
            key = draw((st.sampled_from(sorted(SCHEMA)) | st.text(max_size=4))
                       .filter(lambda k: k not in target))
            target[key] = draw(st.one_of(*JSON_VALUES.values()))
            continue
        if kind == "drop":
            paths = [q for q in paths if q and isinstance(_at(scenario, q[:-1]), dict)]
        path = draw(st.sampled_from([q for q in paths if q]))
        parent, key = _at(scenario, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        else:
            other = sorted(set(JSON_VALUES) - {_TYPE_OF[type(parent[key])]})
            parent[key] = draw(JSON_VALUES[draw(st.sampled_from(other))])
    return scenario


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_scenarios())
def test_mutated_scenarios_exit_cleanly(scenario):
    """Any mutation of a valid scenario exits 0, 1 or 2 without raising, and
    1 (a verdict mismatch) only when the scenario states an ``expect``: a
    malformed scenario is an input error, never an internal numeric one.

    Drawn integers stay small (at most 8): a huge ``horizon`` or
    ``max_level`` is well-formed and asks for a sequence of that size, which
    is a resource limit rather than a schema error.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = cli.main(["run", str(path), "--output", str(Path(tmp) / "report.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_VALIDATION)
    if code == cli.EXIT_MISMATCH:
        assert "expect" in scenario


def test_fuzz_bases_meet_their_expectations(tmp_path):
    for base in FUZZ_BASES:
        assert run_cli(["run", write_scenario(tmp_path, base)]) == cli.EXIT_OK, base["name"]
