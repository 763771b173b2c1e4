"""Command-line runner: exit codes, report stability, scenario handling."""

import json

import pytest

from unlattice import cli

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


def test_run_validation_failures(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli(["run", garbled]) == cli.EXIT_VALIDATION

    for mutation in (
        {"schema": 2},
        {"surprise": 1},
        {"diagnostic": {"name": "un_qip", "bogus": 3}},
        {"source": {"gallery": "unknown_entry"}},
        {"source": {"gallery": "std_units_c0", "params": {"length": 64}}},
    ):
        path = write_scenario(tmp_path, dict(UN_NULL_SCENARIO, **mutation))
        assert run_cli(["run", path]) == cli.EXIT_VALIDATION
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


def test_gallery_dump_needs_name(capsys):
    with pytest.raises(SystemExit):
        run_cli(["gallery", "dump"])
