"""Golden corpus: the canonical reports of every gallery scenario, byte for byte.

``tests/golden/<entry>.dump.json`` holds the output of ``unlattice gallery
dump <entry>``; ``tests/golden/<entry>_<i>.json`` holds the canonical report
of the entry's i-th dumped scenario, as ``unlattice run`` prints it;
``tests/golden/<tag>.axioms.json`` holds ``unlattice axioms <tag> --samples 500``
and ``tests/golden/<entry>.kp.json`` holds ``unlattice kp --dump-parts`` on the
entry's first dumped scenario.  The corpus is regenerated in-process and
compared byte for byte.

To rewrite the corpus after an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from unlattice import cli, jsonio
from unlattice.convergence import ToleranceSpec
from unlattice.gallery import list_entries

GOLDEN = Path(__file__).parent / "golden"
AXIOM_TAGS = ("c0", "l2", "linf", "l1-step")
AXIOM_SAMPLES = 500
KP_ENTRIES = ("overlap_l2", "std_units_l1")


def render_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


def render_dump(entry: str) -> str:
    return render_cli(["gallery", "dump", entry])


def render_axioms(tag: str) -> str:
    return render_cli(["axioms", tag, "--samples", str(AXIOM_SAMPLES), "--seed", "0"])


def render_kp(entry: str) -> str:
    scenario = json.loads(render_dump(entry))["scenarios"][0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{entry}.json"
        path.write_text(json.dumps(scenario))
        return render_cli(["kp", str(path), "--dump-parts"])


def render_reports(dump: str) -> dict[str, str]:
    reports = {}
    for scenario in json.loads(dump)["scenarios"]:
        ts = ToleranceSpec(**scenario["tolerance"])
        result = cli.execute_scenario(scenario, ts)
        reports[f"{scenario['name']}.json"] = jsonio.dumps(result, indent=2) + "\n"
    return reports


def render_corpus() -> dict[str, str]:
    corpus = {}
    for entry in list_entries():
        dump = render_dump(entry)
        corpus[f"{entry}.dump.json"] = dump
        corpus.update(render_reports(dump))
    for tag in AXIOM_TAGS:
        corpus[f"{tag}.axioms.json"] = render_axioms(tag)
    for entry in KP_ENTRIES:
        corpus[f"{entry}.kp.json"] = render_kp(entry)
    return corpus


def test_corpus_covers_every_entry():
    names = sorted(p.name for p in GOLDEN.glob("*.json"))
    assert len([n for n in names if n.endswith(".dump.json")]) == 8
    assert len([n for n in names if n.endswith(".axioms.json")]) == 4
    assert len([n for n in names if n.endswith(".kp.json")]) == 2
    assert len([n for n in names if n.count(".") == 1]) == 22


@pytest.mark.parametrize("entry", list_entries())
def test_entry_matches_golden(entry):
    dump = render_dump(entry)
    assert dump.encode() == (GOLDEN / f"{entry}.dump.json").read_bytes()
    for name, text in render_reports(dump).items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("tag", AXIOM_TAGS)
def test_axioms_match_golden(tag):
    assert render_axioms(tag).encode() == (GOLDEN / f"{tag}.axioms.json").read_bytes()


@pytest.mark.parametrize("entry", KP_ENTRIES)
def test_kp_parts_match_golden(entry):
    assert render_kp(entry).encode() == (GOLDEN / f"{entry}.kp.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render_corpus().items():
        (GOLDEN / name).write_bytes(text.encode())
