"""Golden corpus: the canonical reports of every gallery scenario, byte for byte.

``tests/golden/<entry>.dump.json`` holds the output of ``unlattice gallery
dump <entry>``; ``tests/golden/<entry>_<i>.json`` holds the canonical report
of the entry's i-th dumped scenario, as ``unlattice run`` prints it.  The
corpus is regenerated in-process and compared byte for byte.

To rewrite the corpus after an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from unlattice import cli, jsonio
from unlattice.convergence import ToleranceSpec
from unlattice.gallery import list_entries

GOLDEN = Path(__file__).parent / "golden"


def render_dump(entry: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gallery", "dump", entry]) == cli.EXIT_OK
    return out.getvalue()


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
    return corpus


def test_corpus_covers_every_entry():
    names = sorted(p.name for p in GOLDEN.glob("*.json"))
    assert len([n for n in names if n.endswith(".dump.json")]) == 8
    assert len([n for n in names if not n.endswith(".dump.json")]) == 22


@pytest.mark.parametrize("entry", list_entries())
def test_entry_matches_golden(entry):
    dump = render_dump(entry)
    assert dump.encode() == (GOLDEN / f"{entry}.dump.json").read_bytes()
    for name, text in render_reports(dump).items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render_corpus().items():
        (GOLDEN / name).write_bytes(text.encode())
