"""Command-line scenario runner.

Verbs:
    run <file>          run one scenario file, emit a JSON/CSV report
    suite <dir>         run every *.json scenario in a directory
    gallery list        list gallery entries
    gallery dump NAME   emit an entry's scenarios as consumable JSON
    axioms TAG          randomized neighborhood-base axiom suite
    kp <file>           greedy disjointification of a scenario's sequence

Exit codes: 0 = expectations met, 1 = verdict mismatch, 2 = validation or
usage error, 3 = internal numeric error.  Defaults for --tol / --window and
for axioms --samples may be overridden with the UNLATTICE_TOL /
UNLATTICE_WINDOW / UNLATTICE_AXIOM_SAMPLES environment variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, jsonio
from .constructive import kp_disjointify
from .convergence import NOT_NULL, NULL, TailReport, ToleranceSpec
from .errors import LatticeError, ValidationError
from .gallery import GALLERY, get_entry, list_entries
from .runner import bind, build_sequence, run_diagnostic
from .topology import axiom_suite, tag_from_name

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SCHEMA_VERSION = 1


def _exit_code(exc: LatticeError) -> int:
    return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_NUMERIC


def _env_default(name, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValidationError(f"{name}={raw!r} is not a valid {cast.__name__}") from None


def _not_a_number(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def load_scenario(path: Path) -> dict:
    try:
        scenario = json.loads(path.read_text(), parse_constant=_not_a_number)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read scenario {path}: {exc}") from exc
    bind(_check_scenario, scenario, "scenario")
    return scenario


def _check_scenario(schema, source, diagnostic, tolerance=None, expect=None, name=None):
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"scenario schema must be {SCHEMA_VERSION}")
    if expect not in (None, NULL, NOT_NULL):
        raise ValidationError(f"expect must be {NULL!r} or {NOT_NULL!r}, not {expect!r}")


def _tolerance_spec(args, tol=None, window=None) -> ToleranceSpec:
    tol = args.tol if args.tol is not None else tol
    window = args.window if args.window is not None else window
    if tol is None:
        tol = _env_default("UNLATTICE_TOL", float, ToleranceSpec().tol)
    if window is None:
        window = _env_default("UNLATTICE_WINDOW", int, None)
    try:
        tol = float(tol)
    except OverflowError:  # an int past the float range is not finite either
        tol = math.inf
    return ToleranceSpec(tol=tol, window=window)


def _tolerance_from(scenario: dict, args) -> ToleranceSpec:
    return bind(_tolerance_spec, scenario.get("tolerance") or {}, "tolerance", args)


def execute_scenario(scenario: dict, ts: ToleranceSpec) -> dict:
    seq = build_sequence(scenario["source"])
    report = run_diagnostic(seq, scenario["diagnostic"], ts)
    expect = scenario.get("expect")
    expect_met = None if expect is None else (report.verdict == expect)
    return {
        "schema": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "scenario": scenario,
        "sequence": seq.name,
        "report": report.to_json_dict(),
        "expect_met": expect_met,
    }


def _write_output(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_run(args) -> int:
    scenario = load_scenario(Path(args.file))
    ts = _tolerance_from(scenario, args)
    t0 = time.perf_counter()
    result = execute_scenario(scenario, ts)
    elapsed = time.perf_counter() - t0
    if args.format == "csv":
        _write_output(TailReport(**result["report"]).to_csv(), args.output)
    else:
        _write_output(jsonio.dumps(result, indent=2), args.output)
    verdict = result["report"]["verdict"]
    print(f"{Path(args.file).name}: {verdict} ({elapsed:.3f}s)", file=sys.stderr)
    return EXIT_MISMATCH if result["expect_met"] is False else EXIT_OK


def cmd_suite(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise ValidationError(f"{root} is not a directory")
    files = sorted(root.glob("*.json"))
    results = []
    worst = EXIT_OK
    for path in files:
        entry = {"file": path.name}
        try:
            scenario = load_scenario(path)
            ts = _tolerance_from(scenario, args)
            result = execute_scenario(scenario, ts)
            entry["verdict"] = result["report"]["verdict"]
            entry["expect_met"] = result["expect_met"]
            entry["exit_code"] = (EXIT_MISMATCH if result["expect_met"] is False
                                  else EXIT_OK)
        except LatticeError as exc:
            entry.update({"error": str(exc), "code": exc.code,
                          "exit_code": _exit_code(exc)})
        worst = max(worst, entry["exit_code"])
        results.append(entry)
    aggregate = {
        "schema": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "scenarios": results,
        "total": len(results),
        "failed": sum(1 for r in results if r["exit_code"] != EXIT_OK),
    }
    _write_output(jsonio.dumps(aggregate, indent=2), args.output)
    if not files:
        print("warning: no scenario files found", file=sys.stderr)
    for r in results:
        status = "ok" if r["exit_code"] == EXIT_OK else f"FAIL({r['exit_code']})"
        print(f"{r['file']:40s} {r.get('verdict', r.get('code', '?')):12s} {status}",
              file=sys.stderr)
    return worst


def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in list_entries():
            print(f"{name:20s} {GALLERY[name].provenance}")
        return EXIT_OK
    entry = get_entry(args.name)
    scenarios = []
    for i, check in enumerate(entry.checks):
        scenarios.append({
            "schema": SCHEMA_VERSION,
            "name": f"{entry.name}_{i}",
            "source": {"gallery": entry.name},
            "diagnostic": dict(check.diagnostic),
            "tolerance": {"tol": check.tolerance.tol,
                          "window": check.tolerance.window},
            "expect": check.verdict,
        })
    out = {"entry": entry.name, "provenance": entry.provenance,
           "scenarios": scenarios}
    _write_output(jsonio.dumps(out, indent=2), args.output)
    return EXIT_OK


def cmd_axioms(args) -> int:
    tag = tag_from_name(args.tag)
    if args.samples is None:
        args.samples = _env_default("UNLATTICE_AXIOM_SAMPLES", int, 10_000)
    report = axiom_suite(tag, samples=args.samples, rng_seed=args.seed)
    _write_output(jsonio.dumps(report.to_json_dict(), indent=2), args.output)
    return EXIT_OK if report.total_failures == 0 else EXIT_MISMATCH


def cmd_kp(args) -> int:
    scenario = load_scenario(Path(args.file))
    ts = _tolerance_from(scenario, args)
    seq = build_sequence(scenario["source"])
    result = kp_disjointify(seq, args.count, ts)
    out = {
        "schema": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "sequence": seq.name,
        "result": result.to_json_dict(),
    }
    if args.dump_parts:
        from .spaces import element_to_dict

        out["disjoint_parts"] = [element_to_dict(d) for d in result.disjoint_parts]
    _write_output(jsonio.dumps(out, indent=2), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlattice",
        description="Desk-scale diagnostics for unbounded-norm convergence",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--output", default=None, help="write report to a file")

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", help="run a directory of scenarios")
    p_suite.add_argument("dir")
    add_common(p_suite)
    p_suite.set_defaults(fn=cmd_suite)

    p_gal = sub.add_parser("gallery", help="list or dump gallery entries")
    p_gal.add_argument("action", choices=("list", "dump"))
    p_gal.add_argument("name", nargs="?")
    p_gal.add_argument("--output", default=None)
    p_gal.set_defaults(fn=cmd_gallery)

    p_ax = sub.add_parser("axioms", help="verify the neighborhood-base axioms")
    p_ax.add_argument("tag", help="c0, l1, l2, linf, l1-step, l2-step, ...")
    p_ax.add_argument("--samples", type=int, default=None)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--output", default=None)
    p_ax.set_defaults(fn=cmd_axioms)

    p_kp = sub.add_parser("kp", help="greedy disjointification")
    p_kp.add_argument("file", help="scenario file providing the source sequence")
    p_kp.add_argument("--count", type=int, default=8)
    p_kp.add_argument("--dump-parts", action="store_true")
    add_common(p_kp)
    p_kp.set_defaults(fn=cmd_kp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gallery" and args.action == "dump" and not args.name:
        parser.error("gallery dump needs an entry name")
    try:
        return args.fn(args)
    except LatticeError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
