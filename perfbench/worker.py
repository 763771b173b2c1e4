"""Run one workload in this (fresh, single-threaded) process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Set-up is the imports, drawing the job list from the seed and one warm-up
job; it is timed from the first line of this file.  The measured phase runs
whole rounds of the job list -- at least MIN_ROUNDS, and more while the next
round is expected to end within ``--seconds`` and before ``--stop-by`` --
and reports every job's time in every round, with the times of the
calibration passes (``calibrate.py``) run right before and right after it.  Every output
of every round is checked against the reference checks.  With ``--trace`` the wrappers of
``tracer.py`` are installed after set-up; the per-layer counts are those of
the last round and the per-layer times the medians over the rounds.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_ROUNDS = 2


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--stop-by", type=float, default=float("inf"),
                    help="time.monotonic() after which no round may end")
    return ap.parse_args(argv)


def _run_job(job):
    """(seconds, output); an exception raised by the program is the output."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # counted as a failed operation by the caller
        out = exc
    return time.perf_counter() - t0, out


def _outcome(job, out, checks) -> str | None:
    """None when the output passes its check, else "failed: ..." or "wrong: ..."."""
    if isinstance(out, Exception) and not job.fault:
        return f"failed: raised {type(out).__name__}: {out}"
    try:
        job.check(out)
    except checks.CheckFailed as exc:
        return f"failed: {exc}" if job.fault else f"wrong: {exc}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "unlattice" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'unlattice'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unlattice

    if Path(unlattice.__file__).resolve().parent != (SRC / "unlattice").resolve():
        print(f"error: imported unlattice from {unlattice.__file__}", file=sys.stderr)
        return 2
    import checks
    import workloads

    jobs, warmup = workloads.build(args.workload, args.seed)
    _, out = _run_job(warmup)
    problem = _outcome(warmup, out, checks)
    # a warm-up that does not pass its check makes the run incorrect
    wrong = [f"warm-up {warmup.kind}: {problem}"] if problem else []
    failures = []
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import calibrate

    calibration = calibrate.Calibration()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    times = []  # times[r][j]: seconds of job j in round r
    passes = []  # passes[r][j], passes[r][j + 1]: calibration passes right before and after it
    attempted = failed = 0
    layer_rounds = []
    phase_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        row, row_passes = [], []
        for job in jobs:
            row_passes.append(calibration.pass_s())
            if tracer is not None:
                tracer.enter(f"job.{job.kind}")
            dt, out = _run_job(job)
            if tracer is not None:
                tracer.exit()
            row.append(dt)
            attempted += 1
            problem = _outcome(job, out, checks)
            if problem is None:
                continue
            if problem.startswith("failed"):
                failed += 1
                if not job.fault:
                    failures.append(f"{job.kind}: {problem}")
            else:
                wrong.append(f"{job.kind}: {problem}")
        row_passes.append(calibration.pass_s())
        times.append(row)
        passes.append(row_passes)
        if tracer is not None:
            layer_rounds.append(tracer.metrics())
        elapsed = time.perf_counter() - phase_start
        per_round = elapsed / len(times)
        if time.monotonic() + per_round > args.stop_by:
            break
        if len(times) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break

    for msg in sorted(set(wrong + failures))[:20]:
        print(f"{args.workload}: {msg}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "rounds": len(times),
        "phase_s": time.perf_counter() - phase_start,
        "job_s": times,
        "pass_s": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # counters of the last round (they repeat in every round), times as medians
        result["per_layer"] = {
            k: ((statistics.median(m[k][0] for m in layer_rounds), unit) if unit == "s"
                else (v, unit))
            for k, (v, unit) in layer_rounds[-1].items()}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.json",
                           {"workload": args.workload, "seed": args.seed, "round": len(times)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
