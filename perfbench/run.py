"""Verdict benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("step_models", "sparse_sequences", "small_elements")
#: set-up is measured in this many set-up-only processes, two before the
#: measuring process and the rest after it; the median is reported
SETUP_SAMPLES = 5
#: the whole run stays inside this many seconds
DEADLINE_S = 170.0
#: time kept back from a measured phase for set-up and reporting
MARGIN_S = 20.0

#: numeric libraries stay on one thread in every workload process
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


class WorkerFailed(Exception):
    pass


def worker(args, *extra: str, deadline: float, share: float = 1.0) -> dict:
    """Run worker.py in a fresh process; return the JSON of its last line.

    Its measured phase lasts about ``share`` of ``--seconds`` and ends within
    ``share`` of the time left before ``deadline`` (less a margin for set-up
    and reporting).
    """
    stop_by = time.monotonic() + share * (deadline - time.monotonic() - MARGIN_S)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(share * args.seconds),
           "--stop-by", repr(stop_by), *extra]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    label = " ".join(["worker", *extra])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker process")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{label} ran past the deadline") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{label} exited with {proc.returncode}")
    return json.loads(lines[-1])


def job_times(run: dict) -> list[float]:
    """Every job's time in every round of a worker's measured phase."""
    return [t for row in run["job_s"] for t in row]


def ref_times(run: dict) -> list[float]:
    """Every job's time at the reference speed (see calibrate.py)."""
    return [calibrate.at_reference_speed(t, before, after, calibrate.ELASTICITY)
            for row, passes in zip(run["job_s"], run["pass_s"])
            for t, before, after in zip(row, passes, passes[1:])]


def timings(times: list[float], unit: str) -> dict:
    """Jobs per unit of time, median and 90th percentile of one job's time."""
    return {"jobs_per": (len(times) / sum(times), f"1/{unit}"),
            "job_p50": (statistics.median(times), unit),
            "job_p90": (statistics.quantiles(times, n=10)[8], unit)}


def setup_time(args, deadline: float, calibration) -> float:
    """The set-up time of a set-up-only worker at the reference speed, in seconds.

    It is scaled by a calibration pass of this process right after the
    worker ends, much as a job's time is scaled by the passes around it.
    """
    setup = worker(args, "--setup-only", deadline=deadline)["setup_s"]
    after = calibration.pass_s()
    return calibrate.at_reference_speed(setup, after, after, calibrate.ELASTICITY)


def end_to_end(main: dict, setups: list[float]) -> dict:
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update((f"{k}_s", v)
                   for k, v in timings(ref_times(main), "ref_s").items())
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
    return metrics


def per_layer(plain: dict, traced: dict) -> dict:
    metrics = dict(traced["per_layer"])
    metrics.update((f"wall.{k}_s", v) for k, v in timings(job_times(plain), "s").items())
    metrics["wall.setup_s"] = (plain["setup_s"], "s")
    metrics["calib.pass_s"] = (statistics.median(p for row in plain["pass_s"] for p in row), "s")
    # per round: the mean job time traced minus untraced, times the jobs of a round
    jobs = len(plain["job_s"][0])
    for name, times, unit in (("trace.overhead_s", job_times, "s"),
                              ("trace.overhead_ref_s", ref_times, "ref_s")):
        traced_mean, plain_mean = (statistics.fmean(times(r)) for r in (traced, plain))
        metrics[name] = ((traced_mean - plain_mean) * jobs, unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = worker(args, deadline=deadline, share=0.5)
            traced = worker(args, "--trace", deadline=deadline, share=0.5)
            metrics = per_layer(plain, traced)
            runs = [plain, traced]
        else:
            calibration = calibrate.Calibration()
            setups = [setup_time(args, deadline, calibration) for _ in range(SETUP_SAMPLES // 2)]
            plain = worker(args, deadline=deadline)
            setups += [setup_time(args, deadline, calibration)
                       for _ in range(SETUP_SAMPLES - len(setups))]
            metrics = end_to_end(plain, setups)
            runs = [plain]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (out / f"result-{name}").write_text(json.dumps(result, indent=1) + "\n")
    # every job's time and calibration pass, round by round
    (out / f"worker-{name}").write_text(json.dumps(runs) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
