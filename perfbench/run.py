"""Benchmark of the beta-targets library through its command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

Workloads are ``formula``, ``symbolic`` and ``planar`` (see
``perfbench/README.md``).  Each run starts fresh interpreters with one
thread each and BLAS pinned to one thread: with ``--trace 0``, four that
only set up and one that sets up and then runs the closed loop of jobs;
with ``--trace 1``, one that runs the loop untraced and then traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it repeats the figures under the names of the job kinds
they measure.  The full report, and the spans of a traced run, go to
``perfbench/out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("formula", "symbolic", "planar")

# set-up is sampled this many times per untraced run: by set-up-only
# interpreters, plus the one that runs the loop
SETUP_SAMPLES = 5

# a set-up interpreter must end within SETUP_LIMIT_S, the loop's within
# --seconds plus LOOP_GRACE_S, and the whole run within RUN_LIMIT_S
SETUP_LIMIT_S = 20.0
LOOP_GRACE_S = 60.0
RUN_LIMIT_S = 170.0


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _spawn(args, out: Path, tag: str, setup_only: bool, run_deadline: float):
    """Run one worker to completion: (result dict, peak RSS in MB)."""
    here = Path(__file__).resolve().parent
    result = out / f"{tag}.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(here / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", str(out / "work"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env,
                            stdout=subprocess.DEVNULL)
    deadline = min(run_deadline, t0 + (
        SETUP_LIMIT_S if setup_only else args.seconds + LOOP_GRACE_S))
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"{tag} worker overran its time and was "
                               "killed")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with {proc.returncode}")
    return json.loads(result.read_text()), usage.ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not Path("src/beta_targets/__init__.py").is_file():
        print("perfbench: run from the root of a beta-targets checkout "
              "(src/beta_targets not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    out = Path(__file__).resolve().parent / "out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run_deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                res, _ = _spawn(args, out, f"setup{k}", True, run_deadline)
                setups.append((res["setup_ref_s"], res["setup_s"]))
        res, rss_mb = _spawn(args, out, "run", False, run_deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append((res["setup_ref_s"], res["setup_s"]))
    slots = res["slots"]
    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": res["environment"],
        "failed_ops_ratio": failed / attempted,
        "outcomes": res["outcomes"], "error_codes": res["error_codes"],
        "leaked_exceptions": res["leaked"], "wrong_outputs": res["wrong"],
        "calibration_s": res["calibration_s"],
        "loop_seconds": res["loop_seconds"], "jobs_run": res["jobs_run"],
    }
    for fig in slots.values():
        for suffix in ("", "_ref", "_wall"):
            report[f"{fig['name']}_per_s{suffix}"] = fig["per_s" + suffix]
    prim = slots["primary"]
    for suffix in ("", "_ref", "_wall"):
        for q in ("p50", "p90"):
            report[f"{res['latency_name']}_{q}_ms{suffix}"] = \
                prim[f"{q}_ms{suffix}"]
    report[f"{res['latency_name']}_samples"] = prim["samples"]
    if args.trace:
        metrics = res["layers"]
        report.update(trace_overhead_ratio=metrics["trace.overhead_ratio"],
                      breakdown=res["breakdown"], probe=res["probe"],
                      count_reference=res["count_reference"])
    else:
        metrics = {
            "setup_s": _metric(statistics.median(r for r, _ in setups),
                               "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "primary_per_s": _metric(prim["per_s"], "1/s"),
            "secondary_per_s": _metric(slots["secondary"]["per_s"], "1/s"),
            "tertiary_per_s": _metric(slots["tertiary"]["per_s"], "1/s"),
        }
        report.update(setup_samples_ref_s=[r for r, _ in setups],
                      setup_samples_wall_s=[w for _, w in setups],
                      peak_rss_mb=rss_mb)
    print("perfbench: " + json.dumps(report, sort_keys=True))
    report["job_seconds"] = res["job_times"]
    report["job_reference_seconds"] = res["job_reference_times"]
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps({"correct": not res["wrong"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
