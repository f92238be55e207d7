"""One workload in a fresh interpreter: set up, then a closed loop of jobs.

Started by ``run.py`` from the root of a checkout, with BLAS pinned to
one thread.  Set-up is the time from the parent's spawn to the first
timed job: imports, input generation, and one warm-up job of each kind.
With ``--setup-only`` the process stops there.

The loop runs the workload's job list in order, over and over, one job
at a time, until ``--seconds`` have passed and every job has run at
least once.  A job that raises, exits non-zero, fails its output check
or writes artifacts that differ from its first run counts as failed; no
failure stops the loop.

With ``--trace 1`` the loop runs untraced for part of the time, then the
same sequence of jobs runs again with the tracer installed; the ratio of
the two sums of job times is the tracing overhead.  The defect probe and the
independent count reference run after that, outside both timings.

The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# share of --seconds spent untraced in a traced run; the traced replay of
# the same jobs takes about this long again times the tracing overhead
_TRACE_UNTRACED_SHARE = 0.4

# The speed of the machine drifts by tens of percent within a minute when
# other tenants load it, and every job slows down with it.  A fixed
# calibration round runs between jobs at least this often, and each job
# time is rescaled by the median of the CAL_NEIGHBOURS rounds on each side
# of it: times are reported in reference seconds, the seconds the job
# would take on a machine where one round takes CAL_REF_S.
CAL_PERIOD_S = 0.1
CAL_NEIGHBOURS = 3
CAL_REF_S = 0.0015
_CAL_DATA = np.random.default_rng(0).random(5_000)


def calibration_round() -> float:
    """Seconds of one pass of a fixed mix of the work the library does:
    dict updates, small-tuple allocation and a small numpy sort."""
    t = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(1_500):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += math.sqrt(i + 1.0)
    stack = [((), 0.0, 1.0)]
    for i in range(1_000):
        word, left, length = stack[-1]
        stack.append((word + (i & 3,), left + 0.5 * length, 0.7 * length))
        if len(stack) > 20:
            del stack[0]
    acc += float(np.sort(_CAL_DATA)[::7].sum())
    return time.perf_counter() - t


def _parse(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _digest(out: Path):
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode())
        h.update(data)
    return h.hexdigest(), size


class Runner:
    """Executes jobs, checks them, and keeps per-job records."""

    def __init__(self, workload, work: Path):
        from beta_targets import cli_io

        self.cli = cli_io
        self.workload = workload
        self.work = work
        self.outdirs = {}
        self.digests = {}
        self.units = {}
        self.failed_jobs = set()
        self.outcomes = Counter()
        self.error_codes = Counter()
        self.leaked = Counter()
        self.wrong = []
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0
        self.error_exits = 0
        self.leaked_count = 0
        self.executions = 0
        self.tracer = None
        self.stamps = defaultdict(list)
        self.cal_at = []
        self.cal_s = []

    def _outdir(self, i: int) -> Path:
        if i not in self.outdirs:
            d = self.work / "jobs" / f"j{i:04d}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            self.outdirs[i] = d
        return self.outdirs[i]

    def _execute(self, job, out: Path):
        """(status, detail, start, seconds); status is ok, error_exit or
        leaked."""
        if job.call is not None:
            t = time.perf_counter()
            result = job.call()
            dt = time.perf_counter() - t
            job.info["last_result"] = result
            (out / "leaves.txt").write_text(
                "\n".join(f"{''.join(map(str, nd.word))},{nd.left},"
                          f"{nd.length},{int(nd.full)}" for nd in result))
            return "ok", "", t, dt
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t = time.perf_counter()
            try:
                rc = self.cli.main(job.argv + ["--out", str(out)])
            except Exception as exc:  # a defect must not abort the run
                dt = time.perf_counter() - t
                return "leaked", type(exc).__name__, t, dt
            dt = time.perf_counter() - t
        if rc != 0:
            try:
                code = json.loads(stderr.getvalue())["error"]["code"]
            except (ValueError, KeyError, TypeError):
                code = f"exit {rc}"
            return "error_exit", code, t, dt
        return "ok", "", t, dt

    def run(self, i: int, record: bool = True) -> None:
        job = self.workload.jobs[i]
        if self.tracer is not None:
            self.tracer.job_id = self.executions
        self.executions += 1
        out = self._outdir(i)
        try:
            status, detail, t0, dt = self._execute(job, out)
        except Exception as exc:  # a library job raised
            status, detail, t0, dt = "leaked", type(exc).__name__, 0.0, 0.0
        units = 0
        if status == "ok":
            try:
                if job.check is not None:
                    units = job.check(job, out, self.outdirs)
                digest, size = _digest(out)
                self.artifact_bytes += size
                if self.digests.setdefault(i, digest) != digest:
                    status, detail = "nondeterministic", job.label
            except Exception as exc:  # a broken artifact is a wrong output
                status, detail = "wrong", f"{job.label}: {exc}"
        if status == "error_exit":
            self.error_exits += 1
            self.error_codes[detail] += 1
        elif status == "leaked":
            self.leaked_count += 1
            self.leaked[detail] += 1
        elif status in ("wrong", "nondeterministic"):
            self.wrong.append(detail)
        if not record:
            return
        self.attempted += 1
        self.outcomes[status] += 1
        if status == "ok":
            self.stamps[i].append((t0, t0 + dt))
            self.units[i] = units
        else:
            self.failed += 1
            self.failed_jobs.add(i)

    def _calibrate(self) -> None:
        t = time.perf_counter()
        self.cal_s.append(calibration_round())
        self.cal_at.append(t)

    def loop(self, seconds: float = math.inf, order=None):
        """Run jobs in list order until the time is up and each ran once,
        or run the given order; calibration rounds go in between."""
        jobs = len(self.workload.jobs)
        done = []
        start = time.perf_counter()
        deadline = start + seconds
        for _ in range(CAL_NEIGHBOURS):
            self._calibrate()
        while (len(done) < len(order)) if order is not None else \
                (len(done) < jobs or time.perf_counter() < deadline):
            i = order[len(done)] if order is not None else len(done) % jobs
            if time.perf_counter() - self.cal_at[-1] >= CAL_PERIOD_S:
                self._calibrate()
            self.run(i)
            done.append(i)
        for _ in range(CAL_NEIGHBOURS):
            self._calibrate()
        return done, time.perf_counter() - start

    def wall_times(self, i: int):
        return [end - start for start, end in self.stamps[i]]

    def reference_times(self, i: int):
        """Job i's times rescaled by the calibration rounds around them."""
        out = []
        for start, end in self.stamps[i]:
            before = bisect.bisect_right(self.cal_at, start)
            after = bisect.bisect_left(self.cal_at, end)
            around = self.cal_s[max(0, before - CAL_NEIGHBOURS):before] + \
                self.cal_s[after:after + CAL_NEIGHBOURS]
            out.append((end - start) * CAL_REF_S / statistics.median(around))
        return out

    def reference_seconds(self) -> float:
        return sum(sum(self.reference_times(i)) for i in self.stamps)

    def summary(self) -> dict:
        """Throughput and latency of each metric slot's job kinds.

        A slot's throughput is its units of work over the sum of its
        jobs' median times, over the jobs that never failed, so one slow
        outlier does not move it and failed work never counts as done.
        Latency percentiles pool every timed run of those jobs.  Each
        figure comes in reference seconds (``_ref``) and in wall-clock
        seconds (``_wall``); the unsuffixed one is in the slot's clock.
        """
        out = {}
        for slot, spec in self.workload.slots.items():
            fig = {"name": spec.name, "clock": spec.clock}
            for clock, times in (("reference", self.reference_times),
                                 ("wall", self.wall_times)):
                units, seconds, samples = 0, 0.0, []
                for i, job in enumerate(self.workload.jobs):
                    if job.kind not in spec.kinds or \
                            i in self.failed_jobs or not self.stamps[i]:
                        continue
                    t = sorted(times(i))
                    units += self.units[i]
                    seconds += t[len(t) // 2]
                    samples.extend(t)
                samples.sort()
                vals = {"per_s": units / seconds if seconds else 0.0,
                        "p50_ms": 1e3 * _quantile(samples, 0.5),
                        "p90_ms": 1e3 * _quantile(samples, 0.9)}
                suffix = "_ref" if clock == "reference" else "_wall"
                fig.update({k + suffix: v for k, v in vals.items()})
                if clock == spec.clock:
                    fig.update(vals)
                fig.update(units=units, samples=len(samples))
            out[slot] = fig
        return {"slots": out,
                "calibration_s": {"rounds": len(self.cal_s),
                                  "median": statistics.median(self.cal_s),
                                  "min": min(self.cal_s),
                                  "max": max(self.cal_s)}}


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


def _environment() -> dict:
    import mpmath
    import numpy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _count_reference(workload, runner) -> dict:
    """Library counts against the exact Fraction recursion, n <= 200."""
    from countref import exact_admissible_count

    from workloads import read_count_row

    rows = []
    for i, job in enumerate(workload.jobs):
        if job.kind != "count" or job.info["n"] > 200 or \
                i not in runner.units:
            continue
        lib, _ = read_count_row(runner.outdirs[i])
        ref = exact_admissible_count(job.info["beta"], job.info["n"])
        rows.append({"beta": job.info["beta"], "n": job.info["n"],
                     "library": str(lib), "exact": str(ref),
                     "match": lib == ref})
    return {"checked": len(rows),
            "mismatches": [r for r in rows if not r["match"]]}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    runner = Runner(wl, work)
    seen = set()
    for i, job in enumerate(wl.jobs):
        # warm-up: one job of each kind, with its check partner first
        if job.kind in seen:
            continue
        seen.add(job.kind)
        if job.partner is not None:
            runner.run(job.partner, record=False)
        runner.run(i, record=False)
    setup_s = time.monotonic() - args.t0
    # set-up is interpreter-bound too: rescale it by the rounds right after
    rounds = [calibration_round() for _ in range(2 * CAL_NEIGHBOURS)]
    result = {"setup_s": setup_s,
              "setup_ref_s": setup_s * CAL_REF_S / statistics.median(rounds),
              "workload": args.workload, "seed": args.seed}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    seconds = args.seconds * (_TRACE_UNTRACED_SHARE if args.trace else 1.0)
    order, wall = runner.loop(seconds)
    result.update(runner.summary())
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        wrong=runner.wrong, outcomes=dict(runner.outcomes),
        error_codes=dict(runner.error_codes), leaked=dict(runner.leaked),
        latency_name=wl.latency,
        environment=_environment(), loop_seconds=wall, jobs_run=len(order),
        job_times={job.label: runner.wall_times(i)
                   for i, job in enumerate(wl.jobs)},
        job_reference_times={job.label: runner.reference_times(i)
                             for i, job in enumerate(wl.jobs)})

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = Runner(wl, work)
        traced.outdirs = runner.outdirs
        traced.digests = runner.digests
        tracer.install()
        traced.tracer = tracer
        traced.loop(order=order)
        probe = workloads.probe_jobs(work / "probe")
        probe_runner = Runner(workloads.Workload("probe", probe, {}, ""),
                              work / "probe")
        probe_runner.tracer = tracer
        probe_runner.executions = traced.executions
        for k in range(len(probe)):
            probe_runner.run(k)
        tracer.uninstall()
        reference = _count_reference(wl, runner)
        c = tracer.counts
        c["artifact_bytes"] = traced.artifact_bytes + \
            probe_runner.artifact_bytes
        c["error_exits"] = traced.error_exits + probe_runner.error_exits
        c["leaked_exceptions"] = traced.leaked_count + \
            probe_runner.leaked_count
        c["count_mismatches"] = len(reference["mismatches"])
        layers = tracer.layer_metrics()
        layers["trace.overhead_ratio"] = (
            traced.reference_seconds() / runner.reference_seconds(), "ratio")
        tracer.save(work / "spans.npz")
        result.update(
            attempted=runner.attempted + traced.attempted,
            failed=runner.failed + traced.failed,
            wrong=runner.wrong + traced.wrong,
            layers={k: {"value": v, "unit": u}
                    for k, (v, u) in layers.items()},
            breakdown=dict(tracer.breakdown(),
                           leaked_exceptions_by_type=dict(
                               traced.leaked + probe_runner.leaked)),
            probe={"jobs": [j.label for j in probe],
                   "outcomes": dict(probe_runner.outcomes),
                   "error_codes": dict(probe_runner.error_codes),
                   "leaked": dict(probe_runner.leaked)},
            count_reference=reference)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
