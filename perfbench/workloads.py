"""Job lists for the three benchmark workloads, and the check of every job.

A job is one ``cli_io.main`` call on a generated config, or, where the
command line has no entry point (the mpmath cylinder route), one call to
a public library function.  Every input comes from the workload seed:
the same seed gives byte-identical configs.  Seeds vary parameters that
leave the cost of a job about the same (angles, decay rates, exponents,
a few bases), while level ladders and leaf budgets stay fixed, so runs
on different seeds measure the same amount of work.

Every job here is chosen to complete at the parent commit.  Inputs that
hit a known defect go to ``probe_jobs`` instead; the traced run executes
them once so the layer error counters see them, but they are not part of
the measured loop.

Each job's check returns the units of work the job completed (levels,
leaves, cells, balls, estimates) or raises ``CheckFailed``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# exact-mode dimension blocks are this many levels wide
BLOCK_WIDTH = 20

# n * |s_n(exact) - s_n(limit)| must stay below this for the rotated
# families on the seeded angle and decay ranges below.  The README
# promises an O(1/n) gap; the worst value seen on those ranges over
# n = 1..2000 is about 0.40 (theta = 1.1 on bases (2, 3)), and about
# 0.094 at theta = pi/4 on (2, 4).
GAP_CONSTANT = 0.5

# cylinder walks are sized so that beta**n stays below this many leaves
LEAF_BUDGET = 20_000
MP_LEAF_BUDGET = 1_500

CONTENT_EXPONENTS = (0.5, 1.0, 1.3, 1.7, 2.0)


class CheckFailed(Exception):
    """A job completed but its output is wrong."""


@dataclasses.dataclass
class Job:
    kind: str
    label: str
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], list]] = None
    check: Callable[["Job", Path, Dict[int, Path]], int] = None
    partner: Optional[int] = None
    # extra facts the checks and the traced run need
    info: dict = dataclasses.field(default_factory=dict)


class Slot(NamedTuple):
    """One end-to-end throughput: the job kinds it pools, the name of
    what it counts, and its clock.  The clock is "reference" for work
    bound by the interpreter, whose speed follows the calibration round
    (see worker.py), and "wall" for memory-bound numpy work, whose speed
    does not follow it consistently."""

    kinds: tuple
    name: str
    clock: str = "reference"


@dataclasses.dataclass
class Workload:
    name: str
    jobs: List[Job]
    # "primary", "secondary" and "tertiary" throughputs
    slots: Dict[str, Slot]
    # what a job of the primary slot is called in the report
    latency: str


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _read_csv_rows(path: Path):
    """(header, data rows, comment lines) of an artifact CSV."""
    rows = []
    comments = []
    with path.open() as fh:
        for line in fh:
            line = line.rstrip("\n")
            (comments if line.startswith("#") else rows).append(line)
    if not comments or not comments[0].startswith("# config_sha256="):
        raise CheckFailed(f"{path.name} lacks the config hash line")
    return rows[0].split(","), [r.split(",") for r in rows[1:]], comments


# ---------------------------------------------------------------- formula

def _dimension_rows(out: Path, d: int, levels):
    header, rows, comments = _read_csv_rows(out / "dimension.csv")
    if len(header) != d + 3:
        raise CheckFailed(f"dimension.csv header has {len(header)} columns")
    if [int(r[0]) for r in rows] != list(levels):
        raise CheckFailed("dimension.csv levels do not match the block")
    s_star = None
    for line in comments:
        if line.startswith("# s_star="):
            s_star = float(line[len("# s_star="):].split(",")[0])
    if s_star is None:
        raise CheckFailed("dimension.csv lacks the s_star line")
    gam = np.array([[float(x) for x in r[1:1 + d]] for r in rows])
    s = np.array([float(r[1 + d]) for r in rows])
    if not np.all((s > 0.0) & (s <= d + 1e-12)):
        raise CheckFailed("s_n outside (0, d]")
    if np.any(np.diff(gam, axis=1) > 0.0):
        raise CheckFailed("gamma magnitudes not sorted")
    if abs(s_star - float(np.max(s[-min(len(s), BLOCK_WIDTH):]))) > 0.0:
        raise CheckFailed("s_star is not the window maximum")
    return gam, s, s_star


def _check_volume(gam, levels, log2_volume: Callable[[int], float]):
    for g, n in zip(gam, levels):
        vol = log2_volume(n)
        if abs(float(np.sum(g)) - vol) > 1e-9 * max(1.0, abs(vol)):
            raise CheckFailed(f"volume identity fails at level {n}")


def _formula_check(job: Job, out: Path, done: Dict[int, Path]) -> int:
    info = job.info
    levels = range(info["nmin"], info["nmax"] + 1)
    gam, s, s_star = _dimension_rows(out, info["d"], levels)
    if info["mode"] == "limit":
        if info.get("closed_form") is not None:
            if abs(s_star - info["closed_form"]) > 1e-9:
                raise CheckFailed(f"limit s* {s_star!r} != closed form "
                                  f"{info['closed_form']!r}")
        # constant-shape limits do not depend on n
        if float(np.max(s) - np.min(s)) > 1e-12:
            raise CheckFailed("limit-mode s_n varies across the block")
        return len(s)
    _check_volume(gam, levels, info["log2_volume"])
    if job.partner is not None:
        _, s_lim, _ = _dimension_rows(done[job.partner], info["d"], levels)
        gap = np.abs(s - s_lim) * np.array(levels, dtype=float)
        if float(np.max(gap)) > info["gap_constant"]:
            raise CheckFailed(
                f"n * |exact - limit| = {float(np.max(gap)):.4g} exceeds "
                f"{info['gap_constant']}")
    return len(s)


def _blocks(rng, top: int, count: int):
    """count block starts, one per stratum of [1, top - width + 1]."""
    span = (top - BLOCK_WIDTH + 1) / count
    return [1 + int(i * span + rng.uniform(0.0, span - 1.0))
            for i in range(count)]


def formula(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    jobs: List[Job] = []
    lg = math.log2

    def rotated(betas, theta):
        return {"betas": list(betas), "target": {
            "kind": "rotated2d", "theta": "const", "theta_value": theta}}

    theta24 = float(rng.uniform(0.2, 1.1))
    theta23 = float(rng.uniform(0.2, 1.1))
    a24 = float(rng.uniform(0.5, 0.9))
    ex3 = [float(x) for x in rng.uniform(0.3, 2.0, 3)]
    betas3 = (2.0, 3.0, PHI)
    # (config, dimension, top level, closed form, log2 volume at n).
    # Top levels stay below the first exact-mode failure on each seeded
    # range: about n = 1059 on (2, 4) and n = 1810 on (2, 3); arccos_pow2
    # with a >= 0.5 first fails at n = 2119.
    families = {
        "rot24": (rotated((2.0, 4.0), theta24), 2, 1000, 1.25,
                  lambda n: -2.0 * n * (lg(2.0) + lg(4.0))),
        "rot23": (rotated((2.0, 3.0), theta23), 2, 1780, None,
                  lambda n: -2.0 * n * (lg(2.0) + lg(3.0))),
        "arccos24": ({"betas": [2.0, 4.0], "target": {
            "kind": "rotated2d", "theta": "arccos_pow2", "a": a24}},
            2, 2000, 1.0 + (1.0 - a24) / (4.0 - a24),
            lambda n: -2.0 * n * (lg(2.0) + lg(4.0))),
        "axis3d": ({"betas": list(betas3), "target": {
            "kind": "axis", "exponents": ex3}}, 3, 2000, None,
            lambda n: -n * sum((1.0 + t) * lg(b)
                               for t, b in zip(ex3, betas3))),
    }
    for fam, (cfg, d, top, closed, vol) in families.items():
        path = _write_json(work / f"{fam}.json", cfg)
        lim_cfg = _write_json(work / f"{fam}-limit.json",
                              dict(cfg, mode="limit"))
        for start in _blocks(rng, top, 25):
            nmax = start + BLOCK_WIDTH - 1
            # axis families agree between the modes up to rounding
            base = dict(d=d, nmin=start, nmax=nmax, closed_form=closed,
                        log2_volume=vol,
                        gap_constant=GAP_CONSTANT if d == 2 else 1e-6)
            argv = ["dimension", "--config", path, "--nmin", str(start),
                    "--nmax", str(nmax)]
            jobs.append(Job("limit", f"{fam}-limit-{start}",
                            ["dimension", "--config", lim_cfg, "--nmin",
                             str(start), "--nmax", str(nmax)],
                            check=_formula_check,
                            info=dict(base, mode="limit")))
            jobs.append(Job("exact2d" if d == 2 else "exact3d",
                            f"{fam}-exact-{start}", argv,
                            check=_formula_check, partner=len(jobs) - 1,
                            info=dict(base, mode="exact")))

    # 3-D explicit targets read through the table loader.  Columns are
    # lower triangular in the order of increasing base, so the contracted
    # columns stay far from parallel; dense columns lose their unit
    # directions near n = 130 (see probe_jobs).
    table_betas = (2.0, 2.5, 3.0)
    shapes = [np.tril(rng.uniform(-0.05, 0.05, (3, 3)), -1)
              + np.diag(rng.uniform(0.04, 0.1, 3)) for _ in range(200)]
    tpath = work / "table3d.csv"
    tpath.write_text(_table(shapes))
    tcfg = _write_json(work / "table3d.json", {
        "betas": list(table_betas),
        "target": {"kind": "table", "path": str(tpath)}})
    log_dets = [float(np.linalg.slogdet(m)[1]) / math.log(2.0)
                for m in shapes]
    for start in _blocks(rng, len(shapes), 8):
        nmax = start + BLOCK_WIDTH - 1
        vol = (lambda n: log_dets[n - 1]
               - n * sum(lg(b) for b in table_betas))
        jobs.append(Job("exact3d", f"table3d-exact-{start}",
                        ["dimension", "--config", tcfg, "--nmin",
                         str(start), "--nmax", str(nmax)],
                        check=_formula_check,
                        info=dict(d=3, nmin=start, nmax=nmax, mode="exact",
                                  log2_volume=vol)))
    return Workload("formula", jobs, {
        "primary": Slot(("exact2d", "exact3d"), "exact_levels"),
        "secondary": Slot(("limit",), "limit_levels"),
        "tertiary": Slot(("exact3d",), "exact_3d_levels"),
    }, "block")


def _table(shapes) -> str:
    """CSV rows n, origin (3), columns column-major (9)."""
    lines = ["n,o1,o2,o3," + ",".join(f"m{k}" for k in range(9))]
    for n, m in enumerate(shapes, 1):
        vals = [0.4, 0.4, 0.4] + list(m.flatten(order="F"))
        lines.append(",".join([str(n)] + [repr(float(v)) for v in vals]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- symbolic

def read_count_row(out: Path):
    header, rows, _ = _read_csv_rows(out / "count.csv")
    if header != ["beta", "n", "admissible", "full"] or len(rows) != 1:
        raise CheckFailed("count.csv has the wrong shape")
    return int(rows[0][2]), int(rows[0][3])


def _count_check(job: Job, out: Path, done) -> int:
    beta, n = job.info["beta"], job.info["n"]
    adm, full = read_count_row(out)
    if float(beta).is_integer():
        if adm != int(beta) ** n or full != int(beta) ** n:
            raise CheckFailed(f"integer beta {beta} must give beta**n words")
    elif not (0 < full <= adm):
        raise CheckFailed(f"need 0 < full <= admissible, got {full}, {adm}")
    return n


def _cylinders_check(job: Job, out: Path, done) -> int:
    beta, n = job.info["beta"], job.info["n"]
    header, rows, _ = _read_csv_rows(out / "cylinders.csv")
    if header != ["word", "level", "left", "length", "full"]:
        raise CheckFailed("cylinders.csv header is wrong")
    adm, _ = read_count_row(done[job.partner])
    if len(rows) != adm:
        raise CheckFailed(f"{len(rows)} leaves, count says {adm}")
    if float(beta).is_integer() and len(rows) != int(beta) ** n:
        raise CheckFailed(f"integer beta {beta} must give beta**n leaves")
    for r in rows[:1] + rows[-1:]:
        if len(r[0]) != n or int(r[1]) != n:
            raise CheckFailed("leaf word length is not the level")
    return len(rows)


def _mp_check(job: Job, out: Path, done) -> int:
    leaves = len(job.info["last_result"])
    if leaves != job.info["expected"]:
        raise CheckFailed(f"{leaves} mp leaves, count says "
                          f"{job.info['expected']}")
    return leaves


def _count_job(beta: float, n: int) -> Job:
    return Job("count", f"count-{beta:.4f}-{n}",
               ["count", "--beta", repr(beta), "--n", str(n)],
               check=_count_check, info=dict(beta=beta, n=n))


def _budget_level(beta: float, budget: int) -> int:
    return int(math.log(budget) / math.log(beta))


def symbolic(seed: int, work: Path) -> Workload:
    # enumerate_cylinders is looked up through the module at call time,
    # so that a traced run sees the call
    from beta_targets import beta_dynamics
    from beta_targets.beta_dynamics import BetaParam, count_admissible

    rng = np.random.default_rng([seed, 2])
    jobs: List[Job] = []
    # walks and mpmath walks are fixed: their cost per leaf depends on
    # beta, and the seed should not change the amount of work
    for beta in (PHI, 2.0, 2.5, 3.0):
        n = _budget_level(beta, LEAF_BUDGET)
        jobs.append(_count_job(beta, n))
        cfg = _write_json(work / f"cyl-{len(jobs)}.json",
                          {"betas": [beta], "n": n})
        jobs.append(Job("leaves", f"cylinders-{beta:.4f}-{n}",
                        ["cylinders", "--config", cfg], check=_cylinders_check,
                        partner=len(jobs) - 1, info=dict(beta=beta, n=n)))

    for beta, dps in ((1.1, 30), (1.15, 40)):
        n = _budget_level(beta, MP_LEAF_BUDGET)
        param = BetaParam(beta, dps=dps)

        def call(param=param, n=n):
            # the projection ceil(beta)**n is loose near beta = 1; the
            # real walk visits a few thousand nodes
            return list(beta_dynamics.enumerate_cylinders(
                param, n, node_cap=2.0 ** n))

        jobs.append(Job("mp_leaves", f"mp-{beta:.4f}-{n}-dps{dps}",
                        call=call, check=_mp_check,
                        info=dict(beta=beta, n=n, dps=dps,
                                  expected=count_admissible(param, n))))

    # count ladder: the named bases at the levels where float keys start
    # to drift, a seeded base, and deep levels that stay below the float
    # overflow of beta**n in the library's debug log line
    # (beta**n < 1.8e308, i.e. n < 709.78 / ln beta)
    seeded = float(rng.uniform(1.5, 3.5))
    for beta in (PHI, 2.5, 3.7, math.e, math.pi, 1.628, seeded):
        for n in (60, 90, 200):
            jobs.append(_count_job(beta, n))
    for beta, n in ((PHI, 1400), (2.5, 700), (1.3, 1500)):
        jobs.append(_count_job(beta, n))
    return Workload("symbolic", jobs, {
        "primary": Slot(("leaves",), "leaves"),
        "secondary": Slot(("mp_leaves",), "mp_leaves"),
        "tertiary": Slot(("count",), "count_levels"),
    }, "cylinders_job")


# ----------------------------------------------------------------- planar

def _cover_check(job: Job, out: Path, done) -> int:
    header, rows, _ = _read_csv_rows(out / "verify_cover.csv")
    if header != ["n", "tau", "measured", "formula", "ratio"] or not rows:
        raise CheckFailed("verify_cover.csv has the wrong shape")
    cells = 0
    for r in rows:
        ratio = float(r[4])
        if not (1.0 / 64 * (1 - 1e-9) <= ratio <= 64.0 * (1 + 1e-9)):
            raise CheckFailed(f"cover ratio {ratio} outside [1/64, 64]")
        cells += int(r[2])
    return cells


def _measure_check(job: Job, out: Path, done) -> int:
    header, rows, _ = _read_csv_rows(out / "verify_measure.csv")
    if header != ["n", "regime", "measured", "formula", "ratio"]:
        raise CheckFailed("verify_measure.csv header is wrong")
    levels = range(job.info["nmin"], job.info["nmax"] + 1)
    for n in levels:
        ratios = [float(r[4]) for r in rows if int(r[0]) == n]
        if len(ratios) != 4:
            raise CheckFailed(f"level {n} lacks a radius regime")
        peak = max(ratios)
        if not (math.isfinite(peak) and peak > 0.0):
            raise CheckFailed(f"max ratio {peak} not finite and positive")
    return job.info["samples"] * len(levels)


def _singular_value(w: float, h: float, s: float) -> float:
    a1, a2 = max(w, h), min(w, h)
    return a1 ** s if s <= 1.0 else a1 * a2 ** (s - 1.0)


def _content_check(job: Job, out: Path, done) -> int:
    header, rows, _ = _read_csv_rows(out / "content.csv")
    if header != ["s", "lower", "upper"] or \
            len(rows) != len(CONTENT_EXPONENTS):
        raise CheckFailed("content.csv has the wrong shape")
    w, h, frac = job.info["w"], job.info["h"], job.info["frac"]
    for r in rows:
        s, lower, upper = (float(x) for x in r)
        phi = _singular_value(w, h, s)
        lo = frac * 0.25 * phi * (1.0 - 0.1)
        hi = phi * (1.0 + 0.1)
        if not (lo <= lower <= upper <= hi):
            raise CheckFailed(f"content at s={s} outside the sandwich")
    return len(rows)


def _thin_shape(rng, k: int, count: int):
    """The k-th of count thin rectangles or parallelograms.

    Width and aspect follow fixed ladders, which set the cost of the
    content estimate; the seed picks shear, tilt and placement.  The
    aspect ladder starts half a step in: the thinnest rectangle,
    0.1 x 0.002, trips a rounding defect at s = 2 on some placements
    (see probe_jobs), and no measured job may fail.
    """
    w = 0.1 + 0.5 * k / (count - 1)
    aspect = math.exp(math.log(0.02) + math.log(0.075 / 0.02)
                      * (((k + 0.5) * 0.618034) % 1.0))
    h = w * aspect
    kind = k % 3
    if kind == 0:
        cols = np.array([[w, 0.0], [0.0, h]])
    elif kind == 1:
        cols = np.array([[w, rng.uniform(-2.0, 2.0) * h], [0.0, h]])
    else:
        theta = rng.uniform(-0.25, 0.25) * aspect
        c, s = math.cos(theta), math.sin(theta)
        cols = np.array([[c, -s], [s, c]]) @ np.diag([w, h])
    corners = np.array([[0.0, 0.0], cols[:, 0],
                        cols[:, 0] + cols[:, 1], cols[:, 1]])
    span = corners.max(axis=0) - corners.min(axis=0)
    x0 = rng.uniform(0.001, 0.999 - span[0]) - corners[:, 0].min()
    y0 = rng.uniform(0.001, 0.999 - span[1]) - corners[:, 1].min()
    poly = corners + np.array([x0, y0])
    x, y = poly[:, 0], poly[:, 1]
    area = abs(0.5 * float(np.dot(x, np.roll(y, -1))
                           - np.dot(y, np.roll(x, -1))))
    return poly, float(span[0]), float(span[1]), area


def planar(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    jobs: List[Job] = []
    for theta in (0.0, math.pi / 4):
        cfg = _write_json(work / f"cover-{theta:.4f}.json", {
            "betas": [2.0, 4.0], "target": {
                "kind": "rotated2d", "theta": "const", "theta_value": theta},
            "n_min": 2, "n_max": 4})
        for n in (2, 3, 4):
            lvl = _write_json(work / f"cover-{theta:.4f}-{n}.json", dict(
                json.loads(Path(cfg).read_text()), n_min=n, n_max=n))
            jobs.append(Job("cells", f"cover-{theta:.4f}-{n}",
                            ["verify-cover", "--config", lvl],
                            check=_cover_check))
    # the cover jobs are fixed configs: their cost, dominated by this one,
    # depends strongly on the angle
    cfg = _write_json(work / "cover-nonint.json", {
        "betas": [2.5, PHI], "target": {
            "kind": "rotated2d", "theta": "const", "theta_value": 0.3},
        "n_min": 6, "n_max": 6})
    jobs.append(Job("cells", "cover-2.5-phi-6", ["verify-cover", "--config",
                                                 cfg], check=_cover_check))

    # one job per level, so that a run times more, shorter jobs
    for k in range(2):
        rng_seed = int(rng.integers(0, 2 ** 32))
        for n in (2, 3):
            cfg = _write_json(work / f"measure-{k}-{n}.json", {
                "betas": [2.0, 4.0], "target": {
                    "kind": "rotated2d", "theta": "const",
                    "theta_value": math.pi / 4},
                "n_min": n, "n_max": n, "samples": 2000, "seed": rng_seed})
            jobs.append(Job("balls", f"measure-{k}-{n}",
                            ["verify-measure", "--config", cfg],
                            check=_measure_check,
                            info=dict(nmin=n, nmax=n, samples=2000)))

    for k in range(20):
        poly, w, h, area = _thin_shape(rng, k, 20)
        cfg = _write_json(work / f"content-{k}.json", {
            "shape": poly.tolist(), "s": list(CONTENT_EXPONENTS)})
        jobs.append(Job("evals", f"content-{k}",
                        ["content", "--config", cfg], check=_content_check,
                        info=dict(w=w, h=h, frac=area / (w * h))))
    return Workload("planar", jobs, {
        # the cover count is a memory-bound numpy sort: rescaling its time
        # by the interpreter-bound calibration round tripled the spread of
        # cells/s between runs, so it is measured on the wall clock
        "primary": Slot(("cells",), "cover_cells", clock="wall"),
        "secondary": Slot(("balls",), "balls"),
        "tertiary": Slot(("evals",), "content_evals"),
    }, "cover_job")


WORKLOADS = {"formula": formula, "symbolic": symbolic, "planar": planar}


# ------------------------------------------------------------------ probe

def probe_jobs(work: Path) -> List[Job]:
    """Fixed jobs that a traced run executes once, after the replay.

    One tiny job of every kind makes every layer report measured figures
    in every workload; together they add well under 1% to the layers a
    workload exercises.  One job per known failure lets the layer error
    counters and cli_io's leaked-exception counter see it.  The probe
    has no checks and is not counted as attempted work.
    """
    from beta_targets import beta_dynamics

    work.mkdir(parents=True, exist_ok=True)

    def cfg(name, obj):
        return _write_json(work / f"{name}.json", obj)

    def dim(name, config, nmin, nmax):
        return Job("probe", name, ["dimension", "--config", cfg(name, config),
                                   "--nmin", str(nmin), "--nmax", str(nmax)])

    rot = {"betas": [2.0, 4.0], "target": {
        "kind": "rotated2d", "theta": "const", "theta_value": math.pi / 4}}
    dense = np.array([[0.06, 0.02, 0.01], [0.03, 0.07, 0.02],
                      [0.01, 0.03, 0.08]])
    tpath = work / "table3d.csv"
    tpath.write_text(_table([dense] * 140))
    return [
        dim("exact", rot, 1, 5),
        dim("limit", dict(rot, mode="limit"), 1, 5),
        Job("probe", "cylinders", ["cylinders", "--config", cfg(
            "cylinders", {"betas": [PHI], "n": 10})]),
        Job("probe", "count", ["count", "--beta", repr(PHI), "--n", "20"]),
        Job("probe", "mp", call=lambda: list(
            beta_dynamics.enumerate_cylinders(
                beta_dynamics.BetaParam(1.3, dps=20), 12,
                node_cap=2.0 ** 12))),
        Job("probe", "cover", ["verify-cover", "--config", cfg(
            "cover", dict(rot, n_min=2, n_max=2))]),
        Job("probe", "measure", ["verify-measure", "--config", cfg(
            "measure", dict(rot, n_min=2, n_max=2, samples=8))]),
        Job("probe", "content", ["content", "--config", cfg("content", {
            "shape": [[0.1, 0.1], [0.5, 0.12], [0.5, 0.14], [0.1, 0.12]],
            "s": [1.0]})]),
        # OverflowError from beta**n in a debug log call escapes main
        Job("probe", "defect-count-phi-1500",
            ["count", "--beta", repr(PHI), "--n", "1500"]),
        # an explicit shape without "origin" escapes main as a KeyError
        Job("probe", "defect-explicit-no-origin", ["dimension", "--config",
            cfg("no-origin", {"betas": [2.0, 4.0], "target": {
                "kind": "explicit",
                "shapes": [{"columns": [[0.1, 0.0], [0.0, 0.1]]}]}}),
            "--nmin", "1", "--nmax", "1"]),
        # at s = 2 the MDP spot check of a thin rectangle is tight, and
        # rounding in the clipped area exceeds its 1e-9 tolerance
        Job("probe", "defect-content-s2", ["content", "--config", cfg(
            "content-s2", {"shape": [[0.8, 0.6], [0.9, 0.6], [0.9, 0.602],
                                     [0.8, 0.602]], "s": [2.0]})]),
        # the cover count refuses n = 5 under the default cell cap
        Job("probe", "defect-cover-n5", ["verify-cover", "--config", cfg(
            "cover-n5", dict(rot, n_min=5, n_max=5))]),
        # exact mode fails near n = 1076 on (2, 4) and n = 1811 on (2, 3)
        dim("defect-rot24", rot, 1065, 1084),
        dim("defect-rot23", {"betas": [2.0, 3.0], "target": {
            "kind": "rotated2d", "theta": "const", "theta_value": 0.7}},
            1801, 1820),
        # dense 3-D columns collapse onto one direction from n = 129
        dim("defect-table3d", {"betas": [2.0, 2.5, 3.0], "target": {
            "kind": "table", "path": str(tpath)}}, 121, 140),
    ]
