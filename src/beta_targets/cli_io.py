"""Config parsing, subcommand dispatch, and artifact output.

One JSON config drives every subcommand; unknown keys are rejected by
name so typos fail loudly instead of silently using a default.  Tabular
results go to CSV (header row plus a comment line with the config
hash), structured results to JSON.  Outputs are byte-identical for
identical config and seed: floats are written with repr and nothing
records wall-clock state.

Exponentially small quantities appear in output columns as log2 values;
plain magnitudes would flush to zero long before the interesting range.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .beta_dynamics import (
    Interval,
    count_admissible,
    count_full,
    digits,
    enumerate_cylinders,
    transform,
)
from .dimension_engine import (
    AxisFamily,
    ExplicitTargets,
    Rotated2DFamily,
    TargetSpec,
    s_n,
    s_star,
)
from .errors import BetaTargetsError, ConfigError, DomainError
from .hausdorff_content import brute_force_content_2d
from .numerical_lab import (
    build_measure,
    cover_exponent_scan,
    verify_measure_bound,
)
from .parallelepiped_geometry import (
    BetaSystem,
    Parallelepiped,
    pivoted_orthogonalize,
)

__all__ = ["RunConfig", "parse_config", "run", "main"]

_MODULE = "cli_io"

SUBCOMMANDS = ("expand", "cylinders", "count", "ortho", "content",
               "dimension", "verify-cover", "verify-measure")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    betas: Optional[Tuple[float, ...]] = None
    target: Optional[dict] = None
    n: Optional[int] = None
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    window: int = 20
    mode: str = "exact"
    tolerance: float = 1e-3
    seed: int = 0
    out: str = "."
    copy_cap: Optional[int] = None
    cell_cap: Optional[int] = None
    node_cap: Optional[int] = None
    samples: int = 2000
    t: Optional[float] = None
    eps: Optional[float] = None
    D: Optional[tuple] = None
    taus: Optional[Tuple[float, ...]] = None
    s: Optional[tuple] = None
    x: Optional[float] = None
    interval: Optional[Tuple[float, float]] = None
    only_full: bool = False
    shape: Optional[tuple] = None
    depths: Optional[Tuple[int, ...]] = None
    columns: Optional[tuple] = None
    raw: dict = dataclasses.field(default_factory=dict)


_TOP_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"raw"}


def _fail(msg: str):
    raise ConfigError(msg, module=_MODULE)


def _as_number(v, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"config key {key!r} must be a number, got {v!r}")
    return float(v)


def _as_int(v, key: str, minimum: Optional[int] = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"config key {key!r} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(f"config key {key!r} must be >= {minimum}, got {v}")
    return v


def _as_pair(v, key: str) -> Tuple[float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(f"config key {key!r} must be a pair, got {v!r}")
    return (_as_number(v[0], key), _as_number(v[1], key))


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document; unknown keys rejected."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _fail("config must be a JSON object")
    return validate_config(data)


def validate_config(data: dict) -> RunConfig:
    for key in data:
        if key not in _TOP_KEYS:
            _fail(f"unknown config key {key!r}")
    out = {}
    if "betas" in data:
        v = data["betas"]
        if not isinstance(v, list) or not v:
            _fail("config key 'betas' must be a non-empty list")
        betas = tuple(_as_number(b, "betas") for b in v)
        for b in betas:
            if not (b > 1.0):
                raise DomainError(f"every base must exceed 1, got {b}",
                                  module=_MODULE)
        out["betas"] = betas
    if "target" in data:
        if not isinstance(data["target"], dict):
            _fail("config key 'target' must be an object")
        out["target"] = data["target"]
    for key, minimum in (("n", 1), ("n_min", 1), ("n_max", 1),
                         ("window", 1), ("seed", 0), ("copy_cap", 1),
                         ("cell_cap", 1), ("node_cap", 1), ("samples", 4)):
        if key in data:
            out[key] = _as_int(data[key], key, minimum)
    if "n_min" in out and "n_max" in out and out["n_min"] > out["n_max"]:
        _fail(f"need n_min <= n_max, got [{out['n_min']}, {out['n_max']}]")
    if "mode" in data:
        if data["mode"] not in ("exact", "limit"):
            _fail(f"config key 'mode' must be 'exact' or 'limit', "
                  f"got {data['mode']!r}")
        out["mode"] = data["mode"]
    for key in ("tolerance", "t", "eps", "x"):
        if key in data:
            out[key] = _as_number(data[key], key)
    if "tolerance" in out and out["tolerance"] <= 0.0:
        _fail("config key 'tolerance' must be positive")
    if "out" in data:
        if not isinstance(data["out"], str):
            _fail("config key 'out' must be a string")
        out["out"] = data["out"]
    if "D" in data:
        v = data["D"]
        if not isinstance(v, list) or len(v) != 2:
            _fail("config key 'D' must be a list of two intervals")
        out["D"] = tuple(_as_pair(I, "D") for I in v)
    if "taus" in data:
        v = data["taus"]
        if not isinstance(v, list) or not v:
            _fail("config key 'taus' must be a non-empty list")
        out["taus"] = tuple(_as_number(tau, "taus") for tau in v)
    if "s" in data:
        v = data["s"]
        if isinstance(v, list):
            if not v:
                _fail("config key 's' must not be an empty list")
            out["s"] = tuple(_as_number(e, "s") for e in v)
        else:
            out["s"] = (_as_number(v, "s"),)
    if "interval" in data:
        out["interval"] = _as_pair(data["interval"], "interval")
    if "only_full" in data:
        if not isinstance(data["only_full"], bool):
            _fail("config key 'only_full' must be a boolean")
        out["only_full"] = data["only_full"]
    if "shape" in data:
        v = data["shape"]
        if not isinstance(v, list) or len(v) < 3:
            _fail("config key 'shape' needs at least three vertices")
        out["shape"] = tuple(_as_pair(p, "shape") for p in v)
    if "depths" in data:
        v = data["depths"]
        if not isinstance(v, list) or not v:
            _fail("config key 'depths' must be a non-empty list")
        out["depths"] = tuple(_as_int(e, "depths", 1) for e in v)
    if "columns" in data:
        v = data["columns"]
        if not isinstance(v, list) or not v:
            _fail("config key 'columns' must be a list of column vectors")
        cols = []
        for c in v:
            if not isinstance(c, list) or len(c) != len(v):
                _fail("config key 'columns' must form a square matrix")
            cols.append(tuple(_as_number(e, "columns") for e in c))
        out["columns"] = tuple(cols)
    return RunConfig(**out, raw=data)


def make_target_spec(cfg: RunConfig) -> TargetSpec:
    """TargetSpec from the 'betas' and 'target' config sections."""
    if cfg.betas is None:
        _fail("missing config key 'betas'")
    if cfg.target is None:
        _fail("missing config key 'target'")
    system = BetaSystem(cfg.betas)
    tgt = dict(cfg.target)
    kind = tgt.pop("kind", None)
    if kind == "axis":
        known = {"exponents", "origin"}
        for k in tgt:
            if k not in known:
                _fail(f"unknown axis target key {k!r}")
        if "exponents" not in tgt:
            _fail("axis target needs 'exponents'")
        fam = AxisFamily(tgt["exponents"], tgt.get("origin"))
    elif kind == "rotated2d":
        known = {"theta", "theta_value", "a", "exponents"}
        for k in tgt:
            if k not in known:
                _fail(f"unknown rotated2d target key {k!r}")
        if "theta" not in tgt:
            _fail("rotated2d target needs 'theta'")
        fam = Rotated2DFamily(
            tgt["theta"],
            theta_value=float(tgt.get("theta_value", 0.0)),
            a=float(tgt.get("a", 0.0)),
            exponents=tuple(tgt.get("exponents", (1.0, 1.0))),
        )
    elif kind == "explicit":
        known = {"shapes"}
        for k in tgt:
            if k not in known:
                _fail(f"unknown explicit target key {k!r}")
        shapes = tgt.get("shapes")
        if not isinstance(shapes, list) or not shapes:
            _fail("explicit target needs a non-empty 'shapes' list")
        fam = ExplicitTargets(tuple(
            _explicit_shape(i, sh) for i, sh in enumerate(shapes)))
    elif kind == "table":
        known = {"path"}
        for k in tgt:
            if k not in known:
                _fail(f"unknown table target key {k!r}")
        if "path" not in tgt:
            _fail("table target needs 'path'")
        fam = _load_table(tgt["path"], system.dimension)
    else:
        _fail(f"unknown target kind {kind!r}")
    return TargetSpec(system, fam)


def _explicit_shape(i: int, sh) -> Parallelepiped:
    if not isinstance(sh, dict):
        _fail(f"explicit shape {i} must be an object, got {sh!r}")
    for k in sh:
        if k not in ("origin", "columns"):
            _fail(f"unknown explicit shape key {k!r}")
    for k in ("origin", "columns"):
        if k not in sh:
            _fail(f"explicit shape {i} needs {k!r}")
    try:
        origin = np.asarray(sh["origin"], dtype=float)
        columns = np.column_stack(np.asarray(sh["columns"], dtype=float))
    except (TypeError, ValueError):
        _fail(f"explicit shape {i}: 'origin' and 'columns' must be "
              "numeric arrays")
    return Parallelepiped(origin, columns)


def _load_table(path: str, d: int) -> ExplicitTargets:
    """Per-level targets from CSV rows: n, origin (d), columns
    column-major (d*d)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(f"cannot read target table {path!r}: {exc}")
    width = 1 + d + d * d
    rows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != width:
            _fail(f"target table line {lineno}: expected {width} "
                  f"columns, got {len(parts)}")
        try:
            level = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError:
            # a header row is allowed once, at the top
            if lineno == 1:
                continue
            _fail(f"target table line {lineno}: non-numeric entry")
        rows[level] = vals
    if not rows:
        _fail(f"target table {path!r} has no data rows")
    if sorted(rows) != list(range(1, len(rows) + 1)):
        _fail("target table levels must be exactly 1..K")
    shapes = []
    for level in range(1, len(rows) + 1):
        vals = rows[level]
        origin = vals[:d]
        cols = np.array(vals[d:]).reshape(d, d, order="F")
        shapes.append(Parallelepiped(origin, cols))
    return ExplicitTargets(tuple(shapes))


def _config_sha(effective: dict) -> str:
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows,
               sha: str, trailing: Sequence[str] = ()) -> None:
    lines = [f"# config_sha256={sha}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(trailing)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj: dict, sha: str) -> None:
    payload = dict(obj)
    payload["config_sha256"] = sha
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _first_beta(cfg: RunConfig) -> float:
    if cfg.betas is None:
        _fail("missing config key 'betas'")
    return cfg.betas[0]


def _need(value, key: str):
    if value is None:
        _fail(f"missing config key {key!r}")
    return value


def _cmd_expand(cfg: RunConfig, out: Path, sha: str) -> int:
    beta = _first_beta(cfg)
    x = _need(cfg.x, "x")
    n = _need(cfg.n, "n")
    word = digits(beta, x, n)
    rows = []
    point = x
    for step, digit in enumerate(word, 1):
        rows.append((step, digit, point))
        point = transform(beta, point)
    _write_csv(out / "expand.csv", ("step", "digit", "point"), rows, sha)
    print(f"wrote {out / 'expand.csv'}")
    return 0


def _cmd_cylinders(cfg: RunConfig, out: Path, sha: str) -> int:
    beta = _first_beta(cfg)
    n = _need(cfg.n, "n")
    kwargs = {}
    if cfg.interval is not None:
        kwargs["within"] = Interval(*cfg.interval)
    if cfg.node_cap is not None:
        kwargs["node_cap"] = cfg.node_cap
    rows = []
    for node in enumerate_cylinders(beta, n, only_full=cfg.only_full,
                                    **kwargs):
        rows.append(("".join(str(d) for d in node.word), n,
                     float(node.left), float(node.length),
                     1 if node.full else 0))
    _write_csv(out / "cylinders.csv",
               ("word", "level", "left", "length", "full"), rows, sha)
    print(f"wrote {out / 'cylinders.csv'}")
    return 0


def _cmd_count(cfg: RunConfig, out: Path, sha: str) -> int:
    beta = _first_beta(cfg)
    n = _need(cfg.n, "n")
    admissible = count_admissible(beta, n)
    full = count_full(beta, n)
    _write_csv(out / "count.csv",
               ("beta", "n", "admissible", "full"),
               [(beta, n, admissible, full)], sha)
    print(admissible)
    return 0


def _cmd_ortho(cfg: RunConfig, out: Path, sha: str) -> int:
    cols = _need(cfg.columns, "columns")
    matrix = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    frame = pivoted_orthogonalize(matrix)
    norms = [float(np.linalg.norm(frame.gammas[:, k]))
             for k in range(matrix.shape[1])]
    recon = frame.gammas @ frame.U
    err = float(np.max(np.abs(
        matrix[:, np.asarray(frame.permutation) - 1] - recon)))
    payload = {
        "permutation": list(frame.permutation),
        "gamma_norms": norms,
        "gamma_log2": [math.log2(v) for v in norms],
        "gammas": frame.gammas.T.tolist(),
        "U": frame.U.tolist(),
        "volume": float(np.prod(norms)),
        "checks": {
            "norms_sorted": bool(all(a >= b for a, b in
                                     zip(norms, norms[1:]))),
            "max_abs_U": float(np.max(np.abs(frame.U))),
            "reconstruction_max_abs_err": err,
        },
    }
    _write_json(out / "ortho.json", payload, sha)
    print(f"wrote {out / 'ortho.json'}")
    return 0


def _cmd_content(cfg: RunConfig, out: Path, sha: str) -> int:
    shape = _need(cfg.shape, "shape")
    exponents = _need(cfg.s, "s")
    kwargs = {}
    if cfg.depths is not None:
        kwargs["depths"] = cfg.depths
    rows = []
    for s in exponents:
        est = brute_force_content_2d(np.asarray(shape, dtype=float),
                                     float(s), **kwargs)
        rows.append((float(s), est.lower, est.upper))
    _write_csv(out / "content.csv", ("s", "lower", "upper"), rows, sha)
    print(f"wrote {out / 'content.csv'}")
    return 0


def _cmd_dimension(cfg: RunConfig, out: Path, sha: str) -> int:
    spec = make_target_spec(cfg)
    n_min = _need(cfg.n_min, "n_min")
    n_max = _need(cfg.n_max, "n_max")
    window = min(cfg.window, n_max - n_min + 1)
    report = s_star(spec, n_min, n_max, window=window,
                    tolerance=cfg.tolerance, mode=cfg.mode)
    d = spec.dimension
    header = ["n"] + [f"gamma_log2_{i + 1}" for i in range(d)] + \
        ["s_n", "argmin_tau_log2"]
    rows = [(lv.n, *lv.gamma_log2, lv.s_n, lv.argmin_tau_log2)
            for lv in report.levels]
    trailing = [f"# s_star={report.s_star!r},"
                f"converged={'true' if report.converged else 'false'}"]
    _write_csv(out / "dimension.csv", header, rows, sha, trailing)
    print(f"wrote {out / 'dimension.csv'}")
    return 0


def _cmd_verify_cover(cfg: RunConfig, out: Path, sha: str) -> int:
    spec = make_target_spec(cfg)
    n_min = _need(cfg.n_min, "n_min")
    n_max = _need(cfg.n_max, "n_max")
    kwargs = {}
    if cfg.copy_cap is not None:
        kwargs["copy_cap"] = cfg.copy_cap
    if cfg.cell_cap is not None:
        kwargs["cell_cap"] = cfg.cell_cap
    s = cfg.s[0] if cfg.s is not None else None
    rows = []
    for n in range(n_min, n_max + 1):
        scan = cover_exponent_scan(spec, n, taus=cfg.taus, s=s, **kwargs)
        for row in scan.rows:
            rows.append((n, row.tau, row.count, row.predicted, row.ratio))
    _write_csv(out / "verify_cover.csv",
               ("n", "tau", "measured", "formula", "ratio"), rows, sha)
    print(f"wrote {out / 'verify_cover.csv'}")
    return 0


def _cmd_verify_measure(cfg: RunConfig, out: Path, sha: str) -> int:
    spec = make_target_spec(cfg)
    n_min = _need(cfg.n_min, "n_min")
    n_max = _need(cfg.n_max, "n_max")
    D = cfg.D if cfg.D is not None else ((0.0, 1.0), (0.0, 1.0))
    kwargs = {}
    if cfg.copy_cap is not None:
        kwargs["copy_cap"] = cfg.copy_cap
    rows = []
    for n in range(n_min, n_max + 1):
        t = cfg.t if cfg.t is not None else s_n(spec, n).s_n - 0.1
        M = build_measure(spec, n, D, t, eps=cfg.eps, **kwargs)
        rep = verify_measure_bound(M, samples=cfg.samples,
                                   rng_seed=cfg.seed)
        side = M.box_side
        for regime, ratio in rep.regime_max.items():
            _, radius, mass = rep.regime_witness[regime]
            bound = radius ** rep.t / side ** 2
            rows.append((n, regime, mass, bound, ratio))
    _write_csv(out / "verify_measure.csv",
               ("n", "regime", "measured", "formula", "ratio"), rows, sha)
    print(f"wrote {out / 'verify_measure.csv'}")
    return 0


_HANDLERS = {
    "expand": _cmd_expand,
    "cylinders": _cmd_cylinders,
    "count": _cmd_count,
    "ortho": _cmd_ortho,
    "content": _cmd_content,
    "dimension": _cmd_dimension,
    "verify-cover": _cmd_verify_cover,
    "verify-measure": _cmd_verify_measure,
}


def run(subcommand: str, cfg: RunConfig) -> int:
    """Dispatch a validated config; artifacts land in cfg.out."""
    if subcommand not in _HANDLERS:
        _fail(f"unknown subcommand {subcommand!r}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    sha = _config_sha(cfg.raw)
    return _HANDLERS[subcommand](cfg, out, sha)


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}),
          file=sys.stderr)


class _ArgsError(Exception):
    pass


class _QuietParser(argparse.ArgumentParser):
    # keep stderr machine-readable: no usage dump, just the JSON error
    def error(self, message):
        raise _ArgsError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _QuietParser(prog="beta-targets", description=(
        "shrinking-target toolkit: expansions, covering counts, and the "
        "dimension formula"))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "count":
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
        if name == "dimension":
            p.add_argument("--nmin", type=int, default=None)
            p.add_argument("--nmax", type=int, default=None)
            p.add_argument("--window", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly only for --help
        return 0 if exc.code in (0, None) else 2
    except _ArgsError as exc:
        _emit_error("cli_io.config", str(exc))
        return 2
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                _fail(f"cannot read config {args.config!r}: {exc}")
            data = json.loads(text)
            if not isinstance(data, dict):
                _fail("config must be a JSON object")
        else:
            data = {}
        if args.out is not None:
            data["out"] = args.out
        if args.seed is not None:
            data["seed"] = args.seed
        if args.subcommand == "count":
            if args.beta is not None:
                data["betas"] = [args.beta]
            if args.n is not None:
                data["n"] = args.n
        if args.subcommand == "dimension":
            if args.nmin is not None:
                data["n_min"] = args.nmin
            if args.nmax is not None:
                data["n_max"] = args.nmax
            if args.window is not None:
                data["window"] = args.window
        cfg = validate_config(data)
        return run(args.subcommand, cfg)
    except json.JSONDecodeError as exc:
        _emit_error("cli_io.config", f"config is not valid JSON: {exc}")
        return 2
    except BetaTargetsError as exc:
        _emit_error(exc.code, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
