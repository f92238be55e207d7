"""Config parsing, subcommand dispatch, and artifact output.

One JSON config drives every subcommand; unknown keys are rejected by
name so typos fail loudly instead of silently using a default.  Each
key is read by the typed converter that its RunConfig field, or its
target kind in _TARGETS, declares; range checks the library already
makes (theta rule, exponents, levels) stay there.  Tabular results go
to CSV (header row plus a comment line with the config hash),
structured results to JSON.  Outputs are byte-identical for identical
config and seed: floats are written with repr and nothing records
wall-clock state.

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
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .beta_dynamics import (
    DEFAULT_NODE_CAP,
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
from .errors import (
    BetaTargetsError,
    ConfigError,
    DomainError,
    ScaleRangeError,
)
from .hausdorff_content import DEFAULT_DEPTHS, brute_force_content_2d
from .numerical_lab import (
    DEFAULT_CELL_CAP,
    DEFAULT_COPY_CAP,
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


def _fail(msg: str):
    raise ConfigError(msg, module=_MODULE)


# Converters: parse(value, what) returns the typed value or raises a
# ConfigError naming `what`, the place of the value in the config.

def _number(v, what: str) -> float:
    if (isinstance(v, float) and math.isfinite(v)) or (
            isinstance(v, int) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max):
        return float(v)
    _fail(f"{what} must be finite and numeric, got {v!r}")


def _integer(floor: int) -> Callable:
    def parse(v, what: str) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"{what} must be an integer, got {v!r}")
        if v < floor:
            _fail(f"{what} must be >= {floor}, got {v}")
        return v
    return parse


def _string(v, what: str) -> str:
    if not isinstance(v, str):
        _fail(f"{what} must be a string, got {v!r}")
    return v


def _boolean(v, what: str) -> bool:
    if not isinstance(v, bool):
        _fail(f"{what} must be a boolean, got {v!r}")
    return v


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        _fail(f"{what} must be an object, got {v!r}")
    return v


def _choice(*options: str) -> Callable:
    def parse(v, what: str) -> str:
        if v not in options:
            _fail(f"{what} must be one of {', '.join(map(repr, options))}, "
                  f"got {v!r}")
        return v
    return parse


def _list_of(item: Callable, size: int = 1, exact: bool = False) -> Callable:
    """Tuple parser for a list of `size` items, or at least `size`."""
    def parse(v, what: str) -> tuple:
        if not isinstance(v, list) or len(v) < size or \
                (exact and len(v) > size):
            _fail(f"{what} must be a list of {size}"
                  f"{'' if exact else ' or more'} items, got {v!r}")
        return tuple(item(e, f"{what}[{i}]") for i, e in enumerate(v))
    return parse


_numbers = _list_of(_number)
_pair = _list_of(_number, 2, exact=True)


def _number_or_list(v, what: str) -> tuple:
    return _numbers(v if isinstance(v, list) else [v], what)


def _matrix(v, what: str) -> tuple:
    """Square matrix as a tuple of columns."""
    cols = _list_of(_numbers)(v, what)
    if any(len(c) != len(cols) for c in cols):
        _fail(f"{what} must form a square matrix")
    return cols


def _base(v, what: str) -> float:
    b = _number(v, what)
    if not b > 1.0:
        raise DomainError(f"every base must exceed 1, got {b}",
                          module=_MODULE)
    return b


def _fields(obj, required: dict, optional: dict, what: str) -> dict:
    """Parsed keys of an object, each through its parser in `required`
    or `optional`; unknown and missing keys are refused by name."""
    _object(obj, what)
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"unknown {what} key {k!r}")
    for k in required:
        if k not in obj:
            _fail(f"{what} needs {k!r}")
    return {k: parse(obj[k], f"{what} key {k!r}")
            for k, parse in {**required, **optional}.items() if k in obj}


def _key(parse: Callable, default=None):
    """A RunConfig field read from the config key of the same name."""
    return dataclasses.field(default=default, metadata={"parse": parse})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated config; raw is the effective JSON object it came from,
    which the artifact hash covers."""

    betas: Optional[Tuple[float, ...]] = _key(_list_of(_base))
    target: Optional[dict] = _key(_object)
    n: Optional[int] = _key(_integer(1))
    n_min: Optional[int] = _key(_integer(1))
    n_max: Optional[int] = _key(_integer(1))
    window: int = _key(_integer(1), 20)
    mode: str = _key(_choice("exact", "limit"), "exact")
    tolerance: float = _key(_number, 1e-3)
    seed: int = _key(_integer(0), 0)
    out: str = _key(_string, ".")
    copy_cap: int = _key(_integer(1), DEFAULT_COPY_CAP)
    cell_cap: int = _key(_integer(1), DEFAULT_CELL_CAP)
    node_cap: int = _key(_integer(1), DEFAULT_NODE_CAP)
    samples: int = _key(_integer(4), 2000)
    t: Optional[float] = _key(_number)
    eps: Optional[float] = _key(_number)
    D: tuple = _key(_list_of(_pair, 2, exact=True), ((0.0, 1.0), (0.0, 1.0)))
    taus: Optional[Tuple[float, ...]] = _key(_numbers)
    s: Optional[Tuple[float, ...]] = _key(_number_or_list)
    x: Optional[float] = _key(_number)
    interval: Optional[Tuple[float, float]] = _key(_pair)
    only_full: bool = _key(_boolean, False)
    shape: Optional[tuple] = _key(_list_of(_pair, 3))
    depths: Tuple[int, ...] = _key(_list_of(_integer(1)), DEFAULT_DEPTHS)
    columns: Optional[tuple] = _key(_matrix)
    raw: dict = dataclasses.field(default_factory=dict)


_PARSERS = {f.name: f.metadata["parse"]
            for f in dataclasses.fields(RunConfig) if "parse" in f.metadata}
_TOP_KEYS = set(_PARSERS)


def _load(text: str) -> dict:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integers past the str -> int digit
        # limit, and nesting past the recursion limit
        _fail(f"config is not valid JSON: {exc}")
    return _object(data, "config")


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document; unknown keys rejected."""
    return validate_config(_load(text))


def validate_config(data: dict) -> RunConfig:
    """RunConfig from a decoded config object, each key read by the
    parser its RunConfig field declares."""
    cfg = RunConfig(**_fields(data, {}, _PARSERS, "config"), raw=data)
    if cfg.n_min is not None and cfg.n_max is not None and \
            cfg.n_min > cfg.n_max:
        _fail(f"need n_min <= n_max, got [{cfg.n_min}, {cfg.n_max}]")
    return cfg


_SHAPE_KEYS = {"origin": _numbers, "columns": _matrix}


def _shape(v, what: str) -> Parallelepiped:
    keys = _fields(v, _SHAPE_KEYS, {}, what)
    return Parallelepiped(keys["origin"], np.column_stack(keys["columns"]))


def _load_table(d: int, path: str) -> ExplicitTargets:
    """Per-level targets from CSV rows: n, origin (d), columns
    column-major (d*d)."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
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


_TARGETS = {
    # kind: (builder(dimension, **keys), required keys, optional keys)
    "axis": (lambda d, **keys: AxisFamily(**keys),
             {"exponents": _numbers}, {"origin": _numbers}),
    "rotated2d": (lambda d, **keys: Rotated2DFamily(**keys),
                  {"theta": _string},
                  {"theta_value": _number, "a": _number,
                   "exponents": _numbers}),
    "explicit": (lambda d, **keys: ExplicitTargets(**keys),
                 {"shapes": _list_of(_shape)}, {}),
    "table": (_load_table, {"path": _string}, {}),
}


def make_target_spec(cfg: RunConfig) -> TargetSpec:
    """TargetSpec from the 'betas' and 'target' config sections."""
    system = BetaSystem(_need(cfg.betas, "betas"))
    target = dict(_need(cfg.target, "target"))
    kind = _choice(*_TARGETS)(target.pop("kind", None), "target key 'kind'")
    build, required, optional = _TARGETS[kind]
    keys = _fields(target, required, optional, f"{kind} target")
    return TargetSpec(system, build(system.dimension, **keys))


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
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj: dict, sha: str) -> None:
    payload = dict(obj)
    payload["config_sha256"] = sha
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ScaleRangeError(
            f"{path.name} would hold a non-finite value ({exc}): the float "
            "values overflow on this input", module=_MODULE)
    _write(path, text + "\n")


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        _fail(f"cannot write {str(path)!r}: {exc}")


def _need(value, key: str):
    if value is None:
        _fail(f"missing config key {key!r}")
    return value


def _cmd_expand(cfg: RunConfig, out: Path, sha: str) -> int:
    beta = _need(cfg.betas, "betas")[0]
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
    beta = _need(cfg.betas, "betas")[0]
    n = _need(cfg.n, "n")
    within = Interval(*cfg.interval) if cfg.interval is not None else None
    rows = []
    for node in enumerate_cylinders(beta, n, only_full=cfg.only_full,
                                    within=within, node_cap=cfg.node_cap):
        rows.append(("".join(str(d) for d in node.word), n,
                     float(node.left), float(node.length),
                     1 if node.full else 0))
    _write_csv(out / "cylinders.csv",
               ("word", "level", "left", "length", "full"), rows, sha)
    print(f"wrote {out / 'cylinders.csv'}")
    return 0


def _cmd_count(cfg: RunConfig, out: Path, sha: str) -> int:
    beta = _need(cfg.betas, "betas")[0]
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
    matrix = np.column_stack(cols)
    frame = pivoted_orthogonalize(matrix)
    norms = frame.norms.tolist()
    # values that overflow are refused by _write_json
    with np.errstate(over="ignore", invalid="ignore"):
        recon = frame.gammas @ frame.U
        err = float(np.max(np.abs(
            matrix[:, np.asarray(frame.permutation) - 1] - recon)))
    payload = {
        "permutation": list(frame.permutation),
        "gamma_norms": norms,
        "gamma_log2": list(frame.log2_norms),
        "gammas": frame.gammas.T.tolist(),
        "U": frame.U.tolist(),
        "volume": math.prod(norms),
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
    rows = []
    for s in exponents:
        est = brute_force_content_2d(np.asarray(shape, dtype=float),
                                     float(s), depths=cfg.depths)
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
    s = cfg.s[0] if cfg.s is not None else None
    rows = []
    for n in range(n_min, n_max + 1):
        scan = cover_exponent_scan(spec, n, taus=cfg.taus, s=s,
                                   copy_cap=cfg.copy_cap,
                                   cell_cap=cfg.cell_cap)
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
    rows = []
    for n in range(n_min, n_max + 1):
        t = cfg.t if cfg.t is not None else s_n(spec, n).s_n - 0.1
        M = build_measure(spec, n, cfg.D, t, eps=cfg.eps,
                          copy_cap=cfg.copy_cap)
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        _fail(f"cannot create output directory {cfg.out!r}: {exc}")
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


_FLAGS = {
    # subcommand (None: all of them) -> (flag, type, config key) overrides
    None: (("--out", str, "out"), ("--seed", int, "seed")),
    "count": (("--beta", float, "betas"), ("--n", int, "n")),
    "dimension": (("--nmin", int, "n_min"), ("--nmax", int, "n_max"),
                  ("--window", int, "window")),
}


def _flags(subcommand: str):
    return _FLAGS[None] + _FLAGS.get(subcommand, ())


def _build_parser() -> argparse.ArgumentParser:
    parser = _QuietParser(prog="beta-targets", description=(
        "shrinking-target toolkit: expansions, covering counts, and the "
        "dimension formula"))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        for flag, kind, key in _flags(name):
            p.add_argument(flag, type=kind, dest=key,
                           metavar=flag.lstrip("-").upper())
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
        data = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except (OSError, ValueError) as exc:
                _fail(f"cannot read config {args.config!r}: {exc}")
            data = _load(text)
        for _, _, key in _flags(args.subcommand):
            value = getattr(args, key)
            if value is not None:
                # --beta names the one base of a 1-D system
                data[key] = [value] if key == "betas" else value
        return run(args.subcommand, validate_config(data))
    except BetaTargetsError as exc:
        _emit_error(exc.code, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
