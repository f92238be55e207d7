"""Config parsing, subcommand dispatch, and artifact output.

One JSON config drives every subcommand; unknown keys are rejected by
name so typos fail loudly instead of silently using a default.  Each
key is read by the typed converter that its RunConfig field, or its
target kind in _TARGETS, declares; range checks the library already
makes (exponents, levels) stay there.  Tabular results go
to CSV (header row plus a comment line with the config hash),
structured results to JSON.  Outputs are byte-identical for identical
config and seed: floats are written with repr and nothing records
wall-clock state.  A rerun rewrites the artifact in place, in the same
file, and a write that fails leaves it empty; only the streamed
cylinders.csv goes through a .part sibling, which keeps the old
artifact if the walk is refused midway.

Exponentially small quantities appear in output columns as log2 values;
plain magnitudes would flush to zero long before the interesting range.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .beta_dynamics import (
    DEFAULT_NODE_CAP,
    Interval,
    count_words,
    cylinder_blocks,
    digits,
    transform,
)
from .dimension_engine import (
    ExplicitTargets,
    Rotated2DFamily,
    TargetSpec,
    _linear_family,
    s_n,
    s_star,
)
from .errors import (
    BetaTargetsError,
    ConfigError,
    DomainError,
    ResourceLimitError,
    ScaleRangeError,
)
from .hausdorff_content import DEFAULT_DEPTHS, content_estimates_2d
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
    _parallelepipeds,
    _rotation_rows,
    bounding_hyperrectangle,
    pivoted_orthogonalize,
)

__all__ = ["RunConfig", "run", "main"]

_MODULE = "cli_io"


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


def _keys(what: str, required: dict, optional: dict) -> tuple:
    """The key table of an object for _fields: `what` names the object,
    then the required keys, then every key's parser and the name of its
    value, required keys first, each group in the order declared."""
    return what, tuple(required), {
        k: (parse, f"{what} key {k!r}")
        for k, parse in {**required, **optional}.items()}


def _fields(obj, keys: tuple) -> dict:
    """Parsed keys of an object, each through its parser in the key
    table; unknown and missing keys are refused by name.  Refusals
    follow the table's order, not the object's."""
    what, required, parsers = keys
    _object(obj, what)
    for k in obj:
        if k not in parsers:
            _fail(f"unknown {what} key {k!r}")
    for k in required:
        if k not in obj:
            _fail(f"{what} needs {k!r}")
    return {k: parse(obj[k], name)
            for k, (parse, name) in parsers.items() if k in obj}


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
_CONFIG_KEYS = _keys("config", {}, _PARSERS)
# every field but raw, at its default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)
             if "parse" in f.metadata}


def _load(text: str) -> dict:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integers past the str -> int digit
        # limit, and nesting past the recursion limit
        _fail(f"config is not valid JSON: {exc}")
    return _object(data, "config")


def validate_config(data: dict) -> RunConfig:
    """RunConfig from a decoded config object, each key read by the
    parser its RunConfig field declares."""
    keys = _fields(data, _CONFIG_KEYS)
    # what RunConfig(**keys, raw=data) builds, without the generated
    # frozen __init__'s one object.__setattr__ per field
    cfg = object.__new__(RunConfig)
    vars(cfg).update(_DEFAULTS, **keys, raw=data)
    if cfg.n_min is not None and cfg.n_max is not None and \
            cfg.n_min > cfg.n_max:
        _fail(f"need n_min <= n_max, got [{cfg.n_min}, {cfg.n_max}]")
    return cfg


_SHAPE_KEYS = {"origin": _numbers, "columns": _matrix}


def _shape(v, what: str) -> Parallelepiped:
    keys = _fields(v, _keys(what, _SHAPE_KEYS, {}))
    return Parallelepiped(keys["origin"], np.column_stack(keys["columns"]))


def _load_table(d: int, path: str) -> ExplicitTargets:
    """Per-level targets from CSV rows: n, origin (d), columns
    column-major (d*d), validated as one stack.  The file is read on
    every call, so an edited table is always seen; its parse is reused
    while the content stays the same."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        _fail(f"cannot read target table {path!r}: {exc}")
    return _parse_table(d, path, text)


@functools.lru_cache(maxsize=1)
def _parse_table(d: int, path: str, text: str) -> ExplicitTargets:
    """The table of _load_table from its text; cached, as a run of
    blocks reads the same table once per job.  The path is in the key
    because refusals name it; a refusal raises and is never cached."""
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
            vals = list(map(float, parts[1:]))
        except ValueError:
            # a header row is allowed once, at the top
            if lineno == 1:
                continue
            _fail(f"target table line {lineno}: non-numeric entry")
        if level in rows:
            _fail(f"target table line {lineno}: level {level} repeated")
        rows[level] = vals
    if not rows:
        _fail(f"target table {path!r} has no data rows")
    if sorted(rows) != list(range(1, len(rows) + 1)):
        _fail("target table levels must be exactly 1..K")
    vals = np.array([rows[level] for level in range(1, len(rows) + 1)])
    # each row's matrix is column-major: a transposed view of the rows,
    # not a C-ordered copy, so that the column norms are summed in the
    # order the rule always used on a table's matrices
    cols = vals[:, d:].reshape(-1, d, d).transpose(0, 2, 1)
    return ExplicitTargets(_parallelepipeds(vals[:, :d], cols))


def _axis(d, exponents, origin=None):
    """The linear family of R = I, with the origin at 0 by default."""
    k = len(exponents)
    return _linear_family(
        tuple(tuple(float(i == j) for j in range(k)) for i in range(k)),
        exponents, (0.0,) * k if origin is None else origin)


def _rotated(d, theta, exponents=(1.0, 1.0), **angle):
    """A constant angle is the linear family of R = _rotation_rows.  Each
    rule takes its own key only: theta_value for "const", a otherwise."""
    own = "theta_value" if theta == "const" else "a"
    for key in angle.keys() - {own}:
        _fail(f"rotated2d target with theta {theta!r} takes no key {key!r}")
    if theta == "const":
        return _linear_family(_rotation_rows(angle.get(own, 0.0)),
                              exponents, (0.5, 0.5))
    return Rotated2DFamily(angle.get(own, 0.0), exponents)


_TARGETS = {
    # kind: (builder(dimension, **keys), required keys, optional keys)
    "axis": (_axis, {"exponents": _numbers}, {"origin": _numbers}),
    "rotated2d": (_rotated, {"theta": _choice("const", "arccos_pow2")},
                  {"theta_value": _number, "a": _number,
                   "exponents": _numbers}),
    "explicit": (lambda d, **keys: ExplicitTargets(**keys),
                 {"shapes": _list_of(_shape)}, {}),
    "table": (_load_table, {"path": _string}, {}),
}


# kind: (builder, key table)
_TARGET_KEYS = {kind: (build, _keys(f"{kind} target", required, optional))
                for kind, (build, required, optional) in _TARGETS.items()}
_target_kind = _choice(*_TARGETS)


def make_target_spec(cfg: RunConfig) -> TargetSpec:
    """TargetSpec from the 'betas' and 'target' config sections."""
    system = BetaSystem(_need(cfg.betas, "betas"))
    target = dict(_need(cfg.target, "target"))
    kind = _target_kind(target.pop("kind", None), "target key 'kind'")
    build, keys = _TARGET_KEYS[kind]
    return TargetSpec(system, build(system.dimension, **_fields(target, keys)))


# json.dumps(obj, sort_keys=True, separators=(",", ":")), with the
# encoder built once
_canonical_json = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


def _config_sha(effective: dict) -> str:
    canon = _canonical_json(effective)
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(v) -> str:
    if type(v) is float:  # most values: skip the checks below
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv(sha: str, header: Sequence[str], rows=(),
         trailing: Sequence[str] = ()) -> str:
    """A CSV artifact: config hash comment, header, rows, then the
    trailing lines as given."""
    lines = [f"# config_sha256={sha}", ",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    lines.extend(trailing)
    lines.append("")
    return "\n".join(lines)


def _write(path: Path, text: str) -> None:
    """Rewrite path in place: open without O_TRUNC, write, then cut the
    old tail.  A file truncated to zero and rewritten is flushed at close
    on ext4 (auto_da_alloc); this rewrite is not.  A failed write leaves
    the file empty, never a new head on an old tail."""
    data = memoryview(text.encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            os.ftruncate(fd, written)
        except OSError:
            os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        _fail(f"cannot write {str(path)!r}: {exc}")


def _stream(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks as they come, through a sibling temporary file
    that replaces path only once every chunk is written: a walk refused
    midway leaves no truncated artifact."""
    part = path.with_name(path.name + ".part")
    try:
        try:
            with part.open("w") as fh:
                fh.writelines(chunks)
            part.replace(path)
        finally:
            part.unlink(missing_ok=True)
    except OSError as exc:
        _fail(f"cannot write {str(path)!r}: {exc}")


def _need(value, key: str):
    if value is None:
        _fail(f"missing config key {key!r}")
    return value


def _cmd_expand(cfg: RunConfig, sha: str) -> str:
    beta = _need(cfg.betas, "betas")[0]
    x = _need(cfg.x, "x")
    n = _need(cfg.n, "n")
    word = digits(beta, x, n)
    rows = []
    point = x
    for step, digit in enumerate(word, 1):
        rows.append((step, digit, point))
        point = transform(beta, point)
    return _csv(sha, ("step", "digit", "point"), rows)


def _cmd_cylinders(cfg: RunConfig, sha: str) -> Iterable[str]:
    beta = _need(cfg.betas, "betas")[0]
    n = _need(cfg.n, "n")
    within = Interval(*cfg.interval) if cfg.interval is not None else None
    blocks = cylinder_blocks(beta, n, only_full=cfg.only_full, within=within,
                             node_cap=cfg.node_cap)
    head = _csv(sha, ("word", "level", "left", "length", "full"))
    return itertools.chain([head], (_cylinder_rows(b, n) for b in blocks))


def _cylinder_rows(block, n: int) -> str:
    """A block's rows of cylinders.csv.  Its lengths take one value per
    orbit state, so each (length, full) row tail is formatted once."""
    lengths, which = np.unique(block.lengths, return_inverse=True)
    tails = np.array([[f",{x!r},0\n", f",{x!r},1\n"]
                      for x in lengths.tolist()], dtype=object)
    level = f",{n},"
    return "".join([f"{w}{level}{left!r}{tail}" for w, left, tail in zip(
        _word_column(block.words), block.lefts.tolist(),
        tails[which, block.full.view(np.uint8)].tolist())])


def _word_column(words: np.ndarray) -> list:
    """Each row of a digit matrix as its digits written one after another:
    one string view of the character codes when every digit is one
    character."""
    if words.max() <= 9:
        codes = words.astype(np.uint32) + ord("0")
        return codes.view(f"<U{words.shape[1]}").ravel().tolist()
    return ["".join(map(str, w)) for w in words.tolist()]


def _unprintable(beta: float, n: int, limit: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"the count for beta={beta}, n={n} has more than {limit} decimal "
        "digits, the interpreter's int-to-str limit", module=_MODULE)


def _cmd_count(cfg: RunConfig, sha: str) -> Tuple[str, str]:
    beta = _need(cfg.betas, "betas")[0]
    n = _need(cfg.n, "n")
    # printing an int with more digits than this raises ValueError
    limit = sys.get_int_max_str_digits()
    # Renyi: the count is at least beta**n, so a level whose bound alone
    # passes the limit is refused before counting
    if limit and n > (limit + 1) / math.log10(beta):
        raise _unprintable(beta, n, limit)
    admissible, full = count_words(beta, n, node_cap=cfg.node_cap)
    if limit and admissible >= 10 ** limit:
        raise _unprintable(beta, n, limit)
    return _csv(sha, ("beta", "n", "admissible", "full"),
                [(beta, n, admissible, full)]), str(admissible)


def _cmd_ortho(cfg: RunConfig, sha: str) -> str:
    cols = _need(cfg.columns, "columns")
    matrix = np.column_stack(cols)
    frame = pivoted_orthogonalize(matrix)
    norms = frame.norms.tolist()
    # values that overflow are refused by the encoding below
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
        "config_sha256": sha,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ScaleRangeError(
            f"ortho.json would hold a non-finite value ({exc}): the float "
            "values overflow on this input", module=_MODULE)
    # after the encoding, so that its refusals keep their codes
    bounding_hyperrectangle(frame)
    return text + "\n"


def _cmd_content(cfg: RunConfig, sha: str) -> str:
    shape = _need(cfg.shape, "shape")
    exponents = _need(cfg.s, "s")
    estimates = content_estimates_2d(np.asarray(shape, dtype=float),
                                     exponents, depths=cfg.depths)
    rows = [(float(s), est.lower, est.upper)
            for s, est in zip(exponents, estimates)]
    return _csv(sha, ("s", "lower", "upper"), rows)


def _cmd_dimension(cfg: RunConfig, sha: str) -> str:
    spec = make_target_spec(cfg)
    n_min = _need(cfg.n_min, "n_min")
    n_max = _need(cfg.n_max, "n_max")
    window = min(cfg.window, n_max - n_min + 1)
    report = s_star(spec, n_min, n_max, window=window,
                    tolerance=cfg.tolerance, mode=cfg.mode)
    d = spec.dimension
    header = ["n"] + [f"gamma_log2_{i + 1}" for i in range(d)] + \
        ["s_n", "argmin_tau_log2"]
    # an int n and Python floats: %d and %r write what _fmt writes
    row = "%d" + ",%r" * (d + 2)
    lines = [row % (lv.n, *lv.gamma_log2, lv.s_n, lv.argmin_tau_log2)
             for lv in report.levels]
    lines.append(f"# s_star={report.s_star!r},"
                 f"converged={'true' if report.converged else 'false'}")
    return _csv(sha, header, trailing=lines)


def _cmd_verify_cover(cfg: RunConfig, sha: str) -> str:
    spec = make_target_spec(cfg)
    n_min = _need(cfg.n_min, "n_min")
    n_max = _need(cfg.n_max, "n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        scan = cover_exponent_scan(spec, n, taus=cfg.taus,
                                   copy_cap=cfg.copy_cap,
                                   cell_cap=cfg.cell_cap)
        for row in scan.rows:
            rows.append((n, row.tau, row.count, row.predicted, row.ratio))
    return _csv(sha, ("n", "tau", "measured", "formula", "ratio"), rows)


def _cmd_verify_measure(cfg: RunConfig, sha: str) -> str:
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
    return _csv(sha, ("n", "regime", "measured", "formula", "ratio"), rows)


_COMMON_FLAGS = (("--out", str, "out"),)

_SUBCOMMANDS = {
    # name: (handler(cfg, sha), artifact file name, (flag, type, config
    # key) overrides besides _COMMON_FLAGS); a handler returns the
    # artifact's text, its lazy chunks, or (text, line printed instead of
    # "wrote <path>")
    "expand": (_cmd_expand, "expand.csv", ()),
    "cylinders": (_cmd_cylinders, "cylinders.csv", ()),
    "count": (_cmd_count, "count.csv",
              (("--beta", float, "betas"), ("--n", int, "n"))),
    "ortho": (_cmd_ortho, "ortho.json", ()),
    "content": (_cmd_content, "content.csv", ()),
    "dimension": (_cmd_dimension, "dimension.csv",
                  (("--nmin", int, "n_min"), ("--nmax", int, "n_max"),
                   ("--window", int, "window"))),
    "verify-cover": (_cmd_verify_cover, "verify_cover.csv", ()),
    "verify-measure": (_cmd_verify_measure, "verify_measure.csv",
                       (("--seed", int, "seed"),)),
}


def run(subcommand: str, cfg: RunConfig) -> int:
    """Dispatch a validated config; the artifact lands in cfg.out."""
    if subcommand not in _SUBCOMMANDS:
        _fail(f"unknown subcommand {subcommand!r}")
    # most jobs reuse --out: a stat costs less than a mkdir that fails
    if not os.path.isdir(cfg.out):
        try:
            Path(cfg.out).mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:
            _fail(f"cannot create output directory {cfg.out!r}: {exc}")
    handler, name, _ = _SUBCOMMANDS[subcommand]
    path = Path(cfg.out, name)
    body = handler(cfg, _config_sha(cfg.raw))
    body, line = body if isinstance(body, tuple) else (body, f"wrote {path}")
    # only lazy chunks can fail midway, so only they pay for .part
    (_write if isinstance(body, str) else _stream)(path, body)
    print(line)
    return 0


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}),
          file=sys.stderr)


class _ArgsError(Exception):
    pass


class _QuietParser(argparse.ArgumentParser):
    # keep stderr machine-readable: no usage dump, just the JSON error
    def error(self, message):
        raise _ArgsError(message)


def _flags(subcommand: str):
    return _COMMON_FLAGS + _SUBCOMMANDS[subcommand][2]


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The argument parsers of the process, built on first use: the
    top-level one and each subcommand's by name.  They hold no state
    between parse_args calls, and building them costs some twenty times
    what a parse does."""
    parser = _QuietParser(prog="beta-targets", description=(
        "shrinking-target toolkit: expansions, covering counts, and the "
        "dimension formula"))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name in _SUBCOMMANDS:
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--config")
        for flag, kind, key in _flags(name):
            p.add_argument(flag, type=kind, dest=key,
                           metavar=flag.lstrip("-").upper())
    return parser, parsers


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """argv parsed by the parser of the subcommand it names, which is what
    the top-level parser would hand it, at half the cost; the top-level
    parser reads only an argv that names none (--help, unknown names)."""
    parser, parsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in parsers:
        args = parsers[argv[0]].parse_args(argv[1:])
        args.subcommand = argv[0]
        return args
    return parser.parse_args(argv)


def _read_config(name: str) -> str:
    """The text of the config file, as Path(name).read_text() reads it.
    A name that open() takes names the file that pathlib's spelling of
    it does (pathlib drops only "." parts and repeated or trailing
    slashes), so only a name that open() refuses goes through pathlib,
    whose refusal names the file as pathlib spells it: './/a.json' as
    'a.json', and '' as the directory '.'."""
    try:
        try:
            fh = open(name)
        except OSError:
            fh = Path(name).open()
        with fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        _fail(f"cannot read config {name!r}: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits directly only for --help
        return 0 if exc.code in (0, None) else 2
    except _ArgsError as exc:
        _emit_error("cli_io.config", str(exc))
        return 2
    try:
        data = {}
        if args.config is not None:
            data = _load(_read_config(args.config))
        for _, _, key in _flags(args.subcommand):
            value = getattr(args, key)
            if value is not None:
                # --beta names the one base of a 1-D system
                data[key] = [value] if key == "betas" else value
        return run(args.subcommand, validate_config(data))
    except BetaTargetsError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except MemoryError as exc:
        _emit_error(f"{_MODULE}.resource_limit", f"out of memory: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
