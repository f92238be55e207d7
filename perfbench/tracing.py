"""Span tracing of the library's layers, installed from the benchmark.

``Tracer.install`` replaces every public function of each library
module with a wrapper that records a span, at every import site: the
defining module, every other library module that imported the function
by name, and the package namespace.  Nothing under ``src/`` changes, and
an untraced run never installs anything.

A span records its name, start, end, parent span and job id.  Spans stay
in memory, in flat arrays, and are written out when the run ends.  A
layer's self time is its span time minus the time of its child spans.

Two spans need more than a call boundary:

* ``enumerate_cylinders`` returns a lazy walk on the float route; the
  wrapper hands back a proxy iterator, and every ``next()`` on it is
  timed into one ``beta_dynamics.enumerate_cylinders.walk`` span whose
  parent is the span that consumed it.  Its busy time is the sum of the
  ``next()`` calls, not its end minus its start.
* ``numpy.linalg`` calls are counted, not spanned, when the innermost
  open span is an orthogonalisation frame.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from typing import Dict

import numpy as np

MODULES = ("cli_io", "dimension_engine", "parallelepiped_geometry",
           "beta_dynamics", "polygons", "numerical_lab", "hausdorff_content")

_FRAMES = ("parallelepiped_geometry.pivoted_orthogonalize_scaled",
           "parallelepiped_geometry.pivoted_orthogonalize")
_WALK = "beta_dynamics.enumerate_cylinders.walk"

# span tags: the route a call took
_EXACT, _LIMIT, _FLOAT, _MP = 0, 1, 0, 1


def _s_n_tag(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return _LIMIT if mode == "limit" else _EXACT


def _route_tag(args, kwargs):
    beta = args[0] if args else kwargs.get("beta")
    return _MP if getattr(beta, "dps", None) is not None else _FLOAT


_TAGGERS = {
    "dimension_engine.s_n": _s_n_tag,
    "beta_dynamics.enumerate_cylinders": _route_tag,
}


def _level_arg(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["n"])


class Tracer:
    """Records spans and layer counters for one traced run."""

    def __init__(self):
        self.names = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.tag = array("l")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()
        self.errors = defaultdict(Counter)
        self.cover_peak_bytes = 0
        self._restore = []
        self._frame_ids = set()

    # -------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, tag: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.tag.append(tag)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.busy.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self.busy[idx] = t - self.start[idx]
        self.stack.pop()

    def _error(self, module: str, idx: int, exc: BaseException) -> None:
        """Count an exception once per layer it leaves."""
        parent = self.parent[idx]
        if parent < 0 or not self.names[self.name[parent]].startswith(
                module + "."):
            code = getattr(exc, "code", None) or type(exc).__name__
            self.errors[module][code] += 1

    # ------------------------------------------------------------ wrappers

    def _wrap(self, module: str, fname: str, fn):
        full = f"{module}.{fname}"
        nid = self._id(full)
        tagger = _TAGGERS.get(full)
        after = getattr(self, "_after_" + fname, None)
        cover = full == "numerical_lab.empirical_cover_count"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else 0
            if cover:
                tracemalloc.start()
            idx = self._open(nid, tag)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if cover:
                    tracemalloc.stop()
                self._error(module, idx, exc)
                raise
            self._close(idx)
            if cover:
                self.cover_peak_bytes = max(self.cover_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if after is not None:
                result = after(idx, tag, args, kwargs, result)
            return result

        return traced

    def _after_enumerate_cylinders(self, idx, tag, args, kwargs, result):
        return self._walk_proxy(iter(result), tag)

    def _walk_proxy(self, it, tag):
        nid = self._id(_WALK)
        busy = 0.0
        leaves = 0
        first = last = None
        parent = -1
        try:
            while True:
                t0 = time.perf_counter()
                if first is None:
                    first = t0
                    parent = self.stack[-1] if self.stack else -1
                try:
                    node = next(it)
                except StopIteration:
                    last = time.perf_counter()
                    busy += last - t0
                    return
                last = time.perf_counter()
                busy += last - t0
                leaves += 1
                yield node
        finally:
            if first is not None:
                self.name.append(nid)
                self.tag.append(tag)
                self.parent.append(parent)
                self.job.append(self.job_id)
                self.start.append(first)
                self.end.append(last if last is not None else first)
                self.busy.append(busy)
            self.counts["leaves_mp" if tag == _MP else "leaves"] += leaves

    def _after_count_admissible(self, idx, tag, args, kwargs, result):
        self.counts["count_levels"] += _level_arg(args, kwargs)
        return result

    _after_count_full = _after_count_admissible

    def _after_build_E_n(self, idx, tag, args, kwargs, result):
        self.counts["copies"] += result.copy_count
        return result

    def _after_empirical_cover_count(self, idx, tag, args, kwargs, result):
        self.counts["occupied_cells"] += int(result)
        return result

    def _after_clip_to_box(self, idx, tag, args, kwargs, result):
        self.counts["clips"] += 1
        if result.shape[0] < 3:
            self.counts["clips_empty"] += 1
        return result

    _after_clip_convex = _after_clip_to_box

    def _linalg(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] in self._frame_ids:
                self.counts["linalg_in_frames"] += 1
                self.counts["linalg." + name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        mods = {m: importlib.import_module(f"beta_targets.{m}")
                for m in MODULES}
        sites = list(mods.values()) + [importlib.import_module(
            "beta_targets")]
        wrapped = {}
        for m, mod in mods.items():
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or \
                        fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(m, fname, fn))
        for site in sites:
            for attr, value in list(vars(site).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((site, attr, value))
                    setattr(site, attr, wrapped[id(value)][1])
        self._frame_ids = {self._id(n) for n in _FRAMES}
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not inspect.isclass(fn):
                self._restore.append((np.linalg, name, fn))
                setattr(np.linalg, name, self._linalg(name, fn))

    def uninstall(self) -> None:
        for site, attr, value in reversed(self._restore):
            setattr(site, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        """Span columns as numpy arrays, plus each span's self time."""
        cols = {
            "name": np.array(self.name, dtype=np.int64),
            "tag": np.array(self.tag, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "busy": np.array(self.busy, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
        }
        child = np.zeros(len(cols["name"]))
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], cols["busy"][has_parent])
        cols["self"] = cols["busy"] - child
        return cols

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name (value, unit), from spans and counters.

        ``ns_per_*`` figures divide a kernel's inclusive span time by its
        units of work; ``self_s`` figures exclude child spans.
        """
        cols = self.arrays()
        names = np.array(self.names, dtype=str)[cols["name"]]
        c = self.counts

        def sel(name, tag=None):
            mask = names == name
            if tag is not None:
                mask &= cols["tag"] == tag
            return mask

        def calls(name, tag=None):
            return int(np.count_nonzero(sel(name, tag)))

        def incl(name, tag=None):
            return float(np.sum(cols["busy"][sel(name, tag)]))

        def self_s(name, tag=None):
            return float(np.sum(cols["self"][sel(name, tag)]))

        def module_self(module):
            mask = np.char.startswith(names, module + ".")
            return float(np.sum(cols["self"][mask])), \
                int(np.count_nonzero(mask))

        def per(num, den, scale=1e9):
            return num * scale / den if den else 0.0

        def errors(module):
            return int(sum(self.errors[module].values()))

        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        cli_self, _ = module_self("cli_io")
        top_main = sel("cli_io.main") & (cols["parent"] < 0)
        put("cli_io.jobs", int(np.count_nonzero(top_main)), "count")
        put("cli_io.self_s", cli_self, "s")
        put("cli_io.artifact_bytes", c["artifact_bytes"], "B")
        put("cli_io.ns_per_artifact_byte", per(cli_self, c["artifact_bytes"]),
            "ns/B")
        put("cli_io.error_exits", c["error_exits"], "count")
        put("cli_io.leaked_exceptions", c["leaked_exceptions"], "count")

        de = "dimension_engine."
        put(de + "s_star.calls", calls(de + "s_star"), "count")
        put(de + "s_n.calls", calls(de + "s_n"), "count")
        put(de + "s_n.self_s", self_s(de + "s_n"), "s")
        put(de + "gamma_magnitudes.self_s", self_s(de + "gamma_magnitudes"),
            "s")
        put(de + "log_columns.self_s", self_s(de + "log_columns"), "s")
        put(de + "ns_per_exact_level",
            per(incl(de + "s_n", _EXACT), calls(de + "s_n", _EXACT)), "ns")
        put(de + "ns_per_limit_level",
            per(incl(de + "s_n", _LIMIT), calls(de + "s_n", _LIMIT)), "ns")
        put(de + "errors", errors("dimension_engine"), "count")

        pg = "parallelepiped_geometry."
        frames = calls(pg + "pivoted_orthogonalize_scaled")
        put(pg + "pivoted_orthogonalize_scaled.calls", frames, "count")
        put(pg + "pivoted_orthogonalize_scaled.self_s",
            self_s(pg + "pivoted_orthogonalize_scaled"), "s")
        put(pg + "ns_per_frame",
            per(incl(pg + "pivoted_orthogonalize_scaled"), frames), "ns")
        all_frames = frames + calls(pg + "pivoted_orthogonalize")
        put(pg + "linalg_calls_per_frame",
            per(c["linalg_in_frames"], all_frames, 1.0), "count")
        put(pg + "errors", errors("parallelepiped_geometry"), "count")
        put(pg + "scale_by_f.calls", calls(pg + "scale_by_f"), "count")

        bd = "beta_dynamics."
        enum = bd + "enumerate_cylinders"
        walk_float = self_s(enum, _FLOAT) + incl(_WALK, _FLOAT)
        walk_mp = self_s(enum, _MP) + incl(_WALK, _MP)
        counts = calls(bd + "count_admissible") + calls(bd + "count_full")
        count_time = incl(bd + "count_admissible") + incl(bd + "count_full")
        put(enum + ".calls", calls(enum), "count")
        put(bd + "leaves", c["leaves"] + c["leaves_mp"], "count")
        put(bd + "walk_self_s", walk_float + walk_mp, "s")
        put(bd + "ns_per_leaf", per(walk_float, c["leaves"]), "ns")
        put(bd + "ns_per_mp_leaf", per(walk_mp, c["leaves_mp"]), "ns")
        put(bd + "count_calls", counts, "count")
        put(bd + "count_levels", c["count_levels"], "count")
        put(bd + "ns_per_count_level", per(count_time, c["count_levels"]),
            "ns")
        put(bd + "count_mismatches", c["count_mismatches"], "count")
        put(bd + "errors", errors("beta_dynamics"), "count")

        poly_self, poly_calls = module_self("polygons")
        put("polygons.calls", poly_calls, "count")
        put("polygons.self_s", poly_self, "s")
        put("polygons.ns_per_call", per(poly_self, poly_calls), "ns")
        put("polygons.clip_empty_ratio",
            per(c["clips_empty"], c["clips"], 1.0), "ratio")

        nl = "numerical_lab."
        cover = nl + "empirical_cover_count"
        balls = calls(nl + "mu_ball_mass")
        ball_parent = cols["parent"][sel("polygons.clip_to_box")]
        ball_ids = np.flatnonzero(sel(nl + "mu_ball_mass"))
        straddlers = int(np.count_nonzero(np.isin(ball_parent, ball_ids)))
        put(nl + "build_E_n.calls", calls(nl + "build_E_n"), "count")
        put(nl + "copies", c["copies"], "count")
        put(nl + "build_E_n.self_s", self_s(nl + "build_E_n"), "s")
        put(cover + ".calls", calls(cover), "count")
        put(cover + ".self_s", self_s(cover), "s")
        put(nl + "occupied_cells", c["occupied_cells"], "count")
        put(nl + "ns_per_occupied_cell",
            per(incl(cover), c["occupied_cells"]), "ns")
        put(nl + "cover_peak_alloc_mb", self.cover_peak_bytes / 2.0 ** 20,
            "MB")
        put(nl + "mu_ball_mass.calls", balls, "count")
        put(nl + "mu_ball_mass.self_s", self_s(nl + "mu_ball_mass"), "s")
        put(nl + "ns_per_ball", per(incl(nl + "mu_ball_mass"), balls), "ns")
        put(nl + "straddlers_per_ball", per(straddlers, balls, 1.0), "ratio")

        hc = "hausdorff_content."
        evals = calls(hc + "brute_force_content_2d")
        put(hc + "brute_force_content_2d.calls", evals, "count")
        put(hc + "brute_force_content_2d.self_s",
            self_s(hc + "brute_force_content_2d"), "s")
        put(hc + "ns_per_eval", per(incl(hc + "brute_force_content_2d"),
                                    evals), "ns")
        put(hc + "mdp_lower_bound.calls", calls(hc + "mdp_lower_bound"),
            "count")
        put("trace.spans", len(cols["name"]), "count")
        return out

    def breakdown(self) -> dict:
        """The grouped counts behind the error and linalg totals."""
        return {
            "errors_by_code": {m: dict(v) for m, v in self.errors.items()},
            "linalg_in_frames_by_function": {
                k[len("linalg."):]: v for k, v in self.counts.items()
                if k.startswith("linalg.")},
        }
