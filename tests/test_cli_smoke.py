"""End-to-end runs of the command line, one fresh process per command.

Each test runs ``python -m beta_targets.cli_io`` in a subprocess, the way
the installed ``beta-targets`` script runs ``main``, so warnings, exit
codes and stderr are seen as a shell sees them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

README_DIMENSION = {
    "betas": [2, 4],
    "target": {"kind": "rotated2d", "theta": "const",
               "theta_value": 0.7853981633974483},
    "n_min": 1, "n_max": 60, "window": 20, "mode": "limit",
}
ARCCOS = {
    "betas": [2, 4],
    "target": {"kind": "rotated2d", "theta": "arccos_pow2", "a": 0.5},
    "n_min": 1, "n_max": 40, "mode": "limit",
}
TRIANGLE = [[0.1, 0.1], [0.7, 0.2], [0.3, 0.8]]
STAR = [[0.277, 0.389], [0.333, 0.143], [0.417, 0.261], [0.9, 0.255],
        [0.791, 0.6], [0.429, 0.621], [0.447, 0.466], [0.212, 0.486]]
TABLE = ["n,o1,o2,o3,m1,m2,m3,m4,m5,m6,m7,m8,m9",
         "1,0.4,0.4,0.4,0.08,0.01,-0.02,0,0.06,0.03,0,0,0.05",
         "2,0.4,0.4,0.4,0.07,-0.01,0.02,0,0.09,-0.03,0,0,0.04",
         "3,0.4,0.4,0.4,0.05,0.02,0.01,0,0.08,0.01,0,0,0.06"]


def cli(*args, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "beta_targets.cli_io", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout)


def runs(*args, timeout=120) -> str:
    """The command exits 0; its stdout, without the final newline."""
    proc = cli(*args, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.rstrip("\n")


def refuses(*args) -> None:
    """The command exits 2 with exactly one JSON error line on stderr."""
    proc = cli(*args)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"]


def config(tmp_path, name, data) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def data_rows(path: Path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


def s_star(out: Path) -> float:
    """s_star of a dimension.csv, from its trailing summary line."""
    last = (out / "dimension.csv").read_text().splitlines()[-1]
    return float(last.split("s_star=")[1].split(",")[0])


def test_count(tmp_path):
    assert runs("count", "--beta", 2, "--n", 5, "--out", tmp_path) == "32"


def test_count_near_one_is_quick(tmp_path):
    runs("count", "--beta", 1.0001, "--n", 5, "--out", tmp_path, timeout=20)


def test_unknown_flag_refused(tmp_path):
    refuses("count", "--bogus", 1)


def test_readme_dimension_example(tmp_path):
    # the artifact, its summary line, and no temporary file left beside it
    out = tmp_path / "dim"
    path = config(tmp_path, "run", README_DIMENSION)
    assert runs("dimension", "--config", path, "--out", out) == \
        f"wrote {out / 'dimension.csv'}"
    lines = (out / "dimension.csv").read_text().splitlines()
    assert lines[-1] == "# s_star=1.25,converged=true"
    assert not list(out.rglob("*.part"))


def test_rotated2d_rule_takes_its_own_key(tmp_path):
    path = config(tmp_path, "const-a", {
        "betas": [2, 4], "target": {"kind": "rotated2d", "theta": "const",
                                    "theta_value": 0.3, "a": 7},
        "n_min": 1, "n_max": 1})
    refuses("dimension", "--config", path, "--out", tmp_path / "const-a")


def test_content_row_per_exponent(tmp_path):
    out = tmp_path / "content"
    path = config(tmp_path, "content", {"shape": TRIANGLE, "s": [0.5, 1, 2]})
    runs("content", "--config", path, "--out", out)
    assert len(data_rows(out / "content.csv")) == 4  # header and 3 rows


@pytest.mark.parametrize("shape", [
    TRIANGLE, [[0.8, 0.8], [1.3, 0.8], [1.3, 0.9], [0.8, 0.9]],
], ids=["inside", "outside"])
def test_content_bad_later_exponent_refused(tmp_path, shape):
    path = config(tmp_path, "content-s", {"shape": shape, "s": [1.0, 3.0]})
    refuses("content", "--config", path, "--out", tmp_path / "content-s")


def test_content_subnormal_width(tmp_path):
    # h / side overflows for the meshes of side 1e-320 / j: no cover, left
    # out, and the run writes its row instead of a traceback
    out = tmp_path / "subnormal"
    path = config(tmp_path, "subnormal", {
        "shape": [[0, 0.1], [1e-320, 0.1], [0, 0.9]], "s": [1]})
    runs("content", "--config", path, "--out", out)
    (row,) = data_rows(out / "content.csv")[1:]
    s, lower, upper = map(float, row.split(","))
    assert s == 1.0 and 0.0 <= lower <= upper


def test_content_non_convex_star_refused(tmp_path):
    path = config(tmp_path, "star", {"shape": STAR, "s": [0.5]})
    refuses("content", "--config", path, "--out", tmp_path / "star")


def test_verify_measure_single_copy_rerun(tmp_path):
    # a single copy, whose integer draws take no bits: the same seed gives
    # the same bytes, one row per regime
    out = tmp_path / "single"
    path = config(tmp_path, "single", {
        "betas": [3, 3], "target": {"kind": "axis", "exponents": [1, 1]},
        "n_min": 1, "n_max": 1, "D": [[0, 0.5], [0, 0.5]],
        "samples": 2001, "seed": 5})
    runs("verify-measure", "--config", path, "--out", out)
    first = (out / "verify_measure.csv").read_bytes()
    runs("verify-measure", "--config", path, "--out", out)
    assert (out / "verify_measure.csv").read_bytes() == first
    assert len(data_rows(out / "verify_measure.csv")) == 1 + 4


def test_arccos_limit_meets_closed_form(tmp_path):
    # arccos_pow2 in limit mode meets its closed form 1 + (1 - a)/(4 - a)
    path = config(tmp_path, "arccos", ARCCOS)
    runs("dimension", "--config", path, "--out", tmp_path / "arccos")
    assert abs(s_star(tmp_path / "arccos") - (1 + 0.5 / 3.5)) <= 1e-9


def test_arccos_exact_at_level_10_307(tmp_path):
    # within the frame's float range
    path = config(tmp_path, "arccos-exact", {**ARCCOS, "mode": "exact"})
    huge = 10 ** 307
    runs("dimension", "--config", path, "--nmin", huge, "--nmax", huge,
         "--out", tmp_path / "arccos-huge")


def test_axis_3d_modes_agree(tmp_path):
    stars = []
    for mode in ("exact", "limit"):
        path = config(tmp_path, f"axis3-{mode}", {
            "betas": [2, 3, 1.618],
            "target": {"kind": "axis", "exponents": [0.5, 1, 2]},
            "n_min": 1, "n_max": 30, "mode": mode})
        runs("dimension", "--config", path, "--out", tmp_path / mode)
        stars.append(s_star(tmp_path / mode))
    assert abs(stars[0] - stars[1]) <= 1e-9, stars


def test_3d_table_target(tmp_path):
    # a three-row table runs; a singular row anywhere in the table is
    # refused, even at a level that does not read it
    table = tmp_path / "table.csv"
    table.write_text("\n".join(TABLE) + "\n")
    path = config(tmp_path, "table", {
        "betas": [2, 2.5, 3], "target": {"kind": "table", "path": str(table)},
        "n_min": 1, "n_max": 3})
    runs("dimension", "--config", path, "--out", tmp_path / "table")
    assert len(data_rows(tmp_path / "table" / "dimension.csv")) == 4
    singular = tmp_path / "singular.csv"
    singular.write_text("\n".join(
        TABLE[:3] + ["3,0.4,0.4,0.4,0.1,0,0,0,0.1,0,0.1,0.1,1e-15"]) + "\n")
    path = config(tmp_path, "singular", {
        "betas": [2, 2.5, 3],
        "target": {"kind": "table", "path": str(singular)},
        "n_min": 1, "n_max": 3})
    refuses("dimension", "--config", path, "--nmin", 1, "--nmax", 1,
            "--out", tmp_path / "singular")


def test_level_past_float_range_refused(tmp_path):
    path = config(tmp_path, "run", README_DIMENSION)
    big = 10 ** 309
    refuses("dimension", "--config", path, "--nmin", big, "--nmax", big,
            "--out", tmp_path / "big")
