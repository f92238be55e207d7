"""dimension.csv bytes pinned by sha256, and the table loader.

The digests were taken before the pivot scan was planned per dimension
and before target tables were validated as one stack; each is the whole
artifact, config hash line included, of one exact or limit block of a
family the benchmark's `formula` workload runs, or of the README
example.  Each run writes its config and table into the working
directory and leaves `out` unset, so the hashed config holds no
absolute path.

The table loader validates the whole table as one stack: a bad row
outside the requested levels is refused with the code and message the
per-shape loader gave, the first bad row deciding, and a table gives
the same levels as an explicit list of the same shapes.  A process
reuses the last table content it parsed, and reads the file on every
run: an edited table is seen, and a refused one is refused again.
"""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from beta_targets.cli_io import _load_table, _parse_table, main
from beta_targets.dimension_engine import TargetSpec
from beta_targets.parallelepiped_geometry import BetaSystem, Parallelepiped

PHI = (1.0 + math.sqrt(5.0)) / 2.0
TABLE_BETAS = [2.0, 2.5, 3.0]
TABLE_LEVELS = 40


def _rotated(betas, theta_value):
    return {"betas": betas, "target": {
        "kind": "rotated2d", "theta": "const", "theta_value": theta_value}}


def _table_matrix(n: int):
    """Lower triangular, its diagonal in [0.04, 0.1): far from singular
    at every level, with exact decimal entries."""
    return [[(40 + (7 * n + 13 * i) % 60) / 1000.0 if i == j else
             ((11 * n + 5 * i + 3 * j) % 100 - 50) / 1000.0 if i > j else
             0.0 for j in range(3)] for i in range(3)]


def _table_rows(bad=None):
    """CSV rows n, origin (3), columns column-major (9); bad maps a level
    to the (origin, matrix entries) strings that replace its own."""
    lines = ["n,o1,o2,o3," + ",".join(f"m{k}" for k in range(9))]
    for n in range(1, TABLE_LEVELS + 1):
        m = _table_matrix(n)
        entries = [repr(m[i][j]) for j in range(3) for i in range(3)]
        origin = ["0.4"] * 3
        if bad and n in bad:
            origin, entries = bad[n]
        lines.append(",".join([str(n)] + origin + entries))
    return "\n".join(lines) + "\n"


FAMILIES = {
    "rot24": _rotated([2.0, 4.0], 0.6),
    "rot23": _rotated([2.0, 3.0], 0.9),
    "arccos24": {"betas": [2.0, 4.0], "target": {
        "kind": "rotated2d", "theta": "arccos_pow2", "a": 0.7}},
    "axis3d": {"betas": [2.0, 3.0, PHI], "target": {
        "kind": "axis", "exponents": [0.5, 1.2, 1.9]}},
    "table3d": {"betas": TABLE_BETAS, "target": {
        "kind": "table", "path": "table.csv"}},
}

# (family, mode, first level): 20-level blocks; a table has no limit
# rates, so table3d has an exact block only
BLOCKS = {
    ("rot24", "exact", 481):
        "7eb0499559f2c0839797804d9b73faacee2a19f15d76c8a360c8846fbfafe7c5",
    ("rot24", "limit", 481):
        "b78340447434d8331862cc04ba0d8b7b0b87167388411efcef7a129cf68c4e0e",
    ("rot23", "exact", 1201):
        "6267ded06aec9ee191e922ac19f553f324a99c7100bb9d87cbb1ad3cb8acdf93",
    ("rot23", "limit", 1201):
        "4ca5dc5e178f4127333c7531644b984d54becb1d97de338486bd41c171fd5604",
    ("arccos24", "exact", 1901):
        "612460693a16fa12817d27d6777115ef0e715b211c893bb6bf07609d742e66ea",
    ("arccos24", "limit", 1901):
        "25dfa8178a32ae91cd19aa93960289e237b9b0a09672435a3278699f88facc62",
    ("axis3d", "exact", 1501):
        "0a18f5b5aaec8b97472d1d927c0cc054f19fb9a95fc25eef8eb5f14aaa07e90f",
    ("axis3d", "limit", 1501):
        "caaeaca9a84c00bc5b1b3884bf131669923e4ecb8d2b0e153a419a1aeafd5198",
    ("table3d", "exact", 11):
        "36198c2efd1e51b5cba2b47300227b88204584dfd41597b3114be77d9f22ac87",
}

README_EXAMPLE = {
    "betas": [2, 4], "target": {"kind": "rotated2d", "theta": "const",
                                "theta_value": 0.7853981633974483},
    "n_min": 1, "n_max": 60, "window": 20, "mode": "limit"}
README_DIGEST = \
    "8c0b5873dfaef117dc6d487075d3f02fb941a84d12a64caf75153ebd61ef38ae"


def _dimension_csv(workdir, config, *flags, table=None) -> bytes:
    (workdir / "table.csv").write_text(table or _table_rows())
    (workdir / "run.json").write_text(json.dumps(config))
    assert main(["dimension", "--config", "run.json", *flags]) == 0
    return (workdir / "dimension.csv").read_bytes()


def block_digest(workdir, family, mode, start) -> str:
    config = dict(FAMILIES[family], mode=mode)
    data = _dimension_csv(workdir, config, "--nmin", str(start),
                          "--nmax", str(start + 19))
    return hashlib.sha256(data).hexdigest()


def readme_digest(workdir) -> str:
    return hashlib.sha256(_dimension_csv(workdir, README_EXAMPLE)).hexdigest()


@pytest.mark.parametrize("block", list(BLOCKS),
                         ids=["-".join(map(str, b)) for b in BLOCKS])
def test_block_bytes_pinned(tmp_path, monkeypatch, capsys, block):
    monkeypatch.chdir(tmp_path)
    assert block_digest(tmp_path, *block) == BLOCKS[block]


def test_readme_example_bytes_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert readme_digest(tmp_path) == README_DIGEST


_ORIGIN = ["0.4"] * 3
_NEAR_SINGULAR = (_ORIGIN, ["0.1", "0", "0", "0", "0.1", "0",
                            "0.1", "0.1", "1e-15"])
_ZERO_COLUMN = (_ORIGIN, ["0.1", "0", "0", "0", "0", "0", "0", "0", "0.1"])
_NAN_ENTRY = (_ORIGIN, ["0.1", "0", "0", "0", "nan", "0", "0", "0", "0.1"])
_INF_ORIGIN = (["0.4", "inf", "0.4"],
               ["0.1", "0", "0", "0", "0.1", "0", "0", "0", "0.1"])

_DEGENERATE = "parallelepiped_geometry.degenerate_input"
_DOMAIN = "parallelepiped_geometry.domain"
_DEPENDENT = ("columns nearly dependent: |det| is 7.071e-15 times the "
              "product of the column norms")

# bad rows, all outside the requested block 1..5, and the code and
# message of the refusal, as the per-shape loader gave them
TABLE_REFUSALS = {
    "near-singular": ({35: _NEAR_SINGULAR}, _DEGENERATE, _DEPENDENT),
    "zero-column": ({35: _ZERO_COLUMN}, _DEGENERATE, "zero column"),
    "nan-entry": ({35: _NAN_ENTRY}, _DOMAIN, "columns must be finite"),
    "inf-origin": ({35: _INF_ORIGIN}, _DOMAIN, "origin must be finite"),
    # the first bad level decides, whatever its fault
    "nan-then-singular": ({20: _NAN_ENTRY, 30: _NEAR_SINGULAR}, _DOMAIN,
                          "columns must be finite"),
    "singular-then-nan": ({20: _NEAR_SINGULAR, 30: _NAN_ENTRY}, _DEGENERATE,
                          _DEPENDENT),
}


def _table_refusal(workdir, bad, capsys):
    """(code, message) of the JSON error of a 1..5 block on a table with
    the given bad rows."""
    (workdir / "table.csv").write_text(_table_rows(bad))
    (workdir / "run.json").write_text(json.dumps(FAMILIES["table3d"]))
    capsys.readouterr()
    assert main(["dimension", "--config", "run.json", "--nmin", "1",
                 "--nmax", "5"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert not (workdir / "dimension.csv").exists()
    return err["code"], err["message"]


@pytest.mark.parametrize("case", list(TABLE_REFUSALS))
def test_table_refusals(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    bad, code, message = TABLE_REFUSALS[case]
    assert _table_refusal(tmp_path, bad, capsys) == (code, message)


def _explicit(config, levels):
    """The table's first levels as an explicit target list."""
    shapes = [{"origin": [0.4] * 3,
               "columns": [list(col) for col in zip(*_table_matrix(n))]}
              for n in range(1, levels + 1)]
    return dict(config, target={"kind": "explicit", "shapes": shapes})


def test_table_and_explicit_agree(tmp_path, monkeypatch, capsys):
    # the same shapes through the stacked table loader and one
    # Parallelepiped at a time: the same rows and summary line, below the
    # config hash line that tells the two configs apart
    monkeypatch.chdir(tmp_path)
    flags = ("--nmin", "3", "--nmax", "24")
    table = _dimension_csv(tmp_path, FAMILIES["table3d"], *flags)
    explicit = _dimension_csv(
        tmp_path, _explicit(FAMILIES["table3d"], 24), *flags)
    assert table.split(b"\n", 1)[1] == explicit.split(b"\n", 1)[1]
    assert table.count(b"\n") == 2 + 22 + 1


def test_table_shapes_match_single_shapes(tmp_path):
    # each stacked shape is the Parallelepiped of its row, bit for bit,
    # and as read-only
    (tmp_path / "table.csv").write_text(_table_rows())
    targets = _load_table(3, str(tmp_path / "table.csv"))
    assert len(targets.shapes) == TABLE_LEVELS
    for n, p in enumerate(targets.shapes, 1):
        cols = np.array(_table_matrix(n))
        q = Parallelepiped([0.4] * 3, cols)
        assert p.columns.tobytes() == q.columns.tobytes()
        assert p.origin.tobytes() == q.origin.tobytes()
        assert struct.pack("<d", p.log2_volume) == \
            struct.pack("<d", q.log2_volume)
        assert targets.log2_volumes[n - 1] == p.log2_volume
        assert not p.columns.flags.writeable
        assert not p.origin.flags.writeable


_TABLE_EXACT = dict(FAMILIES["table3d"], mode="exact")
# level 12's matrix doubled: a valid table whose block 11..30 differs
_EDITED = {12: (_ORIGIN, [repr(2 * _table_matrix(12)[i][j])
                          for j in range(3) for i in range(3)])}


def test_repeated_blocks_parse_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _parse_table.cache_clear()
    blocks = [_dimension_csv(tmp_path, _TABLE_EXACT, "--nmin", str(start),
                             "--nmax", str(start + 4))
              for start in (1, 11, 21)]
    info = _parse_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert len(set(blocks)) == 3


def test_table_edited_in_place_is_reread(tmp_path, monkeypatch, capsys):
    # the same path rewritten between two runs of one process gives the
    # new table's artifact, as a process that never saw the old one does
    monkeypatch.chdir(tmp_path)
    flags = ("--nmin", "11", "--nmax", "30")
    old = _dimension_csv(tmp_path, _TABLE_EXACT, *flags)
    new = _dimension_csv(tmp_path, _TABLE_EXACT, *flags,
                         table=_table_rows(_EDITED))
    _parse_table.cache_clear()
    fresh = _dimension_csv(tmp_path, _TABLE_EXACT, *flags,
                           table=_table_rows(_EDITED))
    assert new == fresh
    assert new != old
    assert hashlib.sha256(old).hexdigest() == \
        BLOCKS[("table3d", "exact", 11)]


def test_table_refused_again(tmp_path, monkeypatch, capsys):
    # a refusal is never cached: the second run reads and refuses the
    # table again, with the same code and message
    monkeypatch.chdir(tmp_path)
    bad, code, message = TABLE_REFUSALS["singular-then-nan"]
    for _ in range(2):
        assert _table_refusal(tmp_path, bad, capsys) == (code, message)


def test_shared_sign_rows_are_immutable(tmp_path):
    # every spec built from one table content shares its sign rows, so
    # none may be edited in place
    (tmp_path / "table.csv").write_text(_table_rows())

    def signs():
        spec = TargetSpec(BetaSystem(TABLE_BETAS),
                          _load_table(3, str(tmp_path / "table.csv")))
        return spec.family.log_columns(spec.system.log2_betas, 5)[0]

    rows = signs()
    with pytest.raises(TypeError):
        rows[0][0] = -rows[0][0]
    with pytest.raises(TypeError):
        rows[0] = (1.0, 0.0, 0.0)
    assert signs() is rows
