"""Config validation, subcommand artifacts, and error reporting."""

import contextlib
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beta_targets.cli_io import (
    _SHAPE_KEYS,
    _TARGETS,
    _TOP_KEYS,
    main,
    make_target_spec,
    parse_config,
    run,
    validate_config,
)
from beta_targets.errors import BetaTargetsError, ConfigError, DomainError

PI4 = math.pi / 4.0


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    trailing = [ln for ln in lines[1:] if ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header, rows, trailing, lines


class TestParseConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="betaz"):
            parse_config('{"betaz": [2]}')

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("nope{")

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config("[1, 2]")

    def test_base_at_most_one_rejected(self):
        with pytest.raises(DomainError, match="exceed 1"):
            parse_config('{"betas": [2.0, 0.5]}')

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config('{"mode": "fast"}')

    def test_level_range_order(self):
        with pytest.raises(ConfigError, match="n_min"):
            parse_config('{"n_min": 5, "n_max": 2}')

    def test_threads_is_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            parse_config('{"threads": 1}')

    def test_schema_keys_match_run_config(self):
        schema = Path(__file__).resolve().parents[1] / "schema" / \
            "run_config.schema.json"
        props = json.loads(schema.read_text())["properties"]
        assert set(props) == _TOP_KEYS
        branches = {b["properties"]["kind"]["const"]: b
                    for b in props["target"]["oneOf"]}
        assert set(branches) == set(_TARGETS)
        for kind, (_, required, optional) in _TARGETS.items():
            branch = branches[kind]
            assert set(branch["properties"]) == \
                {"kind", *required, *optional}
            assert set(branch["required"]) == {"kind", *required}
        item = branches["explicit"]["properties"]["shapes"]["items"]
        assert set(item["properties"]) == set(_SHAPE_KEYS)
        assert set(item["required"]) == set(_SHAPE_KEYS)

    def test_only_full_must_be_boolean(self):
        with pytest.raises(ConfigError, match="only_full"):
            parse_config('{"only_full": 1}')

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="betas"):
            validate_config({"betas": [True]})

    def test_samples_floor(self):
        with pytest.raises(ConfigError, match="samples"):
            validate_config({"samples": 3})

    def test_columns_must_be_square(self):
        with pytest.raises(ConfigError, match="square"):
            validate_config({"columns": [[1.0, 0.0], [0.0]]})

    def test_shape_needs_three_vertices(self):
        with pytest.raises(ConfigError, match="shape"):
            validate_config({"shape": [[0, 0], [1, 0]]})

    def test_round_trip_fields(self):
        cfg = parse_config(json.dumps({
            "betas": [2, 4], "n": 3, "mode": "limit", "seed": 7,
            "taus": [0.25, 0.125], "s": 1.5, "only_full": True,
        }))
        assert cfg.betas == (2.0, 4.0)
        assert cfg.n == 3
        assert cfg.mode == "limit"
        assert cfg.seed == 7
        assert cfg.taus == (0.25, 0.125)
        assert cfg.s == (1.5,)
        assert cfg.only_full is True
        assert cfg.window == 20

    def test_unknown_subcommand_rejected_by_run(self):
        with pytest.raises(ConfigError, match="subcommand"):
            run("solve", validate_config({}))


# any JSON value, NaN and infinities included (json.loads reads them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)

VALID_TARGETS = {
    "axis": {"kind": "axis", "exponents": [1.0, 2.0]},
    "rotated2d": {"kind": "rotated2d", "theta": "const"},
    "explicit": {"kind": "explicit", "shapes": [
        {"origin": [0.1, 0.1], "columns": [[0.1, 0.0], [0.0, 0.1]]}]},
    "table": {"kind": "table", "path": "missing.csv"},
}


class TestAnyValue:
    """Whatever JSON value a key holds, only typed errors come out."""

    @given(key=st.sampled_from(sorted(_TOP_KEYS)), value=JSON_VALUES)
    def test_top_level_key(self, key, value):
        with contextlib.suppress(BetaTargetsError):
            validate_config({key: value})

    @given(kind=st.sampled_from(sorted(_TARGETS)), data=st.data())
    def test_target_sub_key(self, kind, data):
        _, required, optional = _TARGETS[kind]
        # (key of an explicit shape?, key)
        slots = [(False, k) for k in ("kind", *required, *optional)]
        if kind == "explicit":
            slots += [(True, k) for k in _SHAPE_KEYS]
        in_shape, key = data.draw(st.sampled_from(slots))
        target = copy.deepcopy(VALID_TARGETS[kind])
        holder = target["shapes"][0] if in_shape else target
        holder[key] = data.draw(JSON_VALUES)
        with contextlib.suppress(BetaTargetsError):
            make_target_spec(validate_config(
                {"betas": [2, 4], "target": target}))


class TestCount:
    def test_flag_override_prints_count(self, tmp_path, capsys):
        rc = main(["count", "--beta", "2", "--n", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_csv_artifact(self, tmp_path, capsys):
        rc = main(["count", "--beta", "2", "--n", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, lines = read_csv(tmp_path / "count.csv")
        assert header == ["beta", "n", "admissible", "full"]
        assert rows == [["2.0", "5", "32", "32"]]
        raw = {"betas": [2.0], "n": 5, "out": str(tmp_path)}
        canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()
        assert lines[0] == f"# config_sha256={digest}"

    def test_deep_level_count(self, tmp_path, capsys):
        rc = main(["count", "--beta", repr((1 + math.sqrt(5)) / 2),
                   "--n", "1500", "--out", str(tmp_path)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip()) == 314

    def test_config_file_route(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betas": [1.8], "n": 4})
        rc = main(["count", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        # Renyi sandwich for 1 < beta < 2: strictly fewer words than 2^n
        assert int(capsys.readouterr().out.strip()) < 16


class TestExpand:
    def test_orbit_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betas": [2], "x": 0.375, "n": 3})
        rc = main(["expand", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, _ = read_csv(tmp_path / "expand.csv")
        assert header == ["step", "digit", "point"]
        assert rows == [["1", "0", "0.375"],
                        ["2", "1", "0.75"],
                        ["3", "1", "0.5"]]


class TestCylinders:
    def test_integer_base_level_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betas": [2], "n": 2})
        rc = main(["cylinders", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, _ = read_csv(tmp_path / "cylinders.csv")
        assert header == ["word", "level", "left", "length", "full"]
        assert [r[0] for r in rows] == ["00", "01", "10", "11"]
        assert [r[2] for r in rows] == ["0.0", "0.25", "0.5", "0.75"]
        assert all(r[1] == "2" and r[3] == "0.25" and r[4] == "1"
                   for r in rows)

    def test_only_full_matches_counter(self, tmp_path, capsys):
        from beta_targets.beta_dynamics import count_full
        path = write_config(tmp_path,
                            {"betas": [1.8], "n": 3, "only_full": True})
        rc = main(["cylinders", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        _, rows, _, _ = read_csv(tmp_path / "cylinders.csv")
        assert len(rows) == count_full(1.8, 3)
        assert all(r[4] == "1" for r in rows)


class TestOrtho:
    def test_pivoted_frame_json(self, tmp_path, capsys):
        path = write_config(tmp_path, {"columns": [[1, 0], [3, 3]]})
        rc = main(["ortho", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "ortho.json").read_text())
        assert payload["permutation"] == [2, 1]
        assert payload["gamma_norms"] == [4.242640687119285,
                                          0.7071067811865476]
        assert payload["checks"]["norms_sorted"] is True
        assert payload["checks"]["reconstruction_max_abs_err"] <= 1e-12
        assert payload["checks"]["max_abs_U"] <= 2.0 + 1e-9
        assert payload["volume"] == pytest.approx(3.0, rel=1e-12)
        assert len(payload["config_sha256"]) == 64

    def test_subnormal_columns(self, tmp_path, capsys):
        # squared norms underflow; the frame is exact in log2, and the
        # float norms and volume are its values
        path = write_config(tmp_path, {"columns": [[1e-320, 0], [0, 1e-320]]})
        rc = main(["ortho", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "ortho.json").read_text())
        assert payload["permutation"] == [1, 2]
        assert payload["gamma_log2"] == [math.log2(1e-320)] * 2
        assert payload["gamma_norms"] == [1e-320, 1e-320]
        assert payload["gammas"] == [[1e-320, 0.0], [0.0, 1e-320]]
        assert payload["U"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["volume"] == 0.0
        assert payload["checks"]["reconstruction_max_abs_err"] == 0.0


class TestContent:
    def test_rows_per_exponent(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "shape": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "s": [0.5, 1.0, 2.0],
            "depths": [4, 5],
        })
        rc = main(["content", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, _ = read_csv(tmp_path / "content.csv")
        assert header == ["s", "lower", "upper"]
        assert [r[0] for r in rows] == ["0.5", "1.0", "2.0"]
        for r in rows:
            lower, upper = float(r[1]), float(r[2])
            assert 0.0 < lower <= upper * (1.0 + 1e-12)
        # s = d recovers area for the unit square
        assert float(rows[2][2]) == pytest.approx(1.0, rel=1e-9)


class TestDimension:
    def config(self, tmp_path, **extra):
        data = {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": 0.0},
            "n_min": 1, "n_max": 10,
        }
        data.update(extra)
        return write_config(tmp_path, data)

    def test_axis_aligned_levels_are_flat(self, tmp_path, capsys):
        path = self.config(tmp_path)
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        header, rows, trailing, _ = read_csv(tmp_path / "dimension.csv")
        assert header == ["n", "gamma_log2_1", "gamma_log2_2", "s_n",
                          "argmin_tau_log2"]
        assert [r[0] for r in rows] == [str(n) for n in range(1, 11)]
        assert all(r[3] == "1.25" for r in rows)
        assert trailing == ["# s_star=1.25,converged=true"]

    def test_flag_overrides(self, tmp_path, capsys):
        path = self.config(tmp_path)
        rc = main(["dimension", "--config", path, "--out", str(tmp_path),
                   "--nmin", "2", "--nmax", "4", "--window", "2"])
        assert rc == 0
        _, rows, _, _ = read_csv(tmp_path / "dimension.csv")
        assert [r[0] for r in rows] == ["2", "3", "4"]

    def test_byte_identical_rerun(self, tmp_path, capsys):
        path = self.config(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["dimension", "--config", path,
                     "--out", str(out)]) == 0
        first = (out / "dimension.csv").read_bytes()
        assert main(["dimension", "--config", path,
                     "--out", str(out)]) == 0
        assert (out / "dimension.csv").read_bytes() == first

    def test_table_target_from_csv(self, tmp_path, capsys):
        table = tmp_path / "targets.csv"
        table.write_text(
            "n,o1,o2,m11,m21,m12,m22\n"
            "1,0.0,0.0,0.5,0.0,0.0,0.5\n"
            "2,0.0,0.0,0.25,0.0,0.0,0.25\n"
            "3,0.0,0.0,0.125,0.0,0.0,0.125\n")
        path = write_config(tmp_path, {
            "betas": [2, 2],
            "target": {"kind": "table", "path": str(table)},
            "n_min": 1, "n_max": 3,
        })
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        _, rows, trailing, _ = read_csv(tmp_path / "dimension.csv")
        assert all(r[3] == "1.0" for r in rows)
        assert trailing[0].startswith("# s_star=1.0,")

    def test_table_levels_must_be_contiguous(self, tmp_path):
        table = tmp_path / "targets.csv"
        table.write_text("1,0,0,0.5,0,0,0.5\n3,0,0,0.25,0,0,0.25\n")
        path = write_config(tmp_path, {
            "betas": [2, 2],
            "target": {"kind": "table", "path": str(table)},
            "n_min": 1, "n_max": 2,
        })
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("shape, needle", [
        ({"columns": [[0.1, 0.0], [0.0, 0.1]]}, "'origin'"),
        ({"origin": [0.1, 0.1]}, "'columns'"),
        ([[0.1, 0.1], [[0.1, 0.0], [0.0, 0.1]]], "must be an object"),
        ({"origin": [0.1, 0.1], "columns": [[0.1, 0.0], [0.0, 0.1]],
          "scale": 2}, "'scale'"),
        ({"origin": [0.1, 0.1], "columns": [[0.1, "x"], [0.0, 0.1]]},
         "numeric"),
    ])
    def test_malformed_explicit_shape(self, tmp_path, capsys, shape, needle):
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "explicit", "shapes": [shape]},
            "n_min": 1, "n_max": 1,
        })
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"
        assert needle in err["error"]["message"]

    def test_explicit_shape_with_underflowing_norms(self, tmp_path, capsys):
        shape = {"origin": [0.1, 0.1], "columns": [[1e-170, 0], [0, 1e-170]]}
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "explicit", "shapes": [shape] * 3},
            "n_min": 1, "n_max": 3,
        })
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        _, rows, _, _ = read_csv(tmp_path / "dimension.csv")
        # gamma norms 2^-n * 1e-170 and 4^-n * 1e-170
        for n, row in enumerate(rows, start=1):
            assert float(row[1]) == pytest.approx(math.log2(1e-170) - n)
            assert float(row[2]) == pytest.approx(math.log2(1e-170) - 2 * n)

    def test_unknown_target_kind(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "wavelet"},
            "n_min": 1, "n_max": 2,
        })
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"
        assert "wavelet" in err["error"]["message"]


class TestVerifyCover:
    def test_frozen_occupancy_row(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": PI4},
            "n_min": 2, "n_max": 2,
            "taus": [0.015625],
        })
        rc = main(["verify-cover", "--config", path,
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, _ = read_csv(tmp_path / "verify_cover.csv")
        assert header == ["n", "tau", "measured", "formula", "ratio"]
        assert len(rows) == 1
        n, tau, measured, formula, ratio = rows[0]
        assert (n, tau, measured) == ("2", "0.015625", "256")
        assert float(ratio) == pytest.approx(
            256.0 / float(formula), rel=1e-12)


class TestVerifyMeasure:
    def test_regime_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": PI4},
            "n_min": 2, "n_max": 2,
            "samples": 40,
            "seed": 3,
        })
        rc = main(["verify-measure", "--config", path,
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows, _, _ = read_csv(tmp_path / "verify_measure.csv")
        assert header == ["n", "regime", "measured", "formula", "ratio"]
        assert {r[1] for r in rows} == {"beyond_box", "below_frame",
                                        "cylinder_to_box",
                                        "between_scales"}
        for r in rows:
            measured, formula, ratio = map(float, r[2:])
            assert ratio == pytest.approx(measured / formula, rel=1e-9)

    def test_seeded_rerun_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": PI4},
            "n_min": 2, "n_max": 2,
            "samples": 40,
        })
        out = tmp_path / "m"
        assert main(["verify-measure", "--config", path, "--out", str(out),
                     "--seed", "11"]) == 0
        first = (out / "verify_measure.csv").read_bytes()
        assert main(["verify-measure", "--config", path, "--out", str(out),
                     "--seed", "11"]) == 0
        assert (out / "verify_measure.csv").read_bytes() == first


def _with_config(subcommand, config):
    """argv builder running `subcommand` on a config given as an object,
    JSON text or raw bytes."""
    raw = json.dumps(config) if isinstance(config, dict) else config
    raw = raw.encode() if isinstance(raw, str) else raw

    def argv(tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        return [subcommand, "--config", str(path),
                "--out", str(tmp_path / "out")]
    return argv


def _out_names_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["count", "--beta", "2", "--n", "3",
            "--out", str(tmp_path / "taken")]


def _rotated(**target):
    return {"betas": [2, 4], "target": dict(
        {"kind": "rotated2d", "theta": "const"}, **target),
        "n_min": 1, "n_max": 2}


def _axis(**target):
    return {"betas": [2, 4], "target": dict(
        {"kind": "axis", "exponents": [1, 1]}, **target),
        "n_min": 1, "n_max": 2}


def _table(path):
    return {"betas": [2, 4], "target": {"kind": "table", "path": path},
            "n_min": 1, "n_max": 2}


# inputs that escaped main as a traceback, or were accepted silently
INPUT_HOLES = {
    "theta_value-string": _with_config("dimension", _rotated(theta_value="x")),
    "theta_value-null": _with_config("dimension", _rotated(theta_value=None)),
    "axis-exponents-number": _with_config("dimension", _axis(exponents=5)),
    "axis-exponents-string": _with_config("dimension",
                                          _axis(exponents=["a", 1])),
    "axis-origin-number": _with_config("dimension", _axis(origin=5)),
    "table-path-number": _with_config("dimension", _table(5)),
    "table-path-nul": _with_config("dimension", _table("a\x00b")),
    "betas-infinite": _with_config("count", {"betas": [math.inf], "n": 3}),
    "a-string": _with_config("dimension",
                             _rotated(theta="arccos_pow2", a="1")),
    "tolerance-nan": _with_config("dimension",
                                  dict(_rotated(), tolerance=math.nan)),
    "config-too-deep": _with_config("count", "[" * 100_000),
    "config-integer-too-long": _with_config("count",
                                            '{"n": ' + "1" * 5000 + "}"),
    "config-not-utf8": _with_config("count", b"\xff\xfe\x81"),
    "out-names-a-file": _out_names_a_file,
    "ortho-zero-columns": _with_config("ortho", {"columns": [[0, 0], [0, 0]]}),
    # equal columns at subnormal scale: the scale-free degeneracy rule
    # still refuses them (1e-320 * I itself is a valid frame)
    "ortho-subnormal-columns": _with_config(
        "ortho", {"columns": [[1e-320, 1e-320], [1e-320, 1e-320]]}),
    "ortho-near-float-max": _with_config(
        "ortho", {"columns": [[1e308, 1e308], [1e308, -1e308]]}),
    "verify-cover-tiny-tau": _with_config(
        "verify-cover", dict(_rotated(theta_value=0.3), n_min=2, n_max=2,
                             taus=[1e-300])),
}


class TestErrorReporting:
    @pytest.mark.parametrize("argv", INPUT_HOLES.values(),
                             ids=INPUT_HOLES.keys())
    def test_input_hole_exits_two(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv(tmp_path)) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert set(json.loads(err)["error"]) == {"code", "message"}

    @pytest.mark.parametrize("subcommand,config", [
        ("ortho", {"columns": [[1e308, 1e308], [1e308, -1e308]]}),
        ("dimension", {
            "betas": [2, 4], "n_min": 1, "n_max": 1,
            "target": {"kind": "explicit", "shapes": [{
                "origin": [0.1, 0.1],
                "columns": [[1e308, 1e308], [1e308, -1e308]]}]}}),
    ], ids=["ortho", "dimension"])
    def test_stderr_is_one_json_object(self, tmp_path, subcommand, config):
        # a subprocess sees what pytest's capture hides: warnings printed
        # on stderr ahead of the JSON error
        argv = _with_config(subcommand, config)(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "beta_targets.cli_io", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert set(json.loads(lines[0])["error"]) == {"code", "message"}

    @pytest.mark.parametrize("hole,code", [
        ("ortho-zero-columns", "parallelepiped_geometry.degenerate_input"),
        ("ortho-subnormal-columns",
         "parallelepiped_geometry.degenerate_input"),
        ("ortho-near-float-max", "cli_io.scale_range"),
        ("verify-cover-tiny-tau", "numerical_lab.domain"),
    ])
    def test_library_refusal_code(self, tmp_path, capsys, hole, code):
        assert main(INPUT_HOLES[hole](tmp_path)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == code
        # no artifact holding Infinity or NaN is left behind
        assert not list((tmp_path / "out").glob("*.json"))

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betaz": [2]})
        rc = main(["count", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"
        assert "betaz" in err["error"]["message"]

    def test_bad_base_through_flags(self, tmp_path, capsys):
        rc = main(["count", "--beta", "0.5", "--n", "3",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.domain"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["dimension", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{betas: oops")
        rc = main(["count", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betas": [2]})
        rc = main(["expand", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "'x'" in err["error"]["message"]

    def test_unknown_subcommand_exit_two(self, capsys):
        assert main(["solve"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"

    def test_unknown_flag_exit_two(self, tmp_path, capsys):
        assert main(["count", "--bogus", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "beta-targets" in capsys.readouterr().out

    def test_out_directory_created(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nest"
        rc = main(["count", "--beta", "2", "--n", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "count.csv").exists()
