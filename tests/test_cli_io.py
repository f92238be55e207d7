"""Config validation, subcommand artifacts, and error reporting."""

import contextlib
import copy
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beta_targets import cli_io
from beta_targets.cli_io import (
    _PARSERS,
    _SHAPE_KEYS,
    _SUBCOMMANDS,
    _TARGETS,
    _load,
    main,
    make_target_spec,
    run,
    validate_config,
)
from beta_targets.dimension_engine import s_n
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
            validate_config(_load('{"betaz": [2]}'))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config(_load("nope{"))

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="object"):
            validate_config(_load("[1, 2]"))

    def test_base_at_most_one_rejected(self):
        with pytest.raises(DomainError, match="exceed 1"):
            validate_config(_load('{"betas": [2.0, 0.5]}'))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config(_load('{"mode": "fast"}'))

    def test_level_range_order(self):
        with pytest.raises(ConfigError, match="n_min"):
            validate_config(_load('{"n_min": 5, "n_max": 2}'))

    def test_threads_is_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            validate_config(_load('{"threads": 1}'))

    def test_schema_keys_match_run_config(self):
        schema = Path(__file__).resolve().parents[1] / "schema" / \
            "run_config.schema.json"
        props = json.loads(schema.read_text())["properties"]
        assert set(props) == set(_PARSERS)
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
            validate_config(_load('{"only_full": 1}'))

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
        cfg = validate_config(_load(json.dumps({
            "betas": [2, 4], "n": 3, "mode": "limit", "seed": 7,
            "taus": [0.25, 0.125], "s": 1.5, "only_full": True,
        })))
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

    @pytest.mark.parametrize("config, error, message", [
        # keys are read in the order RunConfig declares them, not in the
        # order the JSON object lists them
        ({"mode": "fast", "betas": [0.5]}, DomainError,
         "every base must exceed 1, got 0.5"),
        ({"samples": 3, "n": 0}, ConfigError,
         "config key 'n' must be >= 1, got 0"),
        # an unknown key is refused before any value is read
        ({"zzz": 1, "mode": "fast"}, ConfigError,
         "unknown config key 'zzz'"),
    ], ids=["betas-before-mode", "n-before-samples", "unknown-first"])
    def test_refusal_follows_declared_order(self, config, error, message):
        with pytest.raises(error) as info:
            validate_config(config)
        assert str(info.value) == message

    def test_target_refusal_follows_declared_order(self):
        # exponents comes first in the object, theta_value first in the
        # rotated2d key table
        cfg = validate_config({"betas": [2, 4], "target": {
            "kind": "rotated2d", "theta": "const", "exponents": "x",
            "theta_value": "y"}})
        with pytest.raises(ConfigError) as info:
            make_target_spec(cfg)
        assert str(info.value) == ("rotated2d target key 'theta_value' must "
                                   "be finite and numeric, got 'y'")


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

    @given(key=st.sampled_from(sorted(_PARSERS)), value=JSON_VALUES)
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

    @pytest.mark.skipif(not sys.get_int_max_str_digits(),
                        reason="this interpreter has no int-to-str limit")
    def test_count_past_int_str_limit(self, tmp_path, capsys):
        # 10**n has n + 1 digits: n = limit - 1 still prints; n = limit is
        # refused after counting, n = limit + 700 before
        limit = sys.get_int_max_str_digits()
        rc = main(["count", "--beta", "10", "--n", str(limit - 1),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1" + "0" * (limit - 1)
        for n in (limit, limit + 700):
            rc = main(["count", "--beta", "10", "--n", str(n),
                       "--out", str(tmp_path)])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["code"] == "cli_io.resource_limit"
            assert f"more than {limit} decimal digits" in \
                err["error"]["message"]

    def test_counts_once(self, tmp_path, capsys, monkeypatch):
        from beta_targets import beta_dynamics
        calls = []
        counts = beta_dynamics._counts
        monkeypatch.setattr(beta_dynamics, "_counts",
                            lambda *args: calls.append(args) or counts(*args))
        rc = main(["count", "--beta", "2.5", "--n", "40",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        _, rows, _, _ = read_csv(tmp_path / "count.csv")
        assert rows == [["2.5", "40", str(beta_dynamics.count_admissible(
            2.5, 40)), str(beta_dynamics.count_words(2.5, 40)[1])]]

    def test_node_cap_from_config(self, tmp_path, capsys):
        # n x orbit states is at least 1500, past the cap of 10
        path = write_config(tmp_path, {"betas": [1.3], "n": 1500,
                                       "node_cap": 10})
        assert main(["count", "--config", path, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "beta_dynamics.resource_limit"
        assert not (tmp_path / "count.csv").exists()

    def test_config_file_route(self, tmp_path, capsys):
        path = write_config(tmp_path, {"betas": [1.8], "n": 4})
        rc = main(["count", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        # Renyi sandwich for 1 < beta < 2: strictly fewer words than 2^n
        assert int(capsys.readouterr().out.strip()) < 16

    @pytest.mark.parametrize("beta, count", [("1.0001", "6"),
                                             ("1.0000000000000002", "1")])
    def test_count_near_one(self, tmp_path, capsys, beta, count):
        # the full-count bound's constant underflows to 0.0 here, and its
        # product would take some 10**17 factors at 1 + 2**-52
        rc = main(["count", "--beta", beta, "--n", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == count

    def test_shorter_rerun_leaves_no_old_tail(self, tmp_path, capsys):
        # the config hash covers --out, so the fresh run uses the same one
        out = tmp_path / "out"
        for n in ("40", "3"):
            assert main(["count", "--beta", "2", "--n", n,
                         "--out", str(out)]) == 0
        rerun = (out / "count.csv").read_bytes()
        (out / "count.csv").unlink()
        assert main(["count", "--beta", "2", "--n", "3",
                     "--out", str(out)]) == 0
        assert (out / "count.csv").read_bytes() == rerun

    def test_failed_write_leaves_no_old_tail(self, tmp_path, capsys,
                                             monkeypatch):
        assert main(["count", "--beta", "2", "--n", "40",
                     "--out", str(tmp_path)]) == 0
        write, calls = os.write, []

        def disk_full_after_8_bytes(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data[:8])

        with monkeypatch.context() as m:
            m.setattr(cli_io.os, "write", disk_full_after_8_bytes)
            assert main(["count", "--beta", "2", "--n", "3",
                         "--out", str(tmp_path)]) == 2
        assert len(calls) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "cli_io.config"
        assert "cannot write" in err["message"]
        assert (tmp_path / "count.csv").read_bytes() == b""


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
        from beta_targets.beta_dynamics import count_words
        path = write_config(tmp_path,
                            {"betas": [1.8], "n": 3, "only_full": True})
        rc = main(["cylinders", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        _, rows, _, _ = read_csv(tmp_path / "cylinders.csv")
        assert len(rows) == count_words(1.8, 3)[1]
        assert all(r[4] == "1" for r in rows)


    # sha256 of the whole file for a config with no "out" key, run from
    # the output directory; pinned from the per-node stack walk
    @pytest.mark.parametrize("config, digest", [
        ({"betas": [(1 + math.sqrt(5)) / 2], "n": 20},
         "8927fba461fe82ba9d9327ee6689285eadcacd85c9e29c68669521a49d891c19"),
        ({"betas": [2.0], "n": 14},
         "5a25057b387deae16b6d4e4ed2eb5b3c755cd028663597a3dbe371e53d5b9a15"),
        ({"betas": [2.5], "n": 10},
         "ad229297c72004798f7099b8d71a6306ca93763bfa0c41f3d15f13e0e0d24d95"),
        ({"betas": [3.0], "n": 9},
         "f1a6cff1e3f874ffee0bca40eedd8d064434bfbcef427c9b858d9da82af33813"),
        # digits 10..12 are written with two characters
        ({"betas": [12.5], "n": 3},
         "726554bc364f180032bd6094922c081c7b242031e6b3adc609a3b4922751a7be"),
        # digits past 255
        ({"betas": [300.0], "n": 2},
         "190f04fa804999b73de6b6a9d0f9f8932cbfcfd541bff7b0fc70a6f8ec7c7934"),
        ({"betas": [(1 + math.sqrt(5)) / 2], "n": 16,
          "interval": [0.3, 0.55], "only_full": True},
         "1048bbe4290d933f04b6a81bd104a7df21d073ba740882483561cae7d6eba560"),
        ({"betas": [math.e], "n": 9, "interval": [0.123, 0.6]},
         "bf788d0465ee90d1ea42625a0f1db1d2c27928c7e809699b4b9dee0bb2d4d5a3"),
    ], ids=["phi-20", "2-14", "2.5-10", "3-9", "12.5-3", "300-2",
            "phi-16-interval-full", "e-9-interval"])
    def test_csv_bytes_pinned(self, tmp_path, monkeypatch, capsys, config,
                              digest):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, config)
        assert main(["cylinders", "--config", path]) == 0
        data = (tmp_path / "cylinders.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_csv_is_streamed(self, tmp_path, capsys):
        # 2**18 rows: the whole file as one string would take 12 MiB, and
        # the rows as tuples far more
        path = write_config(tmp_path, {"betas": [2], "n": 18})
        tracemalloc.start()
        try:
            rc = main(["cylinders", "--config", path,
                       "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert (tmp_path / "cylinders.csv").stat().st_size > 12 * 2**20
        assert peak < 8 * 2**20

    def test_walk_below_two_at_the_default_cap(self, tmp_path, capsys):
        # 2**27 is past the default node_cap; the walk makes far fewer
        path = write_config(tmp_path, {"betas": [1.5], "n": 27})
        assert main(["cylinders", "--config", path,
                     "--out", str(tmp_path)]) == 0
        _, rows, _, _ = read_csv(tmp_path / "cylinders.csv")
        assert len(rows) == 88_123

    def test_write_error_is_config_error(self, tmp_path, capsys):
        # a streamed artifact and one written whole
        for subcommand, config in [
                ("cylinders", {"betas": [2], "n": 3}),
                ("dimension", {"betas": [2], "target": {
                    "kind": "axis", "exponents": [1]},
                    "n_min": 1, "n_max": 3})]:
            out = tmp_path / subcommand
            name = _SUBCOMMANDS[subcommand][1]
            (out / name).mkdir(parents=True)
            path = write_config(out, config)
            assert main([subcommand, "--config", path,
                         "--out", str(out)]) == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["code"] == "cli_io.config"
            assert "cannot write" in err["message"]
            assert sorted(p.name for p in out.iterdir()) == \
                ["config.json", name]

    def test_mid_walk_refusal_leaves_old_artifact(self, tmp_path, capsys,
                                                  monkeypatch):
        from beta_targets import beta_dynamics
        (tmp_path / "cylinders.csv").write_text("old\n")
        monkeypatch.setattr(beta_dynamics, "_node_floor",
                            lambda ctx, n, within: 0)
        path = write_config(tmp_path, {"betas": [2], "n": 20,
                                       "node_cap": 10**5})
        assert main(["cylinders", "--config", path,
                     "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "beta_dynamics.resource_limit"
        assert (tmp_path / "cylinders.csv").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["config.json", "cylinders.csv"]


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

    def test_box_past_float_range(self, tmp_path, capsys):
        # 2^2 |gamma_1| = 4e308 has no float value; the box check runs
        # in log2 and refuses nothing the encoding accepts
        path = write_config(tmp_path, {"columns": [[1e308, 0], [0, 1e-10]]})
        rc = main(["ortho", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "ortho.json").read_text())
        assert payload["gamma_log2"] == [1023.1538532253076,
                                         -33.219280948873575]
        assert payload["gammas"] == [[1e308, 0.0], [0.0, 1e-10]]

    # ortho.json of the parent revision, config_sha256 aside: the float
    # gammas of nearly dependent columns tilt off orthogonal, and the box
    # check, which reads the reach off U, must not refuse them
    @pytest.mark.parametrize("columns, expected", [
        ([[1, 1], [1, 1.0000000001]], {
            "U": [[1.0, 0.99999999995], [0.0, 1.0]],
            "checks": {"max_abs_U": 1.0, "norms_sorted": True,
                       "reconstruction_max_abs_err": 0.0},
            "gamma_log2": [0.5000000000721347, -33.71928082943237],
            "gamma_norms": [1.4142135624438057, 7.0710683972818e-11],
            "gammas": [[1.0, 1.0000000001],
                       [5.000000413701855e-11, -5.000000413701855e-11]],
            "permutation": [2, 1],
            "volume": 1.0000000828403707e-10}),
        ([[1, 3], [2, 6.000000001]], {
            "U": [[1.0, 0.4999999999249999], [0.0, 1.0]],
            "checks": {"max_abs_U": 1.0, "norms_sorted": True,
                       "reconstruction_max_abs_err": 0.0},
            "gamma_log2": [2.6609640476600855, -32.55831485998232],
            "gamma_norms": [6.324555321285443, 1.5811410674346354e-10],
            "gammas": [[2.0, 6.000000001],
                       [1.5000023445566057e-10, -4.999911595859885e-11]],
            "permutation": [2, 1],
            "volume": 1.0000014151746669e-09}),
        ([[1, 4, 7], [2, 5, 8], [3, 6, 9.000000001]], {
            "U": [[1.0, 0.714285714239229, 0.8571428570839],
                  [0.0, 1.0, 0.49999999983333343],
                  [0.0, 0.0, 1.0]],
            "checks": {"max_abs_U": 1.0, "norms_sorted": True,
                       "reconstruction_max_abs_err": 0.0},
            "gamma_log2": [3.488639961853008, 0.3888037889882754,
                           -32.18984359516822],
            "gamma_norms": [11.224972161123608, 1.3093073411042129,
                            2.0412280239829394e-10],
            "gammas": [[3.0, 6.0, 9.000000001],
                       [-1.1428571427176872, -0.28571428543537447,
                        0.5714285711326532],
                       [-8.333245204994455e-11, 1.666675686351482e-10,
                        -8.333245204994455e-11]],
            "permutation": [3, 1, 2],
            "volume": 2.999980263956671e-09}),
    ], ids=["2d-1e-10", "2d-1e-9", "3d-1e-9"])
    def test_nearly_dependent_columns(self, tmp_path, capsys, columns,
                                      expected):
        path = write_config(tmp_path, {"columns": columns})
        rc = main(["ortho", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "ortho.json").read_text())
        payload.pop("config_sha256")
        assert payload == expected

    def test_box_check_is_live(self, tmp_path, capsys, monkeypatch):
        # U[0, 1] = 2^d: the last pivot reaches past 2^d |gamma_1|
        real = cli_io.pivoted_orthogonalize

        def stretched(matrix):
            frame = real(matrix)
            u = frame.U.copy()
            u[0, -1] = 4.0
            frame.__dict__["U"] = u  # a cached property of a frozen frame
            return frame

        monkeypatch.setattr(cli_io, "pivoted_orthogonalize", stretched)
        path = write_config(tmp_path, {"columns": [[1, 2], [3, 4]]})
        rc = main(["ortho", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "parallelepiped_geometry.consistency"
        assert not (tmp_path / "ortho.json").exists()


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

    # sha256 of content.csv below its config-hash line, pinned from the
    # oracle's one-pass-per-exponent form: perfbench-style thin shapes
    # (an axis rectangle, a sheared and a tilted one) and a thin triangle
    SHAPES = {
        "rectangle": [[0.87658, 0.881136], [0.97658, 0.881136],
                      [0.97658, 0.884145], [0.87658, 0.884145]],
        "sheared": [[0.640909, 0.402045], [0.767224, 0.402045],
                    [0.758001, 0.410648], [0.631685, 0.410648]],
        "tilted": [[0.754511, 0.422221], [0.986086, 0.423416],
                   [0.986046, 0.431266], [0.75447, 0.430071]],
        "triangle": [[0.12, 0.31], [0.83, 0.36], [0.47, 0.395]],
    }
    RUNS = {
        "five": {"s": [0.5, 1, 1.3, 1.7, 2]},
        "repeat": {"s": [2, 1, 1]},
        "depths": {"s": [0.5, 1, 1.3, 1.7, 2], "depths": [3, 5, 10, 11]},
    }

    # the digest of each (shape, run), kept out of the test ids
    DIGESTS = {
        ("rectangle", "five"):
            "5b20df5135142d58f808560a886e2665604c48e1a5cd174478769ca5a929dc3b",
        ("rectangle", "repeat"):
            "5ba42e24de5c4304b97f859d6fa9c4f6e0ec7cf5c38b21304530be06e31d3ca6",
        ("rectangle", "depths"):
            "5b20df5135142d58f808560a886e2665604c48e1a5cd174478769ca5a929dc3b",
        ("sheared", "five"):
            "8523f8181154591a796bb186d71b91972ac7b2d793ad8e6bd591cea8264541f7",
        ("sheared", "repeat"):
            "f82774904706a47606fba954bba9e3c18e4dfa3e01ee434da1da81bfb6ed3395",
        ("sheared", "depths"):
            "33ca088a663c64462a988141e8927898506c0f215ceac1260d4ce7803b3ef49c",
        ("tilted", "five"):
            "72f6c707fe26b9d6ae233a275c447570533053e5104a8c35a0be073969694e39",
        ("tilted", "repeat"):
            "60088af9600a4de006ec9aa356e9cfbe7ef1b96510d12ab5531fc541ca248246",
        ("tilted", "depths"):
            "b53fd51db553e339de460217046856b4e6ab6792955f13a9190545d0ee53cecd",
        ("triangle", "five"):
            "30c4eb6a7f978b07396e880dd6c737a8a38fed740567ba0a92f7b413c6fa78b6",
        ("triangle", "repeat"):
            "9f45cf73bf1470e1aaacffddf6167c968c3a548334efacda3e6193232b4afa63",
        ("triangle", "depths"):
            "f7879e78b62d2905520e169ba0708b0d21f5255d778566e4990c79cdf2f2826d",
    }

    @pytest.mark.parametrize("shape, run", list(DIGESTS))
    def test_csv_bytes_pinned(self, tmp_path, capsys, shape, run):
        path = write_config(tmp_path, {"shape": self.SHAPES[shape],
                                       **self.RUNS[run]})
        assert main(["content", "--config", path,
                     "--out", str(tmp_path)]) == 0
        body = (tmp_path / "content.csv").read_text().split("\n", 1)[1]
        assert body.count("\n") == 1 + len(self.RUNS[run]["s"])
        assert hashlib.sha256(body.encode()).hexdigest() == \
            self.DIGESTS[shape, run]

    # the first failing exponent's error, as one call per exponent gave it
    @pytest.mark.parametrize("shape, s, depths, message", [
        ("outside", [1.0, 3.0], None, "shape must lie inside the unit square"),
        ("outside", [3.0, 1.0], None, "s must lie in (0, 2], got 3.0"),
        ("inside", [1.0, 3.0], None, "s must lie in (0, 2], got 3.0"),
        ("segment", [1.0, 3.0], None, "s must lie in (0, 2], got 3.0"),
        ("inside", [1.0], [3, 30], "grid depths must be integers in [1, 24]"),
        ("star", [1.0, 3.0], None, "shape must be convex"),
        ("star", [3.0, 1.0], None, "s must lie in (0, 2], got 3.0"),
    ])
    def test_refusal_order(self, tmp_path, capsys, shape, s, depths,
                           message):
        shape = {"outside": [[0.8, 0.8], [1.3, 0.8], [1.3, 0.9], [0.8, 0.9]],
                 "inside": self.SHAPES["triangle"],
                 "segment": [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]],
                 # not convex
                 "star": [[0.277, 0.389], [0.333, 0.143], [0.417, 0.261],
                          [0.9, 0.255], [0.791, 0.6], [0.429, 0.621],
                          [0.447, 0.466], [0.212, 0.486]]}[shape]
        config = {"shape": shape, "s": s}
        if depths is not None:
            config["depths"] = depths
        path = write_config(tmp_path, config)
        assert main(["content", "--config", path,
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {
            "code": "hausdorff_content.domain", "message": message}}
        assert not (tmp_path / "content.csv").exists()


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

    def test_tied_sides_in_three_dimensions(self, tmp_path, capsys):
        # the two sides of exponent 0.5 tie; their log2 norms come out a
        # few ulps apart and out of order, within the pivot scan's tie band
        path = write_config(tmp_path, {
            "betas": [2, 2, 2],
            "target": {"kind": "axis", "exponents": [0.5, 0.5, 0.2]},
            "n_min": 1, "n_max": 3})
        rc = main(["dimension", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        _, rows, trailing, _ = read_csv(tmp_path / "dimension.csv")
        assert rows[0][1:4] == ["-1.2", "-1.5000000000000002", "-1.5"]
        assert trailing == ["# s_star=2.2,converged=true"]

    def test_unknown_theta_rule(self, tmp_path, capsys):
        # read by the config parser, no longer by the library
        path = self.config(tmp_path, target={"kind": "rotated2d",
                                             "theta": "linear"})
        assert main(["dimension", "--config", path,
                     "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "cli_io.config"

    @pytest.mark.parametrize("target, key", [
        ({"theta": "arccos_pow2", "a": 0.5, "theta_value": 1.2},
         "theta_value"),
        ({"theta": "const", "theta_value": 0.3, "a": 7}, "a"),
    ])
    def test_other_rules_key_refused(self, tmp_path, capsys, target, key):
        # each rule ignored the other's key before
        path = self.config(tmp_path, target=dict(kind="rotated2d", **target))
        assert main(["dimension", "--config", path,
                     "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "cli_io.config"
        assert f"no key {key!r}" in err["message"]

    def test_level_near_float_max(self, tmp_path, capsys):
        # the frame's log2 sums stay within float range here; at 10**308
        # they do not (see INPUT_HOLES)
        path = self.config(tmp_path, target={
            "kind": "rotated2d", "theta": "const", "theta_value": 0.3},
            n_min=10**307, n_max=10**307)
        assert main(["dimension", "--config", path,
                     "--out", str(tmp_path)]) == 0
        _, rows, _, _ = read_csv(tmp_path / "dimension.csv")
        assert len(rows) == 1 and 0.0 < float(rows[0][3]) <= 2.0

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
        inode = (out / "dimension.csv").stat().st_ino
        assert main(["dimension", "--config", path,
                     "--out", str(out)]) == 0
        # rewritten in place: the same file, with the same bytes
        assert (out / "dimension.csv").read_bytes() == first
        assert (out / "dimension.csv").stat().st_ino == inode

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

    def test_table_levels_must_be_unique(self, tmp_path, capsys):
        # the repeated level used to replace the earlier row silently
        table = tmp_path / "targets.csv"
        table.write_text("1,0,0,0.5,0,0,0.5\n2,0,0,0.25,0,0,0.25\n"
                         "2,0,0,0.2,0,0,0.2\n3,0,0,0.125,0,0,0.125\n")
        path = write_config(tmp_path, {
            "betas": [2, 2],
            "target": {"kind": "table", "path": str(table)},
            "n_min": 1, "n_max": 3,
        })
        out = tmp_path / "out"
        rc = main(["dimension", "--config", path, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "cli_io.config"
        assert "line 3" in err["message"]
        assert "level 2" in err["message"]
        assert not (out / "dimension.csv").exists()

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

    def test_axis_level_5_refused_by_cell_cap(self, tmp_path, capsys):
        # at the finest mesh 32 x-lefts book 1024 columns each, times
        # 1024 y-lefts
        path = write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": 0.0},
            "n_min": 5, "n_max": 5,
        })
        rc = main(["verify-cover", "--config", path,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {
            "code": "numerical_lab.resource_limit",
            "message": "33554432 grid columns exceed cap 30000000; "
                       "raise cell_cap or coarsen the mesh"}
        assert not (tmp_path / "verify_cover.csv").exists()

    def config(self, tmp_path, s):
        return write_config(tmp_path, {
            "betas": [2, 4],
            "target": {"kind": "rotated2d", "theta": "const",
                       "theta_value": PI4},
            "n_min": 2, "n_max": 2,
            "taus": [0.015625],
            "s": s,
        })

    @pytest.mark.parametrize("s", [1.2, [1.2]], ids=["number", "list-of-one"])
    def test_single_exponent(self, tmp_path, capsys, s):
        rc = main(["verify-cover", "--config", self.config(tmp_path, s),
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows, _, _ = read_csv(tmp_path / "verify_cover.csv")
        assert [r[:3] for r in rows] == [["2", "0.015625", "256"]]

    @pytest.mark.parametrize("s", [[0.3], [1.2, 1.9], [3.0]],
                             ids=["small", "two", "past-d"])
    def test_exponent_changes_no_row(self, tmp_path, capsys, s):
        # verify-cover reads no exponent: its rows are those of the same
        # config without "s"
        def rows(name, config):
            out = tmp_path / name
            assert main(["verify-cover", "--config", config,
                         "--out", str(out)]) == 0
            return read_csv(out / "verify_cover.csv")[1]

        with_s = self.config(tmp_path, s)
        plain = json.loads(Path(with_s).read_text())
        del plain["s"]
        assert rows("with", with_s) == rows(
            "without", write_config(tmp_path, plain, "plain.json"))


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

    def test_default_t_below_a_tenth(self, tmp_path, capsys):
        # s_n = 0.0732 here: the default t was s_n - 0.1 < 0, refused as
        # a t the config never set; it is now s_n / 2
        config = {
            "betas": [2, 4],
            "target": {"kind": "axis", "exponents": [40, 40]},
            "n_min": 2, "n_max": 2,
            "samples": 8,
        }
        level_s = s_n(make_target_spec(validate_config(config)), 2).s_n
        assert 0.0 < level_s < 0.1
        bodies = []
        for name, extra in (("default", {}), ("half", {"t": level_s / 2})):
            out = tmp_path / name
            path = write_config(tmp_path, dict(config, **extra),
                                f"{name}.json")
            assert main(["verify-measure", "--config", path,
                         "--out", str(out)]) == 0
            text = (out / "verify_measure.csv").read_text()
            bodies.append(text.split("\n", 1)[1])
        assert bodies[0] == bodies[1]
        assert bodies[0].count("\n") == 5

    def test_area_underflow_is_typed(self, tmp_path, capsys):
        # it escaped main as a ZeroDivisionError
        path = write_config(tmp_path, {
            "betas": [2, 2],
            "target": {"kind": "axis", "exponents": [0.05, 0.05]},
            "n_min": 600, "n_max": 600,
            "D": [[0, 2.0 ** -595], [0, 2.0 ** -595]],
            "eps": 0.01, "samples": 8,
        })
        assert main(["verify-measure", "--config", path,
                     "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "numerical_lab.scale_range"
        assert err["message"] == ("the copy area is 2^-1260, below the "
                                  "smallest normal float")

    @pytest.mark.parametrize("n, log2", [(500, -1050), (510, -1071)])
    def test_subnormal_copy_area_refused(self, tmp_path, capsys, n, log2):
        # copy areas of 8.3e-317 and 4e-323 (3 significant bits)
        path = write_config(tmp_path, {
            "betas": [2, 2],
            "target": {"kind": "axis", "exponents": [0.05, 0.05]},
            "n_min": n, "n_max": n,
            "D": [[0, 2.0 ** (5 - n)], [0, 2.0 ** (5 - n)]],
            "eps": 0.01, "samples": 8,
        })
        assert main(["verify-measure", "--config", path,
                     "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "code": "numerical_lab.scale_range",
            "message": f"the copy area is 2^{log2}, below the smallest "
                       "normal float"}
        assert not (tmp_path / "verify_measure.csv").exists()

    # sha256 of verify_measure.csv below its config-hash line: 64 and 512
    # copies, 36 copies (whose 32-bit integer draws have a nonzero
    # rejection threshold) and a single copy, whose integer draws take
    # no bits
    CONFIGS = {
        "pi4-n2": {"betas": [2, 4], "n_min": 2, "n_max": 2, "target": {
            "kind": "rotated2d", "theta": "const", "theta_value": PI4}},
        "pi4-n3": {"betas": [2, 4], "n_min": 3, "n_max": 3, "target": {
            "kind": "rotated2d", "theta": "const", "theta_value": PI4}},
        "phi-n3": {"betas": [2.5, (1 + 5 ** 0.5) / 2], "n_min": 3,
                   "n_max": 3, "target": {
                       "kind": "rotated2d", "theta": "const",
                       "theta_value": 0.3}},
        "single": {"betas": [3, 3], "n_min": 1, "n_max": 1,
                   "D": [[0, 0.5], [0, 0.5]],
                   "target": {"kind": "axis", "exponents": [1, 1]}},
    }

    # the digest of each (config, seed, samples), kept out of the test ids
    DIGESTS = {
        ("pi4-n2", 0, 1999):
            "e5a0e68996b78958a511f3b61001e7c0f06056f1cc0dddc9f06d05b3ab1f1f0a",
        ("pi4-n2", 0, 2000):
            "e5a0e68996b78958a511f3b61001e7c0f06056f1cc0dddc9f06d05b3ab1f1f0a",
        ("pi4-n2", 0, 2001):
            "7b69418494137aada3794363fcafaf4293b8293c624f006bf15c6f1e8b149f05",
        ("pi4-n2", 7, 1999):
            "61498a249fa3fef74d69f2618e0394bc6b54332734df2bdaccbd5d990b425344",
        ("pi4-n2", 7, 2000):
            "61498a249fa3fef74d69f2618e0394bc6b54332734df2bdaccbd5d990b425344",
        ("pi4-n2", 7, 2001):
            "faeb474814ec62007da381df9751f8261858b2ab4eb5423feddfe632e109c107",
        ("pi4-n2", 4000000000, 1999):
            "f599dc861da990825fed751e418b8cd512d2e4c10e6079e8a7458d74217a38cf",
        ("pi4-n2", 4000000000, 2000):
            "f599dc861da990825fed751e418b8cd512d2e4c10e6079e8a7458d74217a38cf",
        ("pi4-n2", 4000000000, 2001):
            "4fc45a2f4952a4026335ad0066fcb81df0dbbb122ccc499f506eb71a1b0cce44",
        ("pi4-n3", 0, 1999):
            "0613ad5a270c0ece05f130d57aa5217d8666d64c5e66607ae10dbedd0d5a4fec",
        ("pi4-n3", 0, 2000):
            "0613ad5a270c0ece05f130d57aa5217d8666d64c5e66607ae10dbedd0d5a4fec",
        ("pi4-n3", 0, 2001):
            "f05f3badc9750e8687de18b856f2eb2d5d81cc1614f2ecf58c6dd533efe44fb7",
        ("pi4-n3", 7, 1999):
            "27dafe8d6d9e6fd89ac9801f7f6d06360329e2c58bf8d3338cef757729230004",
        ("pi4-n3", 7, 2000):
            "27dafe8d6d9e6fd89ac9801f7f6d06360329e2c58bf8d3338cef757729230004",
        ("pi4-n3", 7, 2001):
            "834ca9239394e9ad91aca4c5b78cb1bb08c6f8e67b9a8304f8bd11c8cd8915a0",
        ("pi4-n3", 4000000000, 1999):
            "76e8cd736adac7a27f6e825d349c55d9d3f34f423f7dbc812d3a99c2c5be0222",
        ("pi4-n3", 4000000000, 2000):
            "63f351ae8a58e366301c3dbc80dd8e3075e459471e6bdd2031b708081ad5195c",
        ("pi4-n3", 4000000000, 2001):
            "bbe39b9c616d5b83119b1b7bc8a85a9149079ce93bf15ea8bee357e01a522486",
        ("phi-n3", 0, 1999):
            "5ea006e74bad93f6b0ddb3844f664867e254360a17b33f9d08fc10a8ce7596d3",
        ("phi-n3", 0, 2000):
            "5ea006e74bad93f6b0ddb3844f664867e254360a17b33f9d08fc10a8ce7596d3",
        ("phi-n3", 0, 2001):
            "388181df012883839095b529de891c4f8e906ea99bb5e3a4dde16d07497b9152",
        ("phi-n3", 7, 1999):
            "a363be0d49f988c6d53d5b739455739a0ef59ee378cb6263bdf0c61fb93f654d",
        ("phi-n3", 7, 2000):
            "a363be0d49f988c6d53d5b739455739a0ef59ee378cb6263bdf0c61fb93f654d",
        ("phi-n3", 7, 2001):
            "f098e998c5252ed37abafe34425afc46911795f93e29295960931873888ff698",
        ("phi-n3", 4000000000, 1999):
            "0557b0412242d56e7c2c821699289be46d4d1fd83d098b94014ece89f718a4d1",
        ("phi-n3", 4000000000, 2000):
            "0557b0412242d56e7c2c821699289be46d4d1fd83d098b94014ece89f718a4d1",
        ("phi-n3", 4000000000, 2001):
            "75c05c7b17fc502ffd0a8619beb7139a528f09012e293b7d177f62262c86462b",
        ("single", 0, 1999):
            "26aa24eb53758908887d56128a064c2d78177c386ed5d6782d65101a8eb4af39",
        ("single", 0, 2000):
            "26aa24eb53758908887d56128a064c2d78177c386ed5d6782d65101a8eb4af39",
        ("single", 0, 2001):
            "26aa24eb53758908887d56128a064c2d78177c386ed5d6782d65101a8eb4af39",
        ("single", 7, 1999):
            "d9e12d6bef1ebced028e323560a8f6fb1caaa8995652fbd88fa772498e0a7fe5",
        ("single", 7, 2000):
            "d9e12d6bef1ebced028e323560a8f6fb1caaa8995652fbd88fa772498e0a7fe5",
        ("single", 7, 2001):
            "d9e12d6bef1ebced028e323560a8f6fb1caaa8995652fbd88fa772498e0a7fe5",
        ("single", 4000000000, 1999):
            "0eea8efa63695cb7a166e0dd4997ba2de4a44839612232a89ea11104026dac47",
        ("single", 4000000000, 2000):
            "0eea8efa63695cb7a166e0dd4997ba2de4a44839612232a89ea11104026dac47",
        ("single", 4000000000, 2001):
            "0eea8efa63695cb7a166e0dd4997ba2de4a44839612232a89ea11104026dac47",
    }

    @pytest.mark.parametrize("config, seed, samples", [
        pytest.param(*key, id="-".join(map(str, key))) for key in DIGESTS])
    def test_csv_bytes_pinned(self, tmp_path, capsys, config, seed,
                              samples):
        path = write_config(tmp_path, dict(self.CONFIGS[config],
                                           seed=seed, samples=samples))
        assert main(["verify-measure", "--config", path,
                     "--out", str(tmp_path)]) == 0
        body = (tmp_path / "verify_measure.csv").read_text().split("\n", 1)[1]
        assert body.count("\n") == 5
        assert hashlib.sha256(body.encode()).hexdigest() == \
            self.DIGESTS[config, seed, samples]


# a small config for each subcommand, and the stdout it gives
MINIMAL = {
    "expand": {"betas": [2], "x": 0.375, "n": 3},
    "cylinders": {"betas": [1.8], "n": 4},
    "count": {"betas": [2], "n": 5},
    "ortho": {"columns": [[1, 2], [3, 4]]},
    "content": {"shape": [[0, 0], [1, 0], [1, 1], [0, 1]], "s": 1.0,
                "depths": [3]},
    "dimension": {"betas": [2, 4], "n_min": 1, "n_max": 2,
                  "target": {"kind": "rotated2d", "theta": "const"}},
    "verify-cover": {"betas": [2, 4], "n_min": 2, "n_max": 2,
                     "taus": [0.015625],
                     "target": {"kind": "rotated2d", "theta": "const",
                                "theta_value": PI4}},
    "verify-measure": {"betas": [2, 4], "n_min": 2, "n_max": 2,
                       "samples": 40,
                       "target": {"kind": "rotated2d", "theta": "const",
                                  "theta_value": PI4}},
}


class TestSubcommandTable:
    """Each row of the subcommand table: its handler's artifact lands in
    --out under the row's file name, and only its own flags parse."""

    @pytest.mark.parametrize("name", list(_SUBCOMMANDS))
    def test_row(self, tmp_path, capsys, name):
        _, artifact, flags = _SUBCOMMANDS[name]
        path = write_config(tmp_path, MINIMAL[name])
        out = tmp_path / "out"
        assert main([name, "--config", path, "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [artifact]
        printed = capsys.readouterr().out
        assert printed == ("32\n" if name == "count"
                           else f"wrote {out / artifact}\n")
        own = {flag for flag, _, _ in flags}
        foreign = next(flag for other in _SUBCOMMANDS.values()
                       for flag, _, _ in other[2] if flag not in own)
        assert main([name, "--config", path, "--out", str(out),
                     foreign, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "cli_io.config"
        # only verify-measure draws, so only it takes --seed
        rc = main([name, "--config", path, "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        if name == "verify-measure":
            assert rc == 0
        else:
            assert rc == 2
            assert json.loads(err)["error"]["code"] == "cli_io.config"


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
    "cylinders-digits-past-int64": _with_config(
        "cylinders", {"betas": [1e19], "n": 1, "node_cap": 10**20}),
    # levels past float range escaped as an OverflowError, and at 10**308
    # the overflowed log magnitudes read as a degenerate frame
    **{f"{sub}-level-past-float": _with_config(
        sub, dict(_rotated(theta_value=0.3), n_min=10**309, n_max=10**309))
       for sub in ("dimension", "verify-cover", "verify-measure")},
    "dimension-frame-past-float": _with_config(
        "dimension", dict(_rotated(theta_value=0.3), n_min=10**308,
                          n_max=10**308)),
    "count-level-past-float": _with_config(
        "count", {"betas": [2], "n": 10**309}),
    "cylinders-level-past-float": _with_config(
        "cylinders", {"betas": [2], "n": 10**309}),
}


class TestErrorReporting:
    def test_memory_error_is_json(self, tmp_path, capsys, monkeypatch):
        from beta_targets import cli_io

        def exhausted(cfg, sha):
            raise MemoryError("simulated")

        _, artifact, flags = cli_io._SUBCOMMANDS["count"]
        monkeypatch.setitem(cli_io._SUBCOMMANDS, "count",
                            (exhausted, artifact, flags))
        assert main(["count", "--beta", "2", "--n", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["code"] == "cli_io.resource_limit"

    def test_axis_origin_of_the_wrong_length(self, tmp_path, capsys):
        # a linear family's origin is refused by the Parallelepiped rule
        argv = _with_config("dimension", _axis(origin=[0.5]))(tmp_path)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "code": "parallelepiped_geometry.domain",
            "message": "origin shape (1,) does not match dimension 2"}

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
        ("verify-cover-tiny-tau", "numerical_lab.scale_range"),
        ("cylinders-digits-past-int64", "beta_dynamics.resource_limit"),
        ("dimension-level-past-float", "dimension_engine.scale_range"),
        ("verify-cover-level-past-float", "dimension_engine.scale_range"),
        ("verify-measure-level-past-float", "dimension_engine.scale_range"),
        ("dimension-frame-past-float", "dimension_engine.scale_range"),
        ("count-level-past-float", "cli_io.resource_limit"),
        ("cylinders-level-past-float", "beta_dynamics.resource_limit"),
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


class TestPathSpelling:
    """The paths that main prints are spelled as pathlib spells them:
    '.' parts and repeated or trailing slashes dropped, '' as '.'."""

    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(
            dict(_rotated(theta_value=0.3), mode="limit")))

    @pytest.mark.parametrize("out, line", [
        ("./o//", "wrote o/dimension.csv\n"),
        ("", "wrote dimension.csv\n"),
    ], ids=["dot-and-slashes", "empty"])
    def test_wrote_line(self, tmp_path, capsys, out, line):
        assert main(["dimension", "--config", "run.json",
                     "--out", out]) == 0
        assert capsys.readouterr().out == line
        path = tmp_path / line.split()[1]
        assert path.read_text().endswith("converged=true\n")

    def refusal(self, name, capsys):
        assert main(["dimension", "--config", name]) == 2
        return json.loads(capsys.readouterr().err)["error"]

    def test_missing_config_message(self, capsys):
        assert self.refusal(".//nothere.json", capsys) == {
            "code": "cli_io.config",
            "message": "cannot read config './/nothere.json': [Errno 2] No "
                       "such file or directory: 'nothere.json'"}

    @pytest.mark.parametrize("name, spelled", [
        ("./cfg//", "cfg"), ("", "."),
    ], ids=["dot-and-slashes", "empty"])
    def test_directory_config_message(self, tmp_path, capsys, name,
                                      spelled):
        (tmp_path / "cfg").mkdir()
        assert self.refusal(name, capsys) == {
            "code": "cli_io.config",
            "message": f"cannot read config {name!r}: [Errno 21] Is a "
                       f"directory: {spelled!r}"}

    def test_non_utf8_config_message(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(b'{"n": \xff}')
        assert self.refusal(".//bad.json", capsys) == {
            "code": "cli_io.config",
            "message": "cannot read config './/bad.json': 'utf-8' codec "
                       "can't decode byte 0xff in position 6: invalid "
                       "start byte"}

    def test_trailing_slash_names_the_file(self, capsys):
        # pathlib drops the trailing slash, so the file is read
        assert main(["dimension", "--config", "run.json/",
                     "--out", "o"]) == 0
        assert capsys.readouterr().out == "wrote o/dimension.csv\n"


class TestParserReuse:
    """main may be called repeatedly in one process: the parser is built
    on the first call, and every call parses its own argv afresh."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        from beta_targets import cli_io
        cli_io._build_parser.cache_clear()

    def artifact(self, argv, name, capsys):
        """(exit code, stdout, artifact bytes) of one main call."""
        rc = main(argv)
        out = capsys.readouterr().out
        return rc, out, Path(argv[argv.index("--out") + 1], name).read_bytes()

    def test_built_once(self):
        from beta_targets import cli_io
        assert cli_io._build_parser() is cli_io._build_parser()

    def test_interleaved_subcommands(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1,0.1,0.1,0.5,0.1,0.0,0.25\n"
                         "2,0.1,0.1,0.25,0.0,0.1,0.125\n")
        # every subcommand, and dimension in both modes and on a table
        configs = [
            ("count", {"betas": [2.5], "n": 8}),
            ("expand", {"betas": [2], "x": 0.375, "n": 3}),
            ("cylinders", {"betas": [1.8], "n": 4}),
            ("dimension", _rotated(theta_value=0.3)),
            ("ortho", {"columns": [[1, 2], [3, 4]]}),
            ("content", {"shape": [[0, 0], [1, 0], [0, 1]], "s": [0.5, 1.5],
                         "depths": [3, 4]}),
            ("verify-cover", dict(_rotated(theta_value=PI4), n_max=1,
                                  taus=[0.25])),
            ("verify-measure", dict(_rotated(theta_value=PI4), n_min=2,
                                    samples=8, seed=5)),
            ("dimension", dict(_rotated(theta_value=0.3), mode="limit")),
            ("dimension", _table(str(table))),
        ]
        calls = []
        for i, (sub, config) in enumerate(configs):
            path = write_config(tmp_path, config, f"{i}.json")
            calls.append(([sub, "--config", path,
                           "--out", str(tmp_path / str(i))],
                          _SUBCOMMANDS[sub][1]))
        first = [self.artifact(argv, name, capsys) for argv, name in calls]
        assert [rc for rc, _, _ in first] == [0] * len(calls)
        # the three dimension runs wrote three different artifacts
        assert len({first[i][2] for i in (3, 8, 9)}) == 3
        for _ in range(2):
            for (argv, name), want in zip(reversed(calls), reversed(first)):
                assert self.artifact(argv, name, capsys) == want

    @pytest.mark.parametrize("interruption, code", [
        (["count", "--bogus", "1"], 2),
        (["dimension", "--nmin", "x"], 2),
        (["solve"], 2),
        (["--help"], 0),
        (["count", "--help"], 0),
    ])
    def test_error_or_help_then_good_call(self, tmp_path, capsys,
                                          interruption, code):
        argv = ["count", "--beta", "2", "--n", "5", "--out", str(tmp_path)]
        first = self.artifact(argv, "count.csv", capsys)
        assert first[:2] == (0, "32\n")
        assert main(interruption) == code
        captured = capsys.readouterr()
        if code == 2:
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["code"] == "cli_io.config"
        else:
            assert "usage: beta-targets" in captured.out
        assert self.artifact(argv, "count.csv", capsys) == first

    def test_no_flag_carries_over(self, tmp_path, capsys):
        # the config-only call takes betas, n and out from its config, and
        # the plain call has no seed, whatever the calls between them set
        path = write_config(tmp_path, {"betas": [1.8], "n": 4,
                                       "out": str(tmp_path / "config")})
        config_only = ["count", "--config", path]
        plain = ["count", "--beta", "2", "--n", "5",
                 "--out", str(tmp_path / "flags")]
        seeded = plain + ["--config", write_config(tmp_path, {"seed": 3},
                                                   "seed.json")]

        def call(argv):
            rc = main(argv)
            out = (tmp_path / ("config" if argv is config_only else "flags")
                   / "count.csv").read_bytes()
            return rc, capsys.readouterr().out, out

        first = {"config": call(config_only), "plain": call(plain)}
        assert first["config"][:2] == (0, "13\n")
        assert first["plain"][:2] == (0, "32\n")
        assert call(seeded)[2] != first["plain"][2]
        assert call(config_only) == first["config"]
        assert call(plain) == first["plain"]
