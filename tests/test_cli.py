import copy
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from casfric import cli, units
from casfric.dielectric import (MediumSpec, dense_alpha_retarded, load_tabulated,
                                spectral_density)
from casfric.friction import (PlateSystem, friction_dense, friction_dilute,
                              friction_drude_closed_form, h0_integrand)
from casfric.presets import GOLD
from casfric.quadrature import QuadratureSpec


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def gold_config(route="drude-closed-form", **overrides):
    cfg = {
        "system": {
            "medium1": {"preset": "gold"},
            "medium2": {"preset": "gold"},
            "d_nm": 10.0,
            "v_m_per_s": 100.0,
            "T_K": 300.0,
        },
        "route": route,
    }
    cfg.update(overrides)
    return cfg


def hybrid_config(tmp_path):
    """A linear per-particle probe spectrum 1 nm above gold."""
    table = tmp_path / "probe.txt"
    m = np.linspace(0.0, 60.0, 600)
    table.write_text("\n".join(f"{mi} {5e-5 * mi}" for mi in m))
    return {
        "system": {
            "medium1": {"model": "tabulated", "path": str(table),
                        "density_per_nm3": 0.01},
            "medium2": {"preset": "gold"},
            "z0_nm": 1.0,
            "v_m_per_s": 100.0,
            "T_K": 300.0,
        },
        "route": "hybrid",
    }


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """``text`` parsed as JSON that holds no NaN or Infinity."""
    return json.loads(text, parse_constant=_not_json)


class TestCompute:
    def test_gold_reference_record(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config())
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        record = json.loads(out)
        assert record["result"]["force"] == pytest.approx(3.29e-11, rel=5e-3)
        assert record["result"]["force_units"] == "Pa"
        assert record["result"]["route"] == "drude-closed-form"

    def test_keep_record_keys(self, tmp_path, capsys):
        cfg = gold_config(route="dense-full", denominators="keep")
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        result = json.loads(out)["result"]
        assert sorted(result) == ["G", "H0", "converged", "direction",
                                  "evaluations", "force", "force_units",
                                  "note", "quadrature_error", "route"]
        assert result["converged"] is True
        assert result["note"] == "denominators=keep"

    @pytest.mark.parametrize("route, denominators", [
        ("dense-full", "drop"), ("dense-full", "keep"),
        ("drude-closed-form", "drop")])
    def test_evaluations_are_the_library_count(self, tmp_path, capsys, route,
                                               denominators):
        cfg = gold_config(route=route, denominators=denominators)
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        system = PlateSystem(MediumSpec(GOLD.model), MediumSpec(GOLD.model),
                             10.0, 100.0, 300.0)
        library = (friction_dense(system, denominators)
                   if route == "dense-full"
                   else friction_drude_closed_form(system))
        evaluations = json.loads(out)["result"]["evaluations"]
        assert evaluations == library.evaluations
        assert evaluations == (303 if route == "dense-full" else 0)
        # the CSV row and the sweep rows, JSON and CSV, carry it too
        code, out, _ = run_cli(capsys, ["compute", "--config", path,
                                        "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["evaluations"] for row in rows] == [str(evaluations)]
        path = write_json(tmp_path, "sweep.json", {
            "base": cfg, "axis": "d", "values": [10.0, 20.0]})
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert [row["evaluations"] for row in json.loads(out)] == \
            [evaluations] * 2
        code, out, _ = run_cli(capsys, ["sweep", "--config", path,
                                        "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["evaluations"] for row in rows] == [str(evaluations)] * 2

    def test_zero_velocity(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["v_m_per_s"] = 0.0
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        assert json.loads(out)["result"]["force"] == 0.0

    def test_csv_output(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config())
        out_path = tmp_path / "result.csv"
        code, _, _ = run_cli(capsys, ["compute", "--config", path,
                                      "--format", "csv",
                                      "--out", str(out_path)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["route", "force", "force_units", "H0", "G",
                           "quadrature_error", "converged", "evaluations"]
        assert float(rows[1][1]) == pytest.approx(3.29e-11, rel=5e-3)

    def test_roundtrip_bit_identical(self, tmp_path, capsys):
        cfg = gold_config(route="dense-full")
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out1, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        # re-run from the config embedded in the emitted record
        record = json.loads(out1)
        path2 = write_json(tmp_path, "cfg2.json", record["config"])
        code, out2, _ = run_cli(capsys, ["compute", "--config", path2])
        assert code == 0
        assert out1 == out2

    def test_plasma_dense_rejected_exit3(self, tmp_path, capsys):
        cfg = gold_config(route="dense-full")
        cfg["system"]["medium1"] = {"model": "plasma", "plasma_energy_ev": 9.0}
        cfg["system"]["medium2"] = {"model": "plasma", "plasma_energy_ev": 9.0}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, out) == (3, "")
        assert err.startswith("physics error: Drude(plasma_energy_ev=9.0, "
                              "damping_ev=0.0) has no continuous spectral "
                              "density: its whole strength is one discrete "
                              "line at 6.36396 eV")

    def test_schema_violation_exit2(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["unknown_knob"] = 1
        path = write_json(tmp_path, "cfg.json", cfg)
        code, _, err = run_cli(capsys, ["compute", "--config", path])
        assert code == 2
        assert ".system" in err and "unknown_knob" in err

    def test_missing_field_paths(self, tmp_path, capsys):
        cfg = gold_config()
        del cfg["system"]["d_nm"]
        path = write_json(tmp_path, "cfg.json", cfg)
        code, _, err = run_cli(capsys, ["compute", "--config", path])
        assert code == 2
        assert ".system.d_nm" in err

    def test_negative_gap_rejected(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["d_nm"] = -1.0
        path = write_json(tmp_path, "cfg.json", cfg)
        code, _, err = run_cli(capsys, ["compute", "--config", path])
        assert code == 2

    def test_hybrid_route(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", hybrid_config(tmp_path))
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        record = json.loads(out)
        assert record["result"]["force_units"] == "N"
        assert record["result"]["force"] > 0


    @pytest.mark.parametrize("route, key", [("hybrid", "d_nm"),
                                            ("dense-full", "z0_nm"),
                                            ("drude-closed-form", "z0_nm")])
    def test_gap_key_the_route_does_not_read(self, tmp_path, capsys, route,
                                             key):
        cfg = hybrid_config(tmp_path) if route == "hybrid" \
            else gold_config(route=route)
        cfg["system"][key] = 5.0
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: .system.{key}: is not read by "
                              f"the {route} route")

    @pytest.mark.parametrize("key, literal", [
        ("v_m_per_s", "NaN"), ("d_nm", "Infinity"), ("T_K", "-Infinity"),
        ("d_nm", "1" + "0" * 400)])
    def test_non_finite_number_exit2(self, tmp_path, capsys, key, literal):
        text = json.dumps(gold_config(route="dense-full"))
        text = re.sub(f'"{key}": [^,}}]+', f'"{key}": {literal}', text)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["compute", "--config", str(path)])
        assert (code, out) == (2, "")
        bound = ">=" if key == "v_m_per_s" else ">"
        assert err == (f"config error: .system.{key}: must be finite and "
                       f"{bound} 0, got {json.loads(literal)!r}\n")

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        plain = write_json(tmp_path, "plain.json", gold_config())
        marked = tmp_path / "marked.json"
        marked.write_text("\ufeff" + json.dumps(gold_config()), encoding="utf-8")
        expected = run_cli(capsys, ["compute", "--config", plain])
        assert expected[0] == 0
        assert run_cli(capsys, ["compute", "--config", str(marked)]) == expected

    @pytest.mark.parametrize("row", ["1.0 abc", "1.0 nan", "inf 0.2"])
    def test_bad_table_number_exit3(self, tmp_path, capsys, row):
        table = tmp_path / "plate.txt"
        table.write_text(f"0.0 0.0\n{row}\n2.0 0.1\n")
        cfg = gold_config(route="dense-full")
        cfg["system"]["medium1"] = {"model": "tabulated", "path": str(table)}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, out) == (3, "")
        assert err == (f"physics error: {table}:2: expected two finite "
                       f"numbers, got '{row}\\n'\n")

    @pytest.mark.parametrize("rows, message", [
        ("0.0 0.0\n", "tabulated model needs two same-length 1-D columns "
                      "with at least 2 samples"),
        ("0.0 0.0\n2.0 0.1\n1.0 0.2\n",
         "tabulated m grid must be strictly increasing"),
        ("0.0 0.0\n1.0 -0.1\n2.0 0.1\n",
         "tabulated spectral values must be >= 0"),
        ("0.0 0.3\n1.0 0.2\n2.0 0.1\n",
         "a tabulated density must vanish at m = 0")],
        ids=["one-row", "non-increasing", "negative", "nonzero-at-0"])
    def test_bad_table_names_its_file_exit3(self, tmp_path, capsys, rows,
                                            message):
        table = tmp_path / "plate.txt"
        table.write_text(rows)
        cfg = gold_config(route="dense-full")
        cfg["system"]["medium1"] = {"model": "tabulated", "path": str(table)}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, out) == (3, "")
        assert err == f"physics error: {table}: {message}\n"


class TestMalformedInput:
    """Malformed input exits 2 naming its field, never with a traceback."""

    CASES = {
        "preset-list": (".system.medium1.preset",
                        "must be a preset name string"),
        "preset-unknown": (".system.medium2.preset",
                           "unknown preset 'silver'; available: "
                           "['gold', 'pendry97']"),
        "config-not-utf8": ("--config", "cannot read: 'utf-8' codec"),
        "table-not-utf8": (".system.medium1.path",
                           "cannot read table: 'utf-8' codec"),
        "table-not-utf8-late": (".system.medium1.path",
                                "cannot read table: 'utf-8' codec"),
        "table-path-nul": (".system.medium1.path",
                           "cannot read table: embedded null byte"),
        "max-subdivisions-bool": (".quadrature.max_subdivisions",
                                  "must be a positive integer"),
        "count-bool": (".values.count", "must be a positive integer"),
        "output-block": (".", "unknown keys ['output']"),
        "out-missing-dir": ("--out", "cannot write: [Errno 2] No such file "
                            "or directory"),
        "out-is-dir": ("--out", "cannot write: [Errno 21] Is a directory"),
        "sweep-out-missing-dir": ("--out", "cannot write: [Errno 2] No such "
                                  "file or directory"),
        "sweep-out-is-dir": ("--out", "cannot write: [Errno 21] Is a "
                             "directory"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit2(self, tmp_path, capsys, case):
        cfg = gold_config(route="dense-full")
        system = cfg["system"]
        if case == "preset-list":
            system["medium1"] = {"preset": ["gold"]}
        elif case == "preset-unknown":
            system["medium2"] = {"preset": "silver"}
        elif case.startswith("table-not-utf8"):
            table = tmp_path / "plate.txt"
            data = b"0.0 0.0\n# \xff\n2.0 0.1\n"
            if case == "table-not-utf8-late":
                # a file not UTF-8 past its first 8 KiB exits 2 even
                # after a bad row: the table is decoded before any row
                data = b"0.0 abc\n" + b"1.0 0.1\n" * 2000 + b"# \xff\n"
            table.write_bytes(data)
            system["medium1"] = {"model": "tabulated", "path": str(table)}
        elif case == "table-path-nul":
            system["medium1"] = {"model": "tabulated", "path": "plate\u0000.txt"}
        elif case == "max-subdivisions-bool":
            cfg["quadrature"] = {"max_subdivisions": True}
        elif case == "output-block":
            cfg["output"] = {"format": "csv", "path": str(tmp_path / "o.csv")}
        command = "compute"
        if case == "count-bool":
            command = "sweep"
            cfg = {"base": cfg, "axis": "d",
                   "values": {"min": 5.0, "max": 50.0, "count": True}}
        elif case.startswith("sweep-"):
            command = "sweep"
            cfg = {"base": cfg, "axis": "d", "values": [10.0, 20.0]}
        extra = []
        if case.endswith("out-missing-dir"):
            extra = ["--out", str(tmp_path / "missing" / "out.json")]
        elif case.endswith("out-is-dir"):
            extra = ["--out", str(tmp_path)]
        path = write_json(tmp_path, "cfg.json", cfg)
        if case == "config-not-utf8":
            (tmp_path / "cfg.json").write_bytes(b'{"route": "\xff"}')
        code, out, err = run_cli(capsys, [command, "--config", path, *extra])
        assert (code, out) == (2, "")
        field, message = self.CASES[case]
        assert err.startswith(f"config error: {field}: {message}")


_DELETE = object()


def _set(*path, value=_DELETE):
    """A config edit: set ``value`` at the key path ``path`` of a config,
    or delete the key there when no value is given."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return cfg
    return edit


def _sweep(**fields):
    """A d-sweep over the edited config, with ``fields`` replaced; a
    field set to None is left out."""
    def edit(cfg):
        sweep = {"base": cfg, "axis": "d", "values": [10.0, 20.0], **fields}
        return {k: v for k, v in sweep.items() if v is not None}
    return edit


class TestConfigErrorPaths:
    """Each schema and argument check ends in exit 2 with one stderr
    line naming its field path."""

    # id: (command, config edit, extra argv, "field path: message start")
    CASES = {
        "config-not-object": ("compute", lambda cfg: [cfg], [],
                              ".: must be an object"),
        "system-not-object": ("compute", _set("system", value=5), [],
                              ".system: must be an object"),
        "not-a-number": ("compute", _set("system", "T_K", value="300"), [],
                         ".system.T_K: must be a real number, got '300'\n"),
        "negative-speed": ("compute", _set("system", "v_m_per_s",
                                           value=-1.0), [],
                           ".system.v_m_per_s: must be finite and >= 0, got -1.0\n"),
        "medium-no-model": ("compute", _set("system", "medium1", value={}),
                            [], ".system.medium1: missing 'model'"),
        "table-path-not-string": ("compute", _set(
            "system", "medium1", value={"model": "tabulated", "path": 3}),
            [], ".system.medium1.path: must be a file path"),
        "unknown-model": ("compute", _set("system", "medium2",
                                          value={"model": "silver"}), [],
                          ".system.medium2.model: must be one of"),
        "unknown-route": ("compute", _set("route", value="warp"), [],
                          ".route: must be one of"),
        "missing-medium2": ("compute", _set("system", "medium2"), [],
                            ".system.medium2: is required"),
        "bad-denominators": ("compute", _set("denominators", value="maybe"),
                             [], ".denominators: must be 'drop'"),
        "sweep-no-base": ("sweep", _sweep(base=None), [],
                          ".base: is required"),
        "sweep-bad-scale": ("sweep", _sweep(values={
            "min": 5.0, "max": 50.0, "count": 3, "scale": "cubic"}), [],
            ".values.scale: must be"),
        "sweep-min-not-below-max": ("sweep", _sweep(values={
            "min": 5.0, "max": 5.0, "count": 3}), [],
            ".values: need min < max"),
        "sweep-log-min-zero": ("sweep", _sweep(values={
            "min": 0.0, "max": 5.0, "count": 3, "scale": "log"}), [],
            ".values.min: must be finite and > 0, got 0.0\n"),
        "sweep-values-type": ("sweep", _sweep(values="10"), [],
                              ".values: must be a list"),
        "sweep-value-out-of-domain": ("sweep", _sweep(values=[10.0, -1.0]), [],
                                      ".values[1]: must be finite and > 0, got -1.0\n"),
        "m-grid-two-parts": ("spectra", None, ["--m-grid", "1:2"],
                             "--m-grid: expected MIN:MAX"),
        "m-grid-bad-scale": ("spectra", None, ["--m-grid", "1:2:3:cubic"],
                             "--m-grid: scale must be"),
        "invalid-json": ("compute", None, [], "--config: invalid JSON"),
        # numpy refuses these counts before it allocates anything
        "sweep-count-too-large": ("sweep", _sweep(values={
            "min": 1, "max": 2, "count": 10**30}), [],
            ".values.count: cannot make a grid"),
        "sweep-log-count-too-large": ("sweep", _sweep(values={
            "min": 1, "max": 2, "count": 10**30, "scale": "log"}), [],
            ".values.count: cannot make a grid"),
        "m-grid-count-too-large": ("spectra", None,
                                   ["--m-grid", f"1:2:{10**30}"],
                                   "--m-grid: cannot make a grid"),
        "m-grid-log-count-too-large": ("spectra", None,
                                       ["--m-grid", f"1:2:{10**30}:log"],
                                       "--m-grid: cannot make a grid"),
        "compute-nested-too-deeply": ("compute", None, [],
                                      "--config: invalid JSON: nested too "
                                      "deeply"),
        "sweep-nested-too-deeply": ("sweep", None, [],
                                    "--config: invalid JSON: nested too "
                                    "deeply"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit2_one_line_with_field(self, tmp_path, capsys, case):
        command, edit, extra, where = self.CASES[case]
        cfg = gold_config(route="dense-full")
        path = write_json(tmp_path, "cfg.json", edit(cfg) if edit else cfg)
        if case == "invalid-json":
            (tmp_path / "cfg.json").write_text('{"route": ')
        elif case.endswith("nested-too-deeply"):
            # past the recursion limit of the JSON decoder
            (tmp_path / "cfg.json").write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, [command, "--config", path, *extra])
        assert (code, out) == (2, "")
        assert err.endswith("\n") and err.count("\n") == 1
        assert err.startswith(f"config error: {where}")

    @pytest.mark.parametrize("command", ["sweep", "spectra"])
    def test_grid_out_of_memory(self, tmp_path, capsys, monkeypatch, command):
        # numpy's MemoryError on a grid it cannot allocate, raised here by
        # a stand-in so that nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.np, "linspace", refuse)
        cfg, extra = gold_config(route="dense-full"), ["--m-grid", "1:2:3"]
        if command == "sweep":
            cfg = {"base": cfg, "axis": "d",
                   "values": {"min": 1, "max": 2, "count": 3}}
            extra = []
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path, *extra])
        assert (code, out) == (2, "")
        where = ".values.count" if command == "sweep" else "--m-grid"
        assert err == f"config error: {where}: cannot make a grid of 3 values\n"


class TestDenominatorsNeedTheDenseRoute:
    """Only dense-full screens: ``"keep"`` on any other route is a
    configuration error, and ``"drop"`` is accepted everywhere."""

    @staticmethod
    def config(tmp_path, route, denominators):
        if route == "drude-closed-form":
            cfg = gold_config()
        else:
            cfg = hybrid_config(tmp_path)
            if route == "dilute":
                system = cfg["system"]
                system["medium2"] = system["medium1"]
                system["d_nm"] = system.pop("z0_nm")
                cfg["route"] = "dilute"
        cfg["denominators"] = denominators
        return cfg

    @pytest.mark.parametrize("route", ["drude-closed-form", "dilute", "hybrid"])
    @pytest.mark.parametrize("denominators", ["drop", "keep"])
    def test_compute(self, tmp_path, capsys, route, denominators):
        path = write_json(tmp_path, "cfg.json",
                          self.config(tmp_path, route, denominators))
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        if denominators == "drop":
            assert (code, err) == (0, "")
            assert json.loads(out)["result"]["route"] == route
        else:
            assert (code, out) == (2, "")
            assert err == (f"config error: .denominators: 'keep' is not read "
                           f"by the {route} route; only dense-full screens\n")

    def test_sweep_base(self, tmp_path, capsys):
        cfg = {"base": self.config(tmp_path, "hybrid", "keep"), "axis": "d",
               "values": [1.0, 2.0]}
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("config error: .base.denominators: 'keep' is "
                              "not read by the hybrid route")

    def test_compare(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json",
                          self.config(tmp_path, "drude-closed-form", "keep"))
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("config error: .denominators: 'keep' is not "
                              "read by the drude-closed-form route")


class TestInfiniteScreenedKernel:
    """A table whose static response A(0) = 1.121 faces gold in ``keep``:
    z(0) = 1.121 > 1 puts a pole in the screening, a physics error."""

    @staticmethod
    def config(tmp_path):
        m = np.linspace(0.0, 4.0, 400)
        table = tmp_path / "kinked.txt"
        table.write_text("\n".join(
            f"{a!r} {b!r}" for a, b in zip(m.tolist(), (
                m * np.exp(-(m - 2.0) ** 2 / 0.1)).tolist())))
        cfg = gold_config(route="dense-full", denominators="keep")
        cfg["system"]["medium1"] = {"model": "tabulated", "path": str(table)}
        cfg["system"]["T_K"] = 150.0
        return cfg

    def test_compute(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", self.config(tmp_path))
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, out) == (3, "")
        assert err.startswith("physics error: denominators='keep' needs "
                              "z(0) = A1(0)*A2(0) <= 1, got z(0) = 1.121")

    def test_spectra(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", self.config(tmp_path))
        code, out, err = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", "0.1:5:3"])
        assert (code, out) == (3, "")
        assert err.startswith("physics error: denominators='keep' needs "
                              "z(0) = A1(0)*A2(0) <= 1, got z(0) = 1.121")

    def test_temperature_sweep(self, tmp_path, capsys):
        cfg = {"base": self.config(tmp_path), "axis": "T",
               "values": [150.0, 300.0]}
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (3, "")
        rows = json.loads(out)
        assert [r["T"] for r in rows] == [150.0, 300.0]
        assert all("z(0) = 1.121" in r["error"] and r["force"] == ""
                   for r in rows)


def out_of_range(t_k):
    """The message of an overlap integrand that leaves the float range at
    ``t_k``."""
    return f"the overlap integrand leaves the float range at T_K = {t_k!r} K"


def limits_of(overlap_limits, path):
    """``overlap_limits`` of the media and temperature of the compute
    config at ``path``, and the share of the overlap that is its H0: one
    half on the hybrid route (see friction_hybrid)."""
    parsed = cli.parse_run_config(json.loads(Path(path).read_text()))
    system = parsed["system"]
    limits = overlap_limits(system.T_K, system.medium1.model,
                            system.medium2.model)
    return limits, 0.5 if parsed["route"] == "hybrid" else 1.0


def assert_meets(result, limit, limits):
    """H0 of a compute result lies within its claimed error, plus the
    oracle's, of ``limit``."""
    assert abs(result["H0"] / limit - 1.0) <= (result["quadrature_error"]
                                               + limits.rel_err), result


class TestTableEnergyRange:
    """Tables whose energies leave the range the forces can be formed on
    end in one line and exit 3, with no RuntimeWarning; far below k_B*T
    they meet the overlap's limits."""

    @staticmethod
    def config(tmp_path, route, rows, denominators="drop", density=1.0,
               t_k=300.0, **overrides):
        table = tmp_path / "table.txt"
        table.write_text("".join(f"{m!r} {v!r}\n" for m, v in rows))
        medium = {"model": "tabulated", "path": str(table)}
        cfg = gold_config(route=route, denominators=denominators, **overrides)
        if route == "dilute":
            medium["density_per_nm3"] = density
            cfg["system"]["medium2"] = medium
        cfg["system"]["medium1"] = medium
        cfg["system"]["T_K"] = t_k
        return write_json(tmp_path, "cfg.json", cfg)

    @staticmethod
    def compute(capsys, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(capsys, ["compute", "--config", path])

    @pytest.mark.parametrize("route", ["dilute", "dense-full"])
    def test_two_tables_of_zeros(self, tmp_path, capsys, route):
        # tables of zeros from m = 0 state no spectral feature, so the
        # overlap's cap is the thermal window alone: max() of the window
        # and no hints printed a TypeError traceback and exited 1
        path = self.config(tmp_path, route, [(0.0, 0.0), (1.0, 0.0)])
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["system"]["medium2"] = cfg["system"]["medium1"]
        code, out, err = self.compute(capsys,
                                      write_json(tmp_path, "cfg.json", cfg))
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["H0"], result["converged"]) == (0.0, True)

    @pytest.mark.parametrize("route", ["dilute", "dense-full"])
    @pytest.mark.parametrize("top", [1e-146, 1e-148])
    def test_support_far_below_k_t(self, tmp_path, capsys, overlap_limits,
                                   route, top):
        # 1/sinh(m/(2 k_B T))**2 overflowed below m ~ 3e-154 k_B T, which
        # the probe or the first pass reached: exit 3, or a force, as the
        # last bits of the probe decided.  The bounded weight computes
        # them on every target: dilute meets the classical limit, and
        # dense-full, against gold, the small-support limit.
        path = self.config(tmp_path, route, [(0.0, 0.0), (top / 2, 1e-3), (top, 0.0)])
        code, out, err = self.compute(capsys, path)
        assert (code, err) == (0, "")
        limits, _ = limits_of(overlap_limits, path)
        assert_meets(json.loads(out)["result"], limits.classical
                     if route == "dilute" else limits.small_support, limits)

    # The dilute force under numpy 2.4 at dispatch level X86_V3, 3 ulp
    # below the AVX512_SPR one the parameter holds (without the AVX-512
    # kernels np.sinh rounds differently); on other targets only the
    # limit is checked.
    X86_V3_FORCE = {"dilute": "0x1.df9d8de36fb14p+410"}

    @pytest.mark.parametrize("route, force", [
        ("dilute", "0x1.df9d8de36fb17p+410"), ("dense-full", "0x1.0beab664794c1p-29")])
    def test_support_inside_the_bound_keeps_its_force(
            self, tmp_path, capsys, dispatch_target, overlap_limits, route,
            force):
        path = self.config(tmp_path, route, [(0.0, 0.0), (5e-131, 1e-3), (1e-130, 0.0)])
        code, out, err = self.compute(capsys, path)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        want = {("2.4", "x86_64", "AVX512_SPR"): force,
                ("2.4", "x86_64", "X86_V3"): self.X86_V3_FORCE.get(route, force),
                }.get(dispatch_target)
        if want is not None:
            assert result["force"] == float.fromhex(want)
        limits, _ = limits_of(overlap_limits, path)
        assert_meets(result, limits.classical if route == "dilute"
                     else limits.small_support, limits)

    def test_peak_hint_far_below_k_t(self, tmp_path, capsys, overlap_limits):
        # the table's peak at 1e-200 eV is a probe point, where the weight
        # overflowed, giving force nan with a RuntimeWarning.  The
        # integrand runs as 1/m over 198 decades below k_B*T, which the
        # default abs_tol passes unresolved (ROADMAP item 3): at a relative
        # tolerance only, the force meets the oracle.
        path = self.config(tmp_path, "dense-full", [(1e-200, 1e-3), (1.0, 0.0)],
                           quadrature={"abs_tol": 1e-300, "rel_tol": 1e-10})
        code, out, err = self.compute(capsys, path)
        assert (code, err) == (0, "")
        limits, _ = limits_of(overlap_limits, path)
        assert_meets(json.loads(out)["result"], limits.exact, limits)

    @pytest.mark.parametrize("route, rows, t_k", [
        ("dilute", [(0.0, 0.0), (1.0, 1e200), (2.0, 0.0)], 300.0),
        ("dense-full", [(0.0, 0.0), (5e-311, 1.0), (1e-310, 0.0)], 1e-290)],
        ids=["dilute-product", "drop-slope"])
    def test_overlap_past_the_float_range(self, tmp_path, capsys, route, rows,
                                          t_k):
        # dilute: S1*S2 = 1e400 at 1 eV; drop: the slope 2e310 per eV is
        # inf inside np.interp, times gold's density, which underflows to 0
        # on the first pass's lowest nodes
        path = self.config(tmp_path, route, rows, density=0.05, t_k=t_k)
        code, out, err = self.compute(capsys, path)
        assert (code, out) == (3, "")
        assert err == f"physics error: {out_of_range(t_k)}\n"

    @pytest.mark.parametrize("rows, slope", [
        ([(0.0, 0.0), (1e-300, 1e8), (1.0, 0.0)], "1e+308"),
        ([(0.0, 0.0), (0.01, 1e306), (1.0, 0.0)], "1e+308"),
        ([(0.0, 0.0), (0.5, 1.7e308), (1.0, 0.0)], "inf")])
    def test_slope_past_the_float_range(self, tmp_path, capsys, rows, slope):
        # under keep, pi*slope overflowed: "z(0) = inf" with RuntimeWarnings
        path = self.config(tmp_path, "dense-full", rows, "keep")
        code, out, err = self.compute(capsys, path)
        assert (code, out) == (3, "")
        assert err == ("physics error: the tabulated density is too steep for "
                       f"its surface response: its slope {slope} per eV, times "
                       "max(m_top, 1 eV), exceeds 4.49423e+307, so the "
                       "response's constants leave the float range\n")

    def test_static_response_past_the_float_range(self, tmp_path, capsys):
        # under keep, A(0) overflowed: "z(0) = inf" with a RuntimeWarning
        path = self.config(tmp_path, "dense-full",
                           [(1.0, 1.7e308), (2.0, 1.7e308)], "keep")
        code, out, err = self.compute(capsys, path)
        assert (code, out) == (3, "")
        assert err == ("physics error: the tabulated density's static "
                       "response A(0), the integral of 2*S(m)/m, leaves the "
                       "float range\n")

    def test_steep_slope_under_drop(self, tmp_path, capsys):
        # drop forms no response constants: the same table keeps its force
        path = self.config(tmp_path, "dense-full",
                           [(0.0, 0.0), (0.01, 1e306), (1.0, 0.0)])
        code, out, err = self.compute(capsys, path)
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)["result"]["force"])

    @pytest.mark.parametrize("denominators", ["drop", "keep"])
    def test_grid_past_1e76_ev(self, tmp_path, capsys, denominators):
        # under keep, m**2 overflowed in A(0): "z(0) = inf" with a RuntimeWarning
        path = self.config(tmp_path, "dense-full",
                           [(0.0, 0.0), (1e150, 1e-3), (1e200, 0.0)], denominators)
        code, out, err = self.compute(capsys, path)
        assert (code, out) == (3, "")
        assert err == (f"physics error: {tmp_path / 'table.txt'}: tabulated m "
                       "grid must end at or below 1e+76 eV\n")

    def test_grid_too_low_for_its_broadening(self, tmp_path, capsys):
        # the broadening 1e-6*m_top rounds to 0
        path = self.config(tmp_path, "dense-full", [(0.0, 0.0), (1e-318, 1e-3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "spectra", "--config", path, "--m-grid", "0.5:2:2"])
        assert (code, out) == (3, "")
        assert err == (f"physics error: {tmp_path / 'table.txt'}: tabulated m grid "
                       "ends too low: its broadening 1e-6*m_top is 0\n")

    def test_grid_ending_at_1e76_ev_loads(self, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("0 0\n1 1e-3\n1e76 0\n")
        assert load_tabulated(table).m_ev[-1] == 1e76


class TestQuadratureBlock:
    """A config's quadrature block reaches the route it runs."""

    SPEC = {"abs_tol": 1e-14, "rel_tol": 1e-12, "max_subdivisions": 500}

    def test_spec_reaches_the_route(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config(
            route="dense-full", quadrature=self.SPEC))
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        system = PlateSystem(MediumSpec(GOLD.model), MediumSpec(GOLD.model),
                             10.0, 100.0, 300.0)
        library = friction_dense(system, spec=QuadratureSpec(**self.SPEC))
        assert json.loads(out)["result"] == cli._result_fields(library)
        assert library.quadrature_error != friction_dense(system) \
            .quadrature_error

    def test_dilute_route(self, tmp_path, capsys):
        # the hybrid probe on both plates, 1 nm apart
        cfg = hybrid_config(tmp_path)
        system = cfg["system"]
        system.update(medium2=system["medium1"], d_nm=system.pop("z0_nm"))
        cfg.update(route="dilute", quadrature=self.SPEC)
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        probe = MediumSpec(load_tabulated(system["medium1"]["path"]), 0.01)
        library = friction_dilute(PlateSystem(probe, probe, 1.0, 100.0,
                                              300.0),
                                  spec=QuadratureSpec(**self.SPEC))
        assert json.loads(out)["result"] == cli._result_fields(library)

    def test_unconverged_sweep_exits4_with_rows(self, tmp_path, capsys):
        # one subdivision cannot reach 1e-15: every row is flagged
        base = gold_config(route="dense-full", quadrature={
            "abs_tol": 1e-300, "rel_tol": 1e-15, "max_subdivisions": 1})
        path = write_json(tmp_path, "sweep.json", {
            "base": base, "axis": "d", "values": [10.0, 20.0]})
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 4
        rows = json.loads(out)
        assert [r["d"] for r in rows] == [10.0, 20.0]
        assert [r["converged"] for r in rows] == [False, False]
        assert all(math.isfinite(r["force"]) and r["error"] == ""
                   for r in rows)


class TestSweep:
    def sweep_config(self, **kw):
        cfg = {
            "base": gold_config(route="dense-full"),
            "axis": "d",
            "values": {"min": 5.0, "max": 50.0, "count": 5, "scale": "log"},
        }
        cfg.update(kw)
        return cfg

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_values_are_plain_floats(self, scale):
        # a numpy gap would make every force of the row a numpy scalar
        sweep = cli.parse_sweep_config(self.sweep_config(
            values={"min": 5.0, "max": 50.0, "count": 3, "scale": scale}))
        assert [type(v) for v in sweep["values"]] == [float] * 3

    def test_gap_sweep_power_law(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", self.sweep_config())
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        ds = np.array([r["d"] for r in rows])
        fs = np.array([r["force"] for r in rows])
        slope = np.polyfit(np.log(ds), np.log(fs), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.01)

    def test_velocity_sweep_linear(self, tmp_path, capsys):
        cfg = self.sweep_config(axis="v", values=[10.0, 20.0, 40.0])
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = json.loads(out)
        assert rows[1]["force"] == pytest.approx(2 * rows[0]["force"], rel=1e-12)
        assert rows[2]["force"] == pytest.approx(4 * rows[0]["force"], rel=1e-12)

    def test_single_value_matches_compute(self, tmp_path, capsys):
        cfg = self.sweep_config(values=[10.0])
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        row = json.loads(out)[0]
        path2 = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        code, out2, _ = run_cli(capsys, ["compute", "--config", path2])
        record = json.loads(out2)
        assert row["force"] == record["result"]["force"]

    def test_row_error_recorded_without_abort(self, tmp_path, capsys):
        # damping sweep through zero: zero damping turns the medium into
        # a pure line, which the dense route rejects row-wise
        cfg = self.sweep_config(axis="damping", values=[0.035, 0.0, 0.07])
        cfg["base"]["system"]["medium1"] = {"model": "drude",
                                            "plasma_energy_ev": 9.0,
                                            "damping_ev": 0.035}
        cfg["base"]["system"]["medium2"] = dict(cfg["base"]["system"]["medium1"])
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path,
                                        "--format", "csv"])
        assert code == 3
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4  # header + 3 rows
        assert rows[2][-1] != ""  # error recorded in-row
        assert rows[1][-1] == "" and rows[3][-1] == ""

    def test_deterministic_row_order(self, tmp_path, capsys):
        cfg = self.sweep_config(values=[50.0, 5.0, 20.0])
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        rows = json.loads(out)
        assert [r["d"] for r in rows] == [50.0, 5.0, 20.0]

    def test_hybrid_gap_sweep_moves_z0(self, tmp_path, capsys):
        cfg = {"base": hybrid_config(tmp_path), "axis": "d",
               "values": [1.0, 1.5, 2.5]}
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = json.loads(out)
        assert [r["d"] for r in rows] == [1.0, 1.5, 2.5]
        for row in rows[1:]:
            assert row["force"] * row["d"] ** 5 == pytest.approx(
                rows[0]["force"], rel=1e-12)

    def test_overflowing_gap_is_row_error(self, tmp_path, capsys):
        cfg = self.sweep_config(values=[10.0, 1e308])
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (3, "")
        rows = json.loads(out)
        assert rows[0]["error"] == "" and rows[0]["force"] > 0.0
        assert rows[1]["error"] == ("the geometric factor 3*pi*rho1*rho2/"
                                    "(8 d**4) leaves the float range")

    def test_bad_axis_exit2(self, tmp_path, capsys):
        cfg = self.sweep_config(axis="separation")
        path = write_json(tmp_path, "sweep.json", cfg)
        code, _, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2

    def plasma_damping_sweep(self, tmp_path, capsys, model):
        medium = {"model": model, "plasma_energy_ev": 9.0}
        if model == "drude":
            medium["damping_ev"] = 0.035
        cfg = self.sweep_config(axis="damping", values=[0.035, 0.0, 0.07])
        cfg["base"]["system"]["medium1"] = medium
        cfg["base"]["system"]["medium2"] = dict(medium)
        path = write_json(tmp_path, f"{model}.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        return code, json.loads(out), err

    def test_damping_sweep_on_plasma_base(self, tmp_path, capsys):
        # a plasma medium is Drude(e_p, 0): the sweep sets its damping
        code, rows, err = self.plasma_damping_sweep(tmp_path, capsys, "plasma")
        assert (code, err) == (3, "")
        _, drude_rows, _ = self.plasma_damping_sweep(tmp_path, capsys, "drude")
        assert [rows[0], rows[2]] == [drude_rows[0], drude_rows[2]]
        assert rows[0]["error"] == "" and rows[0]["force"] > 0.0
        assert rows[1]["force"] == ""
        assert rows[1]["error"].startswith("Drude(plasma_energy_ev=9.0, "
                                           "damping_ev=0.0) has no continuous")

    def test_axis_not_fitting_the_medium_exit2(self, tmp_path, capsys):
        cfg = self.sweep_config(axis="damping", values=[0.01, 0.02])
        cfg["base"]["system"]["medium1"] = {"model": "vacuum"}
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2
        assert out == ""
        assert err == ("config error: .system.medium1: axis 'damping' "
                       "needs a drude/plasma model\n")

    def test_empty_value_list_exit2(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", self.sweep_config(values=[]))
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, out) == (2, "")
        assert err == "config error: .values: must hold at least one value\n"


# Each axis on each route that accepts it, with values that run, values
# that fail and, through a one-subdivision quadrature, rows that do not
# converge.
# At 5e-324 K k_B*T underflows: an exit-3 row on every route, since
# 1e300 K computes where the thermal weight is bounded.
SWEEP_VALUES = {"d": [10.0, 3.0, 1e308], "v": [0.0, 100.0, 1e307],
                "T": [30.0, 300.0, 1e300, 5e-324],
                "damping": [0.035, 0.0, 1e80],
                "plasma_energy": [9.0, 5.0, 1e80]}


def _sweep_bases(tmp_path):
    drude = {"model": "drude", "plasma_energy_ev": 9.0, "damping_ev": 0.035}
    hybrid = hybrid_config(tmp_path)
    probe = hybrid["system"]["medium1"]
    dilute = copy.deepcopy(hybrid)
    dilute["system"].update(medium2=probe, d_nm=dilute["system"].pop("z0_nm"))
    dilute["route"] = "dilute"
    plate = {"system": {"medium1": drude, "medium2": drude, "d_nm": 10.0,
                        "v_m_per_s": 100.0, "T_K": 300.0}}
    stiff = {"abs_tol": 1e-300, "rel_tol": 1e-15, "max_subdivisions": 1}
    return {
        "closed-form": dict(plate, route="drude-closed-form"),
        "drop": dict(plate, route="dense-full"),
        "keep": dict(plate, route="dense-full", denominators="keep"),
        "keep-stiff": dict(plate, route="dense-full", denominators="keep",
                           quadrature=stiff),
        "dilute": dilute,
        "hybrid": hybrid,
        "hybrid-stiff": dict(hybrid, quadrature=stiff),
    }


def _set_axis(cfg, axis, value):
    """``cfg`` with the field of ``axis`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    system = cfg["system"]
    if axis in ("damping", "plasma_energy"):
        for key in ("medium1", "medium2"):
            system[key][f"{axis}_ev"] = value
    else:
        key = {"v": "v_m_per_s", "T": "T_K"}.get(axis)
        system[key or ("z0_nm" if cfg["route"] == "hybrid" else "d_nm")] = value
    return cfg


class TestSweepRowsAreCompute:
    @pytest.mark.filterwarnings("ignore:.*outside its validity regime")
    @pytest.mark.parametrize("base,axis", [
        (base, axis) for base in ("closed-form", "drop", "keep", "keep-stiff")
        for axis in cli.SWEEP_AXES] + [
        (base, axis) for base in ("dilute", "hybrid", "hybrid-stiff")
        for axis in ("d", "v", "T")])
    def test_every_row_is_compute_on_its_value(self, tmp_path, capsys,
                                               overlap_limits, base, axis):
        cfg = _sweep_bases(tmp_path)[base]
        values = SWEEP_VALUES[axis]
        path = write_json(tmp_path, "sweep.json",
                          {"base": cfg, "axis": axis, "values": values})
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert err == ""
        rows = json.loads(out)
        codes = set()
        for value, row in zip(values, rows, strict=True):
            path = write_json(tmp_path, "cfg.json", _set_axis(cfg, axis, value))
            row_code, row_out, row_err = run_cli(capsys, [
                "compute", "--config", path])
            codes.add(row_code)
            expected = {axis: value, "error": ""}
            if row_code == 3:
                assert row_err.startswith("physics error: ")
                expected.update({c: "" for c in cli._ROW_FIELDS},
                                error=row_err[len("physics error: "):-1])
            else:
                assert row_code in (0, 4)
                result = json.loads(row_out)["result"]
                expected.update({c: result[c] for c in cli._ROW_FIELDS})
                if value == 1e300:
                    # k_B*T far above every feature: the classical limit
                    limits, share = limits_of(overlap_limits, path)
                    assert_meets(result, share * limits.classical, limits)
            assert row == expected, value
        assert 3 in codes
        assert code == 3
        if base.endswith("stiff"):
            assert 4 in codes


class TestCompare:
    def test_gold_comparison(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config())
        code, out, _ = run_cli(capsys, ["compare", "--config", path])
        assert code == 0
        rec = json.loads(out)["comparison"]
        assert rec["ratio_to_pendry"] == pytest.approx(1.95e9, rel=5e-3)
        assert rec["vp_over_ours"] == pytest.approx(1.2, rel=1e-9)
        assert rec["force_Pa"] == pytest.approx(3.29e-11, rel=5e-3)

    def test_benchmark_conductivity_configuration(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["medium1"] = {"preset": "pendry97"}
        cfg["system"]["medium2"] = {"preset": "pendry97"}
        cfg["system"]["d_nm"] = 0.1
        cfg["system"]["v_m_per_s"] = 1.0
        path = write_json(tmp_path, "cfg.json", cfg)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(capsys, ["compare", "--config", path])
        assert code == 0
        rec = json.loads(out)["comparison"]
        # exact-formula values; the published rounded figures are 1.6e3
        # and 3.5e12 (mutually inconsistent with the ratio, see README)
        assert rec["pendry_force_Pa"] == pytest.approx(1663.7, rel=1e-3)
        assert rec["force_Pa"] == pytest.approx(3.2422e12, rel=1e-3)
        assert rec["ratio_to_pendry"] * rec["pendry_force_Pa"] == \
            pytest.approx(rec["force_Pa"], rel=1e-12)

    def test_requires_plate_route(self, tmp_path, capsys):
        cfg = gold_config(route="hybrid")
        cfg["system"]["z0_nm"] = cfg["system"].pop("d_nm")
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, out) == (2, "")
        assert err == "config error: .route: compare requires a plate route\n"

    def test_requires_drude(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["medium1"] = {"model": "vacuum"}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, _, err = run_cli(capsys, ["compare", "--config", path])
        assert code == 2

    @pytest.mark.parametrize("medium", [
        {"model": "drude", "plasma_energy_ev": 9.0, "damping_ev": 0},
        {"model": "plasma", "plasma_energy_ev": 9.0}])
    def test_undamped_medium_is_config_error(self, tmp_path, capsys, medium):
        cfg = gold_config()
        cfg["system"]["medium1"] = cfg["system"]["medium2"] = medium
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, out) == (2, "")
        assert err == ("config error: .system: compare requires damped "
                       "drude media\n")


    def test_different_media_is_config_error(self, tmp_path, capsys):
        cfg = gold_config()
        cfg["system"]["medium2"] = {"model": "drude", "plasma_energy_ev": 12.3,
                                    "damping_ev": 0.2}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, out) == (2, "")
        assert err == ("config error: .system: compare requires identical "
                       "media: medium1 and medium2 differ\n")

    @pytest.mark.parametrize("route,denominators", [
        ("drude-closed-form", "drop"), ("dense-full", "drop"),
        ("dense-full", "keep")])
    def test_force_is_the_routes_force(self, tmp_path, capsys, route,
                                       denominators):
        path = write_json(tmp_path, "cfg.json", gold_config(
            route=route, denominators=denominators))
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        force = json.loads(out)["result"]["force"]
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["comparison"]["force_Pa"] == force

    def test_screened_route_meets_volokitin_persson(self, tmp_path, capsys):
        # the 1.2 of the bare force is the zeta(3) of the screened one
        ratios = {}
        for denominators in ("drop", "keep"):
            path = write_json(tmp_path, "cfg.json", gold_config(
                route="dense-full", denominators=denominators))
            code, out, _ = run_cli(capsys, ["compare", "--config", path])
            assert code == 0
            ratios[denominators] = json.loads(out)["comparison"]["vp_over_ours"]
        assert ratios["drop"] == pytest.approx(1.19937, abs=5e-6)
        assert 0.99 <= ratios["keep"] <= 1.01

    def test_unconverged_route_exits4_with_record(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config(
            route="dense-full", denominators="keep", quadrature={
                "rel_tol": 1e-300, "abs_tol": 1e-300, "max_subdivisions": 50}))
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 4
        force = json.loads(out)["result"]["force"]
        code, out, err = run_cli(capsys, ["compare", "--config", path])
        assert (code, err) == (4, "")
        assert json.loads(out)["comparison"]["force_Pa"] == force

    def test_dilute_route_exits_as_compute(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config(route="dilute"))
        expected = run_cli(capsys, ["compute", "--config", path])
        assert expected[0] == 3
        assert run_cli(capsys, ["compare", "--config", path]) == expected


EP_RANGE = "plasma_energy_ev must be finite and in (0, 1e+76] eV"
DAMPING_RANGE = "damping_ev must be finite and in [0, 1e+76] eV"


class TestFloatEdge:
    """Inputs that pass the schema but whose derived quantities leave the
    float range: a typed error and exit 3, never a traceback.  Extreme
    temperatures where only the old thermal weight overflowed compute."""

    @pytest.mark.parametrize("command, route, key, value, message", [
        ("compute", "dense-full", "T_K", 5e-324,
         "temperature 5e-324 K is out of range: k_B*T underflows to 0"),
        ("compute", "drude-closed-form", "T_K", 1e308,
         "the closed-form H0 leaves the float range"),
        ("compute", "dense-full", "v_m_per_s", 1e308,
         "the dense-full force leaves the float range"),
        ("compare", "drude-closed-form", "v_m_per_s", 1e-300,
         "the ratio to Pendry's force leaves the float range"),
        ("compare", "drude-closed-form", "v_m_per_s", 1e200,
         "Pendry's force leaves the float range"),
        ("compare", "drude-closed-form", "v_m_per_s", 1e308,
         "the drude-closed-form force leaves the float range"),
        *(("compute", route, "media",
           {"model": "drude", "plasma_energy_ev": ep, "damping_ev": damping},
           message)
          for route in ("dense-full", "drude-closed-form")
          for ep, damping, message in (
              (1e200, 0.035, EP_RANGE), (1e78, 0.035, EP_RANGE),
              (1e140, 0.035, EP_RANGE), (0.5, 1e153, DAMPING_RANGE),
              (0.5, 1e155, DAMPING_RANGE))),
        ("compare", "drude-closed-form", "media",
         {"model": "drude", "plasma_energy_ev": 9.0, "damping_ev": 1e-300},
         "the conductivity omega_p**2/nu leaves the float range"),
    ], ids=["compute-T-tiny", "closed-form-T-huge", "compute-v-huge",
            "compare-v-tiny", "compare-v-cubed-huge", "compare-v-huge",
            *(f"{route}-{name}" for route in ("dense", "closed-form")
              for name in ("ep-1e200", "ep-1e78", "ep-1e140",
                           "damping-1e153", "damping-1e155")),
            "compare-conductivity-huge"])
    def test_exit3_one_line(self, tmp_path, capsys, command, route, key,
                            value, message):
        cfg = gold_config(route=route)
        for field in ("medium1", "medium2") if key == "media" else (key,):
            cfg["system"][field] = value
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert (code, out) == (3, "")
        assert err == f"physics error: {message}\n"

    @pytest.mark.parametrize("t_k", [1e300, 1e308],
                             ids=["dense-T-huge", "dense-T-max"])
    def test_gold_at_huge_temperature(self, tmp_path, capsys, overlap_limits,
                                      t_k):
        # 1/sinh(beta*m/2)**2 overflowed near m = 0 above about 2.1e155 K
        cfg = gold_config(route="dense-full")
        cfg["system"]["T_K"] = t_k
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, err) == (0, "")
        limits, _ = limits_of(overlap_limits, path)
        assert_meets(json.loads(out)["result"], limits.classical, limits)

    def test_table_at_huge_temperature(self, tmp_path, capsys, overlap_limits):
        # Near m = 0 the thermal weight 1/sinh(beta*m/2)**2 of a table that
        # ends at 4 eV overflowed at 1e150 K, and the force was a range
        # error; it meets the classical limit.
        table = tmp_path / "plate.txt"
        m = np.linspace(0.0, 4.0, 60)
        table.write_text("\n".join(f"{a} {b}" for a, b in
                                   zip(m, m * np.exp(-(m - 2.0) ** 2))))
        cfg = gold_config(route="dense-full", denominators="drop")
        cfg["system"]["medium1"] = {"model": "tabulated", "path": str(table)}
        cfg["system"]["T_K"] = 1e150
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, ["compute", "--config", path])
        assert (code, err) == (0, "")
        limits, _ = limits_of(overlap_limits, path)
        assert_meets(json.loads(out)["result"], limits.classical, limits)

    def test_sweep_row_error(self, tmp_path, capsys, overlap_limits):
        cfg = {"base": gold_config(route="dense-full"), "axis": "T",
               "values": [300.0, 5e-324, 1e300]}
        path = write_json(tmp_path, "sweep.json", cfg)
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (3, "")
        rows = json.loads(out)
        assert rows[0]["error"] == "" and rows[0]["force"] > 0.0
        assert rows[1]["error"] == ("temperature 5e-324 K is out of range: "
                                    "k_B*T underflows to 0")
        hot = gold_config(route="dense-full")
        hot["system"]["T_K"] = 1e300
        limits, _ = limits_of(overlap_limits,
                              write_json(tmp_path, "hot.json", hot))
        assert rows[2]["error"] == ""
        assert_meets(rows[2], limits.classical, limits)

    @pytest.mark.filterwarnings("ignore:.*outside its validity regime")
    def test_seeded_configs_exit_cleanly(self, tmp_path, capsys):
        """1,500 seeded configs across the float range, on every route,
        through compute, sweep and spectra: e_p and damping 10^U(-3, 308)
        eV, gaps 10^U(-320, 308) nm, T 10^U(-3, 308) K and v 10^U(-3,
        308) m/s.  Each exits 0, 2, 3 or 4 with no traceback and no
        RuntimeWarning (an error under pytest).  Exit 2 or 3 prints one
        stderr line, except a sweep whose errors are in its rows."""
        rng = random.Random(20261019)
        m = np.linspace(0.0, 4.0, 30)
        shape = m * np.exp(-(m - 2.0) ** 2)
        for name, scale in (("probe.txt", 5e-5), ("plate.txt", 1.0)):
            (tmp_path / name).write_text(
                "\n".join(f"{a} {b}" for a, b in zip(m, scale * shape)))

        def log_u(lo, hi):
            return 10.0 ** rng.uniform(lo, hi)

        def medium(kind):
            if kind == "drude":
                return {"model": "drude", "plasma_energy_ev": log_u(-3, 308),
                        "damping_ev": log_u(-3, 308)}
            if kind == "plasma":
                return {"model": "plasma", "plasma_energy_ev": log_u(-3, 308)}
            table = {"model": "tabulated", "path": str(tmp_path / kind)}
            if kind == "probe.txt":
                table["density_per_nm3"] = log_u(-3, 3)
            return table

        def run_config():
            route = rng.choice(cli.ROUTES)
            if route == "dilute":
                media = medium("probe.txt"), medium("probe.txt")
            elif route == "hybrid":
                media = (medium("probe.txt"),
                         medium(rng.choice(("drude", "plate.txt"))))
            elif route == "drude-closed-form":
                first = medium("drude")
                media = first, (first if rng.random() < 0.8
                                else medium("drude"))
            else:
                media = (medium(rng.choice(("drude", "plasma", "plate.txt"))),
                         medium(rng.choice(("drude", "plate.txt"))))
            cfg = {"system": {
                "medium1": media[0], "medium2": media[1],
                "z0_nm" if route == "hybrid" else "d_nm": log_u(-320, 308),
                "v_m_per_s": log_u(-3, 308), "T_K": log_u(-3, 308)},
                "route": route}
            if route == "dense-full":
                cfg["denominators"] = rng.choice(("drop", "keep"))
            return cfg

        seen = set()
        for _ in range(1500):
            command = rng.choice(("compute", "sweep", "spectra"))
            cfg = run_config()
            argv = [command, "--config", str(tmp_path / "cfg.json")]
            if command == "sweep":
                axis = rng.choice(cli.SWEEP_AXES)
                lo = -320 if axis == "d" else -3
                cfg = {"base": cfg, "axis": axis,
                       "values": [log_u(lo, 308) for _ in range(3)]}
            elif command == "spectra":
                lo = log_u(-3, 308)
                argv += ["--m-grid", f"{lo!r}:{lo * log_u(0.01, 3)!r}:5:log"]
            write_json(tmp_path, "cfg.json", cfg)
            code, out, err = run_cli(capsys, argv)
            seen.add(code)
            context = (argv, cfg, err)
            assert code in (0, 2, 3, 4), context
            if code in (0, 4) or (code == 3 and command == "sweep"
                                  and err == ""):
                assert err == "", context
                if command != "spectra":
                    strict_json(out)
            else:
                kind = "config" if code == 2 else "physics"
                assert re.fullmatch(f"{kind} error: [^\n]+\n", err), context
        assert {0, 2, 3} <= seen

    def test_seeded_extreme_tables_exit_cleanly(self, tmp_path, capsys):
        """800 seeded ``compute`` configs on dilute, hybrid and dense
        drop and keep, each with tables at the float extremes: grid ends
        10^U(-320, 76) eV, values 10^U(-300, 300), T 10^U(-300, 308) K,
        the other medium gold or a table.  Each exits 0, 2, 3 or 4 with no
        RuntimeWarning; exit 0 or 4 prints JSON that holds no NaN or
        Infinity."""
        rng = random.Random(20261021)
        path = tmp_path / "cfg.json"

        def log_u(lo, hi):
            return 10.0 ** rng.uniform(lo, hi)

        def table(name, density=False):
            x = np.linspace(0.0, 1.0, rng.choice((3, 8, 30)))
            v = log_u(-300, 300) * x * np.exp(
                -(x - 0.5) ** 2 / rng.choice((0.01, 0.1, 10.0)))
            file = tmp_path / name
            file.write_text("".join(f"{a!r} {b!r}\n" for a, b in
                                    zip((log_u(-320, 76) * x).tolist(),
                                        v.tolist())))
            medium = {"model": "tabulated", "path": str(file)}
            if density:
                medium["density_per_nm3"] = log_u(-3, 3)
            return medium

        def partner():
            return rng.choice(({"preset": "gold"}, table("two.txt")))

        seen = set()
        for _ in range(800):
            route = rng.choice(("dilute", "hybrid", "drop", "keep"))
            if route == "dilute":
                media = table("one.txt", True), table("two.txt", True)
            elif route == "hybrid":
                media = table("one.txt", True), partner()
            else:
                media = table("one.txt"), partner()
            cfg = {"system": {
                "medium1": media[0], "medium2": media[1],
                "z0_nm" if route == "hybrid" else "d_nm": 10.0,
                "v_m_per_s": 100.0, "T_K": log_u(-300, 308)}}
            if route in ("drop", "keep"):
                cfg.update(route="dense-full", denominators=route)
            else:
                cfg["route"] = route
            path.write_text(json.dumps(cfg))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run_cli(capsys,
                                         ["compute", "--config", str(path)])
            seen.add(code)
            context = (cfg, err)
            assert code in (0, 2, 3, 4), context
            if code in (0, 4):
                assert err == "", context
                strict_json(out)
            else:
                kind = "config" if code == 2 else "physics"
                assert re.fullmatch(f"{kind} error: [^\n]+\n", err), context
        assert {0, 3} <= seen

    @pytest.mark.filterwarnings("ignore:.*outside its validity regime")
    def test_seeded_compare_configs_exit_cleanly(self, tmp_path, capsys):
        """600 seeded ``compare`` configs: one damped Drude medium for both
        plates, e_p and damping 10^U(-3, 308) eV, gaps 10^U(-320, 308)
        nm, T 10^U(-3, 308) K and v 10^U(-3, 308) m/s; in half the
        configs every value is 10^U(-3, 3) instead, where compare
        mostly succeeds.  One in five takes a differing or undamped
        second medium or the hybrid route, each a config error unless a
        medium is out of range.  Exit codes and stderr as above."""
        rng = random.Random(20261020)

        def log_u(lo, hi):
            return 10.0 ** rng.uniform(lo, hi)

        def drude(top):
            return {"model": "drude", "plasma_energy_ev": log_u(-3, top),
                    "damping_ev": log_u(-3, top)}

        path = tmp_path / "cfg.json"
        seen = set()
        for _ in range(600):
            top, gap_low = rng.choice(((308, -320), (3, -3)))
            first = drude(top)
            second, route, gap = first, "drude-closed-form", "d_nm"
            flaw = rng.choice(("differ", "undamped", "hybrid", *[None] * 12))
            if flaw == "differ":
                second = drude(top)
            elif flaw == "undamped":
                second = rng.choice((
                    {"model": "plasma", "plasma_energy_ev": log_u(-3, top)},
                    dict(first, damping_ev=0.0)))
            elif flaw == "hybrid":
                route, gap = "hybrid", "z0_nm"
            else:
                route = rng.choice(("drude-closed-form", "dense-full"))
            cfg = {"system": {
                "medium1": first, "medium2": second, gap: log_u(gap_low, top),
                "v_m_per_s": log_u(-3, top), "T_K": log_u(-3, top)},
                "route": route}
            path.write_text(json.dumps(cfg))
            argv = ["compare", "--config", str(path),
                    "--format", rng.choice(("json", "csv"))]
            code, _, err = run_cli(capsys, argv)
            seen.add(code)
            context = (argv, cfg, err)
            # a Drude energy past 1e76 eV exits 3 before compare's checks
            if flaw is not None and all(
                    value <= 1e76 for medium in (first, second)
                    for key, value in medium.items() if key.endswith("_ev")):
                assert code == 2, context
            assert code in (0, 2, 3, 4), context
            if code in (0, 4):
                assert err == "", context
            else:
                kind = "config" if code == 2 else "physics"
                assert re.fullmatch(f"{kind} error: [^\n]+\n", err), context
        assert {0, 2, 3} <= seen


SPECTRA_COLUMNS = ["m_ev", "spectral1", "spectral2", "thermal_weight",
                   "screening", "h0_density"]


def m_cap(system):
    """The top of ``h0_overlap``'s range for the media and T of
    ``system``: the thermal window, or ten times the larger peak hint,
    cut at the supports."""
    s1, s2 = (spectral_density(medium.model)
              for medium in (system.medium1, system.medium2))
    return min(max(40.0 / units.beta(system.T_K), 10.0 * s1.peak_hint,
                   10.0 * s2.peak_hint), s1.support_max, s2.support_max)


class TestSpectra:
    def test_gold_grid_peaks_at_surface_resonance(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        ep = 9.0 / math.sqrt(2.0)
        code, out, _ = run_cli(capsys, [
            "spectra", "--config", path,
            "--m-grid", f"0.01:{2 * ep}:101:log"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == SPECTRA_COLUMNS
        data = np.array([[float(x) for x in row] for row in rows[1:]])
        peak_m = data[np.argmax(data[:, 1]), 0]
        assert peak_m == pytest.approx(ep, rel=0.05)

    def test_small_m_rows_linear(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        code, out, _ = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", "0.0001:0.001:4:log"])
        data = np.array([[float(x) for x in row]
                         for row in list(csv.reader(io.StringIO(out)))[1:]])
        slopes = data[:, 1] / data[:, 0]
        assert np.allclose(slopes, slopes[0], rtol=1e-5)

    def test_vacuum_spectra_zero(self, tmp_path, capsys):
        cfg = gold_config(route="dense-full")
        cfg["system"]["medium1"] = {"model": "vacuum"}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", "0.1:5:5"])
        data = np.array([[float(x) for x in row]
                         for row in list(csv.reader(io.StringIO(out)))[1:]])
        assert np.all(data[:, 1] == 0.0)
        assert np.all(data[:, 5] == 0.0)

    def test_plasma_rejected(self, tmp_path, capsys):
        cfg = gold_config(route="dense-full")
        cfg["system"]["medium1"] = {"model": "plasma", "plasma_energy_ev": 9.0}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", "0.1:5:5"])
        assert (code, out) == (3, "")
        assert err.startswith("physics error: Drude(plasma_energy_ev=9.0, "
                              "damping_ev=0.0) has no continuous")

    def test_table_rows_do_not_depend_on_built_terms(self, tmp_path, capsys):
        # the command reads a fresh table; under keep its rows, the
        # screening formed from the table's response included, are those
        # of the same table after an earlier call built its response terms
        table = tmp_path / "plate.txt"
        m = np.linspace(0.0, 4.0, 36)
        # scaled to A(0) = 0.883, so that z(0) = A(0) * 1 <= 1 against gold
        table.write_text("\n".join(f"{a} {b}" for a, b in
                                   zip(m, 0.25 * m * np.exp(-(m - 2.0) ** 2))))
        cfg = gold_config(route="dense-full", denominators="keep")
        cfg["system"]["medium1"] = {"model": "tabulated", "path": str(table)}
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", "0.01:6:40"])
        assert code == 0
        built = load_tabulated(table)
        dense_alpha_retarded(built, np.linspace(0.1, 6.0, 7))
        system = PlateSystem(MediumSpec(built), MediumSpec(GOLD.model), 10.0,
                             100.0, 300.0)
        columns = h0_integrand("dense-full", system, "keep",
                               np.linspace(0.01, 6.0, 40))
        assert np.all(columns["screening"] != 1.0)
        rows = [[float(x) for x in row]
                for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert rows == np.column_stack(list(columns.values())).tolist()

    @pytest.mark.parametrize("grid", ["0.5:1e200:3", "1e154:1.35e154:2"])
    def test_energy_out_of_range_is_physics_error(self, tmp_path, capsys,
                                                  grid):
        # m**2 overflowed: nan rows and exit 0, with RuntimeWarnings
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        code, out, err = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", grid])
        assert (code, out) == (3, "")
        assert err == ("physics error: retarded evaluation requires finite "
                       "m > 0 with m**2 in the float range (m <= 1.34078e+154 "
                       "eV)\n")

    def test_far_energies_without_warning(self, tmp_path, capsys):
        # m**2 finite, but a Drude spectrum's denominator overflows: the
        # rows are 0.0, and no RuntimeWarning reaches stderr
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "spectra", "--config", path, "--m-grid", "0.5:1e154:3"])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(row[1]) for row in rows[1:]] == [0.0, 0.0]

    @pytest.mark.parametrize("grid", ["a:b:3", "0.1:5:2.5", "1:2:x",
                                      "0.1:inf:3"])
    def test_bad_m_grid_is_config_error(self, tmp_path, capsys, grid):
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        code, out, err = run_cli(capsys, [
            "spectra", "--config", path, "--m-grid", grid])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: --m-grid: ")

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3", "0:1:3:lin",
                                      "0:1:3:log"])
    def test_m_grid_min_not_positive_is_config_error(self, tmp_path, capsys,
                                                      grid):
        path = write_json(tmp_path, "cfg.json", gold_config(route="dense-full"))
        # one argument, so that argparse does not read "-1:1:3" as an option
        code, out, err = run_cli(capsys, [
            "spectra", "--config", path, f"--m-grid={grid}"])
        assert (code, out) == (2, "")
        assert err == ("config error: --m-grid: need 0 < min < max < inf, "
                       "count >= 1\n")

    @staticmethod
    def integrand_configs(tmp_path):
        bases = _sweep_bases(tmp_path)
        return {"drop": gold_config(route="dense-full"),
                "keep": gold_config(route="dense-full", denominators="keep"),
                "dilute": bases["dilute"], "hybrid": bases["hybrid"]}

    @pytest.mark.parametrize("case", ["drop", "keep", "dilute", "hybrid"])
    def test_h0_density_integrates_to_h0(self, tmp_path, capsys, case):
        """Composite Simpson over (0, m_cap] of the printed H0 density,
        refined until two successive grids agree to 1e-9, is compute's H0
        within its claimed error plus that agreement: on gold drop and
        keep, a dilute pair of tables and a probe table over gold, whose
        H0 carries the half weight."""
        cfg = self.integrand_configs(tmp_path)[case]
        path = write_json(tmp_path, "cfg.json", cfg)
        code, out, _ = run_cli(capsys, ["compute", "--config", path])
        assert code == 0
        result = json.loads(out)["result"]
        top = m_cap(cli.parse_run_config(cfg)["system"])
        lo = 1e-15 * top
        previous, intervals = None, 128
        while True:
            code, out, err = run_cli(capsys, [
                "spectra", "--config", path,
                "--m-grid", f"{lo!r}:{top!r}:{intervals + 1}"])
            assert (code, err) == (0, "")
            density = np.loadtxt(io.StringIO(out), delimiter=",",
                                 skiprows=1)[:, 5]
            value = (top - lo) / intervals / 3.0 * (
                density[0] + density[-1] + 4.0 * density[1:-1:2].sum()
                + 2.0 * density[2:-1:2].sum())
            if previous is not None and abs(value - previous) <= 1e-9 * value:
                break
            assert intervals < 2 ** 16
            previous, intervals = value, 2 * intervals
        agreement = abs(value - previous) / value
        assert abs(value / result["H0"] - 1.0) <= (result["quadrature_error"]
                                                   + agreement)

    def test_closed_form_prints_the_drop_columns(self, tmp_path, capsys):
        grid = ["--m-grid", "0.001:12:60:log"]
        closed = write_json(tmp_path, "closed.json", gold_config())
        drop = write_json(tmp_path, "drop.json",
                          gold_config(route="dense-full"))
        code, out, err = run_cli(capsys, ["spectra", "--config", closed, *grid])
        assert (code, err) == (0, "")
        assert out.startswith(",".join(SPECTRA_COLUMNS) + "\n")
        assert run_cli(capsys, ["spectra", "--config", drop, *grid]) == (
            0, out, "")

    def test_json_rows_are_the_csv_rows(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json",
                          gold_config(route="dense-full", denominators="keep"))
        argv = ["spectra", "--config", path, "--m-grid", "0.01:9:7"]
        _, out, _ = run_cli(capsys, argv)
        rows = [[float(x) for x in row]
                for row in list(csv.reader(io.StringIO(out)))[1:]]
        code, out, err = run_cli(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert strict_json(out) == [dict(zip(SPECTRA_COLUMNS, row))
                                    for row in rows]

    def test_density_past_the_float_range_is_physics_error(self, tmp_path,
                                                          capsys):
        # at 1e308 K, beta*m/2 underflows to 0 at m = 1e-310 eV: d = 0
        cfg = gold_config(route="dense-full")
        cfg["system"]["T_K"] = 1e308
        path = write_json(tmp_path, "cfg.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "spectra", "--config", path, "--m-grid", "1e-310:1:3"])
        assert (code, out) == (3, "")
        assert err == ("physics error: the H0 density leaves the float range "
                       "at T_K = 1e+308 K on this m grid\n")


VALIDATE_LINES = [
    ("PASS", "1a", "0.5%"), ("PASS", "1b", "1%"),
    ("PASS", "1c", "[1.00, 1.25]"), ("PASS", "2", "1e-8 abs"),
    ("PASS", "3a", "1e-6 rel"), ("PASS", "3b", "1e-10 abs"),
    ("PASS", "3c", "1e-6 rel"), ("PASS", "3d", "1e-6 rel"),
    ("PASS", "4a", "0.5%"), ("FAIL", "4b", "1%"), ("FAIL", "4c", "2%"),
    ("PASS", "4d", "1e-12 rel"), ("PASS", "5", "10%"),
    ("PASS", "6a", "1e-6 rel"), ("PASS", "6b", "1e-6 rel"),
    ("PASS", "6c", "1e-6 rel"), ("PASS", "7a", "<1e-12"),
    ("PASS", "7b", "1e-12 rel"), ("PASS", "7c", "exact"),
    ("PASS", "7d", "1e-6 abs"), ("PASS", "8a", "1e-8 rel"),
    ("PASS", "8b", "3 sigma"), ("PASS", "8c", "1e-6 rel"),
    ("PASS", "9a", "exact"), ("PASS", "9b", "1%"), ("PASS", "9c", "1%"),
]


class TestValidate:
    def test_validate_reports_all_criteria(self, capsys):
        code = cli.main(["validate"])
        out = capsys.readouterr().out.splitlines()
        pattern = re.compile(r"\[(PASS|FAIL)\] +(\S+) .*? tol=(.*?)"
                             r"(?: quad_err=| \[|$)")
        assert [pattern.match(line).groups() for line in out[:-1]] \
            == VALIDATE_LINES
        # the two known-inconsistent benchmark figures fail; nothing else
        assert out[-1] == ("24/26 checks passed "
                           "(2 known-inconsistent benchmark figures)")
        assert code == 1


def _validate_process(stdout, unbuffered):
    """``casfric validate`` in a child process writing to ``stdout``,
    its stdout line-unbuffered or block-buffered."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "casfric.cli", "validate"],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


class TestClosedStdout:
    """A reader that stops early ends the command quietly: no traceback,
    no "Exception ignored" line at exit."""

    @pytest.mark.parametrize("unbuffered", [True, False],
                             ids=["unbuffered", "buffered"])
    def test_reader_gone_before_the_first_line_exits_141(self, unbuffered):
        # Unbuffered, the first print meets the closed pipe; buffered,
        # main's flush does.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _validate_process(write_end, unbuffered)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == cli.EXIT_PIPE == 141

    def test_reader_closes_after_one_line(self):
        # Whether the child writes past the closed reader depends on
        # timing: it then exits 141, and otherwise with validate's 1.
        proc = _validate_process(subprocess.PIPE, unbuffered=True)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.startswith(b"[PASS]  1a ")
        assert err == b""
        assert proc.returncode in (1, cli.EXIT_PIPE)


class TestParser:
    """The parser is built once and shared by every ``main`` call."""

    def test_same_parser_across_calls(self, tmp_path, capsys):
        parser = cli.build_parser()
        path = write_json(tmp_path, "cfg.json", gold_config())
        assert run_cli(capsys, ["compute", "--config", path])[0] == 0
        assert cli.build_parser() is parser

    def test_usage_error_after_a_command_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config())
        assert run_cli(capsys, ["compute", "--config", path])[0] == 0
        for argv, message in ((["compute"], "the following arguments are "
                               "required: --config"),
                              (["bogus"], "invalid choice: 'bogus'")):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: casfric")
            assert message in err

    def test_defaults_do_not_leak_between_commands(self, tmp_path, capsys):
        path = write_json(tmp_path, "cfg.json", gold_config())
        spectra = ["spectra", "--config", path, "--m-grid", "0.1:5:3"]
        code, first, _ = run_cli(capsys, spectra)
        assert code == 0 and first.startswith("m_ev,")
        assert run_cli(capsys, ["compute", "--config", path, "--format",
                                "csv"])[0] == 0
        assert run_cli(capsys, spectra) == (0, first, "")

    def test_validate_twice_prints_identical_text(self, capsys):
        first = run_cli(capsys, ["validate"])
        assert run_cli(capsys, ["validate"]) == first


class TestQuadTolEnvironment:
    """CASFRIC_QUAD_TOL, whatever its value, changes no output: no
    environment variable is read."""

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "nan", "inf",
                                       "1e-323"])
    @pytest.mark.parametrize("command", ["compute", "sweep"])
    def test_value_changes_nothing(self, tmp_path, capsys, monkeypatch,
                                   command, value):
        cfg = gold_config(route="dense-full")
        if command == "sweep":
            cfg = {"base": cfg, "axis": "d", "values": [10.0, 20.0]}
        path = write_json(tmp_path, "cfg.json", cfg)
        unset = run_cli(capsys, [command, "--config", path])
        monkeypatch.setenv("CASFRIC_QUAD_TOL", value)
        assert run_cli(capsys, [command, "--config", path]) == unset

    def test_validate_prints_the_unset_text(self, capsys, monkeypatch):
        # a tight value used to tighten criteria 1b/1c/9a-9c and fail 1c
        unset = run_cli(capsys, ["validate"])
        monkeypatch.setenv("CASFRIC_QUAD_TOL", "1e-13")
        assert run_cli(capsys, ["validate"]) == unset
