"""Command-line front end.

Subcommands:

    compute  --config cfg.json [--format json|csv] [--out PATH]
    sweep    --config sweep.json [--format json|csv] [--out PATH]
    compare  --config cfg.json [--format json|csv] [--out PATH]
    spectra  --config cfg.json --m-grid MIN:MAX:COUNT[:log|lin] [--u U] ...
    validate

Configs are JSON; the schema is validated up front with field-path
diagnostics and unknown keys are rejected.  A ``"plasma"`` medium is the
undamped Drude model.  A parsed config holds one ``PlateSystem``, and
``run_config`` is the one place that calls a route: ``compute``, each
sweep row and ``compare`` all take their force from it.  Exit codes: 0 success, 2 configuration error,
3 physics-domain error, 4 a result that did not converge, 141 (128 +
SIGPIPE, as a shell reports a command the signal ends) stdout closed
before all output was written, as by ``casfric validate | head -1``.  No
environment variable is read: quadrature tolerances come from a config's
``quadrature`` block or the library defaults.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import comparisons, units, validation
from .dielectric import (Drude, MediumSpec, Vacuum, load_tabulated,
                         spectral_density)
from .errors import CasfricError, ConfigError
from .friction import (FrictionResult, PlateSystem, friction_dense,
                       friction_dilute, friction_drude_closed_form,
                       friction_hybrid, plane_spectral_products)
from .presets import PRESETS, conductivity
from .quadrature import QuadratureSpec, default_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NONCONV = 4
EXIT_PIPE = 141

ROUTES = ("dilute", "dense-full", "drude-closed-form", "hybrid")
# The field each sweep axis sets: of the system, or of both media's model.
_AXIS_FIELDS = {"d": "d_nm", "v": "v_m_per_s", "T": "T_K",
                "damping": "damping_ev", "plasma_energy": "plasma_energy_ev"}
SWEEP_AXES = tuple(_AXIS_FIELDS)


# ---------------------------------------------------------------------------
# config parsing

def _fail(path, msg):
    raise ConfigError([(path, msg)])


def _expect_object(obj, path):
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    return obj


def _check_keys(obj, path, allowed):
    unknown = set(obj) - set(allowed)
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _number(obj, path, positive=False, non_negative=False):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, "must be a number")
    try:
        v = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, "must be a finite number")
    if positive and not v > 0.0:
        _fail(path, "must be > 0")
    if non_negative and v < 0.0:
        _fail(path, "must be >= 0")
    return v


def _integer(obj, path):
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 1:
        _fail(path, "must be a positive integer")
    return obj


def parse_medium(obj, path):
    _expect_object(obj, path)
    if "preset" in obj:
        _check_keys(obj, path, {"preset", "density_per_nm3"})
        name = obj["preset"]
        if not isinstance(name, str):
            _fail(path + ".preset", "must be a preset name string")
        if name not in PRESETS:
            _fail(path + ".preset", f"unknown preset {name!r}; available: "
                  f"{sorted(PRESETS)}")
        model = PRESETS[name].model
    else:
        if "model" not in obj:
            _fail(path, "missing 'model' (or 'preset')")
        kind = obj["model"]
        if kind == "vacuum":
            _check_keys(obj, path, {"model", "density_per_nm3"})
            model = Vacuum()
        elif kind == "plasma":
            _check_keys(obj, path, {"model", "plasma_energy_ev", "density_per_nm3"})
            model = Drude(_number(obj.get("plasma_energy_ev"),
                                  path + ".plasma_energy_ev", positive=True), 0.0)
        elif kind == "drude":
            _check_keys(obj, path, {"model", "plasma_energy_ev", "damping_ev",
                                    "density_per_nm3"})
            model = Drude(_number(obj.get("plasma_energy_ev"),
                                  path + ".plasma_energy_ev", positive=True),
                          _number(obj.get("damping_ev"),
                                  path + ".damping_ev", non_negative=True))
        elif kind == "tabulated":
            _check_keys(obj, path, {"model", "path", "density_per_nm3"})
            if not isinstance(obj.get("path"), str):
                _fail(path + ".path", "must be a file path string")
            if "\0" in obj["path"]:
                _fail(path + ".path", "cannot read table: embedded null byte")
            try:
                model = load_tabulated(obj["path"])
            except (OSError, UnicodeDecodeError) as exc:
                _fail(path + ".path", f"cannot read table: {exc}")
        else:
            _fail(path + ".model",
                  "must be one of vacuum|plasma|drude|tabulated")
    density = obj.get("density_per_nm3")
    if density is not None:
        density = _number(density, path + ".density_per_nm3", positive=True)
    return MediumSpec(model=model, density_per_nm3=density)


def parse_quadrature(obj, path):
    if obj is None:
        return None
    _expect_object(obj, path)
    _check_keys(obj, path, {"abs_tol", "rel_tol", "max_subdivisions"})
    base = default_spec()
    abs_tol = _number(obj.get("abs_tol", base.abs_tol), path + ".abs_tol",
                      positive=True)
    rel_tol = _number(obj.get("rel_tol", base.rel_tol), path + ".rel_tol",
                      positive=True)
    max_sub = _integer(obj.get("max_subdivisions", base.max_subdivisions),
                       path + ".max_subdivisions")
    return QuadratureSpec(abs_tol=abs_tol, rel_tol=rel_tol,
                          max_subdivisions=max_sub)


def parse_run_config(obj, path=""):
    _expect_object(obj, path or ".")
    _check_keys(obj, path or ".", {"system", "route", "denominators",
                                   "quadrature"})
    route = obj.get("route")
    if route not in ROUTES:
        _fail(path + ".route", f"must be one of {ROUTES}")

    system = _expect_object(obj.get("system"), path + ".system")
    _check_keys(system, path + ".system",
                {"medium1", "medium2", "d_nm", "z0_nm", "v_m_per_s", "T_K"})
    for key in ("medium1", "medium2"):
        if key not in system:
            _fail(path + f".system.{key}", "is required")
    med1 = parse_medium(system["medium1"], path + ".system.medium1")
    med2 = parse_medium(system["medium2"], path + ".system.medium2")
    v = _number(system.get("v_m_per_s"), path + ".system.v_m_per_s",
                non_negative=True)
    t = _number(system.get("T_K"), path + ".system.T_K", positive=True)
    # the hybrid route reads its gap from z0_nm, the plate routes from d_nm
    gap, unread = ("z0_nm", "d_nm") if route == "hybrid" else ("d_nm", "z0_nm")
    if unread in system:
        _fail(f"{path}.system.{unread}",
              f"is not read by the {route} route; its gap is {gap}")
    if system.get(gap) is None:
        _fail(f"{path}.system.{gap}", "is required for the hybrid route"
              if route == "hybrid" else "is required for plate routes")
    d = _number(system[gap], f"{path}.system.{gap}", positive=True)

    denominators = obj.get("denominators", "drop")
    if denominators not in ("drop", "keep"):
        _fail(path + ".denominators", "must be 'drop' or 'keep'")

    qspec = parse_quadrature(obj.get("quadrature"), path + ".quadrature")
    # on the hybrid route d_nm holds z0, medium1 is the probe, medium2 the plate
    return {"system": PlateSystem(med1, med2, d, v, t), "route": route,
            "denominators": denominators, "quadrature": qspec, "raw": obj}


def parse_sweep_config(obj):
    _expect_object(obj, ".")
    _check_keys(obj, ".", {"base", "axis", "values"})
    if "base" not in obj:
        _fail(".base", "is required")
    base = parse_run_config(obj["base"], ".base")
    axis = obj.get("axis")
    if axis not in SWEEP_AXES:
        _fail(".axis", f"must be one of {SWEEP_AXES}")
    values = obj.get("values")
    if isinstance(values, list):
        if not values:
            _fail(".values", "must hold at least one value")
        vals = [_number(v, f".values[{i}]") for i, v in enumerate(values)]
    elif isinstance(values, dict):
        _check_keys(values, ".values", {"min", "max", "count", "scale"})
        lo = _number(values.get("min"), ".values.min")
        hi = _number(values.get("max"), ".values.max")
        count = _integer(values.get("count"), ".values.count")
        scale = values.get("scale", "linear")
        if scale not in ("linear", "log"):
            _fail(".values.scale", "must be 'linear' or 'log'")
        if not lo < hi and count > 1:
            _fail(".values", "need min < max")
        if scale == "log" and not lo > 0.0:
            _fail(".values.min", "must be > 0 for log scale")
        vals = _grid(lo, hi, count, scale == "log", ".values.count").tolist()
    else:
        _fail(".values", "must be a list of numbers or {min,max,count,scale}")
    may_be_zero = axis in ("v", "damping")
    for i, v in enumerate(vals):
        if not (v > 0.0 or (may_be_zero and v >= 0.0)):
            _fail(f".values[{i}]", f"out of domain for axis {axis!r}")
    return {"base": base, "axis": axis, "values": vals, "raw": obj}


# ---------------------------------------------------------------------------
# execution

def _apply_axis(cfg, axis, value):
    system, field = cfg["system"], _AXIS_FIELDS[axis]
    if axis in ("damping", "plasma_energy"):
        media = {}
        for key in ("medium1", "medium2"):
            med = getattr(system, key)
            if not isinstance(med.model, Drude):
                raise ConfigError([(f".system.{key}",
                                    f"axis {axis!r} needs a drude/plasma model")])
            media[key] = replace(med, model=replace(med.model, **{field: value}))
        return {**cfg, "system": replace(system, **media)}
    return {**cfg, "system": replace(system, **{field: value})}


def run_config(cfg) -> FrictionResult:
    system, route, spec = cfg["system"], cfg["route"], cfg["quadrature"]
    if route == "hybrid":
        return friction_hybrid(system.medium1, system.medium2.model,
                               system.d_nm, system.v_m_per_s, system.T_K,
                               spec=spec)
    if route == "dilute":
        return friction_dilute(system, spec=spec)
    if route == "dense-full":
        return friction_dense(system, denominators=cfg["denominators"],
                              spec=spec)
    return friction_drude_closed_form(system)


def _result_fields(result: FrictionResult) -> dict:
    """The output fields of one result, keyed by column name."""
    return {"route": result.route, "force": result.force,
            "force_units": result.force_units, "direction": result.direction,
            "H0": result.h0, "G": result.g,
            "quadrature_error": result.quadrature_error,
            "converged": result.converged, "evaluations": result.evaluations,
            "note": result.note}


# The fields in a row of a compute or sweep table, after its first column.
_ROW_FIELDS = ("force", "force_units", "H0", "G", "quadrature_error",
               "converged", "evaluations")


def _write(fmt, out_path, columns, rows, payload=None):
    """Write the table (columns, rows) as CSV, or as JSON: ``payload``
    when given, else the rows as a list of objects.  ``out_path`` None
    means stdout."""
    if fmt == "json":
        if payload is None:
            payload = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        import csv  # only a CSV table needs it: kept off a JSON run's start

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError([("--out", f"cannot write: {exc}")]) from None
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    cfg = parse_run_config(_load_json(args.config))
    result = run_config(cfg)
    fields = _result_fields(result)
    columns = ["route", *_ROW_FIELDS]
    _write(args.format or "json", args.out, columns,
           [[fields[c] for c in columns]],
           payload={"config": cfg["raw"], "result": fields})
    return EXIT_OK if result.converged else EXIT_NONCONV


def cmd_sweep(args) -> int:
    sweep = parse_sweep_config(_load_json(args.config))
    columns = [sweep["axis"], *_ROW_FIELDS, "error"]
    rows = []
    any_physics = False
    any_nonconv = False
    for value in sweep["values"]:
        try:
            cfg = _apply_axis(sweep["base"], sweep["axis"], value)
            result = run_config(cfg)
            fields = _result_fields(result)
            rows.append([value, *(fields[c] for c in _ROW_FIELDS), ""])
            any_nonconv = any_nonconv or not result.converged
        except ConfigError:
            raise  # the same for every row: exit 2, not a row error
        except CasfricError as exc:
            rows.append([value, *[""] * len(_ROW_FIELDS), str(exc)])
            any_physics = True
    _write(args.format or "json", args.out, columns, rows)
    if any_physics:
        return EXIT_PHYSICS
    if any_nonconv:
        return EXIT_NONCONV
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = parse_run_config(_load_json(args.config))
    system = cfg["system"]
    m1, m2 = system.medium1.model, system.medium2.model
    if not all(isinstance(m, Drude) and m.damping_ev > 0.0 for m in (m1, m2)):
        raise ConfigError([(".system", "compare requires damped drude media")])
    if m1 != m2:
        raise ConfigError([(".system", "compare requires identical media: "
                            "medium1 and medium2 differ")])
    if cfg["route"] == "hybrid":
        raise ConfigError([(".route", "compare requires a plate route")])
    ours = run_config(cfg)
    d_m, v, t = system.d_nm * units.NM_TO_M, system.v_m_per_s, system.T_K
    sigma_over_eps0 = conductivity(m1)
    pend = comparisons.pendry_force(sigma_over_eps0, d_m, v)
    ratio = comparisons.ratio_to_pendry(t, v, d_m)
    vp_coeff, vp_force = comparisons.vp_friction(sigma_over_eps0, d_m, t, v)
    record = {
        "config": cfg["raw"],
        "comparison": {
            "force_Pa": ours.force,
            "pendry_force_Pa": pend,
            "ratio_to_pendry": ratio,
            "vp_coefficient": vp_coeff,
            "vp_force_Pa": vp_force,
            "vp_over_ours": vp_force / ours.force if ours.force else None,
            "conductivity_over_eps0_per_s": sigma_over_eps0,
        },
    }
    cols = sorted(record["comparison"])
    _write(args.format or "json", args.out, cols,
           [[record["comparison"][c] for c in cols]], payload=record)
    return EXIT_OK if ours.converged else EXIT_NONCONV


def _parse_m_grid(text):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError([("--m-grid", "expected MIN:MAX:COUNT[:log|lin]")])
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError([("--m-grid", "MIN and MAX must be numbers and "
                            f"COUNT an integer, got {text!r}")]) from None
    scale = parts[3] if len(parts) == 4 else "lin"
    if scale not in ("lin", "log"):
        raise ConfigError([("--m-grid", "scale must be lin or log")])
    if count < 1 or not 0.0 < lo < hi < math.inf:
        raise ConfigError([("--m-grid", "need 0 < min < max < inf, count >= 1")])
    return _grid(lo, hi, count, scale == "log", "--m-grid")


def _grid(lo, hi, count, log, path):
    """``count`` values from lo to hi, evenly or geometrically spaced; a
    count numpy cannot allocate is a configuration error on ``path``."""
    try:
        return np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)
    except (ValueError, MemoryError):
        _fail(path, f"cannot make a grid of {count} values")


def cmd_spectra(args) -> int:
    cfg = parse_run_config(_load_json(args.config))
    grid = _parse_m_grid(args.m_grid)
    u = args.u
    if not (math.isfinite(u) and u > 0.0):
        raise ConfigError([("--u", "must be a finite number > 0")])
    m1, m2 = cfg["system"].medium1.model, cfg["system"].medium2.model
    s1, s2 = spectral_density(m1), spectral_density(m2)
    # first, so that an energy out of range stops the command before any
    # other column is formed from it
    s11, s22, s12 = plane_spectral_products(m1, m2, grid, u)
    v1 = np.asarray(s1.value(grid), dtype=float)
    v2 = np.asarray(s2.value(grid), dtype=float)
    columns = ["m_ev", "spectral1", "spectral2", "product_11", "product_12"]
    rows = [[float(m), float(a), float(b), float(c11 * c22), float(c12 ** 2)]
            for m, a, b, c11, c22, c12 in zip(grid, v1, v2, s11, s22, s12)]
    _write(args.format or "csv", args.out, columns, rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validation.run_all()
    for r in results:
        print(r.line())
    n_fail = sum(1 for r in results if not r.passed)
    known = sum(1 for r in results
                if not r.passed and r.criterion in validation.EXPECTED_FAILURES)
    print(f"{len(results) - n_fail}/{len(results)} checks passed"
          + (f" ({known} known-inconsistent benchmark figures)" if known else ""))
    return EXIT_OK if n_fail == 0 else 1


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([("--config", f"cannot read: {exc}")])
    except json.JSONDecodeError as exc:
        raise ConfigError([("--config", f"invalid JSON: {exc}")])
    except RecursionError:
        raise ConfigError([("--config", "invalid JSON: nested too deeply")]) \
            from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing keeps no state in the parser, and building it costs more than
    a closed-form command."""
    parser = argparse.ArgumentParser(
        prog="casfric",
        description="Casimir friction between polarizable media")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, default_format=None):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--format", choices=("json", "csv"),
                       default=default_format)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    add_io(sub.add_parser("compute", help="one friction evaluation"))
    add_io(sub.add_parser("sweep", help="1-D parameter sweep"))
    add_io(sub.add_parser("compare", help="benchmark comparison record"))
    sp = sub.add_parser("spectra", help="spectral densities on an m grid")
    add_io(sp, default_format="csv")
    sp.add_argument("--m-grid", required=True,
                    help="MIN:MAX:COUNT[:log|lin] in eV")
    sp.add_argument("--u", type=float, default=1.0,
                    help="transverse mode u = q*d for the channel products")
    sub.add_parser("validate", help="run the acceptance checks")
    return parser


_COMMANDS = {
    "compute": cmd_compute,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "spectra": cmd_spectra,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # Buffered output meets a closed reader here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send what is left in the buffer to devnull,
        # so that the flush at exit raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CasfricError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
