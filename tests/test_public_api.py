"""Every public module-level name of the package is reached from the
package itself, unless it is the independent oracle of a check."""

import ast
import importlib.util
import inspect
import math
import numbers
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import casfric
import casfric.cli  # noqa: F401  (loaded first, as perfbench/run.py does)
from casfric import comparisons as cmp, electrostatics as el, friction, units
from casfric import geometry as geo, oscillator_stats as osc
from casfric.dielectric import (Drude, MediumSpec, Tabulated,
                                surface_plasmon_frequency)
from casfric.errors import CasfricError, DomainError
from casfric.presets import conductivity
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_finite, integrate_semi_infinite,
                                integrate_semi_infinite_many)

SRC = Path(casfric.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (module, name) -> why it stays though the package does not reach it
ORACLES = {
    ("friction.py", "h0_dense_at_u"):
        "traced by perfbench/spans.py; no check uses it",
}


def _definitions(tree, private):
    """Module-level definitions of ``tree``, public or private (one
    leading underscore), as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") is private and not name.startswith("__"):
                yield name, node


def _mentions(node):
    """How often each identifier appears as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _reach(private):
    """The names defined at module level, and those of them the package
    mentions nowhere outside their own definition, as module:name."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_mentions(tree) for tree in trees.values()), Counter())
    defined, unreached = set(), set()
    for module, tree in trees.items():
        for name, node in _definitions(tree, private):
            defined.add(name)
            if uses[name] == _mentions(node)[name]:
                unreached.add(f"{module}:{name}")
    return defined, unreached


def test_every_public_name_is_reached():
    defined, unreached = _reach(private=False)
    assert {"friction_dense", "Drude", "HBAR_JS", "ROUTES"} <= defined
    # an oracle that the package starts to reach leaves the allowlist
    assert unreached == {f"{module}:{name}"
                         for module, name in ORACLES}


def test_every_private_name_is_reached():
    # a helper left behind when its caller goes fails here; private names
    # have no oracle allowlist
    defined, unreached = _reach(private=True)
    assert {"_panels", "_bisect", "_M_MAX", "_TableTerms"} <= defined
    assert unreached == set()


def test_friction_names_no_model_but_drude():
    # what a medium states of itself (its density, response and A(0)) is
    # decided in dielectric; friction names only Drude, which the closed
    # form and the per-particle routes turn away, imported or not
    tree = ast.parse((SRC / "friction.py").read_text(encoding="utf-8"))
    names = _mentions(tree) + Counter(
        n.name for n in ast.walk(tree) if isinstance(n, ast.alias))
    assert names["Drude"] > 0
    assert names["Tabulated"] == names["Vacuum"] == 0


def test_imaginary_time_correlator_has_one_calling_convention():
    # a batch is an OscillatorSpec of arrays, so there is no job argument
    params = inspect.signature(osc.g_imaginary_time).parameters
    assert list(params) == ["osc", "lam", "beta"]


def test_no_module_reads_the_environment():
    # a force depends on its arguments only: no module reads os.environ
    # or os.getenv, whether as an attribute or imported by name
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in readers]
    assert found == []


# (module, function, parameter) -> why the parameter is not read.  A
# parameter that is read but cancels from the result (as beta once did in
# oscillator_stats.sample_pair_correlators) passes this check unseen.
IDLE_PARAMETERS = {
    ("cli.py", "cmd_validate", "args"):
        "every command takes the parsed arguments from main's dispatch",
    ("quadrature.py", "<lambda>", "job"):
        "integrate_semi_infinite adapts f(x) to a one-job f(x, job)",
}


def _parameters(node):
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                            *args.kwonlyargs, args.kwarg) if a is not None]


def test_every_parameter_is_read():
    idle = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            idle |= {(path.name, name, p) for p in _parameters(node)
                     if p not in read}
    assert idle == set(IDLE_PARAMETERS)


def test_benchmark_tracer_installs_and_restores():
    # perfbench/spans.py wraps package functions by name: a name it traces
    # that leaves the package fails here, not in a traced benchmark run
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = friction.h0_overlap
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert friction.h0_overlap is not original
    finally:
        tracer.uninstall()
    assert friction.h0_overlap is original


def test_benchmark_tracer_records_every_route(tmp_path):
    # a traced force call reads the route's parameters by name
    # (system, probe, plate, temperature_k, denominators, spec) and
    # quadrature.default_spec: renaming one breaks only traced runs
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = tmp_path / "probe.txt"
    table.write_text("0 0\n5 1e-4\n10 2e-4\n")
    gold = {"preset": "gold"}
    probe = {"model": "tabulated", "path": str(table), "density_per_nm3": 0.01}
    configs = [casfric.cli.parse_run_config({
        "system": {"medium1": medium1, "medium2": medium2, gap: 10.0,
                   "v_m_per_s": 100.0, "T_K": 300.0}, "route": route})
        for route, medium1, medium2, gap in (
            ("dense-full", gold, gold, "d_nm"),
            ("drude-closed-form", gold, gold, "d_nm"),
            ("dilute", probe, probe, "d_nm"), ("hybrid", probe, gold, "z0_nm"))]
    originals = {name: getattr(friction, name)
                 for name in ("h0_overlap", *spans.FORCE_CALLS)}
    run_config = casfric.cli.run_config
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        for cfg in configs:
            casfric.cli.run_config(cfg)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert [key[0] for key in tracer.force_keys] == [
        "friction_dense", "friction_drude_closed_form", "friction_dilute",
        "friction_hybrid"]
    metrics = tracer.layer_metrics()
    assert metrics["friction.h0_overlap.calls"] == 3
    assert metrics["cli.run_config.calls"] == 4
    assert {name: getattr(friction, name) for name in originals} == originals
    assert casfric.cli.run_config is run_config


# Run in a fresh interpreter: whether a module has loaded depends on what
# the process imported before.
FRESH_IMPORT = r"""
import importlib.util, re, sys, types
import casfric.cli

spans_path = sys.argv[1]
with open(spans_path, encoding="utf-8") as fh:
    read = set(re.findall(r'sys\.modules\["casfric\.(\w+)"\]', fh.read()))
assert {"friction", "cli", "validation"} <= read, read
spec = importlib.util.spec_from_file_location("spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
read |= set(spans.WHOLE_MODULES)
missing = [n for n in read if f"casfric.{n}" not in sys.modules]
assert not missing, missing

# the modules only validate and compare use are registered, not run
deferred = ("validation", "comparisons", "electrostatics", "oscillator_stats")
for name in deferred:
    module = sys.modules[f"casfric.{name}"]
    assert type(module) is not types.ModuleType, name
    assert isinstance(module, types.ModuleType), name
assert "csv" not in sys.modules

friction = sys.modules["casfric.friction"]
original = friction.h0_overlap
tracer = spans.Tracer()
try:
    tracer.install()
    assert friction.h0_overlap is not original
finally:
    tracer.uninstall()
assert friction.h0_overlap is original
assert callable(casfric.validation.run_all)
assert all(type(sys.modules[f"casfric.{n}"]) is types.ModuleType
           for n in deferred)
"""


def test_fresh_import_defers_the_validate_modules():
    # perfbench/spans.py reads these modules from sys.modules right after
    # importing casfric.cli, in a process that has loaded nothing else
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(SPANS)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


_GOLD = Drude(9.0, 0.035)
_TABLE = Tabulated([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0])
_OSC = osc.OscillatorSpec(1.0, 1.0)
# The rule a number must meet, as its DomainError states it.
P, N, R = "finite and > 0", "finite and >= 0", "finite"


def _plate(d=10.0, v=1.0, t=300.0):
    return friction.PlateSystem(MediumSpec(_GOLD), MediumSpec(_GOLD), d, v, t)


def _hybrid(z0=10.0, v=1.0, t=300.0):
    return friction.friction_hybrid(MediumSpec(_TABLE), _GOLD, z0, v, t)


# The number contract of the public API, one row per number a caller gives:
# (call of that number x, returning what is computed from it, the name its
# DomainError gives it, the rule it must meet).
NUMBERS = {
    "g_perp": (lambda x: geo.g_perp(x), "z", P),
    "g_perp_kspace": (lambda x: geo.g_perp_kspace(x), "z", P),
    "g_halfplane-rho1": (lambda x: geo.g_halfplane(x, 1.0), "rho1", P),
    "g_halfplane-z0": (lambda x: geo.g_halfplane(1.0, x), "z0", P),
    "g_halfplane_quadrature": (
        lambda x: geo.g_halfplane_quadrature(1.0, x), "z0", P),
    "g_two_planes-rho2": (lambda x: geo.g_two_planes(1.0, x, 1.0), "rho2", P),
    "g_two_planes-d": (lambda x: geo.g_two_planes(1.0, 1.0, x), "d", P),
    "g_two_planes_quadrature": (
        lambda x: geo.g_two_planes_quadrature(x, 1.0, 1.0), "rho1", P),
    "pendry-sigma": (lambda x: cmp.pendry_force(x, 1e-8, 1.0),
                     "conductivity_over_eps0", P),
    "pendry-d": (lambda x: cmp.pendry_force(1e10, x, 1.0), "d_m", P),
    "pendry-v": (lambda x: cmp.pendry_force(1e10, 1e-8, x), "v_m_per_s", P),
    "ratio-T": (lambda x: cmp.ratio_to_pendry(x, 1.0, 1e-8), "temperature_k", P),
    "ratio-v": (lambda x: cmp.ratio_to_pendry(300.0, x, 1e-8), "v_m_per_s", P),
    "ratio-d": (lambda x: cmp.ratio_to_pendry(300.0, 1.0, x), "d_m", P),
    "vp-sigma": (lambda x: cmp.vp_friction(x, 1e-8, 300.0, 1.0),
                 "four_pi_sigma", P),
    "vp-d": (lambda x: cmp.vp_friction(1e10, x, 300.0, 1.0), "d_m", P),
    "vp-T": (lambda x: cmp.vp_friction(1e10, 1e-8, x, 1.0), "temperature_k", P),
    "vp-v": (lambda x: cmp.vp_friction(1e10, 1e-8, 300.0, x), "v_m_per_s", P),
    "thermal_energy": (lambda x: units.thermal_energy(x), "temperature_k", P),
    "beta": (lambda x: units.beta(x), "temperature_k", P),
    "semi-infinite": (lambda x: integrate_semi_infinite(lambda t: np.exp(-t), x),
                      "decay_scale", P),
    "semi-infinite-many": (lambda x: integrate_semi_infinite_many(
        lambda t, job: np.exp(-t), [(1.0, ()), (x, ())]), "decay_scale", P),
    "spec-abs_tol": (lambda x: QuadratureSpec(abs_tol=x).abs_tol, "abs_tol", P),
    "spec-rel_tol": (lambda x: QuadratureSpec(rel_tol=x).rel_tol, "rel_tol", P),
    "pair-alpha1": (lambda x: osc.pair_correlators(x, 1.0, 0.5), "alpha1", P),
    "pair-alpha2": (lambda x: osc.pair_correlators(1.0, x, 0.5), "alpha2", P),
    "pair-phi": (lambda x: osc.pair_correlators(0.1, 0.1, x), "phi", R),
    "fourth-alpha2": (lambda x: osc.pair_fourth_moment(1.0, x, 0.5), "alpha2", P),
    "fourth-phi": (lambda x: osc.pair_fourth_moment(0.1, 0.1, x), "phi", R),
    "sample-alpha1": (lambda x: osc.sample_pair_correlators(x, 1.0, 0.5, 10, 1),
                      "alpha1", P),
    "sample-phi": (lambda x: osc.sample_pair_correlators(0.1, 0.1, x, 10, 1),
                   "phi", R),
    "osc-alpha_static": (lambda x: osc.g_imaginary_time(
        osc.OscillatorSpec(x, 1.0), 0.5, 1.0), "alpha_static", P),
    "osc-eigen_energy_ev": (lambda x: osc.gtilde(osc.OscillatorSpec(1.0, x), 1.0),
                            "eigen_energy_ev", P),
    "gtilde-k": (lambda x: osc.gtilde(_OSC, x), "k", R),
    "imaginary-time-beta": (lambda x: osc.g_imaginary_time(_OSC, 0.0, x), "beta", P),
    # beta holds every draw, so lam meets only its own rule, >= 0
    "imaginary-time-lam": (lambda x: osc.g_imaginary_time(_OSC, x, 1e308), "lam", N),
    "layers-eps1": (lambda x: el.denominator_check(el.LayeredConfig(x, 3.0, 1.0, 1.0)),
                    "eps1", R),
    "layers-eps2": (lambda x: el.denominator_check(el.LayeredConfig(2.0, x, 1.0, 1.0)),
                    "eps2", R),
    "layers-d_nm": (lambda x: el.denominator_check(el.LayeredConfig(2.0, 3.0, x, 1.0)),
                    "d_nm", P),
    "layers-q_per_nm": (lambda x: el.denominator_check(
        el.LayeredConfig(2.0, 3.0, 1.0, x)), "q_per_nm", P),
    "plate-d": (lambda x: _plate(d=x).d_nm, "d_nm", P),
    "plate-v": (lambda x: _plate(v=x).v_m_per_s, "v_m_per_s", N),
    "plate-T": (lambda x: _plate(t=x).T_K, "T_K", P),
    "hybrid-z0": (lambda x: _hybrid(z0=x), "z0_nm", P),
    "hybrid-v": (lambda x: _hybrid(v=x), "v_m_per_s", N),
    "hybrid-T": (lambda x: _hybrid(t=x), "T_K", P),
    "medium-density": (lambda x: MediumSpec(_GOLD, x).density_per_nm3,
                       "density_per_nm3", P),
    # a Drude energy past 1e76 eV is Drude's own DomainError
    "drude-plasma": (lambda x: conductivity(Drude(x, 0.1)), "plasma_energy_ev", P),
    "drude-damping": (lambda x: conductivity(Drude(9.0, x)), "damping_ev", N),
    # a table takes columns: a number is a column too short to tabulate
    "table-m": (lambda x: Tabulated(x, [0.0, 1.0]).static_response, "m_ev", R),
    "table-values": (lambda x: Tabulated([0.0, 1.0], x).static_response,
                     "values", R),
}


def _outcome(call, x):
    """``call(x)``, or the CasfricError it raises; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(x)
        except CasfricError as exc:
            return exc


def _finite(out) -> bool:
    """Whether ``out`` is finite floats or float arrays, or not converged."""
    if isinstance(out, (tuple, list, dict)):
        return all(map(_finite, out.values() if isinstance(out, dict) else out))
    if isinstance(out, (IntegralResult, friction.FrictionResult)):
        return not out.converged or _finite(
            out.value if isinstance(out, IntegralResult) else out.force)
    if isinstance(out, np.ndarray):
        return out.dtype == float and bool(np.isfinite(out).all())
    return type(out) is float and math.isfinite(out)


def _check(case, x):
    """``x`` given to row ``case``: a DomainError of the one form naming the
    number unless x meets the row's rule, else ``_finite`` or a CasfricError."""
    call, name, rule = NUMBERS[case]
    out = _outcome(call, x)
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    if x is None and case == "medium-density":
        assert out is None  # a medium may state no density
    elif real and (abs(x) <= sys.float_info.max if isinstance(x, int)  # or inf
                   else math.isfinite(x)) and (
            rule == R or x > 0 or rule == N and x == 0):
        assert _finite(out) or isinstance(out, CasfricError), (case, x, out)
    else:
        assert isinstance(out, DomainError) and re.match(
            rf"{name} must be {rule if real else 'a real number'}, got ",
            str(out)), (case, x, out)


# Values no rule admits: not real numbers, or not finite.
NOT_NUMBERS = {"str": "1", "none": None, "bool": True, "numpy-bool": np.bool_(True),
               "complex": 1j, "list": [1.0, "a"], "ragged": [[1.0], [1.0, 2.0]],
               "inf": math.inf, "nan": math.nan}


@pytest.mark.parametrize("value", NOT_NUMBERS)
@pytest.mark.parametrize("case", NUMBERS)
def test_bare_numbers_raise_typed_errors(case, value):
    # a DomainError naming the number, never a TypeError or a numpy error
    _check(case, NOT_NUMBERS[value])


# each rule's edges, non-finite numpy scalars and an integer past the floats
EDGES = {"negative": -1.0, "zero": 0.0, "inf": np.float64(math.inf),
         "nan": np.float64(math.nan), "past-float": 10 ** 400}


@pytest.mark.parametrize("value", EDGES)
@pytest.mark.parametrize("case", NUMBERS)
def test_numbers_out_of_range_raise_one_form(case, value):
    _check(case, EDGES[value])


@pytest.mark.parametrize("case", NUMBERS)
def test_numpy_twins_keep_the_bits(case):
    # a numpy float or integer gives what the Python float it equals gives,
    # and a narrow one outside the row's rule is refused as a Python float is
    call = NUMBERS[case][0]
    for kind in (np.float64, np.float32, np.float16, np.int64):
        assert repr(_outcome(call, kind(3))) == repr(_outcome(call, 3.0))
        _check(case, kind(-1))


# 10**U(-320, 308): subnormal to near the float maximum
MAGNITUDES = 10.0 ** np.random.default_rng(1).uniform(-320.0, 308.0, 24)


@pytest.mark.parametrize("draw", range(len(MAGNITUDES)))
@pytest.mark.parametrize("case", NUMBERS)
def test_seeded_magnitudes_of_both_signs(case, draw):
    for x in (float(MAGNITUDES[draw]), -float(MAGNITUDES[draw])):
        _check(case, x)


# The cases of the first typed-error table, each a value given to a row
_GIVEN = {
    "drude-str": ("drude-plasma", "9"), "drude-none": ("drude-damping", None),
    "drude-bool": ("drude-plasma", True), "plate-gap": ("plate-d", "10"),
    "medium-density": ("medium-density", "1"), "spec-tol": ("spec-abs_tol", "1e-10"),
    "plate-array": ("plate-T", np.array(300.0)), "hybrid-height": ("hybrid-z0", "1"),
    "table-str": ("table-m", ["a", "b"]), "table-complex": ("table-m", [0, 1j]),
    "table-ragged": ("table-values", [[0], [1, 2]]),
    "spec-numpy-bool": ("spec-rel_tol", np.bool_(True)),
    "plate-gap-past-float": ("plate-d", 10 ** 400)}


@pytest.mark.parametrize("case", _GIVEN)
def test_number_fields_raise_typed_errors(case):
    _check(*_GIVEN[case])


def test_number_fields_keep_their_bits():
    # a numpy integer budget is stored as the int it equals, and a float32
    # or float16 number computes on every route as its Python twin does
    # (each number alone: test_numpy_twins_keep_the_bits)
    spec = QuadratureSpec(1.0, 1.0, np.int64(3))
    assert type(spec.max_subdivisions) is int and spec.max_subdivisions == 3
    assert integrate_finite(np.sqrt, 0.0, 1.0, spec) == integrate_finite(
        np.sqrt, 0.0, 1.0, QuadratureSpec(1.0, 1.0, 3))
    for kind in (np.float32, np.float16):  # the 1e76 eV bound overflows them
        with pytest.raises(DomainError, match="^plasma_energy_ev must be "):
            Drude(kind(-9.0), kind(0.035))

        def routes(x):
            """Each route on the numbers ``x`` makes of the given ones."""
            model = Drude(x(9.0), x(0.035))
            plates = friction.PlateSystem(MediumSpec(model), MediumSpec(model),
                                          x(10.0), x(100.0), x(300.0))
            dilute = friction.PlateSystem(MediumSpec(_TABLE, x(0.01)),
                                          MediumSpec(_TABLE, 0.01), 10.0, 100.0, 300.0)
            return [friction.friction_dense(plates, "drop"),
                    friction.friction_dense(plates, "keep"),
                    friction.friction_drude_closed_form(plates),
                    friction.friction_dilute(dilute),
                    friction.friction_hybrid(MediumSpec(_TABLE), _GOLD, x(10.0),
                                             x(100.0), x(300.0)),
                    conductivity(model),
                    surface_plasmon_frequency(Drude(x(9.0), 0.0))]

        # repr tells a float32 result from the float it equals, and a float
        # from any other float
        got, want = routes(kind), routes(lambda v: float(kind(v)))
        assert list(map(repr, got)) == list(map(repr, want))
