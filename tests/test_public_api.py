"""Every public module-level name of the package is reached from the
package itself, unless it is the independent oracle of a check."""

import ast
import cmath
import dataclasses
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
from casfric import comparisons as cmp, dielectric as dl, electrostatics as el
from casfric import friction, units
from casfric import geometry as geo, oscillator_stats as osc
from casfric.dielectric import (Drude, MediumSpec, Tabulated,
                                surface_plasmon_frequency)
from casfric.errors import CasfricError, DomainError
from casfric.presets import conductivity
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_finite, integrate_semi_infinite)

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
_PLATE = (MediumSpec(_GOLD), MediumSpec(_GOLD), 10.0, 1.0, 300.0)
_DENSITY = dl.spectral_density(_GOLD)
# With a bounded integrand, huge ends neither warn nor run long in one pass
_ONE_PASS = QuadratureSpec(max_subdivisions=1)
# The rule a number must meet, as its DomainError states it; ANY admits
# every real number, inf and nan too.
P, N, R, ANY = "finite and > 0", "finite and >= 0", "finite", "a real number"

# The number contract of the public API, one entry per public function and
# input dataclass that _walk finds taking a float: the names of its cases,
# valid base arguments, the rule of each float parameter (with the name its
# DomainError gives, if not the parameter's) and what is computed from the
# result, if not the result itself.
CALLS = {
    units.thermal_energy: ("thermal_energy", (300.0,), {"temperature_k": P}),
    units.beta: ("beta", (300.0,), {"temperature_k": P}),
    QuadratureSpec: ("spec-abs_tol spec-rel_tol", (1e-10, 1e-8),
                     {"abs_tol": P, "rel_tol": P},
                     lambda s: (s.abs_tol, s.rel_tol)),
    integrate_finite: ("finite-a finite-b", (np.cos, 0.0, 2.0, _ONE_PASS),
                       {"a": R, "b": R}),
    integrate_semi_infinite: ("semi-infinite", (np.cos, 1.0, _ONE_PASS),
                              {"decay_scale": P}),
    Drude: ("drude-plasma drude-damping", (9.0, 0.1),
            {"plasma_energy_ev": P, "damping_ev": N}, conductivity),
    MediumSpec: ("medium-density", (_GOLD, 1.0), {"density_per_nm3": P},
                 lambda s: s.density_per_nm3),
    dl.dense_alpha_retarded: ("dense_alpha_retarded", (_GOLD, 1.0), {"m": P}),
    dl.eps_retarded: ("eps_retarded", (_GOLD, 1.0), {"m": P}),
    # the spectrum is odd in m
    dl.drude_spectral_value: ("drude_spectral_value", (_GOLD, 1.0), {"m": R}),
    osc.OscillatorSpec: ("osc-alpha_static osc-eigen_energy_ev", (1.0, 1.0),
                         {"alpha_static": P, "eigen_energy_ev": P},
                         lambda o: (osc.gtilde(o, 1.0),
                                    osc.g_imaginary_time(o, 0.5, 1.0))),
    osc.gtilde: ("gtilde-k", (_OSC, 1.0), {"k": R}),
    # beta holds every draw, so lam meets only its own rule, >= 0
    osc.g_imaginary_time: ("imaginary-time-lam imaginary-time-beta",
                           (_OSC, 0.0, 1e308), {"lam": N, "beta": P}),
    osc.pair_correlators: ("pair-alpha1 pair-alpha2 pair-phi", (1.0, 1.0, 0.5),
                           {"alpha1": P, "alpha2": P, "phi": R}),
    osc.pair_fourth_moment: ("fourth-alpha1 fourth-alpha2 fourth-phi",
                             (1.0, 1.0, 0.5),
                             {"alpha1": P, "alpha2": P, "phi": R}),
    osc.sample_pair_correlators: ("sample-alpha1 sample-alpha2 sample-phi",
                                  (1.0, 1.0, 0.5, 10, 1),
                                  {"alpha1": P, "alpha2": P, "phi": R}),
    geo.g_perp: ("g_perp", (1.0,), {"z": P}),
    geo.g_perp_kspace: ("g_perp_kspace", (1.0,), {"z": P}),
    geo.g_halfplane: ("g_halfplane-rho1 g_halfplane-z0", (1.0, 1.0),
                      {"rho1": P, "z0": P}),
    geo.g_halfplane_quadrature: (
        "g_halfplane_quadrature-rho1 g_halfplane_quadrature", (1.0, 1.0),
        {"rho1": P, "z0": P}),
    geo.g_two_planes: ("g_two_planes-rho1 g_two_planes-rho2 g_two_planes-d",
                       (1.0, 1.0, 1.0), {"rho1": P, "rho2": P, "d": P}),
    geo.g_two_planes_quadrature: (
        "g_two_planes_quadrature g_two_planes_quadrature-rho2 "
        "g_two_planes_quadrature-d", (1.0, 1.0, 1.0),
        {"rho1": P, "rho2": P, "d": P}),
    friction.PlateSystem: ("plate-d plate-v plate-T", _PLATE,
                           {"d_nm": P, "v_m_per_s": N, "T_K": P},
                           lambda s: (s.d_nm, s.v_m_per_s, s.T_K)),
    friction.h0_overlap: ("h0_overlap", (_DENSITY, _DENSITY, 300.0),
                          {"temperature_k": P}),
    friction.h0_dense_at_u: ("h0_dense_at_u-T h0_dense_at_u-u",
                             (_GOLD, _GOLD, 300.0, 1.0),
                             {"temperature_k": P, "u": P}),
    friction.h0_integrand: ("h0_integrand", ("dense-full", friction.PlateSystem(
        *_PLATE), "keep", 1.0), {"m": P}),
    friction.friction_hybrid: ("hybrid-z0 hybrid-v hybrid-T",
                               (MediumSpec(_TABLE), _GOLD, 10.0, 1.0, 300.0),
                               {"z0_nm": P, "v_m_per_s": N,
                                "temperature_k": ("T_K", P)}),
    el.LayeredConfig: ("layers-eps1 layers-eps2 layers-d_nm layers-q_per_nm",
                       (2.0, 3.0, 1.0, 1.0),
                       {"eps1": R, "eps2": R, "d_nm": P, "q_per_nm": P},
                       el.denominator_check),
    cmp.pendry_force: ("pendry-sigma pendry-d pendry-v", (1e10, 1e-8, 1.0),
                       {"conductivity_over_eps0": P, "d_m": P, "v_m_per_s": P}),
    cmp.ratio_to_pendry: ("ratio-T ratio-v ratio-d", (300.0, 1.0, 1e-8),
                          {"temperature_k": P, "v_m_per_s": P, "d_m": P}),
    cmp.vp_friction: ("vp-sigma vp-d vp-T vp-v", (1e10, 1e-8, 300.0, 1.0),
                      {"four_pi_sigma": P, "d_m": P, "temperature_k": P,
                       "v_m_per_s": P}),
}

# Results and data, which take no number from a caller -> why _walk skips them
EXEMPT = {
    "IntegralResult": "the result of an integral",
    "FrictionResult": "the result of a force route",
    "BoundarySolution": "the result of solve_layers",
    "CheckResult": "the result of a criterion",
    "Preset": "a named set of checked fields",
    "SpectralDensity": "built on every op by spectral_density, so no per-op check",
}


def _walk():
    """Each public function and dataclass of the modules in casfric.__all__
    with its parameters annotated float (or float | None)."""
    for module in map(casfric.__dict__.get, casfric.__all__):
        for name, obj in vars(module).items() if inspect.ismodule(module) else ():
            if (not name.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                    and (inspect.isfunction(obj) or inspect.isclass(obj)
                         and dataclasses.is_dataclass(obj))):
                params = inspect.signature(obj).parameters.values()
                yield obj, [p.name for p in params
                            if p.annotation in ("float", "float | None")]


def test_every_float_parameter_has_a_rule():
    # a new public number fails here until CALLS or EXEMPT names it
    walked = {obj: floats for obj, floats in _walk()
              if floats and obj.__name__ not in EXEMPT}
    assert {obj: list(entry[2]) for obj, entry in CALLS.items()} == walked
    assert {obj.__name__ for obj, floats in _walk() if floats} >= set(EXEMPT)


def _with(obj, base, param, then=None):
    """x -> ``obj`` of ``base`` but x for ``param``, or ``then`` of that."""
    signature = inspect.signature(obj)

    def call(x):
        bound = signature.bind(*base)
        bound.arguments[param] = x
        out = obj(*bound.args, **bound.kwargs)
        return out if then is None else then(out)

    return call


# case -> (call of a number x, the name its DomainError gives x, the rule x
# must meet, whether x may be None): the cases of CALLS, then those of
# numbers given in a list or an array.
NUMBERS = {
    case: (_with(obj, base, param, *then),
           *(rule if isinstance(rule, tuple) else (param, rule)),
           "None" in inspect.signature(obj).parameters[param].annotation)
    for obj, (cases, base, rules, *then) in CALLS.items()
    for case, (param, rule) in zip(cases.split(), rules.items())}
NUMBERS.update({
    # a split point that is not finite lies in no interval
    "finite-split_points": (lambda x: integrate_finite(
        np.cos, 0.0, 2.0, _ONE_PASS, [x]), "split_points", ANY, False),
    "semi-infinite-split_points": (lambda x: integrate_semi_infinite(
        np.cos, 1.0, _ONE_PASS, [x]), "split_points", ANY, False),
    # a table takes columns: a number is a column too short to tabulate
    "table-m": (lambda x: Tabulated(x, [0.0, 1.0]).static_response,
                "m_ev", N, False),
    "table-values": (lambda x: Tabulated([0.0, 1.0], x).static_response,
                     "values", N, False),
})


def _outcome(call, x):
    """``call(x)``, or the CasfricError it raises; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(x)
        except CasfricError as exc:
            return exc


def _finite(out) -> bool:
    """Whether ``out`` is finite floats, complexes or arrays of them, or not
    converged."""
    if isinstance(out, (tuple, list, dict)):
        return all(map(_finite, out.values() if isinstance(out, dict) else out))
    if isinstance(out, (IntegralResult, friction.FrictionResult)):
        return not out.converged or _finite(
            out.value if isinstance(out, IntegralResult) else out.force)
    if isinstance(out, np.ndarray):
        return out.dtype in (float, complex) and bool(np.isfinite(out).all())
    return type(out) in (float, complex) and cmath.isfinite(out)


def _check(case, x):
    """``x`` given to ``case``: a DomainError of the one form naming the
    number unless x meets the case's rule, else ``_finite`` or a
    CasfricError."""
    call, name, rule, optional = NUMBERS[case]
    out = _outcome(call, x)
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    finite = real and (abs(x) <= sys.float_info.max if isinstance(x, int)
                       else math.isfinite(x))
    if x is None and optional:
        assert out is None
    elif rule == ANY and real or finite and (
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


# The cases of the first typed-error table, each a value given to a case
_GIVEN = {
    "drude-str": ("drude-plasma", "9"),
    "drude-none": ("drude-damping", None),
    "drude-bool": ("drude-plasma", True),
    "plate-gap": ("plate-d", "10"),
    "medium-density": ("medium-density", "1"),
    "spec-tol": ("spec-abs_tol", "1e-10"),
    "plate-array": ("plate-T", np.array(300.0)),
    "hybrid-height": ("hybrid-z0", "1"),
    "table-str": ("table-m", ["a", "b"]),
    "table-complex": ("table-m", [0, 1j]),
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
