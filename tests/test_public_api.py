"""Every public module-level name of the package is reached from the
package itself, unless it is the independent oracle of a check."""

import ast
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import casfric
import casfric.cli  # noqa: F401  (loaded first, as perfbench/run.py does)
from casfric import comparisons, friction, geometry, oscillator_stats, units
from casfric.dielectric import (Drude, MediumSpec, Tabulated,
                                surface_plasmon_frequency)
from casfric.errors import DomainError
from casfric.presets import conductivity
from casfric.quadrature import (QuadratureSpec, integrate_finite,
                                integrate_semi_infinite,
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
    params = inspect.signature(oscillator_stats.g_imaginary_time).parameters
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


@pytest.mark.parametrize("make, field", [
    (lambda: Drude("9", 0.1), "plasma_energy_ev"),
    (lambda: Drude(9.0, None), "damping_ev"),
    (lambda: Drude(True, 0.1), "plasma_energy_ev"),
    (lambda: MediumSpec(_GOLD, "1"), "density_per_nm3"),
    (lambda: friction.PlateSystem(MediumSpec(_GOLD), MediumSpec(_GOLD), "10",
                                  1.0, 300.0), "d_nm"),
    (lambda: friction.PlateSystem(MediumSpec(_GOLD), MediumSpec(_GOLD), 10.0,
                                  1.0, np.array(300.0)), "T_K"),
    (lambda: friction.friction_hybrid(MediumSpec(_GOLD), _GOLD, "1", 1.0,
                                      300.0), "z0_nm"),
    (lambda: Tabulated(["a", "b"], [0, 1]), "m_ev"),
    (lambda: Tabulated([0, 1j], [0, 1]), "m_ev"),
    (lambda: Tabulated([0, 1], [[0], [1, 2]]), "values"),
    (lambda: QuadratureSpec(abs_tol="1e-10"), "abs_tol"),
    (lambda: QuadratureSpec(max_subdivisions=np.bool_(True)), "max_subdivisions"),
    (lambda: friction.PlateSystem(MediumSpec(_GOLD), MediumSpec(_GOLD), 10 ** 400,
                                  1.0, 300.0), "d_nm"),
], ids=["drude-str", "drude-none", "drude-bool", "medium-density",
        "plate-gap", "plate-array", "hybrid-height", "table-str",
        "table-complex", "table-ragged", "spec-tol", "spec-numpy-bool",
        "plate-gap-past-float"])
def test_number_fields_raise_typed_errors(make, field):
    """A field that is not one real number, or a table column that is
    not real numbers, is a DomainError naming it, not a TypeError or a
    ValueError from the comparison or conversion that meets it."""
    with pytest.raises(DomainError, match=field):
        make()


_TABLE = Tabulated([0.0, 0.5, 1.0], [0.0, 1e-3, 0.0])

# (call of one bare number x, the name of the argument it takes x as)
_BARE = {
    "g_perp": (lambda x: geometry.g_perp(x), "z"),
    "g_perp_kspace": (lambda x: geometry.g_perp_kspace(x), "z"),
    "g_halfplane-rho1": (lambda x: geometry.g_halfplane(x, 1.0), "rho1"),
    "g_halfplane-z0": (lambda x: geometry.g_halfplane(1.0, x), "z0"),
    "g_halfplane_quadrature": (
        lambda x: geometry.g_halfplane_quadrature(1.0, x), "z0"),
    "g_two_planes-rho2": (lambda x: geometry.g_two_planes(1.0, x, 1.0), "rho2"),
    "g_two_planes-d": (lambda x: geometry.g_two_planes(1.0, 1.0, x), "d"),
    "g_two_planes_quadrature": (
        lambda x: geometry.g_two_planes_quadrature(x, 1.0, 1.0), "rho1"),
    "pendry-sigma": (lambda x: comparisons.pendry_force(x, 1e-8, 1.0),
                     "conductivity_over_eps0"),
    "pendry-d": (lambda x: comparisons.pendry_force(1e10, x, 1.0), "d_m"),
    "pendry-v": (lambda x: comparisons.pendry_force(1e10, 1e-8, x), "v_m_per_s"),
    "ratio-T": (lambda x: comparisons.ratio_to_pendry(x, 1.0, 1e-8),
                "temperature_k"),
    "ratio-v": (lambda x: comparisons.ratio_to_pendry(300.0, x, 1e-8),
                "v_m_per_s"),
    "ratio-d": (lambda x: comparisons.ratio_to_pendry(300.0, 1.0, x), "d_m"),
    "vp-sigma": (lambda x: comparisons.vp_friction(x, 1e-8, 300.0, 1.0),
                 "four_pi_sigma"),
    "vp-d": (lambda x: comparisons.vp_friction(1e10, x, 300.0, 1.0), "d_m"),
    "vp-T": (lambda x: comparisons.vp_friction(1e10, 1e-8, x, 1.0),
             "temperature_k"),
    "vp-v": (lambda x: comparisons.vp_friction(1e10, 1e-8, 300.0, x),
             "v_m_per_s"),
    "thermal_energy": (lambda x: units.thermal_energy(x), "temperature_k"),
    "beta": (lambda x: units.beta(x), "temperature_k"),
    "semi-infinite": (lambda x: integrate_semi_infinite(np.exp, x),
                      "decay_scale"),
    "semi-infinite-many": (lambda x: integrate_semi_infinite_many(
        lambda t, job: np.exp(-t), [(1.0, ()), (x, ())]), "decay_scale"),
    "pair-alpha1": (lambda x: oscillator_stats.pair_correlators(x, 1.0, 0.5),
                    "alpha1"),
    "pair-alpha2": (lambda x: oscillator_stats.pair_correlators(1.0, x, 0.5),
                    "alpha2"),
    "pair-phi": (lambda x: oscillator_stats.pair_correlators(1.0, 1.0, x),
                 "phi"),
    "fourth-alpha2": (
        lambda x: oscillator_stats.pair_fourth_moment(1.0, x, 0.5), "alpha2"),
    "fourth-phi": (
        lambda x: oscillator_stats.pair_fourth_moment(1.0, 1.0, x), "phi"),
    "sample-alpha1": (lambda x: oscillator_stats.sample_pair_correlators(
        x, 1.0, 0.5, 10, 1), "alpha1"),
    "sample-phi": (lambda x: oscillator_stats.sample_pair_correlators(
        1.0, 1.0, x, 10, 1), "phi"),
}


@pytest.mark.parametrize("value", ["1", None, True, math.inf, math.nan],
                         ids=["str", "none", "bool", "inf", "nan"])
@pytest.mark.parametrize("case", _BARE)
def test_bare_numbers_raise_typed_errors(case, value):
    """A bare number argument that is not one finite real number is a
    DomainError naming the argument, not a TypeError, a numpy error or a
    result made of it: phi may take any finite value, the others only
    one > 0."""
    call, name = _BARE[case]
    bound = "" if name == "phi" else " and > 0"
    with pytest.raises(DomainError, match=rf"^{name} must be (a real number"
                                          rf"|finite{bound}), got "):
        call(value)


# (call of one number x, the field or argument it takes x as, whether 0
# is allowed); their types are checked as in test_number_fields_raise_typed_errors
_RANGED = {
    "plate-d": (lambda x: friction.PlateSystem(
        MediumSpec(_GOLD), MediumSpec(_GOLD), x, 1.0, 300.0), "d_nm", False),
    "plate-v": (lambda x: friction.PlateSystem(
        MediumSpec(_GOLD), MediumSpec(_GOLD), 10.0, x, 300.0), "v_m_per_s",
        True),
    "plate-T": (lambda x: friction.PlateSystem(
        MediumSpec(_GOLD), MediumSpec(_GOLD), 10.0, 1.0, x), "T_K", False),
    "hybrid-z0": (lambda x: friction.friction_hybrid(
        MediumSpec(_TABLE), _GOLD, x, 1.0, 300.0), "z0_nm", False),
    "hybrid-v": (lambda x: friction.friction_hybrid(
        MediumSpec(_TABLE), _GOLD, 10.0, x, 300.0), "v_m_per_s", True),
    "hybrid-T": (lambda x: friction.friction_hybrid(
        MediumSpec(_TABLE), _GOLD, 10.0, 1.0, x), "T_K", False),
    "medium-density": (lambda x: MediumSpec(_GOLD, x), "density_per_nm3",
                       False),
    "spec-abs_tol": (lambda x: QuadratureSpec(abs_tol=x), "abs_tol", False),
    "spec-rel_tol": (lambda x: QuadratureSpec(rel_tol=x), "rel_tol", False),
}


@pytest.mark.parametrize("value", [-1.0, math.inf, math.nan],
                         ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("case", _RANGED)
def test_numbers_out_of_range_raise_one_form(case, value):
    """A number outside its range is the same DomainError form as a bare
    argument's, naming the field: finite and > 0, or >= 0 for a speed."""
    call, name, zero = _RANGED[case]
    bound = ">=" if zero else ">"
    with pytest.raises(DomainError,
                       match=rf"^{name} must be finite and {bound} 0, got "):
        call(value)


def test_number_fields_keep_their_bits():
    # every number field is stored at construction as the Python float or
    # int it equals, so a numpy scalar computes as its Python twin does
    for kind in (np.float64, np.float32, np.float16, np.int64):
        plasma, damping, density, gap, speed, temp, tol = map(
            kind, (9, 1, 2, 10, 100, 300, 1))
        budget = np.int64(3)
        model = Drude(plasma, damping)
        system = friction.PlateSystem(MediumSpec(model, density),
                                      MediumSpec(model), gap, speed, temp)
        spec = QuadratureSpec(tol, tol, budget)
        stored = [(model.plasma_energy_ev, plasma), (model.damping_ev, damping),
                  (system.medium1.density_per_nm3, density),
                  (system.d_nm, gap), (system.v_m_per_s, speed),
                  (system.T_K, temp), (spec.abs_tol, tol), (spec.rel_tol, tol)]
        for field, given in stored:
            assert type(field) is float and field == float(given)
        assert type(spec.max_subdivisions) is int and spec.max_subdivisions == 3
        assert integrate_finite(np.sqrt, 0.0, 1.0, spec) == integrate_finite(
            np.sqrt, 0.0, 1.0, QuadratureSpec(1.0, 1.0, 3))
    for kind in (np.float32, np.float16):  # the 1e76 eV bound overflows them
        with pytest.raises(DomainError, match="plasma_energy_ev"):
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

    def bare(x):
        """The closed forms that take bare numbers, on ``x`` of each."""
        return [geometry.g_halfplane(x(2), x(3)),
                geometry.g_two_planes(x(2), x(3), x(5)),
                units.thermal_energy(x(300)),
                comparisons.pendry_force(x(3), x(2), x(5)),
                comparisons.ratio_to_pendry(x(300), x(5), x(2)),
                comparisons.vp_friction(x(3), x(2), x(300), x(5))]

    for kind in (np.float32, np.float16, np.int64):
        got, want = bare(kind), bare(lambda v: float(kind(v)))
        assert list(map(repr, got)) == list(map(repr, want))
