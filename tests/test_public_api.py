"""Every public module-level name of the package is reached from the
package itself, unless it is the independent oracle of a check."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import casfric
import casfric.cli  # noqa: F401  (loaded first, as perfbench/run.py does)
from casfric import friction

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
        "integrate_finite and integrate_semi_infinite adapt f(x) to a "
        "one-job f(x, job)",
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
