"""Every public module-level name of the package is reached from the
package itself, unless it is the independent oracle of a check."""

import ast
from collections import Counter
from pathlib import Path

import casfric

SRC = Path(casfric.__file__).parent

# (module, name) -> the check it is the oracle of
ORACLES = {
    ("friction.py", "h0_dense_at_u"):
        "nested screened kernel in test_friction (perfbench traces it too)",
    ("electrostatics.py", "solve_layers_linear"):
        "closed-form boundary coefficients in test_electrostatics",
    ("geometry.py", "g_perp_realspace"):
        "analytic g_perp in test_geometry",
    ("geometry.py", "g_two_planes_uspace"):
        "analytic g_two_planes in test_geometry",
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
