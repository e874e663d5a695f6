"""No module of the package imports a name it never uses, every public name
and every public class member has a caller inside the package, every
defaulted parameter is both passed and omitted by production calls, every
defaulted dataclass field is omitted by some production construction, every
stored attribute is read, and importing the package stays light.

Checked with the standard-library ast module.  An imported name counts as
used when it is read anywhere in the module or listed in its __all__.  A
public method, property or classmethod of a class counts as called when an
attribute of its name is read somewhere in the package outside its own
body; the check goes by name, so it cannot tell the classes that define the
same method apart.  The defaulted-parameter check matches calls by name in
the same way, and so does the check that a stored attribute is read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "precondeig"
WORKLOADS = SRC.parent.parent / "perfbench" / "workloads.py"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"

# bindings that perfbench/spans.py patches by module name, so they stay
# although the module itself never calls them
PATCHED_ONLY = {
    ("problems", "lanczos_extremal"),
    ("diagnostics", "apply_fwd_iterative"),
    ("solvers", "apply_fwd_iterative"),
}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return {name for name in imported if name not in used}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    allowed = {name for module, name in PATCHED_ONLY if module == path.stem}
    unused = unused_imports(path)
    assert unused - allowed == set()
    # an allowance whose import is gone or now used is stale
    assert allowed <= unused


def relative_imports(path):
    """Names of the package modules that a module imports from."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module else (a.name for a in node.names))
    return modules


def test_no_function_body_imports_a_package_module():
    # an import inside a function hides a cycle between two modules: each
    # module imports the package modules it needs at its top
    inside = [
        f"{path.stem}.{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert inside == []


def test_problems_sits_below_the_preconditioners():
    # problems builds operators and reference spectra only; whatever takes a
    # problem (preconditioners, diagnostics, solvers, the CLI) sits above it
    above = {"precond", "diagnostics", "solvers", "cli"}
    assert relative_imports(SRC / "problems.py") & above == set()


def public_names():
    """(name, home module) for every name in precondeig.__all__, read from the
    relative imports of __init__.py; a public module is its own home."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    homes, exported = {}, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                homes[alias.asname or alias.name] = node.module or alias.name
        elif isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
            exported = [elt.value for elt in node.value.elts]
    return [(name, homes[name]) for name in exported]


def reads_outside_own_definition(tree, name):
    """Whether a module reads `name` outside the def or class that defines it."""
    return any(
        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        for stmt in tree.body
        if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name)
        for node in ast.walk(stmt)
    )


def has_caller_in_src(name, home, trees):
    if name == home:  # a public module: used when another module imports it
        return any(
            isinstance(node, ast.ImportFrom)
            and node.level == 1
            and (node.module == name or node.module is None and any(a.name == name for a in node.names))
            for tree in trees.values()
            for node in ast.walk(tree)
        )
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if module != home and isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == home and any(a.name == name for a in node.names):
                    return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                if isinstance(node.value, ast.Name) and node.value.id == home:
                    return True
    return reads_outside_own_definition(trees[home], name)


def test_every_public_name_has_a_caller_in_src():
    trees = {
        path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.stem != "__init__"
    }
    uncalled = [name for name, home in public_names() if not has_caller_in_src(name, home, trees)]
    assert uncalled == []


def attribute_reads(node, name):
    return sum(
        isinstance(n, ast.Attribute) and n.attr == name and isinstance(n.ctx, ast.Load)
        for n in ast.walk(node)
    )


def test_every_public_member_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    uncalled = [
        f"{module}.{cls.name}.{member.name}"
        for module, tree in sorted(trees.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        if sum(attribute_reads(t, member.name) for t in trees.values()) == attribute_reads(member, member.name)
    ]
    assert uncalled == []


def defaulted_params(fn, is_method):
    """(position among a call's positional arguments, name) of each parameter
    of fn that has a default; None as the position of a keyword-only one."""
    args = fn.args
    pos = args.posonlyargs + args.args
    skip = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    ))
    out = [(i - skip, arg.arg) for i, arg in enumerate(pos) if i >= len(pos) - len(args.defaults)]
    out += [(None, arg.arg) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def functions(tree):
    """(name a call uses, def, is a method) for every function and method; a
    constructor is called by its class name."""
    methods = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    methods.add(fn)
                    yield (cls.name if fn.name == "__init__" else fn.name), fn, True
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn not in methods:
            yield fn.name, fn, False


def passes(call, position, name):
    """Whether a call may pass the parameter: by keyword, by position, or
    through a * or ** argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def production_calls(trees):
    """Calls in the package and in perfbench/workloads.py, keyed by the name
    they call."""
    calls = {}
    for tree in [*trees.values(), ast.parse(WORKLOADS.read_text())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_defaulted_parameter_is_passed_in_src():
    # a default that only tests override is a knob no user selects; the
    # entry point cli.main(argv) is exempt, its callers live outside
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = production_calls(trees)
    unpassed = [
        f"{module}.{callee}({name})"
        for module, tree in sorted(trees.items())
        for callee, fn, is_method in functions(tree)
        if (module, callee) != ("cli", "main")
        for position, name in defaulted_params(fn, is_method)
        if not any(passes(call, position, name) for call in calls.get(callee, []))
    ]
    assert unpassed == []


def test_every_defaulted_parameter_is_omitted_in_src():
    # a default that every production call overrides runs only in tests;
    # cli.main(argv) is omitted by `sys.exit(main())`
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = production_calls(trees)
    always_passed = [
        f"{module}.{callee}({name})"
        for module, tree in sorted(trees.items())
        for callee, fn, is_method in functions(tree)
        for position, name in defaulted_params(fn, is_method)
        if all(passes(call, position, name) for call in calls.get(callee, []))
    ]
    assert always_passed == []


def defaulted_fields(cls):
    """(position, name) of each field of a dataclass that has a default."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return [(i, s.target.id) for i, s in enumerate(fields) if s.value is not None]


def test_every_defaulted_field_is_omitted_in_src():
    # as for parameters; a cls(...) inside a classmethod constructs its class
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = production_calls(trees)
    always_passed = []
    for module, tree in sorted(trees.items()):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list
            ):
                continue
            built = list(calls.get(cls.name, []))
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "classmethod" for d in fn.decorator_list
                ):
                    built += [
                        node for node in ast.walk(fn)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "cls"
                    ]
            always_passed += [
                f"{module}.{cls.name}.{name}"
                for position, name in defaulted_fields(cls)
                if all(passes(call, position, name) for call in built)
            ]
    assert always_passed == []


# stored attributes that nothing here reads, each with its reason
UNREAD_STORES = {
    "best": "the best iterate that MaxIterations carries for a caller that catches it",
}


def stored_attributes(tree):
    """Names of the attributes a module stores (x.name = ...) and of the
    fields of its dataclasses."""
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            names.update(
                s.target.id for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            )
    return names


def attributes_read_outside_fstrings(tree):
    """Names of the attributes a module reads, not counting the reads that
    only format an f-string."""
    in_fstring = {id(n) for js in ast.walk(tree) if isinstance(js, ast.JoinedStr) for n in ast.walk(js)}
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in in_fstring
    }


def test_every_stored_attribute_is_read():
    # a value stored only to be formatted into a message, or read only by
    # tests, is state that production does not need
    src = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    readers = src + [ast.parse(path.read_text()) for path in (WORKLOADS, SPANS)]
    stored = set().union(*map(stored_attributes, src))
    read = set().union(*map(attributes_read_outside_fstrings, readers))
    assert sorted(stored - read - set(UNREAD_STORES)) == []
    # an exemption whose attribute is gone or now read is stale
    assert set(UNREAD_STORES) <= stored - read


def splu_calls(node):
    return sum(
        isinstance(n, ast.Call) and "splu" in (getattr(n.func, "attr", None), getattr(n.func, "id", None))
        for n in ast.walk(node)
    )


BANDED = {"cholesky_banded", "cho_solve_banded", "dtbsv", "dtbmv"}


def banded_names(node):
    return {
        name
        for n in ast.walk(node)
        for name in (getattr(n, "attr", None), getattr(n, "id", None))
        if name in BANDED
    }


def test_splu_is_called_only_in_make_solver():
    # a sparse SPD matrix is factored one way, once, and that factorization
    # is its definiteness check; every banded Cholesky factor and its
    # products and solves live in linalg, in one band layout
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = {module: splu_calls(tree) for module, tree in trees.items() if splu_calls(tree)}
    make_solver = next(
        fn for fn in trees["linalg"].body if isinstance(fn, ast.FunctionDef) and fn.name == "make_solver"
    )
    assert calls == {"linalg": 1} and splu_calls(make_solver) == 1
    banded = {module: banded_names(tree) for module, tree in trees.items() if banded_names(tree)}
    assert banded == {"linalg": BANDED - {"cho_solve_banded"}}


def grid_stores(node):
    return sum(
        isinstance(n, ast.Attribute) and n.attr == "grid" and isinstance(n.ctx, ast.Store) for n in ast.walk(node)
    )


def test_grid_is_assigned_only_in_problems():
    # that the unit-square stiffness is I (x) T + T (x) I is stated once, by
    # the two generators; the grid solve and the DDM read it from the problem
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    stores = {module: grid_stores(tree) for module, tree in trees.items() if grid_stores(tree)}
    assert stores == {"problems": 3}
    setters = {
        fn.name for fn in ast.walk(trees["problems"]) if isinstance(fn, ast.FunctionDef) and grid_stores(fn)
    }
    assert setters == {"__init__", "laplace_fd", "laplace_fem"}


def pencil_calls(node):
    return sum(
        isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "pencil" for n in ast.walk(node)
    )


def test_pencil_is_called_only_in_route_of():
    # which coordinates a (problem, preconditioner) pair runs in is decided
    # once; every other reader takes the solvers.Route
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.stem != "precond"}
    calls = {module: pencil_calls(tree) for module, tree in trees.items() if pencil_calls(tree)}
    route = next(
        cls for cls in trees["solvers"].body if isinstance(cls, ast.ClassDef) and cls.name == "Route"
    )
    of = next(fn for fn in route.body if isinstance(fn, ast.FunctionDef) and fn.name == "of")
    assert calls == {"solvers": 1} and pencil_calls(of) == 1


def fwd_iterative_calls(node):
    return sum(
        isinstance(n, ast.Call)
        and "apply_fwd_iterative" in (getattr(n.func, "attr", None), getattr(n.func, "id", None))
        for n in ast.walk(node)
    )


def test_apply_fwd_iterative_is_called_only_in_precond():
    # every B applies itself through apply_fwd; only a DDM chooses the
    # preconditioner of its nested PCG, the stiffness it was built on
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    calls = {module: fwd_iterative_calls(tree) for module, tree in trees.items() if fwd_iterative_calls(tree)}
    ddm = next(
        cls for cls in trees["precond"].body if isinstance(cls, ast.ClassDef) and cls.name == "DdmPreconditioner"
    )
    assert calls == {"precond": 1} and fwd_iterative_calls(ddm) == 1


def test_import_leaves_scipy_io_unloaded():
    # scipy.io is imported by the first read_matrix call, not by the package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, precondeig; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
