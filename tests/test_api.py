"""The package's names are all in use: every public name has a caller inside
``src/twospin``, and every module uses each name it imports.

A name that only the tests call is not part of any feature, so it should
be deleted, not exported.  Both checks read the sources with ``ast``, as
does the check that the independent references import nothing of the
package.
"""

import ast
from pathlib import Path

import twospin

SRC = Path(twospin.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def _references(tree: ast.AST) -> set:
    """Names loaded, and attributes read, anywhere in the tree except inside
    the body of a function or class of the same name (its own definition)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _imported(tree: ast.AST) -> list:
    """(imported name, name bound) of each name the module's imports bind."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(alias.name, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.name, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
    return names


def test_every_public_name_is_used_inside_the_package():
    # a name imported under another one (certify as certify_construct) counts
    # as used when the import is, which the next test checks
    used = set()
    for name, tree in MODULES.items():
        if name != "__init__.py":
            used |= _references(tree) | {source for source, _ in _imported(tree)}
    unused = sorted(set(twospin.__all__) - used)
    assert unused == [], f"exported but called only from outside src/twospin: {unused}"


def test_every_imported_name_is_used():
    for name, tree in MODULES.items():
        bound = [bound for _, bound in _imported(tree)]
        if name == "__init__.py":  # its imports are the re-exports
            assert sorted(bound) == sorted(twospin.__all__)
            continue
        unused = sorted(set(bound) - _references(tree))
        assert unused == [], f"{name} imports {unused} and never uses them"


# References that must share no code with the package they check
INDEPENDENT = [Path(__file__).resolve().parent / "oracles.py",
               *(Path(__file__).resolve().parents[1] / "bench" / name
                 for name in ("check.py", "workloads.py"))]


def test_independent_references_import_nothing_from_twospin():
    for path in INDEPENDENT:
        modules = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
            elif isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
        assert modules, f"{path.name} has no imports: is it the right file?"
        found = [m for m in modules if m.split(".")[0] == "twospin"]
        assert found == [], f"{path.name} imports {found}"


# Where the package may test a float's range by hand: the one float-range rule
# (`errors.in_float_range`), input parsing, exact-to-float output and the JSON
# writer.  Every other float computation that can leave the range calls the
# rule, so a new entry here is a second copy of the rule.
RANGE_CHECKS = sorted([
    ("errors.py", "in_float_range", "OverflowError"),
    ("errors.py", "in_float_range", "isfinite"),
    ("cli.py", "finite_float", "isfinite"),
    ("core.py", "graph_from_json.as_nums", "OverflowError"),
    ("core.py", "graph_from_json.as_nums", "isfinite"),
    ("serialize.py", "_float", "isfinite"),
    # a float operand of a Quad comparison: nan and +-inf compare as with a Fraction
    ("exact.py", "Quad.__eq__", "isfinite"),
    ("exact.py", "Quad._cmp", "isfinite"),
])


def _range_checks(tree: ast.AST) -> list:
    """(enclosing function, name) of each ``except`` clause that names
    OverflowError and each reference to an ``isinf`` or ``isfinite``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.extend((".".join(scope), t.id) for t in types
                         if isinstance(t, ast.Name) and t.id == "OverflowError")
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in ("isinf", "isfinite"):
            found.append((".".join(scope), name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_float_range_checks_are_the_rule_or_listed():
    found = sorted((module, *check) for module, tree in MODULES.items()
                   for check in _range_checks(tree))
    assert found == RANGE_CHECKS


# Hand-set float tolerances: every float literal below 1e-6 and every
# ``1 + <float>`` or ``1 - <float>``, by module and enclosing function (a
# module-level assignment counts as its target's name).  A certified result
# should rest on an exact check, an enclosure or a derived bound instead, so
# this list may only shrink.
TOLERANCES = sorted([
    ("cli.py", "COMMANDS", "1e-12"),
    ("cli.py", "_reduce_selfloop", "1e-09"),
    ("construct.py", "_REL_SLACK", "1e-09"),
    ("construct.py", "_prepare", "1 + 1e-12"),
    ("recursion.py", "solve_mu_star", "1e-12"),
    ("reductions.py", "to_ising", "1 + 1e-12"),
    ("reductions.py", "verify_reduction", "1e-09"),
])


def _tolerances(tree: ast.AST) -> list:
    """(enclosing scope, literal) of each float literal below 1e-6 in
    magnitude, other than 0, and each 1 + or 1 - a float literal."""
    found = []

    def is_float(node):
        return isinstance(node, ast.Constant) and type(node.value) is float

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif not scope and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope = tuple(t.id for t in targets if isinstance(t, ast.Name))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.left, ast.Constant) and node.left.value == 1
                and is_float(node.right)):
            found.append((".".join(scope), ast.unparse(node)))
            return
        if is_float(node) and 0 < abs(node.value) < 1e-6:
            found.append((".".join(scope), repr(node.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_hand_set_float_tolerances_are_listed():
    found = sorted((module, *tol) for module, tree in MODULES.items()
                   for tol in _tolerances(tree))
    assert found == TOLERANCES


def test_every_error_class_has_an_exit_code():
    # a library error without a row in `cli._EXIT` ends the CLI in a traceback
    from twospin import cli, errors
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert classes
    assert sorted(cls.__name__ for cls in classes - set(cli._EXIT)) == []


def test_only_the_cli_touches_the_collector():
    # `cli.main` pauses the cyclic collector for one command and restores it;
    # a second place that switches it would undo or extend that pause
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [name for module in modules if module == "gc"]
    assert found == ["cli.py"]
