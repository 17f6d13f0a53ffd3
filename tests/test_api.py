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
