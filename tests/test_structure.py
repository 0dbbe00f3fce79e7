"""Each concept stays behind the module that owns it: no module of the
package imports a name another module marks private with an underscore,
and no module imports a name it never uses. No module rebinds a module
global either: state kept between calls, such as a decision's per-sweep
state, lives in an object a run owns, never in a cache that outlives the
run or differs between worker processes. And no module-level function or
class is reached only from tests: package code names each one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "noisymoo"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    private = [f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private


# ``__init__.py`` imports to re-export.
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{node.lineno} imports {alias.asname or alias.name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.Import)
              or isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statement(path):
    found = [f"{path.name}:{node.lineno} global {', '.join(node.names)}"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found


# Reached from outside the package only: perfbench patches it to trace the
# pooled bootstrap, until perfbench wraps ``bootstrap_means_stacked`` instead.
NAMED_OUTSIDE_ONLY = ["bootstrap.bootstrap_means_pooled"]


def test_every_function_and_class_is_named_by_package_code():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    # The names each top-level statement uses, so a definition's own body does not count.
    uses = {(stem, i): {node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            for stem, tree in trees.items() for i, stmt in enumerate(tree.body)}
    unnamed = [f"{stem}.{stmt.name}" for stem, tree in trees.items()
               for i, stmt in enumerate(tree.body)
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not any(stmt.name in names for where, names in uses.items()
                           if where != (stem, i))]
    assert unnamed == NAMED_OUTSIDE_ONLY
