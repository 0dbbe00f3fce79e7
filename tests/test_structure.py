"""Each concept stays behind the module that owns it: no module of the
package imports a name another module marks private with an underscore,
and no module imports a name it never uses. No module rebinds a module
global either: state kept between calls, such as a decision's per-sweep
state, lives in an object a run owns, never in a cache that outlives the
run or differs between worker processes."""

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
