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


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute, parameter and keyword a module's code spells."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.arg for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.keyword))})


def test_true_means_and_the_objective_count_are_stated_once():
    # A point's true mean is computed once, in ``problems.true_mean``, and
    # kept on the point: no other module calls the mean function. The
    # objective count is assigned once, in ``pareto``.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, tree in trees.items() if "mean_fn" in _identifiers(tree)] \
        == ["problems.py"]
    assigned = [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                for target in node.targets if getattr(target, "id", None) == "N_OBJECTIVES"]
    assert assigned == ["pareto.py"]


def test_dominance_matrices_are_built_in_three_modules_only():
    # Every front is rank 1 of ``pareto.front_ranks``. Only the kernel's own
    # module, the bootstrap draws and strength's kept matrix build dominance
    # matrices, so a second hand-written Pareto filter fails here.
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if "weak_dominance" in path.read_text(encoding="utf-8")]
    assert naming == ["bootstrap.py", "pareto.py", "resampling.py"]
