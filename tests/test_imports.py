"""Every module-level import of a package module is used in that module.

Deleting code tends to leave its imports behind; this catches them.
"""

import ast
from pathlib import Path

import pytest

import striplift

MODULES = sorted(p for p in Path(striplift.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module-level imports of `tree` bind (not `__future__`)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_march_oracle_stays_out_of_the_exports():
    # the per-point march and solve serve the tests' reference solver only, and the
    # restarted node rule is the tests' oracle of the prefix rule
    assert not {"ode_march", "solve2x2", "integrate_samples"} & set(dir(striplift))
    assert not hasattr(striplift.numerics, "integrate_samples")


def test_curve_tables_have_one_layout_and_no_record_type():
    # every table of curve data is the (order, curve, node, coord) array of `tabulate`
    assert not hasattr(striplift, "CurveJet") and not hasattr(striplift.framework, "CurveJet")


def test_only_the_command_line_touches_the_allocator():
    # `cli.main` sets glibc's heap thresholds; the library API leaves the allocator alone
    for path in Path(striplift.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names}
        imports |= {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        touches = "ctypes" in imports or "mallopt" in path.read_text()
        assert touches == (path.name == "cli.py"), path.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} without using them"
