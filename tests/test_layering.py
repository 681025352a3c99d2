"""The package's import layering, read from the source with `ast`.

`gb` owns the engine and every run on it, module runs included; the layers
above reach it through its public names only. Every import counts, those
inside functions too. Tests and the benchmark may still reach into private
names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "germinv"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module):
    """(module, name) for each name imported anywhere in `module`, the
    module a package-local one; `from . import m` and `import germinv.m`
    import the module m itself, as (m, None)."""
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if not node.level:
                if path[:1] != ["germinv"]:
                    continue                    # another package
                path = path[1:]
            out += [(path[-1], a.name) if path else (a.name, None) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name.split(".")[-1], None) for a in node.names
                    if a.name.startswith("germinv.")]
    return out


def _imported_modules(module):
    return {source for source, _ in _imports(module)}


def test_the_package_modules_are_read():
    assert {"gb", "syzygy", "invariants", "exprparse", "cli"} <= set(MODULES)
    assert ("syzygy", "kernel_fields") in _imports("invariants")
    assert ("orderings", None) in _imports("gb")


@pytest.mark.parametrize("module", MODULES)
def test_only_gb_names_the_engine(module):
    named = [node for node in ast.walk(_tree(module))
             if (isinstance(node, ast.Name) and node.id == "_Engine")
             or (isinstance(node, ast.Attribute) and node.attr == "_Engine")
             or (isinstance(node, ast.alias) and node.name == "_Engine")]
    assert (module == "gb") == bool(named)


def test_gb_imports_no_layer_above_it():
    assert not _imported_modules("gb") & {"syzygy", "invariants", "germfile", "cli"}


def test_only_the_engine_sorts_in_gb():
    # a run orders its inputs itself, so no caller in gb sorts them first
    tree = _tree("gb")
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Engine")
    inside = {id(node) for node in ast.walk(engine)}
    sorts = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ((isinstance(node.func, ast.Name) and node.func.id == "sorted")
                  or (isinstance(node.func, ast.Attribute) and node.func.attr == "sort"))]
    assert sorts and all(id(node) in inside for node in sorts)


def test_only_gb_and_poly_import_the_orders():
    assert {m for m in MODULES if "orderings" in _imported_modules(m)} == {"gb", "poly"}


def test_invariants_does_not_parse():
    assert "exprparse" not in _imported_modules("invariants")


def test_syzygy_uses_only_public_names_of_gb():
    names = [name for source, name in _imports("syzygy") if source == "gb"]
    assert names and not [n for n in names if n.startswith("_")]


def test_invariants_touches_the_cache_only_in_the_memo():
    # `_derived` computes each derived object into an equation's cache; only
    # the constructor and `full_report`, which merges the entries its worker
    # hands back, touch that cache besides
    touching = set()
    for top in _tree("invariants").body:
        scopes = [(f"{top.name}.", n) for n in top.body] if isinstance(top, ast.ClassDef) \
            else [("", top)]
        for prefix, node in scopes:
            if any(isinstance(n, ast.Attribute) and n.attr == "_cache" for n in ast.walk(node)):
                touching.add(prefix + getattr(node, "name", "<module>"))
    assert touching == {"ImageEquation.__init__", "_derived", "full_report"}
