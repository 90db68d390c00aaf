"""The package imports only what it uses, the scripts use only what exists, and
embedding inner products have one route.

Every name a module of `src/distreg` imports must be read in that module, or
be a shim that `bench/spans.py` wraps by (module, attribute) in its
`WRAP_TABLE`. Every `distreg` name that `scripts/*.py` import or reach by
attribute (`dr.SweepConfig`, `OuterKernelSpec.gaussian`) must resolve, since
no test runs the scripts. And the one reduction, `embedding.pair_sums`, is
called only by the Gram's block path, always with a tile scratch. The checks
read the source with `ast`.
"""

import ast
import importlib
from pathlib import Path

import pytest

from test_bench_spans import _wrap_table

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "distreg").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_a_bench_shim(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    module = f"distreg.{path.stem}"
    shims = {attr for mod, attr, *_ in _wrap_table() if mod == module}
    assert _imported_names(tree) - read - shims == set()


def _distreg_roots(tree: ast.Module) -> dict[str, object]:
    """Local name -> the distreg module or attribute it is bound to, or None when
    the import does not resolve."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "distreg":
                    roots[a.asname or "distreg"] = importlib.import_module(
                        a.name if a.asname else "distreg"
                    )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "distreg":
            module = importlib.import_module(node.module)
            for a in node.names:
                roots[a.asname or a.name] = getattr(module, a.name, None)
    return roots


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_distreg_names_resolve(path):
    tree = ast.parse(path.read_text())
    roots = _distreg_roots(tree)
    assert roots, f"{path.name} uses no distreg name"
    missing = [name for name, obj in roots.items() if obj is None]
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if not attrs or not isinstance(node, ast.Name) or roots.get(node.id) is None:
            continue
        obj = roots[node.id]
        for name in attrs:
            if not hasattr(obj, name):
                missing.append(".".join([node.id, *attrs]))
                break
            obj = getattr(obj, name)
    assert missing == []


def _top_level_calls(tree: ast.Module, name: str):
    """(enclosing top-level function or None, call) for every call of `name`."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    yield getattr(top, "name", None), node


def test_embedding_inner_products_have_one_route():
    callers, defines = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for caller, call in _top_level_calls(tree, "pair_sums"):
            callers.append(f"{path.stem}.{caller}")
            # The scratch goes last, by name (`*run` hides how many come before it).
            last = call.args[-1] if call.args else None
            passed = getattr(last, "id", None) == "scratch"
            assert passed or any(k.arg == "scratch" for k in call.keywords), callers[-1]
        defines += [
            path.stem
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "embed_inner"
        ]
    assert sorted(set(callers)) == ["gram._embedding_inners", "gram._self_inners"]
    assert defines == ["gram"]
