"""The package imports only what it uses, the scripts use only what exists, the
README names every option, and embedding inner products have one route.

No module of `src/distreg` imports scipy, at module level or in a function,
but `blas._load_flapack`, the LAPACK used where numpy bundles no OpenBLAS.
Every name a module of `src/distreg` imports must be read in that module, or
be a shim that `bench/spans.py` wraps by (module, attribute) in its
`WRAP_TABLE`. Every `distreg` name that `scripts/*.py` import or reach by
attribute (`dr.SweepConfig`, `OuterKernelSpec.gaussian`), and every `--flag`
they pass to the CLI's `main`, must exist, since no test runs the scripts.
README.md must name every CLI option and head a config-table row with every
top-level config key. The one reduction, `embedding.pair_sums`, is called
only by the Gram's block path, always with a tile scratch. An experiment's
trial checks are called only by its config classes. And LAPACK is bound in
`blas` alone and called one way, by routine name. The checks read the source
with `ast`.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from distreg import blas, cli
from test_bench_spans import _wrap_table

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
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


def _scipy_imports(node: ast.AST, function: str | None = None) -> list[tuple[str | None, str]]:
    """(enclosing function or None, module) for each import of scipy under `node`."""
    found = []
    for child in ast.iter_child_nodes(node):
        names = [a.name for a in child.names] if isinstance(child, ast.Import) else []
        names += [child.module or ""] if isinstance(child, ast.ImportFrom) else []
        found += [(function, name) for name in names if name.partition(".")[0] == "scipy"]
        found += _scipy_imports(child, getattr(child, "name", function))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_but_the_lapack_fallback(path):
    # LAPACK is bound in numpy's own OpenBLAS; only where numpy bundles none does
    # blas._load_flapack load scipy's extension. Elsewhere scipy is a test oracle.
    allowed = {("_load_flapack", "scipy")} if path.name == "blas.py" else set()
    assert set(_scipy_imports(ast.parse(path.read_text()))) <= allowed


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


def _subcommand_options() -> dict[str, set[str]]:
    """Subcommand -> its option strings, from the CLI's own parser."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions) - {"-h", "--help"}
            for name, p in sub.choices.items()}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_cli_flags_exist(path):
    tree = ast.parse(path.read_text())
    mains = {name for name, obj in _distreg_roots(tree).items() if obj is cli.main}
    options = _subcommand_options()
    stale = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in mains):
            continue
        (argv,) = node.args
        words = [e.value for e in argv.elts if isinstance(e, ast.Constant)]
        stale += [w for w in words if w.startswith("--") and w not in options[words[0]]]
    assert stale == []


def test_readme_names_every_option_and_config_key():
    flags = set().union(*_subcommand_options().values())
    assert [f for f in sorted(flags) if not re.search(rf"{f}(?![\w-])", README)] == []
    rows = [k for k in cli._CONFIG_KEYS if not re.search(rf"^\| `{k}(\.\w+)*`", README, re.M)]
    assert rows == []


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


def test_trial_checks_live_in_the_configs():
    # A trial's checks run once, when its config is built: in `analysis` only the
    # config classes call them, and `LambdaRule.pick`, which serves callers with
    # no config. `_trial` and `saturation_compare` only draw, fit and score.
    checks = {"check_threads", "check_dims_before_work", "check_scheme", "check"}
    tree = ast.parse((ROOT / "src" / "distreg" / "analysis.py").read_text())
    callers = set()
    for top in tree.body:
        scopes = [(f"{top.name}.", f) for f in top.body] if isinstance(top, ast.ClassDef) else []
        for prefix, scope in scopes or [("", top)]:
            for node in ast.walk(scope):
                func = getattr(node, "func", None)
                if {getattr(func, "id", None), getattr(func, "attr", None)} & checks:
                    callers.add(prefix + getattr(scope, "name", ""))
    assert callers == {
        "_TrialConfig._check_trials",
        "SweepConfig.__post_init__",
        "SaturationConfig.__post_init__",
        "LambdaRule.pick",
    }


def test_lapack_is_bound_in_blas_and_called_by_name():
    # Only `blas` touches ctypes or scipy's extension. Elsewhere a routine is called
    # as lapack()("dpotrs", ...), never as an attribute (`.dpotrs(`, `.dsytrd_lwork(`).
    offenders = []
    for path in MODULES:
        tree, own = ast.parse(path.read_text()), path.name == "blas.py"
        if "ctypes" in _imported_names(tree) and not own:
            offenders.append(f"{path.name} imports ctypes")
        if "_flapack" in path.read_text() and not own:
            offenders.append(f"{path.name} names _flapack")
        for node in ast.walk(tree):
            attr = getattr(getattr(node, "func", None), "attr", "")
            if attr in blas._ROUTINES or attr.endswith("_lwork"):
                offenders.append(f"{path.name} calls .{attr}(")
    assert offenders == []
