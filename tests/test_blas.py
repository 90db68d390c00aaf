"""One BLAS thread inside distreg's linear algebra, LAPACK bound in one
library, and results that do not depend on the BLAS thread count.

Counts are read through the library's own setter, which returns the count it
replaces: setting that count back leaves the library as it was.
"""

import glob
import subprocess
import sys
import threading
import time
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

import distreg
from distreg import (
    EmbeddingKernelSpec,
    OuterKernelSpec,
    analysis,
    blas,
    build_gram,
    fit_coefficient,
    gram,
    solver,
)

from conftest import make_bags

SETTERS = blas._find_setters()
needs_setter = pytest.mark.skipif(
    not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local in this process"
)


def read_counts() -> list[int]:
    counts = [set_threads(1) for set_threads in SETTERS]
    for set_threads, count in zip(SETTERS, counts):
        set_threads(count)
    return counts


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS library set to two threads, as a caller might have it."""
    before = [set_threads(2) for set_threads in SETTERS]
    yield
    for set_threads, count in zip(SETTERS, before):
        set_threads(count)


def test_linear_algebra_runs_under_serial_blas_and_keeps_its_names():
    # bench/spans.py wraps these by module attribute and reports them by name.
    for fn in (solver.alpha_paths, solver._fit, solver.predict, solver.solve_alpha,
               analysis.select_lambda_holdout, gram.spectrum):
        assert fn.__wrapped__.__name__ == fn.__name__
        assert fn.__doc__ == fn.__wrapped__.__doc__


@needs_setter
def test_scope_runs_one_thread_and_restores_the_count(two_blas_threads):
    with blas.serial_blas:
        assert read_counts() == [1] * len(SETTERS)
        with blas.serial_blas:
            assert read_counts() == [1] * len(SETTERS)
        assert read_counts() == [1] * len(SETTERS)
    assert read_counts() == [2] * len(SETTERS)


@needs_setter
def test_fit_restores_the_callers_blas_thread_count(two_blas_threads, monkeypatch):
    inside = []
    call = blas._Lapack.__call__

    def spy(self, name, *args):
        if name == "dpotrs":
            inside.append(read_counts())
        return call(self, name, *args)

    monkeypatch.setattr(blas._Lapack, "__call__", spy)
    espec = EmbeddingKernelSpec("gaussian", 1.0, 2)
    kspec = OuterKernelSpec.gaussian(1.0)
    bags = make_bags(5, 12, 6, 2)
    y = np.linspace(-1.0, 1.0, 12)
    fit_coefficient(build_gram(kspec, espec, bags), y, 1e-3, bags, kspec, espec)
    # The solve for alpha, then those of the condition estimate: each on one thread.
    assert len(inside) > 1 and all(counts == [1] * len(SETTERS) for counts in inside)
    assert read_counts() == [2] * len(SETTERS)


def test_scopes_on_many_threads_restore_only_after_the_last_exit():
    # A fake library: the count is what the setter last received.
    count = [4]
    seen = []

    def set_threads(n):
        previous = count[0]
        time.sleep(0)  # lets other threads run here, as a native call may
        count[0] = n
        return previous

    scope = blas._SerialBlas()
    scope._setters = [set_threads]

    def work():
        for _ in range(300):
            with scope:
                with scope:
                    seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 300 and set(seen) == {1}
    assert count[0] == 4 and scope._depth == 0


def test_a_library_mapped_inside_a_scope_runs_one_thread_until_the_last_exit(monkeypatch):
    # Fake libraries by name; binding LAPACK (scipy's extension, on the fallback)
    # maps "scipy" inside a scope.
    counts = {"numpy": 4, "scipy": 3}
    mapped = ["numpy"]

    def setter(name):
        def set_threads(n):
            previous, counts[name] = counts[name], n
            return previous
        return set_threads

    monkeypatch.setattr(blas, "_find_setters", lambda: [setter(name) for name in mapped])
    monkeypatch.setattr(blas, "_bind", blas.lapack)
    scope = blas._SerialBlas()
    with scope:
        mapped.append("scipy")
        with scope:
            assert scope.lapack() is blas.lapack()
            assert counts == {"numpy": 1, "scipy": 1}
        assert counts == {"numpy": 1, "scipy": 1}
    assert counts == {"numpy": 4, "scipy": 3}
    # The libraries were listed once more at the binding, and are not again.
    mapped.append("later")
    with scope:
        scope.lapack()
        assert counts == {"numpy": 1, "scipy": 1}
    assert counts == {"numpy": 4, "scipy": 3} and scope._depth == 0


def test_a_missing_lapack_extension_names_its_path_and_scipys_version(monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(blas, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=rf"^scipy {scipy.__version__} .* at .*_flapack\.missing$"):
        blas._load_flapack()


def test_no_lapack_found_is_an_import_error_naming_both_paths_searched(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(blas, "_LIBRARY", "libnothing-*.so")
    monkeypatch.setattr(blas, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError) as err:
        blas._bind()
    numpy_libs = f"{Path(np.__file__).parent}.libs/libnothing-*.so"
    assert str(err.value).startswith(f"no LAPACK: nothing at {numpy_libs}, and scipy ")
    assert str(err.value).endswith("_flapack.missing")


# A fit, with scipy.linalg imported before the first solve or after it: the
# same alpha either way.
IMPORT_ORDER = """
import hashlib, sys
import numpy as np
from distreg import (EmbeddingKernelSpec, OuterKernelSpec, build_gram, fit_coefficient,
                     select_lambda_holdout)
sys.path.insert(0, {tests!r})
from conftest import make_bags


def fit():
    espec, kspec = EmbeddingKernelSpec("gaussian", 1.0, 2), OuterKernelSpec.gaussian(1.0)
    bags = make_bags(5, 40, 6, 2)
    g, y = build_gram(kspec, espec, bags), np.linspace(-1.0, 1.0, 40)
    lam = select_lambda_holdout(g.values, y, [1e-4, 1e-2], ("coefficient_l2",), 0.3, 7)
    model, _ = fit_coefficient(g, y, lam["coefficient_l2"][0], bags, kspec, espec)
    return hashlib.sha256(model.alpha.tobytes()).hexdigest()

if {first!r}:
    import scipy.linalg
alpha = fit()
import scipy.linalg
assert fit() == alpha
print(alpha)
"""


def run_fresh(code: str, **env) -> str:
    """The stdout of `code` run in a fresh process, which must exit 0."""
    src = str(Path(distreg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scipy_linalg_imported_before_or_after_the_first_solve():
    tests = str(Path(__file__).parent)
    alphas = {run_fresh(IMPORT_ORDER.format(tests=tests, first=first)) for first in (True, False)}
    assert len(alphas) == 1


# A grid fit through the CLI, then scipy.linalg: its LAPACK extension is an
# attribute of the package, as when distreg has not run.
LATE_SCIPY = """
import json
import numpy as np
from distreg import cli
cfg = {{"data": {{"synth": {{"dim": 1, "scale": 0.1, "target": "linear_mean", "noise_sd": 0.05,
                          "noise_bound": 2.0, "seed": 3, "m": 20, "N": 10}}}},
       "embedding_kernel": {{"family": "gaussian", "bandwidth": 0.25, "dim": 1}},
       "outer_kernel": {{"family": "gaussian_on_embedding", "sigma": 1.0}},
       "lambda": {{"grid": [1e-4, 1e-2, 1.0]}}, "seed": 7}}
with open({cfg!r}, "w") as fh:
    json.dump(cfg, fh)
assert cli.main(["fit", "--config", {cfg!r}, "--out", {model!r}]) == 0
import scipy.linalg
assert hasattr(scipy.linalg, "_flapack")
c, lower = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
assert np.allclose(np.triu(c), [[2.0, 1.0], [0.0, np.sqrt(2.0)]])
"""


def numpy_bundles_openblas() -> bool:
    return bool(glob.glob(f"{Path(np.__file__).parent}.libs/{blas._LIBRARY}"))


needs_numpys_openblas = pytest.mark.skipif(
    not numpy_bundles_openblas(), reason="numpy bundles no OpenBLAS here"
)


@needs_numpys_openblas
def test_scipy_linalg_imported_after_a_grid_fit_has_its_lapack_extension(tmp_path):
    run_fresh(LATE_SCIPY.format(cfg=str(tmp_path / "config.json"), model=str(tmp_path / "m.json")))


# A coefficient fit's alpha and condition estimate, a solve, the lambda paths of an
# asymmetric and of a symmetric Gram (dptsv and zgtsv) and a spectrum, printed by
# hash, with LAPACK bound in `library` (scipy's extension when numpy's is not
# found), and the OpenBLAS libraries mapped. Inside the scope every library runs
# one thread, and after it the count it had. Then, for a C-ordered, an F-ordered, a
# transposed and a strided copy of the Grams, what LAPACK computes from them: one
# line each, all equal, as each call site copies what LAPACK cannot read in place.
BINDINGS = """
import ctypes, hashlib
import numpy as np
from distreg import Bag, EmbeddingKernelSpec, OuterKernelSpec, blas, solver
from distreg.gram import GramMatrix, spectrum
blas._LIBRARY = {library!r}
with blas.serial_blas:
    print(blas.lapack().path, ctypes.sizeof(blas.lapack().integer))
    assert [set_threads(1) for set_threads in blas._find_setters()] == [1] * {mapped}
assert [set_threads(2) for set_threads in blas._find_setters()] == [2] * {mapped}
rng = np.random.default_rng(5)
a = rng.normal(size=(120, 120))
sym = a @ a.T / 120 + np.eye(120)
values = sym + 1e-3 * rng.normal(size=(120, 120))
y, lams, schemes = rng.normal(size=120), np.logspace(-8, 0, 5), ("coefficient_l2", "krr")
ids = tuple(map(str, range(120)))
bags = [Bag(i, np.zeros((1, 2))) for i in ids]
kspec, espec = OuterKernelSpec.gaussian(1.0), EmbeddingKernelSpec("gaussian", 1.0, 2)


def hashes(*outs):
    print([hashlib.sha256(np.asarray(x).tobytes()).hexdigest() for x in outs])


def fit(fitter, values):
    model, report = fitter(GramMatrix(values=values, ids=ids), y, 1e-3, bags, kspec, espec)
    return model.alpha, report.condition_estimate


def strided(v):
    s = np.zeros((120, 240))[:, ::2]
    s[...] = v
    return s


g = GramMatrix(values=values, ids=ids)
hashes(*fit(solver.fit_coefficient, values), solver.solve_alpha("coefficient_l2", values, y, 1e-3),
       spectrum(g), *solver.alpha_paths(schemes, values.copy(), y, lams).values(),
       *solver.alpha_paths(schemes, sym.copy(), y, lams).values())
for copy in (np.copy, np.asfortranarray, lambda v: np.ascontiguousarray(v.T).T, strided):
    hashes(solver.solve_alpha("krr", copy(values), y, 1e-3), *fit(solver.fit_krr, copy(values)),
           fit(solver.fit_coefficient, copy(values))[1],
           *solver.alpha_paths(("krr",), copy(values), y, lams).values(),
           *solver.alpha_paths(schemes, copy(sym), y, lams).values())
"""


@needs_setter
@needs_numpys_openblas
def test_the_fallback_to_scipys_lapack_extension_gives_the_same_bits():
    main, fallback = (
        run_fresh(BINDINGS.format(library=library, mapped=mapped), OPENBLAS_NUM_THREADS="2")
        for library, mapped in ((blas._LIBRARY, 1), ("libnothing-*.so", 2))
    )
    main, fallback = main.splitlines(), fallback.splitlines()
    (numpys, ilp64), (scipys, lp64) = main[0].split(), fallback[0].split()
    assert Path(numpys).match(blas._LIBRARY) and ilp64 == "8"
    assert Path(scipys).match(f"linalg/_flapack{EXTENSION_SUFFIXES[0]}") and lp64 == "4"
    assert main[1:] == fallback[1:] and len(main) == 6
    assert len(set(main[2:])) == 1  # every layout gives the C-ordered bits


# A tilted (asymmetric) d=2 problem: lambda selection reduces G^T G, and
# the fit factors a 200 x 200 system, both large enough for OpenBLAS to
# thread when it may. Then a lambda search for both schemes on a symmetric
# Gram whose kept block is 308 x 308, past the sizes where dsytrd and dormqr
# switch to their blocked paths; its tables are printed whole.
PROBE = """
import hashlib
import numpy as np
from distreg import (EmbeddingKernelSpec, MetaDistributionSpec, OuterKernelSpec, build_gram,
                     fit_coefficient, generate, predict, select_lambda_holdout)

def meta(seed):
    return MetaDistributionSpec(dim=2, scale=0.1, target="mean_plus_variance",
                                noise_sd=0.05, noise_bound=2.0, seed=seed)

train = generate(meta(1), 200, 5).bags
test = generate(meta(2), 50, 5).bags
espec = EmbeddingKernelSpec("gaussian", 0.25, 2)
kspec = OuterKernelSpec.tilted(1.0, 0.5, generate(meta(3), 1, 5).bags[0])
g = build_gram(kspec, espec, train)
y = np.array([b.label for b in train])
grid = np.logspace(-8.0, 0.0, 10)
lam, _ = select_lambda_holdout(g.values, y, grid, ("coefficient_l2",), 0.3, 7)["coefficient_l2"]
model, _ = fit_coefficient(g, y, lam, train, kspec, espec)
preds = predict(model, test)
print(lam, hashlib.sha256(model.alpha.tobytes()).hexdigest(),
      hashlib.sha256(preds.tobytes()).hexdigest())
wide = generate(meta(4), 440, 5).bags
g = build_gram(OuterKernelSpec.gaussian(1.0), espec, wide)
y = np.array([b.label for b in wide])
print(select_lambda_holdout(g.values, y, grid, ("coefficient_l2", "krr"), 0.3, 7))
"""


# A prediction first: it opens and closes a serial_blas scope before LAPACK is
# bound, so the binding comes later, inside the lambda search.
PREDICT_FIRST = """
import sys
from pathlib import Path
from distreg import io, predict, generate, MetaDistributionSpec
model = io.load_model(Path({data!r}) / "model_small.json")
meta = MetaDistributionSpec(dim=2, scale=0.1, target="linear_mean", noise_sd=0.1,
                            noise_bound=2.0, seed=4)
predict(model, generate(meta, 3, 4).bags)
assert not any(m.startswith("scipy") for m in sys.modules)
"""


def outputs_by_blas_thread_count(code: str) -> set[str]:
    """The distinct stdouts of `code` run at OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(distreg.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    return outputs


@needs_setter
def test_results_do_not_depend_on_the_blas_thread_count():
    assert len(outputs_by_blas_thread_count(PROBE)) == 1


@needs_setter
def test_results_do_not_depend_on_the_blas_thread_count_when_scipy_loads_late():
    data = str(Path(__file__).parent / "data")
    assert len(outputs_by_blas_thread_count(PREDICT_FIRST.format(data=data) + PROBE)) == 1
