"""One BLAS thread inside distreg's linear algebra, and results that do not
depend on the BLAS thread count.

Counts are read through the library's own setter, which returns the count it
replaces: setting that count back leaves the library as it was.
"""

import subprocess
import sys
import threading
import time
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
    dpotrs = blas.lapack().dpotrs

    def spy(*args, **kwargs):
        inside.append(read_counts())
        return dpotrs(*args, **kwargs)

    monkeypatch.setattr(blas.lapack(), "dpotrs", spy)
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
    # Fake libraries by name; loading scipy's LAPACK maps "scipy" inside a scope.
    counts = {"numpy": 4, "scipy": 3}
    mapped = ["numpy"]

    def setter(name):
        def set_threads(n):
            previous, counts[name] = counts[name], n
            return previous
        return set_threads

    monkeypatch.setattr(blas, "_find_setters", lambda: [setter(name) for name in mapped])
    scope = blas._SerialBlas()
    with scope:
        mapped.append("scipy")
        with scope:
            assert scope.lapack() is blas.lapack()
            assert counts == {"numpy": 1, "scipy": 1}
        assert counts == {"numpy": 1, "scipy": 1}
    assert counts == {"numpy": 4, "scipy": 3}
    # The libraries were listed once more at the import, and are not again.
    mapped.append("later")
    with scope:
        scope.lapack()
        assert counts == {"numpy": 1, "scipy": 1}
    assert counts == {"numpy": 4, "scipy": 3} and scope._depth == 0


def test_a_missing_lapack_extension_names_its_path_and_scipys_version(monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(blas, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=rf"^scipy {scipy.__version__} .* at .*_flapack\.missing$"):
        blas._load_flapack()


# A fit, with scipy.linalg imported before the first solve or after it: one
# LAPACK module either way, the one scipy.linalg.lapack re-exports.
IMPORT_ORDER = """
import hashlib, sys
import numpy as np
from distreg import (EmbeddingKernelSpec, OuterKernelSpec, blas, build_gram,
                     fit_coefficient, select_lambda_holdout)
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
assert scipy.linalg.lapack.dpotrf is blas.lapack().dpotrf
assert sys.modules["scipy.linalg._flapack"] is blas.lapack()
assert fit() == alpha
print(alpha)
"""


def test_scipy_linalg_imported_before_or_after_the_first_solve():
    src = str(Path(distreg.__file__).resolve().parents[1])
    alphas = set()
    for first in (True, False):
        code = IMPORT_ORDER.format(tests=str(Path(__file__).parent), first=first)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        alphas.add(proc.stdout)
    assert len(alphas) == 1


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


# A prediction first: it opens and closes a serial_blas scope before scipy is
# loaded, so scipy's OpenBLAS is mapped only later, inside the lambda search.
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
