"""One BLAS thread inside distreg's dense linear algebra, and the LAPACK routines
it calls, bound at their first use.

`lapack()` gives the calls distreg makes to scipy.linalg._flapack, with its
arguments and results. Where numpy's wheel bundles its OpenBLAS (numpy.libs/
libscipy_openblas64_-*.so, as on Linux), they run on that library's LAPACK through
ctypes (ILP64, `scipy_<routine>_64_`): no second BLAS is mapped, no scipy module
imported. Elsewhere (the macOS and Windows wheels, conda-forge, Linux distributions)
they run on the extension, loaded alone from scipy's directory without running
the scipy package (except on Windows) or scipy.linalg; a later `import scipy.linalg`
then finds it in sys.modules, not as an attribute.

OpenBLAS worker threads compete with the Gram thread pool and can make a solve
sum in another order, so alpha and predictions would depend on the core count.
`serial_blas`, a context manager (`with serial_blas:`) and decorator
(`@serial_blas`), calls `openblas_set_num_threads_local(1)` (OpenBLAS >= 0.3.27)
in every OpenBLAS library that /proc/self/maps lists at its first use, and on
exit passes back the count that call returned. Where no library exports that
symbol (not Linux, MKL, Accelerate, an older OpenBLAS) it does nothing. In the
pthreads builds of the numpy and scipy wheels that setter acts on the whole
process, not the calling thread, so scopes are counted across threads: the
first one entered sets one thread, the last one left restores the counts, and
in between BLAS calls from other threads run on one thread too.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import os
import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

# numpy's bundled OpenBLAS, next to the package: the library bound with ctypes.
_LIBRARY = "libscipy_openblas64_-*.so"
# Each routine's pointer arguments (INFO the last, but dlange has none) and its
# characters, whose lengths gfortran passes after them.
_ROUTINES = {"dlange": (6, 1), "dpotrf": (5, 1), "dpotrs": (8, 1), "dsytrd": (10, 1),
             "dormqr": (13, 2), "dptsv": (7, 0), "zgtsv": (8, 0)}


def _find_setters() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return []
    setters = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return setters


def _array(a, copy: bool = False, dtype=np.float64) -> np.ndarray:
    """`a` as f2py passes it: a Fortran-ordered array of `dtype`, copied if `copy` or if
    `a` is not one."""
    return np.array(a, dtype=dtype, order="F", copy=copy or None)


class _Lapack:
    """The calls distreg makes to scipy.linalg._flapack, with its arguments and results,
    on the routines of numpy's OpenBLAS at `path`. dpotrf takes UPLO "U" and clean=0."""

    def __init__(self, path: str):
        self.path, lib, self._fn = path, ctypes.CDLL(path), {}
        for name, (pointers, chars) in _ROUTINES.items():
            fn = self._fn[name] = getattr(lib, f"scipy_{name}_64_")
            fn.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
            fn.restype = ctypes.c_double if name == "dlange" else None

    def _call(self, name: str, *args):
        """INFO of `name` on `args`, or dlange's norm: a str is a character, an int goes
        by reference, an array by its address."""
        info, chars = ctypes.c_int64(), [1] * _ROUTINES[name][1]
        args = [a.encode() if type(a) is str else ctypes.byref(ctypes.c_int64(a))
                if type(a) is int else a.ctypes.data for a in args]
        if name == "dlange":
            return self._fn[name](*args, *chars)
        self._fn[name](*args, ctypes.byref(info), *chars)
        return info.value

    def dlange(self, norm, a):
        a = _array(a)
        return self._call("dlange", norm, *a.shape, a, max(1, len(a)), np.empty(len(a)))

    def dpotrf(self, a, clean, overwrite_a):
        c = _array(a, not overwrite_a)
        return c, self._call("dpotrf", "U", len(c), c, max(1, len(c)))

    def dpotrs(self, c, b, lower=False):
        c, x, n = _array(c), _array(b, True), len(c)
        return x, self._call("dpotrs", "UL"[lower], n, x.size // n, c, n, x, n)

    def dsytrd_lwork(self, n, lower):
        work = np.zeros(1)
        info = self._call("dsytrd", "UL"[lower], n, work, max(1, n), *[work] * 4, -1)
        return work[0], info

    def dsytrd(self, a, lower, lwork, overwrite_a):
        a, n = _array(a, not overwrite_a), len(a)
        d, e, tau, work = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(lwork)
        return a, d, e, tau, self._call("dsytrd", "UL"[lower], n, a, n, d, e, tau, work, lwork)

    def dormqr(self, side, trans, a, tau, c, lwork):
        a, tau, c, work = _array(a), _array(tau), _array(c, True), np.zeros(max(1, lwork))
        args = *c.shape, len(tau), a, len(a), tau, c, max(1, len(c)), work, lwork
        return c, work, self._call("dormqr", side, trans, *args)

    def dptsv(self, d, e, b):
        d, e, x = (_array(v, True) for v in (d, e, b))
        return d, e, x, self._call("dptsv", len(d), x.size // len(d), d, e, x, len(d))

    def zgtsv(self, dl, d, du, b):
        dl, d, du, x = (_array(v, True, np.complex128) for v in (dl, d, du, b))
        return dl, d, du, x, self._call("zgtsv", len(d), x.size // len(d), dl, d, du, x, len(d))


def _load_flapack():
    """The module already imported, else loaded from its file under its own name."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        if os.name == "nt":  # scipy's __init__ registers the DLL directory of its OpenBLAS
            import scipy  # noqa: F401
        spec = importlib.util.find_spec("scipy")
        root = spec and spec.submodule_search_locations[0]
        path = root and os.path.join(root, "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
        if not (path and os.path.isfile(path)):
            import scipy  # raises when scipy is missing, else names its version below

            raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension at {path}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _bind():
    """numpy's bundled OpenBLAS bound, else scipy's LAPACK extension."""
    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", _LIBRARY)
    found = sorted(glob.glob(pattern))
    if found:
        return _Lapack(found[0])
    try:
        return _load_flapack()
    except ImportError as err:
        raise ImportError(f"no LAPACK: nothing at {pattern}, and {err}") from err


class _SerialBlas(contextlib.ContextDecorator):
    # One instance: the counts it saves and restores belong to the process.
    def __init__(self):
        self._lock = threading.Lock()
        self._setters: list | None = None
        self._depth = 0
        self._saved: list[int] = []
        self._lapack = None

    def __enter__(self):
        with self._lock:
            if self._setters is None:
                self._setters = _find_setters()
            if self._depth == 0:
                self._saved = [set_threads(1) for set_threads in self._setters]
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, count in reversed(list(zip(self._setters, self._saved))):
                    set_threads(count)
        return False

    def lapack(self):
        """The routines, bound at the first call; predict makes none. The libraries are
        then listed once more, known ones too, so that scipy's OpenBLAS, which its
        extension maps, is pinned; in an open scope each takes one thread at once.
        Counts are restored last saved first, so a library listed twice ends with the
        count saved first."""
        if self._lapack is None:
            bound = _bind()
            with self._lock:
                if self._lapack is None and self._setters is not None:
                    found = _find_setters()
                    self._setters += found
                    if self._depth > 0:
                        self._saved += [set_threads(1) for set_threads in found]
                self._lapack = bound
        return self._lapack


serial_blas = _SerialBlas()
lapack = serial_blas.lapack
