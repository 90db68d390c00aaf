"""One BLAS thread inside distreg's dense linear algebra, and the LAPACK routines
it calls, bound at their first use.

`lapack()` gives one callable, `lapack()(name, *args)`, that calls a routine's
Fortran entry point through ctypes with LAPACK's own arguments. Where numpy's
wheel bundles its OpenBLAS (numpy.libs/libscipy_openblas64_-*.so, as on Linux),
the entry points are that library's `scipy_<routine>_64_` (ILP64): no second
BLAS is mapped, no scipy module imported. Elsewhere (the macOS and Windows
wheels, conda-forge, Linux distributions) they are the addresses that scipy's
extension scipy.linalg._flapack exports for its routines (LP64); the extension
is loaded alone from scipy's directory without running the scipy package
(except on Windows) or scipy.linalg, and a later `import scipy.linalg` then
finds it in sys.modules, not as an attribute. Both routes run the same calls.

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


class _Lapack:
    """The LAPACK routines of _ROUTINES in the library at `path`, called at their Fortran
    entry points `addresses` (ints: CFUNCTYPE would take a ctypes function for a Python
    callback) with INTEGER arguments of type `integer`."""

    def __init__(self, path: str, addresses: dict, integer: type):
        self.path, self.integer, self._fn = path, integer, {}
        for name, (pointers, chars) in _ROUTINES.items():
            restype = ctypes.c_double if name == "dlange" else None
            args = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * chars
            self._fn[name] = ctypes.CFUNCTYPE(restype, *args)(addresses[name])

    def __call__(self, name: str, *args):
        """INFO of `name` on `args`, or dlange's norm: a str is a character, an int goes by
        reference, an array by its address. TypeError unless each array has the routine's type
        (z: complex128, else float64) and columns of unit stride at least their length apart.
        Sizes are not checked against the dimensions passed: `solver._operands` checks G's."""
        info, chars = self.integer(), [1] * _ROUTINES[name][1]
        dtype = np.dtype(np.complex128 if name[0] == "z" else np.float64)
        for a in args:
            if isinstance(a, np.ndarray) and not (a.dtype == dtype and (a.flags.f_contiguous or (
                    a.ndim == 2 and a.strides[0] == a.itemsize
                    and a.strides[1] >= a.shape[0] * a.itemsize))):
                raise TypeError(f"{name} takes Fortran {dtype} arrays, not {a.dtype} "
                                f"of shape {a.shape} and strides {a.strides}")
        # `args` holds the arrays, temporaries too, until the call returns.
        c_args = [a.encode() if type(a) is str else ctypes.byref(self.integer(a))
                  if type(a) is int else a.ctypes.data for a in args]
        if name == "dlange":
            return self._fn[name](*c_args, *chars)
        self._fn[name](*c_args, ctypes.byref(info), *chars)
        return info.value


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


def _bind() -> _Lapack:
    """The routines in numpy's bundled OpenBLAS (ILP64), else in scipy's LAPACK
    extension, whose f2py wrappers give each entry point as `_cpointer` (LP64)."""
    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", _LIBRARY)
    found = sorted(glob.glob(pattern))
    if found:
        lib = ctypes.CDLL(found[0])
        addresses = {name: ctypes.cast(getattr(lib, f"scipy_{name}_64_"), ctypes.c_void_p).value
                     for name in _ROUTINES}
        return _Lapack(found[0], addresses, ctypes.c_int64)
    try:
        flapack = _load_flapack()
    except ImportError as err:
        raise ImportError(f"no LAPACK: nothing at {pattern}, and {err}") from err
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    addresses = {name: pointer(getattr(flapack, name)._cpointer, None) for name in _ROUTINES}
    return _Lapack(flapack.__file__, addresses, ctypes.c_int32)


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
