"""One BLAS thread inside distreg's dense linear algebra, and scipy's LAPACK
extension loaded at its first use.

numpy and scipy each map their own OpenBLAS, whose worker threads compete with
the Gram thread pool and can make a solve sum in another order, so alpha and
predictions would depend on the core count. `serial_blas`, a context manager
(`with serial_blas:`) and decorator (`@serial_blas`), calls
`openblas_set_num_threads_local(1)` (OpenBLAS >= 0.3.27) in every OpenBLAS
library that /proc/self/maps lists at its first use, and on exit passes back
the count that call returned. Where no library exports that symbol (not
Linux, MKL, Accelerate, an older OpenBLAS) it does nothing. In the pthreads
builds of the numpy and scipy wheels that setter acts on the whole process,
not the calling thread, so scopes are counted across threads: the first one
entered sets one thread, the last one left restores the counts, and in
between BLAS calls from other threads run on one thread too.

LAPACK routines come from `lapack()`: scipy's extension scipy.linalg._flapack,
loaded alone, without the few hundred modules of the scipy.linalg package.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import os
import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES


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


def _load_flapack():
    """The module already imported, else loaded from its file under its own name."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy  # on Windows wheels this registers the DLL directory of its OpenBLAS

        path = os.path.join(scipy.__path__[0], "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
        if not os.path.isfile(path):
            raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension at {path}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


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
        """scipy.linalg._flapack, whose routines scipy.linalg.lapack re-exports, loaded
        at the first call without running scipy/linalg/__init__.py: ~10 ms and ~2.6 MB
        against ~0.25 s and ~25 MB for the package; predict never makes one. The
        libraries are then listed once more, known ones too; in an open scope each takes
        one thread at once. Counts are restored last saved first, so a library listed
        twice ends with the count saved first."""
        if self._lapack is None:
            module = _load_flapack()
            with self._lock:
                if self._lapack is None and self._setters is not None:
                    found = _find_setters()
                    self._setters += found
                    if self._depth > 0:
                        self._saved += [set_threads(1) for set_threads in found]
                self._lapack = module
        return self._lapack


serial_blas = _SerialBlas()
lapack = serial_blas.lapack
