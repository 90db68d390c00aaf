"""One BLAS thread inside distreg's dense linear algebra.

numpy and scipy each map their own OpenBLAS. Its worker threads compete with
the Gram thread pool, and with more than one of them a solve can sum in
another order, so alpha and predictions would depend on the core count.
`serial_blas`, as a context manager (`with serial_blas:`) or a decorator
(`@serial_blas`), runs those libraries on one thread and then restores
their thread counts.

It calls `openblas_set_num_threads_local(1)` (OpenBLAS >= 0.3.27) in every
OpenBLAS library that /proc/self/maps lists when it is first used, and on
exit passes back the count that call returned. Where no library exports that
symbol (not Linux, MKL, Accelerate, an older OpenBLAS) it does nothing.

In OpenBLAS's pthreads builds, such as the numpy and scipy wheels, that
setter changes the library's count for the whole process, not for the
calling thread. Scopes are therefore counted across threads: the first one
entered sets one thread, the last one left restores the counts, and in
between BLAS calls from other threads run on one thread too.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading


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


class _SerialBlas(contextlib.ContextDecorator):
    # One instance: the counts it saves and restores belong to the process.
    def __init__(self):
        self._lock = threading.Lock()
        self._setters: list | None = None
        self._depth = 0
        self._saved: list[int] = []

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
                for set_threads, count in zip(self._setters, self._saved):
                    set_threads(count)
        return False


serial_blas = _SerialBlas()
