"""Thread counts of the OpenBLAS pools that numpy and scipy each load:
started at one thread while the package imports them, read and set through
ctypes afterwards.  This module imports no numpy."""

import contextlib
import ctypes
import functools
import os

#: OpenBLAS entry-point names: the scipy-openblas wheels and plain builds,
#: with and without the suffix of a 64-bit-integer build
_OPENBLAS_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@functools.cache
def _blas_pools() -> tuple:
    """Every OpenBLAS loaded in this process as (file name, get_config,
    get_num_threads, set_num_threads), a function None where the library
    lacks it.  numpy and scipy each load their own; both are found through
    the process's memory map on first use, not at import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for pattern in _OPENBLAS_NAMES:
            config, get, set_ = (getattr(lib, pattern.format(verb), None)
                                 for verb in ("get_config", "get_num_threads", "set_num_threads"))
            if get is not None:
                break
        for fn, argtypes, restype in ((config, [], ctypes.c_char_p), (get, [], ctypes.c_int),
                                      (set_, [ctypes.c_int], None)):
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
        pools.append((os.path.basename(path), config, get, set_))
    return tuple(pools)


def blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS with its build string and current thread count."""
    return [{"library": name, "config": None if config is None else config().decode(),
             "threads": None if get is None else get()} for name, config, get, _ in _blas_pools()]


def set_blas_threads(count: int) -> None:
    """Set every OpenBLAS pool that has a getter and a setter to ``count``
    threads; a pool without them is left alone.  A pool already at ``count``
    is not touched: in a forked process OpenBLAS's setter rebuilds the pool's
    threads, which then spin idle."""
    for _, _, get, set_ in _blas_pools():
        if get is not None and set_ is not None and get() != count:
            set_(count)


@contextlib.contextmanager
def one_thread_while_loading():
    """Load any OpenBLAS that the body imports with one thread.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when the library loads, and
    starts that many threads minus one at once.  Unless the caller set it,
    the variable is ``"1"`` inside the body and removed afterwards, so the
    environment is left as it was found; a value the caller set is kept.
    A library loaded before the body keeps its count (``set_blas_threads``)."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
