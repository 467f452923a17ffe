"""The package's dense LAPACK and BLAS calls, made directly.

The routines come from scipy.linalg's compiled ``_flapack`` and ``_fblas``,
loaded without the scipy.linalg package, whose body runs only where something
imports it (ARPACK's import does).  Both are registered under their real
names, so that import reuses them; if scipy.linalg came first, its own are used.

``eigh``, ``cholesky`` and ``cholesky_solve`` call the routines that
scipy.linalg's ``eigh``, ``cho_factor`` and ``cho_solve`` call, with the same
triangle (lower), the same overwrite flags (off) and the workspace sizes of
the same query, so every result keeps its bits.  They skip scipy's input
checks: the finiteness scan (``eigensolve`` and ``FullOperator`` check their
arrays themselves) and the masked-array test, which would load ``numpy.ma``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Optional

import numpy as np
import scipy

from .errors import ConvergenceError


def _scipy_linalg_extension(name: str):
    """``scipy.linalg.<name>`` as imported, or else loaded alone and registered."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        directory = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(full, [directory])
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


_flapack, _fblas = _scipy_linalg_extension("_flapack"), _scipy_linalg_extension("_fblas")
dstebz, dstein, dsymv = _flapack.dstebz, _flapack.dstein, _fblas.dsymv

#: the keywords of the sizes each driver's workspace query returns, in its order
_WORKSPACES = {
    "syevd": ("lwork", "liwork"),
    "syevr": ("lwork", "liwork"),
    "heevr": ("lwork", "lrwork", "liwork"),
}


def _prefix(*arrays) -> str:
    """The prefix scipy picks for float64 or complex128 ``arrays``."""
    return "z" if any(np.iscomplexobj(a) for a in arrays) else "d"


def eigh(a: np.ndarray, lowest: Optional[int] = None, driver: str = "evr", vectors: bool = True):
    """The eigenvalues, ascending, of the real symmetric or complex Hermitian
    ``a`` read from its lower triangle, and with ``vectors`` its
    eigenvectors as columns: every level or, with driver ``evr``, the
    ``lowest`` levels.  Driver ``evd`` takes a real ``a`` only.  ``a`` is
    copied, not overwritten.  A routine that fails raises
    ``ConvergenceError``."""
    prefix = _prefix(a)
    kind = ("he" if prefix == "z" else "sy") + driver
    solve, query = getattr(_flapack, prefix + kind), getattr(_flapack, prefix + kind + "_lwork")
    job = {"compute_v": int(vectors)}
    # the query's sizes depend on the job for evd only, and only evd's query takes it
    sizes = query(a.shape[0], lower=1, **(job if driver == "evd" else {}))
    args = {key: int(size.real) for key, size in zip(_WORKSPACES[kind], sizes)}
    if lowest is not None:
        args.update(range="I", il=1, iu=lowest)
    vals, vecs, *found, info = solve(a, lower=1, overwrite_a=0, **job, **args)
    if info != 0:
        raise ConvergenceError(f"LAPACK {prefix}{kind} failed (info {info})")
    if lowest is not None:
        vals, vecs = vals[:found[0]], vecs[:, :found[0]]
    return (vals, vecs) if vectors else vals


def cholesky(a: np.ndarray) -> Optional[np.ndarray]:
    """The lower Cholesky factor of the Hermitian ``a`` (its upper triangle
    holds ``a``'s), or None where ``a`` is not positive definite."""
    factor, info = getattr(_flapack, _prefix(a) + "potrf")(a, lower=1, clean=0, overwrite_a=0)
    if info < 0:
        raise ValueError(f"LAPACK potrf refused argument {-info}")
    return None if info > 0 else factor


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, from the lower Cholesky factor of ``a``."""
    x, info = getattr(_flapack, _prefix(factor, b) + "potrs")(factor, b, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"LAPACK potrs refused argument {-info}")
    return x
