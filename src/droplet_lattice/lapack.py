"""The package's dense LAPACK calls, made directly.

``eigh``, ``cholesky`` and ``cholesky_solve`` call the routines that
scipy.linalg's ``eigh``, ``cho_factor`` and ``cho_solve`` call, with the same
triangle (lower), the same overwrite flags (off) and the workspace sizes of
the same query, so every result keeps its bits.  They skip scipy's input
checks: the finiteness scan (``eigensolve`` and ``FullOperator`` check their
arrays themselves) and the masked-array test, which would load ``numpy.ma``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ConvergenceError

#: the keywords of the sizes each driver's workspace query returns, in its order
_WORKSPACES = {
    "syevd": ("lwork", "liwork"),
    "syevr": ("lwork", "liwork"),
    "heevr": ("lwork", "lrwork", "liwork"),
}


def eigh(a: np.ndarray, lowest: Optional[int] = None, driver: str = "evr", vectors: bool = True):
    """The eigenvalues, ascending, of the real symmetric or complex Hermitian
    ``a`` read from its lower triangle, and with ``vectors`` its
    eigenvectors as columns: every level or, with driver ``evr``, the
    ``lowest`` levels.  Driver ``evd`` takes a real ``a`` only.  ``a`` is
    copied, not overwritten.  A routine that fails raises
    ``ConvergenceError``."""
    name = ("he" if np.iscomplexobj(a) else "sy") + driver
    solve, query = get_lapack_funcs((name, name + "_lwork"), (a,))
    job = {"compute_v": int(vectors)}
    # the query's sizes depend on the job for evd only, and only evd's query takes it
    sizes = query(a.shape[0], lower=1, **(job if driver == "evd" else {}))
    args = {key: int(size.real) for key, size in zip(_WORKSPACES[name], sizes)}
    if lowest is not None:
        args.update(range="I", il=1, iu=lowest)
    vals, vecs, *found, info = solve(a, lower=1, overwrite_a=0, **job, **args)
    if info != 0:
        raise ConvergenceError(f"LAPACK {solve.typecode}{name} failed (info {info})")
    if lowest is not None:
        vals, vecs = vals[:found[0]], vecs[:, :found[0]]
    return (vals, vecs) if vectors else vals


def cholesky(a: np.ndarray) -> Optional[np.ndarray]:
    """The lower Cholesky factor of the Hermitian ``a`` (its upper triangle
    holds ``a``'s), or None where ``a`` is not positive definite."""
    factor, info = get_lapack_funcs(("potrf",), (a,))[0](a, lower=1, clean=0, overwrite_a=0)
    if info < 0:
        raise ValueError(f"LAPACK potrf refused argument {-info}")
    return None if info > 0 else factor


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, from the lower Cholesky factor of ``a``."""
    x, info = get_lapack_funcs(("potrs",), (factor, b))[0](factor, b, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"LAPACK potrs refused argument {-info}")
    return x
