"""Parallel-ordered Jacobi eigensolver: the independent oracle the tests
check the library's dense symmetric eigendecompositions against.

`precondeig.linalg.dense_sym_eig` runs LAPACK (scipy.linalg.eigh).  This
solver shares no eigensolver code with it: cyclic Jacobi in the Brent-Luk
round-robin ordering, in NumPy products only, converging quadratically
(Brent & Luk, 1985).  Tests that need reference spectra (B^{1/2} roots,
the eigenvalues of a reduced pencil, the reference eigenpairs) take them
from here, and the independence test in test_diagnostics runs the
validation oracle on it in place of LAPACK.
"""

import functools

import numpy as np

from precondeig.errors import NoConvergence
from precondeig.linalg import as_dense_sym

_MAX_SWEEPS = 60  # Jacobi sweeps before NoConvergence


def _round_robin(n):
    """Brent-Luk parallel ordering of one Jacobi sweep, by the circle method.

    Index 0 stays in its seat while the others rotate one seat per round; the
    seats are paired outside-in.  Odd n adds a dummy index n, whose partner
    sits the round out.  Returns n - 1 rounds for even n and n for odd n,
    each a pair of index arrays (p, q) with p < q; the pairs of a round are
    disjoint and every pair p < q comes up once per sweep.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        seats = np.concatenate(([0], np.roll(ring, r)))
        left, right = seats[: m // 2], seats[::-1][: m // 2]
        p, q = np.minimum(left, right), np.maximum(left, right)
        keep = q < n
        rounds.append((p[keep], q[keep]))
    return rounds


@functools.lru_cache(maxsize=16)
def _jacobi_plan(n):
    """dense_sym_eig's plan for size n, built once: for each round of
    _round_robin(n) a (4, k) array of flat indices into an n x n matrix, of
    the (p, p), (q, q), (p, q) and (q, p) entries of its k pairs, and the
    flattened n x n identity that J is copied from.  Read-only, as it is
    shared by every call at size n."""
    rounds = []
    for p, q in _round_robin(n):
        idx = np.stack([p * n + p, q * n + q, p * n + q, q * n + p])
        idx.flags.writeable = False
        rounds.append(idx)
    eye = np.eye(n).ravel()
    eye.flags.writeable = False
    return tuple(rounds), eye


def dense_sym_eig(m):
    """All eigenpairs of a dense symmetric matrix by parallel-ordered Jacobi.

    Each sweep runs the round-robin rounds of _round_robin: the pairs of a
    round are disjoint, so their rotations commute and are applied together
    as one orthogonal J (the identity with c on the (p, p) and (q, q)
    entries, s at (p, q) and -s at (q, p)): a <- J^T a J and V <- V J.  A
    pair whose a[p, q] is negligible this sweep (below 1e-3 * off / n or
    1e-20 * ||a||) is skipped: t = 0, so J is the identity there.  A rotated
    pair gets the t-formula diagonal entries and exact zeros at (p, q) and
    (q, p).  Every pair still comes up once per sweep, so the quadratic
    convergence of cyclic Jacobi is kept (Brent & Luk, 1985).  The rounds
    come from a per-size plan (_jacobi_plan) of flat indices into a and J,
    so a round reads and writes a.ravel() and builds J from a copy of the
    plan's identity.

    Returns (w ascending, V with orthonormal columns).  Self-contained on
    purpose, with no LAPACK eigensolver: it is the oracle the rest of the
    library is tested against.
    """
    a = as_dense_sym(m)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0].copy(), v
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n), v
    rounds, eye = _jacobi_plan(n)
    for _ in range(_MAX_SWEEPS):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-15 * norm:
            break
        # rotate only entries that still matter this sweep
        floor_norm, floor_off = 1e-20 * norm, 1e-3 * (off / n)
        flat = a.ravel()  # a view wherever it is written: J^T a J is C-ordered
        for idx in rounds:
            apq = flat[idx[2]]
            mag = np.abs(apq)
            live = (mag >= floor_norm) & (mag >= floor_off)
            if not live.all():
                if not live.any():
                    continue
                idx, apq = idx[:, live], apq[live]
            pp, qq, pq, qp = idx
            app, aqq = flat[pp], flat[qq]
            theta = (aqq - app) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            jf = eye.copy()
            jf[pp] = c
            jf[qq] = c
            jf[pq] = s
            jf[qp] = -s
            j = jf.reshape(n, n)
            a = j.T @ a @ j
            v = v @ j
            # t-formula diagonal entries are more accurate than the rotation
            flat = a.ravel()
            flat[pp] = app - t * apq
            flat[qq] = aqq + t * apq
            flat[pq] = 0.0
            flat[qp] = 0.0
    else:
        raise NoConvergence(f"jacobi did not converge in {_MAX_SWEEPS} sweeps")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
