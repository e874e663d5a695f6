"""Dense/sparse SPD primitives: Cholesky at two precisions, PCG, Lanczos
(fully reorthogonalized where Ritz vectors or both ends are wanted,
three-term for a lone top value), a deterministic RNG, and a pure-Python
Jacobi eigensolver.

The Jacobi solver is the independent oracle only (tests and the explicit
x-space evaluation inside validate_properties); production eigenvalue paths
use Lanczos or LAPACK.

Everything here is deterministic given its inputs; the only stateful object
is :class:`Rng`, which is single-owner by convention.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    BreakdownNonSpd,
    DimensionMismatch,
    InnerProductNotPositive,
    MaxIterations,
    NoConvergence,
    NotSpd,
    NotSpdInLowPrecision,
)

# ---------------------------------------------------------------------------
# deterministic RNG (SplitMix64 counter mode + Box-Muller)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z):
    """SplitMix64 finalizer on uint64 numpy arrays (wraps modulo 2^64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _mix64_int(z):
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


class Rng:
    """Counter-based SplitMix64 stream with a 64-bit seed.

    The k-th raw draw is ``mix64(seed + k * gamma)``, so identical seeds give
    identical streams on every platform, independent of draw batching.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def raw(self, count):
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        with np.errstate(over="ignore"):
            return _mix64(np.uint64(self.seed) + idx * np.uint64(_GAMMA))

    def uniform(self, count):
        """count uniforms in [0, 1) with 53-bit mantissas."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self, count):
        """count standard normals via Box-Muller on consecutive uniform pairs."""
        return self.normal_rows(1, count)[0]

    def normal_rows(self, rows, count):
        """rows consecutive normal(count) draws as the rows of a (rows, count)
        array, bit-identical to that many calls and leaving the counter where
        they would.

        Each row takes ceil(count/2) raw draws for u1, then as many for u2.
        """
        pairs = (count + 1) // 2
        raw = (self.raw(2 * rows * pairs) >> np.uint64(11)).astype(np.float64)
        raw = raw.reshape(rows, 2, pairs)
        # u1 shifted into (0, 1] so log(u1) is finite
        u1 = (raw[:, 0] + 1.0) * 2.0**-53
        u2 = raw[:, 1] * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty((rows, 2 * pairs))
        out[:, 0::2] = r * np.cos(2.0 * np.pi * u2)
        out[:, 1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:, :count]

    def spawn(self, stream):
        """Independent child stream; deterministic in (seed, stream)."""
        return Rng(spawn_seed(self.seed, stream))


def spawn_seed(seed, stream):
    """Derived 64-bit seed for a worker identified by an integer stream id."""
    return _mix64_int((int(seed) & _MASK64) ^ _mix64_int((int(stream) + 1) * _GAMMA))


def hash_label(text):
    """Deterministic 64-bit hash of a short string (stable across runs)."""
    h = 0x9AE16A3B2F90404F
    for b in text.encode("utf-8"):
        h = _mix64_int((h ^ b) * _GAMMA)
    return h


def gaussian_vector(rng, n):
    """n independent standard normal deviates drawn from rng."""
    if n < 1:
        raise DimensionMismatch("need n >= 1")
    return rng.normal(n)


# ---------------------------------------------------------------------------
# dense symmetric helpers
# ---------------------------------------------------------------------------


def as_dense_sym(m):
    """Dense binary64 copy, symmetrized exactly so a[i,j] == a[j,i]."""
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


@dataclass
class CholFactor:
    """Lower-triangular Cholesky factor at a declared precision."""

    n: int
    l: np.ndarray  # noqa: E741 - matches the usual factor name
    precision: str  # "binary64" | "binary32"


def cholesky(m, precision="binary64"):
    """Cholesky factorization m = L L^T carried out entirely at `precision`.

    binary64 runs LAPACK's dpotrf.  For binary32 the input is converted to
    binary32 first and every operation of the factorization (inner products,
    subtraction, sqrt, division) runs in binary32; the stored factor values
    are exactly representable in binary32.
    """
    a = as_dense_sym(m)
    n = a.shape[0]
    if precision == "binary64":
        l, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)  # noqa: E741
        if info > 0:  # the leading minor of order info is not positive definite
            raise NotSpd(info - 1)
        return CholFactor(n=n, l=l, precision=precision)
    if precision != "binary32":
        raise ValueError(f"unknown precision {precision!r}")
    a = a.astype(np.float32)
    l = np.zeros_like(a)  # noqa: E741
    for j in range(n):
        c = a[j:, j] - l[j:, :j] @ l[j, :j]
        d = c[0]
        if not d > 0:
            raise NotSpdInLowPrecision(j)
        ljj = np.sqrt(d)
        l[j, j] = ljj
        l[j + 1 :, j] = c[1:] / ljj
    return CholFactor(n=n, l=l, precision=precision)


def chol_solve(f, rhs):
    """Solve (L L^T) x = rhs by two triangular substitutions.

    binary32 factors run both substitutions in binary32 (rhs converted first);
    the result is reported in binary64 either way.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != f.n:
        raise DimensionMismatch(f"rhs has dim {rhs.shape[0]}, factor has {f.n}")
    b = rhs.astype(f.l.dtype)
    y = scipy.linalg.solve_triangular(f.l, b, lower=True, check_finite=False)
    x = scipy.linalg.solve_triangular(f.l.T, y, lower=False, check_finite=False)
    return x.astype(np.float64)


def chol_matvec(f, v):
    """Product L (L^T v) in the factor's own precision, reported in binary64."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != f.n:
        raise DimensionMismatch(f"v has dim {v.shape[0]}, factor has {f.n}")
    w = v.astype(f.l.dtype)
    return (f.l @ (f.l.T @ w)).astype(np.float64)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def pcg(apply_a, apply_m_inv, rhs, tol=1e-10, maxit=None, x0=None, callback=None):
    """PCG for A x = rhs; stops when the Euclidean residual drops below
    tol * ||rhs||.  Returns (x, iterations).

    apply_m_inv applies the inverse of the preconditioner (None = plain CG).
    Raises BreakdownNonSpd on negative curvature and MaxIterations (carrying
    the best iterate) when the budget runs out.  callback(x) is invoked after
    every update.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.shape[0]
    if maxit is None:
        maxit = max(20, 10 * n)
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(n), 0
    if x0 is None:
        x = np.zeros(n)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - apply_a(x)
    if np.linalg.norm(r) <= tol * b_norm:
        return x, 0
    z = apply_m_inv(r) if apply_m_inv is not None else r.copy()
    rz = float(r @ z)
    if rz <= 0.0:
        raise BreakdownNonSpd("preconditioner produced a non-positive inner product")
    p = z.copy()
    for k in range(1, maxit + 1):
        ap = apply_a(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise BreakdownNonSpd(f"negative curvature at iteration {k}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if callback is not None:
            callback(x.copy())
        if np.linalg.norm(r) <= tol * b_norm:
            r_true = rhs - apply_a(x)
            if np.linalg.norm(r_true) <= tol * b_norm:
                return x, k
            r = r_true  # recurrence residual drifted; continue with the true one
        z = apply_m_inv(r) if apply_m_inv is not None else r.copy()
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise BreakdownNonSpd("preconditioner produced a non-positive inner product")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise MaxIterations(
        f"pcg did not reach tol={tol:g} within {maxit} iterations", best=x, iterations=maxit
    )


# ---------------------------------------------------------------------------
# Lanczos: one loop, with full reorthogonalization or three-term only
# ---------------------------------------------------------------------------


def _ritz(d, e, j, vector):
    """j-th smallest eigenvalue of the tridiagonal (d, e) and, if `vector`,
    the last component of its unit eigenvector: bisection (LAPACK stebz)
    plus inverse iteration (stein) for this one pair, O(len(d))."""
    # stebz range 2 selects by index; il = iu = j + 1 (one-based), tol 0
    _, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(
        d, e, 2, 0.0, 1.0, j + 1, j + 1, 0.0, "B" if vector else "E"
    )
    if info != 0:
        raise NoConvergence(f"stebz info {info} at Ritz index {j}")
    if not vector:
        return w[0], None
    s, info = scipy.linalg.lapack.dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise NoConvergence(f"stein info {info} at Ritz index {j}")
    return w[0], s[-1, 0]


def _lanczos_tridiag(apply_t, dim, tol, maxit, rng, watch, inner_map=None, reorth=True):
    """Shared Lanczos loop from a start drawn from rng (Rng(2024) when None).

    The inner product is u^T C v with C = inner_map (Euclidean when None).
    apply_t receives the mapped vector C q_k, which the loop already holds,
    and must return T q_k (with no inner_map, C = I and it receives q_k).
    With `reorth` the basis (and C times it) fills the rows of a (steps + 1,
    n) array, and each of the two reorthogonalization passes is classical
    Gram-Schmidt (CGS2): one BLAS-2 product for the coefficients, one to
    subtract them.  Without it the three-term recurrence runs on two rows.
    `watch` lists indices into the ascending Ritz values (negative allowed)
    that must pass the residual-plus-stabilization test before the loop
    stops; each step computes only the Ritz pairs that test needs (both ends
    for the scale, the watched ones with the last component of their
    eigenvector).  beta = 0 stops the loop at any step, before it is divided
    by: the Krylov space is invariant and its Ritz values exact.  beta below
    1e-14 * scale stops it only once the watched values exist; before, the
    reorthogonalization restarts from the roundoff left in w, which is how a
    repeated eigenvalue yields two Ritz values.
    Returns (theta ascending, S, Q), with S the tridiagonal's eigenvectors
    and Q the basis rows, so the Ritz vectors are (S^T Q)^T; S and Q are
    None without reorth.  Raises MaxIterations carrying the watched Ritz
    values when maxit steps do not converge.
    """
    q = (rng or Rng(2024)).normal(dim)
    cq = inner_map(q) if inner_map is not None else q
    qq = float(q @ cq)
    if qq <= 0.0:
        raise InnerProductNotPositive("inner(q0, q0) <= 0")
    nrm = np.sqrt(qq)
    steps = min(maxit, dim)
    rows = steps + 1 if reorth else 2  # row k % rows holds q_k
    basis = np.empty((rows, dim))
    basis[0] = q / nrm
    mapped = basis
    if inner_map is not None:
        mapped = np.empty((rows, dim))
        mapped[0] = cq / nrm
    alphas, betas = np.empty(steps), np.empty(steps)
    prev = None
    converged = False
    span = max(abs(i) for i in watch) + 1
    for k in range(steps):
        cur = k % rows
        w = apply_t(mapped[cur])
        alpha = float(mapped[cur] @ w)
        alphas[k] = alpha
        w = w - alpha * basis[cur]
        if k > 0:
            w -= betas[k - 1] * basis[(k - 1) % rows]
        if reorth:
            for _ in range(2):  # full reorthogonalization, two CGS passes
                w -= (mapped[: k + 1] @ w) @ basis[: k + 1]
        cw = inner_map(w) if inner_map is not None else w
        ww = float(w @ cw)
        if ww < 0.0:
            raise InnerProductNotPositive("inner(w, w) < 0 during Lanczos")
        beta = np.sqrt(ww)
        m = k + 1
        if beta == 0.0 or m == dim:  # invariant Krylov space: the Ritz values are exact
            converged = True
            break
        if m >= span:
            need = {0: False, m - 1: False}
            need.update((i % m, True) for i in watch)
            d, e = alphas[:m], betas[:k]
            ritz = {j: _ritz(d, e, j, vec) for j, vec in need.items()}
            scale = max(abs(ritz[0][0]), abs(ritz[m - 1][0]))
            res_ok = all(beta * abs(ritz[i % m][1]) <= tol * scale for i in watch)
            vals = tuple(ritz[i % m][0] for i in watch)
            stable = prev is not None and all(
                abs(v - p) <= tol * scale for v, p in zip(vals, prev)
            )
            prev = vals
            if (res_ok and stable) or beta <= 1e-14 * scale:  # invariant to roundoff
                converged = True
                break
        betas[k] = beta
        basis[m % rows] = w / beta
        if inner_map is not None:
            mapped[m % rows] = cw / beta
    d, e = alphas[:m], betas[: m - 1]
    if reorth:
        theta, svecs = scipy.linalg.eigh_tridiagonal(d, e, check_finite=False)
    else:
        theta = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, check_finite=False)
        svecs = basis = None
    if not converged:
        raise MaxIterations(
            f"lanczos did not converge to tol={tol:g} within {maxit} steps",
            best=tuple(float(theta[i]) for i in watch if -m <= i < m),
            iterations=maxit,
        )
    return theta, svecs, basis


def lanczos_extremal(apply_t, dim, tol=1e-10, maxit=None, rng=None, inner_map=None):
    """Extremal eigenvalues of an operator self-adjoint w.r.t. u^T C v.

    C is `inner_map` (the Euclidean inner product when None).  With
    inner_map, apply_t is called on C q rather than q and must return T q:
    for T = B^{-1} A in the A-inner product, apply_t is B^{-1} alone, so A is
    applied once per step.  Full reorthogonalization against the stored
    basis; convergence is judged by the Ritz residual bound beta*|s_k| plus
    value stabilization.
    """
    if maxit is None:
        maxit = min(dim, max(60, dim // 2 + 40))
    theta, _, _ = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, (0, -1), inner_map=inner_map)
    return float(theta[0]), float(theta[-1])


def lanczos_top_pairs(apply_t, dim, k=2, tol=1e-12, maxit=None, rng=None):
    """Largest-k Ritz pairs of a Euclidean-self-adjoint operator, with full
    reorthogonalization so the Ritz vectors stay accurate.

    Used by the reference eigensolver on A^{-1}, where the top of the
    spectrum is well separated.  Returns (values descending, vectors as
    columns); fewer than k pairs when the start spans an invariant subspace
    of smaller dimension.
    """
    if maxit is None:
        maxit = min(dim, max(80, dim // 2 + 60))
    watch = tuple(-(i + 1) for i in range(min(k, dim)))
    theta, svecs, basis = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, watch)
    order = np.argsort(theta)[::-1][:k]
    vecs = (svecs[:, order].T @ basis[: len(theta)]).T
    vecs /= np.linalg.norm(vecs, axis=0)
    return theta[order], vecs


def _lanczos_top_value(apply_t, dim, tol, maxit, rng):
    """Largest eigenvalue of a Euclidean-self-adjoint operator by the
    three-term recurrence with no stored basis.  Lost orthogonality only
    adds copies of Ritz values that have converged (Paige 1980), so the top
    value still converges and the beta*|s| bound stays valid."""
    theta, _, _ = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, (-1,), reorth=False)
    return float(theta[-1])


# ---------------------------------------------------------------------------
# dense symmetric eigendecomposition (parallel-ordered Jacobi), reference oracle
# ---------------------------------------------------------------------------


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


def dense_sym_eig(m, max_sweeps=60):
    """All eigenpairs of a dense symmetric matrix by parallel-ordered Jacobi.

    Each sweep runs the round-robin rounds of _round_robin: the pairs of a
    round are disjoint, so their rotations commute and are applied together
    as one orthogonal J (the identity with c on the (p, p) and (q, q)
    entries, s at (p, q) and -s at (q, p)): a <- J^T a J and V <- V J.  A
    pair whose a[p, q] is negligible this sweep (below 1e-3 * off / n or
    1e-20 * ||a||) is skipped: t = 0, so J is the identity there.  A rotated
    pair gets the t-formula diagonal entries and exact zeros at (p, q) and
    (q, p).  Every pair still comes up once per sweep, so the quadratic
    convergence of cyclic Jacobi is kept (Brent & Luk, 1985).

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
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-15 * norm:
            break
        thresh = off / n  # rotate only entries that still matter this sweep
        for p, q in rounds:
            apq = a[p, q]
            live = (np.abs(apq) >= 1e-20 * norm) & (np.abs(apq) >= 1e-3 * thresh)
            if not live.any():
                continue
            p, q, apq = p[live], q[live], apq[live]
            app, aqq = a[p, p], a[q, q]
            theta = (aqq - app) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            j = np.eye(n)
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            a = j.T @ a @ j
            v = v @ j
            # t-formula diagonal entries are more accurate than the rotation
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
    else:
        raise NoConvergence(f"jacobi did not converge in {max_sweeps} sweeps")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


# ---------------------------------------------------------------------------
# exact solvers behind a uniform callable interface
# ---------------------------------------------------------------------------


def make_solver(a):
    """Exact binary64 solve v -> a^{-1} v for a dense or sparse SPD matrix."""
    if scipy.sparse.issparse(a):
        lu = scipy.sparse.linalg.splu(a.tocsc())
        return lambda v: lu.solve(np.asarray(v, dtype=np.float64))
    f = cholesky(a, "binary64")
    return lambda v: chol_solve(f, v)


class SymFactor:
    """R^T R factorization of an SPD matrix with products and solves for R.

    R is kept once, as its upper band in LAPACK layout
    (``rab[bw + i - j, j] = R[i, j]``), so memory is O(n * bw); a dense input
    is a band of full width.  The factor comes from LAPACK's banded Cholesky
    on the upper triangle of the input; each product is one BLAS ``tbmv``
    and each solve one BLAS ``tbsv`` on that band.  Lexicographically
    ordered FEM mass matrices give bw ~ sqrt(n).
    """

    def __init__(self, m):
        coo = scipy.sparse.coo_matrix(m if scipy.sparse.issparse(m) else as_dense_sym(m))
        upper = coo.col >= coo.row
        row, col = coo.row[upper], coo.col[upper]
        n = coo.shape[0]
        bw = int(np.max(col - row)) if row.size else 0
        ab = np.zeros((bw + 1, n))
        ab[bw + row - col, col] = coo.data[upper]
        try:
            rab = scipy.linalg.cholesky_banded(ab, lower=False, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpd(-1, f"banded cholesky failed: {exc}") from exc
        # the solves run tbsv, which does not test for a zero pivot
        bad = np.flatnonzero(~(rab[bw] > 0))
        if bad.size:
            raise NotSpd(int(bad[0]), f"banded cholesky pivot {bad[0]} is not positive")
        self.n, self.bw, self.rab = n, bw, rab

    def mult(self, v):
        """R v"""
        return scipy.linalg.blas.dtbmv(self.bw, self.rab, v)

    def mult_t(self, v):
        """R^T v"""
        return scipy.linalg.blas.dtbmv(self.bw, self.rab, v, trans=1)

    def solve(self, v):
        """R x = v"""
        return scipy.linalg.blas.dtbsv(self.bw, self.rab, np.asarray(v, dtype=np.float64))

    def solve_t(self, v):
        """R^T x = v"""
        return scipy.linalg.blas.dtbsv(
            self.bw, self.rab, np.asarray(v, dtype=np.float64), trans=1
        )
