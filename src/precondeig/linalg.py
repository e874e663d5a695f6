"""Dense/sparse SPD primitives: Cholesky at two precisions with triangular
solves by direct LAPACK trtrs calls, PCG, Lanczos (fully reorthogonalized
where Ritz vectors are wanted, or both ends in a run that can reach the
operator's dimension; three-term for a lone top value, which is every run
of problems' lambdan, and for both ends in a shorter run, which is
diagnostics.kappa_nu above 600 rows), a deterministic RNG that can also
draw one normal vector per spawned seed as a single block, and
dense_sym_eig, all eigenpairs of a small dense symmetric matrix by LAPACK
eigh, for the explicit x-space evaluation inside validate_properties.  The
Cholesky solves and products and the banded SymFactor products and solves
take an (n, k) block as well as a vector.  SymFactor is the one banded
Cholesky S = R^T R, kept as the one lower band R^T: of a mass matrix M
(problems.generalized_reduce) and of the shifted sigma M - K of problems'
lambdan.  FastDiagSolve solves a Kronecker sum I (x) T_x + T_y (x) I by
fast diagonalization: a grid problem's stiffness (EigenProblem.solver) and
the DDM's local blocks.  make_solver factors any other SPD matrix once,
Cholesky if dense, symmetric-mode SuperLU if sparse (an mtx problem's
matrix, the DDM's coarse matrix); that is its NotSpd check.

Every eigenvalue path here runs Lanczos or LAPACK.  The independent oracle
the tests check them against is the pure-Python Jacobi solver in
tests/jacobi.py.

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
    NotKroneckerSum,
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
        they would."""
        pairs = (count + 1) // 2
        return _box_muller(self.raw(2 * rows * pairs).reshape(rows, 2 * pairs), count)

    def spawn(self, stream):
        """Independent child stream; deterministic in (seed, stream)."""
        return Rng(spawn_seed(self.seed, stream))


def _box_muller(raw, count):
    """Row r of the (rows, count) result is the normal(count) draw made of the
    raw draws in row r of `raw`, shaped (rows, 2 ceil(count/2)): the first
    half of the row gives u1, the second half u2."""
    rows, pairs = raw.shape[0], raw.shape[1] // 2
    raw = (raw >> np.uint64(11)).astype(np.float64).reshape(rows, 2, pairs)
    # u1 shifted into (0, 1] so log(u1) is finite
    u1 = (raw[:, 0] + 1.0) * 2.0**-53
    u2 = raw[:, 1] * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((rows, 2 * pairs))
    out[:, 0::2] = r * np.cos(2.0 * np.pi * u2)
    out[:, 1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:, :count]


def _spawn_seeds(seed, streams):
    """spawn_seed(seed, t) for each stream id t, given as the uint64 array of
    t + 1 (modulo 2^64)."""
    with np.errstate(over="ignore"):
        return _mix64(np.uint64(int(seed) & _MASK64) ^ _mix64(streams * np.uint64(_GAMMA)))


def spawn_seed(seed, stream):
    """Derived 64-bit seed for a worker identified by an integer stream id."""
    return int(_spawn_seeds(seed, np.array([(int(stream) + 1) & _MASK64], dtype=np.uint64))[0])


def spawn_normal_rows(seed, rows, count):
    """(rows, count) array whose row t is Rng(spawn_seed(seed, t)).normal(count),
    bit for bit: the seeds and the raw draws of all rows in one block, then
    the Box-Muller of Rng.normal_rows."""
    pairs = (count + 1) // 2
    seeds = _spawn_seeds(seed, np.arange(1, rows + 1, dtype=np.uint64))
    idx = np.arange(1, 2 * pairs + 1, dtype=np.uint64)  # a fresh Rng's counter
    with np.errstate(over="ignore"):
        raw = _mix64(seeds[:, None] + idx * np.uint64(_GAMMA))
    return _box_muller(raw, count)


def hash_label(text):
    """Deterministic 64-bit hash of a short string (stable across runs)."""
    h = np.array([0x9AE16A3B2F90404F], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in text.encode("utf-8"):
            h = _mix64((h ^ np.uint64(b)) * np.uint64(_GAMMA))
    return int(h[0])


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
    """Lower-triangular Cholesky factor l, whose dtype is its precision
    (float64 for binary64, float32 for binary32)."""

    l: np.ndarray  # noqa: E741 - matches the usual factor name


def cholesky(m, precision="binary64"):
    """Cholesky factorization m = L L^T carried out entirely at `precision`.

    binary64 runs LAPACK's dpotrf.  For binary32 the input is converted to
    binary32 first (NotSpdInLowPrecision if an entry lies beyond its range)
    and every operation of the factorization (inner products, subtraction,
    sqrt, division) runs in binary32; the stored factor values are exactly
    representable in binary32.
    """
    a = as_dense_sym(m)
    if precision == "binary64":
        l, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)  # noqa: E741
        if info > 0:  # the leading minor of order info is not positive definite
            raise NotSpd(info - 1)
        return CholFactor(l)
    if precision != "binary32":
        raise ValueError(f"unknown precision {precision!r}")
    with np.errstate(over="ignore"):
        a = a.astype(np.float32)
    if np.isinf(a).any():
        raise NotSpdInLowPrecision(-1, "an entry lies beyond the binary32 range")
    l = np.zeros_like(a)  # noqa: E741
    for j in range(len(a)):
        c = a[j:, j] - l[j:, :j] @ l[j, :j]
        d = c[0]
        if not d > 0:
            raise NotSpdInLowPrecision(j)
        ljj = np.sqrt(d)
        l[j, j] = ljj
        l[j + 1 :, j] = c[1:] / ljj
    return CholFactor(l)


def _trtrs(m, rhs, lower):
    """m x = rhs for a triangular m by LAPACK ?trtrs, called with the arguments
    scipy.linalg.solve_triangular(m, rhs, lower=lower, check_finite=False)
    passes, so the result is the same bit for bit: trtrs reads Fortran
    order, so a matrix that is not Fortran-ordered goes in as its transpose,
    with the other triangle and trans set.  Raises NotSpd at a zero pivot."""
    trtrs = scipy.linalg.lapack.strtrs if m.dtype == np.float32 else scipy.linalg.lapack.dtrtrs
    if m.flags.f_contiguous:
        x, info = trtrs(m, rhs, lower=lower, trans=0)
    else:
        x, info = trtrs(m.T, rhs, lower=not lower, trans=1)
    if info > 0:  # one-based index of the first zero diagonal entry
        raise NotSpd(info - 1, f"zero pivot at index {info - 1} in a triangular solve")
    return x


def chol_solve(f, rhs):
    """Solve (L L^T) x = rhs by two triangular substitutions, each one direct
    LAPACK trtrs call (see _trtrs).

    binary32 factors run both substitutions in binary32 (rhs converted first);
    the result is reported in binary64 either way.  Raises NotSpd when L has
    a zero diagonal entry.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != len(f.l):
        raise DimensionMismatch(f"rhs has dim {rhs.shape[0]}, factor has {len(f.l)}")
    y = _trtrs(f.l, rhs.astype(f.l.dtype), lower=True)
    return _trtrs(f.l.T, y, lower=False).astype(np.float64)


def chol_matvec(f, v):
    """Product L (L^T v) in the factor's own precision, reported in binary64."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != len(f.l):
        raise DimensionMismatch(f"v has dim {v.shape[0]}, factor has {len(f.l)}")
    w = v.astype(f.l.dtype)
    return (f.l @ (f.l.T @ w)).astype(np.float64)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def pcg(apply_a, apply_m_inv, rhs, tol, maxit, x0):
    """PCG for A x = rhs from x0; stops when the Euclidean residual drops
    below tol * ||rhs||.  Returns (x, iterations).

    apply_m_inv applies the inverse of the preconditioner.  Raises
    BreakdownNonSpd on negative curvature and MaxIterations (carrying the
    best iterate) when maxit iterations do not reach tol.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.shape[0]
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(n), 0
    x = np.array(x0, dtype=np.float64)
    r = rhs - apply_a(x)
    if np.linalg.norm(r) <= tol * b_norm:
        return x, 0
    z = apply_m_inv(r)
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
        if np.linalg.norm(r) <= tol * b_norm:
            r_true = rhs - apply_a(x)
            if np.linalg.norm(r_true) <= tol * b_norm:
                return x, k
            r = r_true  # recurrence residual drifted; continue with the true one
        z = apply_m_inv(r)
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


def _ritz(d, e, j):
    """j-th smallest eigenvalue of the tridiagonal (d, e) and the last
    component of its unit eigenvector: bisection (LAPACK stebz) plus inverse
    iteration (stein) for this one pair, O(len(d))."""
    # stebz range 2 selects by index; il = iu = j + 1 (one-based), tol 0
    _, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(
        d, e, 2, 0.0, 1.0, j + 1, j + 1, 0.0, "B"
    )
    if info != 0:
        raise NoConvergence(f"stebz info {info} at Ritz index {j}")
    s, info = scipy.linalg.lapack.dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise NoConvergence(f"stein info {info} at Ritz index {j}")
    return w[0], s[-1, 0]


def _lanczos_tridiag(apply_t, dim, tol, maxit, rng, watch, inner_map=None):
    """Shared Lanczos loop from a start drawn from rng.

    The inner product is u^T C v with C = inner_map (Euclidean when None).
    apply_t receives the mapped vector C q_k, which the loop already holds,
    and must return T q_k (with no inner_map, C = I and it receives q_k).
    `watch` lists indices into the ascending Ritz values (negative allowed)
    that must pass the residual-plus-stabilization test before the loop
    stops; each step computes only the watched Ritz values and the last
    component of their eigenvectors.  It fixes the variant too, with maxit
    and dim.  One watched value, and the extremal watch (0, -1) when maxit <
    dim, run the three-term recurrence on two rows: the extreme Ritz values
    converge without reorthogonalization (Paige 1980), at the price of a few
    more steps (solve-ddm's kappa_nu: 56 -> 68).  The top pairs (-1, -2),
    and (0, -1) when the run can reach m = dim, keep the basis (and C times
    it) in a (steps + 1, n) array, reorthogonalized by two classical
    Gram-Schmidt passes (CGS2), each one BLAS-2 product for the coefficients
    and one to subtract them: Ritz vectors need it, and only a kept basis
    makes m = dim prove an invariant Krylov space.  The scale is the largest
    |theta| among the watched values; every caller runs on an SPD operator
    (A^{-1}, A, B^{-1} A, or (sigma M - K)^{-1} M in the M-inner product)
    and watches theta_{m-1}, so the scale is theta_{m-1}.  The
    extremal watch (0, -1) asks tol times the spread theta_{m-1} - theta_0
    instead, since its readers (kappa - 1, chi, rho_B) read that spread: for
    a near-exact B it is about 1e-7 theta_{m-1}, and a test scaled by
    theta_{m-1} would resolve them to only about 1e-3 of themselves.  It
    asks no less than 1e-14 * scale, the roundoff of applying T: for B = A
    the spread is itself roundoff and tol times it cannot be met.
    beta = 0 stops the loop at any step, before it is divided
    by: the Krylov space is invariant and its Ritz values exact.  beta below
    1e-14 * scale stops it only once the watched values exist; before, the
    reorthogonalization restarts from the roundoff left in w, which is how a
    repeated eigenvalue yields two Ritz values.
    Returns (theta ascending, S, Q), with S the tridiagonal's eigenvectors
    and Q the basis rows, so the Ritz vectors are (S^T Q)^T; S and Q are
    None for a three-term run.  Raises MaxIterations carrying the watched
    Ritz values when maxit steps do not converge.
    """
    q = rng.normal(dim)
    cq = inner_map(q) if inner_map is not None else q
    qq = float(q @ cq)
    if qq <= 0.0:
        raise InnerProductNotPositive("inner(q0, q0) <= 0")
    nrm = np.sqrt(qq)
    steps = min(maxit, dim)
    # the extremal watch keeps its basis only when it can reach m = dim
    reorth = len(watch) > 1 and not (watch == (0, -1) and maxit < dim)
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
            vals, lasts = zip(*(_ritz(alphas[:m], betas[:k], i % m) for i in watch))
            scale = max(abs(v) for v in vals)
            need = tol * scale
            if watch == (0, -1):
                need = max(tol * (vals[1] - vals[0]), 1e-14 * scale)
            res_ok = all(beta * abs(s) <= need for s in lasts)
            stable = prev is not None and all(abs(v - p) <= need for v, p in zip(vals, prev))
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


def lanczos_extremal(apply_t, dim, tol, maxit, rng, inner_map):
    """Extremal eigenvalues of an operator self-adjoint w.r.t. u^T C v.

    C is `inner_map` (the Euclidean inner product when None).  With
    inner_map, apply_t is called on C q rather than q and must return T q:
    for T = B^{-1} A in the A-inner product, apply_t is B^{-1} alone, so A is
    applied once per step.  The three-term recurrence when maxit < dim, else
    full reorthogonalization against the stored basis (see
    _lanczos_tridiag); convergence is judged by the Ritz residual bound
    beta*|s_k| plus value stabilization.
    """
    theta, _, _ = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, (0, -1), inner_map=inner_map)
    return float(theta[0]), float(theta[-1])


def lanczos_top_pairs(apply_t, dim, tol, maxit, rng):
    """The two largest Ritz pairs of a Euclidean-self-adjoint operator, with
    full reorthogonalization so the Ritz vectors stay accurate.

    Used by the reference eigensolver on A^{-1}, where the top of the
    spectrum is well separated.  Returns (values descending, vectors as
    columns); one pair when the start spans an invariant subspace of
    dimension one.
    """
    theta, svecs, basis = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, (-1, -2))
    order = np.argsort(theta)[::-1][:2]
    vecs = (svecs[:, order].T @ basis[: len(theta)]).T
    vecs /= np.linalg.norm(vecs, axis=0)
    return theta[order], vecs


def _lanczos_top_value(apply_t, dim, tol, maxit, rng, inner_map=None):
    """Largest eigenvalue of an operator self-adjoint w.r.t. u^T C v, with C
    = inner_map and apply_t as in _lanczos_tridiag, by the three-term
    recurrence with no stored basis: the top value still converges and the
    beta*|s| bound stays valid.  A cluster at the top slows it: on a FEM
    pencil's A it takes about 300 steps at tol 1e-11, so
    problems._lanczos_lamn runs it there only for a loose estimate, and
    then on a shift-inverted pencil in the M-inner product."""
    theta, _, _ = _lanczos_tridiag(apply_t, dim, tol, maxit, rng, (-1,), inner_map=inner_map)
    return float(theta[-1])


# ---------------------------------------------------------------------------
# dense symmetric eigendecomposition (LAPACK)
# ---------------------------------------------------------------------------


def dense_sym_eig(m):
    """All eigenpairs of a dense symmetric matrix: LAPACK eigh on its
    as_dense_sym copy.

    Returns (w ascending, V with orthonormal columns).  Raises NoConvergence
    at once for a NaN or inf entry, on which LAPACK returns a spectrum
    without complaint, and when LAPACK reports a failure (LinAlgError).
    """
    a = as_dense_sym(m)
    if not np.isfinite(a).all():
        raise NoConvergence("the matrix has a NaN or inf entry")
    try:
        return scipy.linalg.eigh(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc


# ---------------------------------------------------------------------------
# exact solvers behind a uniform callable interface
# ---------------------------------------------------------------------------


def _by_column(apply, v):
    """apply, which takes one vector, on v or on each column of an (n, k)
    block v."""
    if v.ndim == 1:
        return apply(v)
    return np.column_stack([apply(c) for c in v.T])


def make_solver(a):
    """Exact binary64 solve v -> a^{-1} v for a dense or sparse SPD matrix from
    its one factorization, which is also its definiteness check (NotSpd): a
    binary64 Cholesky, or SuperLU in symmetric mode with no row pivoting, where
    a is SPD iff it needs no row pivot and U's diagonal is positive (Sylvester)."""
    if scipy.sparse.issparse(a):
        try:
            lu = scipy.sparse.linalg.splu(
                a.tocsc(), "MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            )
        except RuntimeError as exc:  # exactly singular
            raise NotSpd(-1, "the sparse matrix is exactly singular") from exc
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
            raise NotSpd(-1, "the sparse matrix is not positive definite")
        return lambda v: lu.solve(np.asarray(v, dtype=np.float64))
    f = cholesky(a, "binary64")
    return lambda v: chol_solve(f, v)


def kron_sum_tridiagonals(a, side):
    """(T_x, T_y), each as its (diagonal, off-diagonal), of a stiffness a on a
    side x side grid, x running fastest, that is the Kronecker sum
    I (x) T_x + T_y (x) I of two symmetric tridiagonals, as the 5-point FD
    and the P1-FEM stiffness are.  T_x and T_y are read from a's first row
    and column, each taking half of its first diagonal entry
    (NotKroneckerSum when a is not their sum)."""
    csr = scipy.sparse.csr_matrix(a)
    d = csr.diagonal()
    half = d[0] / 2.0
    t_x = d[:side] - half, csr.diagonal(1)[: side - 1]
    t_y = d[::side] - half, csr.diagonal(side)[::side]
    # the sum's five diagonals; T_x's couplings break between grid rows
    n = side * side
    e_x = np.tile(np.append(t_x[1], 0.0), side)[: n - 1]
    e_y = np.repeat(t_y[1], side)
    diagonal = np.tile(t_x[0], side) + np.repeat(t_y[0], side)
    kron_sum = scipy.sparse.diags([e_x, diagonal, e_x], [-1, 0, 1], (n, n)) + scipy.sparse.diags(
        [e_y, e_y], [-side, side], (n, n)
    )
    if (kron_sum != csr).nnz:
        raise NotKroneckerSum("subdomain and grid solves need a stiffness I (x) T_x + T_y (x) I")
    return t_x, t_y


def pd_tridiagonal_eigh(d, e):
    """(eigenvalues, eigenvectors as columns) of the positive definite
    tridiagonal with diagonal d and off-diagonal e, by LAPACK pteqr, which
    keeps small eigenvalues to high relative accuracy (NotSpd unless
    positive definite).  On the 1-D Laplacian of 63 nodes its smallest is
    7.9e-15 off relative, against 5.6e-13 by eigh_tridiagonal."""
    n = len(d)
    e = e if n > 1 else np.zeros(1)  # scipy's wrapper takes one entry at n = 1
    w, _, z, info = scipy.linalg.lapack.dpteqr(d, e, np.zeros((n, n)), compute_z=2)
    if info > 0:
        raise NotSpd(-1, "the tridiagonal is not positive definite")
    return w, z


class FastDiagSolve:
    """A^{-1} for the Kronecker sum A = I_b (x) T_x + T_y (x) I_a of two
    symmetric tridiagonals T_x (a x a) and T_y (b x b), given by their
    eigenpairs T_x = S_x diag(lx) S_x^T and T_y = S_y diag(ly) S_y^T as
    (lx, S_x) and (ly, S_y), by fast diagonalization (Lynch, Rice & Thomas
    1964): A^{-1} maps the b x a array V of a vector, x running fastest, to

        S_y ((S_y^T V S_x) / (ly[:, None] + lx[None, :])) S_x^T,

    four dense products.  NotSpd unless every ly + lx is positive.  The
    factors are stored C-contiguous, which BLAS takes fastest here.
    """

    def __init__(self, eig_x, eig_y):
        (lx, s_x), (ly, s_y) = eig_x, eig_y
        self.lam = ly[:, None] + lx[None, :]
        if not np.all(self.lam > 0):
            raise NotSpd(-1, "a Kronecker sum block is not positive definite")
        self.s_x, self.s_x_t, self.s_y, self.s_y_t = (
            np.ascontiguousarray(f) for f in (s_x, s_x.T, s_y, s_y.T)
        )

    def solve_into(self, w, k, out):
        """A^{-1} on each of the k consecutive b x a arrays that the C-ordered
        w holds, written into out, of w's size: the k solves as one batch of
        four products."""
        b, a = self.lam.shape
        t = self.s_y_t @ (w.reshape(k * b, a) @ self.s_x).reshape(k, b, a)
        t /= self.lam
        t = self.s_y @ t
        np.matmul(t.reshape(k * b, a), self.s_x_t, out=out.reshape(k * b, a))

    def __call__(self, v):
        """A^{-1} v for a vector, or for an (n, k) block as one batch of k."""
        w = np.ascontiguousarray(np.asarray(v, dtype=np.float64).T)
        out = np.empty_like(w)
        self.solve_into(w, 1 if w.ndim == 1 else len(w), out)
        return out.T


class SymFactor:
    """Banded Cholesky S = R^T R, with products and solves for R, of the sum
    S of w m over the (w, m) terms, each m a dense or sparse symmetric
    matrix: a mass matrix M (problems.generalized_reduce) or the shifted
    sigma M - K of problems' lambdan.

    The band is summed one stored diagonal of the upper triangles at a time,
    so S is never formed, and LAPACK's banded Cholesky (pbtrf) factors it in
    place into the one lower band ``lab[d, j] = R[j, j + d]`` of L = R^T, in
    Fortran order, with bw the largest offset any m stores; a dense input is
    a band of full width, FEM mass matrices give bw ~ sqrt(n).  Raises
    NotSpd when pbtrf fails or a pivot is not positive (NaN included),
    which pbtrf and the band solves do not all test.
    `mult`, `mult_t`, `solve` and `solve_t` run BLAS tbmv, tbmv, tbsv and
    tbsv on lab with trans 1, 0, 1 and 0, one column at a time for an (n, k)
    block.  solve_t, the residual map of a solve on the pencil, is a forward
    substitution in axpy form.  solve takes the dot-product form, the price
    of one band: at h=2^-6 (2-vCPU Xeon, one BLAS thread) it measured about
    106 us against 76 us for the axpy form on a second, upper band, and a
    u-space step that applies it once about 5% slower; at h=2^-7 neither
    was slower.
    """

    def __init__(self, *terms):
        terms = [(w, m if scipy.sparse.issparse(m) else as_dense_sym(m)) for w, m in terms]
        stored = set()
        for _, m in terms:
            coo = scipy.sparse.coo_matrix(m)
            stored.update(np.unique(coo.col - coo.row).tolist())
        offsets = sorted(d for d in stored if d >= 0)
        bw, n = (offsets[-1] if offsets else 0), terms[0][1].shape[0]
        ab = np.zeros((bw + 1, n), order="F")
        for d in offsets:
            for w, m in terms:
                ab[d, : n - d] += w * m.diagonal(d)
        try:
            lab = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpd(-1, f"banded cholesky failed: {exc}") from exc
        bad = np.flatnonzero(~(lab[0] > 0))
        if bad.size:
            raise NotSpd(int(bad[0]), f"banded cholesky pivot {bad[0]} is not positive")
        self.bw, self.lab = bw, lab

    def _band(self, routine, v, trans):
        v = np.asarray(v, dtype=np.float64)
        return _by_column(lambda c: routine(self.bw, self.lab, c, lower=1, trans=trans), v)

    def mult(self, v):
        """R v"""
        return self._band(scipy.linalg.blas.dtbmv, v, 1)

    def mult_t(self, v):
        """R^T v"""
        return self._band(scipy.linalg.blas.dtbmv, v, 0)

    def solve(self, v):
        """R x = v, by back substitution in dot-product form"""
        return self._band(scipy.linalg.blas.dtbsv, v, 1)

    def solve_t(self, v):
        """R^T x = v, by forward substitution in axpy form"""
        return self._band(scipy.linalg.blas.dtbsv, v, 0)
