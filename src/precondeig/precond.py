"""SPD preconditioners behind one interface.  The method applies only
B^{-1}; B itself only measures (||u||_B, and B u* for the distortion
angle), through apply_fwd, which every preconditioner has.  An explicit B
(OperatorPreconditioner, mp-chol, and the scaled wrapper of either) applies
B directly (fwd_mode 'exact').  A DDM's apply_fwd is apply_fwd_iterative, a
nested PCG preconditioned by the stiffness it was built on (fwd_mode
'iterative'), and a B lifted by HattedPreconditioner applies R^{-T} B R^{-1},
so a lifted DDM's nested PCG always runs on the pencil (P, K).  DDM's B^{-1}
runs its local solves by linalg.FastDiagSolve, the fast diagonalization
that also solves a grid problem's whole stiffness (EigenProblem.solver),
and its coarse solve by linalg.make_solver, a symmetric-mode SuperLU; the
only band factor here is the mass factor R that a lifted B applies around
its inner B.

The mixed-precision preconditioner follows the two-precision model: the
factorization and the triangular substitutions run in binary32 inside a
binary64 outer iteration, so its applies are a noisy way to realize
B = Lhat Lhat^T.  Diagnostics measure B itself through exact(), which
returns a binary64 twin: the same stored factor applied in binary64 (binary32
values embed exactly in binary64, so both realize the same SPD matrix).
Every other preconditioner already applies B in binary64 and is its own twin.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, NotSpd
from .linalg import (
    CholFactor,
    FastDiagSolve,
    _by_column,
    chol_matvec,
    chol_solve,
    cholesky,
    kron_sum_tridiagonals,
    make_solver,
    pcg,
)
from .problems import mesh_hierarchy

_U32 = 2.0**-24  # IEEE binary32 unit roundoff
FWD_TOL = 1e-10  # relative residual of the nested PCG behind an iterative forward apply


class Preconditioner:
    """Interface: apply_inv, apply_fwd, fwd_mode, exact(), pencil().

    fwd_mode 'exact' means apply_fwd is B v to roundoff; 'iterative' means
    it is a nested PCG to FWD_TOL (a DDM, or a B lifted around one), which
    solvers.Route.b_norm_sq measures by a second-order formula.  apply_inv,
    and apply_fwd of an explicit B, take an (n, k) block or a vector; an
    iterative apply_fwd takes a vector only.
    """

    fwd_mode = "exact"
    # set only when the twin is another object: a self-reference would keep
    # a dropped preconditioner alive until the cyclic garbage collector runs
    _twin = None

    def apply_inv(self, v):
        raise NotImplementedError

    def apply_fwd(self, v):
        raise NotImplementedError

    def exact(self):
        """Binary64 twin realizing the same B; self when the applies already
        run in binary64."""
        return self if self._twin is None else self._twin

    def pencil(self):
        """B in the coordinates of the original pencil (K, M) when this B was
        lifted to a mass-reduced problem by HattedPreconditioner, else None."""
        return None


class OperatorPreconditioner(Preconditioner):
    """B given directly by binary64 callables for B^{-1} v and B v, each
    taking a vector or an (n, k) block."""

    def __init__(self, apply_inv_fn, apply_fwd_fn):
        self._inv = apply_inv_fn
        self._fwd = apply_fwd_fn

    def apply_inv(self, v):
        return self._inv(np.asarray(v, dtype=np.float64))

    def apply_fwd(self, v):
        return self._fwd(np.asarray(v, dtype=np.float64))


def make_identity():
    return OperatorPreconditioner(np.copy, np.copy)


def make_spd(b):
    """Preconditioner from an explicit SPD matrix B, factored once."""
    return OperatorPreconditioner(make_solver(b), lambda v: b @ v)


class MpCholPreconditioner(Preconditioner):
    """B = Lhat Lhat^T for a stored Cholesky factor Lhat; both applies run in
    the dtype of factor.l.  make_mp_cholesky computes Lhat in binary32."""

    def __init__(self, factor):
        self.factor = factor
        if factor.l.dtype != np.float64:
            self._twin = MpCholPreconditioner(CholFactor(factor.l.astype(np.float64)))

    def apply_inv(self, v):
        return chol_solve(self.factor, v)

    def apply_fwd(self, v):
        return chol_matvec(self.factor, v)


def make_mp_cholesky(a):
    return MpCholPreconditioner(cholesky(a, "binary32"))


def epsilon_l(n, lambda1, lambdan):
    """Low-precision quality parameter 4n(3n+1)(lambdan/lambda1) * 2^-24.

    Returns (value, applicable) where applicable means value < 1 so the
    distortion bound cos(phi) <= sqrt(2 * value) holds.
    """
    if lambda1 <= 0:
        raise NotSpd(-1, "lambda1 must be positive")
    value = 4.0 * n * (3.0 * n + 1.0) * (lambdan / lambda1) * _U32
    return value, value < 1.0


class DdmPreconditioner(Preconditioner):
    """Two-level overlapping additive Schwarz for a stiffness A on the
    interior grid of mesh width h:

        B^{-1} v = I_H A_H^{-1} I_H^T v + sum_j I_j A_j^{-1} I_j^T v

    DdmPreconditioner(A, h, H, overlap) takes the prolongation I_H and the
    subdomain boxes from problems.mesh_hierarchy(H, h, overlap); A_j is the
    principal submatrix of A on box j and A_H = I_H^T A I_H the coarse
    (Galerkin) matrix, both formed here.  A must have (1/h - 1)^2 rows
    (DimensionMismatch otherwise).

    The local solves run by fast diagonalization (linalg.FastDiagSolve).
    A must be the Kronecker sum I (x) T_x + T_y (x) I of two symmetric
    tridiagonals on the interior grid, as linalg.kron_sum_tridiagonals reads
    them (NotKroneckerSum otherwise).  A box of a x b grid nodes has
    A_j = I_b (x) T_x' + T_y' (x) I_a for the slices T_x', T_y' of T_x, T_y
    on the box, whose eigenpairs come from eigh_tridiagonal: B only has to
    approximate A, where EigenProblem.solver's grid solve stands for A^{-1}
    itself and takes relatively accurate ones.  Boxes with equal a, b, T_x'
    and T_y' form a group that shares one FastDiagSolve, and the
    concatenated box nodes run group by group, so the k boxes of a group are
    one (k, b, a) slice and their solves are four batched dense products.
    An apply is a gather of v onto the concatenated nodes, the group solves
    and a scatter-add through the sparse stacked restriction; an (n, k)
    block runs the local solves one column at a time.  B itself is implicit
    (fwd_mode 'iterative'): apply_fwd is apply_fwd_iterative preconditioned
    by the stiffness A it was built on.
    """

    fwd_mode = "iterative"

    def __init__(self, a_fine, h, big_h, overlap):
        prolongation, boxes = mesh_hierarchy(big_h, h, overlap)
        n, side = a_fine.shape[0], round(1.0 / h) - 1
        if n != side * side:
            raise DimensionMismatch(
                f"the stiffness has {n} rows, but h={h} gives {side * side} interior nodes"
            )
        self._a = a_fine
        self._i_h = prolongation
        self._i_h_t = prolongation.T.tocsr()
        # an empty coarse space (single-cell coarse grid) drops the first term
        self._coarse_solve = None
        if prolongation.shape[1] > 0:
            self._coarse_solve = make_solver((prolongation.T @ a_fine @ prolongation).tocsc())
        (dx, ex), (dy, ey) = kron_sum_tridiagonals(a_fine, side)
        # (T_x', T_y') bytes -> (T_x', T_y', node index arrays)
        members = {}
        grid = np.arange(n).reshape(side, side)
        for ys, xs in boxes:
            t_j = (dx[xs], ex[xs.start : xs.stop - 1]), (dy[ys], ey[ys.start : ys.stop - 1])
            key = tuple(part.tobytes() for t in t_j for part in t)
            members.setdefault(key, (*t_j, []))[2].append(grid[ys, xs].ravel())
        # per group: its slice of the concatenated nodes, k and the solve of
        # its A_j
        self._groups = []
        start = 0
        for t_x, t_y, idxs in members.values():
            solve = FastDiagSolve(*(scipy.linalg.eigh_tridiagonal(*t) for t in (t_x, t_y)))
            size = len(idxs) * solve.lam.size
            self._groups.append((slice(start, start + size), len(idxs), solve))
            start += size
        self._cat = np.concatenate([idx for *_, idxs in members.values() for idx in idxs])
        m = len(self._cat)
        # transpose of the stacked restriction v -> v[cat]
        self._r_t = scipy.sparse.csr_matrix(
            (np.ones(m), (self._cat, np.arange(m))), shape=(n, m)
        )

    def _local_solve(self, w):
        """A_j^{-1} on every box of the gathered vector w, one group at a time."""
        out = np.empty_like(w)
        for part, k, solve in self._groups:
            solve.solve_into(w[part], k, out[part])
        return out

    def apply_inv(self, v):
        v = np.asarray(v, dtype=np.float64)
        local = _by_column(self._local_solve, v[self._cat])
        # a fixed CSR product: each node sums its local values in one fixed
        # order, so applies are bit-reproducible
        return self.coarse_part(v) + self._r_t @ local

    def apply_fwd(self, v):
        return apply_fwd_iterative(self, v, lambda w: self._a @ w)

    def coarse_part(self, v):
        v = np.asarray(v, dtype=np.float64)
        if self._coarse_solve is None:
            return np.zeros_like(v)
        return self._i_h @ self._coarse_solve(self._i_h_t @ v)


class ScaledPreconditioner(Preconditioner):
    """Wraps an inner preconditioner as B/eta, i.e. applies eta * B^{-1}."""

    def __init__(self, inner, eta):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.inner = inner
        self.eta = float(eta)
        self.fwd_mode = inner.fwd_mode
        if inner.exact() is not inner:
            self._twin = ScaledPreconditioner(inner.exact(), eta)

    def apply_inv(self, v):
        return self.eta * self.inner.apply_inv(v)

    def apply_fwd(self, v):
        return self.inner.apply_fwd(v) / self.eta

    def pencil(self):
        inner = self.inner.pencil()
        return None if inner is None else ScaledPreconditioner(inner, self.eta)


def spectral_scale(p, nu_min, nu_max):
    """Scale p by eta = 2/(nu_max + nu_min) so ||I - eta B^{-1} A||_A equals
    (kappa - 1)/(kappa + 1) with kappa = nu_max/nu_min."""
    if not 0 < nu_min <= nu_max:
        raise ValueError("need 0 < nu_min <= nu_max")
    return ScaledPreconditioner(p, 2.0 / (nu_max + nu_min))


class HattedPreconditioner(Preconditioner):
    """Preconditioner for the mass-reduced pencil: Bhat^{-1} v = R B^{-1} R^T v
    and Bhat v = R^{-T} B R^{-1} v, where M = R^T R, with the inner B's
    fwd_mode; a lifted DDM's nested PCG thus runs on the pencil (P, K).

    A pair's applies run on its solvers.Route, which takes the inner B in
    pencil coordinates through pencil().  Only the rate context's B^{-1}
    applies (B^{-1} u*, cos phi) and the smooth starts apply Bhat^{-1} in
    u-space, at two banded R products around the inner apply.
    """

    def __init__(self, inner, r_factor):
        self.inner = inner
        self.r = r_factor
        self.fwd_mode = inner.fwd_mode
        if inner.exact() is not inner:
            self._twin = HattedPreconditioner(inner.exact(), r_factor)

    def apply_inv(self, v):
        return self.r.mult(self.inner.apply_inv(self.r.mult_t(v)))

    def apply_fwd(self, v):
        return self.r.solve_t(self.inner.apply_fwd(self.r.solve(v)))

    def pencil(self):
        return self.inner


def apply_fwd_iterative(p, v, apply_a):
    """z = B v from B^{-1} alone: DdmPreconditioner's apply_fwd.

    Runs PCG from z = v on the SPD system B^{-1} z = v, to relative
    residual FWD_TOL in at most 500 iterations.  The preconditioning step
    multiplies by A (A approximates B, hence A^{-1} approximates the system
    operator), so convergence is governed by the spectral equivalence of A
    and B rather than by the conditioning of either matrix alone.
    """
    v = np.asarray(v, dtype=np.float64)
    z, _ = pcg(p.apply_inv, apply_a, v, tol=FWD_TOL, maxit=500, x0=v)
    return z

