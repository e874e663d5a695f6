"""Problem generators and the high-accuracy reference eigensolver.

Generators: 5-point finite-difference Laplacian on the unit square, P1
finite-element stiffness/mass pairs, dense kernel matrices from seeded
Gaussian point clouds, and the reduction of an SPD pencil (A, M) to
standard form through the Cholesky factor of M.  mesh_hierarchy(H, h,
overlap) gives the two-level DDM its coarse space and its overlapping
subdomains, each a box of the interior grid.

The unit-square operators are grid stencils on the interior nodes, built by
one routine: the finite-difference Laplacian is (1/h^2) [-1, -1, 4, -1, -1];
on the P1 mesh (every square split along its lower-left to upper-right
diagonal) the stiffness is the same 5-point stencil without the 1/h^2 and
the mass couples each node to its six mesh neighbours (fem_p1).
"""

import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    DegenerateSmallestEigenvalue,
    DimensionMismatch,
    InvalidMeshWidth,
    MisalignedOverlap,
    NoConvergence,
    NotSpd,
    PrecondEigError,
)
from .linalg import (
    FastDiagSolve,
    Rng,
    SymFactor,
    _lanczos_top_value,
    chol_solve,
    cholesky,
    kron_sum_tridiagonals,
    lanczos_extremal,  # noqa: F401 - not called here; perfbench/spans.py patches this name
    lanczos_top_pairs,
    make_solver,
    pd_tridiagonal_eigh,
)

# largest dimension for which reference_eigs and kappa_nu take their dense
# LAPACK routes
_DENSE_CAP = 200
# most steps of a reference Lanczos run (one on fewer dimensions stops there)
_LANCZOS_STEPS = 600
# shifts _lanczos_lamn tries above its estimate of lambdan
_SHIFT_TRIES = 6
# most binary64 entries of an array whose byte count numpy can index
_MAX_ENTRIES = sys.maxsize // 8


def _as_inverse_width(h, minimum=2, name="h"):
    try:
        inv = round(1.0 / float(h))
    except (ZeroDivisionError, OverflowError, ValueError):  # h = 0, 1/h = inf, or NaN
        inv = 0
    if inv < minimum or abs(inv * float(h) - 1.0) > 1e-12:
        raise InvalidMeshWidth(f"1/{name} must be an integer >= {minimum}, got {name}={h}")
    # _grid_stencil's arrays: a row of up to 7 entries per interior node
    if 7 * (inv - 1) ** 2 > _MAX_ENTRIES:
        raise InvalidMeshWidth(f"grid needs 7 (1/{name} - 1)^2 <= {_MAX_ENTRIES}, got {name}={h}")
    return inv


@dataclass
class ReferenceSpectrum:
    lam1: float
    lam2: float
    lamn: float
    u_star: np.ndarray


class EigenProblem:
    """Operator A with dimension, matvec access, optional explicit matrix,
    optional mass reduction data, and a cached reference spectrum.

    A mass-reduced problem holds its original pencil as the triple (K, M, R)
    in pencil, with R the factor of M = R^T R; pencil is None for a standard
    problem.  A preconditioner built for the original pencil is lifted to
    the reduced problem by precond.HattedPreconditioner(p, R), as
    cli.build_precond does for ddm, and a pair's applies run on its
    solvers.Route.  h is the mesh width of a problem on the unit-square grid
    (laplace_fd, laplace_fem) and None otherwise; a DDM is built from it, H,
    the overlap and the stiffness pencil[0], or matrix when there is no
    pencil, and solver() solves that stiffness by fast diagonalization.
    apply_a takes an (n, k) block as well as a vector, as kappa_nu,
    check_initial and dense() apply it; the generators here build such ones.
    """

    def __init__(self, dim, apply_a, matrix=None, solve_a=None, pencil=None, h=None):
        self.dim = dim
        self.apply_a = apply_a
        self.matrix = matrix
        self._solve_a = solve_a
        self.pencil = pencil
        self.h = h
        self._reference = None

    def solver(self):
        """A^{-1}, made on first use (NotSpd if not SPD): of the matrix, or of
        K = pencil[0] as R K^{-1} R^T under a mass.  On the unit-square grid
        (h not None) the stiffness is a Kronecker sum, solved by
        linalg.FastDiagSolve, the DDM's local solve on one box that covers
        the grid (NotKroneckerSum otherwise), with the tridiagonals'
        eigenpairs by pd_tridiagonal_eigh: their relative accuracy keeps B =
        A of an exact preconditioner equivalent to A to about 1e-14 (at
        h=2^-6 eigh_tridiagonal's left 8e-14, and at h=2^-7 kappa_nu's
        Lanczos ran out of steps).  Any other matrix is solved by one
        make_solver factorization."""
        if self._solve_a is None:
            k = self.matrix if self.pencil is None else self.pencil[0]
            if self.h is not None:
                tridiagonals = kron_sum_tridiagonals(k, round(1.0 / self.h) - 1)
                solve_k = FastDiagSolve(*(pd_tridiagonal_eigh(*t) for t in tridiagonals))
            elif k is None:
                raise PrecondEigError("no matrix and no solver available")
            else:
                solve_k = make_solver(k)
            self._solve_a = solve_k
            if self.pencil is not None:
                r = self.pencil[2]
                self._solve_a = lambda v: r.mult(solve_k(r.mult_t(v)))
        return self._solve_a

    def dense(self):
        """Dense binary64 form of the operator: its matrix, or else one apply_a
        on the identity block, symmetrized (DimensionMismatch above 5000
        rows)."""
        if self.matrix is not None:
            if scipy.sparse.issparse(self.matrix):
                return self.matrix.toarray()
            return np.asarray(self.matrix, dtype=np.float64)
        if self.dim > 5000:
            raise DimensionMismatch(f"refusing to assemble a dense {self.dim}x{self.dim} operator")
        a = self.apply_a(np.eye(self.dim))
        return (a + a.T) / 2.0

    def reference(self):
        if self._reference is None:
            self._reference = reference_eigs(self)
        return self._reference


# ---------------------------------------------------------------------------
# finite differences / finite elements on the unit square
# ---------------------------------------------------------------------------


def _grid_stencil(h, stencil):
    """CSR matrix on the interior nodes, in interior_coords(h) order, that
    couples node (i, j) to (i + di, j + dj) with weight w for every (di, dj, w)
    in stencil whose target is an interior node.  Zero weights stay stored,
    and each row's columns come out sorted."""
    inv = _as_inverse_width(h)
    ij = interior_coords(h)
    di, dj, w = (np.array(c) for c in zip(*sorted(stencil, key=lambda s: (s[1], s[0]))))
    i, j = ij[:, :1] + di, ij[:, 1:] + dj
    inside = (i > 0) & (i < inv) & (j > 0) & (j < inv)
    indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    cols = (j - 1) * (inv - 1) + i - 1
    n = len(ij)
    return scipy.sparse.csr_matrix(
        (np.broadcast_to(w, inside.shape)[inside], cols[inside], indptr), shape=(n, n)
    )


# (di, dj, w) stencils: 4 at the node and -1 at its four axis neighbours;
# the two neighbours along the split diagonal of the P1 mesh, weight 0
_CROSS = [(0, 0, 4.0), (1, 0, -1.0), (-1, 0, -1.0), (0, 1, -1.0), (0, -1, -1.0)]
_SPLIT = [(1, 1, 0.0), (-1, -1, 0.0)]


def laplace_fd(h):
    """5-point finite-difference Laplacian with zero Dirichlet boundary.

    Dimension (1/h - 1)^2, stencil (1/h^2) * [-1, -1, 4, -1, -1].
    """
    a = _grid_stencil(h, _CROSS) / h**2
    return EigenProblem(
        dim=a.shape[0],
        apply_a=lambda v: a @ v,
        matrix=a,
        h=1.0 / _as_inverse_width(h),
    )


def fem_p1(h):
    """P1 stiffness and consistent mass matrices on interior nodes.

    Regular right-triangle mesh on [0,1]^2, every square split along its
    lower-left to upper-right diagonal, so node (i, j) has six neighbours:
    (i +- 1, j), (i, j +- 1), (i + 1, j + 1) and (i - 1, j - 1).  Stiffness:
    4 at the node, -1 at the four axis neighbours and a stored 0 at the two
    split-diagonal ones, so its pattern is the mass matrix's.  Mass:
    c0+c0+c0+c0+c0+c0 at the node (six triangles) and c1+c1 at each
    neighbour (two triangles per edge), c0 = 2/24 h^2 and c1 = 1/24 h^2,
    summed in the order element-by-element assembly sums them.  Returns
    (stiffness, mass) as CSR, both SPD, with rows in the node order of
    interior_coords(h).
    """
    stiffness = _grid_stencil(h, _CROSS + _SPLIT)  # checks h before h**2
    c0, c1 = 2.0 / 24.0 * h**2, 1.0 / 24.0 * h**2
    mass = _grid_stencil(
        h,
        [(0, 0, c0 + c0 + c0 + c0 + c0 + c0)]
        + [(di, dj, c1 + c1) for di, dj, _ in _CROSS[1:] + _SPLIT],
    )
    return stiffness, mass


def interior_coords(h):
    """Integer grid indices (i, j) of the interior nodes, one row per node in
    the assembly ordering; node (i, j) sits at (i h, j h)."""
    inv = _as_inverse_width(h)
    ii, jj = np.meshgrid(np.arange(1, inv), np.arange(1, inv), indexing="ij")
    return np.column_stack([ii.ravel(order="F"), jj.ravel(order="F")])


def mesh_hierarchy(H, h, overlap_ratio):
    """Coarse space and overlapping subdomain boxes of the two-level DDM on
    the unit square: returns (prolongation, boxes).

    P1 interpolation on the coarse triangulation of width H gives the
    prolongation, a CSR matrix from the coarse interior nodes onto the fine
    interior nodes.  The (1/H)^2 nonoverlapping cells are each enlarged by
    a band of width delta = overlap_ratio * H, clipped to the domain and
    aligned with the fine mesh; each box is the (y-slice, x-slice) pair of
    the fine interior nodes strictly inside its enlarged cell, on the
    (1/h - 1) x (1/h - 1) grid of interior nodes with x running fastest, as
    interior_coords orders them.  DdmPreconditioner(A, h, H, overlap_ratio)
    builds its coarse and local solves from these.
    """
    inv_h = _as_inverse_width(h)
    inv_H = _as_inverse_width(H, minimum=1, name="H")
    if not h < H:
        raise InvalidMeshWidth(f"need h < H, got h={h}, H={H}")
    if inv_h % inv_H != 0:
        raise InvalidMeshWidth("H/h must be an integer")
    mult = inv_h // inv_H  # fine cells per coarse cell edge
    if not 0 < overlap_ratio <= 1:
        raise MisalignedOverlap("overlap ratio must lie in (0, 1]")
    delta_units = overlap_ratio * mult
    if abs(delta_units - round(delta_units)) > 1e-12:
        raise MisalignedOverlap(
            f"band width {overlap_ratio}*H is not a multiple of h (H/h={mult})"
        )
    delta_units = int(round(delta_units))
    if delta_units < 1:
        raise MisalignedOverlap(
            f"overlap {overlap_ratio} gives a band narrower than one fine cell h (H/h={mult})"
        )

    ij = interior_coords(h)
    nf = inv_h - 1
    n_coarse = inv_H - 1  # interior coarse nodes per side

    # P1 interpolation weights of the coarse hat functions at fine nodes: the
    # hat of coarse vertex (I, J) is 1 - max(|xi|, |eta|, |xi - eta|) at
    # offset (xi, eta) in coarse units, nonzero only on the four corners of
    # the coarse cell holding the node; in fine units xi = di / mult
    vi = ij[:, :1] // mult + np.array([0, 1, 0, 1])  # coarse vertex (I, J) of
    vj = ij[:, 1:] // mult + np.array([0, 0, 1, 1])  # [fine node, corner]
    di = ij[:, :1] - vi * mult
    dj = ij[:, 1:] - vj * mult
    w = (mult - np.maximum(np.maximum(np.abs(di), np.abs(dj)), np.abs(di - dj))) / mult
    keep = (w > 0.0) & (vi >= 1) & (vi <= n_coarse) & (vj >= 1) & (vj <= n_coarse)
    node, _ = np.nonzero(keep)
    prol = scipy.sparse.csr_matrix(
        (w[keep], (node, (vj[keep] - 1) * n_coarse + vi[keep] - 1)),
        shape=(nf * nf, n_coarse * n_coarse),
    )
    prol.sort_indices()

    # A box holds the fine nodes strictly inside the enlarged open cell,
    # (c mult - delta, (c + 1) mult + delta) on each axis in fine units, i.e.
    # the nodes whose basis functions are supported in its closure; grid
    # index k stands for node k + 1.  A band of at least one fine cell makes
    # the boxes cover every node.
    box = [
        slice(max(c * mult - delta_units, 0), min((c + 1) * mult + delta_units - 1, nf))
        for c in range(inv_H)
    ]
    return prol, [(ys, xs) for ys in box for xs in box]


def laplace_fem(h):
    """Generalized Laplace eigenvalue problem (stiffness, mass) in reduced form."""
    problem = generalized_reduce(*fem_p1(h))
    problem.h = h
    return problem


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


def _pairwise_sq(points):
    g = points @ points.T
    sq = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    return np.maximum(sq, 0.0)


def kernel_matrix(kind, n, d, seed, tau):
    """Dense SPD kernel matrix of n standard Gaussian points in dimension d,
    drawn from Rng(seed) as the rows of x (then of y).

    laplacian:    A_ij = exp(-||x_i - x_j|| / 2)
    poly-complex: A = K_x + K_y with K(x, y) = (x^T y + 1)^3.  The paper's
                  cross term Im(K(x_i, y_j) - K(y_i, x_j)) is exactly zero
                  for the real points drawn here, so it is not formed.

    A diagonal shift tau * I is added; positive definiteness is verified by a
    binary64 Cholesky, whose factor is kept as the problem's solver; a
    matrix that is not SPD raises NotSpd.  Before any work, InvalidMeshWidth
    for n < 2, d < 1, |tau| > 1e150, another kind, or an n and d so large
    that numpy cannot index an n x max(n, d) binary64 array.
    """
    if n < 2:
        raise InvalidMeshWidth("kernel matrices need n >= 2")
    if d < 1:
        raise InvalidMeshWidth(f"kernel points need dimension d >= 1, got d={d}")
    if not abs(tau) <= 1e150:  # keeps the (u^T A u)^2 of an rsd_solve step finite
        raise InvalidMeshWidth(f"kernel shifts need |tau| <= 1e150, got tau={tau}")
    if kind not in ("laplacian", "poly-complex"):
        raise InvalidMeshWidth(f"unknown kernel kind {kind!r}")
    if max(n, d) > _MAX_ENTRIES // n:
        raise InvalidMeshWidth(f"kernel arrays need n max(n, d) <= {_MAX_ENTRIES}, got n={n}, d={d}")
    rng = Rng(seed)
    x = rng.normal(n * d).reshape(n, d)
    if kind == "laplacian":
        a = np.exp(-np.sqrt(_pairwise_sq(x)) / 2.0)
        np.fill_diagonal(a, 1.0)
    else:
        y = rng.normal(n * d).reshape(n, d)
        a = (x @ x.T + 1.0) ** 3 + (y @ y.T + 1.0) ** 3
    a = (a + a.T) / 2.0
    if tau:
        a = a + tau * np.eye(n)
    try:
        factor = cholesky(a, "binary64")
    except NotSpd as exc:
        raise NotSpd(exc.pivot, "kernel matrix is not SPD; increase tau") from exc
    return EigenProblem(
        dim=n,
        apply_a=lambda v: a @ v,
        matrix=a,
        solve_a=lambda v: chol_solve(factor, v),
    )


# ---------------------------------------------------------------------------
# generalized pencil reduction and reference spectra
# ---------------------------------------------------------------------------


def generalized_reduce(a, m):
    """Reduce the SPD pencil (A, M) to standard form with M = R^T R.

    The reduced operator is R^{-T} A R^{-1}; its eigenvalues are the pencil
    eigenvalues and eigenvectors map as w = R u.  Preconditioners for A are
    lifted by precond.HattedPreconditioner to Bhat^{-1} v = R (B^{-1} (R^T v)).
    The problem keeps (A, M, R) in pencil.  The reduced apply_a costs a
    banded R solve, an A matvec and a banded R^T solve; the rate context's
    A u* and reference spectrum run on it, and a pair's other applies on its
    solvers.Route (a lifted B's nested PCG on the pencil).  Factors
    only M here, as SymFactor((1, M)), one lower band (NotSpd unless SPD,
    DimensionMismatch unless A's size); A in problem.solver() (by fast
    diagonalization once laplace_fem has set h, else by make_solver), and
    sigma M - A, for a while, as a SymFactor of its own in the reference's
    lambdan.
    """
    n = a.shape[0]
    if m.shape[0] != n:
        raise DimensionMismatch("pencil matrices differ in size")
    r = SymFactor((1.0, m))

    def apply_hat(v):
        return r.solve_t(a @ r.solve(v))

    return EigenProblem(dim=n, apply_a=apply_hat, pencil=(a, m, r))


def _inverse_iteration(problem, solve, v, project, tol, steps, name):
    """Inverse iteration from v, one A apply per iterate for its Rayleigh
    quotient lambda and its residual; `project` maps each residual and new
    iterate.  Returns (lambda, v) at the first iterate with ||project(A v -
    lambda v)|| <= tol |lambda|, or raises NoConvergence naming eigenvalue
    `name` once `steps` solves have made none."""
    for solves in range(steps + 1):
        av = problem.apply_a(v)
        lam = float(v @ av) / float(v @ v)
        if np.linalg.norm(project(av - lam * v)) <= tol * abs(lam):
            return lam, v
        if solves < steps:
            v = project(solve(v))
            v /= np.linalg.norm(v)
    raise NoConvergence(f"inverse iteration failed to reach the {name} residual target")


def reference_eigs(problem):
    """High-accuracy (lambda1, lambda2, lambdan, u*) for an EigenProblem.

    Dense route, for a problem whose matrix is an np.ndarray of dimension
    up to _DENSE_CAP: lambda1, lambda2 and u* from LAPACK eigh on the two
    smallest eigenpairs, lambdan from eigvalsh on the largest eigenvalue.
    Otherwise the Lanczos route of _lanczos_reference, where a problem
    with a pencil (K, M) takes lambdan by shift-invert (_lanczos_lamn).
    Raises DegenerateSmallestEigenvalue for dimension 1 or when lambda2 -
    lambda1 falls below 1e-9 lambdan (on the dense route a repeated lambda1
    gives exactly 0), and on the Lanczos route also when its start spans an
    invariant subspace of one eigenpair; NoConvergence when either of its
    inverse iterations misses its target or no shift above lambdan is
    found.  u* is signed so that its entry of largest magnitude is positive.
    """
    n = problem.dim
    if n == 1:
        raise DegenerateSmallestEigenvalue("dimension 1: lambda2 does not exist")
    if isinstance(problem.matrix, np.ndarray) and n <= _DENSE_CAP:
        a = problem.matrix
        w, vecs = scipy.linalg.eigh(a, subset_by_index=(0, 1), check_finite=False)
        lamn = scipy.linalg.eigvalsh(a, subset_by_index=(n - 1, n - 1), check_finite=False)[0]
        lam1, lam2, u = w[0], w[1], vecs[:, 0]
    else:
        lam1, lam2, lamn, u = _lanczos_reference(problem)
    if lam2 - lam1 <= 1e-9 * lamn:
        raise DegenerateSmallestEigenvalue(
            f"lambda2 - lambda1 = {lam2 - lam1:.3e} <= 1e-9 * lambdan"
        )
    flip = np.argmax(np.abs(u))
    if u[flip] < 0:
        u = -u
    return ReferenceSpectrum(lam1=float(lam1), lam2=float(lam2), lamn=float(lamn), u_star=u)


def _lanczos_reference(problem):
    """(lambda1, lambda2, lambdan, u*) of reference_eigs' Lanczos route.

    lambda1, lambda2 and u* come from a reorthogonalized Lanczos on A^{-1}
    (top of the spectrum of the inverse is well separated) at tol 1e-12,
    refined by _inverse_iteration at one A apply per iterate: lambda1 from
    the first Ritz vector (at most 100 solves, residual 1e-10 lambda1),
    lambda2 from the second deflated against u* (at most 200 solves,
    deflated residual 1e-11 lambda2).  lambdan needs no vector, so it comes
    from _lanczos_lamn's three-term runs, computed first so that a pencil's
    shifted band factor is freed before problem.solver() is made.  Each
    Lanczos runs at most _LANCZOS_STEPS = 600 steps, and at most n, from a
    start drawn from Rng(777) (its spawn(1) for lambdan).  A repeated
    lambda1 shows here only through roundoff, which lets the
    reorthogonalization restart in the orthogonal complement.
    """
    n = problem.dim
    rng = Rng(777)
    lamn = _lanczos_lamn(problem, rng.spawn(1))
    solve = problem.solver()
    vals, vecs = lanczos_top_pairs(solve, n, tol=1e-12, maxit=_LANCZOS_STEPS, rng=rng)
    if len(vals) < 2:
        raise DegenerateSmallestEigenvalue("the start spans an invariant subspace of one eigenpair")
    lam1, u = _inverse_iteration(problem, solve, vecs[:, 0], lambda x: x, 1e-10, 100, "lambda1")

    def deflate(x):
        return x - float(u @ x) * u

    v = deflate(vecs[:, 1])
    v /= np.linalg.norm(v)
    lam2, _ = _inverse_iteration(problem, solve, v, deflate, 1e-11, 200, "lambda2")
    return lam1, lam2, lamn, u


def _lanczos_lamn(problem, rng):
    """lambdan to 1e-11 relative by _lanczos_top_value runs drawing their
    starts from rng: on A at tol 1e-11 without a pencil, and with a pencil
    (K, M) by a spectral transformation (Ericsson & Ruhe 1980).

    A Lanczos on A at tol 1e-2 estimates theta <= lambdan.  The
    shift sigma = theta (1 + g), g = 1e-2 4^k, is certified above lambdan by
    SymFactor((sigma, M), (-1, K)), the banded Cholesky R^T R of sigma M - K,
    which raises NotSpd when sigma <= lambdan; k then goes up, and after
    _SHIFT_TRIES = 6 shifts (the last at g = 10.24) NoConvergence is
    raised.  The Lanczos on T = (sigma M - K)^{-1} M, self-adjoint in the
    M-inner product, finds T's top value mu = 1 / (sigma - lambdan) at tol
    1e-11 / g, with one solve_t, one solve and one M product per step, and
    lambdan = sigma - 1 / mu.  Its error is
    mu's relative error times sigma - lambdan <= sigma - theta = g theta, so
    lambdan keeps 1e-11 of itself.
    At h=2^-6 the top of the FEM pencil is a pair 5.8e-10 apart relative,
    and the next pair lies 2.1e-3 below; on A the Lanczos needs about 300
    steps to resolve them, on T it needs 30 (53 at g = 3e-2, as the
    closer shift spreads the top of T further apart relative to the rest;
    56 against 111 at h=2^-8).  The factor is one band of (bw + 1) n
    entries, as the mass factor's, freed on return."""
    if problem.pencil is None:
        return _lanczos_top_value(problem.apply_a, problem.dim, 1e-11, _LANCZOS_STEPS, rng)
    k, m, _ = problem.pencil
    theta = _lanczos_top_value(problem.apply_a, problem.dim, 1e-2, _LANCZOS_STEPS, rng)
    for tries in range(_SHIFT_TRIES):
        g = 1e-2 * 4.0**tries
        sigma = theta * (1.0 + g)
        try:
            f = SymFactor((sigma, m), (-1.0, k))
        except NotSpd:
            continue  # sigma <= lambdan
        mu = _lanczos_top_value(
            lambda mq: f.solve(f.solve_t(mq)), problem.dim, 1e-11 / g, _LANCZOS_STEPS, rng,
            inner_map=lambda v: m @ v,
        )
        return sigma - 1.0 / mu
    raise NoConvergence(f"no shift above lambdan in {_SHIFT_TRIES} tries from {theta:.6e}")
