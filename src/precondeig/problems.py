"""Problem generators and the high-accuracy reference eigensolver.

Generators: 5-point finite-difference Laplacian on the unit square, P1
finite-element stiffness/mass pairs with a two-level overlapping hierarchy,
dense kernel matrices from seeded Gaussian point clouds, and the reduction
of an SPD pencil (A, M) to standard form through the Cholesky factor of M.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import (
    DegenerateSmallestEigenvalue,
    InvalidMeshWidth,
    MisalignedOverlap,
    NoConvergence,
    NotSpd,
)
from .geometry import rayleigh
from .linalg import (
    Rng,
    SymFactor,
    _lanczos_top_value,
    chol_solve,
    cholesky,
    lanczos_extremal,  # noqa: F401 - not called here; perfbench/spans.py patches this name
    lanczos_top_pairs,
    make_solver,
)
from .precond import HattedPreconditioner


def _as_inverse_width(h, minimum=2):
    inv = round(1.0 / float(h))
    if inv < minimum or abs(inv * float(h) - 1.0) > 1e-12:
        raise InvalidMeshWidth(f"1/h must be an integer >= {minimum}, got h={h}")
    return inv


@dataclass
class ReferenceSpectrum:
    lam1: float
    lam2: float
    lamn: float
    u_star: np.ndarray


class EigenProblem:
    """Operator A with dimension, matvec access, optional explicit matrix,
    optional mass reduction data, and a cached reference spectrum."""

    def __init__(self, dim, apply_a, matrix=None, solve_a=None, label="", r_factor=None, meta=None):
        self.dim = dim
        self.apply_a = apply_a
        self.matrix = matrix
        self._solve_a = solve_a
        self.label = label
        self.r_factor = r_factor
        self.meta = meta or {}
        self._reference = None

    def solver(self):
        if self._solve_a is None:
            if self.matrix is None:
                raise NotSpd(-1, "no matrix and no solver available")
            self._solve_a = make_solver(self.matrix)
        return self._solve_a

    def dense(self):
        """Dense binary64 form of the operator (assembled columnwise if needed,
        up to 5000 rows)."""
        if self.matrix is not None:
            if scipy.sparse.issparse(self.matrix):
                return self.matrix.toarray()
            return np.asarray(self.matrix, dtype=np.float64)
        if self.dim > 5000:
            raise NotSpd(-1, f"refusing to assemble a dense {self.dim}x{self.dim} operator")
        cols = [self.apply_a(e) for e in np.eye(self.dim)]
        a = np.column_stack(cols)
        return (a + a.T) / 2.0

    def wrap_precond(self, p):
        """Lift a preconditioner built for the original pencil to this problem."""
        if self.r_factor is None:
            return p
        return HattedPreconditioner(p, self.r_factor)

    def reference(self):
        if self._reference is None:
            self._reference = reference_eigs(self)
        return self._reference


# ---------------------------------------------------------------------------
# finite differences / finite elements on the unit square
# ---------------------------------------------------------------------------


def laplace_fd(h):
    """5-point finite-difference Laplacian with zero Dirichlet boundary.

    Dimension (1/h - 1)^2, stencil (1/h^2) * [-1, -1, 4, -1, -1].
    """
    inv = _as_inverse_width(h)
    n1 = inv - 1
    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n1, n1), format="csr")
    eye = scipy.sparse.identity(n1, format="csr")
    a = (scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)).tocsr() / h**2
    a.sort_indices()
    return EigenProblem(
        dim=n1 * n1,
        apply_a=lambda v: a @ v,
        matrix=a,
        label=f"laplace-fd:h=1/{inv}",
        meta={"h": 1.0 / inv, "grid": n1},
    )


def _p1_grids(inv):
    """Triangle vertex index arrays for the uniform right-triangle mesh.

    Every cell is split along the lower-left to upper-right diagonal; node
    (i, j) on the full grid (boundary included) has index j*(inv+1) + i.
    """
    stride = inv + 1
    ix, iy = np.meshgrid(np.arange(inv), np.arange(inv), indexing="ij")
    base = (iy * stride + ix).ravel()
    lower = np.stack([base, base + 1, base + stride + 1], axis=1)
    upper = np.stack([base, base + stride + 1, base + stride], axis=1)
    return lower, upper


# element matrices on the two triangle orientations (legs h, area h^2/2);
# stiffness is h-independent, mass scales with h^2
_K_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
_K_UPPER = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
_M_UNIT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0


def fem_p1(h):
    """P1 stiffness and consistent mass matrices on interior nodes.

    Regular right-triangle mesh on [0,1]^2, all squares split along the same
    diagonal.  Returns (stiffness, mass) as CSR, both SPD.
    """
    inv = _as_inverse_width(h)
    stride = inv + 1
    lower, upper = _p1_grids(inv)

    def assemble(elem_lower, elem_upper):
        rows, cols, vals = [], [], []
        for tri, elem in ((lower, elem_lower), (upper, elem_upper)):
            for a in range(3):
                for b in range(3):
                    rows.append(tri[:, a])
                    cols.append(tri[:, b])
                    vals.append(np.full(len(tri), elem[a, b]))
        full = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(stride * stride, stride * stride),
        )
        ii, jj = np.meshgrid(np.arange(1, inv), np.arange(1, inv), indexing="ij")
        interior = (jj * stride + ii).ravel(order="F")
        sub = full[np.ix_(interior, interior)].tocsr()
        sub.sort_indices()
        return sub

    stiffness = assemble(_K_LOWER, _K_UPPER)
    mass = assemble(_M_UNIT * h**2, _M_UNIT * h**2)
    return stiffness, mass


def interior_coords(h):
    """Coordinates of the interior grid nodes in the assembly ordering."""
    inv = _as_inverse_width(h)
    ii, jj = np.meshgrid(np.arange(1, inv), np.arange(1, inv), indexing="ij")
    ii = ii.ravel(order="F")
    jj = jj.ravel(order="F")
    return np.column_stack([ii * h, jj * h]), np.column_stack([ii, jj])


@dataclass
class MeshHierarchy:
    fine_h: float
    coarse_h: float
    overlap_ratio: float
    fine_nodes: np.ndarray  # interior node coordinates
    prolongation: scipy.sparse.csr_matrix  # fine interior x coarse interior
    subdomains: list = field(default_factory=list)

    @property
    def subdomain_count(self):
        return len(self.subdomains)


def mesh_hierarchy(H, h, overlap_ratio):
    """Coarse/fine hierarchy with overlapping subdomains on the unit square.

    The (1/H)^2 nonoverlapping cells are each enlarged by a band of width
    delta = overlap_ratio * H, clipped to the domain and aligned with the
    fine mesh; P1 interpolation on the coarse triangulation provides the
    prolongation onto fine interior nodes.
    """
    inv_h = _as_inverse_width(h)
    inv_H = _as_inverse_width(H, minimum=1)
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

    coords, ij = interior_coords(h)
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

    # Node set of a subdomain: fine nodes strictly inside the enlarged open
    # box, i.e. nodes whose basis functions are supported in its closure.
    subdomains = []
    for cj in range(inv_H):
        for ci in range(inv_H):
            lo_i = ci * mult - delta_units + 1
            hi_i = (ci + 1) * mult + delta_units - 1
            lo_j = cj * mult - delta_units + 1
            hi_j = (cj + 1) * mult + delta_units - 1
            mask = (
                (ij[:, 0] >= lo_i) & (ij[:, 0] <= hi_i) & (ij[:, 1] >= lo_j) & (ij[:, 1] <= hi_j)
            )
            subdomains.append(np.nonzero(mask)[0])

    covered = np.zeros(nf * nf, dtype=bool)
    for idx in subdomains:
        covered[idx] = True
    if not covered.all():
        raise MisalignedOverlap("subdomains do not cover all fine nodes")

    return MeshHierarchy(
        fine_h=1.0 / inv_h,
        coarse_h=1.0 / inv_H,
        overlap_ratio=overlap_ratio,
        fine_nodes=coords,
        prolongation=prol,
        subdomains=subdomains,
    )


def laplace_fem(h):
    """Generalized Laplace eigenvalue problem (stiffness, mass) in reduced form."""
    k, m = fem_p1(h)
    problem = generalized_reduce(k, m)
    problem.label = f"laplace-fem:h=1/{_as_inverse_width(h)}"
    problem.meta.update({"h": h, "stiffness": k, "mass": m})
    return problem


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


@dataclass
class KernelSpec:
    kind: str  # "laplacian" | "poly-complex"
    n: int
    d: int = None
    seed: int = 0
    tau: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidMeshWidth("kernel matrices need n >= 2")
        if self.d is None:
            self.d = self.n
        if self.kind not in ("laplacian", "poly-complex"):
            raise InvalidMeshWidth(f"unknown kernel kind {self.kind!r}")


def _pairwise_sq(points):
    g = points @ points.T
    sq = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    return np.maximum(sq, 0.0)


def kernel_matrix(spec, points=None):
    """Dense SPD kernel matrix from seeded Gaussian points.

    laplacian:    A_ij = exp(-||x_i - x_j|| / 2)
    poly-complex: A = K_x + K_y + Im(K(x_i, y_j) - K(y_i, x_j)) with
                  K(x, y) = (x^T y + 1)^3; for real points the imaginary term
                  is identically zero (it is still evaluated and recorded).

    A diagonal shift tau * I is added; positive definiteness is verified by a
    binary64 Cholesky, whose factor is kept as the problem's solver.
    """
    rng = Rng(spec.seed)
    meta = {"kind": spec.kind, "n": spec.n, "d": spec.d, "seed": spec.seed, "tau": spec.tau}
    if spec.kind == "laplacian":
        x = rng.normal(spec.n * spec.d).reshape(spec.n, spec.d) if points is None else points
        a = np.exp(-np.sqrt(_pairwise_sq(x)) / 2.0)
        np.fill_diagonal(a, 1.0)
    else:
        x = rng.normal(spec.n * spec.d).reshape(spec.n, spec.d) if points is None else points[0]
        y = rng.normal(spec.n * spec.d).reshape(spec.n, spec.d) if points is None else points[1]
        kx = (x @ x.T + 1.0) ** 3
        ky = (y @ y.T + 1.0) ** 3
        cross = ((x @ y.T + 1.0) ** 3 - (y @ x.T + 1.0) ** 3).astype(np.complex128)
        imag_term = cross.imag
        meta["imag_term_max"] = float(np.max(np.abs(imag_term)))
        a = kx + ky + imag_term
    a = (a + a.T) / 2.0
    if spec.tau:
        a = a + spec.tau * np.eye(spec.n)
    try:
        factor = cholesky(a, "binary64")
    except NotSpd as exc:
        raise NotSpd(exc.pivot, "kernel matrix is not SPD; increase tau") from exc
    return EigenProblem(
        dim=spec.n,
        apply_a=lambda v: a @ v,
        matrix=a,
        solve_a=lambda v: chol_solve(factor, v),
        label=f"kernel-{'laplace' if spec.kind == 'laplacian' else 'poly'}:n={spec.n},seed={spec.seed}",
        meta=meta,
    )


# ---------------------------------------------------------------------------
# generalized pencil reduction and reference spectra
# ---------------------------------------------------------------------------


def generalized_reduce(a, m):
    """Reduce the SPD pencil (A, M) to standard form with M = R^T R.

    The reduced operator is R^{-T} A R^{-1}; its eigenvalues are the pencil
    eigenvalues and eigenvectors map as w = R u.  Preconditioners for A are
    lifted with wrap_precond so that Bhat^{-1} v = R (B^{-1} (R^T v)).
    Every apply goes through the banded products and solves of SymFactor;
    raises NotSpd when M is not SPD or its size differs from A's.
    """
    n = a.shape[0]
    if m.shape[0] != n:
        raise NotSpd(-1, "pencil matrices differ in size")
    r = SymFactor(m)
    solve_a = make_solver(a)

    def apply_hat(v):
        return r.solve_t(a @ r.solve(v))

    def solve_hat(v):
        return r.mult(solve_a(r.mult_t(v)))

    return EigenProblem(
        dim=n,
        apply_a=apply_hat,
        solve_a=solve_hat,
        label="generalized",
        r_factor=r,
        meta={"base_matrix": a, "mass": m},
    )


def reference_eigs(problem):
    """High-accuracy (lambda1, lambda2, lambdan, u*) for an EigenProblem.

    lambda1, lambda2 and u* come from a reorthogonalized Lanczos on A^{-1}
    (top of the spectrum of the inverse is well separated) at tol 1e-12,
    refined by inverse iteration.  lambdan comes from a Lanczos on A at tol
    1e-11 that watches only the top Ritz value; it needs no vector, so it
    runs the three-term recurrence with no stored basis.  Each Lanczos runs
    at most min(n, 600) steps from a start drawn from Rng(777) (its spawn(1)
    for lambdan).  Raises DegenerateSmallestEigenvalue when the start spans
    an invariant subspace of one eigenpair or lambda2 - lambda1 falls below
    resolution.
    """
    n = problem.dim
    rng = Rng(777)
    if n == 1:
        raise DegenerateSmallestEigenvalue("dimension 1: lambda2 does not exist")
    solve = problem.solver()
    budget = min(n, 600)
    vals, vecs = lanczos_top_pairs(solve, n, k=2, tol=1e-12, maxit=budget, rng=rng)
    if len(vals) < 2:
        raise DegenerateSmallestEigenvalue("the start spans an invariant subspace of one eigenpair")
    u = vecs[:, 0]
    lam1 = rayleigh(u, problem.apply_a)
    for _ in range(100):
        res = np.linalg.norm(problem.apply_a(u) - lam1 * u)
        if res <= 1e-10 * abs(lam1):
            break
        u = solve(u)
        u /= np.linalg.norm(u)
        lam1 = rayleigh(u, problem.apply_a)
    else:
        raise NoConvergence("inverse iteration failed to reach the residual target")
    # deflated inverse iteration for lambda2
    v = vecs[:, 1] - float(u @ vecs[:, 1]) * u
    v /= np.linalg.norm(v)
    lam2 = rayleigh(v, problem.apply_a)
    for _ in range(200):
        av = problem.apply_a(v)
        res = av - lam2 * v
        res -= float(u @ res) * u
        if np.linalg.norm(res) <= 1e-11 * abs(lam2):
            break
        v = solve(v)
        v -= float(u @ v) * u
        v /= np.linalg.norm(v)
        lam2 = rayleigh(v, problem.apply_a)
    lamn = _lanczos_top_value(problem.apply_a, n, tol=1e-11, maxit=budget, rng=rng.spawn(1))
    if lam2 - lam1 <= 1e-9 * lamn:
        raise DegenerateSmallestEigenvalue(
            f"lambda2 - lambda1 = {lam2 - lam1:.3e} <= 1e-9 * lambdan"
        )
    flip = np.argmax(np.abs(u))
    if u[flip] < 0:
        u = -u
    return ReferenceSpectrum(lam1=float(lam1), lam2=float(lam2), lamn=float(lamn), u_star=u)
