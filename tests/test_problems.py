import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import precondeig as pe
from precondeig import problems
from precondeig.cli import build_problem, parse_dyadic
from precondeig.errors import (
    DegenerateSmallestEigenvalue,
    DimensionMismatch,
    InvalidMeshWidth,
    MisalignedOverlap,
    NoConvergence,
    NotSpd,
    PrecondEigError,
)
from precondeig.diagnostics import random_spd_pair
from precondeig.linalg import pd_tridiagonal_eigh
from precondeig.precond import HattedPreconditioner
from precondeig.problems import interior_coords
from tests import jacobi
from tests.conftest import box_nodes, dense_problem, dense_roots, fd_eigenvalue


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_single_interior_node():
    prob = pe.laplace_fd(1.0 / 2.0)
    assert prob.dim == 1
    assert np.array_equal(prob.matrix.toarray(), [[16.0]])
    # 16 = (8/h^2) sin^2(pi/4) = 4/h^2
    assert abs(fd_eigenvalue(0.5, 1, 1) - 16.0) <= 1e-12


def test_fd_lambda1_analytic_h4():
    prob = pe.laplace_fd(1.0 / 4.0)
    w, _ = jacobi.dense_sym_eig(prob.matrix.toarray())
    expected = 128.0 * math.sin(math.pi / 8.0) ** 2
    assert abs(w[0] - expected) <= 1e-10
    assert abs(fd_eigenvalue(0.25, 1, 1) - expected) <= 1e-12


def test_fd_eigenvector_is_sine_product():
    h = 1.0 / 16.0
    prob = pe.laplace_fd(h)
    ref = prob.reference()
    coords = interior_coords(h) * h
    sine = np.sin(math.pi * coords[:, 0]) * np.sin(math.pi * coords[:, 1])
    sine /= np.linalg.norm(sine)
    if float(sine @ ref.u_star) < 0:
        sine = -sine
    assert pe.sphere_dist(sine, ref.u_star) <= 1e-8


def test_fd_rejects_bad_widths():
    with pytest.raises(InvalidMeshWidth):
        pe.laplace_fd(0.3)
    with pytest.raises(InvalidMeshWidth):
        pe.laplace_fd(1.0)


@pytest.mark.parametrize("build", [pe.laplace_fd, pe.laplace_fem])
@pytest.mark.parametrize("k", [40, 1000])
def test_grid_rejects_widths_numpy_cannot_index(build, k):
    # refused before any array is built: (1/h - 1)^2 rows of 7 entries are
    # more than numpy can index (at h = 2^-40 interior_coords alone would ask
    # for 8 TiB)
    with pytest.raises(InvalidMeshWidth, match=f"got h={2.0**-k}"):
        build(2.0**-k)


def test_problem_without_matrix_or_solver_has_no_solver():
    # a misuse, not an indefinite matrix, which is what a caller reads NotSpd as
    with pytest.raises(PrecondEigError, match="no matrix and no solver") as err:
        pe.EigenProblem(dim=3, apply_a=np.copy).solver()
    assert not isinstance(err.value, NotSpd)


def test_dense_refuses_more_than_5000_rows_before_applying_a():
    def apply_a(v):
        raise AssertionError("applied A")

    with pytest.raises(DimensionMismatch, match="refusing to assemble a dense 5001x5001 operator"):
        pe.EigenProblem(dim=5001, apply_a=apply_a).dense()


# ---------------------------------------------------------------------------
# P1 finite elements
# ---------------------------------------------------------------------------


def test_fem_h2_hand_assembled():
    k, m = pe.fem_p1(1.0 / 2.0)
    assert np.array_equal(k.toarray(), [[4.0]])
    # 6 triangles x h^2/12 each; summation rounds in the last ulp
    assert abs(m.toarray()[0, 0] - 0.125) <= 2e-17


def test_fem_stencils_at_an_interior_node():
    h = 1.0 / 8.0
    k, m = pe.fem_p1(h)
    ij = interior_coords(h)
    node = int(np.nonzero((ij[:, 0] == 4) & (ij[:, 1] == 4))[0][0])

    def row(mat):
        span = slice(mat.indptr[node], mat.indptr[node + 1])
        return {tuple(d): w for d, w in zip((ij[mat.indices[span]] - 4).tolist(), mat.data[span])}

    c0, c1 = 2.0 / 24.0 * h**2, 1.0 / 24.0 * h**2
    axis = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    split = [(1, 1), (-1, -1)]
    assert row(k) == {(0, 0): 4.0, **{d: -1.0 for d in axis}, **{d: 0.0 for d in split}}
    assert row(m) == {(0, 0): c0 + c0 + c0 + c0 + c0 + c0, **{d: c1 + c1 for d in axis + split}}


@pytest.mark.parametrize("inv", [2, 3, 8])
def test_fem_stiffness_and_mass_share_one_pattern(inv):
    k, m = pe.fem_p1(1.0 / inv)
    assert np.array_equal(k.indptr, m.indptr) and np.array_equal(k.indices, m.indices)


@pytest.mark.parametrize("inv", [4, 8])
def test_fd_times_h2_is_fem_stiffness_without_its_stored_zeros(inv):
    # the FD matrix stores no zeros at any width
    h = 1.0 / inv
    k = pe.fem_p1(h)[0].copy()
    k.eliminate_zeros()
    a = pe.laplace_fd(h).matrix * h**2
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(k, name)), name


def test_fem_interior_row_sums_vanish():
    k, _ = pe.fem_p1(1.0 / 8.0)
    rows = np.asarray(k.sum(axis=1)).ravel()
    ij = interior_coords(1.0 / 8.0)
    away = np.all((ij > 1) & (ij < 7), axis=1)
    assert np.abs(rows[away]).max() == 0.0


def test_fem_pencil_lambda1_near_continuum():
    prob = pe.laplace_fem(1.0 / 16.0)
    ref = prob.reference()
    assert abs(ref.lam1 - 2.0 * math.pi**2) <= 0.02 * 2.0 * math.pi**2


def test_fd_fem_h2_error_decay():
    # both discretizations converge to 2 pi^2 at rate O(h^2)
    target = 2.0 * math.pi**2
    for build in (pe.laplace_fd, pe.laplace_fem):
        e_coarse = abs(build(1.0 / 8.0).reference().lam1 - target)
        e_fine = abs(build(1.0 / 16.0).reference().lam1 - target)
        ratio = e_coarse / e_fine
        assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5


# ---------------------------------------------------------------------------
# mesh hierarchy
# ---------------------------------------------------------------------------


def test_hierarchy_smallest_case_explicit():
    _, boxes = pe.mesh_hierarchy(1.0 / 2.0, 1.0 / 4.0, 0.5)
    assert len(boxes) == 4
    ij = interior_coords(1.0 / 4.0)

    def nodes(pairs):
        return sorted(
            int(np.nonzero((ij[:, 0] == i) & (ij[:, 1] == j))[0][0]) for i, j in pairs
        )

    # delta = H/2 = one fine cell; nodes strictly inside each enlarged box
    expected = [
        nodes([(1, 1), (2, 1), (1, 2), (2, 2)]),
        nodes([(2, 1), (3, 1), (2, 2), (3, 2)]),
        nodes([(1, 2), (2, 2), (1, 3), (2, 3)]),
        nodes([(2, 2), (3, 2), (2, 3), (3, 3)]),
    ]
    got = [sorted(int(i) for i in idx) for idx in box_nodes(1.0 / 4.0, boxes)]
    assert got == expected


def test_hierarchy_example_16_subdomains():
    _, boxes = pe.mesh_hierarchy(2.0**-2, 2.0**-4, 0.5)
    assert len(boxes) == 16


@pytest.mark.parametrize("H,h,ratio", [(0.5, 0.25, 0.5), (0.25, 0.0625, 0.5), (0.25, 0.125, 1.0)])
def test_hierarchy_coverage(H, h, ratio):
    _, boxes = pe.mesh_hierarchy(H, h, ratio)
    n = round(1.0 / h) - 1
    covered = np.zeros(n * n, dtype=bool)
    for idx in box_nodes(h, boxes):
        covered[idx] = True
    assert covered.all()


def test_hierarchy_prolongation_partition_of_unity():
    prolongation, _ = pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 16.0, 0.5)
    rows = np.asarray(prolongation.sum(axis=1)).ravel()
    coords = interior_coords(1.0 / 16.0) / 16.0
    inside = np.all((coords >= 0.25 - 1e-12) & (coords <= 0.75 + 1e-12), axis=1)
    assert np.abs(rows[inside] - 1.0).max() <= 1e-12


def loop_prolongation(big_h, h):
    """Reference: the per-node P1 interpolation loop, one triangle at a time."""
    inv_h, inv_big_h = round(1.0 / h), round(1.0 / big_h)
    mult = inv_h // inv_big_h
    nf, n_coarse = inv_h - 1, inv_big_h - 1
    ij = interior_coords(h)
    rows, cols, vals = [], [], []
    for node, (i, j) in enumerate(ij):
        ci, xi_u = divmod(int(i), mult)
        cj, eta_u = divmod(int(j), mult)
        if ci == inv_big_h:  # right/top boundary nodes of the coarse grid
            ci, xi_u = ci - 1, mult
        if cj == inv_big_h:
            cj, eta_u = cj - 1, mult
        xi = xi_u / mult
        eta = eta_u / mult
        if eta <= xi:
            weights = [((ci, cj), 1.0 - xi), ((ci + 1, cj), xi - eta), ((ci + 1, cj + 1), eta)]
        else:
            weights = [((ci, cj), 1.0 - eta), ((ci, cj + 1), eta - xi), ((ci + 1, cj + 1), xi)]
        for (big_i, big_j), w in weights:
            if w != 0.0 and 1 <= big_i <= n_coarse and 1 <= big_j <= n_coarse:
                rows.append(node)
                cols.append((big_j - 1) * n_coarse + (big_i - 1))
                vals.append(w)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(nf * nf, n_coarse * n_coarse))


@pytest.mark.parametrize("h", [2.0**-4, 2.0**-5, 2.0**-6])
@pytest.mark.parametrize("big_h", [2.0**-1, 2.0**-2, 2.0**-3])
def test_hierarchy_prolongation_matches_per_node_loop(h, big_h):
    got, _ = pe.mesh_hierarchy(big_h, h, 0.5)
    ref = loop_prolongation(big_h, h)
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("inv_h, inv_big_h", [(6, 2), (15, 5), (18, 3), (21, 7)])
def test_hierarchy_prolongation_non_dyadic_within_an_ulp_of_per_node_loop(inv_h, inv_big_h):
    # with H/h not a power of two the loop's 1 - xi rounds twice and the
    # closed form (H/h - k)/(H/h) once; weights lie in [0, 1]
    got, _ = pe.mesh_hierarchy(1.0 / inv_big_h, 1.0 / inv_h, 1.0)
    ref = loop_prolongation(1.0 / inv_big_h, 1.0 / inv_h)
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.abs(got.data - ref.data).max() <= np.finfo(np.float64).eps


def test_hierarchy_misaligned_overlap():
    with pytest.raises(MisalignedOverlap):
        pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 8.0, 0.3)


def test_hierarchy_refuses_a_band_below_one_fine_cell():
    # 1e-13 * H/h rounds to 0 fine cells within the alignment tolerance
    with pytest.raises(
        MisalignedOverlap, match=r"overlap 1e-13 gives a band narrower than one fine cell"
    ):
        pe.mesh_hierarchy(1.0 / 2.0, 1.0 / 8.0, 1e-13)


def test_hierarchy_requires_refinement():
    with pytest.raises(InvalidMeshWidth):
        pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 4.0, 0.5)


def test_hierarchy_names_the_coarse_width_it_refuses():
    with pytest.raises(InvalidMeshWidth, match=r"1/H must be an integer >= 1, got H=0\.3"):
        pe.mesh_hierarchy(0.3, 0.125, 0.5)


def test_coarse_galerkin_equals_assembled():
    # nested P1 spaces: I_H^T K_h I_H reproduces the coarse stiffness exactly
    prolongation, _ = pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 16.0, 0.5)
    k, _ = pe.fem_p1(1.0 / 16.0)
    k_coarse, _ = pe.fem_p1(1.0 / 4.0)
    galerkin = (prolongation.T @ k @ prolongation).toarray()
    assert np.abs(galerkin - k_coarse.toarray()).max() <= 1e-12


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


def test_kernel_diagonal_is_ones():
    prob = pe.kernel_matrix(kind="laplacian", n=16, d=16, seed=3, tau=0.0)
    assert np.array_equal(np.diag(prob.matrix), np.ones(16))


def test_kernel_tau_shifts_the_diagonal_and_a_non_spd_shift_raises():
    spec = dict(kind="laplacian", n=6, d=4, seed=0, tau=0.0)
    with pytest.raises(NotSpd):
        pe.kernel_matrix(kind="laplacian", n=6, d=4, seed=0, tau=-1.5)
    base = pe.kernel_matrix(**spec).matrix
    prob = pe.kernel_matrix(kind="laplacian", n=6, d=4, seed=0, tau=0.1)
    assert np.array_equal(prob.matrix, base + 0.1 * np.eye(6))


def test_kernel_symmetric_exactly():
    prob = pe.kernel_matrix(kind="laplacian", n=32, d=32, seed=5, tau=0.0)
    assert np.array_equal(prob.matrix, prob.matrix.T)


def test_poly_kernel_matches_entrywise_oracle():
    spec = dict(kind="poly-complex", n=8, d=8, seed=11, tau=0.0)
    prob = pe.kernel_matrix(**spec)
    # rebuild the points exactly as the generator draws them
    rng = pe.Rng(11)
    x = rng.normal(8 * 8).reshape(8, 8)
    y = rng.normal(8 * 8).reshape(8, 8)
    expected = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            expected[i, j] = (x[i] @ x[j] + 1.0) ** 3 + (y[i] @ y[j] + 1.0) ** 3
    assert np.abs(prob.matrix - (expected + expected.T) / 2.0).max() <= 1e-8 * np.abs(expected).max()


def test_kernel_rejects_tiny_n():
    with pytest.raises(InvalidMeshWidth):
        pe.kernel_matrix(kind="laplacian", n=1, d=1, seed=0, tau=0.0)


@pytest.mark.parametrize("n, d", [(2**31, 1), (10**30, 10**30), (2**20, 2**40)])
def test_kernel_rejects_arrays_numpy_cannot_index(n, d):
    # refused before any array is drawn: each case asks for an array of at
    # least 2^60 binary64 entries, 2^63 bytes
    with pytest.raises(InvalidMeshWidth, match=f"got n={n}, d={d}"):
        pe.kernel_matrix(kind="laplacian", n=n, d=d, seed=0, tau=0.0)


@pytest.mark.parametrize("d", [0, -1])
def test_kernel_rejects_point_dimension_below_one(d):
    with pytest.raises(InvalidMeshWidth, match=f"d={d}"):
        pe.kernel_matrix(kind="laplacian", n=8, d=d, seed=0, tau=0.0)


# ---------------------------------------------------------------------------
# generalized pencil reduction
# ---------------------------------------------------------------------------


def test_reduce_identity_mass_is_noop():
    a = np.diag([1.0, 2.0, 4.0])
    prob = pe.generalized_reduce(a, np.eye(3))
    v = pe.Rng(1).normal(3)
    assert np.linalg.norm(prob.apply_a(v) - a @ v) <= 1e-14


def test_reduce_diagonal_pencil():
    prob = pe.generalized_reduce(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]))
    ref = prob.reference()
    assert abs(ref.lam1 - 2.0) <= 1e-11
    assert abs(ref.lam2 - 3.0) <= 1e-11


def test_reduce_fem_matches_dense_pencil_oracle():
    k, m = pe.fem_p1(1.0 / 8.0)
    prob = pe.generalized_reduce(k, m)
    ref = prob.reference()
    # dense oracle: R^{-T} K R^{-1} with dense Cholesky of M, Jacobi eigensolver
    f = pe.cholesky(m.toarray())
    import scipy.linalg as sla

    tmp = sla.solve_triangular(f.l, k.toarray(), lower=True)
    c = sla.solve_triangular(f.l, tmp.T, lower=True).T
    w, _ = jacobi.dense_sym_eig((c + c.T) / 2.0)
    # dense() assembles with one apply_a on the identity block, bit for bit
    # the column-by-column assembly
    cols = np.column_stack([prob.apply_a(e) for e in np.eye(prob.dim)])
    assert np.array_equal(prob.dense(), (cols + cols.T) / 2.0)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * w[0]
    assert abs(ref.lam2 - w[1]) <= 1e-9 * w[1]
    assert abs(ref.lamn - w[-1]) <= 1e-9 * w[-1]


def test_reduce_rejects_mismatched_sizes():
    with pytest.raises(DimensionMismatch, match="pencil matrices differ in size"):
        pe.generalized_reduce(np.eye(3), np.eye(4))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_reduce_rejects_indefinite_mass(sparse):
    m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalues -1, 1, 3
    with pytest.raises(NotSpd):
        pe.generalized_reduce(np.eye(3), scipy.sparse.csr_matrix(m) if sparse else m)


def test_reduce_factors_the_stiffness_in_the_problems_solver():
    # generalized_reduce factors M only; K is factored, and its definiteness
    # checked, on the first solver() call, whose solve inverts apply_a
    k, m = pe.fem_p1(2.0**-4)
    prob = pe.generalized_reduce(k, m)
    v = pe.Rng(3).normal(prob.dim)
    assert np.linalg.norm(prob.solver()(prob.apply_a(v)) - v) <= 1e-12 * np.linalg.norm(v)
    shifted = pe.generalized_reduce(k - 30.0 * m, m)
    with pytest.raises(NotSpd, match="not positive definite"):
        shifted.solver()


@pytest.mark.parametrize("e", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["laplace-fd", "laplace-fem"])
def test_grid_solver_matches_a_dense_solve(kind, e, monkeypatch):
    # a grid stiffness is solved by fast diagonalization, with no SuperLU
    # factor: against a dense Cholesky solve of K, R K^{-1} R^T under a mass
    monkeypatch.setattr(problems, "make_solver", no_make_solver)
    prob = build_problem(f"{kind}:h=2^-{e}")
    k = prob.matrix if prob.pencil is None else prob.pencil[0]
    factor = scipy.linalg.cho_factor(k.toarray())
    v = pe.Rng(6).normal(prob.dim)
    if prob.pencil is None:
        ref = scipy.linalg.cho_solve(factor, v)
    else:
        r = prob.pencil[2]
        ref = r.mult(scipy.linalg.cho_solve(factor, r.mult_t(v)))
    x = prob.solver()(v)
    assert np.linalg.norm(prob.apply_a(x) - v) <= 1e-13 * np.linalg.norm(v)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    # a block is solved as one batch, each column as it is alone
    block = prob.solver()(np.column_stack([v, 3.0 * v]))
    assert np.linalg.norm(block - np.column_stack([x, 3.0 * x])) <= 1e-14 * np.linalg.norm(block)


def no_make_solver(a):
    raise AssertionError("a grid problem made a SuperLU or Cholesky factor")


def test_grid_solver_takes_the_small_eigenvalues_to_relative_accuracy():
    # the 1-D Laplacian tridiag(-1, 2, -1) of 63 nodes has eigenvalues
    # 4 sin^2(k pi / 128); eigh_tridiagonal's smallest is 5.6e-13 off
    # relative, which left B = A of an exact preconditioner 1e-13 away from
    # spectral equivalence at h=2^-6
    n = 63
    w, z = pd_tridiagonal_eigh(np.full(n, 2.0), np.full(n - 1, -1.0))
    exact = 4.0 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    assert np.max(np.abs(np.sort(w) - exact) / exact) <= 1e-13
    assert np.abs(z.T @ z - np.eye(n)).max() <= 1e-13
    with pytest.raises(NotSpd, match="not positive definite"):
        pd_tridiagonal_eigh(np.array([1.0, 1.0]), np.array([-2.0]))


def test_hatted_distortion_matches_msqrt_oracle():
    # Cholesky-based reduction preserves cos(phi): R M^{-1/2} is orthogonal
    n = 12
    g = pe.Rng(60).normal(n * n).reshape(n, n)
    a = g @ g.T / n + np.eye(n)
    g2 = pe.Rng(61).normal(n * n).reshape(n, n)
    m = g2 @ g2.T / (4 * n) + np.eye(n)
    g3 = pe.Rng(62).normal(n * n).reshape(n, n)
    b = g3 @ g3.T / n + np.eye(n)

    prob = pe.generalized_reduce(a, m)
    wrapped = HattedPreconditioner(pe.make_spd(b), prob.pencil[2])
    ctx = pe.build_rate_context(prob, wrapped)

    # oracle: explicit M^{1/2} reduction, dense angle formula
    m_sqrt, m_inv_sqrt, _ = dense_roots(m)
    a_hat = m_inv_sqrt @ a @ m_inv_sqrt
    b_hat = m_inv_sqrt @ b @ m_inv_sqrt
    wa, va = jacobi.dense_sym_eig((a_hat + a_hat.T) / 2.0)
    u = va[:, 0]
    nb = math.sqrt(u @ b_hat @ u)
    nbi = math.sqrt(u @ np.linalg.solve(b_hat, u))
    sin_phi = 1.0 / (nb * nbi)
    cos_phi = math.sqrt(max(0.0, 1.0 - sin_phi**2))
    assert abs(ctx.cos_phi - cos_phi) <= 1e-9


# ---------------------------------------------------------------------------
# reference eigensolver
# ---------------------------------------------------------------------------


def test_reference_diag():
    prob = dense_problem(np.diag([1.0, 2.0, 4.0]))
    ref = prob.reference()
    assert abs(ref.lam1 - 1.0) <= 1e-12
    assert abs(ref.lam2 - 2.0) <= 1e-12
    assert abs(ref.lamn - 4.0) <= 1e-12
    assert np.allclose(np.abs(ref.u_star), [1.0, 0.0, 0.0], atol=1e-10)


def test_reference_fd_analytic():
    h = 1.0 / 8.0
    prob = pe.laplace_fd(h)
    ref = prob.reference()
    assert abs(ref.lam1 - fd_eigenvalue(h, 1, 1)) <= 1e-10 * fd_eigenvalue(h, 1, 1)
    assert abs(ref.lam2 - fd_eigenvalue(h, 1, 2)) <= 1e-10 * fd_eigenvalue(h, 1, 2)
    assert abs(ref.lamn - fd_eigenvalue(h, 7, 7)) <= 1e-10 * fd_eigenvalue(h, 7, 7)
    r = prob.matrix @ ref.u_star - ref.lam1 * ref.u_star
    assert np.linalg.norm(r) <= 1e-10 * ref.lam1


def test_reference_kernel_matches_jacobi():
    prob = pe.kernel_matrix(kind="laplacian", n=128, d=128, seed=7, tau=0.0)
    ref = prob.reference()
    w, _ = jacobi.dense_sym_eig(prob.matrix)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * abs(w[0])
    assert abs(ref.lam2 - w[1]) <= 1e-9 * abs(w[1])
    assert abs(ref.lamn - w[-1]) <= 1e-9 * abs(w[-1])


@pytest.mark.parametrize("h", ["2^-3", "2^-4", "2^-5"], ids=lambda h: f"h={h}")
def test_reference_fem_matches_scipy_pencil(h):
    # lambdan comes from two three-term Lanczos runs with no stored basis,
    # an estimate on A and the shift-inverted run: 20 steps at h=2^-4 and 30
    # at h=2^-5 after the estimate
    prob = build_problem(f"laplace-fem:h={h}")
    k, m = pe.fem_p1(parse_dyadic(h))
    w = scipy.linalg.eigh(k.toarray(), m.toarray(), eigvals_only=True)
    ref = pe.reference_eigs(prob)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * w[0]
    assert abs(ref.lam2 - w[1]) <= 1e-10 * w[1]
    assert abs(ref.lamn - w[-1]) <= 1e-12 * w[-1]


@pytest.mark.parametrize("n", [6, 12, 20])
def test_reference_lamn_matches_eigvalsh_on_random_pairs(n):
    # at these sizes the three-term run for lambdan can run to k + 1 == dim,
    # where its Lanczos vectors need not be orthogonal any more
    for seed in range(20):
        a, _ = random_spd_pair(seed, n)
        lamn = dense_problem(a).reference().lamn
        top = scipy.linalg.eigvalsh(a)[-1]
        assert abs(lamn - top) <= 1e-13 * top, seed


class ShiftedRun:
    """Wraps problems' bindings of the Lanczos top-value run and of SymFactor
    for one _lanczos_lamn call on a pencil: tells the estimate on A from the
    shift-inverted run by its inner_map, counts the steps of each, the
    shifts refused by NotSpd and the solves and solve_ts of the shifted
    factor, and scales the estimate by `scale`."""

    def __init__(self, monkeypatch, scale=1.0):
        self.estimate_steps = self.shifted_steps = self.refused = 0
        self.solves = Counter()
        top_value, symfactor = problems._lanczos_top_value, problems.SymFactor

        def run(apply_t, *args, inner_map=None, **kwargs):
            shifted = inner_map is not None

            def counted(v):
                if shifted:
                    self.shifted_steps += 1
                else:
                    self.estimate_steps += 1
                return apply_t(v)

            value = top_value(counted, *args, inner_map=inner_map, **kwargs)
            return value if shifted else scale * value

        def factor(*terms):
            try:
                f = symfactor(*terms)
            except NotSpd:
                self.refused += 1
                raise
            for op in ("solve", "solve_t"):
                setattr(f, op, self.counted(op, getattr(f, op)))
            return f

        monkeypatch.setattr(problems, "_lanczos_top_value", run)
        monkeypatch.setattr(problems, "SymFactor", factor)

    def counted(self, op, method):
        def call(v):
            self.solves[op] += 1
            return method(v)

        return call


def shifted_lamn(prob):
    return problems._lanczos_lamn(prob, pe.Rng(777).spawn(1))


def test_shifted_lamn_step_counts(monkeypatch):
    prob = build_problem("laplace-fem:h=2^-5")
    lamn = prob.reference().lamn
    run = ShiftedRun(monkeypatch)
    assert shifted_lamn(prob) == lamn
    assert (run.estimate_steps, run.shifted_steps, run.refused) == (25, 20, 0)
    # each shift-inverted step is one forward and one back substitution on
    # the shifted factor
    assert run.solves == {"solve_t": 20, "solve": 20}


@pytest.mark.parametrize("divisor, refused", [(1.1, 2), (2.0, 4)])
def test_shifted_lamn_raises_a_refused_shift(monkeypatch, divisor, refused):
    # theta / 2 needs 1 + 1e-2 4^k > 2, so k = 4; theta / 1.1 needs k = 2
    prob = build_problem("laplace-fem:h=2^-5")
    lamn = prob.reference().lamn
    run = ShiftedRun(monkeypatch, scale=1.0 / divisor)
    assert abs(shifted_lamn(prob) - lamn) <= 1e-12 * lamn
    assert run.refused == refused


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_shifted_lamn_gives_up_after_its_tries(monkeypatch, scale):
    # sigma <= 0 makes sigma M - K negative definite at every try
    prob = build_problem("laplace-fem:h=2^-4")
    run = ShiftedRun(monkeypatch, scale=scale)
    with pytest.raises(NoConvergence, match="lambdan"):
        shifted_lamn(prob)
    assert (run.refused, run.shifted_steps) == (problems._SHIFT_TRIES, 0)


def test_reference_lamn_run_holds_no_basis(monkeypatch):
    # the two lambdan runs at h=2^-5 take 25 + 20 steps, so a stored basis
    # would be 45 vectors; the shifted factor is one band of (bw + 1) n, and
    # the three-term recurrences, start draws and applies' temporaries peak
    # near 12 vectors beside it
    prob = build_problem("laplace-fem:h=2^-5")
    n, bw, lamn = prob.dim, prob.pencil[2].bw, prob.reference().lamn
    run = ShiftedRun(monkeypatch)
    tracemalloc.start()
    try:
        got = shifted_lamn(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.estimate_steps + run.shifted_steps > 40
    assert peak <= (bw + 1 + 16) * 8 * n
    assert got == lamn


def test_reference_degenerate_smallest():
    prob = dense_problem(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(DegenerateSmallestEigenvalue):
        prob.reference()


def matrix_free(diag):
    """Problem on diag(d) with no matrix: reference_eigs takes its Lanczos route."""
    d = np.asarray(diag, dtype=np.float64)
    return pe.EigenProblem(dim=len(d), apply_a=lambda v: d * v, solve_a=lambda v: v / d)


def no_lanczos(*args, **kwargs):
    raise AssertionError("the dense route ran a Lanczos")


@pytest.mark.parametrize("rotated", [False, True], ids=["diag", "rotated"])
def test_reference_dense_route_sees_a_repeated_lambda1(rotated, monkeypatch):
    # LAPACK resolves both copies of lambda1 = 1: on diag(1, 1, 2) lambda2 -
    # lambda1 is exactly 0, where the Lanczos route needs roundoff to see it
    a = np.diag([1.0, 1.0, 2.0])
    if rotated:
        q = np.linalg.qr(pe.Rng(3).normal(9).reshape(3, 3))[0]
        a = (q * np.diag(a)) @ q.T
        a = (a + a.T) / 2.0
    monkeypatch.setattr(problems, "lanczos_top_pairs", no_lanczos)
    match = "= 0.000e+00" if not rotated else "lambda2 - lambda1"
    with pytest.raises(DegenerateSmallestEigenvalue, match=re.escape(match)):
        pe.reference_eigs(dense_problem(a))


@pytest.mark.parametrize("seed", [4, 7, 9])
@pytest.mark.parametrize("n", [32, 128])
def test_reference_dense_route_agrees_with_lanczos_route(n, seed, monkeypatch):
    dense = build_problem(f"kernel-laplace:n={n},seed={seed}")
    twin = pe.EigenProblem(dim=n, apply_a=dense.apply_a, solve_a=dense.solver())
    ref = pe.reference_eigs(twin)
    monkeypatch.setattr(problems, "lanczos_top_pairs", no_lanczos)
    got = pe.reference_eigs(dense)
    for name in ("lam1", "lam2", "lamn"):
        x, y = getattr(got, name), getattr(ref, name)
        assert abs(x - y) <= 1e-12 * y, name
    # u* is fixed only to its residual over the gap (Davis-Kahan): at n=128
    # lambda2 - lambda1 is about 1e-4 lambda1, so both vectors are at
    # roundoff and still differ by about 1e-12
    a = dense.matrix
    res = sum(np.linalg.norm(a @ x.u_star - x.lam1 * x.u_star) for x in (got, ref))
    assert np.linalg.norm(got.u_star - ref.u_star) <= res / (ref.lam2 - ref.lam1)


def test_reference_lambda1_refinement_recovers_perturbed_start(monkeypatch):
    # the Lanczos Ritz vector of every production problem already meets the
    # lambda1 target; a start 1e-3 off u* makes the inverse iteration run
    # about 20 steps and return the unperturbed reference
    prob = build_problem("laplace-fem:h=2^-3")
    ref = problems.reference_eigs(prob)
    real = problems.lanczos_top_pairs
    direction = pe.Rng(5).normal(prob.dim)

    def perturbed(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vecs = vecs.copy()
        vecs[:, 0] += 1e-3 * direction / np.linalg.norm(direction)
        vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
        return vals, vecs

    monkeypatch.setattr(problems, "lanczos_top_pairs", perturbed)
    got = problems.reference_eigs(build_problem("laplace-fem:h=2^-3"))
    assert abs(got.lam1 - ref.lam1) <= 1e-13 * ref.lam1
    assert abs(got.lam2 - ref.lam2) <= 1e-12 * ref.lam2
    assert got.lamn == ref.lamn
    assert np.linalg.norm(got.u_star - ref.u_star) <= 1e-9


def test_reference_lambda1_iteration_raises_when_out_of_steps(monkeypatch):
    # lambda1 = 1 sits 1e-7 below lambda2, so inverse iteration started on
    # (e1 + e2)/sqrt(2) barely moves in 100 steps and misses its target; it
    # must not return that lambda1
    vecs = np.zeros((3, 2))
    vecs[0:2, 0] = math.sqrt(0.5)
    vecs[2, 1] = 1.0
    monkeypatch.setattr(problems, "lanczos_top_pairs", lambda *a, **k: (np.array([1.0, 0.2]), vecs))
    with pytest.raises(NoConvergence, match="lambda1"):
        pe.reference_eigs(matrix_free([1.0, 1.0 + 1e-7, 5.0]))


def test_reference_lambda2_iteration_raises_when_out_of_steps(monkeypatch):
    # lambda2 = 2 sits 1e-3 below lambda3, so inverse iteration started on
    # (e2 + e3)/sqrt(2) contracts by 2/2.001 a step and misses its target
    # within 200 steps; it must not return that lambda2
    vecs = np.zeros((4, 2))
    vecs[0, 0] = 1.0
    vecs[1:3, 1] = math.sqrt(0.5)
    monkeypatch.setattr(problems, "lanczos_top_pairs", lambda *a, **k: (np.array([1.0, 0.5]), vecs))
    with pytest.raises(NoConvergence):
        pe.reference_eigs(matrix_free([1.0, 2.0, 2.001, 10.0]))


def test_inverse_iteration_checks_a_start_on_target_with_one_a_apply():
    # the Lanczos pairs of the production references already meet their
    # targets, so a refinement that makes no solve costs one A apply
    d = np.array([1.0, 2.0, 5.0])
    calls = []

    def apply_a(v):
        calls.append("a")
        return d * v

    def solve(v):
        calls.append("solve")
        return v / d

    prob = pe.EigenProblem(dim=3, apply_a=apply_a, solve_a=solve)
    start = np.array([1.0, 0.0, 0.0])
    lam, v = problems._inverse_iteration(prob, solve, start, lambda x: x, 1e-10, 100, "lambda1")
    assert (lam, calls) == (1.0, ["a"])
    assert np.array_equal(v, start)


def test_inverse_iteration_returns_an_iterate_that_meets_its_target_after_the_last_solve():
    # a run that meets its target at the iterate of its last allowed solve
    # returns it; one solve fewer raises
    prob = matrix_free([1.0, 2.0, 5.0])
    solves = []

    def solve(v):
        solves.append(v)
        return prob.solver()(v)

    def run(steps):
        start = np.ones(3) / math.sqrt(3.0)
        return problems._inverse_iteration(prob, solve, start, lambda x: x, 1e-10, steps, "lambda1")

    lam, v = run(100)
    k = len(solves)
    assert k > 1
    got = run(k)
    assert got[0] == lam and np.array_equal(got[1], v)
    assert len(solves) == 2 * k
    with pytest.raises(NoConvergence, match="lambda1"):
        run(k - 1)


def test_reference_dimension_one():
    prob = dense_problem(np.array([[3.0]]))
    with pytest.raises(DegenerateSmallestEigenvalue):
        prob.reference()
