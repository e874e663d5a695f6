import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import precondeig as pe
from precondeig.cli import build_problem
from precondeig.errors import (
    DegenerateSmallestEigenvalue,
    InvalidMeshWidth,
    MisalignedOverlap,
    NotSpd,
)
from precondeig.diagnostics import random_spd_pair
from precondeig.linalg import _lanczos_top_value
from precondeig.problems import interior_coords
from tests.conftest import dense_problem, dense_roots, fd_eigenvalue


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
    w, _ = pe.dense_sym_eig(prob.matrix.toarray())
    expected = 128.0 * math.sin(math.pi / 8.0) ** 2
    assert abs(w[0] - expected) <= 1e-10
    assert abs(fd_eigenvalue(0.25, 1, 1) - expected) <= 1e-12


def test_fd_eigenvector_is_sine_product():
    h = 1.0 / 16.0
    prob = pe.laplace_fd(h)
    ref = prob.reference()
    coords, _ = interior_coords(h)
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


# ---------------------------------------------------------------------------
# P1 finite elements
# ---------------------------------------------------------------------------


def test_fem_h2_hand_assembled():
    k, m = pe.fem_p1(1.0 / 2.0)
    assert np.array_equal(k.toarray(), [[4.0]])
    # 6 triangles x h^2/12 each; summation rounds in the last ulp
    assert abs(m.toarray()[0, 0] - 0.125) <= 2e-17


def test_fem_interior_row_sums_vanish():
    k, _ = pe.fem_p1(1.0 / 8.0)
    rows = np.asarray(k.sum(axis=1)).ravel()
    _, ij = interior_coords(1.0 / 8.0)
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
    hier = pe.mesh_hierarchy(1.0 / 2.0, 1.0 / 4.0, 0.5)
    assert hier.subdomain_count == 4
    _, ij = interior_coords(1.0 / 4.0)

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
    got = [sorted(int(i) for i in idx) for idx in hier.subdomains]
    assert got == expected


def test_hierarchy_example_16_subdomains():
    hier = pe.mesh_hierarchy(2.0**-2, 2.0**-4, 0.5)
    assert hier.subdomain_count == 16


@pytest.mark.parametrize("H,h,ratio", [(0.5, 0.25, 0.5), (0.25, 0.0625, 0.5), (0.25, 0.125, 1.0)])
def test_hierarchy_coverage(H, h, ratio):
    hier = pe.mesh_hierarchy(H, h, ratio)
    n = round(1.0 / h) - 1
    covered = np.zeros(n * n, dtype=bool)
    for idx in hier.subdomains:
        covered[idx] = True
    assert covered.all()


def test_hierarchy_prolongation_partition_of_unity():
    hier = pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 16.0, 0.5)
    rows = np.asarray(hier.prolongation.sum(axis=1)).ravel()
    coords, _ = interior_coords(1.0 / 16.0)
    inside = np.all((coords >= 0.25 - 1e-12) & (coords <= 0.75 + 1e-12), axis=1)
    assert np.abs(rows[inside] - 1.0).max() <= 1e-12


def loop_prolongation(big_h, h):
    """Reference: the per-node P1 interpolation loop, one triangle at a time."""
    inv_h, inv_big_h = round(1.0 / h), round(1.0 / big_h)
    mult = inv_h // inv_big_h
    nf, n_coarse = inv_h - 1, inv_big_h - 1
    _, ij = interior_coords(h)
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
    got = pe.mesh_hierarchy(big_h, h, 0.5).prolongation
    ref = loop_prolongation(big_h, h)
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("inv_h, inv_big_h", [(6, 2), (15, 5), (18, 3), (21, 7)])
def test_hierarchy_prolongation_non_dyadic_within_an_ulp_of_per_node_loop(inv_h, inv_big_h):
    # with H/h not a power of two the loop's 1 - xi rounds twice and the
    # closed form (H/h - k)/(H/h) once; weights lie in [0, 1]
    got = pe.mesh_hierarchy(1.0 / inv_big_h, 1.0 / inv_h, 1.0).prolongation
    ref = loop_prolongation(1.0 / inv_big_h, 1.0 / inv_h)
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.abs(got.data - ref.data).max() <= np.finfo(np.float64).eps


def test_hierarchy_misaligned_overlap():
    with pytest.raises(MisalignedOverlap):
        pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 8.0, 0.3)


def test_hierarchy_requires_refinement():
    with pytest.raises(InvalidMeshWidth):
        pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 4.0, 0.5)


def test_coarse_galerkin_equals_assembled():
    # nested P1 spaces: I_H^T K_h I_H reproduces the coarse stiffness exactly
    hier = pe.mesh_hierarchy(1.0 / 4.0, 1.0 / 16.0, 0.5)
    k, _ = pe.fem_p1(1.0 / 16.0)
    k_coarse, _ = pe.fem_p1(1.0 / 4.0)
    galerkin = (hier.prolongation.T @ k @ hier.prolongation).toarray()
    assert np.abs(galerkin - k_coarse.toarray()).max() <= 1e-12


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


def test_kernel_diagonal_is_ones():
    prob = pe.kernel_matrix(pe.KernelSpec(kind="laplacian", n=16, seed=3))
    assert np.array_equal(np.diag(prob.matrix), np.ones(16))


def test_kernel_identical_points_limit():
    pts = np.zeros((2, 4))
    with pytest.raises(NotSpd):
        pe.kernel_matrix(pe.KernelSpec(kind="laplacian", n=2, d=4, seed=0), points=pts)
    prob = pe.kernel_matrix(
        pe.KernelSpec(kind="laplacian", n=2, d=4, seed=0, tau=0.1), points=pts
    )
    assert np.array_equal(prob.matrix, np.array([[1.1, 1.0], [1.0, 1.1]]))


def test_kernel_symmetric_exactly():
    prob = pe.kernel_matrix(pe.KernelSpec(kind="laplacian", n=32, seed=5))
    assert np.array_equal(prob.matrix, prob.matrix.T)


def test_poly_kernel_matches_entrywise_oracle():
    spec = pe.KernelSpec(kind="poly-complex", n=8, seed=11)
    prob = pe.kernel_matrix(spec)
    assert prob.meta["imag_term_max"] <= 1e-16
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
        pe.KernelSpec(kind="laplacian", n=1, seed=0)


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
    w, _ = pe.dense_sym_eig((c + c.T) / 2.0)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * w[0]
    assert abs(ref.lam2 - w[1]) <= 1e-9 * w[1]
    assert abs(ref.lamn - w[-1]) <= 1e-9 * w[-1]


def test_reduce_rejects_mismatched_sizes():
    with pytest.raises(NotSpd):
        pe.generalized_reduce(np.eye(3), np.eye(4))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_reduce_rejects_indefinite_mass(sparse):
    m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalues -1, 1, 3
    with pytest.raises(NotSpd):
        pe.generalized_reduce(np.eye(3), scipy.sparse.csr_matrix(m) if sparse else m)


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
    wrapped = prob.wrap_precond(pe.make_spd(b))
    ctx = pe.build_rate_context(prob, wrapped)

    # oracle: explicit M^{1/2} reduction, dense angle formula
    m_sqrt, m_inv_sqrt, _ = dense_roots(m)
    a_hat = m_inv_sqrt @ a @ m_inv_sqrt
    b_hat = m_inv_sqrt @ b @ m_inv_sqrt
    wa, va = pe.dense_sym_eig((a_hat + a_hat.T) / 2.0)
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
    prob = pe.kernel_matrix(pe.KernelSpec(kind="laplacian", n=128, seed=7))
    ref = prob.reference()
    w, _ = pe.dense_sym_eig(prob.matrix)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * abs(w[0])
    assert abs(ref.lam2 - w[1]) <= 1e-9 * abs(w[1])
    assert abs(ref.lamn - w[-1]) <= 1e-9 * abs(w[-1])


@pytest.mark.parametrize("h", ["2^-4", "2^-5"], ids=lambda h: f"h={h}")
def test_reference_fem_matches_scipy_pencil(h):
    # lambdan comes from a three-term Lanczos that watches only the top Ritz
    # value: 86 steps at h=2^-4, 157 at h=2^-5, with no stored basis
    prob = build_problem(f"laplace-fem:h={h}")
    k, m = prob.meta["stiffness"], prob.meta["mass"]
    w = scipy.linalg.eigh(k.toarray(), m.toarray(), eigvals_only=True)
    ref = pe.reference_eigs(prob)
    assert abs(ref.lam1 - w[0]) <= 1e-10 * w[0]
    assert abs(ref.lam2 - w[1]) <= 1e-10 * w[1]
    assert abs(ref.lamn - w[-1]) <= 1e-10 * w[-1]


@pytest.mark.parametrize("n", [6, 12, 20])
def test_reference_lamn_matches_eigvalsh_on_random_pairs(n):
    # at these sizes the three-term run for lambdan can run to k + 1 == dim,
    # where its Lanczos vectors need not be orthogonal any more
    for seed in range(20):
        a, _ = random_spd_pair(seed, n)
        lamn = dense_problem(a).reference().lamn
        top = scipy.linalg.eigvalsh(a)[-1]
        assert abs(lamn - top) <= 1e-13 * top, seed


def test_reference_lamn_run_holds_no_basis():
    # the lambdan run at h=2^-5 takes 157 steps; a stored basis would be
    # 157 vectors, while the three-term recurrence, the start draw and the
    # pencil apply's temporaries peak near 10
    prob = build_problem("laplace-fem:h=2^-5")
    n, steps = prob.dim, []

    def apply_a(v):
        steps.append(1)
        return prob.apply_a(v)

    tracemalloc.start()
    try:
        lamn = _lanczos_top_value(apply_a, n, tol=1e-11, maxit=600, rng=pe.Rng(777).spawn(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) > 100
    assert peak <= 16 * 8 * n
    assert abs(lamn - prob.reference().lamn) <= 1e-14 * lamn


def test_reference_degenerate_smallest():
    prob = dense_problem(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(DegenerateSmallestEigenvalue):
        prob.reference()


def test_reference_dimension_one():
    prob = dense_problem(np.array([[3.0]]))
    with pytest.raises(DegenerateSmallestEigenvalue):
        prob.reference()
