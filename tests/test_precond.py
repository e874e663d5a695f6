import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import precondeig as pe
from precondeig import linalg
from precondeig.cli import build_precond, build_problem
from precondeig.errors import (
    InvalidMeshWidth,
    NotAGridProblem,
    NotSpdInLowPrecision,
)
from precondeig.precond import FWD_TOL, HattedPreconditioner, OperatorPreconditioner
from tests import jacobi
from tests.conftest import box_nodes, dense_problem, dense_roots, tight_fwd


def random_spd(seed, n, shift=1.0):
    g = pe.Rng(seed).normal(n * n).reshape(n, n)
    a = g @ g.T / n + shift * np.eye(n)
    return (a + a.T) / 2.0


def lift(prob, p):
    return HattedPreconditioner(p, prob.pencil[2])


def fem_ddm(h, big_h, ratio=0.5):
    prob = pe.laplace_fem(h)
    ddm = pe.DdmPreconditioner(prob, big_h, ratio)
    return prob, ddm, lift(prob, ddm)


def all_preconditioners():
    """One instance of every kind, with the operator it preconditions."""
    a = random_spd(3, 24, shift=6.0)
    fd = pe.laplace_fd(1.0 / 8.0)
    prob, _, bhat = fem_ddm(1.0 / 8.0, 1.0 / 2.0)
    out = [
        ("identity", pe.make_identity(), a),
        ("exact-dense", pe.make_spd(a), a),
        ("exact-sparse", pe.make_spd(fd.matrix), fd.matrix.toarray()),
        ("mp-chol", pe.make_mp_cholesky(a), a),
        ("scaled", pe.spectral_scale(pe.make_mp_cholesky(a), 0.9, 1.1), a),
        ("ddm-hatted", bhat, prob.dense()),
        ("spd-hatted", lift(prob, pe.make_spd(random_spd(20, prob.dim, shift=4.0))), prob.dense()),
    ]
    return out


def spd_probe(p, n, rng, trials=20):
    """Largest symmetry defect and smallest positivity of p.apply_inv on
    random probe pairs of dimension n."""
    worst_sym = 0.0
    worst_pos = np.inf
    for _ in range(trials):
        u = rng.normal(n)
        w = rng.normal(n)
        iu = p.apply_inv(u)
        iw = p.apply_inv(w)
        scale = np.linalg.norm(u) * np.linalg.norm(iw) + np.linalg.norm(w) * np.linalg.norm(iu)
        worst_sym = max(worst_sym, abs(float(iu @ w) - float(u @ iw)) / scale)
        worst_pos = min(worst_pos, float(u @ iu) / float(u @ u))
    return worst_sym, worst_pos


# ---------------------------------------------------------------------------
# interface invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,p,a", all_preconditioners(), ids=lambda v: v if isinstance(v, str) else "")
def test_spd_probe(name, p, a):
    # the operator itself (its binary64 twin) is SPD to 1e-8
    sym, pos = spd_probe(p.exact(), a.shape[0], pe.Rng(77), trials=20)
    assert sym <= 1e-8
    assert pos > 0.0
    # the production path may add binary32 substitution noise, nothing more
    sym32, pos32 = spd_probe(p, a.shape[0], pe.Rng(77), trials=20)
    assert sym32 <= 1e-6
    assert pos32 > 0.0


@pytest.mark.parametrize("name,p,a", all_preconditioners(), ids=lambda v: v if isinstance(v, str) else "")
def test_forward_inverse_consistency(name, p, a):
    v = pe.Rng(5).normal(a.shape[0])
    tol = 1e-9
    if name == "mp-chol" or name == "scaled":
        tol = 1e-4  # binary32 substitutions round at 2^-24
    if p.fwd_mode == "iterative":
        tol = max(tol, 10 * FWD_TOL)  # a nested PCG to FWD_TOL
    w = p.apply_fwd(p.apply_inv(v))
    assert np.linalg.norm(w - v) <= tol * np.linalg.norm(v)


def test_dropped_preconditioners_are_freed_without_the_cycle_collector():
    # a reference cycle (say, a preconditioner holding itself as its twin)
    # keeps a dropped set-up alive until the cyclic collector runs
    gc.disable()
    try:
        refs = [weakref.ref(q) for _, p, _ in all_preconditioners() for q in (p, p.exact())]
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("name,p,a", all_preconditioners(), ids=lambda v: v if isinstance(v, str) else "")
def test_exact_twin_contract(name, p, a):
    twin = p.exact()
    assert twin.exact() is twin
    # only a binary32 factor needs a separate binary64 twin
    assert (twin is p) == (name not in ("mp-chol", "scaled"))
    assert (type(twin), twin.fwd_mode) == (type(p), p.fwd_mode)
    v = pe.Rng(9).normal(a.shape[0])
    assert np.linalg.norm(twin.apply_inv(v) - p.apply_inv(v)) <= 1e-4 * np.linalg.norm(p.apply_inv(v))


def block_preconditioners():
    """Every B of all_preconditioners, the exact B of a mass-reduced problem,
    whose applies go through R products and solves, DDM on a finite-difference
    problem and scaled DDM on a mass-reduced one; each with its dimension."""
    reduced = build_problem("laplace-fem:h=2^-3")
    fd = build_problem("laplace-fd:h=2^-3")
    out = [(name, p, a.shape[0]) for name, p, a in all_preconditioners()]
    out += [
        ("exact-reduced", build_precond("exact", reduced), reduced.dim),
        ("ddm-fd", build_precond("ddm:H=2^-1", fd), fd.dim),
        ("scaled-ddm", build_precond("scaled:ddm:H=2^-1", reduced), reduced.dim),
    ]
    return [pytest.param(*case, id=f"{case[0]}-") for case in out]


# dense LAPACK/BLAS kernels (Cholesky substitutions, matrix products) run a
# block through another kernel than a vector, so their columns may differ
# from the vector applies in the last bits
DENSE_KERNELS = ("exact-dense", "mp-chol", "scaled", "spd-hatted")


@pytest.mark.parametrize("name,p,n", block_preconditioners())
def test_explicit_b_applies_a_block(name, p, n):
    # every B takes an (n, k) block in apply_inv, and an explicit B in
    # apply_fwd too: the diagnostics apply it to all trial starts, or to the
    # identity, at once
    block = pe.Rng(13).normal(3 * n).reshape(n, 3)
    for q in (p, p.exact()):
        applies = (q.apply_inv, q.apply_fwd) if q.fwd_mode == "exact" else (q.apply_inv,)
        for apply in applies:
            got = apply(block)
            want = np.column_stack([apply(c) for c in block.T])
            assert got.shape == want.shape
            if name not in DENSE_KERNELS:
                assert np.array_equal(got, want), name
            tol = 1e-14 if q.exact() is q else 1e-6  # binary32 applies round at 2^-24
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), name


# ---------------------------------------------------------------------------
# identity / exact
# ---------------------------------------------------------------------------


def test_identity_is_identity():
    p = pe.make_identity()
    v = pe.Rng(0).normal(5)
    assert np.array_equal(p.apply_inv(v), v)
    assert np.array_equal(p.apply_fwd(v), v)


def test_identity_kappa_is_spread():
    prob = dense_problem(np.diag([1.0, 2.0, 4.0]))
    nu_min, nu_max, kappa = pe.kappa_nu(prob, pe.make_identity())
    assert abs(nu_min - 1.0) <= 1e-10
    assert abs(nu_max - 4.0) <= 1e-10
    assert abs(kappa - 4.0) <= 1e-10


def test_identity_distortion_is_right_angle():
    # no preconditioning: phi = pi/2 exactly
    prob = dense_problem(np.diag([1.0, 2.0, 4.0]))
    ctx = pe.build_rate_context(prob, pe.make_identity())
    assert abs(ctx.sin_phi - 1.0) <= 1e-12
    assert ctx.cos_phi <= 1e-6


def test_exact_inverts():
    a = random_spd(11, 9)
    p = pe.make_spd(a)
    w = pe.Rng(1).normal(9)
    assert np.linalg.norm(p.apply_inv(a @ w) - w) <= 1e-12 * np.linalg.norm(w)


def test_exact_kappa_one_and_zero_distortion():
    a = random_spd(12, 8)
    prob = dense_problem(a)
    p = pe.make_spd(a)
    nu_min, nu_max, kappa = pe.kappa_nu(prob, p)
    assert abs(kappa - 1.0) <= 1e-9
    ctx = pe.build_rate_context(prob, p)
    assert ctx.cos_phi <= 1e-6


# ---------------------------------------------------------------------------
# mixed-precision Cholesky
# ---------------------------------------------------------------------------


def test_mp_chol_identity_exact():
    p = pe.make_mp_cholesky(np.eye(6))
    # binary32-representable input passes through the substitutions exactly
    v = pe.Rng(2).normal(6).astype(np.float32).astype(np.float64)
    assert np.array_equal(p.apply_inv(v), v)
    # general binary64 input only rounds once, at the input conversion
    w = pe.Rng(3).normal(6)
    assert np.linalg.norm(p.apply_inv(w) - w) <= 2.0**-24 * np.linalg.norm(w)
    assert np.array_equal(p.exact().apply_inv(w), w)


def test_mp_chol_kappa_bound_from_dense_error_chain():
    # 1 - ||I - A^{1/2} B^{-1} A^{1/2}|| <= nu_min <= nu_max <= 1 + ||...||
    a = random_spd(13, 64, shift=16.0)
    prob = dense_problem(a)
    p = pe.make_mp_cholesky(a)
    sqrt_a, _, _ = dense_roots(a)
    binv = np.column_stack([p.exact().apply_inv(e) for e in np.eye(64)])
    eps = np.linalg.norm(np.eye(64) - sqrt_a @ binv @ sqrt_a, 2)
    assert eps < 1.0
    _, _, kappa = pe.kappa_nu(prob, p)
    assert kappa <= (1.0 + eps) / (1.0 - eps) + 1e-12


def test_mp_chol_twin_applies_the_binary32_factor_in_binary64():
    a = random_spd(21, 12, shift=4.0)
    p = pe.make_mp_cholesky(a)
    twin = p.exact()
    assert p.factor.l.dtype == np.float32 and twin.factor.l.dtype == np.float64
    l64 = twin.factor.l
    assert np.array_equal(l64, p.factor.l.astype(np.float64))
    v = pe.Rng(10).normal(12)
    y = scipy.linalg.solve_triangular(l64, v, lower=True)
    assert np.array_equal(twin.apply_inv(v), scipy.linalg.solve_triangular(l64.T, y, lower=False))
    assert np.array_equal(twin.apply_fwd(v), l64 @ (l64.T @ v))


def test_mp_chol_rejects_indefinite():
    with pytest.raises(NotSpdInLowPrecision):
        pe.make_mp_cholesky(np.diag([1.0, -2.0]))


def test_epsilon_l_values():
    value, ok = pe.epsilon_l(1, 1.0, 1.0)
    assert abs(value - 16.0 * 2.0**-24) <= 1e-20
    assert ok
    value, ok = pe.epsilon_l(256, 1.0, 1000.0)
    assert abs(value - 4.0 * 256 * 769 * 1000 * 2.0**-24) <= 1e-6
    assert not ok  # ~46.9: bound inapplicable


def test_mp_chol_kernel_distortion_bound():
    # desk-scale version of the kernel experiment (acceptance runs n = 256)
    prob = pe.kernel_matrix(kind="laplacian", n=96, d=96, seed=7, tau=0.0)
    p = pe.make_mp_cholesky(prob.matrix)
    ctx = pe.build_rate_context(prob, p)
    eps, ok = pe.epsilon_l(96, ctx.lam1, ctx.lamn)
    if ok:
        assert ctx.cos_phi <= math.sqrt(2.0 * eps)
    assert ctx.cos_phi <= 0.05


# ---------------------------------------------------------------------------
# two-level additive Schwarz
# ---------------------------------------------------------------------------


def test_ddm_single_subdomain_no_coarse_is_exact():
    # one subdomain covering everything and an empty coarse space: B = A
    h = 1.0 / 8.0
    prolongation, boxes = pe.mesh_hierarchy(1.0, h, 0.5)
    assert boxes == [(slice(0, 7), slice(0, 7))]
    assert prolongation.shape[1] == 0
    prob = pe.laplace_fd(h)
    ddm = pe.DdmPreconditioner(prob, 1.0, 0.5)
    v = pe.Rng(3).normal(prob.dim)
    direct = prob.solver()(v)
    assert np.linalg.norm(ddm.apply_inv(v) - direct) <= 1e-11 * np.linalg.norm(direct)
    _, _, kappa = pe.kappa_nu(prob, ddm)
    assert abs(kappa - 1.0) <= 1e-9


@pytest.mark.parametrize("h, big_h", [(2.0**-4, 2.0**-2), (2.0**-4, 2.0**-1), (2.0**-5, 2.0**-3)])
def test_ddm_additivity(h, big_h):
    # oracle: the coarse part plus one sparse LU solve per subdomain
    _, ddm, _ = fem_ddm(h, big_h)
    k = pe.fem_p1(h)[0].tocsr()
    v = pe.Rng(4).normal(k.shape[0])
    total = ddm.coarse_part(v)
    for idx in box_nodes(h, pe.mesh_hierarchy(big_h, h, 0.5)[1]):
        total[idx] += scipy.sparse.linalg.splu(k[np.ix_(idx, idx)].tocsc()).solve(v[idx])
    assert np.linalg.norm(total - ddm.apply_inv(v)) <= 1e-14 * np.linalg.norm(total)


def local_solve_cases():
    """(kind, h, H, overlap) for every H and overlap that mesh_hierarchy
    accepts at h = 2^-4 and 2^-5, on the FD and the P1-FEM stiffness."""
    for kind in ("fd", "fem"):
        for h in (2.0**-4, 2.0**-5):
            big_h = 1.0
            while big_h > h:
                for overlap in (0.25, 0.5, 1.0):
                    if (overlap * big_h / h).is_integer():
                        yield kind, h, big_h, overlap
                big_h /= 2.0


@pytest.mark.parametrize("kind, h, big_h, overlap", list(local_solve_cases()))
def test_ddm_local_solves_match_sparse_lu(kind, h, big_h, overlap):
    # oracle: the coarse part plus one sparse LU solve per subdomain
    prob = pe.laplace_fd(h) if kind == "fd" else pe.laplace_fem(h)
    a = prob.stiffness.tocsr()
    ddm = pe.DdmPreconditioner(prob, big_h, overlap)
    v = pe.Rng(5).normal(a.shape[0])
    total = ddm.coarse_part(v)
    for idx in box_nodes(h, pe.mesh_hierarchy(big_h, h, overlap)[1]):
        total[idx] += scipy.sparse.linalg.splu(a[np.ix_(idx, idx)].tocsc()).solve(v[idx])
    assert np.linalg.norm(total - ddm.apply_inv(v)) <= 1e-13 * np.linalg.norm(total)


def test_ddm_refuses_a_problem_off_the_grid():
    # the local solves slice the tridiagonal of a grid problem; a problem
    # that has none gets one typed error before any work
    prob = dense_problem(random_spd(7, 49))
    with pytest.raises(NotAGridProblem, match="needs a mesh problem"):
        pe.DdmPreconditioner(prob, 2.0**-2, 0.5)


@pytest.mark.parametrize("h, big_h", [(2.0**-4, 2.0**-2), (2.0**-6, 2.0**-2)])
def test_ddm_coarse_part_equals_transpose_product(h, big_h):
    # the kept CSR transpose sums each coarse entry in the order i_h.T @ v does
    _, ddm, _ = fem_ddm(h, big_h)
    i_h = pe.mesh_hierarchy(big_h, h, 0.5)[0]
    solve = linalg.make_solver((i_h.T @ pe.fem_p1(h)[0] @ i_h).tocsc())
    for seed in range(3):
        v = pe.Rng(seed).normal(i_h.shape[0])
        assert np.array_equal(ddm.coarse_part(v), i_h @ solve(i_h.T @ v))


@pytest.mark.parametrize(
    "problem_recipe, recipe",
    [
        ("laplace-fd:h=2^-4", "ddm:H=2^-2"),
        ("laplace-fd:h=2^-4", "scaled:ddm:H=2^-2"),
        ("laplace-fem:h=2^-4", "ddm:H=2^-2"),
    ],
)
def test_implicit_b_apply_fwd_inverts_apply_inv(problem_recipe, recipe):
    # a DDM's apply_fwd is a nested PCG on the stiffness it was built on, to
    # relative residual FWD_TOL in the coordinates it runs in: u-space on
    # laplace-fd, through the scaled wrapper too, and x = R^{-1} u for the
    # DDM lifted onto laplace-fem (in u-space cond(R) amplifies the residual:
    # 1.2e-10 measured)
    prob = build_problem(problem_recipe)
    p = build_precond(recipe, prob)
    assert p.fwd_mode == "iterative"
    v = pe.Rng(3).normal(prob.dim)
    z = p.apply_fwd(v)
    if p.pencil() is not None:
        r = prob.pencil[2]
        p, v, z = p.pencil(), r.solve(v), r.mult_t(z)
    assert np.linalg.norm(p.apply_inv(z) - v) <= FWD_TOL * np.linalg.norm(v)


def test_ddm_fwd_iterative_residual_and_stability():
    prob, ddm, bhat = fem_ddm(1.0 / 16.0, 1.0 / 4.0)
    u_star = prob.reference().u_star
    z = pe.apply_fwd_iterative(bhat, u_star, apply_a=prob.apply_a)
    assert np.linalg.norm(bhat.apply_inv(z) - u_star) <= 1e-10 * np.linalg.norm(u_star)
    # dist_B quantities computed from z are stable under tol -> tol/10
    z10 = tight_fwd(bhat, u_star, prob.apply_a, 1e-11)
    u0 = pe.Rng(8).normal(prob.dim)

    def dist_from(w):
        nb = math.sqrt(float(u_star @ w))
        bu0 = tight_fwd(bhat, u0, prob.apply_a, 1e-11)
        nu0 = math.sqrt(float(u0 @ bu0))
        return math.acos(min(1.0, abs(float(u0 @ w)) / (nb * nu0)))

    assert abs(dist_from(z) - dist_from(z10)) <= 1e-8


def test_apply_fwd_iterative_identity_and_exact():
    ident = pe.make_identity()
    v = pe.Rng(5).normal(6)
    assert np.linalg.norm(pe.apply_fwd_iterative(ident, v, apply_a=np.copy) - v) <= 1e-12
    a = random_spd(14, 6)
    exact = pe.make_spd(a)
    z = pe.apply_fwd_iterative(exact, v, apply_a=lambda u: a @ u)
    assert np.linalg.norm(z - a @ v) <= 1e-9 * np.linalg.norm(a @ v)


# ---------------------------------------------------------------------------
# spectral scaling
# ---------------------------------------------------------------------------


def test_spectral_scale_trivial_arithmetic():
    # rho_B = max |1 - eta nu| over the spectral bounds = (kappa - 1)/(kappa + 1)
    p = pe.spectral_scale(pe.make_identity(), 2.0, 2.0)
    assert abs(p.eta - 0.5) <= 1e-16
    assert abs(1.0 - p.eta * 2.0) == 0.0
    p = pe.spectral_scale(pe.make_identity(), 1.0, 3.0)
    assert abs(p.eta - 0.5) <= 1e-16
    assert abs(max(abs(1.0 - p.eta * 1.0), abs(1.0 - p.eta * 3.0)) - 0.5) <= 1e-16


def test_spectral_scale_dense_a_norm_oracle():
    n = 25
    a = random_spd(15, n)
    b = random_spd(16, n)
    prob = dense_problem(a)
    p = pe.make_spd(b)
    nu_min, nu_max, kappa = pe.kappa_nu(prob, p)
    scaled = pe.spectral_scale(p, nu_min, nu_max)
    # ||I - eta B^{-1} A||_A = max |1 - eta nu_i| over the pencil spectrum
    sqrt_a, inv_sqrt_a, _ = dense_roots(a)
    m = np.eye(n) - scaled.eta * np.linalg.solve(b, a)
    sym = sqrt_a @ m @ inv_sqrt_a
    w, _ = jacobi.dense_sym_eig((sym + sym.T) / 2.0)
    a_norm = max(abs(w[0]), abs(w[-1]))
    assert abs(a_norm - (kappa - 1.0) / (kappa + 1.0)) <= 1e-8


def test_spectral_scale_preserves_eigvecs_scales_values():
    a = random_spd(17, 10)
    b = random_spd(18, 10)
    prob = dense_problem(a)
    p = pe.make_spd(b)
    scaled = pe.spectral_scale(p, 1.0, 3.0)
    nu0 = pe.kappa_nu(prob, p)
    nu1 = pe.kappa_nu(prob, scaled)
    assert abs(nu1[0] - scaled.eta * nu0[0]) <= 1e-9
    assert abs(nu1[1] - scaled.eta * nu0[1]) <= 1e-9


# ---------------------------------------------------------------------------
# operator-backed and hatted wrappers
# ---------------------------------------------------------------------------


def test_operator_preconditioner_roundtrip():
    a = random_spd(19, 7)
    p = OperatorPreconditioner(lambda v: np.linalg.solve(a, v), lambda v: a @ v)
    v = pe.Rng(6).normal(7)
    assert np.linalg.norm(p.apply_fwd(p.apply_inv(v)) - v) <= 1e-10 * np.linalg.norm(v)


def test_hatted_wrapper_matches_dense_formula():
    # Bhat^{-1} = R B^{-1} R^T for M = R^T R
    k, m = pe.fem_p1(1.0 / 8.0)
    prob = pe.generalized_reduce(k, m)
    b = random_spd(20, prob.dim, shift=4.0)
    wrapped = lift(prob, pe.make_spd(b))
    r = prob.pencil[2]
    v = pe.Rng(7).normal(prob.dim)
    expected = r.mult(np.linalg.solve(b, r.mult_t(v)))
    assert np.linalg.norm(wrapped.apply_inv(v) - expected) <= 1e-11 * np.linalg.norm(expected)


def test_hatted_wrapper_lifts_the_twin():
    k, m = pe.fem_p1(1.0 / 8.0)
    prob = pe.generalized_reduce(k, m)
    mp = pe.make_mp_cholesky(random_spd(22, prob.dim, shift=4.0))
    twin = lift(prob, mp).exact()
    assert twin.inner is mp.exact()
    assert twin.exact() is twin
    r = prob.pencil[2]
    v = pe.Rng(8).normal(prob.dim)
    assert np.array_equal(twin.apply_inv(v), r.mult(mp.exact().apply_inv(r.mult_t(v))))


def test_lifted_explicit_b_applies_b_exactly():
    # lifting keeps an explicit inner B's forward apply, Bhat v = R^{-T} B R^{-1} v
    k, m = pe.fem_p1(1.0 / 8.0)
    prob = pe.generalized_reduce(k, m)
    inner = pe.make_spd(random_spd(20, prob.dim, shift=4.0))
    p = lift(prob, inner)
    assert inner.fwd_mode == p.fwd_mode == "exact"
    v = pe.Rng(5).normal(prob.dim)
    assert np.linalg.norm(p.apply_fwd(p.apply_inv(v)) - v) <= 1e-12 * np.linalg.norm(v)
