import collections
import math

import numpy as np
import pytest
import scipy.linalg

import precondeig as pe
from precondeig import diagnostics, problems, solvers
from precondeig.cli import build_precond, build_problem
from precondeig.diagnostics import _DenseOracle, random_spd_pair
from precondeig.errors import DimensionMismatch, PropertyViolation, ZeroVector
from precondeig.linalg import _lanczos_tridiag, spawn_normal_rows, spawn_seed
from tests import jacobi
from tests.conftest import column, dense_pencil, dense_problem, dense_roots, tight_fwd

DIAG = np.diag([1.0, 2.0, 4.0])


def diag_ctx(precond_factory):
    problem = dense_problem(DIAG)
    p = precond_factory(problem)
    return problem, p, pe.build_rate_context(problem, p)


def dense_distortion_angle(u, b):
    """distortion_angle with B applied and inverted by explicit dense products."""
    return pe.distortion_angle(u, b @ u, np.linalg.solve(b, u), lambda v: np.linalg.solve(b, v))


def traced_xi(problem, p, ctx, u):
    """The contraction amount xi that rsd_solve traces for one theory step
    from u, and the state that step starts from."""
    states = []
    res = pe.rsd_solve(
        problem, p, u, pe.StepPolicy.theory(), tol=0.0, maxit=1, ctx=ctx,
        callback=lambda t, state: states.append(state),
    )
    return column(res.trace, "xi")[0], states[0]


def random_ctx(seed, n=10):
    a, b = random_spd_pair(seed, n)
    problem = dense_problem(a)
    p = pe.make_spd(b)
    return problem, p, pe.build_rate_context(problem, p), a, b


# ---------------------------------------------------------------------------
# distortion angle
# ---------------------------------------------------------------------------


def test_cos_phi_identity_preconditioner():
    u = np.array([1.0, 0.0, 0.0])
    sin_phi, cos_phi = pe.distortion_angle(u, u, u, lambda v: v)
    assert sin_phi == 1.0 and cos_phi == 0.0


def test_cos_phi_exact_preconditioner_is_zero():
    # u* is an eigenvector of B = A
    u = np.array([1.0, 0.0, 0.0])
    bu = DIAG @ u
    binv_u = np.linalg.solve(DIAG, u)
    _, cos_phi = pe.distortion_angle(u, bu, binv_u, lambda v: np.linalg.solve(DIAG, v))
    assert cos_phi <= 1e-8


def test_cos_phi_direct_matches_dense_formula():
    b = random_spd_pair(21, 3)[1]
    problem = dense_problem(DIAG)
    ctx = pe.build_rate_context(problem, pe.make_spd(b))
    u = ctx.u_star
    nb = math.sqrt(u @ b @ u)
    nbi = math.sqrt(u @ np.linalg.solve(b, u))
    sin_expected = 1.0 / (nb * nbi)
    assert abs(ctx.sin_phi - sin_expected) <= 1e-12


def test_variational_degenerate_branch():
    u = np.array([1.0, 0.0, 0.0])
    _, got = dense_distortion_angle(u, DIAG)
    assert got == 0.0


def test_distortion_angle_needs_unit_vector():
    # the projection u - B u / ||u||_B^2 is orthogonal to u only for ||u|| = 1
    with pytest.raises(ValueError):
        dense_distortion_angle(np.array([2.0, 0.0, 0.0]), DIAG)


@pytest.mark.parametrize("seed", [30, 31, 32, 33])
def test_cross_formula_agreement(seed):
    _, _, ctx, a, b = random_ctx(seed)
    _, got = dense_distortion_angle(ctx.u_star, b)
    assert abs(got - ctx.cos_phi) <= 1e-8


# Near-exact mixed-precision instance: kappa - 1 ~ 1.3e-7, cos phi ~ 3e-8.
# 60-digit mpmath value of sqrt(1 - sin^2 phi) at the exact u*.
COS_PHI_SEED13_MP = 3.18504419e-8


def seed13_mp_chol_pair():
    a, _ = random_spd_pair(13, 6)
    l64 = pe.make_mp_cholesky(a).exact().factor.l
    return a, l64 @ l64.T


def test_seed13_mp_chol_cos_phi_to_relative_precision():
    a, b = seed13_mp_chol_pair()
    ctx = pe.build_rate_context(dense_problem(a), pe.make_spd(b))
    _, var = dense_distortion_angle(ctx.u_star, b)
    assert abs(var - COS_PHI_SEED13_MP) <= 1e-6 * COS_PHI_SEED13_MP
    assert abs(ctx.cos_phi - COS_PHI_SEED13_MP) <= 1e-6 * COS_PHI_SEED13_MP
    assert ctx.phi < math.pi / 2.0


def test_seed13_mp_chol_properties_hold():
    a, b = seed13_mp_chol_pair()
    rep = pe.validate_properties(
        a, b, n_samples=500, seed=pe.linalg.spawn_seed(13, 6), label="", inject_bug=None
    )
    assert rep.violations == []


def test_variational_monte_carlo_supremum():
    # 1e4 random orthogonal probes never beat the closed form (n = 6)
    _, _, ctx, a, b = random_ctx(34, n=6)
    u = ctx.u_star
    b_inv = np.linalg.inv(b)
    nbi = math.sqrt(u @ b_inv @ u)
    _, closed = pe.distortion_angle(u, b @ u, b_inv @ u, lambda v: b_inv @ v)
    rng = pe.Rng(99)
    best = 0.0
    for _ in range(10_000):
        v = rng.normal(6)
        v -= float(v @ u) * u
        val = abs(float(v @ b_inv @ u)) / (math.sqrt(v @ b_inv @ v) * nbi)
        best = max(best, val)
    assert best <= closed + 1e-6


@pytest.mark.parametrize("kind", ["identity", "random-spd", "mp-chol"])
def test_distortion_angle_matches_extended_precision(kind):
    # 40-digit reference: u* from mp.eigsy of A, sin phi from the norms of
    # u*, cos phi = sqrt(1 - sin^2 phi) with no binary64 floor; xi_inf from
    # lambda1, lambda2, lambdan of A, kappa from the spectrum of
    # L^{-1} A L^{-T} with B = L L^T, and that cos phi
    mpmath = pytest.importorskip("mpmath")
    for seed in range(3):
        for n in (6, 12):
            a, b = dense_pencil(seed, n, kind)
            ctx = pe.build_rate_context(dense_problem(a), pe.make_spd(b))
            with mpmath.workdps(40):
                a_mp, b_mp = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
                w, q = mpmath.eigsy(a_mp)
                u = q[:, min(range(n), key=lambda k: w[k])]
                nb2 = (u.T * b_mp * u)[0]
                nbi2 = (u.T * mpmath.lu_solve(b_mp, u))[0]
                sin_mp = (u.T * u)[0] / mpmath.sqrt(nb2 * nbi2)
                cos_mp = mpmath.sqrt(1 - sin_mp**2)
                sin_ref, cos_ref = float(sin_mp), float(cos_mp)
                lam = sorted(w)
                linv = mpmath.inverse(mpmath.cholesky(b_mp))
                nu = sorted(mpmath.eigsy(linv * a_mp * linv.T, eigvals_only=True))
                gap_ratio = (1 / lam[0] - 1 / lam[1]) / (1 / lam[0] - 1 / lam[-1])
                xi_ref = float(4 / (mpmath.pi**2 * (1 + cos_mp) ** 2) * gap_ratio * nu[0] / nu[-1])
            label = f"seed={seed},n={n},B={kind}"
            assert abs(pe.xi_inf(ctx) - xi_ref) <= 1e-13 * xi_ref, label
            assert abs(ctx.sin_phi - sin_ref) <= 1e-13 * sin_ref, label
            if kind == "identity":
                assert ctx.cos_phi == 0.0, label
            else:
                assert abs(ctx.cos_phi - cos_ref) <= 1e-6 * cos_ref, label


def test_theta_shao_identity():
    u = pe.Rng(1).normal(5)
    assert abs(pe.theta_shao(u, u) - math.pi / 2.0) <= 1e-12


def test_theta_shao_eigenvector_of_b():
    u = np.array([1.0, 0.0])
    assert abs(pe.theta_shao(u, np.diag([1.0, 3.0]) @ u) - math.pi / 2.0) <= 1e-12


def test_theta_shao_resolves_angles_near_pi_over_2():
    # 40-digit reference for pi/2 - theta, the angle between u* and B u*: on
    # this pencil it is about 4.8e-9, below what asin of the rounded ratio resolves
    mpmath = pytest.importorskip("mpmath")
    problem = build_problem("kernel-poly:n=100,seed=1")
    ctx = pe.build_rate_context(problem, build_precond("mp-chol", problem))
    u, w = ctx.u_star, ctx.w_star
    with mpmath.workdps(40):
        u_mp, w_mp = mpmath.matrix(u.tolist()), mpmath.matrix(w.tolist())
        ref = float(mpmath.acos((u_mp.T * w_mp)[0] / (mpmath.norm(u_mp) * mpmath.norm(w_mp))))
    assert abs((math.pi / 2.0 - pe.theta_shao(u, w)) - ref) <= 1e-6 * ref


def test_theta_shao_is_complement_of_euclidean_angle():
    b = random_spd_pair(35, 7)[1]
    u = pe.Rng(2).normal(7)
    theta = pe.theta_shao(u, b @ u)
    bu = b @ u
    angle = math.acos(min(1.0, abs(float(u @ bu)) / (np.linalg.norm(u) * np.linalg.norm(bu))))
    assert abs(theta - (math.pi / 2.0 - angle)) <= 1e-10


# ---------------------------------------------------------------------------
# spectral equivalence
# ---------------------------------------------------------------------------


def test_kappa_exact_is_one():
    problem = dense_problem(DIAG)
    nu_min, nu_max, kappa = pe.kappa_nu(problem, pe.make_spd(DIAG))
    assert abs(nu_min - 1.0) <= 1e-10 and abs(nu_max - 1.0) <= 1e-10 and abs(kappa - 1.0) <= 1e-10


def test_kappa_identity_diag():
    problem = dense_problem(DIAG)
    nu_min, nu_max, kappa = pe.kappa_nu(problem, pe.make_identity())
    assert (abs(nu_min - 1.0), abs(nu_max - 4.0), abs(kappa - 4.0)) <= (1e-10, 1e-10, 1e-10)


def test_kappa_lanczos_route_runs_to_the_reference_cap():
    # identity on the h=2^-6 FEM pencil needs 442 steps, past the 400 the
    # route once stopped at; B^{-1} A = A, so nu_min and nu_max are the
    # pencil's lambda1 and lambdan (2.5e-13 and 1e-16 relative off them)
    problem = build_problem("laplace-fem:h=2^-6")
    nu_min, nu_max, kappa = pe.kappa_nu(problem, pe.make_identity())
    ref = problem.reference()
    assert abs(nu_min - ref.lam1) <= 1e-12 * ref.lam1
    assert abs(nu_max - ref.lamn) <= 1e-12 * ref.lamn
    assert kappa == nu_max / nu_min


def test_kappa_dense_and_lanczos_routes_agree(monkeypatch):
    # mp-chol: both routes must measure B = Lhat Lhat^T, not its binary32 applies
    a, b = random_spd_pair(36, 40)
    problem = dense_problem(a)
    for p in (pe.make_spd(b), pe.make_mp_cholesky(a)):
        dense = pe.kappa_nu(problem, p)
        with monkeypatch.context() as m:
            m.setattr(problems, "_DENSE_CAP", 0)
            m.setattr(diagnostics, "_KAPPA_TOL", 1e-12)
            lanczos = pe.kappa_nu(problem, p)
        assert abs(dense[0] - lanczos[0]) <= 1e-8 * dense[0], type(p).__name__
        assert abs(dense[1] - lanczos[1]) <= 1e-8 * dense[1], type(p).__name__


def test_kappa_dense_route_matches_extended_precision_pencil():
    # near-exact mixed precision (kappa - 1 ~ 1.6e-7); the reference is the
    # 40-digit spectrum of Lhat^{-1} A Lhat^{-T}, where B = Lhat Lhat^T and
    # Lhat is the binary32 Cholesky factor held in binary64
    mpmath = pytest.importorskip("mpmath")
    problem = build_problem("kernel-laplace:n=24,seed=7")
    a = problem.dense()
    p = pe.make_mp_cholesky(a)
    lhat = p.exact().factor.l
    with mpmath.workdps(40):
        linv = mpmath.inverse(mpmath.matrix(lhat.tolist()))
        w = sorted(mpmath.eigsy(linv * mpmath.matrix(a.tolist()) * linv.T, eigvals_only=True))
        ref = float(w[-1] / w[0] - 1)
    _, _, kappa = pe.kappa_nu(problem, p)
    assert abs((kappa - 1.0) - ref) <= 1e-7 * ref


@pytest.mark.parametrize("recipe", ["kernel-laplace:n=256,seed=7", "kernel-poly:n=256,seed=7"])
def test_kappa_lanczos_route_resolves_one_minus_inverse_kappa(recipe):
    # near-exact mixed precision above the dense cap, where 1 - 1/kappa is
    # about 1e-7: against the spectrum of E = Lhat^{-1} (A - Lhat Lhat^T)
    # Lhat^{-T}, which has no cancellation (nu = 1 + e, so 1 - 1/kappa =
    # (e_max - e_min) / (1 + e_max))
    problem = build_problem(recipe)
    assert problem.dim > problems._DENSE_CAP
    a = problem.dense()
    p = pe.make_mp_cholesky(a)
    lhat = p.exact().factor.l
    e = scipy.linalg.solve_triangular(lhat, a - lhat @ lhat.T, lower=True)
    e = scipy.linalg.solve_triangular(lhat, e.T, lower=True)
    w = scipy.linalg.eigvalsh((e + e.T) / 2.0)
    ref = (w[-1] - w[0]) / (1.0 + w[-1])
    _, _, kappa = pe.kappa_nu(problem, p)
    assert abs((1.0 - 1.0 / kappa) - ref) <= 1e-6 * ref


@pytest.mark.parametrize(
    "recipe", ["laplace-fd:h=2^-5", "laplace-fd:h=2^-6", "laplace-fd:h=2^-7", "laplace-fem:h=2^-5"]
)
def test_kappa_lanczos_route_stops_at_once_for_the_exact_preconditioner(recipe):
    # B = A above the dense cap: B^{-1} A is I up to the solves' roundoff, so
    # the spread theta_max - theta_min is roundoff too and the stop test may
    # not ask tol times it; the Krylov space is invariant after one step.  The
    # grid solve keeps that roundoff near 1e-14 only because its tridiagonal
    # eigenvalues are relatively accurate: with eigh_tridiagonal's, h=2^-7
    # ran out of its 600 steps
    problem = build_problem(recipe)
    assert problem.dim > problems._DENSE_CAP
    p = build_precond("exact", problem)
    calls = []
    problem.apply_a = counting(problem.apply_a, calls)
    _, _, kappa = pe.kappa_nu(problem, p)
    assert abs(kappa - 1.0) <= 1e-9
    assert len(calls) <= 3


def test_kappa_three_term_lanczos_matches_the_kept_basis():
    # above _LANCZOS_STEPS rows kappa_nu's extremal Lanczos keeps no basis
    # (Paige 1980: the extreme Ritz values still converge); a run that may
    # reach m = dim keeps it, and both find the same ends
    problem = build_problem("laplace-fem:h=2^-5")
    assert problem.dim > problems._LANCZOS_STEPS
    p = build_precond("ddm:H=2^-2", problem)
    nu_min, nu_max, _ = pe.kappa_nu(problem, p)
    route = solvers.Route.of(problem, p.exact())
    theta, _, basis = _lanczos_tridiag(
        route.b.apply_inv, problem.dim, diagnostics._KAPPA_TOL, problem.dim, pe.Rng(4242), (0, -1),
        inner_map=route.apply_a,
    )
    assert basis is not None
    assert abs(nu_min - theta[0]) <= 1e-13 * theta[0]
    assert abs(nu_max - theta[-1]) <= 1e-13 * theta[-1]


def counting(fn, calls):
    def counted(v):
        calls.append(1)
        return fn(v)

    return counted


class CountingMatmul:
    """A matrix whose products `self @ v` are counted in calls."""

    def __init__(self, matrix, calls):
        self.matrix, self.calls = matrix, calls

    def __matmul__(self, v):
        self.calls.append(1)
        return self.matrix @ v


def test_kappa_lanczos_route_applies_a_once_per_step():
    problem = build_problem("laplace-fd:h=2^-4")
    p = build_precond("ddm:H=2^-2", problem)
    calls = []
    problem.apply_a = counting(problem.apply_a, calls)
    assert problem.dim > 200 and p.pencil() is None  # the Lanczos route in u-space
    pe.kappa_nu(problem, p)
    assert len(calls) <= 54


@pytest.mark.parametrize("recipe", ["laplace-fem:h=2^-4", "laplace-fem:h=2^-3"])
def test_kappa_of_a_lifted_ddm_runs_on_the_pencil(recipe, monkeypatch):
    """A DDM lifted to the FEM pencil (K, M): above the dense cap Lanczos on
    P^{-1} K in the K-inner product, one K matvec per step, and at or below
    it LAPACK on K and P^{-1} applied to the identity; on either route no
    reduced A apply and no R call, against the dense generalized spectrum of
    (K, B_P), B_P the inverse of the DDM apply on the identity."""
    problem = build_problem(recipe)
    p = build_precond("ddm:H=2^-2", problem)
    n = problem.dim
    assert (n > problems._DENSE_CAP) == recipe.endswith("2^-4") and p.pencil() is not None
    b_p = np.linalg.inv(p.pencil().apply_inv(np.eye(n)))
    k = problem.pencil[0] @ np.eye(n)
    w = scipy.linalg.eigh((k + k.T) / 2.0, (b_p + b_p.T) / 2.0, eigvals_only=True)
    a_calls, k_calls, r_calls = [], [], []
    problem.apply_a = counting(problem.apply_a, a_calls)
    problem.pencil = (CountingMatmul(problem.pencil[0], k_calls), *problem.pencil[1:])
    r = problem.pencil[2]
    for name in ("solve", "solve_t", "mult", "mult_t"):
        monkeypatch.setattr(r, name, counting(getattr(r, name), r_calls))
    nu_min, nu_max, kappa = pe.kappa_nu(problem, p)
    assert abs(nu_min - w[0]) <= 1e-10 * w[0] and abs(nu_max - w[-1]) <= 1e-10 * w[-1]
    assert abs(kappa - w[-1] / w[0]) <= 1e-10 * kappa
    assert not a_calls and not r_calls and 1 <= len(k_calls) <= 54


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------


def test_gamma_diag_identity_at_x_star():
    problem, p, ctx = diag_ctx(lambda pr: pe.make_identity())
    state = pe.make_state(ctx.u_star, pe.Route.of(problem, p))
    # 2 * numax * (1/l1 - 1/ln) / (u^T A u) = 2*4*(3/4)/1
    assert abs(pe.gamma_x(state.uau, ctx) - 6.0) <= 1e-9


def test_gamma_global_bound():
    problem, p, ctx, a, b = random_ctx(37)
    bound = 2.0 * ctx.kappa * (1.0 / ctx.lam1 - 1.0 / ctx.lamn)
    rng = pe.Rng(3)
    for _ in range(100):
        u = rng.normal(10)
        u /= math.sqrt(u @ b @ u)
        state = pe.make_state(u, pe.Route.of(problem, p))
        assert pe.gamma_x(state.uau, ctx) <= bound + 1e-12


def test_mu_diag_identity_at_x_star():
    problem, p, ctx = diag_ctx(lambda pr: pe.make_identity())
    state = pe.make_state(ctx.u_star, pe.Route.of(problem, p))
    assert abs(pe.mu_x(state.uau, ctx) - 4.0 / math.pi**2) <= 1e-10


def test_mu_lower_bound():
    problem, p, ctx, a, b = random_ctx(38)
    mu0 = 8.0 * (1.0 / ctx.lam1 - 1.0 / ctx.lam2) / (math.pi**2 * ctx.kappa)
    rng = pe.Rng(4)
    for _ in range(100):
        u = rng.normal(10)
        u /= math.sqrt(u @ b @ u)
        state = pe.make_state(u, pe.Route.of(problem, p))
        assert pe.mu_x(state.uau, ctx) >= mu0 - 1e-12


def test_mu_matches_dense_x_space_formula():
    problem, p, ctx, a, b = random_ctx(39)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    c = b_inv_sqrt @ a @ b_inv_sqrt
    rng = pe.Rng(5)
    u = rng.normal(10)
    u /= math.sqrt(u @ b @ u)
    state = pe.make_state(u, pe.Route.of(problem, p))
    x = b_sqrt @ u
    expected = (
        8.0
        * ctx.nu_min
        * (1.0 / ctx.lam1 - 1.0 / ctx.lam2)
        * ctx.norm_u_b
        / (math.pi**2 * math.sqrt(float(x @ c @ x)) * ctx.norm_u_a)
    )
    assert abs(pe.mu_x(state.uau, ctx) - expected) <= 1e-12 * expected


def test_a_positive_at_x_star_zero_at_phi():
    problem, p, ctx, a, b = random_ctx(40)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    u_at = ctx.u_star / math.sqrt(ctx.u_star @ b @ ctx.u_star)
    state = pe.make_state(u_at, pe.Route.of(problem, p))
    assert pe.a_x(ctx.cos_dist_b(state.u, u_b_norm=1.0), state.uau, ctx) > 0.0
    # construct a state at distance exactly phi
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    d = pe.Rng(6).normal(10)
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x_phi = pe.sphere_exp(x_star, ctx.phi * d)
    u_phi = b_inv_sqrt @ x_phi
    state_phi = pe.make_state(u_phi, pe.Route.of(problem, p))
    assert abs(pe.a_x(ctx.cos_dist_b(state_phi.u, u_b_norm=1.0), state_phi.uau, ctx)) <= 1e-8


def test_a_lower_bound_under_margin():
    problem, p, ctx, a, b = random_ctx(41)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    rng = pe.Rng(7)
    for k in range(100):
        c = 0.01 + 0.48 * rng.uniform(1)[0]
        target = min(1.0, ctx.cos_phi + c * ctx.sin_phi**2 + 1e-12)
        dist = math.acos(target) * rng.uniform(1)[0]
        d = rng.normal(10)
        d -= float(d @ x_star) * x_star
        d /= np.linalg.norm(d)
        x = pe.sphere_exp(x_star, dist * d)
        u = b_inv_sqrt @ x
        u /= math.sqrt(u @ b @ u)
        state = pe.make_state(u, pe.Route.of(problem, p))
        assert pe.a_x(ctx.cos_dist_b(state.u, u_b_norm=1.0), state.uau, ctx) >= c / ctx.kappa - 1e-10


def test_xi_consistency_with_parts():
    problem, p, ctx, a, b = random_ctx(42)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    rng = pe.Rng(8)
    for k in range(100):
        d = rng.normal(10)
        d -= float(d @ x_star) * x_star
        d /= np.linalg.norm(d)
        x = pe.sphere_exp(x_star, ((k + 0.5) / 100.0) * 0.99 * ctx.phi * d)
        u = b_inv_sqrt @ x
        u /= math.sqrt(u @ b @ u)
        xi, state = traced_xi(problem, p, ctx, u)
        a_val = pe.a_x(ctx.cos_dist_b(state.u, u_b_norm=1.0), state.uau, ctx)
        parts = a_val**2 * pe.mu_x(state.uau, ctx) / pe.gamma_x(state.uau, ctx)
        assert abs(xi - parts) <= 1e-12 * max(1.0, abs(parts))


def test_xi_nonpositive_outside_basin():
    problem, p, ctx, a, b = random_ctx(43)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    d = pe.Rng(9).normal(10)
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x = pe.sphere_exp(x_star, min(math.pi / 2.05, 1.15 * ctx.phi) * d)
    u = b_inv_sqrt @ x
    u /= math.sqrt(u @ b @ u)
    assert traced_xi(problem, p, ctx, u)[0] <= 0.0


def test_xi_approaches_xi_inf():
    problem, p, ctx, a, b = random_ctx(44)
    b_inv_sqrt = dense_roots(b)[1]
    b_sqrt = dense_roots(b)[0]
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    d = pe.Rng(10).normal(10)
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x = pe.sphere_exp(x_star, 1e-6 * d)
    u = b_inv_sqrt @ x
    u /= math.sqrt(u @ b @ u)
    assert abs(traced_xi(problem, p, ctx, u)[0] - pe.xi_inf(ctx)) <= 1e-6


def test_xi_inf_exact_preconditioner_closed_form():
    problem = dense_problem(DIAG)
    ctx = pe.build_rate_context(problem, pe.make_spd(DIAG))
    # kappa = 1, cos phi = 0: 4/pi^2 * (1 - 1/2)/(1 - 1/4) = 8/(3 pi^2)
    assert abs(pe.xi_inf(ctx) - 8.0 / (3.0 * math.pi**2)) <= 1e-9


@pytest.mark.parametrize("seed", [45, 46, 47])
def test_xi_inf_comparison_identity(seed):
    _, _, ctx, _, _ = random_ctx(seed)
    value = pe.xi_inf(ctx)
    rho_b = (ctx.kappa - 1.0) / (ctx.kappa + 1.0)
    rho = 1.0 - (1.0 - rho_b) * (1.0 - ctx.lam1 / ctx.lam2)
    via = (
        (1.0 - rho)
        * 2.0
        / (math.pi**2 * (1.0 + ctx.cos_phi) ** 2)
        * (ctx.kappa + 1.0)
        / ctx.kappa
        / (1.0 - ctx.lam1 / ctx.lamn)
    )
    assert abs(value - via) <= 1e-10 * value


# ---------------------------------------------------------------------------
# quality bundle
# ---------------------------------------------------------------------------


def test_quality_json_field_names():
    problem, p, _, _, _ = random_ctx(48)
    payload = pe.compute_quality(problem, p)
    assert set(payload) == {
        "nu_min",
        "nu_max",
        "kappa_nu",
        "cos2_phi",
        "one_minus_inv_kappa",
        "chi",
        "theta_shao",
        "rho_B",
        "rho",
        "xi_inf",
    }


def test_quality_mp_chol_includes_epsilon():
    prob = pe.kernel_matrix(kind="laplacian", n=48, d=48, seed=3, tau=0.0)
    payload = pe.compute_quality(prob, pe.make_mp_cholesky(prob.matrix))
    assert "epsilon_l" in payload and "epsilon_l_applicable" in payload


def test_quality_chi_na_for_exact():
    problem = dense_problem(DIAG)
    q = pe.compute_quality(problem, pe.make_spd(DIAG))
    assert q["chi"] is None
    assert q["cos2_phi"] <= 1e-12


def test_rho_b_equals_scaled_pencil_extremes():
    problem, p, ctx, a, b = random_ctx(49)
    scaled = pe.spectral_scale(p, ctx.nu_min, ctx.nu_max)
    nu_min_s, nu_max_s, _ = pe.kappa_nu(problem, scaled)
    explicit = max(abs(1.0 - nu_min_s), abs(1.0 - nu_max_s))
    assert abs(explicit - (ctx.kappa - 1.0) / (ctx.kappa + 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# starting conditions and success probabilities
# ---------------------------------------------------------------------------


def test_check_initial_at_eigenvector():
    problem, p, ctx, _, b = random_ctx(50)
    report = pe.check_initial(problem, p, ctx.u_star[None, :], ctx, u0_b_norm_sq=None)
    assert report["condition_new"][0] and report["condition_classic"][0]
    assert report["dist_b"][0] <= 1e-6


def test_check_initial_b_orthogonal():
    problem, p, ctx, _, b = random_ctx(51)
    w = ctx.w_star
    v = pe.Rng(11).normal(10)
    v -= (float(v @ w) / float(ctx.u_star @ w)) * ctx.u_star  # v^T B u* = 0
    report = pe.check_initial(problem, p, v[None, :], ctx, u0_b_norm_sq=None)
    assert not report["condition_new"][0]
    assert abs(report["dist_b"][0] - math.pi / 2.0) <= 1e-10


def test_check_initial_rejects_a_start_that_is_not_a_block():
    problem, p, ctx, _, _ = random_ctx(52)
    for u0 in (ctx.u_star, ctx.u_star[None, None, :]):
        with pytest.raises(DimensionMismatch):
            pe.check_initial(problem, p, u0, ctx, u0_b_norm_sq=None)


@pytest.mark.parametrize("recipe", ["mp-chol", "ddm:H=2^-1"])
def test_check_initial_on_a_block_equals_its_rows(recipe):
    # one forward B apply and one A apply for the whole block; an implicit B
    # (lifted DDM) runs its nested PCG column by column
    problem = build_problem("laplace-fem:h=2^-3")
    p = build_precond(recipe, problem)
    ctx = pe.build_rate_context(problem, p)
    rows = pe.Rng(12).normal(4 * problem.dim).reshape(4, problem.dim)
    rows[1] = ctx.u_star
    block = pe.check_initial(problem, p, rows, ctx, u0_b_norm_sq=None)
    for j, row in enumerate(rows):
        one = pe.check_initial(problem, p, row[None, :], ctx, u0_b_norm_sq=None)
        for key in ("condition_new", "condition_classic"):
            assert one[key][0] == block[key][j]
        # a last-bit change of cos dist_B near 1 moves its arccos by ~1e-8
        assert abs(one["dist_b"][0] - block["dist_b"][j]) <= 1e-7, j
        assert abs(one["lambda_u0"][0] - block["lambda_u0"][j]) <= 1e-12 * one["lambda_u0"][0], j
    rows[2] = 0.0
    with pytest.raises(ZeroVector):
        pe.check_initial(problem, p, rows, ctx, u0_b_norm_sq=None)


def mixed_starts(problem, ctx):
    """Eight Gaussian starts, the first four moved near u* so that both
    conditions hold for some and fail for others."""
    u0 = spawn_normal_rows(0, 8, problem.dim)
    for j, scale in enumerate([0.02, 0.05, 0.1, 0.2]):
        u0[j] = scale * u0[j] / np.linalg.norm(u0[j]) + ctx.u_star
    return u0


@pytest.mark.parametrize("problem_recipe", ["laplace-fem:h=2^-4", "laplace-fd:h=2^-5"])
def test_check_initial_b_norms_match_the_u_space_nested_pcg(problem_recipe, monkeypatch):
    """A DDM lifted to the FEM pencil has its starts' B-norms measured on the
    pencil, the DDM on the FD matrix in u-space; both agree with u^T z for
    z = B u by a nested PCG in u-space per start (4e-15 and 5e-15 relative
    measured), and both conditions come out as they do from those norms."""
    problem = build_problem(problem_recipe)
    p = build_precond("ddm:H=2^-2", problem)
    assert (p.pencil() is None) == problem_recipe.startswith("laplace-fd")
    ctx = pe.build_rate_context(problem, p)
    u0 = mixed_starts(problem, ctx)
    blocks = []
    real_b_norm_sq = solvers.Route.b_norm_sq

    def b_norm_sq(route, x):
        out = real_b_norm_sq(route, x)
        if x.ndim == 2:
            blocks.append(out)
        return out

    monkeypatch.setattr(solvers.Route, "b_norm_sq", b_norm_sq)
    report = pe.check_initial(problem, p, u0, ctx, u0_b_norm_sq=None)
    exact = p.exact()
    ref = np.array([u @ pe.apply_fwd_iterative(exact, u, apply_a=problem.apply_a) for u in u0])
    (norms,) = blocks
    assert np.all(np.abs(norms - ref) <= 1e-12 * ref)
    dist = np.arccos(ctx.cos_dist_b(u0, np.sqrt(ref)))
    assert np.array_equal(report["condition_new"], dist < ctx.phi)
    assert 0 < np.count_nonzero(report["condition_new"]) < len(u0)
    lam = np.array([u @ problem.apply_a(u) / (u @ u) for u in u0])
    assert np.array_equal(report["condition_classic"], lam < ctx.lam2)
    assert 0 < np.count_nonzero(report["condition_classic"]) < len(u0)


def test_check_initial_b_norms_of_a_lifted_b_make_no_r_product(monkeypatch):
    """On the pencil the B-norms and the Rayleigh quotients of a block cost
    one R solve for the block, x = R^{-1} u0, and no other R work.  The
    u-space route made an R product and an R^T product per nested-PCG
    iteration, and A u0 an R solve and an R^T solve."""
    problem = build_problem("laplace-fem:h=2^-4")
    p = build_precond("ddm:H=2^-2", problem)
    ctx = pe.build_rate_context(problem, p)
    u0 = mixed_starts(problem, ctx)
    r = problem.pencil[2]
    calls = collections.Counter()

    def counted(name):
        method = getattr(r, name)

        def wrapper(v):
            calls[name] += 1
            return method(v)

        return wrapper

    for name in ("solve", "solve_t", "mult", "mult_t"):
        monkeypatch.setattr(r, name, counted(name))
    pe.check_initial(problem, p, u0, ctx, u0_b_norm_sq=None)
    assert calls == {"solve": 1}


def test_lifted_ddm_rate_context_matches_the_u_space_nested_pcg():
    """A lifted DDM's B u* is its nested PCG on the pencil, R^{-T} of the PCG
    on (P, K) from R^{-1} u*.  It agrees with a nested PCG in u-space on
    (Bhat, A) run to 1e-13, and so does cos phi (2.1e-10 and 2.4e-14
    relative measured)."""
    problem = build_problem("laplace-fem:h=2^-4")
    p = build_precond("ddm:H=2^-2", problem)
    ctx = pe.build_rate_context(problem, p)
    exact, u = p.exact(), ctx.u_star
    w = tight_fwd(exact, u, problem.apply_a, 1e-13)
    _, cos_phi = pe.distortion_angle(u, w, exact.apply_inv(u), exact.apply_inv)
    assert np.linalg.norm(ctx.w_star - w) <= 1e-9 * np.linalg.norm(w)
    assert abs(ctx.cos_phi - cos_phi) <= 1e-12 * cos_phi


def test_success_probability_rejects_a_sampler_before_the_context(monkeypatch):
    def no_context(*args):
        raise AssertionError("built a rate context")

    monkeypatch.setattr(diagnostics, "build_rate_context", no_context)
    problem = dense_problem(DIAG)
    with pytest.raises(ValueError, match="unknown sampler"):
        pe.success_probability(problem, pe.make_identity(), "uniform", 10, 0, ctx=None)


def test_success_probability_exact_preconditioner():
    a, _ = random_spd_pair(53, 12)
    problem = dense_problem(a)
    p = pe.make_spd(a)
    ctx = pe.build_rate_context(problem, p)
    rep = pe.success_probability(problem, p, sampler="gaussian", trials=50, seed=1, ctx=ctx)
    assert rep["p_new"] == 1.0  # cos phi = 0: almost surely inside


def test_success_probability_deterministic_per_seed():
    problem, p, ctx, _, _ = random_ctx(54)
    r1 = pe.success_probability(problem, p, "smooth", 40, 9, ctx=ctx)
    r2 = pe.success_probability(problem, p, "smooth", 40, 9, ctx=ctx)
    assert r1 == r2


@pytest.mark.parametrize("sampler", ["gaussian", "smooth"])
def test_success_probability_checks_one_start_per_spawned_seed(sampler):
    problem, p, ctx, _, _ = random_ctx(55, n=11)
    rep = pe.success_probability(problem, p, sampler, 40, 9, ctx=ctx)
    hits = np.zeros(2, dtype=int)
    for t in range(40):
        omega = pe.Rng(spawn_seed(9, t)).normal(11)
        if sampler == "smooth":
            u0 = p.exact().apply_inv(omega)
            report = pe.check_initial(problem, p, u0[None, :], ctx, u0_b_norm_sq=float(u0 @ omega))
        else:
            report = pe.check_initial(problem, p, omega[None, :], ctx, u0_b_norm_sq=None)
        hits += [report["condition_new"][0], report["condition_classic"][0]]
    assert (rep["successes_new"], rep["successes_classic"]) == tuple(hits)


# ---------------------------------------------------------------------------
# property validation
# ---------------------------------------------------------------------------


def test_validate_diag_identity_passes():
    rep = pe.validate_properties(DIAG, np.eye(3), n_samples=500, seed=0, label="", inject_bug=None)
    assert not rep.violations, rep.violations[:3]
    assert rep.checked["i"] == 500 and rep.checked["vi"] == 1 and rep.checked["vii"] > 0


def test_validate_random_pair_passes():
    a, b = random_spd_pair(9, 12)
    rep = pe.validate_properties(a, b, n_samples=500, seed=9, label="", inject_bug=None)
    assert not rep.violations, rep.violations[:3]


def test_validate_bug_injection_fails_at_iii():
    a, b = random_spd_pair(9, 12)
    rep = pe.validate_properties(a, b, n_samples=200, seed=9, label="", inject_bug="a_x_sign")
    assert rep.violations
    assert any(v["check"] == "iii" for v in rep.violations)
    # counterexample vector is carried with the violation
    assert all("x" in v for v in rep.violations)


def test_validate_evaluates_the_solver_rate_functions(monkeypatch):
    # a 100x mu in diagnostics.mu_x must surface as (ii) violations
    a, b = random_spd_pair(0, 6)
    assert not pe.validate_properties(a, b, n_samples=100, seed=0, label="", inject_bug=None).violations
    mu_x = diagnostics.mu_x
    monkeypatch.setattr(diagnostics, "mu_x", lambda uau, ctx: 100.0 * mu_x(uau, ctx))
    rep = pe.validate_properties(a, b, n_samples=100, seed=0, label="", inject_bug=None)
    assert any(v["check"] == "ii" for v in rep.violations)


RATE_CONTEXT_SCALARS = (
    "lam1", "lam2", "lamn", "nu_min", "nu_max",
    "norm_u_a", "norm_u_b", "norm_u_binv", "sin_phi",
)


@pytest.mark.parametrize("kind", ["identity", "random-spd", "mp-chol"])
def test_dense_oracle_context_matches_build_rate_context(kind):
    # the explicit-B oracle against the make_spd route of build_rate_context
    for seed in range(5):
        for n in (6, 12, 20):
            a, b = dense_pencil(seed, n, kind)
            got = _DenseOracle(a, b).ctx
            ref = pe.build_rate_context(dense_problem(a), pe.make_spd(b))
            label = f"seed={seed},n={n},B={kind}"
            for name in RATE_CONTEXT_SCALARS:
                x, y = getattr(got, name), getattr(ref, name)
                assert abs(x - y) <= 1e-12 * abs(y), (label, name)
            assert abs(got.cos_phi - ref.cos_phi) <= 1e-6 * ref.cos_phi, label
            sign = 1.0 if float(got.u_star @ ref.u_star) > 0 else -1.0
            for name in ("u_star", "w_star"):
                x, y = sign * getattr(got, name), getattr(ref, name)
                assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y), (label, name)


@pytest.mark.parametrize("inject_bug", [None, "a_x_sign"])
@pytest.mark.parametrize("kind", ["identity", "random-spd", "mp-chol"])
def test_validate_on_lapack_agrees_with_the_jacobi_oracle(kind, inject_bug, monkeypatch):
    # validate_properties on the LAPACK spectra against the same run on the
    # independent Jacobi solver of tests/jacobi.py: the same checks, the same
    # violations in the same order, and the same ctx to 1e-12 (cos phi, about
    # 1e-8 for mp-chol, to 1e-6 as in the test above)
    def run(a, b, seed, n):
        ctx = _DenseOracle(a, b).ctx
        rep = pe.validate_properties(
            a, b, n_samples=500, seed=spawn_seed(seed, n), label=f"seed={seed},n={n}",
            inject_bug=inject_bug,
        )
        return ctx, rep.checked, [(v["check"], v["label"]) for v in rep.violations]

    cases = [(seed, n, *dense_pencil(seed, n, kind)) for seed in range(2) for n in (6, 12, 20)]
    lapack = [run(a, b, seed, n) for seed, n, a, b in cases]
    monkeypatch.setattr(diagnostics, "dense_sym_eig", jacobi.dense_sym_eig)
    for (seed, n, a, b), (ctx, checked, violations) in zip(cases, lapack):
        ref_ctx, ref_checked, ref_violations = run(a, b, seed, n)
        assert checked == ref_checked and violations == ref_violations, (seed, n)
        for name in RATE_CONTEXT_SCALARS:
            x, y = getattr(ctx, name), getattr(ref_ctx, name)
            assert abs(x - y) <= 1e-12 * abs(y), (seed, n, name)
        assert abs(ctx.cos_phi - ref_ctx.cos_phi) <= 1e-6 * ref_ctx.cos_phi, (seed, n)


@pytest.mark.parametrize("seed, n", [(13, 6), (2025, 12), (0, 20)])
def test_dense_oracle_mp_chol_matches_extended_precision(seed, n):
    # near-exact mixed precision, where kappa - 1 and cos phi are ~1e-7 and
    # ~1e-8: the validate oracle's values against 40-digit ones, kappa - 1
    # from the pencil spectrum of (A, B) and cos phi as in
    # test_distortion_angle_matches_extended_precision
    mpmath = pytest.importorskip("mpmath")
    a, b = dense_pencil(seed, n, "mp-chol")
    ctx = _DenseOracle(a, b).ctx
    with mpmath.workdps(40):
        a_mp, b_mp = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        linv = mpmath.inverse(mpmath.cholesky(b_mp))
        nu = sorted(mpmath.eigsy(linv * a_mp * linv.T, eigvals_only=True))
        kappa_ref = float(nu[-1] / nu[0] - 1)
        w, q = mpmath.eigsy(a_mp)
        u = q[:, min(range(n), key=lambda k: w[k])]
        sin_mp = (u.T * u)[0] / mpmath.sqrt((u.T * b_mp * u)[0] * (u.T * mpmath.lu_solve(b_mp, u))[0])
        cos_ref = float(mpmath.sqrt(1 - sin_mp**2))
    assert abs((ctx.kappa - 1.0) - kappa_ref) <= 1e-7 * kappa_ref
    assert abs(ctx.cos_phi - cos_ref) <= 1e-7 * cos_ref


def test_validate_rejects_indefinite():
    with pytest.raises(PropertyViolation):
        pe.validate_properties(
            np.diag([1.0, -1.0]), np.eye(2), n_samples=10, seed=0, label="", inject_bug=None
        )
