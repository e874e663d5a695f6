import math

import numpy as np
import pytest

import precondeig as pe
from precondeig.errors import AntipodalOrEqual, NotTangent
from precondeig.precond import OperatorPreconditioner
from tests.conftest import dense_roots, u_space_route


def random_spd(seed, n):
    g = pe.Rng(seed).normal(n * n).reshape(n, n)
    return g @ g.T / n + np.eye(n)


def _dist_b(u, v, apply_b):
    """Reference B-metric angle arccos(|u^T B v| / (||u||_B ||v||_B)) in [0, pi/2]."""
    bu, bv = apply_b(u), apply_b(v)
    return math.acos(min(1.0, abs(float(u @ bv)) / math.sqrt(float(u @ bu) * float(v @ bv))))


DIAG = np.diag([1.0, 2.0, 4.0])
apply_diag = lambda v: DIAG @ v  # noqa: E731


def route(apply_a, apply_b_inv):
    """The u-space Route of A and B^{-1} given as callables."""
    return u_space_route(apply_a, OperatorPreconditioner(apply_b_inv, None))


# ---------------------------------------------------------------------------
# Objective value
# ---------------------------------------------------------------------------


def test_f_value_minimum_and_direct():
    # f does not depend on B
    assert pe.make_state(np.array([1.0, 0.0, 0.0]), route(apply_diag, lambda v: v)).f == -1.0
    assert abs(pe.make_state(np.ones(3), route(apply_diag, lambda v: v)).f - (-3.0 / 7.0)) <= 1e-15


def test_f_value_matches_x_space_oracle():
    n = 20
    a = random_spd(21, n)
    b = random_spd(22, n)
    b_sqrt, _, b_inv = dense_roots(b)
    c = np.linalg.multi_dot([np.linalg.inv(b_sqrt), a, np.linalg.inv(b_sqrt)])
    for seed in range(5):
        u = pe.Rng(seed).normal(n)
        x = b_sqrt @ u
        x /= np.linalg.norm(x)
        expected = -float(x @ b_inv @ x) / float(x @ c @ x)
        got = pe.make_state(u, route(lambda v: a @ v, lambda v: v)).f
        assert abs(got - expected) <= 1e-10 * abs(expected)


# ---------------------------------------------------------------------------
# gradient norm via the u-space identity
# ---------------------------------------------------------------------------


def _xspace_grad(a, b, x):
    _, _, b_inv = dense_roots(b)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    c = b_inv_sqrt @ a @ b_inv_sqrt
    xcx = float(x @ c @ x)
    f = -float(x @ b_inv @ x) / xcx
    g = -2.0 * (b_inv @ x + f * (c @ x)) / xcx
    return g - float(x @ g) * x


def test_grad_zero_at_eigenvector():
    b = random_spd(30, 3)
    state = pe.make_state(
        np.array([1.0, 0.0, 0.0]), route(apply_diag, lambda v: np.linalg.solve(b, v))
    )
    assert state.g2 <= 1e-24


def test_grad_matches_dense_oracle_identity_b():
    u = np.ones(3) / math.sqrt(3.0)
    state = pe.make_state(u, route(apply_diag, lambda v: v))
    x = u.copy()  # B = I: x = u
    g = _xspace_grad(DIAG, np.eye(3), x)
    assert abs(state.g2 - float(g @ g)) <= 1e-12


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_grad_matches_dense_oracle_random(seed):
    n = 15
    a = random_spd(seed, n)
    b = random_spd(seed + 50, n)
    b_sqrt, b_inv_sqrt, b_inv = dense_roots(b)
    u = pe.Rng(seed).normal(n)
    u /= math.sqrt(u @ b @ u)  # ||u||_B = 1, as the identity requires
    state = pe.make_state(u, route(lambda v: a @ v, lambda v: np.linalg.solve(b, v)))
    x = b_sqrt @ u
    g = _xspace_grad(a, b, x / np.linalg.norm(x))
    assert abs(state.g2 - float(g @ g)) <= 1e-10 * max(1.0, float(g @ g))


def test_grad_zero_iff_residual_zero():
    b = random_spd(31, 3)
    b_inv_apply = lambda v: np.linalg.solve(b, v)  # noqa: E731
    at_eig = pe.make_state(np.array([1.0, 0.0, 0.0]), route(apply_diag, b_inv_apply))
    assert np.linalg.norm(at_eig.r) <= 1e-12 * at_eig.lam * math.sqrt(at_eig.uu)
    assert at_eig.g2 <= 1e-24
    away = pe.make_state(np.ones(3), route(apply_diag, b_inv_apply))
    assert np.linalg.norm(away.r) > 1e-6
    assert away.g2 > 1e-12


# ---------------------------------------------------------------------------
# B-metric distance
# ---------------------------------------------------------------------------


def test_dist_b_same_vector():
    b = random_spd(33, 4)
    v = pe.Rng(1).normal(4)
    assert _dist_b(v, v, lambda u: b @ u) <= 1e-7


def test_dist_b_orthogonal_identity():
    e1, e2 = np.eye(2)
    assert abs(_dist_b(e1, e2, lambda u: u) - math.pi / 2.0) <= 1e-15


def test_dist_b_matches_x_space_angle():
    n = 10
    b = random_spd(34, n)
    b_sqrt, _, _ = dense_roots(b)
    u = pe.Rng(2).normal(n)
    v = pe.Rng(3).normal(n)
    xu = b_sqrt @ u
    xv = b_sqrt @ v
    xu /= np.linalg.norm(xu)
    xv /= np.linalg.norm(xv)
    expected = math.acos(min(1.0, abs(float(xu @ xv))))
    got = _dist_b(u, v, lambda w: b @ w)
    assert abs(got - expected) <= 1e-10


def test_dist_b_sign_convention():
    b = random_spd(35, 6)
    u = pe.Rng(4).normal(6)
    v = pe.Rng(5).normal(6)
    assert abs(_dist_b(u, v, lambda w: b @ w) - _dist_b(u, -v, lambda w: b @ w)) <= 1e-14


# ---------------------------------------------------------------------------
# sphere exp / log / dist
# ---------------------------------------------------------------------------


def test_exp_zero_tangent():
    x = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(pe.sphere_exp(x, np.zeros(3)), x)


def test_exp_quarter_circle():
    e1, e2, _ = np.eye(3)
    y = pe.sphere_exp(e1, (math.pi / 2.0) * e2)
    assert np.allclose(y, e2, atol=1e-15)


def test_exp_geodesic_property():
    rng = pe.Rng(7)
    for _ in range(20):
        x = rng.normal(5)
        x /= np.linalg.norm(x)
        t = rng.normal(5)
        t -= float(x @ t) * x
        t *= (0.1 + 2.9 * rng.uniform(1)[0]) / np.linalg.norm(t)  # lengths in (0.1, 3) < pi
        y = pe.sphere_exp(x, t)
        assert abs(pe.sphere_dist(x, y) - np.linalg.norm(t)) <= 1e-12


def test_exp_rejects_non_tangent():
    x = np.array([1.0, 0.0])
    with pytest.raises(NotTangent):
        pe.sphere_exp(x, np.array([1.0, 1.0]))


def test_log_same_point_zero():
    x = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(pe.sphere_log(x, x), np.zeros(3))


def test_log_eighth_circle():
    e1, e2, _ = np.eye(3)
    y = (e1 + e2) / math.sqrt(2.0)
    t = pe.sphere_log(e1, y)
    assert np.allclose(t, (math.pi / 4.0) * e2, atol=1e-15)


def test_log_antipodal_raises():
    x = np.array([1.0, 0.0])
    with pytest.raises(AntipodalOrEqual):
        pe.sphere_log(x, -x)


def test_exp_log_roundtrip():
    rng = pe.Rng(8)
    for _ in range(30):
        x = rng.normal(6)
        x /= np.linalg.norm(x)
        y = rng.normal(6)
        y /= np.linalg.norm(y)
        if float(x @ y) < 0:
            y = -y  # keep dist < pi/2
        t = pe.sphere_log(x, y)
        assert np.linalg.norm(pe.sphere_exp(x, t) - y) <= 1e-12


def test_dist_trivials():
    e1, e2 = np.eye(2)
    assert pe.sphere_dist(e1, e1) == 0.0
    assert abs(pe.sphere_dist(e1, e2) - math.pi / 2.0) <= 1e-15
    assert abs(pe.sphere_dist(e1, -e1) - math.pi) <= 1e-15


def test_dist_chord_sandwich():
    rng = pe.Rng(9)
    checked = 0
    for _ in range(200):
        x = rng.normal(4)
        x /= np.linalg.norm(x)
        y = rng.normal(4)
        y /= np.linalg.norm(y)
        d = pe.sphere_dist(x, y)
        if d > math.pi / 2.0:
            continue
        chord = np.linalg.norm(x - y)
        assert chord <= d + 1e-14
        assert d <= (math.pi / 2.0) * chord + 1e-14
        checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# u-space / x-space consistency across all quantities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed,n", [(50, 8), (51, 14), (52, 20)])
def test_u_x_consistency(seed, n):
    a = random_spd(seed, n)
    b = random_spd(seed + 10, n)
    b_sqrt, b_inv_sqrt, b_inv = dense_roots(b)
    c = b_inv_sqrt @ a @ b_inv_sqrt
    rng = pe.Rng(seed)
    for _ in range(10):
        u = rng.normal(n)
        u /= math.sqrt(u @ b @ u)
        x = b_sqrt @ u
        x /= np.linalg.norm(x)
        f_x = -float(x @ b_inv @ x) / float(x @ c @ x)
        state = pe.make_state(u, route(lambda v: a @ v, lambda v: np.linalg.solve(b, v)))
        assert abs(state.f - f_x) <= 1e-10 * abs(f_x)
        g = _xspace_grad(a, b, x)
        g2 = float(g @ g)
        assert abs(state.g2 - g2) <= 1e-10 * max(1.0, g2)
        v = rng.normal(n)
        xv = b_sqrt @ v
        xv /= np.linalg.norm(xv)
        d_x = math.acos(min(1.0, abs(float(x @ xv))))
        assert abs(_dist_b(u, v, lambda w: b @ w) - d_x) <= 1e-10


# ---------------------------------------------------------------------------
# make_state in pencil coordinates
# ---------------------------------------------------------------------------

STATE_SCALARS = ("uu", "uau", "lam", "f", "g2", "r_binv_r")


def make_state_u_space(u, apply_a, apply_b_inv):
    """make_state's u-space arithmetic, field by field."""
    uu = float(u @ u)
    au = apply_a(u)
    uau = float(u @ au)
    lam = uau / uu
    r = au - lam * u
    b_inv_r = apply_b_inv(r)
    r_binv_r = max(0.0, float(r @ b_inv_r))
    return {"uu": uu, "uau": uau, "lam": lam, "f": -uu / uau, "r": r,
            "b_inv_r": b_inv_r, "r_binv_r": r_binv_r, "g2": (2.0 * uu / uau**2) ** 2 * r_binv_r}


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_make_state_pencil_matches_u_space(seed):
    # pencil (K, M) with M = R^T R; u-space runs on Ahat = R^-T K R^-1 and
    # Bhat^-1 = R B^-1 R^T, pencil coordinates on x = R^-1 u
    n = 12
    k, m, b = random_spd(seed, n), random_spd(seed + 1, n), random_spd(seed + 2, n)
    r = np.linalg.cholesky(m).T
    r_inv = np.linalg.inv(r)
    a_hat = r_inv.T @ k @ r_inv
    b_hat_inv = r @ np.linalg.solve(b, r.T)
    x = pe.Rng(seed).normal(n)
    u = r @ x
    on_pencil = pe.Route(
        b=OperatorPreconditioner(lambda v: np.linalg.solve(b, v), None),
        apply_a=lambda v: k @ v,
        apply_m=lambda v: m @ v,
        to_x=lambda v: np.linalg.solve(r, v),
        to_u=lambda v: r @ v,
        residual_to_u=lambda v: np.linalg.solve(r.T, v),
    )
    pencil = pe.make_state(x, on_pencil)
    reduced = pe.make_state(u, route(lambda v: a_hat @ v, lambda v: b_hat_inv @ v))
    for name in STATE_SCALARS:
        want = getattr(reduced, name)
        assert abs(getattr(pencil, name) - want) <= 1e-13 * abs(want), name
    assert np.array_equal(pencil.u, u)
    # the residual maps as r = R^-T s
    assert np.linalg.norm(r_inv.T @ pencil.r - reduced.r) <= 1e-13 * np.linalg.norm(reduced.r)


def test_make_state_on_the_u_space_route_is_the_u_space_call():
    n = 12
    a, b = random_spd(63, n), random_spd(64, n)
    u = pe.Rng(65).normal(n)

    def apply_a(v):
        return a @ v

    def apply_b_inv(v):
        return np.linalg.solve(b, v)

    problem = pe.EigenProblem(dim=n, apply_a=apply_a)
    state = pe.make_state(u, pe.Route.of(problem, OperatorPreconditioner(apply_b_inv, None)))
    want = make_state_u_space(u, apply_a, apply_b_inv)
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(state, name), value), name
        else:
            assert getattr(state, name) == value, name
    assert state.u is state.x
