import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import precondeig as pe
from precondeig import linalg
from precondeig.errors import (
    BreakdownNonSpd,
    DegenerateSmallestEigenvalue,
    DimensionMismatch,
    InnerProductNotPositive,
    MaxIterations,
    NoConvergence,
    NotSpd,
    NotSpdInLowPrecision,
)
from precondeig.linalg import (
    SymFactor,
    _lanczos_top_value,
    _lanczos_tridiag,
    _ritz,
    hash_label,
    lanczos_top_pairs,
    spawn_normal_rows,
    spawn_seed,
)
from tests import jacobi
from tests.conftest import fd_eigenvalue
from tests.jacobi import _jacobi_plan, _round_robin


def random_spd(seed, n, shift=None):
    g = pe.Rng(seed).normal(n * n).reshape(n, n)
    a = g @ g.T / n + (shift if shift is not None else 1.0) * np.eye(n)
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    assert np.array_equal(pe.Rng(0).normal(4), pe.Rng(0).normal(4))
    assert np.array_equal(pe.gaussian_vector(pe.Rng(0), 4), pe.gaussian_vector(pe.Rng(0), 4))


def test_rng_different_seeds_differ():
    assert not np.array_equal(pe.Rng(0).normal(4), pe.Rng(1).normal(4))


def test_rng_counter_mode_is_batch_independent():
    r = pe.Rng(42)
    a = np.concatenate([r.uniform(3), r.uniform(5)])
    assert np.array_equal(a, pe.Rng(42).uniform(8))


def _box_muller(rng, count):
    # one normal(count) draw written out on the raw stream: u1 from the first
    # ceil(count/2) draws, u2 from the next as many
    pairs = (count + 1) // 2
    u1 = ((rng.raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = rng.uniform(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:count]


@pytest.mark.parametrize("n", [1, 6, 7, 20])
def test_rng_normal_rows_equals_consecutive_normal_calls(n):
    rows = 2 * 500  # the x and xi draws of 500 validation samples
    block_rng, call_rng, ref_rng = pe.Rng(77), pe.Rng(77), pe.Rng(77)
    block = block_rng.normal_rows(rows, n)
    calls = np.stack([call_rng.normal(n) for _ in range(rows)])
    ref = np.stack([_box_muller(ref_rng, n) for _ in range(rows)])
    assert block.shape == (rows, n)
    assert np.array_equal(block, calls) and np.array_equal(block, ref)
    assert block_rng.counter == call_rng.counter == ref_rng.counter
    # the stream continues in the same place
    assert np.array_equal(block_rng.normal(n), call_rng.normal(n))


def test_gaussian_moments_seed5():
    # law-of-large-numbers bounds at n = 1e5
    n = 100_000
    x = pe.gaussian_vector(pe.Rng(5), n)
    assert abs(x.mean()) <= 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) <= 0.05


def test_spawn_seed_deterministic_and_distinct():
    assert spawn_seed(7, 0) == spawn_seed(7, 0)
    assert spawn_seed(7, 0) != spawn_seed(7, 1)
    assert spawn_seed(7, 0) != spawn_seed(8, 0)
    # literal values pin the streams: a change here changes every seeded run
    assert spawn_seed(7, 0) == 236966933211079599
    assert spawn_seed(-1, 2**64 - 1) == 13029008266876403067
    assert hash_label("prob-kernel:128") == 14047381086774974555
    assert spawn_seed(0, hash_label("prob-kernel:128")) == 448333765690293265
    assert hash_label("prob-ddm:0.125") == 5517552435319254165
    assert spawn_normal_rows(7, 3, 5)[0].tolist() == [
        1.0197989499362454, 0.6498741162857791, -0.10286861386057643,
        -0.8976217160398987, 0.4707525063263136,
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 20])
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 5])
def test_spawn_normal_rows_equals_one_normal_call_per_spawned_seed(seed, n):
    rows = 9
    block = spawn_normal_rows(seed, rows, n)
    calls = np.stack([pe.Rng(spawn_seed(seed, t)).normal(n) for t in range(rows)])
    assert block.shape == (rows, n)
    assert block.tobytes() == calls.tobytes()


# ---------------------------------------------------------------------------
# Cholesky at two precisions
# ---------------------------------------------------------------------------


def test_cholesky_identity():
    f = pe.cholesky(np.eye(3), "binary64")
    assert np.array_equal(f.l, np.eye(3))


def test_cholesky_diag():
    f = pe.cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(f.l, np.diag([2.0, 3.0]), atol=0)


def test_cholesky_binary32_factor_vs_binary64_oracle():
    a = random_spd(1, 8, shift=8.0)
    f32 = pe.cholesky(a, "binary32")
    assert f32.l.dtype == np.float32
    l64 = f32.l.astype(np.float64)
    kappa = np.linalg.cond(a)
    rel = np.linalg.norm(l64 @ l64.T - a) / np.linalg.norm(a)
    assert rel <= 10 * 8 * 2.0**-24 * kappa


@pytest.mark.parametrize("precision,unit", [("binary64", 2.0**-53), ("binary32", 2.0**-24)])
@pytest.mark.parametrize("n", [2, 5, 16, 40])
def test_cholesky_roundtrip_bound(precision, unit, n):
    a = random_spd(n, n, shift=2.0)
    f = pe.cholesky(a, precision)
    l64 = f.l.astype(np.float64)
    rel = np.linalg.norm(l64 @ l64.T - a) / np.linalg.norm(a)
    assert rel <= 100 * n * unit


def test_cholesky_not_spd_reports_pivot():
    m = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotSpd) as err:
        pe.cholesky(m)
    assert err.value.pivot == 1
    with pytest.raises(NotSpdInLowPrecision):
        pe.cholesky(m, "binary32")


def cholesky_column_loop(m):
    """The binary64 column loop that dpotrf replaced, kept as the reference."""
    a = np.array(m, dtype=np.float64)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    l = np.zeros_like(a)  # noqa: E741
    for j in range(n):
        c = a[j:, j] - l[j:, :j] @ l[j, :j]
        d = c[0]
        if not d > 0:
            raise NotSpd(j)
        l[j, j] = np.sqrt(d)
        l[j + 1 :, j] = c[1:] / l[j, j]
    return l


@pytest.mark.parametrize("n", [1, 6, 20, 128])
def test_cholesky_binary64_matches_column_loop(n):
    a = random_spd(n + 50, n, shift=0.1)
    got = pe.cholesky(a).l
    want = cholesky_column_loop(a)
    assert got.dtype == np.float64 and np.array_equal(got, np.tril(got))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("pivot", [0, 3, 7])
def test_cholesky_binary64_not_spd_pivot_matches_column_loop(pivot):
    m = random_spd(pivot, 9)
    m[pivot, pivot] = -1.0
    with pytest.raises(NotSpd) as want:
        cholesky_column_loop(m)
    with pytest.raises(NotSpd) as got:
        pe.cholesky(m)
    assert not isinstance(got.value, NotSpdInLowPrecision)
    assert got.value.pivot == want.value.pivot == pivot


def test_chol_solve_identity_and_diag():
    f = pe.cholesky(np.eye(4))
    v = np.arange(4.0)
    assert np.array_equal(pe.chol_solve(f, v), v)
    f = pe.cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(pe.chol_solve(f, np.array([4.0, 9.0])), [1.0, 1.0], atol=0)


def test_chol_solve_binary32_vs_binary64():
    a = random_spd(1, 8, shift=8.0)
    f32, f64 = pe.cholesky(a, "binary32"), pe.cholesky(a, "binary64")
    e1 = np.zeros(8)
    e1[0] = 1.0
    x32, x64 = pe.chol_solve(f32, e1), pe.chol_solve(f64, e1)
    assert x32.dtype == np.float64
    rel = np.linalg.norm(x32 - x64) / np.linalg.norm(x64)
    assert rel <= np.linalg.cond(a) * 1e-5


def solve_triangular_pair(f, rhs):
    """chol_solve as two scipy.linalg.solve_triangular calls."""
    b = np.asarray(rhs, dtype=np.float64).astype(f.l.dtype)
    y = scipy.linalg.solve_triangular(f.l, b, lower=True, check_finite=False)
    x = scipy.linalg.solve_triangular(f.l.T, y, lower=False, check_finite=False)
    return x.astype(np.float64)


@pytest.mark.parametrize("kind", ["binary64", "binary64-twin", "binary32"])
def test_chol_solve_equals_solve_triangular_pair_bit_for_bit(kind):
    a = random_spd(5, 40)
    if kind == "binary64":
        f = pe.cholesky(a)
        assert f.l.flags.f_contiguous  # as dpotrf returns it
    else:
        f = pe.cholesky(a, "binary32")
        if kind == "binary64-twin":  # the binary64 copy a mixed-precision B is measured on
            f = pe.CholFactor(f.l.astype(np.float64))
        assert f.l.flags.c_contiguous and not f.l.flags.f_contiguous
    for seed in range(3):
        rhs = pe.Rng(seed).normal(40)
        assert pe.chol_solve(f, rhs).tobytes() == solve_triangular_pair(f, rhs).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("precision, dtype", [("binary64", np.float64), ("binary32", np.float32)])
def test_chol_solve_zero_pivot_raises_not_spd(precision, dtype, order):
    l = np.tril(np.ones((4, 4), dtype=dtype))  # noqa: E741
    l[2, 2] = 0.0
    f = pe.CholFactor(np.asarray(l, order=order))
    with pytest.raises(NotSpd) as err:
        pe.chol_solve(f, np.ones(4))
    assert err.value.pivot == 2


def test_chol_solve_dimension_mismatch():
    f = pe.cholesky(np.eye(3))
    with pytest.raises(DimensionMismatch):
        pe.chol_solve(f, np.ones(4))


# ---------------------------------------------------------------------------
# PCG
# ---------------------------------------------------------------------------


def test_pcg_identity_converges_immediately():
    v = np.array([1.0, -2.0, 3.0])
    x, it = pe.pcg(lambda u: u, lambda u: u, v, tol=1e-14, maxit=30, x0=np.zeros(3))
    assert np.allclose(x, v, atol=0)
    assert it <= 1


def test_pcg_zero_rhs_returns_zero_without_applying_a():
    def refuse(u):
        raise AssertionError("applied an operator")

    x, it = pe.pcg(refuse, refuse, np.zeros(3), tol=1e-12, maxit=30, x0=np.ones(3))
    assert np.array_equal(x, np.zeros(3)) and it == 0


def test_pcg_diag_exact_in_n_steps():
    d = np.diag([1.0, 2.0, 4.0])
    x, it = pe.pcg(lambda u: d @ u, np.copy, np.ones(3), tol=1e-12, maxit=30, x0=np.zeros(3))
    assert it <= 3
    assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-12)


def _textbook_cg(matvec, b, tol):
    # independent plain CG used as the iteration-count oracle
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    bn = np.linalg.norm(b)
    for k in range(1, 10 * len(b)):
        ap = matvec(p)
        alpha = rr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bn:
            return x, k
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise AssertionError("oracle CG did not converge")


def test_pcg_fd_laplacian_matches_direct_solve_and_oracle_iterations():
    prob = pe.laplace_fd(1.0 / 16.0)
    a = prob.matrix
    rhs = pe.gaussian_vector(pe.Rng(2), prob.dim)
    x, it = pe.pcg(lambda u: a @ u, np.copy, rhs, tol=1e-10, maxit=10 * prob.dim, x0=np.zeros(prob.dim))
    assert np.linalg.norm(rhs - a @ x) <= 1e-10 * np.linalg.norm(rhs)
    x_direct = prob.solver()(rhs)
    assert np.linalg.norm(x - x_direct) <= 1e-8 * np.linalg.norm(x_direct)
    _, it_oracle = _textbook_cg(lambda u: a @ u, rhs, 1e-10)
    assert it == it_oracle


def test_pcg_a_norm_error_monotone():
    a = random_spd(3, 12, shift=0.5)
    rhs = pe.gaussian_vector(pe.Rng(4), 12)
    exact = np.linalg.solve(a, rhs)
    errors, converged, k = [], False, 0
    while not converged:
        # iterate k: the best iterate of a run with budget k, or the solution
        # of the first run that converges within its budget
        k += 1
        try:
            x, _ = pe.pcg(lambda u: a @ u, np.copy, rhs, tol=1e-13, maxit=k, x0=np.zeros(12))
            converged = True
        except MaxIterations as err:
            x = err.best
        e = x - exact
        errors.append(float(e @ a @ e))
    assert len(errors) >= 5
    assert all(later <= earlier + 1e-12 for earlier, later in zip(errors, errors[1:]))


def test_pcg_negative_curvature_breaks_down():
    m = np.diag([1.0, -1.0])
    with pytest.raises(BreakdownNonSpd):
        pe.pcg(lambda u: m @ u, np.copy, np.array([1.0, 1.0]), tol=1e-12, maxit=20, x0=np.zeros(2))


def test_pcg_maxiter_carries_best_iterate():
    prob = pe.laplace_fd(1.0 / 8.0)
    rhs = np.ones(prob.dim)
    with pytest.raises(MaxIterations) as err:
        pe.pcg(lambda u: prob.matrix @ u, np.copy, rhs, tol=1e-14, maxit=2, x0=np.zeros(prob.dim))
    assert err.value.best is not None and err.value.best.shape == rhs.shape


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


def test_lanczos_diag_euclidean():
    d = np.diag([1.0, 2.0, 4.0])
    lo, hi = pe.lanczos_extremal(lambda v: d @ v, 3, 1e-12, 3, pe.Rng(2024), None)
    assert abs(lo - 1.0) <= 1e-10 and abs(hi - 4.0) <= 1e-10


def _dense_pencil_extremes(a, b):
    # independent dense oracle: C = L^{-1} A L^{-T} with B = L L^T
    f = pe.cholesky(b)
    import scipy.linalg as sla

    linv_a = sla.solve_triangular(f.l, a, lower=True)
    c = sla.solve_triangular(f.l, linv_a.T, lower=True).T
    w, _ = jacobi.dense_sym_eig((c + c.T) / 2.0)
    return w[0], w[-1]


@pytest.mark.parametrize("seed,n", [(5, 30), (6, 17), (7, 50)])
def test_lanczos_pencil_matches_dense_oracle(seed, n):
    a = random_spd(seed, n)
    b = random_spd(seed + 100, n)
    b_inv = np.linalg.inv(b)
    # with inner_map = A, apply_t receives A q and returns B^{-1} A q
    lo, hi = pe.lanczos_extremal(
        lambda aq: b_inv @ aq,
        dim=n,
        tol=1e-12,
        maxit=n,
        rng=pe.Rng(2024),
        inner_map=lambda v: a @ v,
    )
    lo_ref, hi_ref = _dense_pencil_extremes(a, b)
    assert abs(lo - lo_ref) <= 1e-8 * abs(lo_ref)
    assert abs(hi - hi_ref) <= 1e-8 * abs(hi_ref)


def test_lanczos_inner_map_matches_euclidean_on_similar_operator():
    # B^{-1}A is self-adjoint in the A-inner product and similar to the
    # symmetric L^{-1} A L^{-T} (B = L L^T), which Euclidean Lanczos handles
    a = random_spd(8, 25)
    b = random_spd(9, 25)
    b_inv = np.linalg.inv(b)
    lo1, hi1 = pe.lanczos_extremal(
        lambda aq: b_inv @ aq, 25, 1e-12, 25, pe.Rng(2024), inner_map=lambda v: a @ v
    )
    l = np.linalg.cholesky(b)  # noqa: E741
    c = scipy.linalg.solve_triangular(l, scipy.linalg.solve_triangular(l, a, lower=True).T, lower=True)
    c = (c + c.T) / 2.0
    lo2, hi2 = pe.lanczos_extremal(lambda v: c @ v, 25, 1e-12, 25, pe.Rng(2024), None)
    assert abs(lo1 - lo2) <= 1e-9 * abs(lo1)
    assert abs(hi1 - hi2) <= 1e-9 * abs(hi1)


def test_lanczos_fd_identity_preconditioner_ratio_analytic():
    prob = pe.laplace_fd(1.0 / 8.0)
    lo, hi = pe.lanczos_extremal(
        lambda v: prob.matrix @ v, prob.dim, 1e-12, prob.dim, pe.Rng(2024), None
    )
    h = 1.0 / 8.0
    lam1 = fd_eigenvalue(h, 1, 1)
    lamn = fd_eigenvalue(h, 7, 7)
    assert abs(hi / lo - lamn / lam1) <= 1e-6 * (lamn / lam1)


def test_lanczos_rejects_indefinite_inner():
    d = np.diag([1.0, 2.0])
    with pytest.raises(InnerProductNotPositive):
        pe.lanczos_extremal(lambda v: d @ v, 2, 1e-10, 2, pe.Rng(2024), inner_map=lambda v: -v)


def test_lanczos_top_pairs_inverse_operator():
    a = np.diag([1.0, 2.0, 4.0, 9.0])
    vals, vecs = lanczos_top_pairs(lambda v: np.linalg.solve(a, v), 4, 1e-13, 4, pe.Rng(2024))
    assert np.allclose(vals, [1.0, 0.5], atol=1e-10)
    assert abs(abs(vecs[0, 0]) - 1.0) <= 1e-8


def test_lanczos_top_pairs_across_basis_blocks():
    # lambda_max = 3 converges early; lambda_2 = 1 sits in a cluster of three
    # (within 2e-4) just above a bulk in [0, 0.99], so the run takes more
    # than 64 steps.  Reorthogonalizing against only part of that basis lets
    # a ghost copy of 3 take the second place.
    n = 150
    rng = pe.Rng(5)
    w = np.concatenate([0.99 * np.sort(rng.uniform(n - 4)), [1.0 - 2e-4, 1.0 - 1e-4, 1.0, 3.0]])
    q = np.linalg.qr(pe.Rng(31).normal(n * n).reshape(n, n))[0]
    a = (q * w) @ q.T
    a = (a + a.T) / 2.0
    steps = []

    def apply_t(v):
        steps.append(1)
        return a @ v

    vals, vecs = lanczos_top_pairs(apply_t, n, tol=1e-12, maxit=n, rng=pe.Rng(32))
    assert len(steps) > 64
    assert np.allclose(vals, [3.0, 1.0], rtol=0.0, atol=1e-10)
    for j in range(2):
        v = vecs[:, j]
        assert np.linalg.norm(a @ v - vals[j] * v) <= 1e-8 * vals[j]
    assert abs(float(vecs[:, 0] @ vecs[:, 1])) <= 1e-10


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: pe.lanczos_extremal(lambda v: 2.0 * v, 5, 1e-10, 5, pe.Rng(2024), None), (2.0, 2.0)),
        (
            lambda: pe.kappa_nu(
                pe.EigenProblem(dim=300, apply_a=lambda v: 2.0 * v, matrix=2.0 * np.eye(300)),
                pe.make_identity(),
            ),
            (2.0, 2.0, 1.0),
        ),
        (
            lambda: pe.EigenProblem(dim=5, apply_a=lambda v: 2.0 * v, solve_a=lambda v: 0.5 * v).reference(),
            DegenerateSmallestEigenvalue,
        ),
    ],
    ids=["lanczos_extremal", "kappa_nu", "reference"],
)
def test_lanczos_stops_when_the_start_is_an_eigenvector(call, expected):
    # beta is exactly 0 after the first step, before any watched Ritz value
    # beyond the first exists; dividing by it would fill the basis with NaN
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == pytest.approx(expected, rel=1e-14)


def test_lanczos_variant_follows_the_watch():
    # a watch of one value runs the three-term recurrence and keeps no basis;
    # the extremal watch does too when it cannot reach m = dim, and keeps the
    # basis, which alone makes m = dim prove invariance, when it can; the top
    # pairs always reorthogonalize against the stored basis.  The operator
    # has well separated ends, so that every watch converges within 29 steps
    q = np.linalg.qr(pe.Rng(31).normal(900).reshape(30, 30))[0]
    a = (q * np.concatenate([[0.5], np.linspace(1.0, 2.0, 27), [2.5, 3.0]])) @ q.T
    a = (a + a.T) / 2.0
    for watch, maxit, keeps in [
        ((-1,), 30, False),
        ((0, -1), 29, False),
        ((0, -1), 30, True),
        ((-1, -2), 29, True),
        ((-1, -2), 30, True),
    ]:
        _, svecs, basis = _lanczos_tridiag(lambda v: a @ v, 30, 1e-10, maxit, pe.Rng(9), watch)
        assert (svecs is not None, basis is not None) == (keeps, keeps), (watch, maxit)
    # the shifted operator (sigma M - K)^{-1} M of the h=2^-5 FEM pencil in
    # the M-inner product, as problems._lanczos_lamn runs it
    h = 2.0**-5
    k, m = pe.fem_p1(h)
    sigma = 1.01 * pe.laplace_fem(h).reference().lamn
    f = SymFactor((sigma, m), (-1.0, k))

    def solve(mq):
        return f.solve(f.solve_t(mq))

    def mass(v):
        return m @ v

    n, tol = k.shape[0], 1e-11 / 1e-2
    top = _lanczos_top_value(solve, n, tol, 600, pe.Rng(777), inner_map=mass)
    theta, _, _ = _lanczos_tridiag(solve, n, tol, 600, pe.Rng(777), (-1,), inner_map=mass)
    assert top == theta[-1]


def test_lanczos_runs_raise_max_iterations():
    a = np.diag(np.geomspace(1.0, 1e4, 50))
    runs = (
        lambda: pe.lanczos_extremal(lambda v: a @ v, 50, 1e-10, 3, pe.Rng(2024), None),
        lambda: lanczos_top_pairs(lambda v: a @ v, 50, 1e-12, 3, pe.Rng(2024)),
        lambda: _lanczos_top_value(lambda v: a @ v, 50, 1e-11, 3, pe.Rng(2024)),
    )
    for run in runs:
        with pytest.raises(MaxIterations) as err:
            run()
        assert err.value.iterations == 3
        assert len(err.value.best) > 0 and np.all(np.isfinite(err.value.best))


# ---------------------------------------------------------------------------
# dense symmetric eigendecomposition: LAPACK, and the Jacobi oracle of
# tests/jacobi.py
# ---------------------------------------------------------------------------


def test_jacobi_diag_permutation():
    w, v = jacobi.dense_sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=0)


@pytest.mark.parametrize("a", [[[3.5]], np.zeros((4, 4))], ids=["1x1", "zero"])
def test_jacobi_needs_no_sweep_on_a_1x1_or_zero_matrix(a):
    a = np.array(a)
    w, v = jacobi.dense_sym_eig(a)
    assert np.array_equal(w, np.diag(a)) and np.array_equal(v, np.eye(len(a)))


def test_jacobi_2x2_closed_form():
    w, v = jacobi.dense_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(v[:, 0]), [s, s], atol=1e-14)
    assert np.allclose(np.abs(v[:, 1]), [s, s], atol=1e-14)
    assert np.sign(v[0, 0]) != np.sign(v[1, 0])


def test_jacobi_random_20_reconstruction():
    g = pe.Rng(3).normal(400).reshape(20, 20)
    a = (g + g.T) / 2.0
    w, v = jacobi.dense_sym_eig(a)
    assert np.linalg.norm(a @ v - v * w) <= 1e-10 * np.linalg.norm(a)


def test_jacobi_orthonormality_n100():
    g = pe.Rng(13).normal(10000).reshape(100, 100)
    a = (g + g.T) / 2.0
    _, v = jacobi.dense_sym_eig(a)
    assert np.linalg.norm(v.T @ v - np.eye(100)) <= 1e-10


@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_rounds_are_disjoint_and_cover_every_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = []
    for p, q in rounds:
        assert np.all(p < q) and np.all(q < n)
        idx = np.concatenate([p, q])
        assert len(np.unique(idx)) == len(idx)  # disjoint within the round
        assert len(p) == n // 2
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", range(2, 10))
def test_jacobi_plan_holds_the_round_robin_pairs(n):
    rounds, eye = _jacobi_plan(n)
    assert _jacobi_plan(n) is _jacobi_plan(n)  # built once per size
    assert np.array_equal(eye.reshape(n, n), np.eye(n)) and not eye.flags.writeable
    want = _round_robin(n)
    assert len(rounds) == len(want)
    for idx, (p, q) in zip(rounds, want):
        assert np.array_equal(idx, [p * n + p, q * n + q, p * n + q, q * n + p])
        assert not idx.flags.writeable


def jacobi_rotation_loop(m, max_sweeps=60):
    """Cyclic Jacobi one rotation at a time, row by row: the loop the
    round-robin rounds replaced, kept as the reference."""
    a = np.array(m, dtype=np.float64)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    v = np.eye(n)
    norm = np.linalg.norm(a)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-15 * norm:
            break
        thresh = off / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-20 * norm or abs(apq) < 1e-3 * thresh:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vkp = v[:, p].copy()
                v[:, p] = c * vkp - s * v[:, q]
                v[:, q] = s * vkp + c * v[:, q]
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


@pytest.mark.parametrize("n", [3, 6, 12, 20, 33])
def test_jacobi_round_robin_matches_rotation_loop(n):
    g = pe.Rng(40 + n).normal(n * n).reshape(n, n)
    a = g @ g.T / n + np.diag(np.arange(n, dtype=np.float64))
    w, v = jacobi.dense_sym_eig(a)
    w_ref, v_ref = jacobi_rotation_loop(a)
    scale = np.linalg.norm(a)
    assert np.max(np.abs(w - w_ref)) <= 1e-14 * scale
    assert np.linalg.norm(a @ v - v * w) <= 1e-14 * n * scale
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-14 * n
    # simple eigenvalues: the same vectors up to sign
    signs = np.sign(np.sum(v * v_ref, axis=0))
    assert np.linalg.norm(v * signs - v_ref) <= 1e-12 * n


def test_jacobi_raises_no_convergence_after_max_sweeps(monkeypatch):
    monkeypatch.setattr(jacobi, "_MAX_SWEEPS", 1)
    a = random_spd(2, 8)
    with pytest.raises(NoConvergence):
        jacobi.dense_sym_eig(a)


@pytest.mark.parametrize("n", [1, 2, 6, 12, 20, 33])
def test_dense_sym_eig_matches_jacobi(n):
    g = pe.Rng(70 + n).normal(n * n).reshape(n, n)
    a = g @ g.T / n + np.diag(np.arange(n, dtype=np.float64))
    w, v = linalg.dense_sym_eig(a)
    w_ref, v_ref = jacobi.dense_sym_eig(a)
    scale = np.linalg.norm(a)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - w_ref)) <= 1e-14 * scale
    assert np.linalg.norm(a @ v - v * w) <= 1e-14 * n * scale
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-14 * n
    signs = np.sign(np.sum(v * v_ref, axis=0))
    assert np.linalg.norm(v * signs - v_ref) <= 1e-12 * n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_sym_eig_refuses_a_non_finite_entry(bad, monkeypatch):
    # LAPACK eigh returns a spectrum for eye(6) with a NaN pair without
    # complaint, so the check comes before any LAPACK call
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kwargs: pytest.fail("eigh ran"))
    a = np.eye(6)
    a[2, 4] = a[4, 2] = bad
    with pytest.raises(NoConvergence, match="NaN or inf"):
        linalg.dense_sym_eig(a)


def test_dense_sym_eig_turns_a_lapack_failure_into_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="failed to converge") as err:
        linalg.dense_sym_eig(np.eye(3))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# SymFactor (R^T R on one lower LAPACK band L = R^T)
# ---------------------------------------------------------------------------


def check_symfactor_against_oracle(m):
    """Products and solves of SymFactor((1, m)) against R = L^T from the
    binary64 Cholesky and scipy's dense triangular solves; R^T R
    reconstructs m."""
    dense = m.toarray() if scipy.sparse.issparse(m) else m
    f = SymFactor((1.0, m))
    r = pe.cholesky(dense).l.T
    v = pe.gaussian_vector(pe.Rng(6), dense.shape[0])
    expected = {
        "mult": r @ v,
        "mult_t": r.T @ v,
        "solve": scipy.linalg.solve_triangular(r, v, lower=False),
        "solve_t": scipy.linalg.solve_triangular(r, v, trans="T", lower=False),
    }
    for op, want in expected.items():
        got = getattr(f, op)(v)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want), op
    recon = np.column_stack([f.mult_t(f.mult(e)) for e in np.eye(dense.shape[0])])
    assert np.linalg.norm(recon - dense) <= 1e-12 * np.linalg.norm(dense)
    return f


def test_symfactor_banded_matches_dense():
    _, mass = pe.fem_p1(1.0 / 8.0)
    f = check_symfactor_against_oracle(mass)
    assert f.bw == 8 and f.lab.shape == (9, 49)
    assert [name for name in vars(f) if isinstance(getattr(f, name), np.ndarray)] == ["lab"]


@pytest.mark.parametrize(
    "m, bw",
    [(random_spd(21, 12), 11), (np.diag(np.arange(1.0, 8.0)), 0)],
    ids=["dense-full-band", "diagonal"],
)
def test_symfactor_full_and_zero_bandwidth(m, bw):
    assert check_symfactor_against_oracle(m).bw == bw


def test_symfactor_solves_equal_tbtrs():
    # tbsv is the substitution tbtrs runs after its zero-pivot test: solve is
    # L^T x = v and solve_t is L x = v on the one lower band lab
    _, mass = pe.fem_p1(1.0 / 16.0)
    for m in (mass, random_spd(22, 12)):
        f = SymFactor((1.0, m))
        v = pe.gaussian_vector(pe.Rng(7), m.shape[0])
        for op, trans in (("solve", "T"), ("solve_t", "N")):
            x, info = scipy.linalg.lapack.dtbtrs(f.lab, v[:, None], uplo="L", trans=trans)
            assert info == 0
            assert np.array_equal(getattr(f, op)(v), x[:, 0]), op


def test_symfactor_sums_its_terms():
    # the band of sigma M - K, summed diagonal by diagonal, is the band of
    # the matrix formed first
    k, m = pe.fem_p1(1.0 / 8.0)
    summed = SymFactor((3.0e3, m), (-1.0, k))
    formed = SymFactor((1.0, (3.0e3 * m - k).tocsr()))
    assert summed.bw == formed.bw == 8
    assert np.array_equal(summed.lab, formed.lab)


def test_symfactor_block_equals_its_columns():
    _, mass = pe.fem_p1(1.0 / 8.0)
    f = SymFactor((1.0, mass))
    n = mass.shape[0]
    block = pe.Rng(8).normal(3 * n).reshape(n, 3)
    for op in ("mult", "mult_t", "solve", "solve_t"):
        want = np.column_stack([getattr(f, op)(c) for c in block.T])
        assert np.array_equal(getattr(f, op)(block), want), op


def test_symfactor_rejects_a_pivot_that_is_not_positive():
    # banded Cholesky passes a NaN pivot through; the check in __init__ stops it
    with pytest.raises(NotSpd) as err:
        SymFactor((1.0, np.array([[1.0, np.nan], [np.nan, 1.0]])))
    assert err.value.pivot == 1
    with pytest.raises(NotSpd):
        SymFactor((1.0, np.diag([1.0, -1.0])))
    # a shifted pencil below its top eigenvalue is indefinite
    k, m = pe.fem_p1(1.0 / 8.0)
    with pytest.raises(NotSpd):
        SymFactor((1.0, m), (-1.0, k))


# ---------------------------------------------------------------------------
# make_solver (one factorization per SPD matrix, which is its NotSpd check)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a",
    [
        # the pencil's smallest eigenvalue, about 2 pi^2, lies below 30
        (pe.fem_p1(2.0**-4)[0] - 30.0 * pe.fem_p1(2.0**-4)[1]).tocsr(),
        scipy.sparse.diags([1.0, -1.0, 2.0]).tocsr(),
        # a zero diagonal takes a row pivot
        scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
    ],
    ids=["fem-shifted", "diagonal", "needs-row-pivot"],
)
def test_make_solver_refuses_a_sparse_indefinite_matrix(a):
    # an LU with partial pivoting factors each of these without complaint
    with pytest.raises(NotSpd, match="the sparse matrix is not positive definite"):
        linalg.make_solver(a)


def test_make_solver_refuses_an_exactly_singular_sparse_matrix():
    with pytest.raises(NotSpd, match="the sparse matrix is exactly singular"):
        linalg.make_solver(scipy.sparse.diags([1.0, 0.0, 2.0]).tocsr())


def test_ritz_equals_eigh_tridiagonal():
    rng = pe.Rng(17)
    for k in range(200):
        m = 2 + k % 60
        d = rng.normal(m) * 10.0 ** (6 * rng.uniform(1)[0] - 3)
        e = np.abs(rng.normal(m - 1)) + 1e-3
        j = (7 * k) % m
        theta, s = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(j, j), check_finite=False
        )
        assert _ritz(d, e, j) == (theta[0], s[-1, 0])
