"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with pytest -s to see the lines as they pass)."""

import math
import time

import numpy as np
import pytest

import precondeig as pe
from precondeig import problems, solvers
from precondeig.diagnostics import random_spd_pair
from precondeig.precond import HattedPreconditioner
from tests import jacobi
from tests.conftest import column, dense_problem, dense_roots


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def build_instance(seed, n=20):
    a, b = random_spd_pair(seed, n)
    problem = dense_problem(a)
    precond = pe.make_spd(b)
    ctx = pe.build_rate_context(problem, precond)
    b_sqrt, b_inv_sqrt, b_inv = dense_roots(b)
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    return problem, precond, ctx, (a, b, b_sqrt, b_inv_sqrt, b_inv), x_star


def basin_start(ctx, x_star, b_inv_sqrt, frac, seed):
    rng = pe.Rng(seed)
    d = rng.normal(len(x_star))
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x0 = pe.sphere_exp(x_star, frac * ctx.phi * d)
    return b_inv_sqrt @ x0, x0


def fem_ddm_setup(h, big_h):
    problem = pe.laplace_fem(h)
    ddm = pe.DdmPreconditioner(problem, big_h, 0.5)
    return problem, HattedPreconditioner(ddm, problem.pencil[2])


# ---------------------------------------------------------------------------


def test_criterion_1_equivalence(monkeypatch):
    """u-space variant matches the x-space steepest-descent oracle."""
    monkeypatch.setattr(solvers, "_STAGNATION_WINDOW", 51)  # longer than maxit: no guard
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        problem, precond, ctx, mats, x_star = build_instance(seed)
        a, b, b_sqrt, b_inv_sqrt, b_inv = mats
        c = b_inv_sqrt @ a @ b_inv_sqrt
        u0, x0 = basin_start(ctx, x_star, b_inv_sqrt, 0.7, 1000 + seed)
        iterates = []
        pe.rsd_solve(
            problem,
            precond,
            u0,
            pe.StepPolicy.theory(),
            tol=0.0,
            maxit=50,
            ctx=ctx,
            callback=lambda t, st: iterates.append(st.u.copy()),
        )
        x = x0.copy()
        for t, u_t in enumerate(iterates):
            x_u = b_inv_sqrt @ x
            x_u /= math.sqrt(x_u @ b @ x_u)
            worst = max(worst, float(np.linalg.norm(u_t - x_u)))
            if t < len(iterates) - 1:
                cosd = abs(float(x @ x_star))
                eta = (
                    ctx.lam1
                    * ctx.norm_u_binv**2
                    * (cosd - ctx.cos_phi)
                    / (2.0 * ctx.nu_max * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))
                )
                xcx = float(x @ c @ x)
                f = -float(x @ b_inv @ x) / xcx
                g = -2.0 * (b_inv @ x + f * (c @ x)) / xcx
                g -= float(x @ g) * x
                x = pe.sphere_exp(x, -eta * g)
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"20 instances x 50 steps, worst per-step deviation {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_property_suite():
    """Zero violations of inequalities (i)-(vii) across the default grid."""
    t0 = time.time()
    violations = 0
    checks = 0
    for seed in range(20):
        for n in (6, 12, 20):
            a, b_rand = random_spd_pair(seed, n)
            l64 = pe.make_mp_cholesky(a).exact().factor.l
            for kind, b in (
                ("identity", np.eye(n)),
                ("random", b_rand),
                ("mp-chol", l64 @ l64.T),
            ):
                rep = pe.validate_properties(
                    a, b, n_samples=500, seed=pe.linalg.spawn_seed(seed, n),
                    label=f"seed={seed},n={n},B={kind}", inject_bug=None,
                )
                violations += len(rep.violations)
                checks += sum(rep.checked.values())
    elapsed = time.time() - t0
    report(
        2,
        violations == 0 and elapsed < 60.0,
        f"{checks} checks across 20 seeds x (6,12,20) x 3 preconditioners, "
        f"{violations} violations (slack 1e-10), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_theorem_contraction(monkeypatch):
    """dist^2 contracts by at least (1 - xi) per step, xi as traced, until dist <= 1e-8."""
    monkeypatch.setattr(solvers, "_STAGNATION_WINDOW", 4001)  # longer than maxit: no guard
    t0 = time.time()
    bad = 0
    steps = 0
    reached = 0
    for seed in range(10):
        problem, precond, ctx, mats, x_star = build_instance(seed)
        _, _, _, b_inv_sqrt, _ = mats
        u0, _ = basin_start(ctx, x_star, b_inv_sqrt, 0.9, 2000 + seed)
        cos = []
        res = pe.rsd_solve(
            problem,
            precond,
            u0,
            pe.StepPolicy.theory(),
            tol=1e-13,
            maxit=4000,
            ctx=ctx,
            callback=lambda t, state: cos.append(ctx.cos_dist_b(state.u, u_b_norm=1.0)),
        )
        # the trace writes distB as NaN below its resolution floor; the check
        # runs on acos of the cosine itself, down to 1e-8
        dist = np.array([math.acos(c) for c in cos])
        xi = column(res.trace, "xi")
        if np.any(dist <= 1e-8):
            reached += 1
            upto = int(np.argmax(dist <= 1e-8))
        else:
            upto = len(dist) - 1
        for t in range(upto):
            steps += 1
            if not dist[t + 1] ** 2 <= (1.0 - xi[t]) * dist[t] ** 2 + 1e-12:
                bad += 1
    elapsed = time.time() - t0
    report(
        3,
        bad == 0 and reached == 10 and elapsed < 30.0,
        f"10 instances, {steps} steps checked to dist 1e-8, {bad} violations "
        f"(slack 1e-12), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_4_corollary_rate(monkeypatch):
    """Constant-step runs stay under the corollary's rate envelope."""
    monkeypatch.setattr(solvers, "_STAGNATION_WINDOW", 301)  # longer than maxit: no guard
    t0 = time.time()
    c = 0.25
    bad = 0
    for seed in range(10):
        problem, precond, ctx, mats, x_star = build_instance(seed)
        _, _, _, b_inv_sqrt, _ = mats
        # margin condition: cos(dist0) >= cos phi + c sin^2 phi
        target = min(1.0, ctx.cos_phi + c * ctx.sin_phi**2 + 0.02)
        dist0 = math.acos(target)
        rng = pe.Rng(3000 + seed)
        d = rng.normal(len(x_star))
        d -= float(d @ x_star) * x_star
        d /= np.linalg.norm(d)
        u0 = b_inv_sqrt @ pe.sphere_exp(x_star, dist0 * d)
        res = pe.rsd_solve(
            problem,
            precond,
            u0,
            pe.StepPolicy.constant(c),
            tol=0.0,
            maxit=300,
            ctx=ctx,
        )
        dist = column(res.trace, "distB")
        rate = 1.0 - 8.0 * c**2 * (1.0 / ctx.lam1 - 1.0 / ctx.lam2) / (
            math.pi**2 * ctx.kappa**4 * (1.0 / ctx.lam1 - 1.0 / ctx.lamn)
        )
        for t in range(len(dist)):
            if not dist[t] ** 2 <= rate**t * dist[0] ** 2 + 1e-12:
                bad += 1
    elapsed = time.time() - t0
    report(
        4,
        bad == 0,
        f"10 instances x 300 constant steps (c={c}), {bad} envelope violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_cos_phi_cross_check():
    """The production cos phi (build_rate_context: LAPACK reference eigenpair,
    B applied through make_spd) agrees with distortion_angle on explicit
    dense B; a Monte-Carlo probe never beats the closed form."""
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        for n in (6, 12, 20):
            a, b_rand = random_spd_pair(seed, n)
            l64 = pe.make_mp_cholesky(a).exact().factor.l
            for b in (np.eye(n), b_rand, l64 @ l64.T):
                problem = dense_problem(a)
                ctx = pe.build_rate_context(problem, pe.make_spd(b))
                u = ctx.u_star
                _, var = pe.distortion_angle(
                    u, b @ u, np.linalg.solve(b, u), lambda v: np.linalg.solve(b, v)
                )
                worst = max(worst, abs(var - ctx.cos_phi))
    # Monte-Carlo supremum probe at n = 6
    a, b = random_spd_pair(3, 6)
    problem = dense_problem(a)
    ctx = pe.build_rate_context(problem, pe.make_spd(b))
    b_inv = np.linalg.inv(b)
    u = ctx.u_star
    _, closed = pe.distortion_angle(u, b @ u, b_inv @ u, lambda v: b_inv @ v)
    nbi = math.sqrt(ctx.u_star @ b_inv @ ctx.u_star)
    rng = pe.Rng(123)
    best = 0.0
    for _ in range(10_000):
        v = rng.normal(6)
        v -= float(v @ ctx.u_star) * ctx.u_star
        best = max(best, abs(float(v @ b_inv @ ctx.u_star)) / (math.sqrt(v @ b_inv @ v) * nbi))
    elapsed = time.time() - t0
    report(
        5,
        worst <= 1e-8 and best <= closed + 1e-6,
        f"production vs dense-B gap {worst:.2e} over 180 instances (tol 1e-8); "
        f"MC supremum {best:.8f} vs closed form {closed:.8f}, {elapsed:.1f}s",
    )


def test_criterion_6_ddm_table():
    """DDM distortion-angle table values and the O(H) trend."""
    t0 = time.time()
    problem, bhat = fem_ddm_setup(2.0**-4, 2.0**-2)
    q = pe.compute_quality(problem, bhat)
    cos2 = q["cos2_phi"]
    one_minus = q["one_minus_inv_kappa"]
    ok_values = abs(cos2 - 0.1961) <= 0.06 and abs(one_minus - 0.8221) <= 0.06

    problem6 = pe.laplace_fem(2.0**-6)
    cos2_by_H = {}
    for big_h in (2.0**-2, 2.0**-3):
        bh = HattedPreconditioner(pe.DdmPreconditioner(problem6, big_h, 0.5), problem6.pencil[2])
        cos2_by_H[big_h] = pe.compute_quality(problem6, bh)["cos2_phi"]
    ratio = cos2_by_H[2.0**-2] / cos2_by_H[2.0**-3]
    elapsed = time.time() - t0
    report(
        6,
        ok_values and ratio >= 2.0 and elapsed < 120.0,
        f"h=2^-4,H=2^-2: cos2={cos2:.4f} (0.1961 +/- 0.06), "
        f"1-1/kappa={one_minus:.4f} (0.8221 +/- 0.06); "
        f"h=2^-6 halving H: factor {ratio:.2f} (>= 2), {elapsed:.1f}s (< 120s)",
    )


KERNEL_SEED = 7


def test_criterion_7_mixed_precision_bound():
    """Distortion of the binary32-Cholesky preconditioner on the kernel matrix."""
    t0 = time.time()
    prob = pe.kernel_matrix(kind="laplacian", n=256, d=256, seed=KERNEL_SEED, tau=0.0)
    mp = pe.make_mp_cholesky(prob.matrix)
    ctx = pe.build_rate_context(prob, mp)
    eps, applicable = pe.epsilon_l(256, ctx.lam1, ctx.lamn)
    ok = ctx.cos_phi <= 0.05
    if applicable:
        ok = ok and ctx.cos_phi <= math.sqrt(2.0 * eps)
    elapsed = time.time() - t0
    report(
        7,
        ok,
        f"kernel n=256: cos_phi={ctx.cos_phi:.2e} <= 0.05; eps_l={eps:.4f} "
        f"(applicable={applicable}, bound sqrt(2 eps)={math.sqrt(2 * eps):.4f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_success_probabilities():
    """Desk-scale versions of the empirical probability tables."""
    t0 = time.time()
    prob = pe.kernel_matrix(kind="laplacian", n=256, d=256, seed=KERNEL_SEED, tau=0.0)
    mp = pe.make_mp_cholesky(prob.matrix)
    ctx = pe.build_rate_context(prob, mp)
    kernel = pe.success_probability(prob, mp, sampler="gaussian", trials=100, seed=3, ctx=ctx)
    fem_prob, bhat = fem_ddm_setup(2.0**-4, 2.0**-2)
    fem_ctx = pe.build_rate_context(fem_prob, bhat)
    fem = pe.success_probability(fem_prob, bhat, sampler="smooth", trials=200, seed=11, ctx=fem_ctx)
    ok = (
        kernel["successes_new"] >= 95
        and kernel["successes_classic"] == 0
        and fem["p_new"] > fem["p_classic"]
    )
    elapsed = time.time() - t0
    report(
        8,
        ok and elapsed < 180.0,
        f"kernel n=256 gaussian: new {kernel['successes_new']}/100 (>= 95), "
        f"classic {kernel['successes_classic']}/100 (== 0); "
        f"FEM smooth: p_new={fem['p_new']:.3f} > p_classic={fem['p_classic']:.3f}, "
        f"{elapsed:.1f}s (< 180s)",
    )


def test_criterion_9_classical_pinvit_bound(monkeypatch):
    """Per-step classical convergence bound with a spectrally scaled DDM,
    whose kappa comes from kappa_nu's Lanczos route."""
    monkeypatch.setattr(problems, "_DENSE_CAP", 0)
    t0 = time.time()
    h, big_h = 2.0**-4, 2.0**-2
    problem = pe.laplace_fd(h)
    ddm = pe.DdmPreconditioner(problem, big_h, 0.5)
    nu_min, nu_max, kappa = pe.kappa_nu(problem, ddm)
    scaled = pe.spectral_scale(ddm, nu_min, nu_max)
    ref = problem.reference()
    rho_b = max(abs(1.0 - scaled.eta * nu_min), abs(1.0 - scaled.eta * nu_max))
    rho = 1.0 - (1.0 - rho_b) * (1.0 - ref.lam1 / ref.lam2)
    u0 = ref.u_star + 0.1 * pe.gaussian_vector(pe.Rng(5), problem.dim) / math.sqrt(problem.dim)
    assert float(u0 @ problem.apply_a(u0)) / float(u0 @ u0) < ref.lam2
    res = pe.rsd_solve(problem, scaled, u0, pe.StepPolicy.pinvit(), tol=1e-10, maxit=300, ctx=None)
    lams = column(res.trace, "lambda")
    ratios = (lams - ref.lam1) / (ref.lam2 - lams)
    bad = sum(
        1
        for t in range(len(lams) - 1)
        if not ratios[t + 1] <= rho**2 * ratios[t] + 1e-12
    )
    elapsed = time.time() - t0
    report(
        9,
        bad == 0 and res.reason == "ResidualTol",
        f"FD h=2^-4 + scaled DDM (rho={rho:.4f}): {len(lams) - 1} steps, "
        f"{bad} bound violations (slack 1e-12), converged in {res.iterations} "
        f"iterations, {elapsed:.1f}s",
    )


def test_criterion_10_discretization_sanity():
    """FD eigenvalue exactness and FEM consistency with the continuum."""
    t0 = time.time()
    prob4 = pe.laplace_fd(1.0 / 4.0)
    w, _ = jacobi.dense_sym_eig(prob4.matrix.toarray())
    fd_expected = 128.0 * math.sin(math.pi / 8.0) ** 2
    fd_ok = abs(w[0] - fd_expected) <= 1e-10
    fem = pe.laplace_fem(1.0 / 16.0)
    lam1 = fem.reference().lam1
    fem_ok = abs(lam1 - 2.0 * math.pi**2) <= 0.02 * 2.0 * math.pi**2
    elapsed = time.time() - t0
    report(
        10,
        fd_ok and fem_ok,
        f"FD h=1/4: lambda1={w[0]:.12f} vs 128 sin^2(pi/8)={fd_expected:.12f} "
        f"(tol 1e-10); FEM h=1/16: lambda1={lam1:.4f} within 2% of "
        f"2 pi^2={2 * math.pi ** 2:.4f}, {elapsed:.1f}s",
    )
