import collections
import functools
import io
import math
from collections import deque

import numpy as np
import pytest

import precondeig as pe
from precondeig import cli, precond, solvers
from precondeig.errors import InvalidC, MaxIterations, OutsideBasin, StepCapViolated, ZeroVector
from precondeig.solvers import TRACE_COLUMNS, step_constant, step_theory
from tests.conftest import column, dense_problem, dense_roots, tight_fwd, u_space_route


def random_spd(seed, n, spread=3.0):
    rng = pe.Rng(seed)
    q = np.linalg.qr(rng.normal(n * n).reshape(n, n))[0]
    w = 1.0 + (spread - 1.0) * np.sort(rng.uniform(n))
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


def dense_pair(seed, n=12):
    a, b = pe.diagnostics.random_spd_pair(seed, n)
    return a, b


def setup_instance(seed, n=12):
    a, b = dense_pair(seed, n)
    problem = dense_problem(a)
    precond = pe.make_spd(b)
    ctx = pe.build_rate_context(problem, precond)
    b_sqrt, b_inv_sqrt, _ = dense_roots(b)
    x_star = b_sqrt @ ctx.u_star
    x_star /= np.linalg.norm(x_star)
    return problem, precond, ctx, b_sqrt, b_inv_sqrt, x_star


def in_basin_start(ctx, x_star, b_inv_sqrt, frac, seed):
    rng = pe.Rng(seed)
    d = rng.normal(len(x_star))
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x0 = pe.sphere_exp(x_star, frac * ctx.phi * d)
    return b_inv_sqrt @ x0, x0


# ---------------------------------------------------------------------------
# termination basics
# ---------------------------------------------------------------------------


def test_rsd_terminates_at_eigenvector():
    problem, precond, ctx, _, _, _ = setup_instance(0)
    res = pe.rsd_solve(
        problem, precond, ctx.u_star, pe.StepPolicy.theory(), tol=1e-8, maxit=1000, ctx=ctx
    )
    assert res.reason == "ResidualTol"
    assert res.iterations == 0


def test_rsd_zero_start_raises_zero_vector():
    # the same typed error as check_initial for the same input
    problem, precond, ctx, _, _, _ = setup_instance(0)
    u0 = np.zeros(problem.dim)
    with pytest.raises(ZeroVector):
        pe.check_initial(problem, precond, u0[None, :], ctx, u0_b_norm_sq=None)
    with pytest.raises(ZeroVector):
        pe.rsd_solve(problem, precond, u0, pe.StepPolicy.pinvit(), tol=1e-8, maxit=10, ctx=None)


def test_classic_terminates_at_eigenvector():
    problem, precond, ctx, _, _, _ = setup_instance(1)
    res = pe.rsd_solve(
        problem, precond, ctx.u_star, pe.StepPolicy.pinvit(), tol=1e-8, maxit=1000, ctx=ctx
    )
    assert res.reason == "ResidualTol"
    assert res.iterations == 0


def test_rsd_lambda_is_rayleigh_of_returned_u():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(2)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.5, 100)
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=1e-6, maxit=1000, ctx=ctx)
    assert res.reason == "ResidualTol"
    u = res.u
    assert abs(res.lam - float(u @ problem.apply_a(u)) / float(u @ u)) <= 1e-12 * res.lam


def test_rsd_stagnation_guard():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(3)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.5, 101)
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=0.0, maxit=100000, ctx=ctx)
    assert res.reason == "StagnatedStep"
    assert abs(res.lam - ctx.lam1) <= 1e-12 * ctx.lam1
    t, name, trigger = res.trace.events[-1]
    assert (t, name) == (res.iterations, "StagnatedStep")
    assert trigger["flat_steps"] >= 30
    assert trigger["window_best"] >= 0.9 * trigger["best_before"]


def fail_nested_pcg(monkeypatch, in_loop_only):
    """Make the nested PCG behind apply_fwd_iterative raise MaxIterations
    inside solvers.rsd_solve: from its first call there, which is u0's
    B-normalisation, or, with in_loop_only, once an iterate has been visited,
    so a solve raises only if its loop runs a nested PCG.  The rate context
    is built outside rsd_solve and is unaffected.  Returns the list of
    visited steps."""
    visited, inside = [], []
    real_rsd_solve, real_make_state, real_pcg = solvers.rsd_solve, solvers.make_state, precond.pcg

    def rsd_solve(*args, **kwargs):
        inside.append(True)
        try:
            return real_rsd_solve(*args, **kwargs)
        finally:
            inside.pop()

    def make_state(*args, **kwargs):
        visited.append(len(visited))
        return real_make_state(*args, **kwargs)

    def pcg(*args, **kwargs):
        if inside and (visited or not in_loop_only):
            raise MaxIterations("nested pcg budget exhausted", best=None, iterations=0)
        return real_pcg(*args, **kwargs)

    monkeypatch.setattr(solvers, "rsd_solve", rsd_solve)
    monkeypatch.setattr(solvers, "make_state", make_state)
    monkeypatch.setattr(precond, "pcg", pcg)
    return visited


DDM_RECIPE = ("laplace-fd:h=2^-3", "ddm:H=2^-1,overlap=0.5")


def ddm_instance():
    problem = cli.build_problem(DDM_RECIPE[0])
    p = cli.build_precond(DDM_RECIPE[1], problem)
    ctx = pe.build_rate_context(problem, p)
    return problem, p, ctx, p.apply_inv(pe.Rng(1).normal(problem.dim))


def test_rsd_u0_normalisation_max_iterations_is_typed(monkeypatch):
    problem, p, ctx, u0 = ddm_instance()
    visited = fail_nested_pcg(monkeypatch, in_loop_only=False)
    with pytest.raises(MaxIterations):
        solvers.rsd_solve(problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=1000, ctx=ctx)
    assert visited == []  # raised by u0's normalisation, before the first iterate


def test_cli_solve_u0_normalisation_max_iterations_exits_2(monkeypatch):
    visited = fail_nested_pcg(monkeypatch, in_loop_only=False)
    code = cli.main(["solve", "--problem", DDM_RECIPE[0], "--precond", DDM_RECIPE[1], "--seed", "1"])
    assert code == 2
    assert visited == []


def test_rsd_ddm_loop_runs_no_nested_pcg(monkeypatch):
    problem, p, ctx, u0 = ddm_instance()
    visited = fail_nested_pcg(monkeypatch, in_loop_only=True)
    res = solvers.rsd_solve(problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=1000, ctx=ctx)
    assert res.reason == "ResidualTol"
    assert len(visited) == res.iterations + 1


# ---------------------------------------------------------------------------
# equivalence with the x-space recurrence
# ---------------------------------------------------------------------------


def xspace_step(a_mats, x, eta):
    b_inv, c = a_mats
    xcx = float(x @ c @ x)
    f = -float(x @ b_inv @ x) / xcx
    g = -2.0 * (b_inv @ x + f * (c @ x)) / xcx
    g -= float(x @ g) * x
    return pe.sphere_exp(x, -eta * g)


@pytest.mark.parametrize("seed", [4, 5])
def test_equivalence_theory_steps(seed, monkeypatch):
    monkeypatch.setattr(solvers, "_STAGNATION_WINDOW", 31)  # longer than maxit: no guard
    problem, precond, ctx, b_sqrt, b_inv_sqrt, x_star = setup_instance(seed)
    a = problem.matrix
    _, b = dense_pair(seed)
    _, _, b_inv = dense_roots(b)
    c = b_inv_sqrt @ a @ b_inv_sqrt
    u0, x0 = in_basin_start(ctx, x_star, b_inv_sqrt, 0.7, 200 + seed)

    iterates = []
    res = pe.rsd_solve(
        problem,
        precond,
        u0,
        pe.StepPolicy.theory(),
        tol=0.0,
        maxit=30,
        ctx=ctx,
        callback=lambda t, st: iterates.append(st.u.copy()),
    )
    x = x0.copy()
    for t, u_t in enumerate(iterates):
        x_u = b_inv_sqrt @ x
        x_u /= math.sqrt(x_u @ b @ x_u)
        assert np.linalg.norm(u_t - x_u) <= 1e-10
        if t < len(iterates) - 1:
            cosd = abs(float(x @ x_star))
            eta = (
                ctx.lam1
                * ctx.norm_u_binv**2
                * (cosd - ctx.cos_phi)
                / (2.0 * ctx.nu_max * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))
            )
            x = xspace_step((b_inv, c), x, eta)


def test_equivalence_any_capped_step_sequence():
    problem, precond, ctx, b_sqrt, b_inv_sqrt, x_star = setup_instance(6)
    a, b = dense_pair(6)
    _, _, b_inv = dense_roots(b)
    c = b_inv_sqrt @ a @ b_inv_sqrt
    u0, x0 = in_basin_start(ctx, x_star, b_inv_sqrt, 0.6, 300)
    # arbitrary positive steps below the cap pi / (2 g)
    step_rng = pe.Rng(77)
    caps = step_rng.uniform(40)

    # one fixed step per solve, each eta_t a fraction of the cap at u_t
    u = u0 / math.sqrt(u0 @ b @ u0)
    iterates = [u]
    for t in range(40):
        g = math.sqrt(pe.make_state(u, pe.Route.of(problem, precond)).g2)
        eta = (0.1 + 0.8 * caps[t]) * math.pi / (2.0 * g)
        u = pe.rsd_solve(problem, precond, u, pe.StepPolicy.fixed(eta), tol=0.0, maxit=1, ctx=None).u
        iterates.append(u)
    x = x0.copy()
    for t, u_t in enumerate(iterates):
        x_u = b_inv_sqrt @ x
        x_u /= math.sqrt(x_u @ b @ x_u)
        assert np.linalg.norm(u_t - x_u) <= 1e-10
        if t < len(iterates) - 1:
            xcx = float(x @ c @ x)
            f = -float(x @ b_inv @ x) / xcx
            g = -2.0 * (b_inv @ x + f * (c @ x)) / xcx
            g -= float(x @ g) * x
            eta = (0.1 + 0.8 * caps[t]) * math.pi / (2.0 * np.linalg.norm(g))
            x = pe.sphere_exp(x, -eta * g)


# ---------------------------------------------------------------------------
# convergence on mesh problems
# ---------------------------------------------------------------------------


def test_rsd_fd_ddm_converges_to_reference():
    h, big_h = 1.0 / 16.0, 1.0 / 4.0
    problem = pe.laplace_fd(h)
    ddm = pe.DdmPreconditioner(problem.matrix, h, big_h, 0.5)
    ctx = pe.build_rate_context(problem, ddm)
    # in-basin start: lean the eigenvector slightly
    u0 = ctx.u_star + 0.05 * pe.gaussian_vector(pe.Rng(5), problem.dim) / math.sqrt(problem.dim)
    res = pe.rsd_solve(problem, ddm, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=4000, ctx=ctx)
    assert res.reason == "ResidualTol"
    assert abs(res.lam - ctx.lam1) <= 1e-8 * ctx.lam1


@pytest.mark.parametrize(
    "recipe, seed",
    [
        (None, 400),
        (("laplace-fem:h=2^-5", "ddm:H=2^-2"), 0),
        (("laplace-fem:h=2^-5", "ddm:H=2^-2"), 1),
        (("laplace-fem:h=2^-5", "ddm:H=2^-2"), 2),
        (("kernel-laplace:n=40,seed=3", "mp-chol"), 0),
    ],
    ids=["dense", "fem-ddm-0", "fem-ddm-1", "fem-ddm-2", "kernel-mp-chol"],
)
def test_rsd_b_normalization_invariant(recipe, seed):
    """||u||_B = 1 holds along the solve: at every iterate for an explicit
    dense B, and at exit, measured by a tight nested PCG, for the rest."""
    drifts = []
    if recipe is None:
        problem, p, ctx, _, b_inv_sqrt, x_star = setup_instance(7)
        _, b = dense_pair(7)
        u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.8, seed)
        tol, bound = 1e-11, 1e-10

        def callback(t, st):
            drifts.append(abs(math.sqrt(st.u @ b @ st.u) - 1.0))

    else:
        problem = cli.build_problem(recipe[0])
        p = cli.build_precond(recipe[1], problem)
        ctx = pe.build_rate_context(problem, p)
        u0 = p.apply_inv(pe.Rng(seed).normal(problem.dim))
        tol, bound, callback = 1e-8, precond.FWD_TOL, None
    res = pe.rsd_solve(
        problem, p, u0, pe.StepPolicy.theory(), tol=tol, maxit=2000, ctx=ctx, callback=callback
    )
    if recipe is not None:
        assert res.reason == "ResidualTol"
        bu = tight_fwd(p.exact(), res.u, problem.apply_a, 1e-13)
        drifts.append(abs(float(res.u @ bu) - 1.0))
    assert max(drifts) <= bound


@pytest.mark.parametrize("seed", [0, 1])
def test_u0_b_norm_is_second_order_in_the_nested_pcg(seed):
    # u^T z alone, z from a FWD_TOL nested PCG, is off by about 2e-13
    # relative here, and the scalar identity carries that to a solve's end
    problem = cli.build_problem("laplace-fem:h=2^-5")
    p = cli.build_precond("ddm:H=2^-2", problem)
    u = p.apply_inv(pe.Rng(seed).normal(problem.dim))
    tight = float(u @ tight_fwd(p, u, problem.apply_a, 1e-13))
    assert abs(u_space_route(problem.apply_a, p).b_norm_sq(u) - tight) <= 1e-14 * tight


def test_rsd_monotone_distance_in_basin():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(8)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.9, 500)
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=1e-10, maxit=3000, ctx=ctx)
    dist = column(res.trace, "distB")
    dist = dist[np.isfinite(dist)]
    # below ~1.5e-8 the arccos-based measurement quantizes; require strict
    # monotonicity only above that floor
    above = dist > 1e-7
    assert np.all(np.diff(dist[above]) <= 1e-12)
    assert np.all(np.diff(dist) <= 3e-8)


# ---------------------------------------------------------------------------
# classical PINVIT: the RSD loop at eta* = 1
# ---------------------------------------------------------------------------


def pinvit_reference(problem, precond, u0, tol, maxit):
    """Classical PINVIT as a loop of its own: u <- u - B^{-1} r with Euclidean
    renormalisation, stopping on ||r|| / lambda <= tol.  Returns the lambda of
    every visited iterate, the iteration count and the stop reason."""
    u = u0 / np.linalg.norm(u0)
    lams = []
    for t in range(maxit + 1):
        au = problem.apply_a(u)
        lam = float(u @ au)  # ||u|| = 1
        lams.append(lam)
        r = au - lam * u
        if np.linalg.norm(r) / lam <= tol:
            return np.array(lams), t, "ResidualTol"
        if t < maxit:
            u = u - precond.apply_inv(r)
            u = u / np.linalg.norm(u)
    return np.array(lams), maxit, "MaxIters"


def criterion_9_instance():
    problem = cli.build_problem("laplace-fd:h=2^-4")
    p = cli.build_precond("scaled:ddm:H=2^-2", problem)
    noise = pe.gaussian_vector(pe.Rng(5), problem.dim) / math.sqrt(problem.dim)
    return problem, p, problem.reference().u_star + 0.1 * noise, 1e-10, 300


def scaled_identity_instance():
    problem = dense_problem(np.diag([1.0, 2.0, 4.0, 7.0]))
    p = cli.build_precond("scaled:identity", problem)
    return problem, p, np.array([1.0, 0.3, 0.2, 0.1]), 1e-12, 500


def cli_instance(problem_recipe, precond_recipe):
    def build():
        problem = cli.build_problem(problem_recipe)
        p = cli.build_precond(precond_recipe, problem)
        return problem, p, p.apply_inv(pe.gaussian_vector(pe.Rng(3), problem.dim)), 1e-8, 2000

    return build


@pytest.mark.parametrize(
    "build, iterations",
    [
        (criterion_9_instance, 69),
        (scaled_identity_instance, 92),
        (cli_instance("laplace-fem:h=2^-5", "scaled:ddm:H=2^-2"), 73),
        (cli_instance("laplace-fd:h=2^-3", "exact"), 21),
        (cli_instance("kernel-laplace:n=40,seed=3", "scaled:mp-chol"), 1918),
    ],
    ids=["fd-scaled-ddm", "diag-scaled-identity", "fem-scaled-ddm", "fd-exact", "kernel-scaled-mp-chol"],
)
def test_pinvit_policy_matches_classical_loop(build, iterations):
    problem, p, u0, tol, maxit = build()
    lams, ref_iterations, ref_reason = pinvit_reference(problem, p, u0, tol, maxit)
    res = pe.rsd_solve(problem, p, u0, pe.StepPolicy.pinvit(), tol=tol, maxit=maxit, ctx=None)
    assert (res.iterations, res.reason) == (ref_iterations, ref_reason) == (iterations, "ResidualTol")
    assert abs(res.lam - lams[-1]) <= 1e-12 * lams[-1]
    if p.exact() is p:  # binary64 applies: the same iterates up to roundoff
        got = column(res.trace, "lambda")
        assert np.all(np.abs(got - lams) <= 1e-13 * lams)
    assert np.all(column(res.trace, "eta_star")[:-1] == 1.0)


def test_classic_exact_preconditioner_is_inverse_iteration():
    a = np.diag([1.0, 2.0, 4.0])
    problem = dense_problem(a)
    p = pe.make_spd(a)
    u0 = np.array([0.3, 0.5, 0.9])
    res = pe.rsd_solve(problem, p, u0, pe.StepPolicy.pinvit(), tol=1e-30, maxit=1, ctx=None)
    lam0 = float(u0 @ problem.apply_a(u0)) / float(u0 @ u0)
    # one step lands on the (normalized) inverse-iteration update
    expected = np.linalg.solve(a, u0)
    expected /= np.linalg.norm(expected)
    got = res.u / np.linalg.norm(res.u)
    if float(got @ expected) < 0:
        expected = -expected
    assert np.linalg.norm(got - expected) <= 1e-12
    assert res.lam <= lam0 + 1e-14


def test_classic_convresult_bound_scaled_identity():
    # diag A with scaled identity: rho_B = (kappa-1)/(kappa+1) analytically
    a = np.diag([1.0, 2.0, 4.0, 7.0])
    problem = dense_problem(a)
    nu_min, nu_max, kappa = pe.kappa_nu(problem, pe.make_identity())
    scaled = pe.spectral_scale(pe.make_identity(), nu_min, nu_max)
    ctx = pe.build_rate_context(problem, scaled)
    rho_b = max(abs(1.0 - scaled.eta * nu_min), abs(1.0 - scaled.eta * nu_max))
    rho = 1.0 - (1.0 - rho_b) * (1.0 - ctx.lam1 / ctx.lam2)
    u0 = np.array([1.0, 0.3, 0.2, 0.1])
    assert float(u0 @ problem.apply_a(u0)) / float(u0 @ u0) < ctx.lam2
    res = pe.rsd_solve(problem, scaled, u0, pe.StepPolicy.pinvit(), tol=1e-12, maxit=500, ctx=ctx)
    lams = column(res.trace, "lambda")
    ratios = (lams - ctx.lam1) / (ctx.lam2 - lams)
    for t in range(len(lams) - 1):
        assert ratios[t + 1] <= rho**2 * ratios[t] + 1e-12


# ---------------------------------------------------------------------------
# the pencil route against the u-space loop
# ---------------------------------------------------------------------------


def u_space_reference(problem, precond, u0, policy, tol, maxit, ctx):
    """rsd_solve as it ran before the pencil route: the same loop carried in
    u-space for every (problem, preconditioner) pair, so a mass-reduced step
    applies the reduced A (two R solves) and the lifted B^{-1} (two R
    products).  Returns the trace, the iteration count, the stop reason, the
    exit lambda and the u^T u of every visited iterate."""
    route = u_space_route(problem.apply_a, precond)
    renorm = precond.exact() is not precond
    u = u0 / math.sqrt(route.b_norm_sq(u0))
    trace = solvers.Trace()
    uus = []
    in_basin, flat, prev_lam = True, 0, None
    window_len = solvers._STAGNATION_WINDOW
    window = deque(maxlen=window_len)
    best_before = math.inf
    reason, iterations = "MaxIters", maxit
    for t in range(maxit + 1):
        state = pe.make_state(u, route)
        uus.append(state.uu)
        resnorm = np.linalg.norm(state.r)
        res_rel = resnorm / (state.lam * math.sqrt(state.uu))
        cos_dist = ctx.cos_dist_b(state.u, u_b_norm=1.0)
        dist_b = math.acos(cos_dist)
        if dist_b < solvers._DIST_B_FLOOR:
            dist_b = math.nan
        trace.append(t=t, lam=state.lam, f=state.f, resnorm=resnorm, distB=dist_b)
        if res_rel <= tol:
            reason, iterations = "ResidualTol", t
            break
        lam_flat = prev_lam is not None and abs(state.lam - prev_lam) <= 1e-15 * abs(state.lam)
        flat = flat + 1 if lam_flat else 0
        prev_lam = state.lam
        if len(window) == window_len:
            best_before = min(best_before, window[0])
        window.append(res_rel)
        if flat >= window_len and min(window) >= 0.9 * best_before:
            trace.event(
                t, "StagnatedStep", flat_steps=flat, window_best=min(window), best_before=best_before
            )
            reason, iterations = "StagnatedStep", t
            break
        if t == maxit:
            break
        g = math.sqrt(state.g2)
        margin = cos_dist - ctx.cos_phi
        if margin <= 0.0 and in_basin:
            trace.event(t, "BasinExit")
            in_basin = False
        elif margin > 0.0:
            if not in_basin:
                trace.event(t, "BasinEntry")
            in_basin = True
        if policy.kind == "pinvit":
            eta_star = 1.0
            eta = math.atan(g * state.uau**2 / (2.0 * state.uu)) / g
        else:
            if policy.kind == "theory":
                if in_basin:
                    eta = step_theory(cos_dist, ctx)
                else:
                    eta = min(step_constant(ctx, 0.25), math.pi / (4.0 * g))
            else:
                eta = step_constant(ctx, policy.value)
            eta_star = 2.0 * math.tan(eta * g) * state.uu / (g * state.uau**2)
        beta = math.cos(eta * g)
        xi = eta * pe.mu_x(state.uau, ctx) * pe.a_x(cos_dist, state.uau, ctx)
        trace.rows[-1].update(eta=eta, eta_star=eta_star, beta=beta, xi=xi)
        u = (state.u - eta_star * state.b_inv_r) / math.sqrt(1.0 + eta_star**2 * state.r_binv_r)
        if renorm:
            u = u / math.sqrt(route.b_norm_sq(u))
    trace.fill_contraction()
    return trace, iterations, reason, state.lam, np.array(uus)


REFERENCE_POLICIES = {
    "theory": pe.StepPolicy.theory(),
    "constant": pe.StepPolicy.constant(0.25),
    "pinvit": pe.StepPolicy.pinvit(),
}


@functools.lru_cache(maxsize=None)
def reference_instance(problem_recipe, precond_recipe):
    problem = cli.build_problem(problem_recipe)
    p = cli.build_precond(precond_recipe, problem)
    ctx = pe.build_rate_context(problem, p)
    return problem, p, ctx, p.apply_inv(pe.gaussian_vector(pe.Rng(0), problem.dim))


def csv_text(trace):
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("policy", list(REFERENCE_POLICIES))
@pytest.mark.parametrize("precond_recipe", ["ddm:H=2^-2", "scaled:ddm:H=2^-2"])
@pytest.mark.parametrize("problem_recipe", ["laplace-fem:h=2^-4", "laplace-fem:h=2^-5"])
def test_pencil_route_matches_u_space_loop(problem_recipe, precond_recipe, policy):
    """A lifted DDM on the FEM pencil runs in pencil coordinates; it visits
    the u-space loop's iterates up to roundoff.  Two orderings of the same
    arithmetic differ by roundoff that the outside-basin phase amplifies: a
    one-ulp change of u0 moves the u-space loop's own lambda by up to 3.3e-13
    and its resnorm near tol by up to 6.3e-7 relative, as the residual there
    is a difference of terms 1e8 times larger.  So lambda is compared to
    1e-12 relative and resnorm on the scale of the tol test, resnorm /
    (lambda ||u||), to 1e-11."""
    problem, p, ctx, u0 = reference_instance(problem_recipe, precond_recipe)
    assert p.pencil() is not None
    pol = REFERENCE_POLICIES[policy]
    ref, ref_iterations, ref_reason, ref_lam, uus = u_space_reference(
        problem, p, u0, pol, 1e-8, 1000, ctx
    )
    res = pe.rsd_solve(problem, p, u0, pol, tol=1e-8, maxit=1000, ctx=ctx)
    assert abs(res.lam - ref_lam) <= 1e-12 * ref_lam
    if ref_reason == "ResidualTol" or res.reason == "ResidualTol":
        assert (res.iterations, res.reason) == (ref_iterations, ref_reason)
    else:
        # classical PINVIT with the unscaled DDM (nu_max > 2) does not reach
        # tol; it ends on the stagnation guard or the budget at a step that
        # roundoff decides (a one-ulp change of u0 moves the u-space loop's
        # exit by 80 steps and more), so rows are compared where both ran
        assert {res.reason, ref_reason} <= {"StagnatedStep", "MaxIters"}
    k = min(res.iterations, ref_iterations) + 1
    lam, ref_lam_rows = column(res.trace, "lambda")[:k], column(ref, "lambda")[:k]
    assert np.all(np.abs(lam - ref_lam_rows) <= 1e-12 * ref_lam_rows)
    scale = ref_lam_rows * np.sqrt(uus[:k])
    res_dev = np.abs(column(res.trace, "resnorm")[:k] - column(ref, "resnorm")[:k]) / scale
    assert np.all(res_dev <= 1e-11)
    dist_dev = np.max(np.abs(column(res.trace, "distB")[:k] - column(ref, "distB")[:k]))
    print(f"worst distB deviation {dist_dev:.2e} (acos near 0 turns 1e-16 into 1e-8)")


@pytest.mark.parametrize("policy", list(REFERENCE_POLICIES))
def test_standard_problem_trace_is_the_u_space_loop(policy):
    problem, p, ctx, u0 = reference_instance("laplace-fd:h=2^-4", "ddm:H=2^-2")
    assert p.pencil() is None
    pol = REFERENCE_POLICIES[policy]
    ref, ref_iterations, ref_reason, ref_lam, _ = u_space_reference(
        problem, p, u0, pol, 1e-8, 1000, ctx
    )
    res = pe.rsd_solve(problem, p, u0, pol, tol=1e-8, maxit=1000, ctx=ctx)
    assert (res.iterations, res.reason, res.lam) == (ref_iterations, ref_reason, ref_lam)
    assert csv_text(res.trace) == csv_text(ref)
    assert res.trace.events == ref.events


def test_pencil_route_renormalises_a_lifted_binary32_b(monkeypatch):
    k, m = pe.fem_p1(2.0**-4)
    problem = pe.generalized_reduce(k, m)
    p = precond.HattedPreconditioner(pe.make_mp_cholesky(k.toarray()), problem.pencil[2])
    assert p.pencil().exact() is not p.pencil()
    ctx = pe.build_rate_context(problem, p)
    u0 = p.apply_inv(pe.gaussian_vector(pe.Rng(0), problem.dim))
    ref, ref_iterations, ref_reason, ref_lam, _ = u_space_reference(
        problem, p, u0, pe.StepPolicy.theory(), 1e-8, 1000, ctx
    )
    b_norms = []
    real_b_norm_sq = solvers.Route.b_norm_sq

    def b_norm_sq(*args):
        b_norms.append(args)
        return real_b_norm_sq(*args)

    monkeypatch.setattr(solvers.Route, "b_norm_sq", b_norm_sq)
    res = pe.rsd_solve(problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=1000, ctx=ctx)
    assert (res.iterations, res.reason) == (ref_iterations, ref_reason)
    assert res.reason == "ResidualTol"
    assert abs(res.lam - ref_lam) <= 1e-12 * ref_lam
    assert len(b_norms) == res.iterations + 1  # u0, then once per step


@pytest.mark.parametrize(
    "problem_recipe, precond_recipe",
    [
        ("laplace-fd:h=2^-4", "ddm:H=2^-2"),
        ("laplace-fem:h=2^-4", "identity"),
        ("laplace-fem:h=2^-4", "exact"),
        ("laplace-fem:h=2^-4", "mp-chol"),
    ],
)
def test_route_of_a_b_on_the_operator_is_u_space(problem_recipe, precond_recipe):
    problem = cli.build_problem(problem_recipe)
    p = cli.build_precond(precond_recipe, problem)
    route = pe.Route.of(problem, p)
    assert route.b is p and route.apply_a is problem.apply_a
    v = pe.Rng(0).normal(problem.dim)
    for name in ("apply_m", "to_x", "to_u", "residual_to_u"):
        assert getattr(route, name)(v) is v, name


@pytest.mark.parametrize("precond_recipe", ["ddm:H=2^-2", "scaled:ddm:H=2^-2"])
def test_route_of_a_lifted_b_is_the_pencil(precond_recipe):
    problem = cli.build_problem("laplace-fem:h=2^-4")
    p = cli.build_precond(precond_recipe, problem)
    route = pe.Route.of(problem, p)
    # b is the DDM built on K, scaled as p is
    if isinstance(p, precond.ScaledPreconditioner):
        assert isinstance(route.b, precond.ScaledPreconditioner) and route.b.eta == p.eta
        ddm, lifted = route.b.inner, p.inner
    else:
        ddm, lifted = route.b, p
    assert isinstance(ddm, pe.DdmPreconditioner) and ddm is lifted.inner
    k, m, _ = problem.pencil
    r = np.linalg.cholesky(m.toarray()).T  # M = R^T R
    x = pe.Rng(1).normal(problem.dim)
    assert np.array_equal(route.apply_a(x), k @ x) and np.array_equal(route.apply_m(x), m @ x)
    u = route.to_u(x)
    assert np.linalg.norm(u - r @ x) <= 1e-14 * np.linalg.norm(u)
    assert np.linalg.norm(route.to_x(u) - x) <= 1e-13 * np.linalg.norm(x)
    s = r.T @ x  # s = R^T r maps back to r
    assert np.linalg.norm(route.residual_to_u(s) - x) <= 1e-13 * np.linalg.norm(x)


def test_pencil_route_r_applies(monkeypatch):
    """On the pencil route a step makes one R^T solve (the residual norm) and
    no other R work; R^{-1} u0, R^T w* and the exit u = R x are made once."""
    problem, p, ctx, u0 = reference_instance("laplace-fem:h=2^-4", "ddm:H=2^-2")
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
    for maxit in (1000, 10):
        calls.clear()
        res = pe.rsd_solve(problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=maxit, ctx=ctx)
        visited = len(res.trace.rows)
        assert visited == res.iterations + 1
        assert calls == {"solve": 2, "solve_t": visited, "mult": 1}, (maxit, calls)


# ---------------------------------------------------------------------------
# step policies
# ---------------------------------------------------------------------------


def test_step_theory_at_minimizer_diag_identity():
    # B = I, A = diag(1,2,4), x = x*: eta = lam1 (1 - 0) / (2 numax (1 - 1/4))
    a = np.diag([1.0, 2.0, 4.0])
    problem = dense_problem(a)
    p = pe.make_identity()
    ctx = pe.build_rate_context(problem, p)
    state = pe.make_state(ctx.u_star, pe.Route.of(problem, p))
    eta = step_theory(ctx.cos_dist_b(state.u, u_b_norm=1.0), ctx)
    assert abs(eta - 1.0 / 6.0) <= 1e-9


def test_step_theory_positive_finite_at_x_star():
    problem, precond, ctx, _, _, _ = setup_instance(9)
    state = pe.make_state(
        ctx.u_star / math.sqrt(ctx.u_star @ dense_pair(9)[1] @ ctx.u_star), pe.Route.of(problem, precond)
    )
    eta = step_theory(ctx.cos_dist_b(state.u, u_b_norm=1.0), ctx)
    assert eta > 0.0 and np.isfinite(eta)


def test_step_theory_outside_basin_raises():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(10)
    d = pe.Rng(600).normal(len(x_star))
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x_out = pe.sphere_exp(x_star, min(math.pi / 2.0, 1.2 * ctx.phi) * d)
    u_out = b_inv_sqrt @ x_out
    _, b = dense_pair(10)
    u_out /= math.sqrt(u_out @ b @ u_out)
    state = pe.make_state(u_out, pe.Route.of(problem, precond))
    with pytest.raises(OutsideBasin):
        step_theory(ctx.cos_dist_b(state.u, u_b_norm=1.0), ctx)


def test_step_theory_cap_monte_carlo():
    # the locally optimal step always respects eta < pi / (2 ||grad f||)
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(11)
    _, b = dense_pair(11)
    rng = pe.Rng(700)
    for k in range(100):
        d = rng.normal(len(x_star))
        d -= float(d @ x_star) * x_star
        d /= np.linalg.norm(d)
        frac = (k + 0.5) / 100.0
        x = pe.sphere_exp(x_star, frac * 0.999 * ctx.phi * d)
        u = b_inv_sqrt @ x
        u /= math.sqrt(u @ b @ u)
        state = pe.make_state(u, pe.Route.of(problem, precond))
        g = math.sqrt(state.g2)
        if g == 0.0:
            continue
        eta = step_theory(ctx.cos_dist_b(state.u, u_b_norm=1.0), ctx)
        assert eta * g < math.pi / 2.0


def test_step_constant_arithmetic():
    ctx = pe.RateContext(
        lam1=1.0, lam2=1.5, lamn=2.0, u_star=np.array([1.0]), w_star=np.array([1.0]),
        norm_u_a=1.0, norm_u_b=1.0, norm_u_binv=1.0,
        sin_phi=1.0, cos_phi=0.0, nu_min=1.0, nu_max=1.0,
    )
    assert abs(step_constant(ctx, 0.25) - 0.5) <= 1e-16


def test_step_constant_rejects_bad_c():
    with pytest.raises(InvalidC):
        pe.StepPolicy.constant(0.6)
    with pytest.raises(InvalidC):
        pe.StepPolicy.constant(0.0)


@pytest.mark.parametrize(
    "policy", [pe.StepPolicy.theory(), pe.StepPolicy.constant(0.25)], ids=["theory", "constant"]
)
def test_rsd_policy_without_context_is_typed(policy):
    a, b = dense_pair(13, 6)
    with pytest.raises(OutsideBasin, match=f"{policy.kind} policy needs a RateContext"):
        pe.rsd_solve(
            dense_problem(a), pe.make_spd(b), np.ones(6), policy, tol=1e-8, maxit=1000, ctx=None
        )


def test_fixed_step_cap_violation():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(12)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.5, 800)
    with pytest.raises(StepCapViolated):
        pe.rsd_solve(problem, precond, u0, pe.StepPolicy.fixed(1e9), tol=1e-10, maxit=10, ctx=ctx)


def test_basin_exit_event_recorded():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(13)
    d = pe.Rng(900).normal(len(x_star))
    d -= float(d @ x_star) * x_star
    d /= np.linalg.norm(d)
    x_out = pe.sphere_exp(x_star, min(math.pi / 2.2, 1.3 * ctx.phi) * d)
    u_out = b_inv_sqrt @ x_out
    res = pe.rsd_solve(
        problem, precond, u_out, pe.StepPolicy.fixed(1e-3), tol=1e-10, maxit=50, ctx=ctx
    )
    assert any(name == "BasinExit" for _, name in res.trace.events)


@pytest.mark.parametrize("seed, iterations", [(0, 409), (2, 386)])
def test_lifted_ddm_solve_leaves_and_reenters_the_basin(seed, iterations):
    """The solve-ddm benchmark's solve one mesh level down (a DDM lifted to
    laplace-fem:h=2^-5, theory steps from a smooth start): the start lies
    outside the basin, so the run leaves it at t = 0, re-enters once and
    stays, and counts the steps from the entry on."""
    problem, p, ctx, _ = reference_instance("laplace-fem:h=2^-5", "ddm:H=2^-2")
    u0 = p.apply_inv(pe.gaussian_vector(pe.Rng(seed), problem.dim))
    res = pe.rsd_solve(problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=2000, ctx=ctx)
    assert (res.iterations, res.reason) == (iterations, "ResidualTol")
    (t_exit, exit_name), (t_entry, entry_name) = res.trace.events
    assert (t_exit, exit_name, entry_name) == (0, "BasinExit", "BasinEntry")
    assert 0 < t_entry < res.iterations
    assert res.basin_iterations == res.iterations - t_entry
    dist_b = column(res.trace, "distB")
    assert dist_b[t_entry - 1] > ctx.phi > dist_b[t_entry]


def test_in_basin_run_counts_every_step_and_records_no_event():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(16)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.5, 1200)
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=1e-9, maxit=1000, ctx=ctx)
    assert res.reason == "ResidualTol" and res.iterations > 0
    assert res.basin_iterations == res.iterations and res.trace.events == []
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.pinvit(), tol=1e-9, maxit=1000, ctx=None)
    assert res.basin_iterations is None


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_csv_header_and_determinism():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(14)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.5, 1000)

    def run():
        res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=1e-9, maxit=1000, ctx=ctx)
        buf = io.StringIO()
        res.trace.write_csv(buf)
        return buf.getvalue()

    text1, text2 = run(), run()
    assert text1 == text2
    assert text1.splitlines()[0] == ",".join(TRACE_COLUMNS)
    assert text1.splitlines()[0] == "t,lambda,f,resnorm,distB,eta,eta_star,beta,xi,contraction"


def test_dist_b_is_nan_exactly_below_its_floor():
    """distB is acos of the cosine that the basin test reads, written as NaN
    below _DIST_B_FLOOR, and contraction comes only from rows above it."""
    problem, p, ctx, u0 = reference_instance("laplace-fd:h=2^-4", "ddm:H=2^-2")
    cos = []
    res = pe.rsd_solve(
        problem, p, u0, pe.StepPolicy.theory(), tol=1e-8, maxit=1000, ctx=ctx,
        callback=lambda t, state: cos.append(ctx.cos_dist_b(state.u, u_b_norm=1.0)),
    )
    dist = np.array([math.acos(c) for c in cos])
    below = dist < solvers._DIST_B_FLOOR
    assert below.any() and not below.all()
    dist_b = column(res.trace, "distB")
    assert np.array_equal(np.isnan(dist_b), below)
    assert np.array_equal(dist_b[~below], dist[~below])
    contraction = column(res.trace, "contraction")[:-1]
    assert np.array_equal(np.isfinite(contraction), ~below[:-1] & ~below[1:])


def test_trace_contraction_column():
    problem, precond, ctx, _, b_inv_sqrt, x_star = setup_instance(15)
    u0, _ = in_basin_start(ctx, x_star, b_inv_sqrt, 0.7, 1100)
    res = pe.rsd_solve(problem, precond, u0, pe.StepPolicy.theory(), tol=1e-9, maxit=1000, ctx=ctx)
    rows = res.trace.rows
    for t in range(len(rows) - 1):
        d0, d1, c = rows[t]["distB"], rows[t + 1]["distB"], rows[t]["contraction"]
        if np.isfinite(c) and d0 > 0:
            assert abs(c - (d1 / d0) ** 2) <= 1e-12 * max(1.0, (d1 / d0) ** 2)
