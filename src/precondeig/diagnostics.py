"""Scalar diagnostics of preconditioner quality and convergence rates.

The distortion angle, spectral-equivalence bounds, the rate context and the
asymptotic contraction amount, plus a validator that tests every inequality
of the convergence analysis numerically on dense instances.  Each quantity
has one implementation: the validator evaluates the same distortion_angle
here and the same rate functions gamma_x, mu_x and a_x that the solver
steps by (they live in solvers), on a context built from explicit dense B.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import problems, solvers
from .errors import DimensionMismatch, PropertyViolation, ZeroVector
from .geometry import _clamp, sphere_dist, sphere_exp, sphere_log
from .linalg import Rng, cholesky, dense_sym_eig, lanczos_extremal, spawn_normal_rows
from .precond import MpCholPreconditioner, ScaledPreconditioner, apply_fwd_iterative, epsilon_l, make_spd
from .solvers import a_x, gamma_x, mu_x

_KAPPA_TOL = 1e-10  # tolerance of kappa_nu's Lanczos route
_SLACK = 1e-10  # absolute slack of validate_properties' checks (i)-(v) against roundoff


# ---------------------------------------------------------------------------
# distortion angles
# ---------------------------------------------------------------------------


def distortion_angle(u, b_u, b_inv_u, apply_b_inv):
    """(sin phi, cos phi) of the distortion angle at a unit vector u, from
    b_u = B u, b_inv_u = B^{-1} u and one more B^{-1} apply.

    sin phi = ||u||^2 / (||u||_B ||u||_{B^-1}), to relative precision.
    cos phi is the supremum of v^T B^{-1} u / (||v||_{B^-1} ||u||_{B^-1})
    over v orthogonal to u, attained at the B^{-1}-orthogonal projection
    v = u - B u / ||u||_B^2, where it equals ||v||_{B^-1} / ||u||_{B^-1}.
    That quadratic form of the small v has no cancellation, so cos phi near
    1e-8 keeps its relative precision (sqrt(1 - sin^2 phi) floors at about
    1e-8 absolute).  cos phi is 0 when u is (numerically) an eigenvector of
    B, where the maximizer degenerates.
    """
    u = np.asarray(u, dtype=np.float64)
    nrm2 = float(u @ u)
    if nrm2 == 0.0:
        raise ZeroVector("u_star is zero")
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"u must be a unit vector, got ||u||^2 = {nrm2!r}")
    nb2 = float(u @ b_u)
    nbi2 = float(u @ b_inv_u)
    if nb2 <= 0.0 or nbi2 <= 0.0:
        raise ZeroVector("u_star has non-positive B- or B^-1-norm")
    sin_phi = _clamp(nrm2 / math.sqrt(nb2 * nbi2))
    norm_b = math.sqrt(nb2)
    v = u - b_u / norm_b**2
    if np.linalg.norm(v) <= 1e-14 * np.linalg.norm(u):
        return sin_phi, 0.0
    return sin_phi, _clamp(math.sqrt(float(v @ apply_b_inv(v))) / math.sqrt(nbi2))


def theta_shao(u, b_u):
    """Leading angle arcsin(||u||_B^2 / (||B u|| ||u||)) from b_u = B u, for
    side-by-side comparison with the distortion angle.  Taken as pi/2 minus
    the angle between u and B u, which sphere_dist resolves near 0, where
    the arcsine of a ratio near 1 rounds to pi/2."""
    u = np.asarray(u, dtype=np.float64)
    nu, nbu = np.linalg.norm(u), np.linalg.norm(b_u)
    if nu * nbu == 0.0:
        raise ZeroVector("u_star is zero")
    return math.pi / 2.0 - float(sphere_dist(u / nu, b_u / nbu))


# ---------------------------------------------------------------------------
# spectral equivalence
# ---------------------------------------------------------------------------


def kappa_nu(problem, precond):
    """(nu_min, nu_max, kappa) of B^{-1} A, measured on the binary64 twin of B.
    Its applies run on the pair's solvers.Route: for a lifted B on P^{-1} K,
    with no R work.

    Dense route up to problems._DENSE_CAP: B^{-1} and A from one apply each
    to the identity block (every apply takes a block), A = L L^T by LAPACK
    Cholesky, and the extreme eigenvalues of the symmetric S = L^T B^{-1} L
    (similar to B^{-1} A) by LAPACK.  Above the cap, Lanczos at tol _KAPPA_TOL on
    B^{-1} A in the A-inner product, which hands apply_t the A q it already
    holds, so each step applies A once; it runs at most
    problems._LANCZOS_STEPS steps, the reference runs' cap, from a start
    drawn from Rng(4242).  Above that cap in rows it keeps no basis (the
    three-term recurrence of linalg._lanczos_tridiag): solve-ddm's pair
    takes 68 steps where a kept basis took 56, in about 60% of the time
    (2-vCPU Xeon, one BLAS thread), with nu_min and nu_max within 3e-15
    relative of the kept-basis run.
    """
    n = problem.dim
    route = solvers.Route.of(problem, precond.exact())
    if n <= problems._DENSE_CAP:
        l_a = cholesky(route.apply_a(np.eye(n))).l
        s = l_a.T @ route.b.apply_inv(np.eye(n)) @ l_a
        w = scipy.linalg.eigvalsh((s + s.T) / 2.0, check_finite=False)
        nu_min, nu_max = float(w[0]), float(w[-1])
    else:
        nu_min, nu_max = lanczos_extremal(
            route.b.apply_inv, dim=n, tol=_KAPPA_TOL, maxit=problems._LANCZOS_STEPS, rng=Rng(4242),
            inner_map=route.apply_a,
        )
    return nu_min, nu_max, nu_max / nu_min


# ---------------------------------------------------------------------------
# rate context: everything the step policies and rate formulas consume
# ---------------------------------------------------------------------------


@dataclass
class RateContext:
    lam1: float
    lam2: float
    lamn: float
    u_star: np.ndarray
    w_star: np.ndarray  # B u*, forward-applied once
    norm_u_a: float
    norm_u_b: float
    norm_u_binv: float
    sin_phi: float
    cos_phi: float
    nu_min: float
    nu_max: float

    @property
    def kappa(self):
        return self.nu_max / self.nu_min

    @property
    def phi(self):
        # asin(sin phi) is exactly pi/2 once sin phi rounds to 1
        return math.atan2(self.sin_phi, self.cos_phi)

    def cos_dist_b(self, u, u_b_norm):
        """cos dist_B(u, u*) for ||u||_B = u_b_norm, using the cached forward
        application of u*; for a (k, n) block u of rows, one value per row
        with u_b_norm one norm per row."""
        cos = np.abs(np.asarray(u) @ self.w_star) / (u_b_norm * self.norm_u_b)
        return np.clip(cos, -1.0, 1.0)


def _context(lam1, lam2, lamn, u, a_u, b_u, b_inv_u, apply_b_inv, nu_min, nu_max):
    """RateContext at the unit vector u* from its images A u*, B u* and
    B^-1 u*: the one place the norms of u* and the distortion angle are
    formed, for the solver's context and the dense validation oracle alike."""
    sin_phi, cos_phi = distortion_angle(u, b_u, b_inv_u, apply_b_inv)
    return RateContext(
        lam1=lam1,
        lam2=lam2,
        lamn=lamn,
        u_star=u,
        w_star=b_u,
        norm_u_a=math.sqrt(float(u @ a_u)),
        norm_u_b=math.sqrt(float(u @ b_u)),
        norm_u_binv=math.sqrt(float(u @ b_inv_u)),
        sin_phi=sin_phi,
        cos_phi=cos_phi,
        nu_min=nu_min,
        nu_max=nu_max,
    )


def build_rate_context(problem, precond):
    """Assemble the RateContext for a (problem, preconditioner) pair, measured
    on the binary64 twin of B: the problem's reference eigenpair, kappa_nu's
    spectral bounds and distortion_angle at u*.

    B u* is B's apply_fwd, computed once: exact for an explicit B, a nested
    PCG at FWD_TOL for an implicit one, on the pencil for a lifted DDM.
    B^-1 u* and cos phi's one more B^-1 apply run in u-space; B^-1 B u* is
    not replaced by u* because B u* carries the nested-PCG error.
    """
    ref = problem.reference()
    u = ref.u_star / np.linalg.norm(ref.u_star)
    exact = precond.exact()
    b_inv_u = exact.apply_inv(u)
    w = exact.apply_fwd(u)
    a_u = problem.apply_a(u)
    nu_min, nu_max, _ = kappa_nu(problem, precond)
    ctx = _context(
        ref.lam1, ref.lam2, ref.lamn, u, a_u, w, b_inv_u, exact.apply_inv, nu_min, nu_max
    )
    if abs(ctx.norm_u_a**2 - ref.lam1) > 1e-10 * max(1.0, ref.lam1):
        raise PropertyViolation("||u*||_A^2 != lambda1 ||u*||^2: u* is not converged")
    return ctx


def xi_inf(ctx):
    """Asymptotic contraction amount 4/(pi^2 (1+cos phi)^2) * gap ratio / kappa,
    the limit at u* of the per-step amount eta mu a that rsd_solve traces as
    xi under the theory step (prefactor halved relative to the naive limit
    because gamma carries the sharp factor 2).
    """
    gap_ratio = (1.0 / ctx.lam1 - 1.0 / ctx.lam2) / (1.0 / ctx.lam1 - 1.0 / ctx.lamn)
    return 4.0 / (math.pi**2 * (1.0 + ctx.cos_phi) ** 2) * gap_ratio / ctx.kappa


# ---------------------------------------------------------------------------
# the phi report
# ---------------------------------------------------------------------------


def _is_mp_cholesky(precond):
    """True when B is a Cholesky product Lhat Lhat^T, possibly scaled: scaling
    B leaves phi, and with it the bound cos phi <= sqrt(2 epsilon_l),
    unchanged.  A B lifted to a mass-reduced pencil is another matrix."""
    while isinstance(precond, ScaledPreconditioner):
        precond = precond.inner
    return isinstance(precond, MpCholPreconditioner)


def compute_quality(problem, precond):
    """The phi report of a (problem, preconditioner) pair, as a dict: the
    pencil extremes nu_min, nu_max and kappa_nu, cos2_phi set against
    one_minus_inv_kappa, chi = cos2_phi / (1 - 1/kappa) (None when kappa == 1
    makes it 0/0), theta_shao, rho_B, rho and xi_inf, and for a (scaled)
    mixed-precision Cholesky epsilon_l and epsilon_l_applicable."""
    ctx = build_rate_context(problem, precond)
    denom = 1.0 - 1.0 / ctx.kappa
    rho_b = (ctx.kappa - 1.0) / (ctx.kappa + 1.0)
    out = {
        "nu_min": ctx.nu_min,
        "nu_max": ctx.nu_max,
        "kappa_nu": ctx.kappa,
        "cos2_phi": ctx.cos_phi**2,
        "one_minus_inv_kappa": denom,
        # kappa == 1 up to numerics makes chi a 0/0; report it as n/a
        "chi": (ctx.cos_phi**2 / denom) if denom > 1e-9 else None,
        "theta_shao": theta_shao(ctx.u_star, ctx.w_star),
        "rho_B": rho_b,
        "rho": 1.0 - (1.0 - rho_b) * (1.0 - ctx.lam1 / ctx.lam2),
        "xi_inf": xi_inf(ctx),
    }
    if _is_mp_cholesky(precond):
        out["epsilon_l"], out["epsilon_l_applicable"] = epsilon_l(problem.dim, ctx.lam1, ctx.lamn)
    return out


# ---------------------------------------------------------------------------
# starting-vector conditions
# ---------------------------------------------------------------------------


def check_initial(problem, precond, u0, ctx, u0_b_norm_sq):
    """Evaluate both starting conditions on a (k, n) block u0 with one start
    per row, for the pair (problem, precond) that ctx was built on.  Every
    entry of the result is an array with one value per row; the thresholds
    they are set against are ctx.phi and ctx.lam2.

    Its applies run on the pair's solvers.Route: the B-norms and x^T A x /
    x^T M x are taken from x = route.to_x(u0^T), the B-norms by
    Route.b_norm_sq on B's binary64 twin unless u0_b_norm_sq gives them
    (from a sampler identity); only the distance to u* reads ctx's B u*,
    in u-space on either route.
    Raises DimensionMismatch when u0 is not 2-D and ZeroVector when a start
    is zero.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.ndim != 2:
        raise DimensionMismatch(f"u0 must be a (k, n) block of starts, got shape {u0.shape}")
    if not u0.any(axis=1).all():
        raise ZeroVector("u0 is zero")
    route = solvers.Route.of(problem, precond)
    x = route.to_x(u0.T)
    if u0_b_norm_sq is None:
        u0_b_norm_sq = route.b_norm_sq(x)
    dist = np.arccos(ctx.cos_dist_b(u0, np.sqrt(u0_b_norm_sq)))
    lam_u0 = np.einsum("ij,ij->i", x.T, route.apply_a(x).T)
    lam_u0 /= np.einsum("ij,ij->i", x.T, route.apply_m(x).T)
    return {
        "dist_b": dist,
        "condition_new": dist < ctx.phi,
        "lambda_u0": lam_u0,
        "condition_classic": lam_u0 < ctx.lam2,
    }


def success_probability(problem, precond, sampler, trials, seed, ctx=None):
    """Empirical success fractions of the two starting conditions over
    `trials` starts, start t drawn from Rng(spawn_seed(seed, t)).

    All the omega are drawn as one (trials, n) block by spawn_normal_rows,
    row t bit-identical to Rng(spawn_seed(seed, t)).normal(n), and
    check_initial checks the whole block at once.  sampler "gaussian" draws
    u0 = omega; "smooth" draws u0 = B^{-1} omega (one apply of the binary64
    twin's inverse to the block), for which ||u0||_B^2 = u0^T omega requires
    no forward application (check_initial measures a Gaussian start's).
    ctx None builds the RateContext here.  Raises ValueError for trials < 1
    or an unknown sampler, before any context is built.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if sampler not in ("gaussian", "smooth"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if ctx is None:
        ctx = build_rate_context(problem, precond)
    omega = spawn_normal_rows(seed, trials, problem.dim)
    if sampler == "smooth":
        u0 = precond.exact().apply_inv(omega.T).T
        b_norm_sq = np.einsum("ij,ij->i", u0, omega)
    else:
        u0, b_norm_sq = omega, None
    report = check_initial(problem, precond, u0, ctx, u0_b_norm_sq=b_norm_sq)
    hits_new = int(np.count_nonzero(report["condition_new"]))
    hits_classic = int(np.count_nonzero(report["condition_classic"]))
    return {
        "p_new": hits_new / trials,
        "p_classic": hits_classic / trials,
        "successes_new": hits_new,
        "successes_classic": hits_classic,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# property validation on dense instances
# ---------------------------------------------------------------------------


def random_spd_pair(seed, n):
    """Seeded dense SPD pair (A, B) with a guaranteed gap lambda2 > lambda1:
    A has eigenvalues in [1, 4], B in [1, 3].

    Shared by the validation command and the test suite.  Raises
    DimensionMismatch for n < 2, where lambda2 does not exist.
    """
    if n < 2:
        raise DimensionMismatch(f"need n >= 2, got {n}")
    rng = Rng(seed)
    qa = np.linalg.qr(rng.normal(n * n).reshape(n, n))[0]
    wa = 1.0 + 3.0 * np.sort(rng.uniform(n))
    wa[0] = 1.0
    wa[1] = max(wa[1], 1.35)
    a = (qa * wa) @ qa.T
    qb = np.linalg.qr(rng.normal(n * n).reshape(n, n))[0]
    wb = 1.0 + 2.0 * np.sort(rng.uniform(n))
    b = (qb * wb) @ qb.T
    return (a + a.T) / 2.0, (b + b.T) / 2.0


@dataclass
class PropertyReport:
    """validate_properties' result on one instance: how often each check "i"
    to "vii" ran, and one dict (check, label, detail, point x) per violation."""

    label: str
    n_samples: int
    checked: dict
    violations: list


class _DenseOracle:
    """Explicit x-space evaluation with dense B^{1/2}, on which
    validate_properties checks the inequalities.  ctx comes from the
    dense_sym_eig (LAPACK) spectra of A, B and C = B^{-1/2} A B^{-1/2} and
    explicit B and B^{-1}, through the same _context as build_rate_context,
    but none of its routes.  u* is signed as reference_eigs signs it (entry
    of largest magnitude positive), so the sample points depend on the
    instance and not on the eigensolver."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        wb, vb = dense_sym_eig(self.b)
        if wb[0] <= 0:
            raise PropertyViolation("B is not positive definite")
        self.b_sqrt = (vb * np.sqrt(wb)) @ vb.T
        self.b_inv_sqrt = (vb / np.sqrt(wb)) @ vb.T
        self.b_inv = (vb / wb) @ vb.T
        wa, va = dense_sym_eig(self.a)
        if wa[0] <= 0:
            raise PropertyViolation("A is not positive definite")
        u = va[:, 0]
        if u[np.argmax(np.abs(u))] < 0:
            u = -u
        c = self.b_inv_sqrt @ self.a @ self.b_inv_sqrt
        self.c = (c + c.T) / 2.0
        wc, _ = dense_sym_eig(self.c)
        self.ctx = _context(
            float(wa[0]), float(wa[1]), float(wa[-1]), u, self.a @ u, self.b @ u,
            self.b_inv @ u, lambda v: self.b_inv @ v, float(wc[0]), float(wc[-1]),
        )
        x = self.b_sqrt @ u
        self.x_star = x / np.linalg.norm(x)
        self.f_star = -1.0 / self.ctx.lam1

    def f_grad(self, x):
        """f, the Riemannian gradient and x^T C x for each row x of a block."""
        cx = x @ self.c  # C is exactly symmetric
        bx = x @ self.b_inv.T
        xcx = np.einsum("ij,ij->i", x, cx)
        f = -np.einsum("ij,ij->i", x, bx) / xcx
        g = -2.0 * (bx + f[:, None] * cx) / xcx[:, None]
        g -= np.einsum("ij,ij->i", x, g)[:, None] * x
        return f, g, xcx


def validate_properties(a, b, n_samples, seed, label, inject_bug):
    """Numerically test inequalities (i)-(vii) of the convergence analysis,
    (i)-(v) each up to the absolute slack _SLACK, on n_samples samples drawn
    from Rng(seed).  label names the instance in the report and its
    violations; inject_bug "a_x_sign" plants a sign error in a(x) as a
    negative control, None runs the checks as they are.

    (i) smoothness, (ii) quadratic growth, (iii) weak-quasi-convexity,
    (iv) weak-quasi-strong-convexity, (v) the basin projection bound,
    (vi) chi <= 1, (vii) per-step contraction along a short locally-stepped
    run.  Returns a PropertyReport carrying any counterexamples.  Raises
    ValueError for n_samples < 1.

    Sample k draws a direction x and then a direction xi from one stream;
    all n_samples pairs are drawn as one block (Rng.normal_rows) and checks
    (i)-(v) are evaluated on (n_samples, n) row blocks.  (i) and (ii) run at
    every x; (iii)-(v) at the in-basin point exp_{x*}(0.999 (k + 1/2)/S phi xi),
    skipped when xi is numerically parallel to x* or the point is not inside
    the basin, and (iv) only where a(x) > 1e-13.  (vii) runs once per step
    whose distB before and after and xi are finite.  Violations are reported
    in this order: (vi); then (i)-(v) in sample order, (i) to (v) within a
    sample; then (vii) in step order.  gamma, mu and a are the solver's
    gamma_x, mu_x and a_x on the oracle's context, evaluated at
    x^T C x = u^T A u (x = B^{1/2} u).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    oracle = _DenseOracle(a, b)
    n = oracle.a.shape[0]
    rng = Rng(seed)
    order = {key: i for i, key in enumerate(("i", "ii", "iii", "iv", "v", "vi", "vii"))}
    counts = dict.fromkeys(order, 0)
    failed = []  # (position, check, point, detail), put in report order below

    def check_rows(key, ok, positions, points, detail):
        counts[key] += len(ok)
        failed.extend((positions[j], key, points[j], detail(j)) for j in np.flatnonzero(~ok))

    ctx = oracle.ctx
    # the planted bug flips the sign of cos phi inside a(x)
    bug_sign = -1.0 if inject_bug == "a_x_sign" else 1.0

    # (vi) sorts at position -1, before sample 0
    chi_ok = np.array([ctx.cos_phi**2 <= (1.0 - 1.0 / ctx.kappa) + 1e-10])
    check_rows("vi", chi_ok, [-1], [ctx.u_star], lambda j: f"cos^2 phi = {ctx.cos_phi ** 2:.3e}")

    x_star, f_star = oracle.x_star, oracle.f_star
    draws = rng.normal_rows(2 * n_samples, n)
    x = draws[0::2] / np.linalg.norm(draws[0::2], axis=1, keepdims=True)
    xs = np.where((x @ x_star)[:, None] >= 0, x_star, -x_star)
    dist = sphere_dist(x, xs)
    fx, g, xcx = oracle.f_grad(x)
    every = np.arange(n_samples)
    check_rows(
        "i",
        fx - f_star + _SLACK >= np.einsum("ij,ij->i", g, g) / (2.0 * gamma_x(xcx, ctx)),
        every,
        x,
        lambda j: f"f-f*={fx[j] - f_star:.3e} vs |g|^2/2gamma",
    )
    check_rows(
        "ii",
        fx - f_star + _SLACK >= 0.5 * mu_x(xcx, ctx) * dist**2,
        every,
        x,
        lambda j: f"f-f*={fx[j] - f_star:.3e} vs mu/2 dist^2",
    )

    # in-basin samples for the basin-conditioned inequalities
    xi_dir = draws[1::2] - np.outer(draws[1::2] @ x_star, x_star)
    nd = np.linalg.norm(xi_dir, axis=1)
    kept = np.flatnonzero(nd >= 1e-12)
    t_frac = (kept + 0.5) / n_samples
    xi_dir = xi_dir[kept] / nd[kept, None]
    xb = sphere_exp(x_star, (0.999 * t_frac * ctx.phi)[:, None] * xi_dir)
    xbs = np.where((xb @ x_star)[:, None] >= 0, x_star, -x_star)
    dist_b = sphere_dist(xb, xbs)
    inside = dist_b < ctx.phi
    kept, xb, xbs, dist_b = kept[inside], xb[inside], xbs[inside], dist_b[inside]
    fb, gb, xcxb = oracle.f_grad(xb)
    a_val = a_x(np.cos(dist_b) + (1.0 - bug_sign) * ctx.cos_phi, xcxb, ctx)
    log_term = np.einsum("ij,ij->i", gb, -sphere_log(xb, xbs))
    check_rows(
        "iii",
        log_term + _SLACK >= 2.0 * a_val * (fb - f_star),
        kept,
        xb,
        lambda j: (
            f"<g,-log>={log_term[j]:.3e} vs 2a(f-f*)={2 * a_val[j] * (fb[j] - f_star):.3e}"
        ),
    )
    pos = a_val > 1e-13
    check_rows(
        "iv",
        fb[pos] - f_star
        <= log_term[pos] / a_val[pos] - 0.5 * mu_x(xcxb[pos], ctx) * dist_b[pos] ** 2 + _SLACK,
        kept[pos],
        xb[pos],
        lambda j: "weak-quasi-strong-convexity",
    )
    check_rows(
        "v",
        np.einsum("ij,ij->i", xb @ oracle.b_inv, xbs) + _SLACK
        >= ctx.norm_u_binv**2 * (np.cos(dist_b) - ctx.cos_phi),
        kept,
        xb,
        lambda j: "basin projection bound",
    )

    # (vii): short locally-stepped run in u-space on the oracle's context,
    # checked in x-space
    problem = problems.EigenProblem(dim=n, apply_a=lambda v: oracle.a @ v)
    precond = make_spd(oracle.b)
    start_dir = rng.normal(n)
    start_dir -= float(start_dir @ oracle.x_star) * oracle.x_star
    start_dir /= np.linalg.norm(start_dir)
    x0 = sphere_exp(oracle.x_star, (0.6 * ctx.phi) * start_dir)
    u0 = oracle.b_inv_sqrt @ x0
    result = solvers.rsd_solve(
        problem,
        precond,
        u0,
        solvers.StepPolicy.theory(),
        tol=1e-13,
        maxit=25,
        ctx=ctx,
    )
    trace = np.array([(row["distB"], row["xi"]) for row in result.trace.rows])
    steps = np.flatnonzero(np.isfinite(trace[:-1]).all(axis=1) & np.isfinite(trace[1:, 0]))
    d0, xi_t, d1 = trace[steps, 0], trace[steps, 1], trace[steps + 1, 0]
    # step t sorts at position n_samples + t, after the last sample
    check_rows(
        "vii",
        d1**2 <= (1.0 - xi_t) * d0**2 + 1e-12,
        n_samples + steps,
        [oracle.x_star] * len(steps),
        lambda j: (
            f"step {steps[j]}: dist1^2={d1[j] ** 2:.3e} vs "
            f"(1-xi) dist0^2={(1 - xi_t[j]) * d0[j] ** 2:.3e}"
        ),
    )

    failed.sort(key=lambda item: (item[0], order[item[1]]))
    violations = [
        {"check": key, "label": label, "detail": detail, "x": point.copy()}
        for _, key, point, detail in failed
    ]
    return PropertyReport(label=label, n_samples=n_samples, checked=counts, violations=violations)
