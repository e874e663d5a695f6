"""Scalar diagnostics of preconditioner quality and convergence rates.

Two independent formulas for the distortion angle, spectral-equivalence
bounds, the local rate functions gamma/mu/a and the per-step and asymptotic
contraction amounts, plus validators that test every inequality of the
convergence analysis numerically on dense instances.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotSpd, OutsideBasin, PropertyViolation, ZeroVector
from .geometry import _clamp, sphere_dist, sphere_exp, sphere_log
from .linalg import Rng, dense_sym_eig, gaussian_vector, lanczos_extremal, spawn_seed
from .precond import apply_fwd_iterative, epsilon_l


# ---------------------------------------------------------------------------
# distortion angles
# ---------------------------------------------------------------------------


def cos_phi_direct(u_star, b_inv_u, b_fwd_u):
    """(sin phi, cos phi) from sin phi = ||u||^2 / (||u||_B ||u||_{B^-1}).

    sin phi is accurate to relative precision.  The cos phi returned is
    sqrt(1 - sin^2 phi), which is accurate only to about 1e-8 in absolute
    terms and is 0 whenever sin phi rounds to 1; build_rate_context does not
    use it for cos phi (see cos_phi_variational).
    """
    u = np.asarray(u_star, dtype=np.float64)
    nrm2 = float(u @ u)
    if nrm2 == 0.0:
        raise ZeroVector("u_star is zero")
    nb2 = float(u @ b_fwd_u)
    nbi2 = float(u @ b_inv_u)
    if nb2 <= 0.0 or nbi2 <= 0.0:
        raise ZeroVector("u_star has non-positive B- or B^-1-norm")
    sin_phi = _clamp(nrm2 / math.sqrt(nb2 * nbi2))
    cos_phi = math.sqrt(max(0.0, 1.0 - sin_phi * sin_phi))
    return sin_phi, cos_phi


def cos_phi_variational(u_star, apply_b, apply_b_inv):
    """cos phi as the supremum of v^T B^{-1} u / (||v||_{B^-1} ||u||_{B^-1})
    over v orthogonal to u, evaluated in closed form via the maximizer
    v = u - (||u||^2 / ||u||_B^2) B u.

    v is the B^{-1}-orthogonal projection of u onto the orthogonal complement
    of u, so v^T B^{-1} u = v^T B^{-1} v and the supremum is
    ||v||_{B^-1} / ||u||_{B^-1}.  That quadratic form of the small vector v
    has no cancellation, where
    v^T B^{-1} u, formed from O(1) terms, loses most of its digits once
    cos phi is near 1e-8.

    Returns 0 when u is (numerically) an eigenvector of B, where the
    maximizing direction degenerates.
    """
    u = np.asarray(u_star, dtype=np.float64)
    bu = apply_b(u)
    nrm2 = float(u @ u)
    nb2 = float(u @ bu)
    if nrm2 == 0.0 or nb2 <= 0.0:
        raise ZeroVector("u_star is zero or has non-positive B-norm")
    v = u - (nrm2 / nb2) * bu
    if np.linalg.norm(v) <= 1e-14 * np.linalg.norm(u):
        return 0.0
    nbi2 = float(u @ apply_b_inv(u))
    return _clamp(math.sqrt(float(v @ apply_b_inv(v)) / nbi2))


def theta_shao(u_star, apply_b):
    """Leading angle arcsin(||u||_B^2 / (||B u|| ||u||)) for side-by-side
    comparison with the distortion angle."""
    u = np.asarray(u_star, dtype=np.float64)
    bu = apply_b(u)
    nb2 = float(u @ bu)
    den = np.linalg.norm(bu) * np.linalg.norm(u)
    if den == 0.0:
        raise ZeroVector("u_star is zero")
    return math.asin(_clamp(nb2 / den))


# ---------------------------------------------------------------------------
# spectral equivalence
# ---------------------------------------------------------------------------


def kappa_nu(problem, precond, tol=1e-10, maxit=400, dense_cap=200, rng=None):
    """(nu_min, nu_max, kappa) of B^{-1} A, measured on the binary64 twin of B.

    Dense route up to dense_cap: B^{-1} from n column applies of the twin,
    A = L L^T by LAPACK Cholesky, and the extreme eigenvalues of the
    symmetric S = L^T B^{-1} L (similar to B^{-1} A) by LAPACK.  Above
    dense_cap, Lanczos on B^{-1} A in the A-inner product, which hands
    apply_t the A q it already holds, so each step applies A once.
    """
    n = problem.dim
    exact = precond.exact()
    if n <= dense_cap:
        try:
            l_a = scipy.linalg.cholesky(problem.dense(), lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSpd(-1, f"A is not positive definite: {exc}") from exc
        binv = np.column_stack([exact.apply_inv(e) for e in np.eye(n)])
        s = l_a.T @ binv @ l_a
        w = scipy.linalg.eigvalsh((s + s.T) / 2.0, check_finite=False)
        nu_min, nu_max = float(w[0]), float(w[-1])
    else:
        nu_min, nu_max = lanczos_extremal(
            exact.apply_inv,
            dim=n,
            tol=tol,
            maxit=maxit,
            rng=rng or Rng(4242),
            inner_map=problem.apply_a,
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
    b_inv_u: np.ndarray  # B^{-1} u*
    norm_u: float
    norm_u_a: float
    norm_u_b: float
    norm_u_binv: float
    sin_phi: float
    cos_phi: float
    nu_min: float
    nu_max: float
    problem: object = None
    precond: object = None

    @property
    def kappa(self):
        return self.nu_max / self.nu_min

    @property
    def phi(self):
        # asin(sin phi) is exactly pi/2 once sin phi rounds to 1
        return math.atan2(self.sin_phi, self.cos_phi)

    def cos_dist_b(self, u, u_b_norm=1.0):
        """cos dist_B(u, u*) using the cached forward application of u*."""
        return _clamp(abs(float(np.asarray(u) @ self.w_star)) / (u_b_norm * self.norm_u_b))


def build_rate_context(problem, precond):
    """Assemble the RateContext for a (problem, preconditioner) pair, measured
    on the binary64 twin of B.

    B u* is computed once: exactly for explicit preconditioners, by nested
    PCG at FWD_TOL for implicit ones.  cos phi takes the norm form of
    cos_phi_variational, ||v||_{B^-1} / ||u||_{B^-1} with v = u - B u* / ||u*||_B^2,
    at the cost of one more B^-1 application; B^-1 B u* is not replaced by u*
    because B u* carries the nested-PCG error.
    """
    ref = problem.reference()
    u = ref.u_star / np.linalg.norm(ref.u_star)
    exact = precond.exact()
    b_inv_u = exact.apply_inv(u)
    if exact.fwd_mode == "exact":
        w = exact.apply_fwd(u)
    else:
        w = apply_fwd_iterative(exact, u, apply_a=problem.apply_a)
    norm_u = 1.0
    norm_u_a = math.sqrt(float(u @ problem.apply_a(u)))
    norm_u_b = math.sqrt(float(u @ w))
    norm_u_binv = math.sqrt(float(u @ b_inv_u))
    sin_phi, _ = cos_phi_direct(u, b_inv_u, w)
    v = u - w / norm_u_b**2
    cos_phi = _clamp(math.sqrt(float(v @ exact.apply_inv(v))) / norm_u_binv)
    nu_min, nu_max, _ = kappa_nu(problem, precond)
    ctx = RateContext(
        lam1=ref.lam1,
        lam2=ref.lam2,
        lamn=ref.lamn,
        u_star=u,
        w_star=w,
        b_inv_u=b_inv_u,
        norm_u=norm_u,
        norm_u_a=norm_u_a,
        norm_u_b=norm_u_b,
        norm_u_binv=norm_u_binv,
        sin_phi=sin_phi,
        cos_phi=cos_phi,
        nu_min=nu_min,
        nu_max=nu_max,
        problem=problem,
        precond=precond,
    )
    if abs(norm_u_a**2 - ref.lam1 * norm_u**2) > 1e-10 * max(1.0, ref.lam1):
        raise PropertyViolation("||u*||_A^2 != lambda1 ||u*||^2: u* is not converged")
    return ctx


# ---------------------------------------------------------------------------
# rate functions of the convergence analysis
# ---------------------------------------------------------------------------


def gamma_x(state, ctx):
    """Smoothness parameter 2 nu_max (1/l1 - 1/ln) / ||A^{1/2}B^{-1/2}x||^2.

    The sharp geodesic smoothness constant of the sphere Rayleigh quotient of
    A^{-1} is 2(1/l1 - 1/ln): a two-component vector near the minimizer
    attains it, so the factor 2 is required for the smoothness-type bound
    f - f* >= ||grad f||^2 / (2 gamma) to hold.
    """
    return 2.0 * ctx.nu_max * (1.0 / ctx.lam1 - 1.0 / ctx.lamn) / state.uau


def mu_x(state, ctx):
    """Quadratic-growth parameter; bounded below by 8(1/l1-1/l2)/(pi^2 kappa)."""
    return (
        8.0
        * ctx.nu_min
        * (1.0 / ctx.lam1 - 1.0 / ctx.lam2)
        * ctx.norm_u_b
        / (math.pi**2 * math.sqrt(state.uau) * ctx.norm_u_a)
    )


def a_x(state, ctx):
    """Weak-quasi-convexity factor; positive inside the basin, sign reported."""
    cos_dist = ctx.cos_dist_b(state.u, state.b_norm)
    margin = cos_dist - ctx.cos_phi
    return ctx.lam1 * ctx.norm_u_binv**2 * margin / (state.uau * ctx.norm_u**2)


def xi_t(state, ctx):
    """Per-step contraction amount for the locally optimal step eta = a/gamma.

    Equals a(x)^2 mu(x) / gamma(x) in closed form; reported with the sign of
    the basin margin so out-of-basin states yield xi <= 0 (no contraction
    claimed).  The prefactor is 4 rather than 8 because gamma carries the
    sharp factor 2 (see gamma_x).
    """
    cos_dist = ctx.cos_dist_b(state.u, state.b_norm)
    margin = cos_dist - ctx.cos_phi
    value = (
        4.0
        * ctx.lam1**2
        * ctx.norm_u_b
        * ctx.norm_u_binv**4
        / (math.pi**2 * ctx.norm_u**4 * ctx.norm_u_a)
        * (margin * abs(margin))
        / state.uau**1.5
        * (1.0 / ctx.lam1 - 1.0 / ctx.lam2)
        / (ctx.kappa * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))
    )
    return value


def xi_inf(ctx, check_identity=True):
    """Asymptotic contraction amount 4/(pi^2 (1+cos phi)^2) * gap ratio / kappa
    (prefactor halved relative to the per-step formula's naive limit because
    gamma carries the sharp factor 2).

    Also cross-checks the closed-form comparison against 1 - rho from the
    classical rate; the two expressions are algebraically identical.
    """
    gap_ratio = (1.0 / ctx.lam1 - 1.0 / ctx.lam2) / (1.0 / ctx.lam1 - 1.0 / ctx.lamn)
    value = 4.0 / (math.pi**2 * (1.0 + ctx.cos_phi) ** 2) * gap_ratio / ctx.kappa
    if check_identity:
        rho_b = (ctx.kappa - 1.0) / (ctx.kappa + 1.0)
        rho = 1.0 - (1.0 - rho_b) * (1.0 - ctx.lam1 / ctx.lam2)
        via_rho = (
            (1.0 - rho)
            * 2.0
            / (math.pi**2 * (1.0 + ctx.cos_phi) ** 2)
            * (ctx.kappa + 1.0)
            / ctx.kappa
            / (1.0 - ctx.lam1 / ctx.lamn)
        )
        if abs(via_rho - value) > 1e-10 * max(1.0, abs(value)):
            raise PropertyViolation(
                f"xi_inf comparison identity violated: {value!r} vs {via_rho!r}"
            )
    return value


# ---------------------------------------------------------------------------
# preconditioner quality bundle
# ---------------------------------------------------------------------------


@dataclass
class PrecondQuality:
    nu_min: float
    nu_max: float
    kappa_nu: float
    sin_phi: float
    cos_phi: float
    theta_shao: float
    chi: float  # None when kappa == 1 (0/0)
    rho_b: float
    rho: float
    xi_inf: float
    epsilon_l: float = None
    epsilon_l_applicable: bool = None

    def to_json_dict(self):
        out = {
            "nu_min": self.nu_min,
            "nu_max": self.nu_max,
            "kappa_nu": self.kappa_nu,
            "cos2_phi": self.cos_phi**2,
            "one_minus_inv_kappa": 1.0 - 1.0 / self.kappa_nu,
            "chi": self.chi,
            "theta_shao": self.theta_shao,
            "rho_B": self.rho_b,
            "rho": self.rho,
            "xi_inf": self.xi_inf,
        }
        if self.epsilon_l is not None:
            out["epsilon_l"] = self.epsilon_l
            out["epsilon_l_applicable"] = self.epsilon_l_applicable
        return out


def compute_quality(problem, precond, ctx=None):
    """Full diagnostics bundle for a (problem, preconditioner) pair."""
    if ctx is None:
        ctx = build_rate_context(problem, precond)
    denom = 1.0 - 1.0 / ctx.kappa
    # kappa == 1 up to numerics makes chi a 0/0; report it as n/a
    chi = (ctx.cos_phi**2 / denom) if denom > 1e-9 else None
    rho_b = (ctx.kappa - 1.0) / (ctx.kappa + 1.0)
    rho = 1.0 - (1.0 - rho_b) * (1.0 - ctx.lam1 / ctx.lam2)
    eps = eps_ok = None
    if getattr(precond, "label", "") == "mp-chol":
        eps, eps_ok = epsilon_l(problem.dim, ctx.lam1, ctx.lamn)
    # theta at u* needs only the cached forward application w* = B u*
    theta = theta_shao(ctx.u_star, lambda _: ctx.w_star)
    return PrecondQuality(
        nu_min=ctx.nu_min,
        nu_max=ctx.nu_max,
        kappa_nu=ctx.kappa,
        sin_phi=ctx.sin_phi,
        cos_phi=ctx.cos_phi,
        theta_shao=theta,
        chi=chi,
        rho_b=rho_b,
        rho=rho,
        xi_inf=xi_inf(ctx),
        epsilon_l=eps,
        epsilon_l_applicable=eps_ok,
    )


# ---------------------------------------------------------------------------
# starting-vector conditions
# ---------------------------------------------------------------------------


def check_initial(u0, ctx, u0_b_norm_sq=None, c_grid=None):
    """Evaluate both starting conditions and the simplified margin condition.

    u0_b_norm_sq may be supplied when u0^T B u0 is known from the sampler
    identity; otherwise one forward application of the binary64 twin of B is
    spent.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if not np.any(u0):
        raise ZeroVector("u0 is zero")
    if u0_b_norm_sq is None:
        exact = ctx.precond.exact()
        if exact.fwd_mode == "exact":
            bu0 = exact.apply_fwd(u0)
        else:
            bu0 = apply_fwd_iterative(exact, u0, apply_a=ctx.problem.apply_a)
        u0_b_norm_sq = float(u0 @ bu0)
    cos_dist = ctx.cos_dist_b(u0, math.sqrt(u0_b_norm_sq))
    dist = math.acos(_clamp(cos_dist))
    phi = ctx.phi
    lam_u0 = float(u0 @ ctx.problem.apply_a(u0)) / float(u0 @ u0)
    if c_grid is None:
        c_grid = [round(0.05 * k, 2) for k in range(1, 10)]
    lemma = {
        c: cos_dist**2 >= 1.0 - (1.0 - 2.0 * c) / ctx.kappa for c in c_grid
    }
    return {
        "dist_b": dist,
        "phi": phi,
        "condition_new": dist < phi,
        "lambda_u0": lam_u0,
        "lambda2": ctx.lam2,
        "condition_classic": lam_u0 < ctx.lam2,
        "lemma_margin": lemma,
    }


def success_probability(problem, precond, sampler="gaussian", trials=100, seed=0, ctx=None):
    """Empirical success fractions of the two starting conditions.

    gaussian draws u0 = omega; smooth draws u0 = B^{-1} omega, for which
    ||u0||_B^2 = u0^T omega requires no forward application.
    """
    if ctx is None:
        ctx = build_rate_context(problem, precond)
    exact = precond.exact()
    n = problem.dim
    hits_new = 0
    hits_classic = 0
    for t in range(trials):
        rng = Rng(spawn_seed(seed, t))
        omega = gaussian_vector(rng, n)
        if sampler == "smooth":
            u0 = exact.apply_inv(omega)
            b_norm_sq = float(u0 @ omega)
        elif sampler == "gaussian":
            u0 = omega
            b_norm_sq = None
        else:
            raise ValueError(f"unknown sampler {sampler!r}")
        report = check_initial(u0, ctx, u0_b_norm_sq=b_norm_sq)
        hits_new += bool(report["condition_new"])
        hits_classic += bool(report["condition_classic"])
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


def random_spd_pair(seed, n, spread_a=4.0, spread_b=3.0):
    """Seeded dense SPD pair (A, B) with a guaranteed gap lambda2 > lambda1.

    Shared by the validation command and the test suite.
    """
    rng = Rng(seed)
    qa = np.linalg.qr(rng.normal(n * n).reshape(n, n))[0]
    wa = 1.0 + (spread_a - 1.0) * np.sort(rng.uniform(n))
    wa[0] = 1.0
    wa[1] = max(wa[1], 1.35)
    a = (qa * wa) @ qa.T
    qb = np.linalg.qr(rng.normal(n * n).reshape(n, n))[0]
    wb = 1.0 + (spread_b - 1.0) * np.sort(rng.uniform(n))
    b = (qb * wb) @ qb.T
    return (a + a.T) / 2.0, (b + b.T) / 2.0


@dataclass
class PropertyReport:
    label: str
    n_samples: int
    checked: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def merge(self, other):
        for key, cnt in other.checked.items():
            self.checked[key] = self.checked.get(key, 0) + cnt
        self.violations.extend(other.violations)


class _DenseOracle:
    """Explicit x-space evaluation with dense B^{1/2}; test-side only."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        n = self.a.shape[0]
        wb, vb = dense_sym_eig(self.b)
        if wb[0] <= 0:
            raise PropertyViolation("B is not positive definite")
        self.b_sqrt = (vb * np.sqrt(wb)) @ vb.T
        self.b_inv_sqrt = (vb / np.sqrt(wb)) @ vb.T
        self.b_inv = (vb / wb) @ vb.T
        wa, va = dense_sym_eig(self.a)
        if wa[0] <= 0:
            raise PropertyViolation("A is not positive definite")
        self.lam1, self.lam2, self.lamn = float(wa[0]), float(wa[1]), float(wa[-1])
        self.u_star = va[:, 0]
        c = self.b_inv_sqrt @ self.a @ self.b_inv_sqrt
        self.c = (c + c.T) / 2.0
        wc, _ = dense_sym_eig(self.c)
        self.nu_min, self.nu_max = float(wc[0]), float(wc[-1])
        self.kappa = self.nu_max / self.nu_min
        x = self.b_sqrt @ self.u_star
        self.x_star = x / np.linalg.norm(x)
        nrm2 = float(self.u_star @ self.u_star)
        nb = math.sqrt(float(self.u_star @ self.b @ self.u_star))
        nbi = math.sqrt(float(self.u_star @ self.b_inv @ self.u_star))
        self.norm_u = math.sqrt(nrm2)
        self.norm_u_b = nb
        self.norm_u_binv = nbi
        self.norm_u_a = math.sqrt(float(self.u_star @ self.a @ self.u_star))
        self.sin_phi = _clamp(nrm2 / (nb * nbi))
        # the norm form of cos_phi_variational is a quadratic form of the
        # small projected vector, so nothing cancels and small angles keep
        # their relative precision; sqrt(1 - sin^2) floors at ~1e-8 absolute
        self.cos_phi = cos_phi_variational(
            self.u_star, lambda v: self.b @ v, lambda v: self.b_inv @ v
        )
        # asin(sin phi) is exactly pi/2 once sin phi rounds to 1
        self.phi = math.atan2(self.sin_phi, self.cos_phi)
        self.f_star = -1.0 / self.lam1

    def f_grad(self, x):
        """f, the Riemannian gradient and x^T C x for each row x of a block."""
        cx = x @ self.c  # C is exactly symmetric
        bx = x @ self.b_inv.T
        xcx = np.einsum("ij,ij->i", x, cx)
        f = -np.einsum("ij,ij->i", x, bx) / xcx
        g = -2.0 * (bx + f[:, None] * cx) / xcx[:, None]
        g -= np.einsum("ij,ij->i", x, g)[:, None] * x
        return f, g, xcx

    def gamma(self, xcx):
        # sharp smoothness constant: factor 2, see gamma_x
        return 2.0 * self.nu_max * (1.0 / self.lam1 - 1.0 / self.lamn) / xcx

    def mu(self, xcx):
        return (
            8.0
            * self.nu_min
            * (1.0 / self.lam1 - 1.0 / self.lam2)
            * self.norm_u_b
            / (math.pi**2 * np.sqrt(xcx) * self.norm_u_a)
        )

    def a_factor(self, xcx, dist, phi_sign=1.0):
        # phi_sign = -1 is the validator's planted-bug hook
        return (
            self.lam1
            * self.norm_u_binv**2
            * (np.cos(dist) - phi_sign * self.cos_phi)
            / (xcx * self.norm_u**2)
        )


def validate_properties(a, b, n_samples=500, seed=0, slack=1e-10, label="", inject_bug=None):
    """Numerically test inequalities (i)-(vii) of the convergence analysis.

    (i) smoothness, (ii) quadratic growth, (iii) weak-quasi-convexity,
    (iv) weak-quasi-strong-convexity, (v) the basin projection bound,
    (vi) chi <= 1, (vii) per-step contraction along a short locally-stepped
    run.  Returns a PropertyReport carrying any counterexamples.

    Sample k draws a direction x and then a direction xi from one stream;
    all n_samples pairs are drawn as one block (Rng.normal_rows) and checks
    (i)-(v) are evaluated on (n_samples, n) row blocks.  (i) and (ii) run at
    every x; (iii)-(v) at the in-basin point exp_{x*}(0.999 (k + 1/2)/S phi xi),
    skipped when xi is numerically parallel to x* or the point is not inside
    the basin, and (iv) only where a(x) > 1e-13.  Violations are reported in
    sample order, (i) to (v) within a sample.
    """
    oracle = _DenseOracle(a, b)
    n = oracle.a.shape[0]
    rng = Rng(seed)
    report = PropertyReport(label=label or f"n={n}", n_samples=n_samples)
    counts = {k: 0 for k in ("i", "ii", "iii", "iv", "v", "vi", "vii")}

    def record(key, ok, x, detail):
        counts[key] += 1
        if not ok:
            report.violations.append(
                {"check": key, "label": report.label, "detail": detail, "x": x.copy()}
            )

    bug_sign = -1.0 if inject_bug == "a_x_sign" else 1.0

    chi_ok = oracle.cos_phi**2 <= (1.0 - 1.0 / oracle.kappa) + 1e-10
    record("vi", chi_ok, oracle.u_star, f"cos^2 phi = {oracle.cos_phi ** 2:.3e}")

    failed = []  # (sample, check, point, detail), put in order below

    def check_rows(key, ok, samples, points, detail):
        counts[key] += len(ok)
        failed.extend((samples[j], key, points[j], detail(j)) for j in np.flatnonzero(~ok))

    x_star, f_star = oracle.x_star, oracle.f_star
    draws = rng.normal_rows(2 * n_samples, n)
    x = draws[0::2] / np.linalg.norm(draws[0::2], axis=1, keepdims=True)
    xs = np.where((x @ x_star)[:, None] >= 0, x_star, -x_star)
    dist = sphere_dist(x, xs)
    fx, g, xcx = oracle.f_grad(x)
    every = np.arange(n_samples)
    check_rows(
        "i",
        fx - f_star + slack >= np.einsum("ij,ij->i", g, g) / (2.0 * oracle.gamma(xcx)),
        every,
        x,
        lambda j: f"f-f*={fx[j] - f_star:.3e} vs |g|^2/2gamma",
    )
    check_rows(
        "ii",
        fx - f_star + slack >= 0.5 * oracle.mu(xcx) * dist**2,
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
    xb = sphere_exp(x_star, (0.999 * t_frac * oracle.phi)[:, None] * xi_dir)
    xbs = np.where((xb @ x_star)[:, None] >= 0, x_star, -x_star)
    dist_b = sphere_dist(xb, xbs)
    inside = dist_b < oracle.phi
    kept, xb, xbs, dist_b = kept[inside], xb[inside], xbs[inside], dist_b[inside]
    fb, gb, xcxb = oracle.f_grad(xb)
    a_val = oracle.a_factor(xcxb, dist_b, phi_sign=bug_sign)
    log_term = np.einsum("ij,ij->i", gb, -sphere_log(xb, xbs))
    check_rows(
        "iii",
        log_term + slack >= 2.0 * a_val * (fb - f_star),
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
        <= log_term[pos] / a_val[pos] - 0.5 * oracle.mu(xcxb[pos]) * dist_b[pos] ** 2 + slack,
        kept[pos],
        xb[pos],
        lambda j: "weak-quasi-strong-convexity",
    )
    check_rows(
        "v",
        np.einsum("ij,ij->i", xb @ oracle.b_inv, xbs) + slack
        >= (oracle.norm_u_binv**2 / oracle.norm_u**2) * (np.cos(dist_b) - oracle.cos_phi),
        kept,
        xb,
        lambda j: "basin projection bound",
    )
    order = {key: i for i, key in enumerate(("i", "ii", "iii", "iv", "v"))}
    failed.sort(key=lambda item: (item[0], order[item[1]]))
    report.violations.extend(
        {"check": key, "label": report.label, "detail": detail, "x": point.copy()}
        for _, key, point, detail in failed
    )

    # (vii): short locally-stepped run in u-space, checked in x-space
    from . import solvers  # local import: solvers depends on this module
    from .precond import make_spd
    from .problems import EigenProblem

    problem = EigenProblem(
        dim=n, apply_a=lambda v: oracle.a @ v, matrix=oracle.a, label=report.label
    )
    precond = make_spd(oracle.b)
    ctx = build_rate_context(problem, precond)
    start_dir = rng.normal(n)
    start_dir -= float(start_dir @ oracle.x_star) * oracle.x_star
    start_dir /= np.linalg.norm(start_dir)
    x0 = sphere_exp(oracle.x_star, (0.6 * oracle.phi) * start_dir)
    u0 = oracle.b_inv_sqrt @ x0
    result = solvers.rsd_solve(
        problem,
        precond,
        u0,
        solvers.StepPolicy.theory(),
        tol=1e-13,
        maxit=25,
        ctx=ctx,
        stagnation_window=None,
    )
    rows = result.trace.rows
    for t in range(len(rows) - 1):
        d0, d1 = rows[t]["distB"], rows[t + 1]["distB"]
        xi = rows[t]["xi"]
        if not (np.isfinite(d0) and np.isfinite(d1) and np.isfinite(xi)):
            continue
        record(
            "vii",
            d1**2 <= (1.0 - xi) * d0**2 + 1e-12,
            oracle.x_star,
            f"step {t}: dist1^2={d1 ** 2:.3e} vs (1-xi) dist0^2={(1 - xi) * d0 ** 2:.3e}",
        )

    report.checked = counts
    return report
