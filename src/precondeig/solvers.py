"""The three iterations: classical PINVIT, the steepest-descent variant run
entirely in u-space, and the step-size policies of the convergence theory.

The u-space recurrence is

    u_{t+1} = beta_{t+1} (u_t - eta*_t B^{-1} r_t),
    eta*_t  = 2 tan(eta_t g_t) u_t^T u_t / (g_t (u_t^T A u_t)^2),

with g_t the Riemannian gradient norm and beta chosen so ||u||_B = 1; the
B-norm is maintained through the exact identity ||u - s B^{-1}r||_B^2 =
||u||_B^2 + s^2 r^T B^{-1} r (u^T r = 0), so a step costs one A apply and
one B^{-1} apply.  Only a preconditioner whose applies are not binary64
(mixed-precision Cholesky) has ||u||_B recomputed each step from its binary64
twin, because its B^{-1} r does not realize the B being normalized against.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import a_x, mu_x
from .errors import (
    InvalidC,
    OutsideBasin,
    StepCapViolated,
    ZeroGradientAtNonEigenvector,
)
from .geometry import make_state
from .precond import apply_fwd_iterative

TRACE_COLUMNS = (
    "t",
    "lambda",
    "f",
    "resnorm",
    "distB",
    "eta",
    "eta_star",
    "beta",
    "xi",
    "contraction",
)

NAN = float("nan")


@dataclass
class StepPolicy:
    """Step-size policy: theory-local a(x)/gamma(x), the constant step
    c / (kappa^2 (1/l1 - 1/ln)), a fixed user value, or a custom callable."""

    kind: str
    c: float = None
    value: float = None
    fn: object = None

    @classmethod
    def theory(cls):
        return cls(kind="theory")

    @classmethod
    def constant(cls, c):
        if not 0.0 < c < 0.5:
            raise InvalidC(f"need 0 < c < 1/2, got {c}")
        return cls(kind="constant", c=c)

    @classmethod
    def fixed(cls, value):
        if not value > 0.0:
            raise InvalidC(f"fixed step must be positive, got {value}")
        return cls(kind="fixed", value=float(value))

    @classmethod
    def custom(cls, fn):
        return cls(kind="custom", fn=fn)


class Trace:
    """Per-iteration records plus out-of-band events: (t, name), or
    (t, name, values) for an event that carries values (StagnatedStep)."""

    def __init__(self):
        self.rows = []
        self.events = []

    def append(self, **kw):
        # "lam" keyword maps to the "lambda" column (reserved word in Python)
        row = {k: kw.get("lam" if k == "lambda" else k, NAN) for k in TRACE_COLUMNS}
        self.rows.append(row)

    def event(self, t, name, **values):
        self.events.append((t, name, values) if values else (t, name))

    def write_csv(self, fh):
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in self.rows:
            fields = [f"{int(row['t'])}"]
            fields += [f"{float(row[c]):.17g}" for c in TRACE_COLUMNS[1:]]
            fh.write(",".join(fields) + "\n")

    def column(self, name):
        return np.array([row[name] for row in self.rows], dtype=np.float64)

    def fill_contraction(self):
        """contraction of row t = (distB_{t+1} / distB_t)^2 wherever both are
        finite and distB_t > 0; called once when a run ends."""
        for row, nxt in zip(self.rows, self.rows[1:]):
            d0, d1 = row["distB"], nxt["distB"]
            if np.isfinite(d0) and np.isfinite(d1) and d0 > 0:
                row["contraction"] = (d1 / d0) ** 2


@dataclass
class SolveResult:
    u: np.ndarray
    lam: float
    iterations: int
    reason: str  # "ResidualTol" | "MaxIters" | "StagnatedStep"
    trace: Trace = field(default_factory=Trace)


def step_theory(state, ctx):
    """Locally optimal step a(x)/gamma(x); requires dist(x, x*) < phi.

    gamma carries the sharp smoothness factor 2 (see diagnostics.gamma_x),
    so the closed form has 2 nu_max in the denominator.
    """
    cos_dist = ctx.cos_dist_b(state.u)
    margin = cos_dist - ctx.cos_phi
    if margin <= 0.0:
        raise OutsideBasin(
            f"dist_B = {math.acos(min(1.0, cos_dist)):.6f} >= phi = {ctx.phi:.6f}"
        )
    return (
        ctx.lam1
        * ctx.norm_u_binv**2
        * margin
        / (2.0 * ctx.nu_max * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))
    )


def step_constant(ctx, c):
    """Constant step c / (kappa^2 (1/lambda1 - 1/lambdan)) for 0 < c < 1/2."""
    if not 0.0 < c < 0.5:
        raise InvalidC(f"need 0 < c < 1/2, got {c}")
    return c / (ctx.kappa**2 * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))


def _b_norm_sq(exact, problem, u):
    """Measurement-grade u^T B u from the binary64 twin `exact` of B.  For
    implicit B a nested PCG gives z ~ B u; 2 u^T z - z^T B^{-1} z peaks at
    z = B u with value u^T B u, so its error is quadratic in that of z."""
    if exact.fwd_mode == "exact":
        return float(u @ exact.apply_fwd(u))
    z = apply_fwd_iterative(exact, u, apply_a=problem.apply_a)
    return float(2.0 * (u @ z) - z @ exact.apply_inv(z))


def rsd_solve(
    problem,
    precond,
    u0,
    policy,
    tol=1e-8,
    maxit=1000,
    ctx=None,
    stagnation_window=30,
    callback=None,
):
    """Steepest-descent variant in u-space.

    Terminates on ||r|| / (lambda ||u||) <= tol, on the iteration budget, or
    on a stagnation guard: lambda has been flat (|dlambda| <= 1e-15 lambda)
    for the last `stagnation_window` steps and the best residual inside that
    window is not below 0.9 times the best one before it (None disables).
    lambda flattens long before the residual reaches tol (its error scales
    as the residual squared), and the residual zig-zags at about 0.9 per
    step, so the window's best, not each step, has to beat the past.  That
    exit records its trigger values (flat_steps, window_best, best_before)
    as a StagnatedStep event in the trace.
    policies "theory" and "constant" and the trace fields distB/xi need a
    RateContext.
    `callback(t, state)` is invoked for every visited iterate, the terminal
    one included.  ||u0||_B is measured once (a nested PCG for an
    iterative forward apply); after that the scalar identity carries
    ||u||_B = 1, and it is recomputed each step only when precond.exact() is
    another object (binary32 applies).
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if not np.any(u0):
        raise ZeroGradientAtNonEigenvector("u0 is zero")
    if policy.kind in ("theory", "constant") and ctx is None:
        raise OutsideBasin(f"{policy.kind} policy needs a RateContext")
    exact = precond.exact()
    renorm = exact is not precond

    u = u0 / math.sqrt(_b_norm_sq(exact, problem, u0))
    trace = Trace()
    in_basin = True
    flat = 0
    prev_lam = None
    window = deque(maxlen=stagnation_window)
    best_before = math.inf  # best residual before the window
    reason = "MaxIters"
    iterations = maxit
    state = None

    for t in range(maxit + 1):
        state = make_state(u, problem.apply_a, precond.apply_inv)
        if callback is not None:
            callback(t, state)
        resnorm = np.linalg.norm(state.r)
        res_rel = resnorm / (state.lam * math.sqrt(state.uu))
        dist_b = NAN
        if ctx is not None:
            cos_dist = ctx.cos_dist_b(state.u)
            dist_b = math.acos(cos_dist)
        trace.append(t=t, lam=state.lam, f=state.f, resnorm=resnorm, distB=dist_b)
        if res_rel <= tol:
            reason, iterations = "ResidualTol", t
            break
        lam_flat = prev_lam is not None and abs(state.lam - prev_lam) <= 1e-15 * abs(state.lam)
        flat = flat + 1 if lam_flat else 0
        prev_lam = state.lam
        if stagnation_window is not None:
            if len(window) == stagnation_window:
                best_before = min(best_before, window[0])
            window.append(res_rel)
            if flat >= stagnation_window and min(window) >= 0.9 * best_before:
                trace.event(
                    t, "StagnatedStep", flat_steps=flat, window_best=min(window), best_before=best_before
                )
                reason, iterations = "StagnatedStep", t
                break
        if t == maxit:
            break

        g = math.sqrt(state.g2)
        if g == 0.0:
            raise ZeroGradientAtNonEigenvector(
                f"gradient vanished at t={t} with residual {res_rel:.3e}"
            )
        if ctx is not None:
            margin = cos_dist - ctx.cos_phi
            if margin <= 0.0 and in_basin:
                trace.event(t, "BasinExit")
                in_basin = False
            elif margin > 0.0:
                in_basin = True

        if policy.kind == "theory":
            if in_basin:
                eta = step_theory(state, ctx)
            else:
                # outside the basin the theory step is non-positive; fall back
                # to the capped constant step (no contraction claimed there)
                eta = min(step_constant(ctx, 0.25), math.pi / (4.0 * g))
        elif policy.kind == "constant":
            eta = step_constant(ctx, policy.c)
        elif policy.kind == "fixed":
            eta = policy.value
        else:
            eta = float(policy.fn(state, t))
        if eta * g >= math.pi / 2.0:
            raise StepCapViolated(
                f"eta = {eta:.3e} exceeds pi/(2 ||grad f||) = {math.pi / (2 * g):.3e} at t={t}"
            )

        eta_star = 2.0 * math.tan(eta * g) * state.uu / (g * state.uau**2)
        beta = math.cos(eta * g)
        xi = NAN
        if ctx is not None:
            xi = eta * mu_x(state.uau, ctx) * a_x(cos_dist, state.uau, ctx)
        trace.rows[-1].update(eta=eta, eta_star=eta_star, beta=beta, xi=xi)

        u_new = state.u - eta_star * state.b_inv_r
        bsq = 1.0 + eta_star**2 * state.r_binv_r  # exact: u^T r = 0
        u = u_new / math.sqrt(bsq)
        if renorm:
            u = u / math.sqrt(_b_norm_sq(exact, problem, u))

    trace.fill_contraction()
    return SolveResult(u=state.u, lam=state.lam, iterations=iterations, reason=reason, trace=trace)


def pinvit_classic_solve(problem, precond, u0, tol=1e-8, maxit=1000, ctx=None):
    """Classical preconditioned inverse iteration u <- u - B^{-1} r with
    Euclidean renormalization; same termination rule as rsd_solve.

    The preconditioner should be spectrally scaled so ||I - B^{-1}A||_A < 1;
    this is not enforced, only reflected in the convergence behavior.
    """
    u = np.asarray(u0, dtype=np.float64)
    if not np.any(u):
        raise ZeroGradientAtNonEigenvector("u0 is zero")
    u = u / np.linalg.norm(u)
    trace = Trace()
    can_dist = ctx is not None and precond.fwd_mode == "exact"
    exact = precond.exact()
    reason = "MaxIters"
    iterations = maxit
    lam = None
    for t in range(maxit + 1):
        au = problem.apply_a(u)
        lam = float(u @ au)  # ||u|| = 1
        r = au - lam * u
        res_rel = np.linalg.norm(r) / lam
        dist_b = NAN
        if can_dist:
            bn = math.sqrt(float(u @ exact.apply_fwd(u)))
            dist_b = math.acos(ctx.cos_dist_b(u, bn))
        trace.append(t=t, lam=lam, f=-1.0 / lam, resnorm=np.linalg.norm(r), distB=dist_b)
        if res_rel <= tol:
            reason, iterations = "ResidualTol", t
            break
        if t == maxit:
            reason, iterations = "MaxIters", t
            break
        u = u - precond.apply_inv(r)
        u = u / np.linalg.norm(u)
    trace.fill_contraction()
    return SolveResult(u=u, lam=lam, iterations=iterations, reason=reason, trace=trace)
