"""One iteration, the steepest-descent variant of PINVIT, and the step-size
policies that drive it.

The u-space recurrence is

    u_{t+1} = beta_{t+1} (u_t - eta*_t B^{-1} r_t),
    eta*_t  = 2 tan(eta_t g_t) u_t^T u_t / (g_t (u_t^T A u_t)^2),

with g_t the Riemannian gradient norm and beta chosen so ||u||_B = 1; the
B-norm is maintained through the exact identity ||u - s B^{-1}r||_B^2 =
||u||_B^2 + s^2 r^T B^{-1} r (u^T r = 0).  Only a preconditioner whose
applies are not binary64 (mixed-precision Cholesky) has ||u||_B recomputed
each step from its binary64 twin, because its B^{-1} r does not realize the
B being normalized against.

rsd_solve runs that loop in the coordinates of a Route, u-space or pencil
coordinates x = R^{-1} u (Route's docstring), and diagnostics.kappa_nu and
check_initial take every coordinate from it too.

Classical PINVIT, u <- u - B^{-1} r up to scale, is this recurrence at
eta* = 1, i.e. the Riemannian step eta = atan(g (u^T A u)^2 / (2 u^T u)) / g,
which always lies below the cap pi / (2 g); StepPolicy.pinvit() runs it.

The rate functions gamma_x, mu_x and a_x of the convergence analysis live
here, where the theory step and the traced xi are built from them.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidC,
    OutsideBasin,
    StepCapViolated,
    ZeroGradientAtNonEigenvector,
    ZeroVector,
)
from .geometry import _clamp, make_state
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
_STAGNATION_WINDOW = 30  # steps of rsd_solve's stagnation guard
_DIST_B_FLOOR = math.sqrt(2.0**-53 / 0.01)  # distB resolved to 1% (rsd_solve)


@dataclass
class StepPolicy:
    """Step-size policy of rsd_solve: theory-local a(x)/gamma(x), the
    constant step value / (kappa^2 (1/l1 - 1/ln)), a fixed step value, or
    classical PINVIT (eta* = 1, needs no RateContext).  value is the c of
    the constant step or the fixed step, None for the other two kinds."""

    kind: str
    value: float = None

    @classmethod
    def theory(cls):
        return cls(kind="theory")

    @classmethod
    def constant(cls, c):
        if not 0.0 < c < 0.5:
            raise InvalidC(f"need 0 < c < 1/2, got {c}")
        return cls(kind="constant", value=c)

    @classmethod
    def fixed(cls, value):
        if not value > 0.0:
            raise InvalidC(f"fixed step must be positive, got {value}")
        return cls(kind="fixed", value=float(value))

    @classmethod
    def pinvit(cls):
        return cls(kind="pinvit")


class Trace:
    """Per-iteration records plus out-of-band events: (t, name), or
    (t, name, values) for an event that carries values (StagnatedStep).
    BasinExit and BasinEntry mark the steps at which the iterate leaves
    and re-enters the basin dist_B(u, u*) < phi."""

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
    trace: Trace
    basin_iterations: int  # steps taken from inside the basin; None without a RateContext


def gamma_x(uau, ctx):
    """Smoothness parameter 2 nu_max (1/l1 - 1/ln) / ||A^{1/2}B^{-1/2}x||^2,
    with ||A^{1/2}B^{-1/2}x||^2 = u^T A u for x = B^{1/2} u.

    uau is a scalar or an array of values, one per sample.  The sharp
    geodesic smoothness constant of the sphere Rayleigh quotient of A^{-1} is
    2(1/l1 - 1/ln): a two-component vector near the minimizer attains it, so
    the factor 2 is required for the smoothness-type bound
    f - f* >= ||grad f||^2 / (2 gamma) to hold.
    """
    return 2.0 * ctx.nu_max * (1.0 / ctx.lam1 - 1.0 / ctx.lamn) / uau


def mu_x(uau, ctx):
    """Quadratic-growth parameter at u^T A u = uau (scalar or array); bounded
    below by 8(1/l1-1/l2)/(pi^2 kappa)."""
    return (
        8.0
        * ctx.nu_min
        * (1.0 / ctx.lam1 - 1.0 / ctx.lam2)
        * ctx.norm_u_b
        / (math.pi**2 * np.sqrt(uau) * ctx.norm_u_a)
    )


def a_x(cos_dist, uau, ctx):
    """Weak-quasi-convexity factor at cos dist_B(u, u*) = cos_dist and
    u^T A u = uau (scalars or arrays); positive inside the basin, sign
    reported."""
    margin = cos_dist - ctx.cos_phi
    return ctx.lam1 * ctx.norm_u_binv**2 * margin / uau


def step_theory(cos_dist, ctx):
    """Locally optimal step a(x)/gamma(x) at cos dist_B(u, u*) = cos_dist;
    requires dist(x, x*) < phi.  u^T A u cancels from the ratio, so both are
    evaluated at 1.
    """
    if cos_dist - ctx.cos_phi <= 0.0:
        raise OutsideBasin(
            f"dist_B = {math.acos(min(1.0, cos_dist)):.6f} >= phi = {ctx.phi:.6f}"
        )
    return a_x(cos_dist, 1.0, ctx) / gamma_x(1.0, ctx)


def step_constant(ctx, c):
    """Constant step c / (kappa^2 (1/lambda1 - 1/lambdan)) for 0 < c < 1/2
    (StepPolicy.constant checks c)."""
    return c / (ctx.kappa**2 * (1.0 / ctx.lam1 - 1.0 / ctx.lamn))


def _identity(v):
    return v


@dataclass(frozen=True)
class Route:
    """The coordinates of one (problem, preconditioner) pair: its applies, in
    rsd_solve, kappa_nu and check_initial, run on its Route; only the rate
    context's B^{-1} applies and the smooth starts apply a lifted B in
    u-space, and its nested PCG always runs on the pencil.
    Route.of picks one of two; readers call its maps and never ask which:

    - u-space, for a standard problem and for a mass-reduced problem with a
      preconditioner built on the reduced operator (identity, exact,
      mp-chol): b is the preconditioner, apply_a is A, and apply_m, to_x,
      to_u and residual_to_u return their argument.  On a mass-reduced
      problem an A apply is a banded R solve, a K matvec and a banded R^T
      solve.
    - pencil coordinates x = R^{-1} u, for a mass-reduced problem (K, M),
      M = R^T R, with a B lifted by precond.HattedPreconditioner (ddm,
      scaled:ddm) to Bhat^{-1} = R P^{-1} R^T: b is P, apply_a and apply_m
      are the K and M matvecs, to_x is R^{-1}, to_u is R, and residual_to_u
      is R^{-T}, which maps s = K x - lambda M x = R^T r to r.  The scalars
      are the u-space ones (u^T u = x^T M x, u^T A u = x^T K x, r^T Bhat^{-1}
      r = s^T P^{-1} s, x^T P x = u^T Bhat u), so an rsd_solve step costs a
      K and an M matvec, one P^{-1} apply and one banded R^T solve (for
      ||r||), and kappa_nu takes P^{-1} K, similar through R to Bhat^{-1} A.
    """

    b: object  # the preconditioner applied in these coordinates
    apply_a: object  # A in u-space, K on the pencil
    apply_m: object  # M on the pencil
    to_x: object  # u -> x = R^{-1} u
    to_u: object  # x -> u = R x
    residual_to_u: object  # s -> r = R^{-T} s

    @classmethod
    def of(cls, problem, precond):
        b = precond.pencil()
        if b is None:
            return cls(precond, problem.apply_a, _identity, _identity, _identity, _identity)
        k, m, r = problem.pencil
        return cls(b, lambda v: k @ v, lambda v: m @ v, r.solve, r.mult, r.solve_t)

    def b_norm_sq(self, x):
        """Measurement-grade x^T B x in these coordinates from B's binary64
        twin, for a vector or per column of a block.  An iterative apply_fwd
        gives z ~ B x per column; 2 x^T z - z^T B^{-1} z peaks at z = B x
        with value x^T B x, so its error is quadratic in that of z."""
        exact = self.b.exact()
        if exact.fwd_mode == "exact":
            bx = exact.apply_fwd(x)
            return float(x @ bx) if x.ndim == 1 else np.einsum("ij,ij->i", x.T, bx.T)
        if x.ndim == 2:
            return np.array([self.b_norm_sq(c) for c in x.T])
        z = exact.apply_fwd(x)
        return float(2.0 * (x @ z) - z @ exact.apply_inv(z))


def rsd_solve(
    problem,
    precond,
    u0,
    policy,
    tol,
    maxit,
    ctx,
    callback=None,
):
    """Steepest-descent variant in the coordinates of Route.of(problem,
    precond).

    Terminates on ||r|| / (lambda ||u||) <= tol (ValueError when tol is
    negative or not finite), on the iteration budget maxit (ValueError when
    negative), or on a stagnation guard: lambda has been flat (|dlambda| <=
    1e-15 lambda) for the last _STAGNATION_WINDOW steps and the best
    residual inside that window is not below 0.9 times the best one before
    it.
    lambda flattens long before the residual reaches tol (its error scales
    as the residual squared), and the residual zig-zags at about 0.9 per
    step, so the window's best, not each step, has to beat the past.  That
    exit records its trigger values (flat_steps, window_best, best_before)
    as a StagnatedStep event in the trace.
    policies "theory" and "constant" and the trace fields distB/xi need a
    RateContext ctx; with ctx None distB and xi are NaN.  distB = acos(cos)
    resolves d to 2^-53 / d^2 relative, so it is NaN below _DIST_B_FLOOR =
    1.05e-7, where that passes 1%, and contraction skips those rows; the
    basin test and xi read cos.  With ctx the
    trace records a BasinExit event at each step whose iterate has left the
    basin dist_B(u, u*) < phi and a BasinEntry event at each step whose
    iterate is back inside, and the result counts the steps taken from
    inside the basin (basin_iterations; None with ctx None).
    `callback(t, state)` is invoked for every visited iterate, the terminal
    one included; its state.u is the u-space iterate and its scalars are the
    u-space values on either route.  ||u0||_B is measured once, by
    Route.b_norm_sq; after that the scalar identity carries ||u||_B = 1, and
    it is recomputed each step only when the applied preconditioner's twin
    is another object (binary32 applies).
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if not np.any(u0):
        raise ZeroVector("u0 is zero")
    if maxit < 0:
        raise ValueError(f"maxit must be >= 0, got {maxit}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if policy.kind in ("theory", "constant") and ctx is None:
        raise OutsideBasin(f"{policy.kind} policy needs a RateContext")
    route = Route.of(problem, precond)
    x = route.to_x(u0)
    renorm = route.b.exact() is not route.b
    if ctx is not None:
        # cos dist_B(u, u*) = |u^T w*| / ||u*||_B, and u^T w* = x^T R^T w*;
        # R^T w* = M R^{-1} w* keeps the route's R work to solves
        w_star = route.apply_m(route.to_x(ctx.w_star))

    x = x / math.sqrt(route.b_norm_sq(x))
    trace = Trace()
    in_basin = True
    flat = 0
    prev_lam = None
    window = deque(maxlen=_STAGNATION_WINDOW)
    best_before = math.inf  # best residual before the window
    reason = "MaxIters"
    iterations = maxit
    basin_iterations = None if ctx is None else 0
    state = None

    for t in range(maxit + 1):
        state = make_state(x, route)
        if callback is not None:
            callback(t, state)
        resnorm = np.linalg.norm(route.residual_to_u(state.r))
        res_rel = resnorm / (state.lam * math.sqrt(state.uu))
        dist_b = NAN
        if ctx is not None:
            cos_dist = _clamp(abs(float(state.x @ w_star)) / ctx.norm_u_b)
            dist_b = math.acos(cos_dist)
            dist_b = dist_b if dist_b >= _DIST_B_FLOOR else NAN
        trace.append(t=t, lam=state.lam, f=state.f, resnorm=resnorm, distB=dist_b)
        if res_rel <= tol:
            reason, iterations = "ResidualTol", t
            break
        lam_flat = prev_lam is not None and abs(state.lam - prev_lam) <= 1e-15 * abs(state.lam)
        flat = flat + 1 if lam_flat else 0
        prev_lam = state.lam
        if len(window) == _STAGNATION_WINDOW:
            best_before = min(best_before, window[0])
        window.append(res_rel)
        if flat >= _STAGNATION_WINDOW and min(window) >= 0.9 * best_before:
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
                if not in_basin:
                    trace.event(t, "BasinEntry")
                in_basin = True
                basin_iterations += 1

        if policy.kind == "pinvit":
            # u - B^{-1} r exactly; eta is its Riemannian step, below the cap
            eta_star = 1.0
            eta = math.atan(g * state.uau**2 / (2.0 * state.uu)) / g
        else:
            if policy.kind == "theory":
                if in_basin:
                    eta = step_theory(cos_dist, ctx)
                else:
                    # outside the basin the theory step is non-positive; fall
                    # back to the capped constant step (no contraction claimed)
                    eta = min(step_constant(ctx, 0.25), math.pi / (4.0 * g))
            elif policy.kind == "constant":
                eta = step_constant(ctx, policy.value)
            else:
                eta = policy.value
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

        x_new = state.x - eta_star * state.b_inv_r
        bsq = 1.0 + eta_star**2 * state.r_binv_r  # exact: u^T r = 0
        x = x_new / math.sqrt(bsq)
        if renorm:
            x = x / math.sqrt(route.b_norm_sq(x))

    trace.fill_contraction()
    return SolveResult(
        u=state.u,
        lam=state.lam,
        iterations=iterations,
        reason=reason,
        trace=trace,
        basin_iterations=basin_iterations,
    )

