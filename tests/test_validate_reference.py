"""The blocked validate_properties against a per-sample reference loop.

`reference_validate` is the one-vector-at-a-time validator: it draws x and
xi with one Rng.normal call each per sample and evaluates f, grad, gamma,
mu, a(x), dist, exp and log on single vectors, with its own copies of the
vector formulas and sphere maps.  It shares only the explicit dense oracle
(the LAPACK-built B^{-1}, C and RateContext) and the (vii) solve with the
library.
"""

import math

import numpy as np
import pytest

import precondeig as pe
from precondeig import diagnostics, solvers
from precondeig.diagnostics import PropertyReport, _DenseOracle
from precondeig.errors import AntipodalOrEqual, NotTangent
from precondeig.linalg import spawn_seed
from tests.conftest import dense_pencil


def _dist(x, y):
    c = float(x @ y)
    return float(np.arctan2(np.linalg.norm(y - c * x), c))


def _exp(x, t):
    nt = float(np.linalg.norm(t))
    if nt == 0.0:
        return x.copy()
    if abs(float(x @ t)) > 1e-10 * nt:
        raise NotTangent("tangent vector is not orthogonal to the base point")
    y = np.cos(nt) * x + np.sin(nt) * (t / nt)
    return y / np.linalg.norm(y)


def _log(x, y):
    p = y - float(x @ y) * x
    npx = float(np.linalg.norm(p))
    d = _dist(x, y)
    if npx <= 1e-14:
        if d < 1e-7:
            return np.zeros_like(x)
        raise AntipodalOrEqual("log direction undefined (antipodal points)")
    return d * (p / npx)


def _f(o, x):
    return -float(x @ o.b_inv @ x) / float(x @ o.c @ x)


def _grad(o, x):
    g = -2.0 * (o.b_inv @ x + _f(o, x) * (o.c @ x)) / float(x @ o.c @ x)
    return g - float(x @ g) * x


def _gamma(o, x):
    return 2.0 * o.ctx.nu_max * (1.0 / o.ctx.lam1 - 1.0 / o.ctx.lamn) / float(x @ o.c @ x)


def _mu(o, x):
    return (
        8.0 * o.ctx.nu_min * (1.0 / o.ctx.lam1 - 1.0 / o.ctx.lam2) * o.ctx.norm_u_b
        / (math.pi**2 * math.sqrt(float(x @ o.c @ x)) * o.ctx.norm_u_a)
    )


def _a_factor(o, x, dist, phi_sign):
    return (
        o.ctx.lam1 * o.ctx.norm_u_binv**2 * (math.cos(dist) - phi_sign * o.ctx.cos_phi)
        / float(x @ o.c @ x)
    )


def reference_validate(a, b, n_samples=500, seed=0, slack=1e-10, label="", inject_bug=None):
    oracle = _DenseOracle(a, b)
    n = oracle.a.shape[0]
    rng = pe.Rng(seed)
    report = PropertyReport(label=label or f"n={n}", n_samples=n_samples, checked={}, violations=[])
    counts = {k: 0 for k in ("i", "ii", "iii", "iv", "v", "vi", "vii")}

    def record(key, ok, x, detail):
        counts[key] += 1
        if not ok:
            report.violations.append(
                {"check": key, "label": report.label, "detail": detail, "x": x.copy()}
            )

    bug_sign = -1.0 if inject_bug == "a_x_sign" else 1.0
    o = oracle
    record("vi", o.ctx.cos_phi**2 <= (1.0 - 1.0 / o.ctx.kappa) + 1e-10, o.ctx.u_star, "")
    for k in range(n_samples):
        x = rng.normal(n)
        x /= np.linalg.norm(x)
        xs = o.x_star if float(x @ o.x_star) >= 0 else -o.x_star
        dist = _dist(x, xs)
        fx = _f(o, x)
        g = _grad(o, x)
        record("i", fx - o.f_star + slack >= float(g @ g) / (2.0 * _gamma(o, x)), x, "")
        record("ii", fx - o.f_star + slack >= 0.5 * _mu(o, x) * dist**2, x, "")
        t_frac = (k + 0.5) / n_samples
        xi_dir = rng.normal(n)
        xi_dir -= float(xi_dir @ o.x_star) * o.x_star
        nd = np.linalg.norm(xi_dir)
        if nd < 1e-12:
            continue
        xi_dir /= nd
        xb = _exp(o.x_star, (0.999 * t_frac * o.ctx.phi) * xi_dir)
        xbs = o.x_star if float(xb @ o.x_star) >= 0 else -o.x_star
        dist_b = _dist(xb, xbs)
        if dist_b >= o.ctx.phi:
            continue
        fb = _f(o, xb)
        gb = _grad(o, xb)
        a_val = _a_factor(o, xb, dist_b, bug_sign)
        log_term = float(gb @ -_log(xb, xbs))
        record("iii", log_term + slack >= 2.0 * a_val * (fb - o.f_star), xb, "")
        if a_val > 1e-13:
            record(
                "iv",
                fb - o.f_star <= log_term / a_val - 0.5 * _mu(o, xb) * dist_b**2 + slack,
                xb,
                "",
            )
        record(
            "v",
            float(xb @ o.b_inv @ xbs) + slack
            >= o.ctx.norm_u_binv**2 * (math.cos(dist_b) - o.ctx.cos_phi),
            xb,
            "",
        )

    problem = pe.EigenProblem(dim=n, apply_a=lambda v: o.a @ v, matrix=o.a)
    precond = pe.make_spd(o.b)
    ctx = pe.build_rate_context(problem, precond)
    start_dir = rng.normal(n)
    start_dir -= float(start_dir @ o.x_star) * o.x_star
    start_dir /= np.linalg.norm(start_dir)
    u0 = o.b_inv_sqrt @ _exp(o.x_star, (0.6 * o.ctx.phi) * start_dir)
    result = solvers.rsd_solve(
        problem, precond, u0, solvers.StepPolicy.theory(), tol=1e-13, maxit=25, ctx=ctx
    )
    rows = result.trace.rows
    for t in range(len(rows) - 1):
        d0, d1, xi = rows[t]["distB"], rows[t + 1]["distB"], rows[t]["xi"]
        if np.isfinite(d0) and np.isfinite(d1) and np.isfinite(xi):
            record("vii", d1**2 <= (1.0 - xi) * d0**2 + 1e-12, o.x_star, "")
    report.checked = counts
    return report


def _assert_same_reports(a, b, **kwargs):
    got = pe.validate_properties(a, b, **kwargs)
    ref = reference_validate(a, b, slack=diagnostics._SLACK, **kwargs)
    label = kwargs["label"]
    assert got.checked == ref.checked, label
    assert [(v["check"], v["label"]) for v in got.violations] == [
        (v["check"], v["label"]) for v in ref.violations
    ], label
    for v, w in zip(got.violations, ref.violations):
        assert np.allclose(v["x"], w["x"], rtol=0.0, atol=1e-12), label


@pytest.mark.parametrize("inject_bug", [None, "a_x_sign"])
@pytest.mark.parametrize("kind", ["identity", "random-spd", "mp-chol"])
@pytest.mark.parametrize("n", [6, 12, 20])
def test_blocked_validator_matches_reference_loop(n, kind, inject_bug):
    for seed in range(6):
        a, b = dense_pencil(seed, n, kind)
        _assert_same_reports(
            a, b, n_samples=500, seed=spawn_seed(seed, n), label=f"seed={seed},n={n},B={kind}",
            inject_bug=inject_bug,
        )


@pytest.mark.parametrize("kind", ["identity", "random-spd", "mp-chol"])
@pytest.mark.parametrize("n", [6, 20])
def test_blocked_validator_matches_reference_points(n, kind, monkeypatch):
    # slack = -0.3 makes each of (i)-(v) fail at many samples, so the reports
    # carry the sample points of every check, in order
    monkeypatch.setattr(diagnostics, "_SLACK", -0.3)
    for seed in range(2):
        a, b = dense_pencil(seed, n, kind)
        _assert_same_reports(
            a, b, n_samples=500, seed=spawn_seed(seed, n), label=f"seed={seed},n={n},B={kind}",
            inject_bug=None,
        )


def test_blocked_validator_reports_all_seven_checks_in_order(monkeypatch):
    # every check fails somewhere: slack = -0.3 fails (i)-(v), nu_max = nu_min
    # (kappa = 1) fails (vi), and a run whose distB grows fails (vii).  The
    # report lists (vi), then (i)-(v) by sample, then (vii) by step, as the
    # reference loop records them
    monkeypatch.setattr(diagnostics, "_SLACK", -0.3)
    real_init, real_solve = _DenseOracle.__init__, solvers.rsd_solve

    def kappa_one(self, a, b):
        real_init(self, a, b)
        self.ctx.nu_max = self.ctx.nu_min

    def growing(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        for t, row in enumerate(result.trace.rows):
            row["distB"] = 0.1 * (t + 1)
        return result

    monkeypatch.setattr(_DenseOracle, "__init__", kappa_one)
    monkeypatch.setattr(solvers, "rsd_solve", growing)
    a, b = dense_pencil(0, 6, "random-spd")
    _assert_same_reports(a, b, n_samples=60, seed=spawn_seed(0, 6), label="all-seven", inject_bug=None)
    report = pe.validate_properties(a, b, n_samples=60, seed=1, label="", inject_bug=None)
    checks = [v["check"] for v in report.violations]
    assert checks[0] == "vi" and checks[-1] == "vii"
    assert set(checks) == {"i", "ii", "iii", "iv", "v", "vi", "vii"}
    assert checks.index("vii") > max(i for i, c in enumerate(checks) if c != "vii")
