"""Sphere geometry and the iterate state used by the solvers.

make_state evaluates the objective f = -u^T u / u^T A u and the squared
Riemannian gradient norm g2 from A-matvecs and inverse preconditioner
applications only.  Square roots of the preconditioner are never formed
here; the dense-oracle tests form them independently.

It runs in the coordinates of a solvers.Route, u-space or pencil
coordinates x = R^{-1} u, and its scalars are the u-space ones on either.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AntipodalOrEqual, NotTangent, ZeroVector

def _clamp(c):
    # guards arccos against |cos| > 1 from roundoff
    return min(1.0, max(-1.0, c))


@dataclass
class IterateState:
    """Iterate with ||u||_B = 1 and the derived quantities the solvers reuse.

    x is the iterate in the coordinates of the route make_state ran on
    (solvers.Route), and so are the vectors r = apply_a(x) - lam apply_m(x)
    and B^{-1} r; the scalars uu, uau, lam, f, r_binv_r and g2 are u-space
    values.  u is the u-space iterate route.to_u(x), formed on first read.

    g2 is the squared Riemannian gradient norm of the sphere objective at the
    point B^{1/2} u, computed without ever forming B^{1/2}:

        ||grad f||^2 = (2 u^T u / (u^T A u)^2)^2 * r^T B^{-1} r.
    """

    x: np.ndarray
    uu: float
    uau: float
    lam: float
    f: float
    r: np.ndarray
    b_inv_r: np.ndarray
    r_binv_r: float
    g2: float
    to_u: object  # x -> u

    @cached_property
    def u(self):
        return self.to_u(self.x)


def make_state(x, route):
    """Build the cached state for an iterate x with ||u||_B = 1 on a
    solvers.Route: one apply each of route.apply_m, route.apply_a and
    route.b's B^{-1}.
    """
    x = np.asarray(x, dtype=np.float64)
    mx = route.apply_m(x)
    uu = float(x @ mx)
    if uu == 0.0:
        raise ZeroVector("iterate is the zero vector")
    au = route.apply_a(x)
    uau = float(x @ au)
    lam = uau / uu
    r = au - lam * mx
    b_inv_r = route.b.apply_inv(r)
    r_binv_r = max(0.0, float(r @ b_inv_r))
    coeff = 2.0 * uu / uau**2
    return IterateState(
        x=x,
        uu=uu,
        uau=uau,
        lam=lam,
        f=-uu / uau,
        r=r,
        b_inv_r=b_inv_r,
        r_binv_r=r_binv_r,
        g2=coeff**2 * r_binv_r,
        to_u=route.to_u,
    )


def _rowdot(x, y):
    """x^T y along the last axis: a scalar for vectors, one value per row of
    an (S, n) block."""
    return np.einsum("...i,...i->...", x, y)


def sphere_dist(x, y):
    """Geodesic angle arccos(x^T y), computed stably via atan2.

    x and y are vectors, or (S, n) blocks of rows compared row by row (either
    may be a single vector broadcast against the other's rows).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c = _rowdot(x, y)
    s = np.linalg.norm(y - c[..., None] * x, axis=-1)
    return np.arctan2(s, c)


def sphere_exp(x, tangent):
    """Exponential map cos(||t||) x + sin(||t||) t/||t||; t = 0 returns x.

    tangent is a vector or an (S, n) block of tangent rows, each mapped from
    the base point x.  Raises NotTangent if any of them is not orthogonal to x.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(tangent, dtype=np.float64)
    nt = np.linalg.norm(t, axis=-1, keepdims=True)
    if np.any(np.abs(_rowdot(x, t))[..., None] > 1e-10 * nt):
        raise NotTangent("tangent vector is not orthogonal to the base point")
    zero = nt == 0.0
    y = np.cos(nt) * x + np.sin(nt) * (t / np.where(zero, 1.0, nt))
    return np.where(zero, x, y / np.linalg.norm(y, axis=-1, keepdims=True))


def sphere_log(x, y):
    """Logarithmic map dist(x,y) * P_x y / ||P_x y||, inverse of sphere_exp.

    x and y are vectors, or (S, n) blocks of rows mapped row by row.  Equal
    points return the zero tangent; an undefined direction (projection
    numerically zero at nonzero distance) in any row raises AntipodalOrEqual.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = y - _rowdot(x, y)[..., None] * x
    npx = np.linalg.norm(p, axis=-1, keepdims=True)
    d = sphere_dist(x, y)[..., None]
    flat = npx <= 1e-14
    if np.any(flat & (d >= 1e-7)):
        raise AntipodalOrEqual("log direction undefined (antipodal points)")
    return np.where(flat, 0.0, d * (p / np.where(flat, 1.0, npx)))
