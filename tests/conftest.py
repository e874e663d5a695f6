import numpy as np
import pytest

import precondeig as pe
from precondeig.diagnostics import random_spd_pair
from tests import jacobi


def fd_eigenvalue(h, k, l):  # noqa: E741 - (k, l) are the classical mode indices
    """Analytic eigenvalue of the 5-point Laplacian on the unit square."""
    return (4.0 / h**2) * (np.sin(k * np.pi * h / 2.0) ** 2 + np.sin(l * np.pi * h / 2.0) ** 2)


def dense_roots(b):
    """Dense (B^{1/2}, B^{-1/2}, B^{-1}) from the Jacobi eigensolver of
    tests/jacobi.py, the reference that shares no code with the LAPACK
    dense_sym_eig behind validate_properties."""
    w, v = jacobi.dense_sym_eig(b)
    assert w[0] > 0, "oracle needs an SPD matrix"
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T, (v / w) @ v.T


def column(trace, name):
    """One trace column as a float array."""
    return np.array([row[name] for row in trace.rows], dtype=np.float64)


def tight_fwd(p, v, apply_a, tol):
    """B v by the nested PCG behind apply_fwd_iterative, run to a tighter tol
    than its FWD_TOL: the reference an iterative forward apply is checked
    against."""
    z, _ = pe.pcg(p.apply_inv, apply_a, v, tol=tol, maxit=500, x0=v)
    return z


def box_nodes(h, boxes):
    """Node index arrays of mesh_hierarchy's (y-slice, x-slice) boxes on the
    interior grid of width h, x running fastest."""
    side = round(1.0 / h) - 1
    grid = np.arange(side * side).reshape(side, side)
    return [grid[ys, xs].ravel() for ys, xs in boxes]


def dense_problem(a):
    a = np.asarray(a, dtype=np.float64)
    return pe.EigenProblem(dim=a.shape[0], apply_a=lambda v: a @ v, matrix=a)


def u_space_route(apply_a, precond):
    """The u-space Route that applies A and precond's B^{-1}, built for any
    pair: for a B lifted to a mass-reduced problem Route.of picks the pencil
    instead."""
    same = lambda v: v  # noqa: E731
    return pe.Route(precond, apply_a, same, same, same, same)


def dense_pencil(seed, n, kind):
    """Dense (A, B) with B the identity, a random SPD matrix or the binary64
    product Lhat Lhat^T of A's binary32 Cholesky factor (mp-chol)."""
    a, b_rand = random_spd_pair(seed, n)
    if kind == "identity":
        return a, np.eye(n)
    if kind == "random-spd":
        return a, b_rand
    l64 = pe.make_mp_cholesky(a).exact().factor.l
    return a, l64 @ l64.T


@pytest.fixture
def rng():
    return pe.Rng(1234)

