"""Command-line front end: recipe-driven solves, distortion diagnostics,
success-probability experiments, the property-validation suite, and the
desk-scale experiment tables.

Recipes are flat key=value strings (dyadic widths written 2^-k) so a run is
fully reproducible from shell history.  Floating-point output uses 17
significant digits in CSV, the shortest repr that round-trips in JSON
(json.dumps), and 4 significant digits in the human-readable tables.

A table runs its cells in order, and a cell whose problem recipe equals the
previous cell's reuses that problem instead of building it again; in the
default grids that is the second cell of phi-ddm-fixedh, whose runtime_s then
leaves out the build of the h=2^-6 problem and its reference eigenpairs.
"""

import argparse
import json
import math
import os
import re
import sys
import time
from collections import Counter

import numpy as np

from . import diagnostics, precond, problems, solvers
from .errors import MaxIterations, NotSpd, PrecondEigError, RecipeError
from .linalg import Rng, gaussian_vector, hash_label, spawn_seed
from .mmio import read_matrix

_DYADIC = re.compile(r"^2\^(-?\d+)$")


def parse_dyadic(text):
    """A number written 2^k, p/q or as a float; RecipeError for anything
    else, and for a value that is not finite."""
    try:
        m = _DYADIC.match(text.strip())
        if m:
            value = 2.0 ** int(m.group(1))
        elif "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise RecipeError(f"{text!r} is not a finite number") from exc
    if not math.isfinite(value):
        raise RecipeError(f"{text!r} is not a finite number")
    return value


def _parse_int(text):
    """An integer written in decimal; RecipeError for anything else."""
    try:
        return int(text)
    except ValueError:
        raise RecipeError(f"{text!r} is not an integer") from None


def _read(text, parse, kind, key):
    """parse(text) for the value of `key` in a `kind` recipe or step policy;
    a RecipeError names both."""
    try:
        return parse(text)
    except RecipeError as exc:
        raise RecipeError(f"{kind} recipe key {key!r}: {exc}") from None


def _parse_params(body, kind, required, optional):
    """key=value pairs of a recipe body that reads the keys `required` and
    `optional`; RecipeError names the recipe kind and the first key it
    repeats or does not read, or the first required key that is missing."""
    params = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise RecipeError(f"expected key=value, got {item!r}")
            key, value = (part.strip() for part in item.split("=", 1))
            if key in params:
                raise RecipeError(f"{kind} recipe repeats the key {key!r}")
            params[key] = value
    for key in params:
        if key not in required and key not in optional:
            reads = ", ".join(repr(k) for k in (*required, *optional)) or "no keys"
            raise RecipeError(f"{kind} recipe does not read the key {key!r}; it reads {reads}")
    for key in required:
        if key not in params:
            raise RecipeError(f"{kind} recipe is missing the key {key!r}")
    return params


def _read_symmetric(path, what):
    """The matrix of a MatrixMarket file; RecipeError naming the file when it
    is missing, not square and symmetric, or of largest |entry| outside
    [1e-150, 1e150] as kernel_matrix's tau (build_problem checks definiteness)."""
    if not path or not os.path.exists(path):
        raise RecipeError(f"{what} file not found: {path!r}")
    a = read_matrix(path)
    if a.shape[0] != a.shape[1] or (a != a.T).sum():
        raise RecipeError(f"{path}: the matrix is not square and symmetric (shape {a.shape})")
    scale = abs(a).max() if a.size else 0.0
    if not 1e-150 <= scale <= 1e150:
        raise RecipeError(f"{path}: the largest |entry| {scale:g} lies outside [1e-150, 1e150]")
    return a


def build_problem(recipe):
    """Instantiate a problem from its recipe string."""
    kind, _, body = recipe.partition(":")
    if kind in ("laplace-fd", "laplace-fem"):
        h = _read(_parse_params(body, kind, ("h",), ())["h"], parse_dyadic, kind, "h")
        return problems.laplace_fd(h) if kind == "laplace-fd" else problems.laplace_fem(h)
    if kind in ("kernel-laplace", "kernel-poly"):
        params = _parse_params(body, kind, ("n",), ("d", "seed", "tau"))
        params = {"d": params["n"], "seed": "0", "tau": "0", **params}
        return problems.kernel_matrix(
            "laplacian" if kind == "kernel-laplace" else "poly-complex",
            n=_read(params["n"], _parse_int, kind, "n"),
            d=_read(params["d"], _parse_int, kind, "d"),
            seed=_read(params["seed"], _parse_int, kind, "seed"),
            tau=_read(params["tau"], parse_dyadic, kind, "tau"),
        )
    if kind == "mtx":
        path, _, rest = body.partition(",")
        params = _parse_params(rest, kind, (), ("mass",))
        a = _read_symmetric(path, "matrix")
        problem = problems.EigenProblem(dim=a.shape[0], apply_a=lambda v: a @ v, matrix=a)
        culprit = params.get("mass", path)
        try:
            if "mass" in params:
                problem = problems.generalized_reduce(a, _read_symmetric(culprit, "mass matrix"))
            culprit = path
            problem.solver()
        except NotSpd as exc:
            raise RecipeError(f"{culprit}: the matrix is not positive definite") from exc
        return problem
    raise RecipeError(f"unknown problem recipe {recipe!r}")


def build_precond(recipe, problem):
    """Instantiate a preconditioner for `problem` from its recipe string.

    For mass-reduced problems the DDM preconditioner is built on the original
    stiffness matrix and lifted; the other kinds act on the reduced operator.
    """
    kind, _, body = recipe.partition(":")
    if kind in ("identity", "exact", "mp-chol"):
        _parse_params(body, kind, (), ())
    if kind == "identity":
        return precond.make_identity()
    if kind == "exact":
        return precond.OperatorPreconditioner(problem.solver(), problem.apply_a)
    if kind == "mp-chol":
        return precond.make_mp_cholesky(problem.dense())
    if kind == "ddm":
        params = {"overlap": "0.5", **_parse_params(body, kind, ("H",), ("overlap",))}
        big_h = _read(params["H"], parse_dyadic, kind, "H")
        ratio = _read(params["overlap"], parse_dyadic, kind, "overlap")
        ddm = precond.DdmPreconditioner(problem, big_h, ratio)
        if problem.pencil is None:
            return ddm
        return precond.HattedPreconditioner(ddm, problem.pencil[2])
    if kind == "scaled":
        inner = build_precond(body, problem)
        nu_min, nu_max, _ = diagnostics.kappa_nu(problem, inner)
        return precond.spectral_scale(inner, nu_min, nu_max)
    raise RecipeError(f"unknown preconditioner recipe {recipe!r}")


def _parse_step(text):
    kind, _, arg = text.partition(":")
    if kind == "theory":
        return solvers.StepPolicy.theory()
    if kind in ("const", "constant"):
        return solvers.StepPolicy.constant(_read(arg, parse_dyadic, kind, "c") if arg else 0.25)
    if kind == "fixed":
        return solvers.StepPolicy.fixed(_read(arg, parse_dyadic, kind, "value"))
    if kind == "pinvit":
        return solvers.StepPolicy.pinvit()
    raise RecipeError(f"unknown step policy {text!r}")


def _fmt(x, spec=".17g"):
    return "n/a" if x is None else format(x, spec)


def _initial_vector(init, problem, precond_obj, seed):
    rng = Rng(seed)
    if init == "gaussian":
        return gaussian_vector(rng, problem.dim)
    if init == "smooth":
        return precond_obj.apply_inv(gaussian_vector(rng, problem.dim))
    if init == "eigvec":
        return problem.reference().u_star.copy()
    raise RecipeError(f"unknown init {init!r}")


def _emit(text, path):
    """Write text to stdout and, when a path is given, to that file."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args):
    policy = _parse_step(args.step)
    problem = build_problem(args.problem)
    p = build_precond(args.precond, problem)
    ctx = None
    if policy.kind in ("theory", "constant", "pinvit") or args.init == "eigvec":
        ctx = diagnostics.build_rate_context(problem, p)
    u0 = _initial_vector(args.init, problem, p, args.seed)
    result = solvers.rsd_solve(problem, p, u0, policy, tol=args.tol, maxit=args.maxit, ctx=ctx)
    out = {
        "problem": args.problem,
        "precond": args.precond,
        "step": args.step,
        "seed": args.seed,
        "lambda": result.lam,
        "iterations": result.iterations,
        "reason": result.reason,
        "events": [list(e) for e in result.trace.events],
    }
    if ctx is not None:
        out["basin_iterations"] = result.basin_iterations
        out["lambda_ref"] = ctx.lam1
        out["lambda_rel_err"] = abs(result.lam - ctx.lam1) / ctx.lam1
    if args.trace:
        with open(args.trace, "w") as fh:
            result.trace.write_csv(fh)
    _emit(json.dumps(out, indent=2) + "\n", args.result)
    if result.reason != "ResidualTol":
        print(f"error: {result.reason} after {result.iterations} iterations", file=sys.stderr)
    return 0 if result.reason == "ResidualTol" else 2


def cmd_phi(args):
    problem = build_problem(args.problem)
    payload = diagnostics.compute_quality(problem, build_precond(args.precond, problem))
    payload["problem"] = args.problem
    payload["precond"] = args.precond
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    cols = ["cos2_phi", "one_minus_inv_kappa", "chi"]
    header = f"{'quantity':<22}" + "".join(f"{c:>22}" for c in cols)
    values = f"{'value':<22}" + "".join(f"{_fmt(payload[c], '.4g'):>22}" for c in cols)
    print(header)
    print(values)
    if "epsilon_l" in payload:
        eps = payload["epsilon_l"]
        print(
            f"epsilon_l = {_fmt(eps, '.4g')}  sqrt(2 eps) = {_fmt(math.sqrt(2.0 * eps), '.4g')}  "
            f"measured cos_phi = {_fmt(math.sqrt(payload['cos2_phi']), '.4g')}  "
            f"bound applicable: {payload['epsilon_l_applicable']}"
        )
    return 0


def cmd_prob(args):
    problem = build_problem(args.problem)
    p = build_precond(args.precond, problem)
    report = diagnostics.success_probability(
        problem, p, sampler=args.sampler, trials=args.trials, seed=args.seed
    )
    lines = ["condition,successes,trials,fraction"]
    lines.append(
        f"dist_B(u0;u*) < phi,{report['successes_new']},{report['trials']},"
        f"{_fmt(report['p_new'])}"
    )
    lines.append(
        f"lambda(u0) < lambda2,{report['successes_classic']},{report['trials']},"
        f"{_fmt(report['p_classic'])}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_VALIDATE_KINDS = ("identity", "random-spd", "mp-chol")


def cmd_validate(args):
    if args.seeds < 1:
        raise ValueError(f"need at least one seed, got {args.seeds}")
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValueError(f"--sizes takes comma-separated integers, got {args.sizes!r}") from None
    checked = Counter()
    violations = []
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        for n in sizes:
            a, b_rand = diagnostics.random_spd_pair(seed, n)
            for kind in _VALIDATE_KINDS:
                if kind == "identity":
                    b = np.eye(n)
                elif kind == "random-spd":
                    b = b_rand
                else:
                    l64 = precond.make_mp_cholesky(a).exact().factor.l
                    b = l64 @ l64.T
                label = f"seed={seed},n={n},B={kind}"
                report = diagnostics.validate_properties(
                    a, b, n_samples=args.samples, seed=spawn_seed(seed, n),
                    label=label, inject_bug=args.inject_bug,
                )
                checked.update(report.checked)
                violations.extend(report.violations)
    payload = {
        "seeds": args.seeds,
        "sizes": sizes,
        "samples": args.samples,
        "checked": checked,
        "violations": [
            {"check": v["check"], "label": v["label"], "detail": v["detail"]}
            for v in violations[:50]
        ],
        "violation_count": len(violations),
        "runtime_s": time.perf_counter() - t0,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if violations:
        print(f"FAIL: {len(violations)} violations", file=sys.stderr)
        return 3
    print(f"OK: zero violations across {sum(checked.values())} checks")
    return 0


# per table, the --config keys it reads and their defaults, None where the
# default is --trials; the one key whose default is a list takes a list, and
# its entries are the table's cells
_TABLES = {
    "phi-ddm-fixedH": {"H": 0.25, "h": [2.0**-4, 2.0**-5, 2.0**-6]},
    "phi-ddm-fixedh": {"h": 2.0**-6, "H": [2.0**-2, 2.0**-3]},
    "prob-ddm": {"H": 0.25, "h": [2.0**-4], "trials": None},
    "prob-kernel": {"n": [128, 256], "kernel_seed": 7, "trials": None},
}


def _check_config(cfg, defaults, name):
    """Raise ValueError, naming the key and the table, for a --config key the
    table does not read or a value of another type than its default: a list
    default takes a non-empty list of its entries' type, an int default an
    integer, a float default a positive finite number, and neither takes a
    number that float() cannot hold."""
    if not isinstance(cfg, dict):
        raise ValueError(f"--config must hold a JSON object, got {cfg!r}")
    for key, value in cfg.items():
        if key not in defaults:
            raise ValueError(
                f"--config key {key!r} is not read by {name}; it reads {', '.join(defaults)}"
            )
        default, items = defaults[key], [value]
        if isinstance(default, list):
            if not isinstance(value, list) or not value:
                raise ValueError(
                    f"--config key {key!r} of {name} must be a non-empty list, got {value!r}"
                )
            default, items = default[0], value
        for item in items:
            # a JSON number float() can hold; the type test refuses a bool
            number = type(item) in (int, float) and abs(item) <= sys.float_info.max
            if type(default) is int:
                ok, what = number and type(item) is int, "an integer in float range"
            else:
                ok, what = number and item > 0, "a positive finite number"
            if not ok:
                raise ValueError(f"--config key {key!r} of {name} must hold {what}, got {item!r}")


def cmd_table(args):
    """One CSV row per cell, the cells being the entries of the table's one
    list-valued key.  A cell whose problem recipe equals the previous cell's
    reuses that problem, its reference eigenpairs included, and its runtime_s
    then leaves out the build; the other cells build their own.  A cell that
    cannot be built raises ValueError naming the table and the values of the
    keys its recipes read."""
    if args.name not in _TABLES:
        raise ValueError(f"unknown table {args.name!r}; choose from {', '.join(_TABLES)}")
    cfg = {key: args.trials if v is None else v for key, v in _TABLES[args.name].items()}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        _check_config(given, cfg, args.name)
        cfg.update(given)
    [key] = [k for k, v in _TABLES[args.name].items() if isinstance(v, list)]
    kernel, phi = args.name == "prob-kernel", args.name.startswith("phi-")
    header = ["n"] if kernel else ["h", "H"]
    if phi:
        header += ["cos2_phi", "one_minus_inv_kappa", "chi"]
    else:
        header += ["successes_new", "successes_classic", "trials", "p_new", "p_classic"]
    header.append("runtime_s")
    lines = [",".join(header)]
    recipe = problem = None  # the previous cell's
    for value in cfg[key]:
        t0 = time.perf_counter()
        row = {**cfg, key: value}
        if kernel:
            cell, p_recipe = f"kernel-laplace:n={value!r},seed={cfg['kernel_seed']!r}", "mp-chol"
        else:
            cell, p_recipe = f"laplace-fem:h={row['h']!r}", f"ddm:H={row['H']!r},overlap=0.5"
        try:
            if cell != recipe:
                recipe, problem = cell, build_problem(cell)
            p = build_precond(p_recipe, problem)
        except PrecondEigError as exc:
            keys = ("n", "kernel_seed") if kernel else ("h", "H")
            read = ", ".join(f"{k!r}={row[k]!r}" for k in keys)
            raise ValueError(f"{args.name} cell {read}: {exc}") from exc
        if phi:
            row.update(diagnostics.compute_quality(problem, p))
        else:
            sampler = "gaussian" if kernel else "smooth"
            seed = spawn_seed(args.seed, hash_label(f"{args.name}:{value}"))
            row.update(
                diagnostics.success_probability(
                    problem, p, sampler=sampler, trials=cfg["trials"], seed=seed
                )
            )
        row["runtime_s"] = time.perf_counter() - t0
        # _fmt writes an integer below 10^17 (n, trials, successes) in full
        lines.append(",".join(_fmt(row[col]) for col in header))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="precondeig",
        description="Preconditioned eigensolver experiments and diagnostics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one eigensolve")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--precond", required=True)
    sp.add_argument("--step", default="theory", help="theory | const:c | fixed:value | pinvit")
    sp.add_argument("--tol", type=float, default=1e-8, help="residual target (default %(default)s)")
    sp.add_argument("--maxit", type=int, default=2000, help="iterations (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0, help="start seed (default %(default)s)")
    sp.add_argument("--init", default="smooth", choices=["gaussian", "smooth", "eigvec"])
    sp.add_argument("--trace", help="write per-iteration CSV here")
    sp.add_argument("--result", help="write result JSON here")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("phi", help="distortion-angle and rate diagnostics")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--precond", required=True)
    sp.add_argument("--out", help="write diagnostics JSON here")
    sp.set_defaults(fn=cmd_phi)

    sp = sub.add_parser("prob", help="empirical success probabilities")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--precond", required=True)
    sp.add_argument(
        "--sampler", default="gaussian", choices=["gaussian", "smooth"],
        help="start u0 = omega or B^-1 omega, omega Gaussian (default %(default)s)",
    )
    sp.add_argument("--trials", type=int, default=100, help="starts (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0, help="seed of the starts (default %(default)s)")
    sp.add_argument("--out", help="write CSV here")
    sp.set_defaults(fn=cmd_prob)

    sp = sub.add_parser("validate", help="numerically test every analysis inequality")
    sp.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 (default %(default)s)")
    sp.add_argument("--sizes", default="6,12,20", help="instance sizes (default %(default)s)")
    sp.add_argument("--samples", type=int, default=500, help="per instance (default %(default)s)")
    sp.add_argument("--inject-bug", choices=["a_x_sign"], help="negative control hook")
    sp.add_argument("--out", help="write report JSON here")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("table", help="reproduce a desk-scale experiment table")
    sp.add_argument("--name", required=True)
    sp.add_argument("--config", help="JSON file overriding the default grid")
    sp.add_argument(
        "--trials", type=int, default=200,
        help="starts per prob cell unless the config sets trials (default %(default)s)",
    )
    sp.add_argument("--seed", type=int, default=0, help="seed of the starts (default %(default)s)")
    sp.add_argument("--out", help="write CSV here")
    sp.set_defaults(fn=cmd_table)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MaxIterations as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecondEigError, MemoryError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
