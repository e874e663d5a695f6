"""Grammar-driven robustness of the command line.

hypothesis draws argv lists for `solve`, `phi`, `prob` and `table` from a
grammar of recipe kinds with known, unknown and repeated keys, value tokens
(dyadics, fractions, huge and tiny numbers, nan and inf, non-numbers, empty),
the `--step`, `--init`, `--tol` and `--maxit` options, and table `--config`
JSON.  For each, `cli.main` exits 0, 1 or 2, a non-zero exit writes exactly
one `error:` line (after argparse's usage lines when argparse refuses the
argv), and no exception escapes.  Inputs that pass validation stay small: h
>= 2^-4, n <= 32, d <= 32, few trials and iterations, and a valid table
config replaces the table's grid by small cells.  Inputs that must be
refused are not bounded.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from precondeig.cli import main  # noqa: E402

# tokens that are refused wherever a size is read, and are refused or
# harmless where any other number is read
ODD = [
    "", " ", "abc", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "2^", "2^x", "2^99999",
    "2^-99999", "1/0", "0/0", "0", "-0", "-1", "-1/4", "0x10", "1e", "1/2/3", "1e308", "-1e308",
    "5e-324", "1e-320", "1/1e308", "10" * 20, "1.5", "3", "2^1000", "2^-1074",
]

# valid tokens of each key; those of h, n, d, trials and maxit keep the work
# small, and ODD holds no valid token of theirs that does not, but for the
# maxit 10^39, which token() leaves out
VALID = {
    "h": ["2^-1", "2^-2", "2^-3", "2^-4", "1/4", "0.125", "1/16", " 2^-2 "],
    "n": ["2", "3", "16", "32", "٣"],
    "d": ["1", "2", "5", "32"],
    "trials": ["1", "5", "20"],
    "maxit": ["0", "1", "5", "40"],
    "seed": ["0", "7", "-3", str(2**64)],
    "tau": ["0", "1e-3", "1", "2^-10"],
    "H": ["2^-1", "2^-2", "1/2", "0.25", "1"],
    "overlap": ["0.5", "1/4", "0.25", "1", "2^-1"],
    "c": ["0.25", "2^-3", "1/3"],
    "value": ["0.01", "2^-8"],
    "tol": ["1e-8", "1e-6", "0"],
}
SIZED = ("h", "n", "d", "trials", "maxit")
FREE = st.one_of(
    st.integers(-1100, 1100).map(lambda k: f"2^{k}"),
    st.tuples(st.integers(-5, 10**6), st.integers(-2, 10**6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.floats().map(repr),
    st.text(max_size=4),
)


def weighted(valid, odd):
    """valid three times in four, odd otherwise (one_of would draw each
    strategy once however often it is listed)."""
    return st.sampled_from([valid, valid, valid, odd]).flatmap(lambda strategy: strategy)


def token(key):
    """A value token for `key`: valid three times in four; the refused ones
    are free-form where the value sets no size."""
    refused = [t for t in ODD if key != "maxit" or t != "10" * 20]
    odd = st.sampled_from(refused)
    if key not in SIZED:
        odd = st.one_of(odd, FREE)
    return weighted(st.sampled_from(VALID.get(key, ["0.5"])), odd)


# recipe kind -> keys it reads; "bogus" is no kind
PROBLEM_KEYS = {
    "laplace-fd": ["h"],
    "laplace-fem": ["h"],
    "kernel-laplace": ["n", "d", "seed", "tau"],
    "kernel-poly": ["n", "d", "seed", "tau"],
    "bogus": ["h"],
}
PRECOND_KEYS = {"identity": [], "exact": [], "mp-chol": [], "ddm": ["H", "overlap"], "bogus": ["H"]}
MTX_FILES = ["spd", "mass", "indefinite", "general", "garbage", "empty", "missing", ""]


@st.composite
def body(draw, keys):
    """key=value items: each known key at most once, then perhaps an unknown
    key, a repeated key or an item without '='."""
    items = [f"{k}={draw(token(k))}" for k in keys if draw(st.booleans()) or k in ("h", "n", "H")]
    extra = draw(st.sampled_from(["", "", "", "", "unknown", "repeat", "bare"]))
    if extra == "unknown":
        items.append(f"hh={draw(token('hh'))}")
    elif extra == "repeat" and keys:
        key = draw(st.sampled_from(keys))
        items.append(f"{key}={draw(token(key))}")
    elif extra == "bare":
        items.append(draw(st.sampled_from(["h", "", "=", "=1"])))
    return ",".join(draw(st.permutations(items)))


@st.composite
def problem_recipe(draw):
    kind = draw(st.sampled_from([*PROBLEM_KEYS, *PROBLEM_KEYS, "mtx"]))
    if kind == "mtx":
        recipe = "mtx:{dir}/" + draw(st.sampled_from(MTX_FILES)) + ".mtx"
        if draw(st.booleans()):
            recipe += ",mass={dir}/" + draw(st.sampled_from(MTX_FILES)) + ".mtx"
        return recipe
    return f"{kind}:{draw(body(PROBLEM_KEYS[kind]))}"


@st.composite
def precond_recipe(draw):
    kind = draw(st.sampled_from([*PRECOND_KEYS, *PRECOND_KEYS, "scaled"]))
    if kind == "scaled":
        return "scaled:" + draw(precond_recipe())
    text = draw(body(PRECOND_KEYS[kind]))
    return f"{kind}:{text}" if text or draw(st.booleans()) else kind


STEP = st.one_of(
    st.sampled_from(["theory", "pinvit", "const", "constant", "fixed", "bogus", ""]),
    st.tuples(st.sampled_from(["const", "constant"]), token("c")).map(":".join),
    token("value").map("fixed:".__add__),
)


@st.composite
def solve_argv(draw):
    argv = ["solve", "--problem", draw(problem_recipe()), "--precond", draw(precond_recipe())]
    argv += ["--maxit", draw(token("maxit"))]
    for flag, tokens in [
        ("--step", STEP),
        ("--init", st.sampled_from(["gaussian", "smooth", "eigvec"] * 2 + ["bogus"])),
        ("--tol", token("tol")),
        ("--seed", token("seed")),
    ]:
        if draw(st.booleans()):
            argv += [flag, draw(tokens)]
    return argv


@st.composite
def phi_or_prob_argv(draw):
    command = draw(st.sampled_from(["phi", "prob"]))
    argv = [command, "--problem", draw(problem_recipe()), "--precond", draw(precond_recipe())]
    if command == "prob":
        argv += ["--trials", draw(token("trials"))]
        if draw(st.booleans()):
            argv += ["--sampler", draw(st.sampled_from(["gaussian", "smooth", "bogus"]))]
    return argv


# table -> the keys a config always sets (its list-valued key, and a
# scalar h that would otherwise default to 2^-6) and the keys it may set
TABLE_KEYS = {
    "phi-ddm-fixedH": (["h"], ["H"]),
    "phi-ddm-fixedh": (["H", "h"], []),
    "prob-ddm": (["h"], ["H", "trials"]),
    "prob-kernel": (["n"], ["kernel_seed", "trials"]),
    "bogus": (["h"], []),
}
# valid small JSON values of each key, and refused ones where a value sets
# the size of the work (any number goes where it does not)
JSON_SMALL = {
    "h": [0.25, 0.125, 0.0625],
    "H": [0.5, 0.25],
    "n": [2, 16, 32],
    "trials": [1, 5],
    "kernel_seed": [0, 7, -1, 2**64],
}
JSON_SIZE_ODD = st.sampled_from(
    [None, True, False, "x", "", 0, -1, 1, 3, 10**20, 10**400, -(10**400), 0.3, 1e-300, 5e-324,
     1e308, float("inf"), float("nan"), -0.0, {"h": 1}]
)
JSON_ANY = st.one_of(JSON_SIZE_ODD, st.integers(), st.floats(), st.text(max_size=3))


def json_value(key, listed):
    """A JSON value for `key`, a list of entries when `listed`: of the right
    shape, and each entry valid, three times in four."""
    odd = JSON_ANY if key in ("H", "kernel_seed") else JSON_SIZE_ODD
    entry = weighted(st.sampled_from(JSON_SMALL.get(key, [0.25])), odd)
    shaped = st.lists(entry, min_size=1, max_size=3) if listed else entry
    return weighted(shaped, entry if listed else st.lists(entry, max_size=2))


@st.composite
def table_argv(draw):
    name = draw(st.sampled_from(list(TABLE_KEYS)))
    argv = ["table", "--name", name, "--config", "{dir}/cfg.json", "--trials", draw(token("trials"))]
    always, maybe = TABLE_KEYS[name]
    config = {key: draw(json_value(key, key == always[0])) for key in always}
    config.update({key: draw(json_value(key, False)) for key in maybe if draw(st.booleans())})
    if draw(st.sampled_from([False, False, True])):
        config[draw(st.sampled_from(["hh", "n", "H", "h", "kernel_seed"]))] = draw(JSON_SIZE_ODD)
    text = json.dumps(config)
    return argv, draw(st.sampled_from([text] * 5 + [json.dumps([config]), text[:-1], ""]))


MATRICES = {
    "spd": "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n",
    "mass": "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 2 2\n3 3 1\n",
    "indefinite": "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 2 -2\n3 3 1\n",
    "general": "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 1 3\n",
    "garbage": "not a matrix\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    for name, text in MATRICES.items():
        (root / f"{name}.mtx").write_text(text)
    return root


def run(argv, config, root):
    """(exit code, stderr lines, raised by argparse) of main on argv."""
    (root / "cfg.json").write_text(config)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code, parsed = main([arg.replace("{dir}", str(root)) for arg in argv]), True
        except SystemExit as exc:
            code, parsed = exc.code, False
    return code, err.getvalue().splitlines(), parsed


ARGV = st.one_of(
    solve_argv().map(lambda a: (a, "")),
    phi_or_prob_argv().map(lambda a: (a, "")),
    table_argv(),
)


# inputs the grammar found, each mended: a solve stopped short of tol exited 2
# with no error line; a kernel shift beyond 1e150 overflowed the
# symmetrization (phi) or the (u^T A u)^2 of a step (solve); an mp-chol of a
# matrix beyond the binary32 range overflowed its cast
@example(case=(["solve", "--problem", "laplace-fd:h=2^-2", "--precond", "identity", "--maxit", "0"], ""))
@example(case=(["phi", "--problem", "kernel-laplace:n=2,tau=1e308", "--precond", "identity"], ""))
@example(
    case=(
        ["solve", "--problem", "kernel-laplace:n=3,tau=1e200", "--precond", "identity",
         "--step", "fixed:0.01", "--init", "gaussian", "--maxit", "5"],
        "",
    )
)
@example(
    case=(
        ["solve", "--problem", "kernel-laplace:n=2,tau=" + "10" * 20, "--precond", "mp-chol",
         "--maxit", "0"],
        "",
    )
)
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ARGV)
def test_every_cli_input_exits_0_1_or_2_with_one_error_line(files, case):
    argv, config = case
    code, lines, parsed = run(argv, config, files)
    assert code in (0, 1, 2), (code, lines)
    errors = [line for line in lines if "error: " in line]
    if code == 0:
        assert not errors, lines
        return
    assert len(errors) == 1 and errors[0] == lines[-1], lines
    # main's own refusals write that one line and nothing else
    assert not parsed or len(lines) == 1, lines
