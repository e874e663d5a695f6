"""Byte-identical CLI outputs against committed fixtures.

Each case runs one CLI command and compares what it writes (stdout, and the
trace CSV of solve) with tests/fixtures/cli/, after dropping the wall-clock
field runtime_s.  A change that means to alter an output regenerates the
fixtures on purpose, from the repository root:

    PYTHONPATH=src python -m tests.test_cli_fixtures

which writes only the fixtures whose text differs and prints their names;
the diff of tests/fixtures/cli/ then shows what moved.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from precondeig.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

# case name: (argv, exit code); {tmp} is a scratch directory
CASES = {
    "validate": (["validate", "--seeds", "2", "--sizes", "6,12"], 0),
    "validate-bug": (["validate", "--seeds", "2", "--sizes", "6,12", "--inject-bug", "a_x_sign"], 3),
    "solve": (
        ["solve", "--problem", "laplace-fd:h=2^-4", "--precond", "ddm:H=2^-2",
         "--trace", "{tmp}/solve.trace.csv", "--result", "{tmp}/result.json"],
        0,
    ),
    "phi": (["phi", "--problem", "kernel-laplace:n=32,seed=4", "--precond", "mp-chol"], 0),
    "prob": (["prob", "--problem", "kernel-laplace:n=32,seed=4", "--precond", "mp-chol"], 0),
    "prob-smooth": (
        ["prob", "--problem", "kernel-laplace:n=32,seed=4", "--precond", "mp-chol",
         "--sampler", "smooth"],
        0,
    ),
    "validate-n20": (["validate", "--seeds", "1", "--sizes", "20"], 0),
    "table-prob-kernel": (["table", "--name", "prob-kernel", "--config", "{tmp}/cfg.json"], 0),
}


def _without_runtime(text):
    """text without the runtime_s line of a JSON report or column of a CSV
    table (its last)."""
    lines = text.splitlines(keepends=True)
    if lines and lines[0].rstrip("\n").endswith(",runtime_s"):
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    return "".join(line for line in lines if '"runtime_s":' not in line)


def outputs():
    """Fixture file name -> text for every case, run in a scratch directory."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(json.dumps({"n": [32], "trials": 20}))
        for case, (argv, code) in CASES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                assert main([arg.format(tmp=tmp) for arg in argv]) == code, case
            got[f"{case}.out"] = _without_runtime(stdout.getvalue())
        got["solve.trace.csv"] = Path(tmp, "solve.trace.csv").read_text()
        assert Path(tmp, "result.json").read_text() == got["solve.out"]
    return got


def test_cli_outputs_match_fixtures():
    got = outputs()
    assert sorted(got) == sorted(p.name for p in FIXTURES.iterdir())
    changed = [name for name, text in got.items() if (FIXTURES / name).read_text() != text]
    assert not changed, f"CLI output differs from tests/fixtures/cli/ in {changed}"


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, text in outputs().items():
        path = FIXTURES / name
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(f"rewrote tests/fixtures/cli/{name}")
