"""The benchmark's span tracer patches program functions by name.

`perfbench/spans.py` swaps module bindings and class methods of precondeig
for timing wrappers and puts them back afterwards.  This test installs and
uninstalls those wrappers: it fails when a function or method the benchmark
patches is deleted or renamed, or when uninstalling leaves a wrapper behind.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores(spans):
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()  # AttributeError here: a patched name is gone from src/
    patched = list(inst._undo)
    try:
        assert patched
        for owner, attr, orig, _had in patched:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        inst.uninstall()
    for owner, attr, orig, had in patched:
        if had:
            assert vars(owner)[attr] is orig, (owner, attr)
        else:
            assert attr not in vars(owner), (owner, attr)
