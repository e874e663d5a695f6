import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import precondeig as pe
from precondeig.errors import RecipeError


def test_sparse_roundtrip_exact(tmp_path):
    prob = pe.laplace_fd(1.0 / 8.0)
    path = tmp_path / "fd.mtx"
    pe.write_sparse(path, prob.matrix, comment="fd laplacian")
    back = pe.read_matrix(path)
    assert scipy.sparse.issparse(back)
    assert (back != prob.matrix).nnz == 0  # byte-exact values via %.17g


def test_dense_roundtrip_exact(tmp_path):
    g = pe.Rng(2).normal(25).reshape(5, 5)
    a = (g + g.T) / 2.0
    path = tmp_path / "dense.mtx"
    pe.write_dense(path, a)
    back = pe.read_matrix(path)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, a)


def test_header_written():
    prob = pe.laplace_fd(1.0 / 4.0)
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.mtx")
        pe.write_sparse(path, prob.matrix)
        first = open(path).readline().strip()
    assert first == "%%MatrixMarket matrix coordinate real symmetric"


def test_scipy_reads_our_files(tmp_path):
    prob = pe.laplace_fd(1.0 / 8.0)
    path = tmp_path / "fd.mtx"
    pe.write_sparse(path, prob.matrix)
    theirs = scipy.io.mmread(str(path)).tocsr()
    assert abs(theirs - prob.matrix).max() == 0.0


def test_we_read_scipy_files(tmp_path):
    g = pe.Rng(3).normal(36).reshape(6, 6)
    a = scipy.sparse.csr_matrix(np.triu(g) + np.triu(g, 1).T)
    path = tmp_path / "scipy.mtx"
    scipy.io.mmwrite(str(path), a, symmetry="symmetric")
    ours = pe.read_matrix(path)
    assert abs(ours - a).max() <= 1e-12


def test_reject_complex_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0 2.0\n")
    with pytest.raises(RecipeError):
        pe.read_matrix(path)


def test_reject_non_mm_file(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix\n")
    with pytest.raises(RecipeError):
        pe.read_matrix(path)


@pytest.mark.parametrize(
    "body",
    [
        # coordinate: the size line promises 3 entries, 2 follow
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4.0\n2 1 1.0\n",
        # coordinate: the last entry line is cut short
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4.0\n2 1 1.0\n2 2\n",
        # array: a symmetric 2x2 holds 3 values, 2 follow
        "%%MatrixMarket matrix array real symmetric\n2 2\n4.0\n1.0\n",
        # array: an empty line where the last value should be
        "%%MatrixMarket matrix array real general\n2 2\n4.0\n1.0\n1.0\n\n",
    ],
)
def test_truncated_file_raises_recipe_error(tmp_path, body):
    path = tmp_path / "cut.mtx"
    path.write_text(body)
    with pytest.raises(RecipeError):
        pe.read_matrix(path)


def test_entry_index_out_of_range_raises_recipe_error(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 4.0\n")
    with pytest.raises(RecipeError):
        pe.read_matrix(path)


def test_general_array_is_column_major(tmp_path):
    path = tmp_path / "general.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
    assert np.array_equal(pe.read_matrix(path), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
