import numpy as np
import pytest
import scipy.io
import scipy.sparse

import precondeig as pe
from precondeig.errors import RecipeError


def write_symmetric(path, m):
    scipy.io.mmwrite(str(path), m, symmetry="symmetric", precision=17)


def test_sparse_roundtrip_exact(tmp_path):
    prob = pe.laplace_fd(1.0 / 8.0)
    path = tmp_path / "fd.mtx"
    write_symmetric(path, prob.matrix)
    back = pe.read_matrix(path)
    assert scipy.sparse.issparse(back)
    assert (back != prob.matrix).nnz == 0  # byte-exact values via %.17g


def test_dense_roundtrip_exact(tmp_path):
    g = pe.Rng(2).normal(25).reshape(5, 5)
    a = (g + g.T) / 2.0
    path = tmp_path / "dense.mtx"
    write_symmetric(path, a)
    back = pe.read_matrix(path)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, a)


def test_we_read_scipy_files(tmp_path):
    g = pe.Rng(3).normal(36).reshape(6, 6)
    a = scipy.sparse.csr_matrix(np.triu(g) + np.triu(g, 1).T)
    path = tmp_path / "scipy.mtx"
    scipy.io.mmwrite(str(path), a, symmetry="symmetric")
    ours = pe.read_matrix(path)
    assert abs(ours - a).max() <= 1e-12


def test_reject_complex_header(tmp_path):
    # scipy.io.mmread returns a matrix for each of these
    path = tmp_path / "bad.mtx"
    for body in [
        "%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0 2.0\n",
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n",
        "%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 4\n2 1 1\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
    ]:
        path.write_text(body)
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
        # coordinate: an entry line with a fourth field, which scipy ignores
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 4.0 5.0\n",
        # array: two values on one line, of which scipy reads the first
        "%%MatrixMarket matrix array real symmetric\n2 2\n4.0 1.0\n3.0\n5.0\n",
        # array: a symmetric matrix that is not square (scipy writes past its buffer)
        "%%MatrixMarket matrix array real symmetric\n2 3\n4.0\n1.0\n3.0\n1.0\n1.0\n",
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

