"""MatrixMarket reader/writer for symmetric real matrices.

Disk format uses 1-based indices; everything in memory is 0-based.
Coordinate files come back as CSR, array files as dense ndarrays.
"""

import itertools

import numpy as np
import scipy.sparse

from .errors import RecipeError


def read_matrix(path):
    """Read a real symmetric/general MatrixMarket file (coordinate or array)."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split()
        if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise RecipeError(f"{path}: not a MatrixMarket matrix file")
        fmt, field, symmetry = header[2].lower(), header[3].lower(), header[4].lower()
        if field != "real":
            raise RecipeError(f"{path}: only real matrices are supported, got {field}")
        if symmetry not in ("symmetric", "general"):
            raise RecipeError(f"{path}: unsupported symmetry {symmetry}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        sizes = line.split()
        if fmt == "coordinate":
            nrow, ncol, nnz = _sizes(path, sizes, 3)
            entries = _entries(path, fh, nnz, 3)
            index = entries[:, :2]
            if np.any((index != np.floor(index)) | (index < 1) | (index > (nrow, ncol))):
                raise RecipeError(f"{path}: an entry index is not an integer in range")
            rows, cols = (index - 1).astype(np.int64).T
            vals = entries[:, 2]
            if symmetry == "symmetric":
                off = rows != cols
                rows, cols, vals = (
                    np.concatenate([rows, cols[off]]),
                    np.concatenate([cols, rows[off]]),
                    np.concatenate([vals, vals[off]]),
                )
            m = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(nrow, ncol))
            m.sum_duplicates()
            m.sort_indices()
            return m
        if fmt == "array":
            nrow, ncol = _sizes(path, sizes, 2)
            if symmetry == "symmetric":
                # lower triangle, column-major
                cols, rows = np.triu_indices(ncol, m=nrow)
                vals = _entries(path, fh, len(rows), 1)[:, 0]
                a = np.zeros((nrow, ncol))
                a[rows, cols] = vals
                a[cols, rows] = vals
                return a
            return _entries(path, fh, nrow * ncol, 1)[:, 0].reshape(ncol, nrow).T.copy()
        raise RecipeError(f"{path}: unsupported format {fmt}")


def _sizes(path, fields, count):
    """The `count` integers of the size line."""
    try:
        sizes = tuple(int(f) for f in fields[:count])
    except ValueError:
        sizes = ()
    if len(sizes) != count:
        raise RecipeError(f"{path}: malformed size line {' '.join(fields)!r}")
    return sizes


def _entries(path, fh, count, width):
    """The next `count` entry lines as a (count, width) array, parsed in one
    call; a truncated or malformed body raises RecipeError."""
    if count == 0:
        return np.empty((0, width))
    try:
        data = np.loadtxt(itertools.islice(fh, count), ndmin=2, comments=None)
    except ValueError as exc:
        raise RecipeError(f"{path}: malformed entry line: {exc}") from exc
    if data.shape != (count, width):
        raise RecipeError(
            f"{path}: expected {count} entry lines of {width} fields, got shape {data.shape}"
        )
    return data


def write_sparse(path, m, comment=None):
    """Write a structurally symmetric sparse matrix in coordinate format.

    Only the lower triangle is stored, per the symmetric convention.
    """
    coo = scipy.sparse.coo_matrix(m)
    keep = coo.row >= coo.col
    rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((rows, cols))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {len(vals)}\n")
        for k in order:
            fh.write(f"{rows[k] + 1} {cols[k] + 1} {vals[k]:.17g}\n")


def write_dense(path, a, comment=None):
    """Write a dense symmetric matrix in array format (lower triangle)."""
    a = np.asarray(a, dtype=np.float64)
    n, m = a.shape
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real symmetric\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{n} {m}\n")
        for j in range(m):
            for i in range(j, n):
                fh.write(f"{a[i, j]:.17g}\n")
