"""MatrixMarket input for real symmetric or general matrices, read by scipy.io.

Coordinate files come back as CSR with summed duplicates and sorted
indices, array files as dense float64 ndarrays.  Malformed files raise
RecipeError.
"""

import numpy as np
import scipy.sparse

from .errors import RecipeError


def read_matrix(path):
    """Read a real symmetric/general MatrixMarket file (coordinate or array)."""
    import scipy.io  # on first use: a top-level import slows `import precondeig`

    try:
        nrow, ncol, entries, fmt, field, symmetry = scipy.io.mminfo(path)
    except ValueError as exc:
        raise RecipeError(f"{path}: not a MatrixMarket matrix file: {exc}") from exc
    if field != "real":
        raise RecipeError(f"{path}: only real matrices are supported, got {field}")
    if symmetry not in ("symmetric", "general"):
        raise RecipeError(f"{path}: unsupported symmetry {symmetry}")
    if symmetry == "symmetric" and nrow != ncol:
        # scipy writes past its buffer on a non-square symmetric array
        raise RecipeError(f"{path}: a symmetric matrix must be square, got {nrow}x{ncol}")
    # scipy reads the first fields of a line that has more and zero-fills a
    # short symmetric array, so every entry line is counted here
    width = 3 if fmt == "coordinate" else 1
    if fmt == "array" and symmetry == "symmetric":
        entries = nrow * (nrow + 1) // 2
    with open(path) as fh:
        fields = [len(f) for f in (line.split() for line in fh if line[:1] != "%") if f][1:]
    if not len(fields) == fields.count(width) == entries:
        raise RecipeError(f"{path}: expected {entries} entry lines of width {width}")
    try:
        m = scipy.io.mmread(path)
    except ValueError as exc:
        raise RecipeError(f"{path}: malformed MatrixMarket body: {exc}") from exc
    if fmt == "array":
        return np.ascontiguousarray(m, dtype=np.float64)
    m = scipy.sparse.csr_matrix(m)
    m.sum_duplicates()
    m.sort_indices()
    return m
