"""Dense fixtures for kacpal.linalg, whose rows, vectors and matrices are
sparse: tests write them as lists of rows and read them back the same way."""

from kacpal.linalg import Mat


def mat(ctx, rows) -> Mat:
    """The matrix of equal-width dense rows."""
    shape = (len(rows), len(rows[0]) if rows else 0)
    return Mat(ctx, shape, {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x})


def dense_rows(a: Mat) -> list[list]:
    n, m = a.shape
    return [[a[i, j] for j in range(m)] for i in range(n)]


def sparse(rows) -> list[dict]:
    """Dense rows as {column: nonzero entry} dicts."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense(vectors, ncols: int, ctx) -> list[list]:
    """Sparse rows or vectors written out over columns below ncols."""
    return [[v.get(c, ctx.zero) for c in range(ncols)] for v in vectors]
