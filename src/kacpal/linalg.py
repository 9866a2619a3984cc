"""Exact linear algebra over the cyclotomic field: reduced row echelon form,
kernels, and matrices, all in the sparse format of the package.

Everything is exact; pivoting picks the first nonzero entry, so results are
deterministic and canonical (RREF bases are unique for a given row space).
Rows and vectors are {column: nonzero entry} dicts over columns below a
given ncols, and one Gauss–Jordan pass, `rref`, does all elimination;
`kernel_basis` reads its kernel from the RREF.  A matrix is a `SparseElem`
{(i, j): nonzero entry} over the context (field, shape).
"""

from __future__ import annotations

from .cyclotomic import CycContext
from .sparse import SparseElem, accumulate


def rref(rows: list[dict], ctx: CycContext, ncols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form (nonzero rows, pivot columns) of sparse rows
    over columns below ncols, by one sparse, exact Gauss–Jordan pass that
    reduces the rows in place; another column raises ValueError naming its
    row.  Column c pivots on the first row at or below the current one that
    holds it; the pivot row is scaled only when its pivot is not one, and c
    is eliminated only from the rows that hold it."""
    for r, row in enumerate(rows):
        for c in row:
            if not 0 <= c < ncols:
                raise ValueError(f"row {r} has column {c}, outside range({ncols})")
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        if prow[c] != ctx.one:
            inv = prow[c].inv()
            for j, x in prow.items():
                prow[j] = x * inv
        for row in rows:
            if row is not prow and c in row:
                f = row.pop(c)  # row -= f * prow; entries that cancel are deleted
                for j, y in prow.items():
                    if j != c:
                        v = row[j] - f * y if j in row else -(f * y)
                        if v:
                            row[j] = v
                        else:
                            del row[j]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def kernel_basis(rows: list[dict], ncols: int, ctx: CycContext) -> list[dict]:
    """Canonical basis of the right kernel {v : A v = 0} of sparse rows, one
    sparse vector per free column, derived from the RREF."""
    red, pivots = rref(rows, ctx, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    return [
        {fc: ctx.one, **{pc: -row[fc] for row, pc in zip(red, pivots) if fc in row}}
        for fc in free
    ]


class Mat(SparseElem):
    """Matrix with exact entries: a sparse map {(i, j): nonzero entry} over
    the context (field, shape).  Sums, differences, scaling and equality
    are the sparse core's; products touch only nonzero entries."""

    __slots__ = ("ctx", "shape", "terms")
    _mismatch = "shape mismatch"

    def __init__(self, ctx: CycContext, shape: tuple[int, int], terms: dict):
        self.ctx = ctx
        self.shape = shape
        self.terms = terms

    def context(self):
        return (self.ctx, self.shape)

    def _new(self, terms: dict) -> "Mat":
        return Mat(self.ctx, self.shape, terms)

    def _field(self):
        return self.ctx

    @staticmethod
    def identity(ctx: CycContext, n: int) -> "Mat":
        return Mat(ctx, (n, n), {(i, i): ctx.one for i in range(n)})

    @staticmethod
    def zeros(ctx: CycContext, n: int, m: int) -> "Mat":
        return Mat(ctx, (n, m), {})

    def __getitem__(self, ij):
        (i, j), (n, m) = ij, self.shape
        if not (0 <= i < n and 0 <= j < m):
            raise IndexError(f"entry {ij} outside a {n}x{m} matrix")
        return self.terms.get(ij, self.ctx.zero)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scale(other)
        (n, k), (k2, m) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {n}x{k} times {k2}x{m}")
        rows_b: dict = {}
        for (r, j), b in other.terms.items():
            rows_b.setdefault(r, []).append((j, b))
        out: dict = {}
        for (i, r), a in self.terms.items():
            for j, b in rows_b.get(r, ()):
                accumulate(out, (i, j), a * b)
        return Mat(self.ctx, (n, m), out)

    def __pow__(self, e: int) -> "Mat":
        n, m = self.shape
        if n != m:
            raise ValueError(f"power of a non-square {n}x{m} matrix")
        if e < 0:
            raise ValueError(f"negative power {e} of a matrix")
        out = Mat.identity(self.ctx, n)
        for _ in range(e):
            out = out * self
        return out

    def to_json(self) -> list:
        n, m = self.shape
        return [[self[i, j].to_json() for j in range(m)] for i in range(n)]
