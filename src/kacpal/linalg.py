"""Exact linear algebra over the cyclotomic field: reduced row echelon form,
kernels, ranks, determinants and small dense matrices.

Everything is exact; pivoting picks the first nonzero entry, so results are
deterministic and canonical (RREF bases are unique for a given row space).
"""

from __future__ import annotations

from .cyclotomic import CycContext, CycScalar


def rref(rows: list[list[CycScalar]], ctx: CycContext) -> tuple[list[list[CycScalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = _pivot(rows, r, c)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _pivot(rows, start: int, c: int) -> int | None:
    """First row index >= start with a nonzero entry in column c."""
    return next((i for i in range(start, len(rows)) if rows[i][c]), None)


def rank(rows: list[list[CycScalar]], ctx: CycContext) -> int:
    return len(rref(rows, ctx)[0])


def kernel_basis(rows: list[list[CycScalar]], ncols: int, ctx: CycContext) -> list[list[CycScalar]]:
    """Canonical basis of the right kernel {v : A v = 0}, one vector per free
    column, derived from the RREF."""
    red, pivots = rref(rows, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def determinant(mat: list[list[CycScalar]], ctx: CycContext) -> CycScalar:
    """Exact determinant by Gaussian elimination with division."""
    n = len(mat)
    rows = [list(r) for r in mat]
    det = ctx.one
    for c in range(n):
        pivot_row = _pivot(rows, c, c)
        if pivot_row is None:
            return ctx.zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inv()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# ---------------------------------------------------------------------------
# small dense matrices over the cyclotomic field


class Mat:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: CycContext, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)

    @staticmethod
    def identity(ctx: CycContext, n: int) -> "Mat":
        return Mat(ctx, [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ctx: CycContext, n: int, m: int) -> "Mat":
        return Mat(ctx, [[ctx.zero] * m for _ in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if isinstance(other, Mat):
            n, k = self.shape
            k2, m = other.shape
            if k != k2:
                raise ValueError(f"shape mismatch: {n}x{k} times {k2}x{m}")
            cols = list(zip(*other.rows))
            out = []
            for row in self.rows:
                out.append(
                    [_dot(self.ctx, row, col) for col in cols]
                )
            return Mat(self.ctx, out)
        return self.scale(other)

    def __add__(self, other: "Mat"):
        return Mat(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Mat"):
        return Mat(
            self.ctx,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def scale(self, c) -> "Mat":
        if isinstance(c, int):
            c = self.ctx.scalar(c)
        return Mat(self.ctx, [[x * c for x in row] for row in self.rows])

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

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def flatten(self) -> list[CycScalar]:
        return [x for row in self.rows for x in row]

    def det(self) -> CycScalar:
        return determinant([list(r) for r in self.rows], self.ctx)

    def is_invertible(self) -> bool:
        return bool(self.det())

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.rows]

    def __repr__(self):
        return "Mat[" + "; ".join(", ".join(repr(x) for x in row) for row in self.rows) + "]"


def _dot(ctx: CycContext, u, v) -> CycScalar:
    out = ctx.zero
    for a, b in zip(u, v):
        if a and b:
            out = out + a * b
    return out
