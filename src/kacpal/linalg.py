"""Exact linear algebra over the cyclotomic field: reduced row echelon form
of dense or sparse rows, kernels, and small matrices whose products touch
only their nonzero entries.

Everything is exact; pivoting picks the first nonzero entry, so results are
deterministic and canonical (RREF bases are unique for a given row space).
One Gauss–Jordan pass, `_gauss_jordan`, does all elimination, on sparse
{column: nonzero entry} rows: `kernel_basis` takes dense rows and checks
their width, and `rref` takes dense rows the same way or sparse rows as
they are.
"""

from __future__ import annotations

from operator import add, sub

from .cyclotomic import CycContext, CycScalar


def _gauss_jordan(work: list[dict], ncols: int, ctx: CycContext):
    """One sparse, exact Gauss–Jordan pass, in place, over rows held as
    {column: nonzero entry} dicts with columns below ncols.  Column c pivots
    on the first row at or below the current one that holds it; the pivot
    row is scaled only when its pivot is not one, and c is eliminated only
    from the rows that hold it.  Returns (nonzero reduced rows, pivot
    columns)."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        p = next((i for i in range(r, len(work)) if c in work[i]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        if prow[c] != ctx.one:
            inv = prow[c].inv()
            for j, x in prow.items():
                prow[j] = x * inv
        for row in work:
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
    return work[: len(pivots)], pivots


def _sparse_rows(rows, ncols: int) -> list[dict]:
    """Dense rows of width ncols as {column: nonzero entry} dicts; other
    widths raise ValueError."""
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"expected rows of width {ncols}, got {sorted({len(r) for r in rows})}")
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def rref(rows: list, ctx: CycContext, ncols: int | None = None) -> tuple[list, list[int]]:
    """Reduced row echelon form (nonzero rows, pivot columns) of dense rows,
    where ragged rows raise ValueError.  Given ncols, the rows are sparse
    {column: nonzero entry} dicts over columns below ncols instead, which
    the pass reduces in place and returns as dicts."""
    if ncols is not None:
        return _gauss_jordan(rows, ncols, ctx)
    ncols = len(rows[0]) if rows else 0
    red, pivots = _gauss_jordan(_sparse_rows(rows, ncols), ncols, ctx)
    return [[row.get(c, ctx.zero) for c in range(ncols)] for row in red], pivots


def kernel_basis(rows: list[list[CycScalar]], ncols: int, ctx: CycContext) -> list[list[CycScalar]]:
    """Canonical basis of the right kernel {v : A v = 0}, one vector per free
    column, derived from the RREF.  A row whose width is not ncols raises
    ValueError."""
    red, pivots = _gauss_jordan(_sparse_rows(rows, ncols), ncols, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r].get(fc, ctx.zero)
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# small matrices over the cyclotomic field


class Mat:
    """Immutable matrix with exact entries, stored dense; products skip
    zero entries."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: CycContext, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError(f"ragged rows of widths {sorted({len(r) for r in self.rows})}")

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
            nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
            out = []
            for row in self.rows:
                acc = {}
                for a, nz in zip(row, nonzero):
                    if a:
                        for j, b in nz:
                            acc[j] = acc[j] + a * b if j in acc else a * b
                out.append([acc.get(j, self.ctx.zero) for j in range(m)])
            return Mat(self.ctx, out)
        return self.scale(other)

    def __add__(self, other: "Mat"):
        return self._entrywise(add, other)

    def __sub__(self, other: "Mat"):
        return self._entrywise(sub, other)

    def _entrywise(self, op, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} and {other.shape}")
        return Mat(self.ctx, [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)])

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

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.rows]

    def __repr__(self):
        return "Mat[" + "; ".join(", ".join(repr(x) for x in row) for row in self.rows) + "]"

