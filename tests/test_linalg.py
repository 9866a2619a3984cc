import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import CycContext
from kacpal.linalg import Mat, kernel_basis, rref


def _rand_scalar(ctx, rng):
    return ctx.scalar(rng.randrange(-3, 4)) + ctx.p * ctx.scalar(rng.randrange(-1, 2))


# -- independent slow path: dense elimination over every entry ---------------


def _first_nonzero(rows, start, c):
    return next((i for i in range(start, len(rows)) if rows[i][c]), None)


def reference_rref(rows, ctx):
    """Dense Gauss-Jordan: inverts at every pivot and updates every entry."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = _first_nonzero(rows, r, c)
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


def _dot(ctx, u, v):
    acc = ctx.zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


@st.composite
def sparse_matrices(draw):
    """A field n = 2..5 and a matrix up to 6x9 with sparse entries
    k zeta^e / d, some rows zero, some duplicated, some scaled so their
    leading entry is one."""
    ctx = CycContext(draw(st.integers(2, 5)))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    entry = st.one_of(
        st.just(ctx.zero),
        st.builds(
            lambda k, e, d: ctx.root(e) * ctx.scalar(k) * ctx.scalar(d).inv(),
            st.integers(-3, 3), st.integers(0, ctx.N - 1), st.integers(1, 3),
        ),
    )
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "duplicate", "unit-lead"]))
        if kind == "zero":
            rows[i] = [ctx.zero] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[draw(st.integers(0, nrows - 1))])
        elif kind == "unit-lead" and any(rows[i]):
            inv = next(x for x in rows[i] if x).inv()
            rows[i] = [x * inv for x in rows[i]]
    return ctx, rows


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_dense_reference(case):
    ctx, rows = case
    ncols = len(rows[0])
    red, pivots = rref(rows, ctx)
    ref_red, ref_pivots = reference_rref(rows, ctx)
    assert (red, pivots) == (ref_red, ref_pivots)
    assert len(rref(rows, ctx)[0]) == len(ref_red)
    kern = kernel_basis(rows, ncols, ctx)
    ref_kern = []
    for fc in (c for c in range(ncols) if c not in ref_pivots):
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(ref_pivots):
            v[pc] = -ref_red[r][fc]
        ref_kern.append(v)
    assert kern == ref_kern
    assert all(_dot(ctx, row, v) == ctx.zero for row in rows for v in kern)
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    sparse_red, sparse_pivots = rref(sparse, ctx, ncols)
    assert sparse_pivots == ref_pivots
    assert [[row.get(c, ctx.zero) for c in range(ncols)] for row in sparse_red] == ref_red


def test_rref_known_system():
    ctx = CycContext(2)
    s = ctx.scalar
    rows = [[s(1), s(2), s(3)], [s(2), s(4), s(6)], [s(0), s(1), s(1)]]
    red, pivots = rref(rows, ctx)
    assert pivots == [0, 1]
    assert len(rref(rows, ctx)[0]) == 2
    kern = kernel_basis(rows, 3, ctx)
    assert len(kern) == 1
    for row in rows:
        acc = ctx.zero
        for a, v in zip(row, kern[0]):
            acc = acc + a * v
        assert acc == ctx.zero


def test_kernel_of_zero_and_full():
    ctx = CycContext(3)
    zero_rows = [[ctx.zero] * 3]
    assert len(kernel_basis(zero_rows, 3, ctx)) == 3
    eye = Mat.identity(ctx, 3)
    assert kernel_basis([list(r) for r in eye.rows], 3, ctx) == []


def test_mat_ops():
    ctx = CycContext(2)
    a = Mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
    eye = Mat.identity(ctx, 2)
    assert a * eye == a
    assert (a - a) == Mat.zeros(ctx, 2, 2)
    assert a ** 2 == a * a


def dense_product(a, b, ctx):
    """Triple loop over every entry pair, zeros included."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = ctx.zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out[-1].append(acc)
    return out


def _random_matrix(ctx, rng, rows, cols, kind):
    """kind: monomial (one nonzero per row), dense, or sparse with a zero
    row and a zero column."""
    if kind == "monomial":
        mat = [[ctx.zero] * cols for _ in range(rows)]
        for row in mat:
            row[rng.randrange(cols)] = ctx.root(rng.randrange(ctx.N))
        return mat
    mat = [[_rand_scalar(ctx, rng) for _ in range(cols)] for _ in range(rows)]
    if kind == "holes":
        mat[rng.randrange(rows)] = [ctx.zero] * cols
        dead = rng.randrange(cols)
        for row in mat:
            row[dead] = ctx.zero
    return mat


def test_sparse_product_matches_dense_reference():
    rng = random.Random(19)
    kinds = ("monomial", "dense", "holes")
    for n in (2, 3, 4, 5):
        ctx = CycContext(n)
        for trial in range(24):
            rows, inner, cols = (rng.randrange(1, 6) for _ in range(3))
            if trial % 4 == 0:
                rows = inner = cols  # square
            a = _random_matrix(ctx, rng, rows, inner, kinds[trial % 3])
            b = _random_matrix(ctx, rng, inner, cols, kinds[trial // 3 % 3])
            assert (Mat(ctx, a) * Mat(ctx, b)).rows == tuple(map(tuple, dense_product(a, b, ctx)))


def test_negative_matrix_power_raises():
    ctx = CycContext(2)
    a = Mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
    assert a**0 == Mat.identity(ctx, 2)
    with pytest.raises(ValueError, match="negative power"):
        a ** -1


def test_shape_mismatches_raise():
    ctx = CycContext(2)
    one, zero = ctx.one, ctx.zero
    with pytest.raises(ValueError, match="width"):
        rref([[one, zero], [one]], ctx)
    with pytest.raises(ValueError, match="width"):
        kernel_basis([[one, one, one]], 2, ctx)
    with pytest.raises(ValueError, match="width"):
        kernel_basis([[one]], 3, ctx)
    with pytest.raises(ValueError, match="ragged"):
        Mat(ctx, [[one, zero], [one]])
    a, b = Mat.identity(ctx, 2), Mat.identity(ctx, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        a + b
    with pytest.raises(ValueError, match="shape mismatch"):
        a - b
