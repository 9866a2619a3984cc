import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import CycContext
from kacpal.linalg import Mat, kernel_basis, rref
from dense_matrices import dense, dense_rows, mat, sparse


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
    red, pivots = rref(sparse(rows), ctx, ncols)
    ref_red, ref_pivots = reference_rref(rows, ctx)
    assert (dense(red, ncols, ctx), pivots) == (ref_red, ref_pivots)
    kern = dense(kernel_basis(sparse(rows), ncols, ctx), ncols, ctx)
    ref_kern = []
    for fc in (c for c in range(ncols) if c not in ref_pivots):
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, pc in enumerate(ref_pivots):
            v[pc] = -ref_red[r][fc]
        ref_kern.append(v)
    assert kern == ref_kern
    assert all(_dot(ctx, row, v) == ctx.zero for row in rows for v in kern)


def test_rref_known_system():
    ctx = CycContext(2)
    s = ctx.scalar
    rows = [[s(1), s(2), s(3)], [s(2), s(4), s(6)], [s(0), s(1), s(1)]]
    red, pivots = rref(sparse(rows), ctx, 3)
    assert pivots == [0, 1]
    assert len(red) == 2
    kern = dense(kernel_basis(sparse(rows), 3, ctx), 3, ctx)
    assert len(kern) == 1
    assert all(_dot(ctx, row, kern[0]) == ctx.zero for row in rows)


def test_kernel_of_zero_and_full():
    ctx = CycContext(3)
    assert len(kernel_basis([{}], 3, ctx)) == 3
    eye = Mat.identity(ctx, 3)
    assert kernel_basis(sparse(dense_rows(eye)), 3, ctx) == []


def test_mat_ops():
    ctx = CycContext(2)
    a = mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
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
        out = [[ctx.zero] * cols for _ in range(rows)]
        for row in out:
            row[rng.randrange(cols)] = ctx.root(rng.randrange(ctx.N))
        return out
    out = [[_rand_scalar(ctx, rng) for _ in range(cols)] for _ in range(rows)]
    if kind == "holes":
        out[rng.randrange(rows)] = [ctx.zero] * cols
        dead = rng.randrange(cols)
        for row in out:
            row[dead] = ctx.zero
    return out


def _mismatches(product: Mat, expected) -> list[tuple[int, int]]:
    """The (i, j) where product differs from the dense expected rows; a
    stored zero entry counts as a difference."""
    got = dense_rows(product)
    wrong = [(i, j) for i, row in enumerate(expected) for j, x in enumerate(row) if got[i][j] != x]
    return wrong + sorted(ij for ij, x in product.terms.items() if not x)


def _random_products(seed):
    """(ctx, a, b) over n = 2..5: 24 pairs of dense-row matrices each."""
    rng = random.Random(seed)
    kinds = ("monomial", "dense", "holes")
    for n in (2, 3, 4, 5):
        ctx = CycContext(n)
        for trial in range(24):
            rows, inner, cols = (rng.randrange(1, 6) for _ in range(3))
            if trial % 4 == 0:
                rows = inner = cols  # square
            a = _random_matrix(ctx, rng, rows, inner, kinds[trial % 3])
            b = _random_matrix(ctx, rng, inner, cols, kinds[trial // 3 % 3])
            yield ctx, a, b


def test_sparse_product_matches_dense_reference():
    for ctx, a, b in _random_products(19):
        product = mat(ctx, a) * mat(ctx, b)
        assert product.shape == (len(a), len(b[0]))
        assert _mismatches(product, dense_product(a, b, ctx)) == []


def test_changed_product_entry_is_named():
    """Negative control: one entry of a product moved by one must compare
    unequal, and the comparison names its (i, j)."""
    rng = random.Random(23)
    for ctx, a, b in _random_products(29):
        product = mat(ctx, a) * mat(ctx, b)
        n, m = product.shape
        ij = (rng.randrange(n), rng.randrange(m))
        terms = dict(product.terms)
        terms[ij] = product[ij] + ctx.one
        if not terms[ij]:
            del terms[ij]
        changed = Mat(ctx, product.shape, terms)
        assert changed != product
        assert _mismatches(changed, dense_product(a, b, ctx)) == [ij]


def test_cancelled_entries_are_not_stored():
    ctx = CycContext(3)
    one, q = ctx.one, ctx.q
    # row (1, q) against the column (q, -1): 1 q + q (-1) = 0
    a = mat(ctx, [[one, q], [one, one]])
    b = mat(ctx, [[q, one], [-one, ctx.zero]])
    product = a * b
    assert (0, 0) not in product.terms
    assert dense_rows(product) == dense_product(dense_rows(a), dense_rows(b), ctx)
    assert all(product.terms.values())
    assert (a - a).terms == {}
    assert a - a == Mat.zeros(ctx, 2, 2)
    assert (a * Mat.zeros(ctx, 2, 3)).terms == {}
    assert a.scale(0).terms == {}
    for ctx, a, b in _random_products(31):
        product = mat(ctx, a) * mat(ctx, b)
        assert all(product.terms.values())
        assert product - product == Mat.zeros(ctx, *product.shape)


def test_negative_matrix_power_raises():
    ctx = CycContext(2)
    a = mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
    assert a**0 == Mat.identity(ctx, 2)
    with pytest.raises(ValueError, match="negative power"):
        a ** -1


def test_shape_mismatches_raise():
    ctx = CycContext(2)
    a, b = Mat.identity(ctx, 2), Mat.identity(ctx, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        a + b
    with pytest.raises(ValueError, match="shape mismatch"):
        a - b
    with pytest.raises(ValueError, match="shape mismatch"):
        a * b
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(ctx, 2, 3) + Mat.zeros(ctx, 3, 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(ctx, 2, 3) * Mat.zeros(ctx, 2, 3)
    with pytest.raises(IndexError, match="outside a 2x3 matrix"):
        Mat.zeros(ctx, 2, 3)[2, 0]
    with pytest.raises(IndexError, match="outside a 2x2 matrix"):
        a[0, -1]


def test_columns_outside_ncols_raise():
    """A column outside range(ncols) is an error naming its row, not a
    column the pass skips."""
    ctx = CycContext(2)
    one = ctx.one
    with pytest.raises(ValueError, match=r"row 0 has column 5, outside range\(2\)"):
        rref([{0: one, 5: one}, {5: one}], ctx, 2)
    with pytest.raises(ValueError, match="row 1 has column 2"):
        kernel_basis([{0: one}, {0: one, 1: one, 2: one}], 2, ctx)
    with pytest.raises(ValueError, match="row 0 has column -1"):
        rref([{-1: one}], ctx, 2)
