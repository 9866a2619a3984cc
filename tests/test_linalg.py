import random
from itertools import permutations

import pytest

from kacpal import CycContext
from kacpal.linalg import Mat, determinant, kernel_basis, rank, rref


def _rand_scalar(ctx, rng):
    return ctx.scalar(rng.randrange(-3, 4)) + ctx.p * ctx.scalar(rng.randrange(-1, 2))


def test_rref_known_system():
    ctx = CycContext(2)
    s = ctx.scalar
    rows = [[s(1), s(2), s(3)], [s(2), s(4), s(6)], [s(0), s(1), s(1)]]
    red, pivots = rref(rows, ctx)
    assert pivots == [0, 1]
    assert rank(rows, ctx) == 2
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


def _det_by_permutation_expansion(mat, ctx):
    n = len(mat)
    out = ctx.zero
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ctx.scalar(sign)
        for i in range(n):
            term = term * mat[i][perm[i]]
        out = out + term
    return out


def test_determinant_against_permanent_expansion():
    rng = random.Random(13)
    ctx = CycContext(2)
    for _ in range(15):
        mat = [[_rand_scalar(ctx, rng) for _ in range(3)] for _ in range(3)]
        assert determinant(mat, ctx) == _det_by_permutation_expansion(mat, ctx)


def test_mat_ops():
    ctx = CycContext(2)
    a = Mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
    eye = Mat.identity(ctx, 2)
    assert a * eye == a
    assert (a - a) == Mat.zeros(ctx, 2, 2)
    assert a ** 2 == a * a
    assert a.is_invertible()
    b = Mat(ctx, [[ctx.one, ctx.one], [ctx.one, ctx.one]])
    assert not b.is_invertible()


def test_negative_matrix_power_raises():
    ctx = CycContext(2)
    a = Mat(ctx, [[ctx.one, ctx.p], [ctx.zero, ctx.one]])
    assert a**0 == Mat.identity(ctx, 2)
    with pytest.raises(ValueError, match="negative power"):
        a ** -1
