"""Permutations of {1..m} and Coxeter words in the generators s_1..s_{m-1}.

Composition convention.  Perm stores images 0-based; the product is read
left to right,

    (w * v)(i) = v(w(i)),

so that evaluating a word [i_1, ..., i_k] as s_{i_1} * ... * s_{i_k} matches
the order in which the corresponding algebra generators z_{i_1} ... z_{i_k}
are multiplied.  Together with the slot action sigma_w(a)_i = a_{w(i)} of
group_ring this gives sigma_{w*v} = sigma_w . sigma_v, the compatibility the
crossed product needs (and which the test suite asserts directly).
"""

from __future__ import annotations

from itertools import permutations as _permutations


class Perm:
    """A permutation of {1..m}, stored as a 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images)-1}: {images}")
        self.images = images

    @staticmethod
    def identity(m: int) -> "Perm":
        return Perm(range(m))

    @staticmethod
    def transposition(m: int, k: int) -> "Perm":
        """s_k = (k, k+1), 1 <= k <= m-1."""
        if not 1 <= k <= m - 1:
            raise ValueError("generator index out of range")
        img = list(range(m))
        img[k - 1], img[k] = img[k], img[k - 1]
        return Perm(img)

    @property
    def size(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        return Perm(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Perm":
        out = [0] * self.size
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(out)

    def __call__(self, i: int) -> int:
        """Image of i under the permutation, 1-based."""
        return self.images[i - 1] + 1

    def length(self) -> int:
        """Coxeter length = inversion count of the one-line notation."""
        img = self.images
        return sum(
            1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j]
        )

    def one_line(self) -> tuple[int, ...]:
        return tuple(v + 1 for v in self.images)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Perm"):
        return self.images < other.images

    def __repr__(self):
        return f"Perm{self.one_line()}"


def all_perms(m: int) -> list[Perm]:
    return [Perm(p) for p in sorted(_permutations(range(m)))]


def eval_word(m: int, letters) -> Perm:
    """Evaluate a word in the Coxeter generators, left to right."""
    w = Perm.identity(m)
    for i in letters:
        w = w * Perm.transposition(m, i)
    return w


def canonical_word(w: Perm) -> tuple[int, ...]:
    """Deterministic reduced word: repeatedly split off the generator at the
    first descent of the one-line notation.  The result concatenates the
    staircase blocks of the Lehmer code (s_k s_{k-1} ... s_j with increasing
    block heads), has length equal to the inversion count, and evaluates
    back to w under eval_word."""
    word = []
    img = list(w.images)
    m = len(img)
    while True:
        for i in range(m - 1):
            if img[i] > img[i + 1]:
                word.append(i + 1)
                img[i], img[i + 1] = img[i + 1], img[i]
                break
        else:
            break
    return tuple(word)


def cycle_perm(m: int) -> Perm:
    """The permutation underlying theta = z_1 z_2 ... z_{m-1}: the evaluation
    of the full staircase word [1, 2, ..., m-1].  It is an m-cycle, and
    conjugation by it sends x_i to x_{i+1} (indices mod m)."""
    return eval_word(m, range(1, m))


def cycle_powers(m: int) -> list[Perm]:
    """s^0, ..., s^{m-1} for s = cycle_perm(m): the permutation labels of
    the cyclic Hopf subalgebra."""
    s = cycle_perm(m)
    out = [Perm.identity(m)]
    for _ in range(m - 1):
        out.append(out[-1] * s)
    return out
