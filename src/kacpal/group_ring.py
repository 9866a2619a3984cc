"""The base ring R = K[Z_n]^(tensor m): group-algebra arithmetic, idempotents,
slot embeddings, the symmetric-group slot action, and the canonical twist.

Monomials x_1^a1 ... x_m^am are keyed by exponent vectors in [0, n)^m;
multiplication is convolution (exponents add mod n, coefficients multiply).
Tensor powers R^(tensor k) are represented the same way with k exponent
vectors per key (class KTensor).

Slot action convention, used consistently everywhere in this package:

    sigma_w(a_1 (x) ... (x) a_m) = a_{w(1)} (x) ... (x) a_{w(m)},

i.e. sigma_w moves the content of slot w(i) into slot i.  With this formula
sigma_w . sigma_v = sigma_{w*v} holds for the left-to-right permutation
product (w*v)(i) = v(w(i)) implemented in kacpal.symmetric, which is what
makes the crossed product associative; see symmetric.py for the discussion.

The arithmetic of exponent vectors in Z_n^m is written once, in three
helpers that the structure maps of group_ring, hopf, quantum_poly and reps
call: exp_add (d + e mod n, the exponent of x^d x^e), exp_neg (-e mod n,
of (x^e)^-1) and slot_act (the slot action on exponents, sigma_w(x^e) =
x^(w.e) with (w.e)_i = e_{w(i)}).  A character psi of Z_n^m
sends x^e to q^(psi.e); then psi(sigma_w(x^e)) = (w.psi)(x^e) for the
character w.psi = slot_act(w^-1, psi), which is how the Sigma_m action is
read on character tables (HopfAlgebra.character_action).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import lcm

from .cyclotomic import CycContext, CycScalar
from .errors import ContextMismatchError, NotInvertibleError
from .sparse import SparseElem, accumulate, power_product
from .symmetric import Perm


def exp_add(d, e, n: int) -> tuple[int, ...]:
    """The exponent vector d + e mod n: the product x^d x^e = x^(d + e)."""
    return tuple([(a + b) % n for a, b in zip(d, e)])


def exp_neg(e, n: int) -> tuple[int, ...]:
    """The exponent vector -e mod n: the inverse (x^e)^-1 = x^(-e)."""
    return tuple([-a % n for a in e])


def slot_act(w: Perm, e) -> tuple:
    """The slot action w.e, (w.e)_i = e_{w(i)}: sigma_w(x^e) = x^(w.e)."""
    return tuple([e[i] for i in w.images])


def slot_vector(m: int, i: int, e: int = 1) -> tuple[int, ...]:
    """The exponent vector of length m with e in slot i (1-based), 0 elsewhere."""
    if not 1 <= i <= m:
        raise ValueError("slot out of range")
    key = [0] * m
    key[i - 1] = e
    return tuple(key)


class GroupAlgebra:
    """Context for R = K[Z_n]^(tensor m).  m = 1 gives the slice B = K[Z_n]."""

    def __init__(self, n: int, m: int):
        if n < 2 or m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        self.n = n
        self.m = m
        self.cyc = CycContext(n)
        self.zero = RingElem(self, {})
        self.zero_exp = (0,) * m
        self.one = RingElem(self, {self.zero_exp: self.cyc.one})

    def monomial(self, exps, coeff=None) -> "RingElem":
        exps = tuple(e % self.n for e in exps)
        if len(exps) != self.m:
            raise ValueError("exponent vector has wrong length")
        c = self.cyc.one if coeff is None else coeff
        if isinstance(c, int):
            c = self.cyc.scalar(c)
        return RingElem(self, {exps: c} if c else {})

    def from_terms(self, terms: dict) -> "RingElem":
        return RingElem(self, {k: c for k, c in terms.items() if c})

    def exponent_vectors(self):
        return iproduct(range(self.n), repeat=self.m)

    def __eq__(self, other):
        return isinstance(other, GroupAlgebra) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash(("GroupAlgebra", self.n, self.m))

    def __repr__(self):
        return f"GroupAlgebra(n={self.n}, m={self.m})"


class RingElem(SparseElem):
    """Sparse element of R: map from exponent vectors to nonzero scalars."""

    __slots__ = ("ring", "terms")
    _mismatch = "ring elements from different contexts"

    def __init__(self, ring: GroupAlgebra, terms: dict):
        self.ring = ring
        self.terms = terms

    def context(self):
        return self.ring

    def _new(self, terms: dict) -> "RingElem":
        return RingElem(self.ring, terms)

    def _field(self):
        return self.ring.cyc

    def _lift(self, c):
        if isinstance(c, (int, CycScalar)):
            return self.ring.monomial(self.ring.zero_exp, c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, CycScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.ring.n
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                accumulate(out, exp_add(ka, kb, n), ca * cb)
        return RingElem(self.ring, out)

    def __pow__(self, e: int):
        if e < 0:
            return ring_inverse(self) ** (-e)
        out = self.ring.one
        for _ in range(e):
            out = out * self
        return out

    def _monomial_repr(self, key) -> str:
        return "*".join(power_product("x", key)) or "1"


# ---------------------------------------------------------------------------
# standard group-algebra Hopf structure on R (monomials are group-like)


def eps_ring(a: RingElem) -> CycScalar:
    return sum(a.terms.values(), a.ring.cyc.zero)


def delta_ring(a: RingElem) -> "KTensor":
    """Delta(x^alpha) = x^alpha (x) x^alpha, extended linearly."""
    return KTensor(a.ring, 2, {(k, k): c for k, c in a.terms.items()})


def antipode_ring(a: RingElem) -> RingElem:
    n = a.ring.n
    return RingElem(a.ring, {exp_neg(k, n): c for k, c in a.terms.items()})


def sigma(w: Perm, a: RingElem) -> RingElem:
    """Slot action: sigma_w(x^alpha) = x^(w.alpha), (w.alpha)_i = alpha_{w(i)};
    a bijection on keys, so no two terms meet."""
    if w.size != a.ring.m:
        raise ContextMismatchError("permutation degree does not match tensor length")
    return RingElem(a.ring, {slot_act(w, k): c for k, c in a.terms.items()})


def idempotent(B: GroupAlgebra, k: int) -> RingElem:
    """e_k = (1/n) sum_i q^{-ik} x^i in B = K[Z_n] (one-slot context)."""
    if B.m != 1:
        raise ValueError("idempotents live in the one-slot algebra B")
    if not 0 <= k < B.n:
        raise ValueError("index out of range")
    inv_n = B.cyc.scalar(Fraction(1, B.n))
    return B.from_terms({(i,): B.cyc.q_pow(-i * k) * inv_n for i in range(B.n)})


def embed(R: GroupAlgebra, i: int, b: RingElem) -> RingElem:
    """Place a B-element in tensor slot i of R, identity elsewhere."""
    if b.ring.m != 1 or b.ring.n != R.n:
        raise ContextMismatchError("embed expects a one-slot element over the same n")
    if not 1 <= i <= R.m:
        raise ValueError("slot out of range")
    return R.from_terms({slot_vector(R.m, i, e): c for (e,), c in b.terms.items()})


# ---------------------------------------------------------------------------
# tensor powers


class KTensor(SparseElem):
    """Sparse element of R^(tensor k): map from k-tuples of exponent vectors
    to scalars.  Componentwise convolution product."""

    __slots__ = ("ring", "arity", "terms")
    _mismatch = "tensor elements from different contexts"

    def __init__(self, ring: GroupAlgebra, arity: int, terms: dict):
        self.ring = ring
        self.arity = arity
        self.terms = terms

    def context(self):
        return (self.ring, self.arity)

    def _new(self, terms: dict) -> "KTensor":
        return KTensor(self.ring, self.arity, terms)

    def _field(self):
        return self.ring.cyc

    def __mul__(self, other: "KTensor"):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.ring.n
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple([exp_add(la, lb, n) for la, lb in zip(ka, kb)])
                accumulate(out, k, ca * cb)
        return KTensor(self.ring, self.arity, out)

    # -- structure maps -------------------------------------------------------

    def _relabel(self, key_map, arity: int) -> "KTensor":
        """The tensor of the given arity with every key k replaced by
        key_map(k); key_map must be injective."""
        return KTensor(self.ring, arity, {key_map(k): c for k, c in self.terms.items()})

    def comultiply_leg(self, leg: int) -> "KTensor":
        """Apply Delta_R to one leg; monomials are group-like, so the leg
        is duplicated in place."""
        return self._relabel(lambda k: k[: leg + 1] + (k[leg],) + k[leg + 1 :], self.arity + 1)

    def counit_leg(self, leg: int) -> "KTensor":
        """Apply eps_R to one leg (eps of every monomial is 1)."""
        out: dict = {}
        for k, c in self.terms.items():
            accumulate(out, k[:leg] + k[leg + 1 :], c)
        return KTensor(self.ring, self.arity - 1, out)

    def antipode_leg(self, leg: int) -> "KTensor":
        n = self.ring.n
        return self._relabel(lambda k: k[:leg] + (exp_neg(k[leg], n),) + k[leg + 1 :], self.arity)

    def unit_leg(self, position: int) -> "KTensor":
        """Insert a trivial leg (tensor with 1) at the given position."""
        z = self.ring.zero_exp
        return self._relabel(lambda k: k[:position] + (z,) + k[position:], self.arity + 1)

    def sigma_all(self, w: Perm) -> "KTensor":
        """(sigma_w (x) ... (x) sigma_w) applied to every leg."""
        return self._relabel(lambda k: tuple([slot_act(w, leg) for leg in k]), self.arity)

    def multiply_legs(self) -> RingElem:
        """mu_R applied across all legs: multiply the legs together."""
        n = self.ring.n
        out: dict = {}
        for k, c in self.terms.items():
            accumulate(out, reduce(lambda a, b: exp_add(a, b, n), k, self.ring.zero_exp), c)
        return RingElem(self.ring, out)

    def to_json(self) -> list:
        return [
            {"exponents": [list(leg) for leg in k], "coeff": c.to_json()}
            for k, c in self.sorted_terms()
        ]


# ---------------------------------------------------------------------------
# the canonical twist of B = K[Z_n] and its derived elements


def canonical_twist(B: GroupAlgebra) -> KTensor:
    """J = sum_k e_k (x) x^k = (1/n) sum_{i,j} q^{-ij} x^i (x) x^j in B (x) B."""
    if B.m != 1:
        raise ValueError("the canonical twist lives over the one-slot algebra B")
    inv_n = B.cyc.scalar(Fraction(1, B.n))
    terms = {}
    for i in range(B.n):
        for j in range(B.n):
            terms[((i,), (j,))] = B.cyc.q_pow(-i * j) * inv_n
    return KTensor(B, 2, terms)


def embed_pair(J: KTensor, i: int, j: int, R: GroupAlgebra) -> KTensor:
    """(e_i^m (x) e_j^m)(J): left legs into slot i, right legs into slot j."""
    if J.ring.m != 1 or J.ring.n != R.n or J.arity != 2:
        raise ContextMismatchError("embed_pair expects an arity-2 tensor over B")
    if not (1 <= i <= R.m and 1 <= j <= R.m and i != j):
        raise ValueError("slots out of range")
    return KTensor(
        R,
        2,
        {(slot_vector(R.m, i, a), slot_vector(R.m, j, b)): c for ((a,), (b,)), c in J.terms.items()},
    )


def twist_Js(R: GroupAlgebra, k: int) -> KTensor:
    """J_{s_k} = (e_k^m (x) e_{k+1}^m)(J) = (1/n) sum q^{-ij} x_k^i (x) x_{k+1}^j."""
    if not 1 <= k <= R.m - 1:
        raise ValueError("transposition index out of range")
    B = GroupAlgebra(R.n, 1)
    return embed_pair(canonical_twist(B), k, k + 1, R)


def t_of(R: GroupAlgebra, k: int) -> RingElem:
    """t_k = mu_R(J_{s_k}) = (1/n) sum q^{-ij} x_k^i x_{k+1}^j."""
    return twist_Js(R, k).multiply_legs()


def t_inv_of(R: GroupAlgebra, k: int) -> RingElem:
    """Closed form t_k^{-1} = mu_R((id (x) S_R)(J_{s_k})) = (1/n) sum q^{-ij}
    x_k^i x_{k+1}^{-j}: its value at a character psi is q^{-psi_k psi_{k+1}},
    the inverse of t_k's."""
    return twist_Js(R, k).antipode_leg(1).multiply_legs()


# ---------------------------------------------------------------------------
# inversion in R and its tensor powers via the character basis
#
# a = sum_beta c_beta x^beta in K[Z_n^width] is a unit iff no character value
# chi(a) = sum_beta c_beta q^{chi.beta} is zero, and then
# a^{-1} = n^{-width} sum_beta (sum_chi chi(a)^{-1} q^{-chi.beta}) x^beta.
# Both directions run one exact transform, reduced twice:
#
# * Live axes.  Only the axes on which some key is nonzero are transformed.
#   a lies in the subalgebra K[Z_n^live], whose characters give the same set
#   of values, and its inverse lies there too; the inverse's keys are
#   re-embedded with 0 on the dead axes, in the same lexicographic order.
# * A separable integer pass.  Over a common denominator D each coefficient
#   is an integer vector in Z[x]/(x^N - 1), N = 2n, where multiplying by
#   q^e = zeta_N^{2e} is a cyclic rotation by 2e.  One n-point pass per live
#   axis costs at most live * n^(live+1) * N integer adds in all, one per
#   nonzero coefficient moved, and each of the n^live results is folded
#   modulo Phi_N once (CycContext.from_cyclic).
#   The inverse runs the same pass with sign -1 over the values chi(a)^{-1},
#   with denominator lcm(their denominators) * n^live.
#
# character_values runs the same pass on every axis, live or not, with no
# unit check: the full table of values that twists and hopf read.


def _character_pass(vecs: list, n: int, sign: int) -> list:
    """For vecs indexed row-major by beta in Z_n^k (len(vecs) = n^k), the
    array of sum_beta vecs[beta] x^{2 sign chi.beta} in Z[x]/(x^2n - 1)
    indexed row-major by chi: one n-point pass per axis.  Multiplying by x^r
    moves the coefficient at x^t to x^((t + r) mod 2n), so each output
    vector is built by adding the nonzero integers of its fiber at their
    rotated places; zero vectors and zero coefficients cost nothing."""
    N = 2 * n
    zero = [0] * N
    stride = 1
    while stride < len(vecs):
        block = stride * n
        out = [zero] * len(vecs)
        for base in range(0, len(vecs), block):
            for off in range(base, base + stride):
                fiber = []
                for e in range(n):
                    nz = [(t, c) for t, c in enumerate(vecs[off + e * stride]) if c]
                    if nz:
                        fiber.append((e, nz))
                if not fiber:
                    continue
                for k in range(n):
                    acc = [0] * N
                    for e, nz in fiber:
                        r = 2 * sign * k * e
                        for t, c in nz:
                            acc[(t + r) % N] += c
                    out[off + k * stride] = acc
        vecs = out
        stride = block
    return vecs


def _character_values(cyc: CycContext, items, live: int, sign: int, scale: int = 1) -> list:
    """[sum_i c_i q^{sign chi.beta_i} / scale for chi in Z_n^live], row-major,
    from pairs (row-major index of beta_i in Z_n^live, c_i)."""
    den = 1
    for _, c in items:
        den = lcm(den, c.den)
    pad = [0] * (cyc.N - cyc.degree)
    vecs = [[0] * cyc.N] * cyc.n**live
    for idx, c in items:
        f = den // c.den
        vecs[idx] = [x * f for x in c.nums] + pad
    return [cyc.from_cyclic(v, den * scale) for v in _character_pass(vecs, cyc.n, sign)]


def live_index(coords, live: list, n: int) -> int:
    """The row-major index in Z_n^live of the coordinates coords[i], i in live."""
    idx = 0
    for i in live:
        idx = idx * n + coords[i]
    return idx


def _unit_values(ring: GroupAlgebra, terms: dict, width: int) -> tuple[list, list]:
    """The live axes of the element with the given sparse terms, keyed by
    flat exponent tuples of that width, and its character values over
    Z_n^live.  Raises NotInvertibleError if one of them is zero."""
    n = ring.n
    live = [i for i in range(width) if any(key[i] for key in terms)]
    items = [(live_index(key, live, n), c) for key, c in terms.items()]
    values = _character_values(ring.cyc, items, len(live), 1)
    if any(v.is_zero() for v in values):
        raise NotInvertibleError("element is not a unit of the group algebra")
    return live, values


def _embed_live(coords, live: list, width: int) -> tuple:
    """The exponent tuple of the given width with coords on the live axes."""
    key = [0] * width
    for i, e in zip(live, coords):
        key[i] = e
    return tuple(key)


def _fourier_inverse_terms(ring: GroupAlgebra, terms: dict, width: int) -> dict:
    """Invert an element of the group algebra of Z_n^width given sparse terms
    keyed by flat exponent tuples of that length."""
    n = ring.n
    live, values = _unit_values(ring, terms, width)
    inverse = _character_values(
        ring.cyc, list(enumerate(v.inv() for v in values)), len(live), -1, n ** len(live)
    )
    out = {}
    for coords, c in zip(iproduct(range(n), repeat=len(live)), inverse):
        if c:
            out[_embed_live(coords, live, width)] = c
    return out


def _flat_terms(J: KTensor) -> dict:
    return {tuple(e for leg in k for e in leg): c for k, c in J.terms.items()}


def ring_inverse(a: RingElem) -> RingElem:
    """Exact inverse of a unit of R.  Raises NotInvertibleError otherwise."""
    return RingElem(a.ring, _fourier_inverse_terms(a.ring, a.terms, a.ring.m))


def tensor_inverse(J: KTensor) -> KTensor:
    """Exact inverse of a unit of R^(tensor k)."""
    m = J.ring.m
    inv_flat = _fourier_inverse_terms(J.ring, _flat_terms(J), m * J.arity)
    out = {}
    for key, c in inv_flat.items():
        out[tuple(key[i * m : (i + 1) * m] for i in range(J.arity))] = c
    return KTensor(J.ring, J.arity, out)


def check_tensor_invertible(J: KTensor) -> None:
    """Raise NotInvertibleError unless J is a unit: compute its character
    values on the live axes without reconstructing the inverse."""
    _unit_values(J.ring, _flat_terms(J), J.ring.m * J.arity)


def character_values(ring: GroupAlgebra, terms: dict, width: int) -> list:
    """The values of the element of K[Z_n^width] with the given terms, keyed
    by flat exponent tuples of that width, at the n^width characters, in
    row-major order: one transform over every axis, and no unit check."""
    items = [(live_index(key, range(width), ring.n), c) for key, c in terms.items()]
    return _character_values(ring.cyc, items, width, 1)
