"""Predicate suite for twist hypotheses on elements of B (x) B and their
slot embeddings into R (x) R.

B (x) B = K[Z_n x Z_n] is commutative, and evaluation at the n^2 character
pairs (chi_a, chi_b), chi_a(x) = q^a, is an isomorphism of algebras onto
K^(n x n) (the transform of group_ring is invertible).  So J is determined
by its character table V[a][b] = J(chi_a, chi_b), and every predicate here
is a pointwise identity of V: a twist is a normalized 2-cocycle on the dual
group, and strong is bicharacter (see character_table and the verdicts
after it).  The strong, embedded and superstrong predicates return a pass
from V.  On a failure they run the dense KTensor products (the _dense_*
helpers) to name a witness, so a failing CheckResult is the dense one.
is_twist and antipode_conditions stay dense: they are cheap, and they are
the oracle of the table.

All predicates return a CheckResult carrying the first mismatching basis
tuple with both coefficients on failure, so exact-arithmetic regressions
are debuggable.  Invertibility is a precondition of is_twist and raises
NotInvertibleError rather than returning False.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .group_ring import (
    GroupAlgebra,
    KTensor,
    check_tensor_invertible,
    embed_pair,
    live_index,
    tensor_inverse,
)
from .errors import ContextMismatchError, NotInvertibleError


@dataclass
class CheckResult:
    ok: bool
    condition: str
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _compare(lhs: KTensor, rhs: KTensor, condition: str) -> CheckResult:
    if lhs == rhs:
        return CheckResult(True, condition)
    keys = sorted(set(lhs.terms) | set(rhs.terms))
    zero = lhs.ring.cyc.zero
    for k in keys:
        a = lhs.terms.get(k, zero)
        b = rhs.terms.get(k, zero)
        if a != b:
            witness = {
                "key": [list(leg) for leg in k],
                "lhs": a.to_json(),
                "rhs": b.to_json(),
            }
            return CheckResult(False, condition, witness)
    raise AssertionError("unreachable: tensors differ but no witness found")


# ---------------------------------------------------------------------------
# verdicts on the character table (indices mod n)
#
# Delta(x^i) = x^i (x) x^i, so (chi_a (x) chi_b) o Delta = chi_(a+b), and
# eps = chi_0.  Reading a tensor identity at characters therefore adds the
# indices of a duplicated leg, drops a counit leg at 0, and multiplies the
# values of a product; two tensors are equal iff they agree at every
# character.


def character_table(J: KTensor) -> list[list]:
    """V[a][b] = J(chi_a, chi_b) = sum_(i,j) c_ij q^(a i + b j), from the one
    transform check_tensor_invertible runs.  Raises NotInvertibleError
    unless J is a unit of B (x) B."""
    if J.ring.m != 1 or J.arity != 2:
        raise ContextMismatchError("a character table needs an arity-2 tensor over B")
    n = J.ring.n
    live, values = check_tensor_invertible(J)
    return [[values[live_index((a, b), live, n)] for b in range(n)] for a in range(n)]


def _counits_hold(V: list) -> bool:
    """(eps (x) id)(J) = 1 = (id (x) eps)(J): V[0][b] = 1 = V[a][0]."""
    one = V[0][0].ctx.one
    return all(v == one for v in V[0]) and all(row[0] == one for row in V)


def _twist_holds(V: list) -> bool:
    """is_twist: the counits, and (Delta (x) id)(J)(J (x) 1) =
    (id (x) Delta)(J)(1 (x) J) at (chi_a, chi_b, chi_c):
    V[a+b][c] V[a][b] = V[a][b+c] V[b][c] for all n^3 triples."""
    n = len(V)
    return _counits_hold(V) and all(
        V[(a + b) % n][c] * V[a][b] == V[a][(b + c) % n] * V[b][c]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _strong_holds(V: list) -> bool:
    """is_strong_twist, and embedded_twist(J, i, j, m) for every i < j <= m.

    The embedding (e_i (x) e_j)(J) over K[Z_n^m] takes the value
    V[alpha_i][beta_j] at characters (alpha, beta) of Z_n^m, so its counits
    are those of V, and its twist equation at (alpha, beta, gamma) reads,
    with a = alpha_i, b = beta_i, b' = beta_j, c' = gamma_j,

        (S)  V[a+b][c'] V[a][b'] = V[a][b'+c'] V[b][c'].

    As i != j the four indices range over all of Z_n^4, whatever i, j and
    m are.  Given the counits, (S) says V is a bicharacter: b' = 0 gives
    V[a+b][c'] = V[a][c'] V[b][c'], b = 0 gives V[a][b'+c'] = V[a][b'] V[a][c'],
    and conversely both sides of (S) are then V[a][b'] V[a][c'] V[b][c'].
    Both rules are symmetric in a and b, and the counits make them hold
    when an index is 0, so a <= b and c run from 1: 2n^3 products at most."""
    n = len(V)
    return _counits_hold(V) and all(
        V[(a + b) % n][c] == V[a][c] * V[b][c] and V[c][(a + b) % n] == V[c][a] * V[c][b]
        for a in range(1, n)
        for b in range(a, n)
        for c in range(1, n)
    )


def _superstrong_holds(V: list) -> bool:
    """is_superstrong at (chi_p1, chi_p2, chi_p3, chi_p4): Delta_(B(x)B)(J)
    has keys (i, j, i, j), (e_1 (x) e_2)(J) legs 1 and 4, (e_2 (x) e_1)(J)
    legs 2 and 3, and J (x) J legs (1, 2) and (3, 4), so

        V[p1+p3][p2+p4] = V[p1][p4] V[p2][p3] V[p1][p2] V[p3][p4]

    over all n^4 quadruples.  The two factors that share p4, and the two
    that share p2, are multiplied once per triple, so each quadruple costs
    one product."""
    n = len(V)
    r = range(n)
    outer = [[[V[p1][p4] * V[p3][p4] for p4 in r] for p3 in r] for p1 in r]
    for p1 in r:
        for p2 in r:
            inner = [V[p1][p2] * V[p2][p3] for p3 in r]
            for p3 in r:
                lhs = V[(p1 + p3) % n]
                for p4 in r:
                    if lhs[(p2 + p4) % n] != inner[p3] * outer[p1][p3][p4]:
                        return False
    return True


@lru_cache(maxsize=4)
def _strong_verdict(J: KTensor) -> bool:
    """_strong_holds on J's table, once per J: twist_suite asks it for the
    strong twist and again for every embedding up to max_m."""
    return _strong_holds(character_table(J))


def unit_tensor(ring: GroupAlgebra, arity: int) -> KTensor:
    z = ring.zero_exp
    return KTensor(ring, arity, {(z,) * arity: ring.cyc.one})


def is_twist(J: KTensor) -> CheckResult:
    """The twist equation (Delta (x) id)(J)(J (x) 1) = (id (x) Delta)(J)(1 (x) J)
    together with both counit normalizations.  J must be invertible."""
    if J.arity != 2:
        raise ValueError("a twist is an element of R (x) R")
    check_tensor_invertible(J)  # raises NotInvertibleError on non-units
    one = unit_tensor(J.ring, 1)
    ce_l = _compare(J.counit_leg(0), one, "counit-left")
    if not ce_l.ok:
        return ce_l
    ce_r = _compare(J.counit_leg(1), one, "counit-right")
    if not ce_r.ok:
        return ce_r
    lhs = J.comultiply_leg(0) * J.unit_leg(2)
    rhs = J.comultiply_leg(1) * J.unit_leg(0)
    return _compare(lhs, rhs, "twist-equation")


def _dense_embedded_twist(J: KTensor, i: int, j: int, m: int, prefix: str) -> CheckResult:
    """is_twist of (e_i^m (x) e_j^m)(J), with the condition name prefixed."""
    res = is_twist(embed_pair(J, i, j, GroupAlgebra(J.ring.n, m)))
    return CheckResult(res.ok, prefix + res.condition, res.witness)


def is_strong_twist(J: KTensor) -> CheckResult:
    """(e_1^2 (x) e_2^2)(J) is a twist for B (x) B."""
    if J.ring.m != 1:
        raise ValueError("strong twist condition applies to twists over B")
    if _strong_verdict(J):
        return CheckResult(True, "strong-twist:twist-equation")
    return _dense_embedded_twist(J, 1, 2, 2, "strong-twist:")


def _dense_superstrong(J: KTensor) -> CheckResult:
    """is_superstrong by the 4-fold tensor products, naming the witness."""
    # Delta_{B(x)B} duplicates the pair (i, j) diagonally: (i, j, i, j)
    lhs = KTensor(J.ring, 4, {(k[0], k[1], k[0], k[1]): c for k, c in J.terms.items()})
    e12 = J.unit_leg(1).unit_leg(1)
    e21 = J.unit_leg(0).unit_leg(3)
    # J (x) J first keeps every intermediate at n^4 keys: 2 n^6 scalar products
    rhs = J.tensor(J) * e12 * e21
    return _compare(lhs, rhs, "superstrong")


def is_superstrong(J: KTensor) -> CheckResult:
    """Delta_{B(x)B}(J) = (e_1^2 (x) e_2^2)(J) (e_2^2 (x) e_1^2)(J) (J (x) J),
    as an exact equality of 4-fold tensors over B."""
    if J.ring.m != 1:
        raise ValueError("superstrong condition applies to twists over B")
    try:
        ok = _superstrong_holds(character_table(J))
    except NotInvertibleError:
        ok = False  # a non-unit may still pass; the dense product decides
    return CheckResult(True, "superstrong") if ok else _dense_superstrong(J)


def antipode_conditions(J: KTensor) -> CheckResult:
    """(S (x) S)(J) = J and (S (x) id)(J) = J^{-1} = (id (x) S)(J)."""
    if J.arity != 2:
        raise ValueError("expected an arity-2 tensor")
    J_inv = tensor_inverse(J)
    res = _compare(J.antipode_leg(0).antipode_leg(1), J, "antipode:S(x)S")
    if not res.ok:
        return res
    res = _compare(J.antipode_leg(0), J_inv, "antipode:S(x)id")
    if not res.ok:
        return res
    return _compare(J.antipode_leg(1), J_inv, "antipode:id(x)S")


def embedded_twist(J: KTensor, i: int, j: int, m: int) -> CheckResult:
    """(e_i^m (x) e_j^m)(J) is a twist for B^(tensor m), 1 <= i < j <= m."""
    if not 1 <= i < j <= m:
        raise ValueError("need 1 <= i < j <= m")
    prefix = f"embedded-twist({i},{j},{m}):"
    if _strong_verdict(J):
        return CheckResult(True, prefix + "twist-equation")
    return _dense_embedded_twist(J, i, j, m, prefix)


def twist_suite(J: KTensor, max_m: int = 3) -> list[CheckResult]:
    """All twist predicates on J plus every slot embedding up to max_m."""
    results = [
        is_twist(J),
        is_strong_twist(J),
        is_superstrong(J),
        antipode_conditions(J),
    ]
    for m in range(2, max_m + 1):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                results.append(embedded_twist(J, i, j, m))
    return results


def search_central_converse(n: int, count: int, seed: int) -> dict:
    """Randomized search related to an open implication between the twist
    equation and the strong-twist equation for central elements.

    Over B = K[Z_n] every element of B (x) B is central, so we sample random
    invertible elements and record which of the two conditions each one
    satisfies, read off its character table.  A sample passing the twist equation but failing the
    strong-twist equation would separate the conditions; none is claimed to
    exist and the search reports whatever it finds."""
    B = GroupAlgebra(n, 1)
    rng = random.Random(seed)
    tried = 0
    invertible = 0
    separating = []
    both, neither, strong_only = 0, 0, 0
    while tried < count:
        tried += 1
        terms = {}
        for i in range(n):
            for j in range(n):
                c = rng.randrange(-2, 3)
                if c:
                    terms[((i,), (j,))] = B.cyc.scalar(c)
        J = KTensor(B, 2, terms)
        try:
            V = character_table(J)
        except NotInvertibleError:
            continue
        invertible += 1
        twist_eq = _twist_holds(V)
        strong = _strong_holds(V)
        if twist_eq and not strong:
            separating.append(J.to_json())
        elif twist_eq and strong:
            both += 1
        elif strong:
            strong_only += 1
        else:
            neither += 1
    return {
        "n": n,
        "samples": tried,
        "invertible": invertible,
        "twist_and_strong": both,
        "strong_only": strong_only,
        "neither": neither,
        "separating_candidates": separating,
        "resolved": False,
    }
