"""Predicate suite for twist hypotheses on elements of B (x) B and their
slot embeddings into R (x) R.

All predicates return a CheckResult carrying the first mismatching basis
tuple with both coefficients on failure, so exact-arithmetic regressions
are debuggable.  Invertibility is a precondition of is_twist and raises
NotInvertibleError rather than returning False.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .group_ring import (
    GroupAlgebra,
    KTensor,
    check_tensor_invertible,
    embed_pair,
    tensor_inverse,
)
from .errors import NotInvertibleError


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


def _embedded_is_twist(J: KTensor, i: int, j: int, m: int, prefix: str) -> CheckResult:
    """is_twist of (e_i^m (x) e_j^m)(J), with the condition name prefixed."""
    res = is_twist(embed_pair(J, i, j, GroupAlgebra(J.ring.n, m)))
    return CheckResult(res.ok, prefix + res.condition, res.witness)


def is_strong_twist(J: KTensor) -> CheckResult:
    """(e_1^2 (x) e_2^2)(J) is a twist for B (x) B."""
    if J.ring.m != 1:
        raise ValueError("strong twist condition applies to twists over B")
    return _embedded_is_twist(J, 1, 2, 2, "strong-twist:")


def is_superstrong(J: KTensor) -> CheckResult:
    """Delta_{B(x)B}(J) = (e_1^2 (x) e_2^2)(J) (e_2^2 (x) e_1^2)(J) (J (x) J),
    as an exact equality of 4-fold tensors over B."""
    if J.ring.m != 1:
        raise ValueError("superstrong condition applies to twists over B")
    # Delta_{B(x)B} duplicates the pair (i, j) diagonally: (i, j, i, j)
    lhs = KTensor(J.ring, 4, {(k[0], k[1], k[0], k[1]): c for k, c in J.terms.items()})
    e12 = J.unit_leg(1).unit_leg(1)
    e21 = J.unit_leg(0).unit_leg(3)
    # J (x) J first keeps every intermediate at n^4 keys: 2 n^6 scalar products
    rhs = J.tensor(J) * e12 * e21
    return _compare(lhs, rhs, "superstrong")


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
    return _embedded_is_twist(J, i, j, m, f"embedded-twist({i},{j},{m}):")


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
    satisfies.  A sample passing the twist equation but failing the
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
            twist_eq = is_twist(J).ok
        except NotInvertibleError:
            continue
        invertible += 1
        strong = bool(is_strong_twist(J))
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
