"""Predicate suite for twist hypotheses on elements of B (x) B and their
slot embeddings into R (x) R.

B (x) B = K[Z_n x Z_n] is commutative, and evaluation at the n^2 character
pairs (chi_a, chi_b), chi_a(x) = q^a, is an isomorphism of algebras onto
K^(n x n) (the transform of group_ring is invertible).  So J is determined
by its character table V[a][b] = J(chi_a, chi_b), and every predicate here
is a pointwise identity of V: a twist is a normalized 2-cocycle on the dual
group, and strong is bicharacter (see character_table and the rules after
it).  The strong, embedded and superstrong predicates are decided on V
alone; a failure names the first failing tuple of characters with both
sides' values there, {"characters": [...], "lhs": ..., "rhs": ...}.
is_twist and antipode_conditions stay dense: they are cheap, and they are
the oracle of the table; a failure names the first mismatching basis tuple
with both coefficients, {"key": [...], "lhs": ..., "rhs": ...}.

Every predicate returns an AxiomReport holding its one check, whose name
and identity are the condition that failed, or the last one checked on a
pass.  Invertibility is a precondition of is_twist and of the strong and
embedded predicates, which raise NotInvertibleError rather than fail.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product as iproduct

from .errors import ContextMismatchError, NotInvertibleError
from .group_ring import GroupAlgebra, KTensor, character_values, check_tensor_invertible, tensor_inverse
from .hopf import AxiomReport


def _report(J: KTensor, passed: str, failure) -> AxiomReport:
    """The AxiomReport of one predicate on J: a pass named passed, or the
    failure (condition, witness)."""
    condition, witness = failure or (passed, None)
    report = AxiomReport(instance=f"J over {J.ring!r}")
    report.add(condition, condition, failure is None, witness)
    return report


def _compare(lhs: KTensor, rhs: KTensor, condition: str):
    """None if lhs == rhs, else (condition, witness) with the first
    mismatching basis tuple and both coefficients."""
    if lhs == rhs:
        return None
    zero = lhs.ring.cyc.zero
    for k in sorted(set(lhs.terms) | set(rhs.terms)):
        a = lhs.terms.get(k, zero)
        b = rhs.terms.get(k, zero)
        if a != b:
            return condition, {"key": [list(leg) for leg in k], "lhs": a.to_json(), "rhs": b.to_json()}
    raise AssertionError("unreachable: tensors differ but no witness found")


def _table_witness(failure, prefix: str = ""):
    """A rule's failure on V as (prefix + condition, witness), or None."""
    if failure is None:
        return None
    condition, characters, lhs, rhs = failure
    return prefix + condition, {"characters": list(characters), "lhs": lhs.to_json(), "rhs": rhs.to_json()}


# ---------------------------------------------------------------------------
# rules on the character table (indices mod n)
#
# Delta(x^i) = x^i (x) x^i, so (chi_a (x) chi_b) o Delta = chi_(a+b), and
# eps = chi_0.  Reading a tensor identity at characters therefore adds the
# indices of a duplicated leg, drops a counit leg at 0, and multiplies the
# values of a product; two tensors are equal iff they agree at every
# character.  Each rule returns None where it holds, and otherwise its first
# failure (condition, characters, lhs, rhs): the tuple of character indices
# and both sides' values there, built only when a rule fails.


def character_table(J: KTensor) -> list[list]:
    """V[a][b] = J(chi_a, chi_b) = sum_(i,j) c_ij q^(a i + b j), the rows of
    one transform over both axes (group_ring.character_values).  J need not
    be a unit: a non-unit has a zero value."""
    if J.ring.m != 1 or J.arity != 2:
        raise ContextMismatchError("a character table needs an arity-2 tensor over B")
    n = J.ring.n
    values = character_values(J.ring, {(i, j): c for ((i,), (j,)), c in J.terms.items()}, 2)
    return [values[a * n : (a + 1) * n] for a in range(n)]


def _unit_table(J: KTensor) -> list[list]:
    """character_table(J).  Raises NotInvertibleError unless J is a unit of
    B (x) B, that is unless no value is zero."""
    V = character_table(J)
    if any(v.is_zero() for row in V for v in row):
        raise NotInvertibleError("element is not a unit of the group algebra")
    return V


def _counit_failure(V: list):
    """(eps (x) id)(J) = 1 = (id (x) eps)(J): V[0][b] = 1 = V[a][0]."""
    one = V[0][0].ctx.one
    for b, v in enumerate(V[0]):
        if v != one:
            return "counit-left", (0, b), v, one
    for a, row in enumerate(V):
        if row[0] != one:
            return "counit-right", (a, 0), row[0], one
    return None


def _twist_failure(V: list):
    """is_twist: the counits, and (Delta (x) id)(J)(J (x) 1) =
    (id (x) Delta)(J)(1 (x) J) at (chi_a, chi_b, chi_c):
    V[a+b][c] V[a][b] = V[a][b+c] V[b][c] for all n^3 triples."""
    failure = _counit_failure(V)
    if failure is not None:
        return failure
    n = len(V)
    for a, b, c in iproduct(range(n), repeat=3):
        lhs = V[(a + b) % n][c] * V[a][b]
        rhs = V[a][(b + c) % n] * V[b][c]
        if lhs != rhs:
            return "twist-equation", (a, b, c), lhs, rhs
    return None


def _strong_failure(V: list):
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
    when an index is 0, so a <= b and c run from 1: 2n^3 products at most.
    A failure names the characters (a, b, b', c') of (S) with its sides."""
    failure = _counit_failure(V)
    if failure is not None:
        return failure
    n = len(V)
    for a in range(1, n):
        for b in range(a, n):
            for c in range(1, n):
                if V[(a + b) % n][c] != V[a][c] * V[b][c]:
                    return _s_failure(V, a, b, 0, c)
                if V[c][(a + b) % n] != V[c][a] * V[c][b]:
                    return _s_failure(V, c, 0, a, b)
    return None


def _s_failure(V: list, a: int, b: int, b2: int, c2: int):
    """(S) at (a, b, b2, c2), where it fails, as a twist-equation failure."""
    n = len(V)
    lhs = V[(a + b) % n][c2] * V[a][b2]
    rhs = V[a][(b2 + c2) % n] * V[b][c2]
    return "twist-equation", (a, b, b2, c2), lhs, rhs


def _superstrong_failure(V: list):
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
                row = V[(p1 + p3) % n]
                for p4 in r:
                    rhs = inner[p3] * outer[p1][p3][p4]
                    if row[(p2 + p4) % n] != rhs:
                        return "superstrong", (p1, p2, p3, p4), row[(p2 + p4) % n], rhs
    return None


@lru_cache(maxsize=4)
def _strong_verdict(J: KTensor):
    """_strong_failure on J's table, once per J: twist_suite asks it for the
    strong twist and again for every embedding up to max_m.  Raises
    NotInvertibleError unless J is a unit."""
    return _strong_failure(_unit_table(J))


def unit_tensor(ring: GroupAlgebra, arity: int) -> KTensor:
    z = ring.zero_exp
    return KTensor(ring, arity, {(z,) * arity: ring.cyc.one})


def is_twist(J: KTensor) -> AxiomReport:
    """The twist equation (Delta (x) id)(J)(J (x) 1) = (id (x) Delta)(J)(1 (x) J)
    together with both counit normalizations.  J must be invertible."""
    if J.arity != 2:
        raise ValueError("a twist is an element of R (x) R")
    check_tensor_invertible(J)  # raises NotInvertibleError on non-units
    one = unit_tensor(J.ring, 1)
    failure = _compare(J.counit_leg(0), one, "counit-left") or _compare(J.counit_leg(1), one, "counit-right")
    return _report(J, "twist-equation", failure or _compare(
        J.comultiply_leg(0) * J.unit_leg(2), J.comultiply_leg(1) * J.unit_leg(0), "twist-equation"))


def is_strong_twist(J: KTensor) -> AxiomReport:
    """(e_1^2 (x) e_2^2)(J) is a twist for B (x) B.  J must be invertible."""
    if J.ring.m != 1:
        raise ValueError("strong twist condition applies to twists over B")
    prefix = "strong-twist:"
    return _report(J, prefix + "twist-equation", _table_witness(_strong_verdict(J), prefix))


def is_superstrong(J: KTensor) -> AxiomReport:
    """Delta_{B(x)B}(J) = (e_1^2 (x) e_2^2)(J) (e_2^2 (x) e_1^2)(J) (J (x) J),
    as an exact equality of 4-fold tensors over B, decided on J's table for
    every J, unit or not: evaluation at the n^4 character quadruples is an
    algebra isomorphism K[Z_n^4] -> K^(n^4), so the two sides are equal iff
    their values agree at every quadruple (_superstrong_failure)."""
    if J.ring.m != 1:
        raise ValueError("superstrong condition applies to twists over B")
    return _report(J, "superstrong", _table_witness(_superstrong_failure(character_table(J))))


def antipode_conditions(J: KTensor) -> AxiomReport:
    """(S (x) S)(J) = J and (S (x) id)(J) = J^{-1} = (id (x) S)(J)."""
    if J.arity != 2:
        raise ValueError("expected an arity-2 tensor")
    J_inv = tensor_inverse(J)
    failure = _compare(J.antipode_leg(0).antipode_leg(1), J, "antipode:S(x)S")
    failure = failure or _compare(J.antipode_leg(0), J_inv, "antipode:S(x)id")
    return _report(J, "antipode:id(x)S", failure or _compare(J.antipode_leg(1), J_inv, "antipode:id(x)S"))


def embedded_twist(J: KTensor, i: int, j: int, m: int) -> AxiomReport:
    """(e_i^m (x) e_j^m)(J) is a twist for B^(tensor m), 1 <= i < j <= m.
    J must be invertible."""
    if not 1 <= i < j <= m:
        raise ValueError("need 1 <= i < j <= m")
    prefix = f"embedded-twist({i},{j},{m}):"
    return _report(J, prefix + "twist-equation", _table_witness(_strong_verdict(J), prefix))


def twist_suite(J: KTensor, max_m: int = 3) -> AxiomReport:
    """All twist predicates on J plus every slot embedding up to max_m, as
    one report."""
    parts = [is_twist(J), is_strong_twist(J), is_superstrong(J), antipode_conditions(J)]
    for m in range(2, max_m + 1):
        parts += [embedded_twist(J, i, j, m) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return AxiomReport(instance=f"J over {J.ring!r}").extend(*parts)


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
            V = _unit_table(J)
        except NotInvertibleError:
            continue
        invertible += 1
        twist_eq = _twist_failure(V) is None
        strong = _strong_failure(V) is None
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
