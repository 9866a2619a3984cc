"""Dense oracles for kacpal.twists, whose strong, embedded and superstrong
predicates read J's character table: the same identities as products of
tensors over B^(x)m."""

from kacpal.group_ring import GroupAlgebra, KTensor, embed_pair
from kacpal.twists import is_twist


def dense_embedded_twist(J, i, j, m):
    """The report of is_twist on (e_i^m (x) e_j^m)(J) over B^(x)m."""
    return is_twist(embed_pair(J, i, j, GroupAlgebra(J.ring.n, m)))


def dense_superstrong(J) -> bool:
    """Delta_{B(x)B}(J) = (e_1 (x) e_2)(J) (e_2 (x) e_1)(J) (J (x) J) as
    4-fold tensors over B."""
    # Delta_{B(x)B} duplicates the pair (i, j) diagonally: (i, j, i, j)
    lhs = KTensor(J.ring, 4, {(k[0], k[1], k[0], k[1]): c for k, c in J.terms.items()})
    e12 = J.unit_leg(1).unit_leg(1)
    e21 = J.unit_leg(0).unit_leg(3)
    JJ = KTensor(J.ring, 4, {ka + kb: ca * cb for ka, ca in J.terms.items() for kb, cb in J.terms.items()})
    return lhs == JJ * e12 * e21
