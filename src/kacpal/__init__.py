"""Exact computer algebra for the generalized Kac-Paljutkin Hopf algebras
H_{n,m} = K[Z_n]^(tensor m) #_gamma Sigma_m and their module algebras."""

__version__ = "0.1.0"

from .cyclotomic import CycContext, CycScalar, cyclotomic_polynomial, euler_phi
from .group_ring import (
    GroupAlgebra,
    KTensor,
    RingElem,
    antipode_ring,
    canonical_twist,
    delta_ring,
    embed,
    embed_pair,
    eps_ring,
    idempotent,
    ring_inverse,
    sigma,
    t_inv_of,
    t_of,
    tensor_inverse,
    twist_Js,
)
from .symmetric import Perm, all_perms, canonical_word, cycle_perm, eval_word
from .cocycle import WordCalculus, reference_cocycle_table_m3
from .twists import (
    antipode_conditions,
    embedded_twist,
    is_strong_twist,
    is_superstrong,
    is_twist,
)
from .hopf import HopfAlgebra, HopfElem, HTensor, embedding_check, embedding_map
from .reps import (
    Rep,
    RepParams,
    det_M,
    inner_faithful_bruteforce,
    inner_faithful_criterion,
    is_simple,
    modules_isomorphic,
    verify_rep,
)
from .quantum_poly import QpaElem, QuantumPolyAlgebra, monomials_of_degree

__all__ = [
    "CycContext",
    "CycScalar",
    "cyclotomic_polynomial",
    "euler_phi",
    "GroupAlgebra",
    "RingElem",
    "KTensor",
    "antipode_ring",
    "canonical_twist",
    "delta_ring",
    "embed",
    "embed_pair",
    "eps_ring",
    "idempotent",
    "ring_inverse",
    "sigma",
    "t_of",
    "t_inv_of",
    "tensor_inverse",
    "twist_Js",
    "Perm",
    "all_perms",
    "canonical_word",
    "cycle_perm",
    "eval_word",
    "WordCalculus",
    "reference_cocycle_table_m3",
    "is_twist",
    "is_strong_twist",
    "is_superstrong",
    "antipode_conditions",
    "embedded_twist",
    "HopfAlgebra",
    "HopfElem",
    "HTensor",
    "embedding_check",
    "embedding_map",
    "Rep",
    "RepParams",
    "verify_rep",
    "is_simple",
    "modules_isomorphic",
    "det_M",
    "inner_faithful_criterion",
    "inner_faithful_bruteforce",
    "QuantumPolyAlgebra",
    "QpaElem",
    "monomials_of_degree",
]
