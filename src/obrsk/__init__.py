"""Bounded RSK on notched bitableaux and Pfaffian initial ideals.

Exact (integer / rational) combinatorics: chains of plane points and
duality maps, the counting order on rows of bitableaux, notched
skew-symmetric bitableaux, skew pairs of two-row arrays, the bounded RSK
correspondence and its inverse, chain combinatorics on the grid attached to
a fixed d-subset beta, and the Pfaffian generators whose leading terms are
certified against chain monomials degree by degree.
"""

from types import ModuleType as _ModuleType

from .tableaux import (
    NotchedBitableau,
    SignKind,
    classify_sign,
    validate_semistandard,
    validate_skew_symmetric,
)
from .arrays import SkewPair, psi_inv, validate_skew_pair
from .correspondence import forward_step, obrsk, obrsk_inverse, obrsk_negative_steps, robrsk, undo_step
from .grassmannian import (
    IdElement,
    defining_chains,
    enumerate_extended_chains,
    enumerate_id,
    hash_reflect,
    id_leq,
    is_quotient_monomial,
    roots_of,
    split_chain,
    w_of_chain,
)
from .polynomials import SparsePoly, TermOrder, term_order
from .ideal import (
    generators,
    hilbert_counts,
    chains_monomials_degree,
    pfaffian_generator,
    standard_monomials,
    verify_main_theorem,
)

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
