"""Combinatorics of coordinate projections of bounded-rank matrices.

Decide whether a support pattern is independent or a base in the algebraic
matroid of m x n matrices of rank at most r, certify positive answers with
partition certificates, cross-check with a randomized Jacobian rank oracle,
and uniquely complete observed entries in the certified regime.
"""

from .census import (CensusReport, CensusRow, CrosscheckReport, canonical_form,
                     certify, classify_pattern, contains_full_bipartite,
                     enumerate_patterns, is_spanning_tree,
                     known_facts_crosscheck, verify_conjecture)
from .errors import (CapacityError, ContractError, DetmatroidError,
                     GenericityError, ParseError)
from .fields import DEFAULT_PRIME, PrimeField, Rationals, prev_prime
from .grassmann import complete_matrix
from .oracle import OracleVerdict, is_base, jacobian_rank
from .partition import (PartitionCertificate, certificate_from_groups,
                        parse_certificate, partition_search,
                        validate_certificate)
from .patterns import (Slmf, SupportPattern, emit_pattern, parse_pattern,
                       reduce_pattern, transpose)
from .seeding import derive_seed
from .slmf import RelaxedParams, ViolationWitness, is_relaxed_slmf, is_slmf

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CensusReport",
    "CensusRow",
    "ContractError",
    "CrosscheckReport",
    "DEFAULT_PRIME",
    "DetmatroidError",
    "GenericityError",
    "OracleVerdict",
    "ParseError",
    "PartitionCertificate",
    "PrimeField",
    "Rationals",
    "RelaxedParams",
    "Slmf",
    "SupportPattern",
    "ViolationWitness",
    "canonical_form",
    "certificate_from_groups",
    "certify",
    "classify_pattern",
    "complete_matrix",
    "contains_full_bipartite",
    "derive_seed",
    "emit_pattern",
    "enumerate_patterns",
    "is_base",
    "is_relaxed_slmf",
    "is_slmf",
    "is_spanning_tree",
    "jacobian_rank",
    "known_facts_crosscheck",
    "parse_certificate",
    "parse_pattern",
    "partition_search",
    "prev_prime",
    "reduce_pattern",
    "transpose",
    "validate_certificate",
    "verify_conjecture",
]
