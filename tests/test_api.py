"""The package's public surface: the exported names are exactly the pinned
ones, each exists exactly once, and the README's library example runs
against them."""

from __future__ import annotations

import re
from pathlib import Path

import detmatroid


def test_all_names_are_unique_and_resolve():
    names = detmatroid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(detmatroid, name)]
    assert missing == []
    namespace: dict = {}
    exec("from detmatroid import *", namespace)
    assert set(names) <= set(namespace)


# every public name, so that adding or removing one is a visible test edit
PUBLIC_NAMES = [
    "CapacityError", "CensusReport", "CensusRow", "ContractError",
    "CrosscheckReport", "DEFAULT_PRIME", "DetmatroidError", "GenericityError",
    "OracleVerdict", "ParseError", "PartitionCertificate", "PrimeField",
    "Rationals", "RelaxedParams", "Slmf", "SupportPattern",
    "ViolationWitness", "canonical_form", "certificate_from_groups",
    "certify", "classify_pattern", "complete_matrix",
    "contains_full_bipartite", "derive_seed", "emit_pattern", "enumerate_patterns", "is_base", "is_relaxed_slmf",
    "is_slmf", "is_spanning_tree", "jacobian_rank", "known_facts_crosscheck",
    "parse_certificate", "parse_pattern", "partition_search", "prev_prime",
    "reduce_pattern", "transpose", "validate_certificate",
    "verify_conjecture",
]


def test_public_names_are_pinned():
    assert sorted(detmatroid.__all__) == PUBLIC_NAMES


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
