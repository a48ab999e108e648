"""Subsystem codes from classical additive codes over finite fields.

Build a gauge code C <= F_q^{2n}, derive its subsystem code parameters
((n, K, R, d))_q, trade dimensions between subsystem and co-subsystem,
extend or combine codes, check Singleton/Hamming bounds, and reproduce
the catalog of optimal pure MDS subsystem codes.
"""

from .bounds import BoundReport, hamming_check, singleton_check
from .codes import (DEFAULT_THRESHOLD, AdditiveCode, ClassicalCode,
                    EnumerationLimitError, dual_symp, intersect, min_swt,
                    min_swt_coset, swt_distribution)
from .gf import FieldSpec, TowerSpec, conway_polynomial
from .known import bacon_shor_code, five_qubit_code
from .rs import evaluation_code, hermitian_self_orthogonal_rs
from .rules import (MdsFamilySpec, RuleResult, classical_modify,
                    combine_disjoint, combine_nested, extend_length, grow_k,
                    hermitian_to_symplectic, mds_family, shorten_length,
                    shrink_k, stabilizer_to_subsystem,
                    subsystem_to_stabilizer)
from .subsystem import (DEFAULT_POLICY, ParamRecord, Policy, PurityError,
                        SubsystemCode, analysis_report, bracket_params, derive)
from .symplectic import (HyperbolicDecomposition,
                         extend_to_full_symplectic_basis,
                         hyperbolic_decompose)
from .table1 import Table1Row, generate_table

__version__ = "0.1.0"

__all__ = [
    "AdditiveCode", "ClassicalCode", "FieldSpec", "TowerSpec",
    "conway_polynomial",
    "SubsystemCode", "ParamRecord", "PurityError", "RuleResult",
    "MdsFamilySpec", "BoundReport", "HyperbolicDecomposition",
    "Table1Row", "EnumerationLimitError",
    "DEFAULT_THRESHOLD", "Policy", "DEFAULT_POLICY",
    "derive", "bracket_params", "analysis_report", "dual_symp", "intersect",
    "min_swt", "min_swt_coset", "swt_distribution",
    "hyperbolic_decompose", "extend_to_full_symplectic_basis",
    "shrink_k", "grow_k", "stabilizer_to_subsystem",
    "subsystem_to_stabilizer", "extend_length", "shorten_length",
    "combine_disjoint", "combine_nested", "hermitian_to_symplectic",
    "mds_family", "classical_modify", "evaluation_code",
    "hermitian_self_orthogonal_rs", "singleton_check", "hamming_check",
    "generate_table", "five_qubit_code", "bacon_shor_code",
]
