"""Simple vector bundles on projective space from exterior-algebra modules.

Construct bundles of prescribed rank and homological dimension as cokernels
of linear complexes attached to quotients of truncated free modules over the
exterior algebra, and verify every claimed property with exact linear
algebra: faithfulness by a strand certificate of the reported anchor beside
a random point scan, and simplicity by the endomorphism dimension of its
anchoring system, all at its prime (over Q, mod one prime); rank by Euler
characteristics, homological dimension by certified cohomology vanishing.
"""

__version__ = "0.1.0"

from .fields import GF, QQ, FieldError, PrimeField, RationalField
from .matrix import (DenseMatrix, FieldMismatchError, MalformedSubspaceError,
                     ShapeError, Subspace)
from .extalg import basis_subsets, generator_action, left_mult_sign
from .emod import (GradedEModule, ModuleInvariantError, chi, free_truncated,
                   hom_space_dim, quotient_top)
from .anchor import (AnchoringSearchError, AnchorProblem, AnchorVerdict,
                     SliceTensor, annihilator, general_position_range,
                     is_anchoring, pair_solution_dim, sample_anchoring,
                     slices_from_subspace)
from .bgg import (FaithfulnessReport, LinearComplex, MatrixOfLinearForms,
                  bgg_complex, faithfulness_scan, projective_point_count)
from .sheafcoh import (CertificationError, CohomologyCalculator, CohomologyTable,
                       HdCertificate, certify_hd, cohomology_table, euler_line,
                       monomials, strand_map)
from .pipeline import (BundleReport, ConstructionParams, ParameterError,
                       RetryBudgetError, cas_script, choose_parameters,
                       construct, report_to_json, report_to_json_str, verify)

__all__ = [
    "GF", "QQ", "FieldError", "PrimeField", "RationalField",
    "DenseMatrix", "FieldMismatchError", "MalformedSubspaceError", "ShapeError",
    "Subspace",
    "basis_subsets", "generator_action", "left_mult_sign",
    "GradedEModule", "ModuleInvariantError", "chi", "free_truncated",
    "hom_space_dim", "quotient_top",
    "AnchoringSearchError", "AnchorProblem", "AnchorVerdict", "SliceTensor",
    "annihilator", "general_position_range", "is_anchoring",
    "pair_solution_dim", "sample_anchoring", "slices_from_subspace",
    "FaithfulnessReport", "LinearComplex", "MatrixOfLinearForms",
    "bgg_complex", "faithfulness_scan", "projective_point_count",
    "CertificationError", "CohomologyCalculator", "CohomologyTable",
    "HdCertificate", "certify_hd", "cohomology_table", "euler_line",
    "monomials", "strand_map",
    "BundleReport", "ConstructionParams", "ParameterError", "RetryBudgetError",
    "cas_script", "choose_parameters", "construct", "report_to_json",
    "report_to_json_str", "verify",
]
