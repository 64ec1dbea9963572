"""Exact tau-functions, difference relations, and orthogonal polynomials
from moment sequences."""

from .errors import (DegenerateTauError, MomentParseError, ResourceBoundError,
                     SupportError, TauqError, UsageError)
from .factorization import (connection_matrices_gl2, evaluate_shifted,
                            g_minus_gl2, g_minus_gl3, induction_replay,
                            scalar_compatibility, tail_series,
                            verify_zero_curvature, window_matrix_gl2,
                            window_matrix_gl3, zero_curvature_check)
from .moments import MomentSequence, build_moments, serialize
from .orthopoly import (HankelForm, MonicPolynomial, bordered_tau_poly,
                        form_eval, monic_op, mop_bordered_poly, mop_type2,
                        recurrence_coeffs, recurrence_reconstruct,
                        verify_mop, verify_orthogonality)
from .report import Check, Skip, VerificationReport
from .rings import (LaurentMatrix, LaurentPoly, MomentPoly, MomentSymbol,
                    RingFraction, det, det_bareiss)
from .tau_gl2 import (fill_grid_recurrence, qsystem_residual, tau_det,
                      verify_qsystem)
from .tau_gl3 import (KernelSpec, TauTable, kernel_specs, tau3_det,
                      tau3_e0_det, tau3_residue, verify_gl3_relations)

__version__ = "0.1.0"

__all__ = [
    "Check", "DegenerateTauError", "HankelForm",
    "KernelSpec", "LaurentMatrix", "LaurentPoly", "MomentParseError",
    "MomentPoly", "MomentSequence", "MomentSymbol", "MonicPolynomial",
    "ResourceBoundError", "RingFraction", "Skip", "SupportError",
    "TauTable", "TauqError", "UsageError",
    "VerificationReport", "bordered_tau_poly",
    "build_moments", "connection_matrices_gl2", "det", "det_bareiss",
    "evaluate_shifted", "fill_grid_recurrence", "form_eval", "g_minus_gl2",
    "g_minus_gl3", "induction_replay", "kernel_specs", "monic_op",
    "mop_bordered_poly", "mop_type2", "qsystem_residual", "recurrence_coeffs",
    "recurrence_reconstruct", "scalar_compatibility", "serialize",
    "tail_series", "tau3_det", "tau3_e0_det", "tau3_residue",
    "tau_det", "verify_gl3_relations", "verify_mop",
    "verify_orthogonality", "verify_qsystem", "verify_zero_curvature",
    "window_matrix_gl2", "window_matrix_gl3", "zero_curvature_check",
]
