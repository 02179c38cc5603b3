"""Exact Fourier-algebra (Wiener) norms of subsets of F2^n.

Everything numerical is dyadic-rational and exact; floats appear only in
reported diagnostics (Chang ceilings, hypercontractive norms).
"""
from .dyadic import DyadicScalar, floor_log2_ratio
from .groups import DualSubspace, GroupDim, annihilator_basis, subspace_insert
from .fourier import (FunctionTable, Spectrum, a_norm, fwht, inverse_fwht,
                      l1_norm, l2_norm_sq, lp_norm)
from .setfuncs import (PointSet, ResidualTable, frac_quadratic_gap,
                       physical_lower_bound, residual, residual_l1,
                       set_a_norm, set_spectrum)
from .constructions import (CosetUnionWitness, DyadicDensity,
                            ExponentOverflow, ResolutionError,
                            build_coset_union, build_equality_case,
                            density_family)
from .chang import (DependentSet, LevelSet, NoQualifyingLevel, RieszProduct,
                    ZeroMass, beckner_verify, chang_cardinality_bound,
                    chang_span, level_sets, riesz_product, select_level)
from .iteration import (HypothesisReport, IterationTrace, StepResult,
                        Termination, ZeroResidual, hypothesis_check,
                        iterate_step, run_iteration)
from .explore import (AnnealParams, BudgetExceeded, SearchRecord,
                      min_norm_anneal, min_norm_exhaustive)

__version__ = "0.1.0"

__all__ = [
    "DyadicScalar", "floor_log2_ratio",
    "GroupDim", "DualSubspace", "subspace_insert", "annihilator_basis",
    "FunctionTable", "Spectrum", "fwht", "inverse_fwht", "a_norm",
    "l1_norm", "l2_norm_sq", "lp_norm",
    "PointSet", "ResidualTable", "residual", "residual_l1",
    "physical_lower_bound", "frac_quadratic_gap", "set_a_norm",
    "set_spectrum",
    "DyadicDensity", "density_family", "CosetUnionWitness",
    "build_coset_union", "build_equality_case",
    "ExponentOverflow", "ResolutionError",
    "LevelSet", "level_sets", "select_level", "chang_span",
    "chang_cardinality_bound", "RieszProduct", "riesz_product",
    "beckner_verify", "ZeroMass", "NoQualifyingLevel", "DependentSet",
    "StepResult", "IterationTrace", "Termination", "ZeroResidual",
    "iterate_step", "run_iteration", "HypothesisReport", "hypothesis_check",
    "SearchRecord", "AnnealParams", "BudgetExceeded",
    "min_norm_exhaustive", "min_norm_anneal",
    "__version__",
]
