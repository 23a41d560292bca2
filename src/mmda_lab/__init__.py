"""Verification laboratory for max-min degree arborescence constructions:
labeled layered instances, their fractional relaxations, the shadow
distribution with exact conditional moments, integral-solution bounds,
and randomized rounding audits."""

__version__ = "0.1.0"

from .instances import (InstanceParams, LabeledInstance, build_config_lp_gap,
                        build_depth3_example, build_mmda,
                        build_subtree_counterexample, make_params)
from .scalars import Interval, Monomial, Scalar, compare_certified

__all__ = [
    "InstanceParams", "LabeledInstance", "build_config_lp_gap",
    "build_depth3_example", "build_mmda", "build_subtree_counterexample",
    "make_params",
    "Interval", "Monomial", "Scalar", "compare_certified",
    "__version__",
]
