"""Point-equivalence tests for Painleve I, II and III with three zero
parameters, with explicit changes of variables built from differential
invariants.

``painleq.classify`` is the submodule; the classifier itself is
``painleq.classify.classify``."""

from .exprkernel import (DEFAULT_SEED, X, Y, P, ZeroVerdict, evaluate_numeric,
                         is_identically_zero, normalize)
from .parsing import (OdeCubic, parse_expression, extract_cubic_coefficients,
                      to_grammar)
from .invariants import InvariantPipeline, Pseudo, WEIGHTS
from .classify import (Classification, InvariantReport, check_painleve1,
                       check_painleve2, check_painleve3zero)
from .transform import (PointMap, map_painleve1, map_painleve2, pullback_ode,
                        verify_map)
from . import canonical, classify

__all__ = [
    "DEFAULT_SEED", "X", "Y", "P", "ZeroVerdict",
    "evaluate_numeric", "is_identically_zero", "normalize",
    "OdeCubic", "parse_expression", "extract_cubic_coefficients", "to_grammar",
    "InvariantPipeline", "Pseudo", "WEIGHTS",
    "Classification", "InvariantReport", "check_painleve1", "check_painleve2",
    "check_painleve3zero",
    "PointMap", "map_painleve1", "map_painleve2", "pullback_ode", "verify_map",
    "canonical", "classify",
]

__version__ = "0.1.0"
