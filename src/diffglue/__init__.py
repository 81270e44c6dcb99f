"""Glued-space calculus for cotangent-like pseudo-bundles.

Euclidean blocks glued along a diffeomorphism; fibres, pseudo-metrics,
connections, and Levi-Civita solvers on the glued bundle; sampled
verification suites with a scenario-driven CLI.
"""

from .errors import (DiffglueError, DimensionMismatch, HypothesisNotAsserted,
                     IncompatibleConnections, IncompatibleMetrics,
                     IncompatiblePair, IncompatibleSections, LocusOutsideBlock,
                     ModesDisagree, NotADiffeomorphism,
                     NotAFunctionOnGluedSpace, OutsideDomain, ParseError,
                     RankAmbiguous, SingularGram, ValidationError)
from .numerics import DiffConfig, DiffEngine, DualScalar, SamplePlan
from .space import (EuclideanBlock, GluedPoint, GluedSpace, GluingMap,
                    HypothesisFlags, OpenSubdomainLocus, PointSetLocus,
                    SubmanifoldLocus, build_glued_space, classify_point)
from .forms import (BlockForm, FibreElement, FibreModel, GluedFunction,
                    LambdaSection, assemble_section, compute_fibre,
                    differential_block, differential_glued, pullback, rho1,
                    rho2, rho_pair_inverse)
from .metric import (BlockMetric, GluedMetric, check_metrics_compatible,
                     constant_metric, eval_block_metric, glue_metrics)
from .connection import (BlockConnection, DualSection, GluedConnection, action,
                         apply_block, check_connections_compatible,
                         christoffel_closed_form, covariant_derivative,
                         glue_connections, koszul_solve, lie_bracket_forms,
                         torsion, zero_connection)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
