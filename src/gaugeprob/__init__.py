"""gaugeprob: gauge (Kurzweil-Henstock) integration, deterministic and in
probability over finite discrete spaces, with convergence certificates."""

from .errors import (
    EvaluationError,
    GaugeProbError,
    InvalidGaugeError,
    NonConvergenceError,
    PartitionDepthError,
    ScenarioError,
    SpaceMismatchError,
)
from .gauges import (
    Gauge,
    GaugeFamily,
    Interval,
    constant_gauge,
    delta_from_gauge,
    gauge_from_delta,
    gauge_intersection,
    intersect_families,
    scaled_uniform_family,
    uniform_gauge_family,
)
from .partitions import TaggedDivision, cousin_partition, is_fine, is_sharp
from .probability import (
    DiscreteProbabilitySpace,
    RandomVariable,
    almost_surely_equal,
    deviation_probability,
    expectation,
    moment,
    prob_event,
)
from .quadrature import (
    QuadratureResult,
    ScalarIntegrand,
    kh_integrate,
    kh_levels,
    resolve_gauge_family,
    riemann_sum_scalar,
)
from .random_functions import (
    PathwiseRandomFunction,
    SeparableRandomFunction,
    as_pathwise,
    expectation_function,
)
from .sampling import sample_coefficients, sample_space, sample_values
from .stochastic import (
    CertificateRow,
    DerivativeReport,
    FtcReport,
    FubiniReport,
    StochasticIntegralResult,
    UniquenessReport,
    derivative_in_probability_at,
    fubini_check,
    ftc_experiment,
    integrate_pathwise,
    integrate_riemann_in_probability,
    integrate_separable,
    random_riemann_sum,
    verify_uniqueness,
)

__version__ = "0.1.0"
