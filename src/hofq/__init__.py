"""Nested-recurrence sequence toolkit.

Exact traces of q(n) = q(n - q(n-1)) + f(n) and Hofstadter-style two-lookup
recursions, a catalog of driving sequences f, exhaustive enumeration of the
attained-value triangle, closed-form verifiers, and dynamics analysis.
"""

from .engine import (
    ExistenceOutcome,
    QTrace,
    TwoTermSpec,
    compute_c,
    compute_f_from_q,
    compute_q,
    compute_q_batch,
    compute_two_term,
    hofstadter_spec,
    quasipolynomial_spec,
    tanny_spec,
    v_variant_spec,
)
from .errors import CapExceeded, InvalidFSpec, InvalidQ, SequenceDied
from .fspec import (
    ConstLimit,
    DiffBits,
    FloorRatio,
    FracPowerSum,
    FSpec,
    GammaSq,
    Linear,
    ModM,
    OneMinusDelta,
    Perturbed,
    Prefix,
    Shifted,
    Zeros,
    as_fspec,
    enumerate_slow_prefixes,
    floor_alpha_interval,
    parse_fspec,
    shift_f,
)
from .kernels import BACKEND
from .triangle import (
    ContainmentReport,
    MinReport,
    TriangleTable,
    build_triangle,
    check_containment,
    check_min,
    envelope,
    min_witness_prefix,
)
from .verify import REGISTRY as VERIFIERS
from .verify import VerifierResult, run_suite
from .analysis import (
    ApproximationReport,
    ConstLimitModel,
    PerturbationTrace,
    PowerAnsatzModel,
    SimilarityMatch,
    SqrtAlphaModel,
    approx_error,
    export_figure_data,
    perturb_compare,
    propose_shifts,
    scan_self_similarity,
)

__version__ = "0.1.0"
