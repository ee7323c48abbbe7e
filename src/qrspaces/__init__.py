"""Function-space norm scales on the unit disk and conjugate-type stability
checks for harmonic quasiregular mappings."""

from .errors import (
    AccuracyError,
    HypothesisViolationError,
    InfiniteConstantError,
    InvalidParameterError,
    NonQuasiregularError,
    PoleError,
    QrspacesError,
    SingularityError,
)
from .mobius import DiskPoint, MobiusMap, green, one_minus_sigma_sq, sigma, sigma_derivatives
from .analytic import (
    AnalyticFn,
    RationalLog,
    antiderivative,
    cayley_half,
    combine,
    compose_mobius,
    constant,
    derivative,
    identity,
    koebe,
    poly,
    power_series,
)
from .harmonic import (
    HarmonicMap,
    QrParams,
    SampleGrid,
    WirtingerData,
    analytic_as_harmonic,
    angular_radial,
    conjugate_parts,
    estimate_quasiregularity,
    imag_part_map,
    pointwise_conjugate_bound,
    real_part_map,
    wirtinger,
)
from .quadrature import (
    IntegralResult,
    QuadratureGrid,
    build_grid,
    disk_integral_alpha,
    disk_integral_green,
    disk_integral_mobius_weight,
)
from .spaces import (
    BergmanMorrey,
    BlochAlpha,
    Fpqs,
    Morrey,
    Mpqs,
    NormResult,
    Qnpa,
    Qs,
    SupSearchSpec,
    fh_pqs_norm,
    m_pqs_norm,
    morrey_constant,
    q_npa_norm,
    qh_npa_norm,
    qs_constant,
    sigma_deriv_constant,
    specialized_norm,
    weight_overlap_constant,
)
from .families import (
    GrowthFit,
    OrderModel,
    ShearSpec,
    affine_extremal,
    cayley_shear,
    from_dilatation,
    growth_exponent,
    kkprime_example,
    koebe_shear,
    shear,
)
from .verify import (
    RangeCheck,
    RatioReport,
    VerificationReport,
    check_conjugate_bound_fh,
    check_conjugate_bound_qh,
    check_inhomogeneous_bound_fh,
    check_inhomogeneous_bound_qh,
    equivalence_ratio,
    membership_range,
    verify_corollary,
    verify_membership,
)

__version__ = "0.1.0"
