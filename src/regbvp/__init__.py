"""Regularity analysis of two-point ordinary differential boundary value
problems: classification from boundary-row determinants, quadratic-form
splittings, and numerical verification through kernel/resolvent decay,
eigenvalue localization, and numerical-range geometry."""

from . import gallery
from .birkhoff import RegularityVerdict, classify_regularity
from .geometry import critical_rays, is_rare, omega_sectors, ray_clearance
from .model import (
    BoundaryRow,
    ClassicalForm,
    DivergenceForm,
    ModelForm,
    OperatorSpec,
    Poly,
    RankError,
    SpecError,
    as_divergence,
    expand_divergence,
    load_spec,
    operator_coefficients,
    parse_spec,
    spec_to_document,
)
from .normalize import NormalizedBC, reduce_total_order
from .numrange import HalfPlaneReport, half_plane_verdict, support_profiles
from .quasiform import (
    CompleteRegularityReport,
    check_completely_regular,
    verify_form_identity,
)
from .spectral import (
    EigenRoot,
    SpectralScan,
    bracket_groups,
    distinct_eigenvalues,
    find_roots,
    gram_condition,
    green_kernel,
    green_sup_scan,
    resolvent_norm,
    resolvent_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryRow",
    "ClassicalForm",
    "CompleteRegularityReport",
    "DivergenceForm",
    "EigenRoot",
    "HalfPlaneReport",
    "ModelForm",
    "NormalizedBC",
    "OperatorSpec",
    "Poly",
    "RankError",
    "RegularityVerdict",
    "SpecError",
    "SpectralScan",
    "as_divergence",
    "bracket_groups",
    "check_completely_regular",
    "classify_regularity",
    "critical_rays",
    "distinct_eigenvalues",
    "expand_divergence",
    "find_roots",
    "gallery",
    "gram_condition",
    "green_kernel",
    "green_sup_scan",
    "half_plane_verdict",
    "is_rare",
    "load_spec",
    "omega_sectors",
    "operator_coefficients",
    "parse_spec",
    "ray_clearance",
    "reduce_total_order",
    "resolvent_norm",
    "resolvent_scan",
    "spec_to_document",
    "support_profiles",
    "verify_form_identity",
    "__version__",
]
