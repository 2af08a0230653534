"""Verification and exploration toolkit for spacefilling brane structures
on symplectic 4-manifolds."""

from .brane_check import (
    BraneReport,
    HolSympReport,
    brane_of_complex_structure,
    deformation_residuals,
    equivalence_check,
    linearized_deformation_check,
    verify_brane,
    verify_holomorphic_symplectic,
)
from .cohomology import (
    CohClass,
    IntersectionSpace,
    class_of_constant_form,
    constant_form_of_class,
    indefinite_gram_schmidt,
    k3_space,
    signature,
    torus_space,
)
from .exterior4 import (
    Form1,
    Form2,
    Form4,
    LinearMap4,
    compose_i,
    interior,
    is_almost_complex,
    type_projectors,
    wedge22,
)
from .period_domain import (
    AffineNormalForm,
    MetricSample,
    QuadricChart,
    QuadricSpec,
    affine_normal_form,
    build_chart,
    chart_point,
    deformation_residual,
    hodge_splitting,
    metric_at,
    metric_sweep,
    quadric_contains,
    reconstruct_brane,
    scalar_with_imaginary_part,
    torus_quadric_alt_value,
    torus_quadric_coefficients,
    torus_quadric_residuals,
)
from .torus_forms import (
    TrigPolyFn,
    TrigPolyForm1,
    TrigPolyForm2,
    TrigPolyForm3,
    eval_at,
    exterior_d,
    integrability_identity_residual,
    integrate,
    nijenhuis_defect,
    rotation_family,
    standard_brane,
    standard_kahler,
    standard_symplectic,
    uniform_grid,
    wedge_density,
)

__version__ = "0.1.0"
