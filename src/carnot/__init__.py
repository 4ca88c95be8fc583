"""Numerics for step-2 Carnot groups and intrinsic graphs.

Modules: group arithmetic and homogeneous norms (``group``), the
codimension-1 splitting with graphs and cones (``splitting``), intrinsic
derivatives and distributional residuals (``calculus``), characteristic
lines (``characteristics``), the graph area integral (``area``), the
mollification pipeline (``mollify``), constructive cone geometry
(``cones``), and the ``carnot`` CLI (``cli``).
"""

from .area import area_integral, subgraph_indicator, unit_normal
from .calculus import (
    TestFunction,
    distributional_residual,
    gradient_from_defining_function,
    intrinsic_derivative,
    intrinsic_gradient,
)
from .characteristics import (
    CharacteristicCurve,
    broadstar_residual,
    integrate_characteristic,
    lipschitz_along_curve,
    phi_along_curve_lipschitz_vs_intrinsic,
)
from .cones import beta_for_k, check_cone_containment, construct_eta_m2n1
from .errors import CarnotError, NumericalError, ValidationError
from .functions import Box, GraphFunction, VectorField
from .group import (
    GroupStructure,
    calibrate_epsilon,
    dilate,
    distance,
    homogeneous_norm,
    inverse,
    make_group,
    multiply,
    standard_group,
)
from .mollify import (
    MollifierKernel,
    approximation_report,
    horizontal_gradient_mollified,
    level_set_phi_alpha,
    mollified_indicator,
)
from .splitting import (
    Cone,
    cone_membership,
    estimate_intrinsic_lipschitz,
    graph_map,
    graph_quasidistance,
    project_splitting,
    sigma_form,
    translate_graph_function,
    vertical_holder_modulus,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CarnotError",
    "CharacteristicCurve",
    "Cone",
    "GraphFunction",
    "GroupStructure",
    "MollifierKernel",
    "NumericalError",
    "TestFunction",
    "ValidationError",
    "VectorField",
    "approximation_report",
    "area_integral",
    "beta_for_k",
    "broadstar_residual",
    "calibrate_epsilon",
    "check_cone_containment",
    "cone_membership",
    "construct_eta_m2n1",
    "dilate",
    "distance",
    "distributional_residual",
    "estimate_intrinsic_lipschitz",
    "gradient_from_defining_function",
    "graph_map",
    "graph_quasidistance",
    "homogeneous_norm",
    "horizontal_gradient_mollified",
    "integrate_characteristic",
    "intrinsic_derivative",
    "intrinsic_gradient",
    "inverse",
    "level_set_phi_alpha",
    "lipschitz_along_curve",
    "make_group",
    "mollified_indicator",
    "multiply",
    "phi_along_curve_lipschitz_vs_intrinsic",
    "project_splitting",
    "sigma_form",
    "standard_group",
    "subgraph_indicator",
    "translate_graph_function",
    "unit_normal",
    "vertical_holder_modulus",
]
