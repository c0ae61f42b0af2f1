"""Oriented-line geometry on the tangent bundle of the sphere.

Submodules
----------
wirtinger   exact polynomial fields in (xi, xibar), winding numbers
linespace   oriented lines, the tensors J / Omega / G
sections    support functions and Lagrangian graph sections
cpoints     complex-point detection, classification and indices
blowup      totally real cross-cap constructions and certification
euclid      reconstruction in Euclidean 3-space, umbilics, ruled surfaces, export
ledger      index-sum bookkeeping and connect-sum arithmetic
verify      the claims regression suite behind ``crosscap verify-paper``
"""

from .wirtinger import (
    Loop,
    MonomialField,
    RationalField,
    winding_number,
    winding_of,
)
from .linespace import (
    LineVectors,
    OrientedLine,
    TangentVec,
    apply_j,
    direction_vector,
    line_to_vectors,
    metric_g,
    omega,
    vectors_to_line,
)
from .sections import (
    SectionGraph,
    SupportFunction,
    boundary_winding,
    lagrangian_defect,
    radial_support_value,
    section_from_support,
    support_from_section,
    totally_real_defect,
)
from .cpoints import (
    ComplexPointReport,
    ParamPiece,
    ParamSurface,
    find_complex_points,
    quadratic_model_index,
    section_complex_index,
    surface_defect,
)
from .blowup import (
    C1CrossCapParams,
    build_c1_crosscap,
    build_c2_crosscap,
    c1_matching_constants,
    c2_constants,
    certify_totally_real,
    derive_reality_polynomial,
    g_critical_report,
    seam_report,
    simple_crosscap_surface,
)
from .euclid import (
    MeshR3,
    export_csv,
    export_obj,
    line_distance,
    point_from_line,
    principal_analysis,
    reconstruct_surface,
    ruled_family,
    support_property_check,
    translate_line,
)
from .ledger import TopLedger, connect_sum_rp2, lai_sum, reformulation_scenario

__version__ = "0.1.0"
