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
errors      the exception types every submodule raises

``import crosscap`` loads none of them.  The names re-exported here (listed
in ``__all__``) and the submodules themselves resolve on first access, so a
caller, the command line included, pays only for the modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "wirtinger": ("Loop", "MonomialField", "RationalField", "winding_of"),
    "linespace": (
        "LineVectors",
        "OrientedLine",
        "TangentVec",
        "apply_j",
        "direction_vector",
        "line_to_vectors",
        "metric_g",
        "omega",
        "vectors_to_line",
    ),
    "sections": (
        "SectionGraph",
        "SupportFunction",
        "boundary_winding",
        "lagrangian_defect",
        "radial_support_value",
        "section_from_support",
        "support_from_section",
        "totally_real_defect",
    ),
    "cpoints": (
        "ComplexPointReport",
        "ParamPiece",
        "ParamSurface",
        "find_complex_points",
        "quadratic_model_index",
        "section_complex_index",
        "surface_defect",
    ),
    "blowup": (
        "C1CrossCapParams",
        "build_c1_crosscap",
        "build_c2_crosscap",
        "c1_matching_constants",
        "c2_constants",
        "certify_totally_real",
        "derive_reality_polynomial",
        "g_critical_report",
        "seam_report",
        "simple_crosscap_surface",
    ),
    "euclid": (
        "MeshR3",
        "export_csv",
        "export_obj",
        "line_distance",
        "point_from_line",
        "principal_analysis",
        "reconstruct_surface",
        "ruled_family",
        "support_property_check",
        "translate_line",
    ),
    "ledger": ("TopLedger", "connect_sum_rp2", "lai_sum", "reformulation_scenario"),
    "verify": (),
    "errors": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    """Import a submodule, or the submodule behind a re-exported name, on first access."""
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin import (unlike importlib's) is what ``python -X importtime`` logs;
    # it binds the submodule in globals()
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SOURCE))
