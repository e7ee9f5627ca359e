"""Exact polyhedral horofunction compactifications.

Polar-dual polytopes over the rationals, asymmetric polyhedral norms and
their horofunction boundaries, and Weyl orbit weight polytopes with the
unit balls they induce.  Everything exported here is exact.

The floating-point model of the corresponding symmetric-space flats is
horopoly.flatspace, the one module that uses numpy.  Import it from there;
neither this package nor the exact command line verbs load it.
"""

from .errors import (
    DimensionMismatch,
    EmptyInput,
    InputError,
    NotAFace,
    OriginNotInterior,
    PreconditionError,
)
from .horoboundary import (
    Horofunction,
    SequenceSample,
    almost_geodesic_check,
    chain_check,
    convexity_midpoint_test,
    enumerate_strata,
    evaluate,
    horofunction_to_json,
    horofunctions_equal,
    limit_of_ray,
    make_horofunction,
    psi,
)
from .norm import PolyhedralNorm, distance, gauge, polyhedral_norm, pseudo_norm
from .polytope import (
    Face,
    Halfspace,
    Polytope,
    convex_hull,
    dual_face,
    f_vector,
    face_lattice,
    face_of,
    negate,
    polar_dual,
    polytope_from_json,
    polytope_to_json,
)
from .render import render_off, render_svg
from .rootsys import (
    RootSystem,
    WeylGroup,
    build,
    named_weight,
    singular_support,
    weyl_group,
    weyl_orbit,
    weyl_point_matrices,
    weyl_weight_matrices,
)
from .satake import (
    classify,
    combinatorial_summary,
    invariant_under,
    report_to_json,
    same_compactification,
    satake_ball,
    weight_hull,
    weight_spec,
)

__all__ = [
    "DimensionMismatch",
    "EmptyInput",
    "Face",
    "Halfspace",
    "Horofunction",
    "InputError",
    "NotAFace",
    "OriginNotInterior",
    "PolyhedralNorm",
    "Polytope",
    "PreconditionError",
    "RootSystem",
    "SequenceSample",
    "WeylGroup",
    "almost_geodesic_check",
    "build",
    "chain_check",
    "classify",
    "combinatorial_summary",
    "convex_hull",
    "convexity_midpoint_test",
    "distance",
    "dual_face",
    "enumerate_strata",
    "evaluate",
    "f_vector",
    "face_lattice",
    "face_of",
    "gauge",
    "horofunction_to_json",
    "horofunctions_equal",
    "invariant_under",
    "limit_of_ray",
    "make_horofunction",
    "named_weight",
    "negate",
    "polar_dual",
    "polyhedral_norm",
    "polytope_from_json",
    "polytope_to_json",
    "pseudo_norm",
    "psi",
    "render_off",
    "render_svg",
    "report_to_json",
    "same_compactification",
    "satake_ball",
    "singular_support",
    "weight_hull",
    "weight_spec",
    "weyl_group",
    "weyl_orbit",
    "weyl_point_matrices",
    "weyl_weight_matrices",
]
