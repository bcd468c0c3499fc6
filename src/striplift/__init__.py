"""Statics of semi-discrete frameworks in the plane.

A semi-discrete framework is a finite sequence of smooth planar curves with
a pointwise correspondence between neighbors.  This package computes and
verifies its self-stresses, accumulates height functions into spatial
liftings whose strips are developable, projects such surfaces back to
stressed frameworks, and tests the explicit liftability criterion for
single-strip frameworks with vanishing boundary forces.
"""

from .errors import (
    DegenerateBasisError,
    DivergenceError,
    EvaluationError,
    GridAlignmentError,
    NotConjugateError,
    NotRegularError,
    NotSelfStressedError,
    SchemaError,
    StripLiftError,
)
from .framework import (
    AnalyticCurve,
    AnalyticSurface3D,
    CoordFunction,
    Framework,
    builtin,
    combine,
    load_framework,
    reparametrized,
    save_framework,
    shifted,
)
from .geomcore import (
    RegularityReport,
    det2,
    det3,
    gp_residual,
    regularity_report,
)
from .lifting import (
    SampledLifting,
    build_lifting,
    conjugacy_residual,
    export_obj,
    height,
    height_scale,
    load_lifting,
    path_independence_spread,
    reversal_affine_defect,
    reversed_framework,
    reversed_stress,
    save_lifting,
)
from .numerics import (
    EPS_REG,
    Grid,
    cumulative_samples,
    fd_derivative,
)
from .onestrip import (
    OneStripReport,
    assemble_stress,
    liftability_criterion,
    onestrip_verify,
)
from .projection import (
    ProjectedSurface,
    boundary_planarity,
    developability_report,
    induced_stress,
    plane_fit_distance,
    project,
    recovered_interior_stress,
)
from .statics import (
    ResidualReport,
    StressField,
    force_load,
    force_vector,
    load_stress,
    residual_report,
    save_stress,
    segment_force_scale,
    solve_stress,
)

__version__ = "0.1.0"
