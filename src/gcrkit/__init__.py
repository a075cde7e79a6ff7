"""Numerical curvature analysis of parametrized hypersurfaces in E^3 and E^4.

The package evaluates immersions' partials through third order from
derivative trees of their components, assembles the induced metric, second
fundamental form, shape operator and curvature tensor at chart points, and
tests whether a surface is position-principal with constant-ratio
tangential/normal decomposition, isoparametric, minimal in its top mean
curvature, or curvature-ideal.

The top level holds what a typical script needs (see README's "Python API
sketch"); the partials' container, the expression language and its
derivative trees, the geometry machinery and the catalog live in the
submodules ``gcrkit.jet``, ``gcrkit.expr``, ``gcrkit.geometry`` and
``gcrkit.catalog``.
"""

from .catalog import make_family
from .gcr import (
    GridSpec,
    Tolerances,
    classify_surface,
    gcr_residual,
    position_angles,
    structural_residuals,
)
from .geometry import Immersion, point_geometry, principal_data

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Immersion", "make_family", "point_geometry", "principal_data",
    "position_angles", "gcr_residual", "structural_residuals",
    "classify_surface", "GridSpec", "Tolerances",
]
