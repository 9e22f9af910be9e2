"""warpcurv: null sectional curvature of warped-product spacetimes.

Closed-form Riemann and Ricci curvature and null sectional curvature of
multiply warped products (cosmological time-base models and standard
static spacetimes), every formula cross-checked against an independent
coordinate-chart tensor oracle driven by second-order jets
(exact forward-mode derivatives).
"""

from .core_types import (FiberSpec, Interval, ManifoldSpec, NullPlane, Point,
                         PointContext, StaticPotential, TangentVector,
                         WarpingFunction, assemble_chart, euclidean_fiber,
                         flatten, generic_warped_spec, grw_spec,
                         hyperbolic_fiber, kasner_spec, metric_eval,
                         mgrw_spec, point_from_flat,
                         schwarzschild_spatial_fiber, spec_from_dict,
                         spec_from_json, spec_hash, spec_to_dict,
                         spec_to_json, sphere_fiber, split, ssst_spec)
from .errors import (ConstraintError, ConstructionError,
                     DegenerateMetricError, DomainError, GeometryError,
                     PlaneError, ShapeError, ValidationError)
from .models import CatalogEntry, KnownFact, by_name, catalog, validate_entry
from .null_sectional import (NullCurvatureResult, closed_form, default_frame,
                             formula_paths, isotropy_scan,
                             make_degenerate_plane, normalize_null,
                             null_curvature_generic, sample_plane,
                             sample_planes, specialized_null_curvature)
from .tensor_oracle import (CoordinateChart, CurvatureTensors,
                            curvature_residuals, lowered_riemann,
                            metric_partials, null_sectional_oracle,
                            riemann_apply, riemann_oracle,
                            riemann_oracle_batch, sectional_curvature_oracle)
from .warped_formulas import ricci_general, ricci_matrix, riemann_general

__version__ = "0.1.0"
