"""warpcurv: null sectional curvature of warped-product spacetimes.

Closed-form connection, curvature, and null sectional curvature of
multiply warped products (cosmological time-base models and standard
static spacetimes), every formula cross-checked against an independent
coordinate-chart tensor oracle driven by hyper-dual differentiation.
"""

from .core_types import (FiberSpec, Interval, ManifoldSpec, NullPlane, Point,
                         PointMetric, StaticPotential, TangentVector,
                         WarpingFunction, assemble_chart, euclidean_fiber,
                         flatten, generic_warped_spec, grw_spec,
                         hyperbolic_fiber, kasner_spec, metric_eval,
                         mgrw_spec, point_from_flat,
                         schwarzschild_spatial_fiber, spec_from_dict,
                         spec_from_json, spec_hash, spec_to_dict,
                         spec_to_json, sphere_fiber, split, ssst_spec)
from .errors import (CapabilityError, ConstraintError, ConstructionError,
                     DegenerateMetricError, DomainError, GeometryError,
                     PlaneError, ShapeError, ValidationError)
from .models import CatalogEntry, KnownFact, by_name, catalog, validate_entry
from .null_sectional import (NullCurvatureResult, default_frame, formula_paths,
                             grw_null_curvature, grw_remark_value,
                             isotropy_scan, kasner_null_curvature,
                             make_degenerate_plane, mgrw_null_curvature,
                             normalize_null, null_curvature_generic,
                             sample_plane, specialized_null_curvature,
                             ssst_null_curvature, type1_null_curvature,
                             type2_null_curvature, type3_null_curvature)
from .tensor_oracle import (CoordinateChart, CurvatureTensors, christoffel,
                            curvature_residuals, gradient_oracle,
                            hessian_oracle, laplacian_oracle, lowered_riemann,
                            metric_partials, null_sectional_oracle,
                            riemann_apply, riemann_oracle,
                            riemann_oracle_batch, sectional_curvature_oracle)
from .warped_formulas import (LiftedField, base_lift, covariant_derivative,
                              fiber_lift, geometry, gradient_lift,
                              laplacian_lift, ricci_general, ricci_matrix,
                              ricci_mwp, riemann_general, riemann_mwp)

__version__ = "0.1.0"
