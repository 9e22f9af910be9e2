"""Declarative spacetime model: intervals, warpings, fibers, points, vectors.

A :class:`ManifoldSpec` describes a (multiply) warped product spacetime in
one of four kinds:

* ``MGRW``   : interval base with metric -dt^2, m warped Riemannian fibers
* ``GRW``    : the m = 1 case
* ``Kasner`` : MGRW whose warpings are powers ``phi**p_i`` of one scale
* ``SSST``   : standard static form -f^2 dt^2 (+) g_F, potential f on the fiber
* ``MultiplyWarped-generic`` : arbitrary base chart (library API only)

Everything is immutable after construction and purely functional; values
can be shared freely between threads.  :class:`PointContext` holds what
the evaluators read at one point; its lazily filled slots never change
once filled.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

from . import hyperdual as hd
from ._frozen import Frozen, set_field
from .errors import DomainError, PlaneError, ShapeError, ValidationError
from .tensor_oracle import (MAX_CHART_DIM, CoordinateChart, CurvatureTensors,
                            chart_hessian, riemann_oracle_batch,
                            sectional_curvature_oracle)

__all__ = [
    "Interval",
    "WarpingFunction",
    "StaticPotential",
    "FiberSpec",
    "ManifoldSpec",
    "Point",
    "TangentVector",
    "NullPlane",
    "euclidean_fiber",
    "sphere_fiber",
    "hyperbolic_fiber",
    "schwarzschild_spatial_fiber",
    "mgrw_spec",
    "grw_spec",
    "kasner_spec",
    "ssst_spec",
    "generic_warped_spec",
    "WarpData",
    "PointContext",
    "metric_eval",
    "assemble_chart",
    "flatten",
    "components",
    "split",
    "tangent",
    "all_finite",
    "spec_to_dict",
    "spec_from_dict",
    "spec_to_json",
    "spec_from_json",
    "spec_hash",
]

INTERIOR_MARGIN = 1e-12


# ---------------------------------------------------------------------------
# base interval and warping functions
# ---------------------------------------------------------------------------

class Interval(Frozen):
    """Open interval (t1, t2); endpoints may be -inf / +inf and are never evaluated."""

    __slots__ = ("t1", "t2")

    def __init__(self, t1: float, t2: float):
        set_field(self, "t1", t1)
        set_field(self, "t2", t2)
        if not t1 < t2:
            raise ValidationError(f"interval requires t1 < t2, got ({t1}, {t2})")

    def contains(self, t: float, margin: float = INTERIOR_MARGIN) -> bool:
        lo = True if math.isinf(self.t1) else t - self.t1 >= margin
        hi = True if math.isinf(self.t2) else self.t2 - t >= margin
        return lo and hi

    def require(self, t: float) -> None:
        if not self.contains(t):
            raise DomainError(f"t = {t} is not at least {INTERIOR_MARGIN} "
                              f"inside ({self.t1}, {self.t2})")

    def sample_points(self, n: int = 25) -> list[float]:
        """Interior sample points for positivity/validity spot checks."""
        if math.isfinite(self.t1):
            lo = self.t1
            hi = self.t2 if math.isfinite(self.t2) else self.t1 + 10.0
        else:
            hi = self.t2 if math.isfinite(self.t2) else 5.0
            lo = hi - 10.0
        pad = 1e-3 * (hi - lo)
        return list(np.linspace(lo + pad, hi - pad, n))


def _number(value, name: str) -> float:
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _form_scalar(form: str, params: dict) -> Callable:
    def param(key):
        if key not in params:
            raise ValidationError(f"{form} form needs parameter {key!r}")
        return _number(params[key], f"parameter {key!r}")

    if form == "power":
        c, q = param("c"), param("q")
        return lambda t: c * hd.power(t, q)
    if form == "exp":
        c, k = param("c"), param("k")
        return lambda t: c * hd.exp(k * t)
    if form == "poly":
        coeffs = params.get("coeffs")
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise ValidationError("poly form needs a non-empty list 'coeffs'")
        coeffs = [_number(a, "a poly coefficient") for a in coeffs]
        def poly(t, _c=tuple(coeffs)):
            acc = _c[-1]
            for a in reversed(_c[:-1]):
                acc = acc * t + a
            return acc
        return poly
    if form == "cosh":
        c, k = param("c"), param("k")
        return lambda t: c * hd.cosh(k * t)
    if form == "schwarzschild":
        m = param("m")
        return lambda r: hd.sqrt(1.0 - 2.0 * m / r)
    raise ValidationError(f"unknown scalar form {form!r}")


def _spot_value(fn, arg, what: str, where: str) -> float:
    """fn(arg) for a structure spot check; a failure names the sample.  An
    argument outside a form's real domain stays a DomainError, any other
    failure to evaluate becomes a ValidationError."""
    try:
        return float(fn(arg))
    except (ArithmeticError, ValueError, DomainError) as exc:
        error = DomainError if isinstance(exc, DomainError) else ValidationError
        raise error(f"{what} cannot be evaluated at {where}: {exc}") from None


class WarpingFunction(Frozen):
    """Smooth positive scalar on the base interval, with exact b', b''.

    Derivatives come from evaluating ``fn`` on jets
    (:func:`warpcurv.hyperdual.jet`), so ``fn`` must be written against the
    generic math helpers in :mod:`warpcurv.hyperdual`.
    """

    __slots__ = ("fn", "form", "params")

    def __init__(self, fn: Callable, form: str | None = None,
                 params: dict | None = None):
        set_field(self, "fn", fn)
        set_field(self, "form", form)
        set_field(self, "params", params)

    @classmethod
    def from_form(cls, form: str, params: dict) -> "WarpingFunction":
        return cls(fn=_form_scalar(form, params), form=form, params=dict(params))

    @classmethod
    def constant(cls, c: float = 1.0) -> "WarpingFunction":
        return cls.from_form("poly", {"coeffs": [float(c)]})

    def __call__(self, t):
        return self.fn(t)

    def check_positive(self, interval: Interval, n: int = 25) -> None:
        for t in map(float, interval.sample_points(n)):
            b = _spot_value(self.fn, t, "warping", f"t = {t}")
            if not b > 0.0:
                raise ValidationError(f"warping must be positive; got {b} at t = {t}")


class StaticPotential(Frozen):
    """Positive scalar f on the fiber of a standard static spacetime.

    ``fn`` maps fiber coordinates (floats or jets) to a scalar;
    gradient and Hessian data is obtained through the fiber chart oracle.
    """

    __slots__ = ("fn", "form", "params")

    def __init__(self, fn: Callable, form: str | None = None,
                 params: dict | None = None):
        set_field(self, "fn", fn)
        set_field(self, "form", form)
        set_field(self, "params", params)

    @classmethod
    def from_form(cls, form: str, params: dict) -> "StaticPotential":
        scalar = _form_scalar(form, params)
        return cls(fn=lambda coords: scalar(coords[0]), form=form, params=dict(params))

    @classmethod
    def constant(cls, c: float = 1.0) -> "StaticPotential":
        scalar = _form_scalar("poly", {"coeffs": [float(c)]})
        return cls(fn=lambda coords: scalar(coords[0]), form="poly",
                   params={"coeffs": [float(c)]})

    def __call__(self, coords):
        return self.fn(coords)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

class FiberSpec(Frozen):
    """A Riemannian factor: coordinate metric plus optional curvature tag.

    ``curvature_tag`` one of ``euclidean`` / ``sphere`` / ``hyperbolic`` /
    ``generic``; tagged fibers unlock the constant-curvature closed form
    for their Riemann tensor, generic fibers fall back to the chart oracle.
    ``params`` defaults to a new empty dict.
    """

    __slots__ = ("dim", "metric", "curvature_tag", "model", "radius",
                 "params", "coord_names", "domain", "sample_coords")

    def __init__(self, dim: int, metric: Callable[[Sequence], Sequence],
                 curvature_tag: str = "generic", model: str = "custom",
                 radius: float | None = None, params: dict | None = None,
                 coord_names: tuple[str, ...] = (),
                 domain: Callable[[Sequence[float]], bool] | None = None,
                 sample_coords: tuple[float, ...] = ()):
        set_field(self, "dim", dim)
        set_field(self, "metric", metric)
        set_field(self, "curvature_tag", curvature_tag)
        set_field(self, "model", model)
        set_field(self, "radius", radius)
        set_field(self, "params", {} if params is None else params)
        set_field(self, "coord_names", coord_names)
        set_field(self, "domain", domain)
        set_field(self, "sample_coords", sample_coords)
        if dim < 1:
            raise ValidationError("fiber dimension must be >= 1")
        if curvature_tag not in ("euclidean", "sphere", "hyperbolic", "generic"):
            raise ValidationError(f"unknown curvature tag {curvature_tag!r}")
        if coord_names and len(coord_names) != dim:
            raise ShapeError("coord_names length must equal fiber dim")

    @property
    def constant_curvature(self) -> float | None:
        """Sectional curvature k for tagged fibers, None for generic ones."""
        if self.curvature_tag == "euclidean":
            return 0.0
        if self.curvature_tag == "sphere":
            return 1.0 / (self.radius ** 2)
        if self.curvature_tag == "hyperbolic":
            return -1.0 / (self.radius ** 2)
        return None

    def chart(self) -> CoordinateChart:
        return CoordinateChart(dim=self.dim, metric_at=self.metric,
                               name=f"fiber:{self.model}", domain=self.domain)

    def metric_matrix(self, x: Sequence[float]) -> np.ndarray:
        rows = self.metric(list(x))
        return np.array([[float(rows[i][j]) for j in range(self.dim)]
                         for i in range(self.dim)], dtype=float)

    def check_spd(self, x: Sequence[float], tol: float = 1e-10) -> None:
        m = self.metric_matrix(x)
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValidationError(f"fiber metric not symmetric at {tuple(x)}")
        if np.min(np.linalg.eigvalsh(m)) <= tol:
            raise ValidationError(f"fiber metric not positive definite at {tuple(x)}")

    def check_curvature_tag(self, points: Sequence[Sequence[float]],
                            tol: float = 1e-8) -> None:
        """Tagged fibers must really have the tagged constant curvature."""
        k = self.constant_curvature
        if k is None or self.dim < 2:
            return
        chart = self.chart()
        rng = np.random.default_rng(7)
        for x in points:
            v = rng.standard_normal(self.dim)
            w = rng.standard_normal(self.dim)
            got = sectional_curvature_oracle(chart, list(x), v, w)
            if abs(got - k) > tol * max(1.0, abs(k)):
                raise ValidationError(
                    f"fiber tagged {self.curvature_tag} but sectional curvature "
                    f"{got} != {k} at {tuple(x)}")


def _angle_guard(n_polar: int, offset: int):
    """Polar angles restricted to [0.1, pi - 0.1]; azimuth left free."""
    def ok(coords):
        return all(0.1 <= coords[offset + i] <= math.pi - 0.1 for i in range(n_polar))
    return ok


def euclidean_fiber(dim: int, names: tuple[str, ...] | None = None) -> FiberSpec:
    default = ("x", "y", "z") if dim <= 3 else tuple(f"x{i+1}" for i in range(dim))
    def metric(coords, _n=dim):
        return [[1.0 if i == j else 0.0 for j in range(_n)] for i in range(_n)]
    return FiberSpec(dim=dim, metric=metric, curvature_tag="euclidean",
                     model="euclidean", coord_names=names or default[:dim],
                     sample_coords=tuple(0.1 * (i + 1) for i in range(dim)))


def _require_radius(radius: float, model: str) -> float:
    """A fiber radius as a float; a negative one describes no space.  A
    zero radius passes here and fails the fiber's positivity check."""
    r = float(radius)
    if r < 0.0:
        raise ValidationError(f"{model} radius must not be negative, got {r!r}")
    return r


def sphere_fiber(dim: int, radius: float = 1.0) -> FiberSpec:
    """Round sphere of the given radius in hyperspherical coordinates."""
    radius = _require_radius(radius, "sphere")
    r2 = radius ** 2
    if dim == 1:
        metric = lambda c: [[r2]]
        names, sample, guard = ("phi",), (0.3,), None
    elif dim == 2:
        def metric(c):
            return [[r2, 0.0], [0.0, r2 * hd.sin(c[0]) ** 2]]
        names, sample, guard = ("theta", "phi"), (1.1, 0.4), _angle_guard(1, 0)
    elif dim == 3:
        def metric(c):
            s0 = hd.sin(c[0]) ** 2
            return [[r2, 0.0, 0.0],
                    [0.0, r2 * s0, 0.0],
                    [0.0, 0.0, r2 * s0 * hd.sin(c[1]) ** 2]]
        names, sample, guard = ("chi", "theta", "phi"), (1.2, 1.0, 0.5), _angle_guard(2, 0)
    else:
        raise ValidationError("sphere fibers supported for dim <= 3")
    return FiberSpec(dim=dim, metric=metric, curvature_tag="sphere", model="sphere",
                     radius=radius, coord_names=names, domain=guard,
                     sample_coords=sample)


def hyperbolic_fiber(dim: int, radius: float = 1.0) -> FiberSpec:
    """Hyperbolic space of curvature -1/radius^2 in polar coordinates."""
    radius = _require_radius(radius, "hyperbolic")
    r2 = radius ** 2
    if dim == 2:
        def metric(c):
            return [[r2, 0.0], [0.0, r2 * hd.sinh(c[0]) ** 2]]
        names, sample = ("rho", "phi"), (0.8, 0.4)
        guard = lambda c: c[0] >= 0.1
    elif dim == 3:
        def metric(c):
            s0 = hd.sinh(c[0]) ** 2
            return [[r2, 0.0, 0.0],
                    [0.0, r2 * s0, 0.0],
                    [0.0, 0.0, r2 * s0 * hd.sin(c[1]) ** 2]]
        names, sample = ("rho", "theta", "phi"), (0.8, 1.1, 0.4)
        guard = lambda c: c[0] >= 0.1 and 0.1 <= c[1] <= math.pi - 0.1
    else:
        raise ValidationError("hyperbolic fibers supported for dim in (2, 3)")
    return FiberSpec(dim=dim, metric=metric, curvature_tag="hyperbolic",
                     model="hyperbolic", radius=radius, coord_names=names,
                     domain=guard, sample_coords=sample)


def schwarzschild_spatial_fiber(mass: float = 1.0) -> FiberSpec:
    """Spatial slice (2m, inf) x S^2 with (1 - 2m/r)^-1 dr^2 + r^2 dOmega^2."""
    m = float(mass)
    if m <= 0:
        raise ValidationError("schwarzschild fiber requires mass > 0")
    def metric(c):
        r, theta = c[0], c[1]
        return [[1.0 / (1.0 - 2.0 * m / r), 0.0, 0.0],
                [0.0, r * r, 0.0],
                [0.0, 0.0, r * r * hd.sin(theta) ** 2]]
    guard = lambda c: c[0] >= 2.0 * m * 1.01 and 0.1 <= c[1] <= math.pi - 0.1
    return FiberSpec(dim=3, metric=metric, curvature_tag="generic",
                     model="schwarzschild_spatial", params={"mass": m},
                     coord_names=("r", "theta", "phi"), domain=guard,
                     sample_coords=(3.0 * m, 1.2, 0.4))


# ---------------------------------------------------------------------------
# the manifold spec
# ---------------------------------------------------------------------------

_TIME_BASE_KINDS = ("MGRW", "GRW", "Kasner")
_KINDS = _TIME_BASE_KINDS + ("SSST", "MultiplyWarped-generic")


class ManifoldSpec(Frozen):
    """Declarative multiply warped product; see module docstring for kinds."""

    __slots__ = ("kind", "base", "warpings", "fibers", "kasner_exponents",
                 "phi", "potential", "base_chart", "name")

    def __init__(self, kind: str, base: Interval, warpings: tuple = (),
                 fibers: tuple = (),
                 kasner_exponents: tuple[float, ...] | None = None,
                 phi: WarpingFunction | None = None,
                 potential: StaticPotential | None = None,
                 base_chart: CoordinateChart | None = None, name: str = ""):
        set_field(self, "kind", kind)
        set_field(self, "base", base)
        set_field(self, "warpings", warpings)
        set_field(self, "fibers", fibers)
        set_field(self, "kasner_exponents", kasner_exponents)
        set_field(self, "phi", phi)
        set_field(self, "potential", potential)
        set_field(self, "base_chart", base_chart)
        set_field(self, "name", name)
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        if not self.fibers:
            raise ValidationError("at least one fiber is required")
        if self.kind == "SSST":
            if len(self.fibers) != 1 or self.potential is None:
                raise ValidationError("SSST requires exactly one fiber and a potential")
        elif self.kind == "Kasner":
            if self.kasner_exponents is None or self.phi is None:
                raise ValidationError("Kasner requires exponents and a scale function")
            if len(self.kasner_exponents) != len(self.fibers):
                raise ShapeError("one Kasner exponent per fiber")
            if len(self.warpings) != len(self.fibers):
                raise ShapeError("warpings/fibers length mismatch")
        else:
            if len(self.warpings) != len(self.fibers):
                raise ShapeError("warpings/fibers length mismatch")
            if self.kind == "GRW" and len(self.fibers) != 1:
                raise ValidationError("GRW requires exactly one fiber")
        if self.kind == "MultiplyWarped-generic" and self.base_chart is None:
            raise ValidationError("generic kind requires a base chart")
        self.validate_structure()

    # -- structure helpers ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.fibers)

    @property
    def base_dim(self) -> int:
        return self.base_chart.dim if self.base_chart is not None else 1

    @property
    def dim(self) -> int:
        return self.base_dim + sum(f.dim for f in self.fibers)

    @property
    def is_time_base(self) -> bool:
        return self.kind in _TIME_BASE_KINDS

    def potential_value(self, fiber_coords: Sequence[float]) -> float:
        return float(self.potential(list(fiber_coords)))

    def flat_coord_names(self) -> list[str]:
        names = ["t"] if self.base_chart is None else [f"b{i}" for i in range(self.base_dim)]
        seen = set(names)
        for idx, f in enumerate(self.fibers):
            for nm in (f.coord_names or tuple(f"c{j}" for j in range(f.dim))):
                label = nm if nm not in seen else f"{nm}{idx + 1}"
                seen.add(label)
                names.append(label)
        return names

    def validate_structure(self) -> None:
        """Spot-check warping positivity and fiber SPD at sample points;
        runs on construction."""
        for w in self.warpings:
            if isinstance(w, WarpingFunction):
                w.check_positive(self.base)
        for f in self.fibers:
            if f.sample_coords:
                f.check_spd(f.sample_coords)
        x = self.fibers[0].sample_coords
        if self.kind == "SSST" and x:
            if not _spot_value(self.potential, list(x), "static potential",
                               str(x)) > 0:
                raise ValidationError("static potential must be positive")


def mgrw_spec(base: Interval, warpings: Sequence[WarpingFunction],
              fibers: Sequence[FiberSpec], name: str = "") -> ManifoldSpec:
    return ManifoldSpec(kind="MGRW", base=base, warpings=tuple(warpings),
                        fibers=tuple(fibers), name=name)


def grw_spec(base: Interval, warping: WarpingFunction, fiber: FiberSpec,
             name: str = "") -> ManifoldSpec:
    return ManifoldSpec(kind="GRW", base=base, warpings=(warping,),
                        fibers=(fiber,), name=name)


def kasner_spec(base: Interval, phi: WarpingFunction,
                exponents: Sequence[float], fibers: Sequence[FiberSpec],
                name: str = "") -> ManifoldSpec:
    exps = tuple(float(p) for p in exponents)
    warpings = tuple(
        WarpingFunction(fn=(lambda t, _p=p, _f=phi.fn: hd.power(_f(t), _p)))
        for p in exps
    )
    return ManifoldSpec(kind="Kasner", base=base, warpings=warpings,
                        fibers=tuple(fibers), kasner_exponents=exps, phi=phi,
                        name=name)


def ssst_spec(base: Interval, potential: StaticPotential, fiber: FiberSpec,
              name: str = "") -> ManifoldSpec:
    return ManifoldSpec(kind="SSST", base=base, warpings=(potential,),
                        fibers=(fiber,), potential=potential, name=name)


def generic_warped_spec(base_chart: CoordinateChart,
                        warpings: Sequence[Callable],
                        fibers: Sequence[FiberSpec],
                        name: str = "") -> ManifoldSpec:
    """Multiply warped product over an arbitrary base chart (library API only).

    Each warping is a positive scalar function of the base coordinates,
    written against the generic math helpers of :mod:`warpcurv.hyperdual`
    so that it evaluates on jets.
    """
    return ManifoldSpec(kind="MultiplyWarped-generic",
                        base=Interval(-math.inf, math.inf),
                        warpings=tuple(warpings), fibers=tuple(fibers),
                        base_chart=base_chart, name=name)


# ---------------------------------------------------------------------------
# points and tangent vectors
# ---------------------------------------------------------------------------

class Point(Frozen):
    """Base coordinate plus one coordinate tuple per fiber."""

    __slots__ = ("t", "fiber_coords")

    def __init__(self, t: float | tuple, fiber_coords: tuple):
        set_field(self, "t", t)
        set_field(self, "fiber_coords", fiber_coords)

    def validate(self, spec: ManifoldSpec) -> None:
        if len(self.fiber_coords) != spec.m:
            raise ShapeError(f"expected {spec.m} fiber coordinate tuples")
        for f, x in zip(spec.fibers, self.fiber_coords):
            if len(x) != f.dim:
                raise ShapeError(f"fiber {f.model} expects {f.dim} coordinates")
        self._require_finite(spec)
        if spec.base_chart is None:
            spec.base.require(float(self.t))
        for f, x in zip(spec.fibers, self.fiber_coords):
            if f.domain is not None and not f.domain(list(map(float, x))):
                raise DomainError(f"fiber point {tuple(x)} outside {f.model} chart")

    def _require_finite(self, spec: ManifoldSpec) -> None:
        """Refuse a NaN or infinite coordinate, naming it."""
        coords = self.flat(spec)
        if not all(map(math.isfinite, coords)):
            name, c = next((n, c) for n, c in zip(spec.flat_coord_names(), coords)
                           if not math.isfinite(c))
            raise ValidationError(f"point coordinate {name!r} is not finite: {c}")

    def flat(self, spec: ManifoldSpec) -> tuple[float, ...]:
        base = tuple(self.t) if isinstance(self.t, tuple) else (float(self.t),)
        return base + tuple(float(c) for x in self.fiber_coords for c in x)


class TangentVector(Frozen):
    """Base coefficient (on d_t, or base components) plus per-fiber components."""

    __slots__ = ("base_part", "fiber_parts")

    def __init__(self, base_part: float | tuple, fiber_parts: tuple):
        set_field(self, "base_part", base_part)
        set_field(self, "fiber_parts", fiber_parts)

    def validate(self, spec: ManifoldSpec) -> None:
        if len(self.fiber_parts) != spec.m:
            raise ShapeError(f"expected {spec.m} fiber component tuples")
        for f, v in zip(spec.fibers, self.fiber_parts):
            if len(v) != f.dim:
                raise ShapeError(f"fiber {f.model} expects {f.dim} components")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if isinstance(self.base_part, tuple):
            base = tuple(a + b for a, b in zip(self.base_part, other.base_part))
        else:
            base = self.base_part + other.base_part
        parts = tuple(tuple(a + b for a, b in zip(u, v))
                      for u, v in zip(self.fiber_parts, other.fiber_parts))
        return TangentVector(base, parts)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return self + (-1.0) * other

    def __mul__(self, c: float) -> "TangentVector":
        if isinstance(self.base_part, tuple):
            base = tuple(c * a for a in self.base_part)
        else:
            base = c * self.base_part
        return TangentVector(base, tuple(tuple(c * a for a in v)
                                         for v in self.fiber_parts))

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return (-1.0) * self

    @classmethod
    def zero(cls, spec: ManifoldSpec) -> "TangentVector":
        base = (0.0,) * spec.base_dim if spec.base_chart is not None else 0.0
        return cls(base, tuple((0.0,) * f.dim for f in spec.fibers))

    @classmethod
    def base_direction(cls, spec: ManifoldSpec, coeff: float = 1.0) -> "TangentVector":
        z = cls.zero(spec)
        return cls(coeff, z.fiber_parts) if spec.base_chart is None else cls(
            (coeff,) + (0.0,) * (spec.base_dim - 1), z.fiber_parts)

    @classmethod
    def fiber_direction(cls, spec: ManifoldSpec, i: int,
                        components: Sequence[float]) -> "TangentVector":
        z = cls.zero(spec)
        parts = list(z.fiber_parts)
        parts[i] = tuple(float(c) for c in components)
        return cls(z.base_part, tuple(parts))


def flatten(v: TangentVector) -> tuple[float, ...]:
    """Flat-chart components, base first then fibers in order."""
    base = tuple(v.base_part) if isinstance(v.base_part, tuple) else (float(v.base_part),)
    return base + tuple(float(c) for part in v.fiber_parts for c in part)


def components(v: TangentVector) -> tuple:
    """:func:`flatten` without the float conversion: each component keeps
    its type (a numpy scalar stays one, so ``np.errstate`` still applies
    to arithmetic on it)."""
    base = v.base_part if isinstance(v.base_part, tuple) else (v.base_part,)
    return base + tuple(c for part in v.fiber_parts for c in part)


def split(components: Sequence[float], spec: ManifoldSpec) -> TangentVector:
    """Inverse of :func:`flatten` for the given spec."""
    comps = tuple(float(c) for c in components)
    if len(comps) != spec.dim:
        raise ShapeError(f"expected {spec.dim} values, got {len(comps)}")
    return tangent(spec, comps)


def tangent(spec: ManifoldSpec, comps: tuple) -> TangentVector:
    """Inverse of :func:`components`: the tangent vector whose flat chart
    components are ``comps`` (length ``spec.dim``, unchecked), each
    keeping its type."""
    nb = spec.base_dim
    base = comps[:nb] if spec.base_chart is not None else comps[0]
    parts = []
    ofs = nb
    for f in spec.fibers:
        parts.append(comps[ofs:ofs + f.dim])
        ofs += f.dim
    return TangentVector(base, tuple(parts))


def point_from_flat(spec: ManifoldSpec, coords: Sequence[float]) -> Point:
    """Build a Point from flat chart coordinates, base first."""
    v = split(coords, spec)
    return Point(v.base_part, v.fiber_parts)


# ---------------------------------------------------------------------------
# the product metric
# ---------------------------------------------------------------------------

# The metric, stated once for a batch of evaluations (:class:`_Metric`):
# each scalar is a float64 array, its value at every evaluation.  Every
# operation is elementwise and in the order of one evaluation at a time,
# so each value has the bits that evaluation gives; a division or square
# root on a rejected evaluation reads a spared value (1.0).

def _lanes(vectors: Sequence, inv: np.ndarray) -> list[np.ndarray]:
    """Flat chart components as lanes, one float64 array per component:
    lane k reads vector ``inv[k]`` of ``vectors``."""
    return list(np.array(vectors, dtype=float)[inv].T)


def _zeros(v: np.ndarray):
    """Where v is 0.0: True in every lane, False in none, else a bool per
    lane."""
    z = v == 0.0
    if not z.any():
        return False
    return True if z.all() else z


class _Metric:
    """g(x, y) on flat chart components as lanes, lane k at the point of
    context ``uniq[inv[k]]``.  The base term comes first, then
    ``b*b * g_F(v, w)`` per fiber (the static model's one fiber is
    unwarped), skipping zero components (``x + 0.0`` would turn -0.0 into
    +0.0, and ``inf * 0.0`` is NaN).  ``warps`` holds each lane's warping
    values, one column per fiber."""

    def __init__(self, spec: ManifoldSpec, uniq: Sequence["PointContext"],
                 inv: np.ndarray):
        self.ssst = spec.kind == "SSST"
        self.base_rows = ([uniq[i].base_rows for i in inv]
                          if spec.base_chart is not None else None)
        self.warps = warps = np.array([g.warps for g in uniq])[inv]
        self.b2 = [warps[:, i] * warps[:, i] for i in range(spec.m)]
        if self.ssst:
            self.neg_f2 = np.array([-(g.warps[0] ** 2) for g in uniq])[inv]
        self.rows = [np.array([g.fiber_rows[i] for g in uniq])[inv]
                     for i in range(spec.m)]

    def __call__(self, x: list, y: list) -> np.ndarray:
        if self.ssst:
            acc = self.neg_f2 * x[0] * y[0]
            return acc + self._fiber(self.rows[0], x, y, 1)
        if self.base_rows is not None:
            nb = len(self.base_rows[0])
            acc = np.array([
                float(np.asarray([a[k] for a in x[:nb]]) @ rows
                      @ np.asarray([b[k] for b in y[:nb]]))
                for k, rows in enumerate(self.base_rows)])
        else:
            nb = 1
            acc = -x[0] * y[0]
        for b2, rows in zip(self.b2, self.rows):
            acc = acc + b2 * self._fiber(rows, x, y, nb)
            nb += rows.shape[1]
        return acc

    @staticmethod
    def _fiber(rows: np.ndarray, x: list, y: list, ofs: int) -> np.ndarray:
        """g_F(v, w) for the fiber block starting at ``ofs``; ``rows`` is
        (lanes, k, k)."""
        k = rows.shape[1]
        zx = [_zeros(v) for v in x[ofs:ofs + k]]
        zy = zx if y is x else [_zeros(w) for w in y[ofs:ofs + k]]
        acc = np.zeros(len(rows))
        for i in range(k):
            if zx[i] is True:
                continue
            for j in range(k):
                if zy[j] is True:
                    continue
                term = acc + x[ofs + i] * rows[:, i, j] * y[ofs + j]
                skip = zx[i] | zy[j]
                acc = term if skip is False else np.where(skip, acc, term)
        return acc


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


class WarpData(Frozen):
    """One base scalar's derivative bundle at a base point (read-only)."""

    __slots__ = ("value", "dcomps", "hess", "lap", "grad_sq")

    def __init__(self, value: float,
                 dcomps: np.ndarray,   # partial derivatives d_m b
                 hess: np.ndarray,     # covariant Hessian H_B^b
                 lap: float,           # metric trace of the Hessian
                 grad_sq: float):      # g_B(grad b, grad b)
        set_field(self, "value", value)
        set_field(self, "dcomps", dcomps)
        set_field(self, "hess", hess)
        set_field(self, "lap", lap)
        set_field(self, "grad_sq", grad_sq)
        _read_only(dcomps, hess)


class PointContext:
    """Everything the evaluators read at one point of one spec.

    The caller that owns a point builds its context once and passes it
    down; every evaluator that takes a point also accepts its context
    (:meth:`of`).  Building one validates the point, fixes its structural
    base coordinates ``base_point`` (for a static model the spatial factor
    is the structural base and time the one fiber; see
    :mod:`warpcurv.warped_formulas`) and evaluates each fiber metric.  The
    warping values (the potential f for SSST), their derivative bundle and
    the chart-oracle tensors of the base and of each fiber, and the
    transposed Cholesky factor of each fiber metric (:attr:`chol_t`, which
    the plane sampler draws with) are computed on first use, once per
    slot; all arrays are read-only.  A caller holding many contexts may
    fill their base tensors, fiber tensors, warp bundles and curvature
    tensors in one batched call each first (:meth:`fill_base_tensors`,
    :meth:`fill_fiber_tensors`, :meth:`fill_warp_bundles`,
    :meth:`fill_riemann_tensors`, and the Cholesky factors
    :meth:`fill_chol_t`); a lone fill is a batch of one, so a
    slot holds the same bits whoever filled it.  A filled slot keeps its
    value (two threads filling it at once compute the same bits), so a
    context may be shared between threads.

    The metric is one bilinear form on flat chart components
    (:meth:`form`); :meth:`inner` is that form on validated tangent
    vectors.
    """

    __slots__ = ("spec", "point", "base_point", "fiber_rows", "fiber_metrics",
                 "base_rows", "_warps", "_warp_bundle", "_base_tensors",
                 "_fiber_tensors", "_riemann", "_chol_t")

    def __init__(self, spec: ManifoldSpec, p: Point):
        p.validate(spec)
        self.spec = spec
        coords = tuple(tuple(map(float, x)) for x in p.fiber_coords)
        self.fiber_rows = tuple(
            tuple(tuple(float(e) for e in row) for row in f.metric(list(x)))
            for f, x in zip(spec.fibers, coords))
        self.fiber_metrics = tuple(np.array(rows, dtype=float)
                                   for rows in self.fiber_rows)
        _read_only(*self.fiber_metrics)
        self._fiber_tensors = [None] * spec.m
        self._chol_t = None
        self._base_tensors = self._warp_bundle = self._warps = None
        self._riemann = self.base_rows = None
        if spec.kind == "SSST":
            self.base_point = coords[0]
        self._set_base(p)

    def _set_base(self, p: Point) -> None:
        """Take p's base coordinate and evaluate what depends on it."""
        spec = self.spec
        self.point = p
        if spec.kind == "SSST":  # t is the structural fiber; nothing moves
            return
        self._base_tensors = self._warp_bundle = self._warps = None
        self._riemann = None
        if spec.base_chart is not None:
            self.base_point = tuple(map(float, p.t))
            self.base_rows = np.array(
                [[float(e) for e in row]
                 for row in spec.base_chart.metric_at(list(p.t))], dtype=float)
        else:
            self.base_point = (float(p.t),)

    def at_base(self, t) -> "PointContext":
        """The context at base coordinate ``t`` and the same fiber point,
        sharing what does not depend on t: the fiber metrics, their
        Cholesky factors and tensors, and for a static model every slot
        this context has filled (its curvature tensor included)."""
        p = Point(t, self.point.fiber_coords)
        p._require_finite(self.spec)
        if self.spec.base_chart is None:
            self.spec.base.require(float(t))
        ctx = object.__new__(PointContext)
        for name in PointContext.__slots__:
            setattr(ctx, name, getattr(self, name))
        ctx._set_base(p)
        return ctx

    @classmethod
    def of(cls, spec: ManifoldSpec, p: "Point | PointContext") -> "PointContext":
        """The context at ``p``; ``p`` itself if it already is one for spec."""
        if isinstance(p, cls):
            if p.spec is not spec:
                raise ValidationError("point context belongs to another spec")
            return p
        return cls(spec, p)

    # -- the metric ----------------------------------------------------------

    def inner(self, X: TangentVector, Y: TangentVector) -> float:
        """g(X, Y) at the point."""
        X.validate(self.spec)
        Y.validate(self.spec)
        return self.form(components(X), components(Y))

    def form(self, x, y) -> float:
        """g(x, y) at the point for flat chart components x, y (base
        first, then each fiber's; see :func:`components`), unchecked:
        :class:`_Metric` at a batch of one.  An overflow or invalid
        operation gives inf or NaN, as Python float arithmetic does."""
        one = np.zeros(1, dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            return _Metric(self.spec, [self], one)(
                _lanes([x], one), _lanes([y], one)).tolist()[0]

    def plane(self, L: TangentVector, S: TangentVector,
              frame_U: TangentVector | None = None) -> "NullPlane":
        """span(L, S) at the point with its normalization data: g(L,L),
        g(L,S), g(S,S) and, with a frame, g(L,U) from one evaluation of
        :class:`_Metric` (each as :meth:`inner` gives it).  The plane's
        vectors are L, S and frame_U with Python float components."""
        vectors = (L, S) if frame_U is None else (L, S, frame_U)
        for v in vectors:
            v.validate(self.spec)
        flat = np.array([components(v) for v in vectors], dtype=float)
        n = len(vectors) + 1
        with np.errstate(over="ignore", invalid="ignore"):
            g = _Metric(self.spec, [self], np.zeros(n, dtype=np.intp))(
                _lanes(flat, [0, 0, 1, 0][:n]),
                _lanes(flat, [0, 1, 1, 2][:n])).tolist()
        L, S, *U = (tangent(self.spec, tuple(c)) for c in flat.tolist())
        return NullPlane(point=self.point, L=L, S=S,
                         frame_U=U[0] if U else None, g_LL=g[0], g_LS=g[1],
                         g_SS=g[2], g_LU=g[3] if U else -1.0, context=self)

    # -- filled on first use -------------------------------------------------

    @property
    def warps(self) -> tuple[float, ...]:
        """Each warping's value at the point (the potential f for SSST)."""
        if self._warps is None:
            spec = self.spec
            arg = (self.base_point[0] if spec.is_time_base
                   else list(self.base_point))
            self._warps = tuple(float(w(arg)) for w in spec.warpings)
        return self._warps

    @property
    def base_tensors(self) -> CurvatureTensors | None:
        """Chart-oracle tensors of the structural base; None on a line."""
        if self._base_tensors is None:
            PointContext.fill_base_tensors([self])
        return self._base_tensors

    @staticmethod
    def _unfilled(contexts: Sequence["PointContext"],
                  slot: Callable) -> list["PointContext"]:
        """The contexts whose slot, read by ``slot(context)``, is still
        empty; they must share a spec."""
        empty = [c for c in contexts if slot(c) is None]
        if any(c.spec is not empty[0].spec for c in empty):
            raise ValidationError("point contexts belong to different specs")
        return empty

    @staticmethod
    def fill_base_tensors(contexts: Sequence["PointContext"]) -> None:
        """Fill the structural base tensors of every context that has a
        base chart and no tensors yet, from one batched oracle call.

        All contexts must belong to one spec.  This is the only way the
        slot is filled, so it holds the same bits whoever filled it."""
        empty = PointContext._unfilled(contexts, lambda c: c._base_tensors)
        if not empty:
            return
        spec = empty[0].spec
        chart = (spec.fibers[0].chart() if spec.kind == "SSST"
                 else spec.base_chart)
        if chart is None:
            return
        for c, t in zip(empty, _oracle(chart, [c.base_point for c in empty])):
            if c._base_tensors is None:
                c._base_tensors = t

    def fiber_tensors(self, i: int) -> CurvatureTensors:
        """Chart-oracle tensors of the spec's fiber i at its coordinates."""
        if self._fiber_tensors[i] is None:
            PointContext.fill_fiber_tensors([self], i)
        return self._fiber_tensors[i]

    @staticmethod
    def fill_fiber_tensors(contexts: Sequence["PointContext"], i: int) -> None:
        """Fill fiber i's tensors of every context that has none yet, from
        one batched oracle call.

        All contexts must belong to one spec.  This is the only way the
        slot is filled, so it holds the same bits whoever filled it."""
        empty = PointContext._unfilled(contexts, lambda c: c._fiber_tensors[i])
        if not empty:
            return
        chart = empty[0].spec.fibers[i].chart()
        for c, t in zip(empty, _oracle(chart, [c.point.fiber_coords[i]
                                               for c in empty])):
            if c._fiber_tensors[i] is None:
                c._fiber_tensors[i] = t

    @property
    def chol_t(self) -> tuple[np.ndarray, ...]:
        """C^T for the Cholesky factor C of each fiber metric (read-only)."""
        if self._chol_t is None:
            PointContext.fill_chol_t([self])
        return self._chol_t

    @staticmethod
    def fill_chol_t(contexts: Sequence["PointContext"]) -> None:
        """Fill :attr:`chol_t` of every context that has none yet, from one
        stacked ``cholesky`` per fiber.

        All contexts must belong to one spec.  This is the only way the
        slot is filled, and a stacked factor has the bits of a lone one, so
        the slot holds the same bits whoever filled it."""
        empty = PointContext._unfilled(contexts, lambda c: c._chol_t)
        if not empty:
            return
        factors = [np.linalg.cholesky(np.array([c.fiber_metrics[i]
                                                for c in empty]))
                   .swapaxes(-1, -2) for i in range(empty[0].spec.m)]
        _read_only(*factors)
        for k, c in enumerate(empty):
            if c._chol_t is None:
                c._chol_t = tuple(f[k] for f in factors)

    @property
    def warp_bundle(self) -> tuple[WarpData, ...]:
        """The derivative bundle of each warping (the potential for SSST)
        at the point."""
        if self._warp_bundle is None:
            PointContext.fill_warp_bundles([self])
        return self._warp_bundle

    @staticmethod
    def fill_warp_bundles(contexts: Sequence["PointContext"]) -> None:
        """Fill the warp bundle of every context that has none yet; each
        warping's jets come from one batched ``jet`` call.

        All contexts must belong to one spec.  This is the only way the
        slot is filled, and a jet at many points has the bits of one at
        each point, so the slot holds the same bits whoever filled it."""
        empty = PointContext._unfilled(contexts, lambda c: c._warp_bundle)
        if not empty:
            return
        fns = [getattr(w, "fn", w) for w in empty[0].spec.warpings]
        points = [c.base_point for c in empty]
        PointContext.fill_base_tensors(empty)
        if empty[0].base_tensors is None:
            # a warping of the base line takes t itself
            jets = [hd.jet(lambda x, fn=fn: fn(x[0]), points) for fn in fns]
            bundles = [tuple(_line_data(float(val[k]), grad[k], hess[k])
                             for val, grad, hess in jets)
                       for k in range(len(empty))]
        else:
            jets = [hd.jet(fn, points) for fn in fns]
            bundles = [tuple(_chart_data(c.base_tensors, float(val[k]),
                                         grad[k], hess[k])
                             for val, grad, hess in jets)
                       for k, c in enumerate(empty)]
        for c, bundle in zip(empty, bundles):
            if c._warp_bundle is None:
                c._warp_bundle = bundle

    @property
    def riemann_tensor(self) -> np.ndarray:
        """g(R(d_a, d_b) d_c, d_d) at the point in chart coordinates, from
        the warped-product case formulas
        (:func:`warpcurv.warped_formulas.riemann_tensor`); read-only."""
        if self._riemann is None:
            PointContext.fill_riemann_tensors([self])
        return self._riemann

    @staticmethod
    def fill_riemann_tensors(contexts: Sequence["PointContext"]) -> None:
        """Fill the curvature tensor of every context that has none yet,
        from one batched build.

        All contexts must belong to one spec.  This is the only way the
        slot is filled, and the build works point by point on stacked
        arrays, so the slot holds the same bits whoever filled it."""
        empty = PointContext._unfilled(contexts, lambda c: c._riemann)
        if not empty:
            return
        # warped_formulas builds on this module, so it is imported late
        from .warped_formulas import riemann_tensor
        tensors = riemann_tensor(empty[0].spec, empty)
        tensors.flags.writeable = False
        for c, r in zip(empty, tensors):
            if c._riemann is None:
                c._riemann = r


def _line_data(val: float, db: np.ndarray, ddb: np.ndarray) -> WarpData:
    """A scalar's bundle on the base line -dt^2, from its jet at t.

    Every object is closed form there, and its three signs are decided
    here once: ``|grad b|^2 = -(b')^2``, ``H^b(d_t, d_t) = b''``,
    ``lap b = -b''``."""
    d1, d2 = float(db[0]), float(ddb[0, 0])
    return WarpData(value=val, dcomps=db, hess=ddb, lap=-d2, grad_sq=-d1 * d1)


def _chart_data(t: CurvatureTensors, val: float, dphi: np.ndarray,
                ddphi: np.ndarray) -> WarpData:
    """A scalar's bundle on a chart base, from its jet at the point and the
    base's oracle tensors there."""
    hess, lap = chart_hessian(t, dphi, ddphi)
    return WarpData(value=val, dcomps=dphi, hess=hess, lap=lap,
                    grad_sq=float(dphi @ t.metric_inv @ dphi))


def _oracle(chart: CoordinateChart, points) -> list[CurvatureTensors]:
    """Batched oracle tensors at each point, as read-only arrays."""
    batch = riemann_oracle_batch(chart, points)
    for t in batch:
        _read_only(t.metric, t.metric_inv, t.gamma, t.riemann, t.ricci,
                   t.dmetric)
    return batch


def metric_eval(spec: ManifoldSpec, p: "Point | PointContext", X: TangentVector,
                Y: TangentVector) -> float:
    """g(X, Y) at p for the assembled warped-product metric."""
    return PointContext.of(spec, p).inner(X, Y)


def assemble_chart(spec: ManifoldSpec) -> CoordinateChart:
    """Flatten the warped product into one block-diagonal coordinate metric."""
    n = spec.dim
    fibers = spec.fibers
    nb = spec.base_dim

    if spec.kind == "SSST":
        f0 = fibers[0]
        pot = spec.potential

        def metric_at(coords):
            x = coords[1:]
            fv = pot(x)
            rows = [[0.0] * n for _ in range(n)]
            rows[0][0] = -(fv * fv)
            sub = f0.metric(x)
            for i in range(f0.dim):
                for j in range(f0.dim):
                    rows[1 + i][1 + j] = sub[i][j]
            return rows
    else:
        warpings = spec.warpings
        base_chart = spec.base_chart

        def metric_at(coords):
            base = coords[:nb]
            rows = [[0.0] * n for _ in range(n)]
            if base_chart is None:
                rows[0][0] = -1.0
                warg = base[0]
            else:
                gb = base_chart.metric_at(list(base))
                for i in range(nb):
                    for j in range(nb):
                        rows[i][j] = gb[i][j]
                warg = list(base)
            ofs = nb
            for k, f in enumerate(fibers):
                b2 = warpings[k](warg) ** 2
                sub = f.metric(coords[ofs:ofs + f.dim])
                for i in range(f.dim):
                    for j in range(f.dim):
                        rows[ofs + i][ofs + j] = b2 * sub[i][j]
                ofs += f.dim
            return rows

    def domain(coords):
        if spec.base_chart is None and not spec.base.contains(coords[0]):
            return False
        ofs = nb
        for f in fibers:
            if f.domain is not None and not f.domain(coords[ofs:ofs + f.dim]):
                return False
            ofs += f.dim
        return True

    return CoordinateChart(dim=n, metric_at=metric_at,
                           name=spec.name or spec.kind, domain=domain)


# ---------------------------------------------------------------------------
# null planes
# ---------------------------------------------------------------------------

def all_finite(*values) -> bool:
    """True when no value is NaN or infinite."""
    return all(map(math.isfinite, values))


class NullPlane(Frozen):
    """Degenerate plane span(L, S) at a point, with cached normalization data.

    ``context`` is the :class:`PointContext` the plane was built at, which
    the evaluators reuse.  ``form_inputs`` is a read-only slot for the
    inputs of the plane's closed forms:
    :func:`~warpcurv.null_sectional.closed_form` fills it from
    ``context`` on first use, after it validates the plane, so every
    formula path and display of one plane shares them.  Neither takes
    part in comparisons.
    """

    __slots__ = ("point", "L", "S", "frame_U", "g_LL", "g_LS", "g_SS",
                 "g_LU", "context", "form_inputs")
    _compared = __slots__[:8]

    def __init__(self, point: Point, L: TangentVector, S: TangentVector,
                 frame_U: TangentVector | None = None, g_LL: float = 0.0,
                 g_LS: float = 0.0, g_SS: float = 1.0, g_LU: float = -1.0,
                 context: PointContext | None = None):
        set_field(self, "point", point)
        set_field(self, "L", L)
        set_field(self, "S", S)
        set_field(self, "frame_U", frame_U)
        set_field(self, "g_LL", g_LL)
        set_field(self, "g_LS", g_LS)
        set_field(self, "g_SS", g_SS)
        set_field(self, "g_LU", g_LU)
        set_field(self, "context", context)
        set_field(self, "form_inputs", None)

    @classmethod
    def build(cls, spec: ManifoldSpec, point: Point, L: TangentVector,
              S: TangentVector, frame_U: TangentVector | None = None) -> "NullPlane":
        return PointContext(spec, point).plane(L, S, frame_U)

    @property
    def discriminant(self) -> float:
        """Q(L,S) = g(L,L) g(S,S) - g(L,S)^2; zero for a degenerate plane."""
        return self.g_LL * self.g_SS - self.g_LS ** 2

    def validate(self, tol: float = 1e-10) -> None:
        if not all_finite(self.g_LL, self.g_LS, self.g_SS, self.g_LU):
            raise PlaneError(
                f"non-finite plane data: g(L,L) = {self.g_LL}, "
                f"g(L,S) = {self.g_LS}, g(S,S) = {self.g_SS}, "
                f"g(L,U) = {self.g_LU}")
        scale = max(1.0, abs(self.g_SS))
        if abs(self.g_LL) > tol * scale:
            raise PlaneError(f"L not null: g(L,L) = {self.g_LL:.3e}")
        if self.g_SS <= tol * scale:
            raise PlaneError(f"S not spacelike: g(S,S) = {self.g_SS:.3e}")
        if abs(self.discriminant) > tol * scale * scale:
            raise PlaneError(f"plane not degenerate: Q = {self.discriminant:.3e}")
        if self.frame_U is not None and abs(self.g_LU + 1.0) > tol:
            raise PlaneError(f"frame normalization broken: g(L,U) = {self.g_LU:.6e}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _scalar_form_dict(obj) -> dict:
    if obj.form is None:
        raise ValidationError("custom warpings/potentials are not JSON-expressible")
    return {"form": obj.form, "params": obj.params}


def _fiber_dict(f: FiberSpec) -> dict:
    if f.model == "euclidean":
        return {"dim": f.dim, "model": "euclidean"}
    if f.model in ("sphere", "hyperbolic"):
        return {"dim": f.dim, "model": f.model, "radius": f.radius}
    if f.model == "schwarzschild_spatial":
        return {"dim": f.dim, "model": f.model, "mass": f.params["mass"]}
    raise ValidationError(f"custom fiber {f.model!r} is not JSON-expressible")


def _field(d, key: str, kind: type, where: str):
    """``d[key]``, checked to be a ``kind``; errors name the field."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where or 'spec'} must be an object, got {d!r}")
    name = f"{where}.{key}" if where else key
    if key not in d:
        raise ValidationError(f"spec: missing field {name!r}")
    val = d[key]
    if kind is float:
        return _number(val, f"spec: field {name!r}")
    if not isinstance(val, kind) or val == []:
        label = {dict: "an object", list: "a non-empty list", str: "a string"}
        raise ValidationError(
            f"spec: field {name!r} must be {label[kind]}, got {val!r}")
    return val


def _fiber_from_dict(d, where: str) -> FiberSpec:
    model = _field(d, "model", str, where)
    if model == "schwarzschild_spatial":
        return schwarzschild_spatial_fiber(_field(d, "mass", float, where))
    dim = _field(d, "dim", float, where)
    if not dim.is_integer() or not 1 <= dim <= MAX_CHART_DIM:
        raise ValidationError(f"spec: field '{where}.dim' must be an integer "
                              f"from 1 to {MAX_CHART_DIM}, got {dim!r}")
    if model == "euclidean":
        return euclidean_fiber(int(dim))
    if model in ("sphere", "hyperbolic"):
        radius = _field(d, "radius", float, where)
        if radius < 0.0:
            raise ValidationError(f"spec: field '{where}.radius' must not be "
                                  f"negative, got {radius!r}")
        if not math.isfinite(radius * radius):
            raise ValidationError(
                f"spec: field '{where}.radius' is out of range, got {radius!r}")
        make = sphere_fiber if model == "sphere" else hyperbolic_fiber
        return make(int(dim), radius)
    raise ValidationError(f"unknown fiber model {model!r}")


def _scalar_from_dict(cls, d, where: str):
    form = _field(d, "form", str, where)
    params = _field(d, "params", dict, where)
    try:
        return cls.from_form(form, params)
    except ValidationError as exc:
        raise ValidationError(f"spec: {where}: {exc}") from None


def spec_to_dict(spec: ManifoldSpec) -> dict:
    if spec.kind == "MultiplyWarped-generic":
        raise ValidationError("generic base charts are not JSON-expressible")
    base = {"t1": spec.base.t1, "t2": spec.base.t2}
    fibers = [_fiber_dict(f) for f in spec.fibers]
    out = {"kind": spec.kind, "base": base, "fibers": fibers}
    if spec.kind == "Kasner":
        out["warpings"] = [_scalar_form_dict(spec.phi)]
        out["kasner_exponents"] = list(spec.kasner_exponents)
    elif spec.kind == "SSST":
        out["warpings"] = [_scalar_form_dict(spec.potential)]
    else:
        out["warpings"] = [_scalar_form_dict(w) for w in spec.warpings]
    if spec.name:
        out["name"] = spec.name
    return out


def spec_from_dict(d: dict) -> ManifoldSpec:
    """The spec a dict describes, checked: a missing field, a value of the
    wrong type or a warping that is not positive raises ValidationError
    (the structure checks run in :class:`ManifoldSpec` itself)."""
    kind = _field(d, "kind", str, "")
    b = _field(d, "base", dict, "")
    base = Interval(_field(b, "t1", float, "base"), _field(b, "t2", float, "base"))
    fibers = [_fiber_from_dict(fd, f"fibers[{i}]")
              for i, fd in enumerate(_field(d, "fibers", list, ""))]
    name = _field(d, "name", str, "") if "name" in d else ""
    warpings = _field(d, "warpings", list, "")
    # a GRW or static model has one fiber and one warping, Kasner one phi
    for key in {"GRW": ("fibers", "warpings"), "SSST": ("fibers", "warpings"),
                "Kasner": ("warpings",)}.get(kind, ()):
        if len(d[key]) != 1:
            raise ValidationError(f"spec: field {key!r} must hold one entry "
                                  f"for kind {kind!r}, got {len(d[key])}")
    if kind == "Kasner":
        phi = _scalar_from_dict(WarpingFunction, warpings[0], "warpings[0]")
        exps = [_number(q, "spec: a Kasner exponent")
                for q in _field(d, "kasner_exponents", list, "")]
        spec = kasner_spec(base, phi, exps, fibers, name=name)
    elif kind == "SSST":
        pot = _scalar_from_dict(StaticPotential, warpings[0], "warpings[0]")
        spec = ssst_spec(base, pot, fibers[0], name=name)
    elif kind in ("GRW", "MGRW"):
        ws = [_scalar_from_dict(WarpingFunction, w, f"warpings[{i}]")
              for i, w in enumerate(warpings)]
        spec = (grw_spec(base, ws[0], fibers[0], name=name) if kind == "GRW"
                else mgrw_spec(base, ws, fibers, name=name))
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    return spec


def spec_to_json(spec: ManifoldSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(text: str) -> ManifoldSpec:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec is not valid JSON: {exc}") from None
    return spec_from_dict(d)


def spec_hash(spec: ManifoldSpec) -> str:
    import hashlib  # loads OpenSSL, which only this function needs
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()[:16]
