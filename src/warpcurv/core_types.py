"""Declarative spacetime model: intervals, warpings, fibers, points, vectors.

A :class:`ManifoldSpec` describes a (multiply) warped product spacetime in
one of four kinds:

* ``MGRW``   : interval base with metric -dt^2, m warped Riemannian fibers
* ``GRW``    : the m = 1 case
* ``Kasner`` : MGRW whose warpings are powers ``phi**p_i`` of one scale
* ``SSST``   : standard static form -f^2 dt^2 (+) g_F, potential f on the fiber
* ``MultiplyWarped-generic`` : arbitrary base chart (library API only)

Everything is immutable after construction and purely functional; values
can be shared freely between threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import hyperdual as hd
from .errors import DomainError, ShapeError, ValidationError
from .hyperdual import value
from .tensor_oracle import CoordinateChart, sectional_curvature_oracle

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
    "PointMetric",
    "metric_eval",
    "assemble_chart",
    "flatten",
    "split",
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

@dataclass(frozen=True)
class Interval:
    """Open interval (t1, t2); endpoints may be -inf / +inf and are never evaluated."""

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 < self.t2:
            raise ValidationError(f"interval requires t1 < t2, got ({self.t1}, {self.t2})")

    def contains(self, t: float, margin: float = INTERIOR_MARGIN) -> bool:
        lo = True if math.isinf(self.t1) else t - self.t1 >= margin
        hi = True if math.isinf(self.t2) else self.t2 - t >= margin
        return lo and hi

    def require(self, t: float) -> None:
        if not self.contains(t):
            raise DomainError(f"t = {t} is not strictly inside ({self.t1}, {self.t2})")

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


def _form_scalar(form: str, params: dict) -> Callable:
    if form == "power":
        c, q = float(params["c"]), float(params["q"])
        return lambda t: c * hd.power(t, q)
    if form == "exp":
        c, k = float(params["c"]), float(params["k"])
        return lambda t: c * hd.exp(k * t)
    if form == "poly":
        coeffs = [float(a) for a in params["coeffs"]]
        def poly(t, _c=tuple(coeffs)):
            acc = _c[-1]
            for a in reversed(_c[:-1]):
                acc = acc * t + a
            return acc
        return poly
    if form == "cosh":
        c, k = float(params["c"]), float(params["k"])
        return lambda t: c * hd.cosh(k * t)
    if form == "schwarzschild":
        m = float(params["m"])
        return lambda r: hd.sqrt(1.0 - 2.0 * m / r)
    raise ValidationError(f"unknown scalar form {form!r}")


@dataclass(frozen=True)
class WarpingFunction:
    """Smooth positive scalar on the base interval, with exact b', b''.

    Derivatives come from hyper-dual evaluation of ``fn``, so ``fn`` must be
    written against the generic math helpers in :mod:`warpcurv.hyperdual`.
    """

    fn: Callable
    form: str | None = None
    params: dict | None = None

    @classmethod
    def from_form(cls, form: str, params: dict) -> "WarpingFunction":
        return cls(fn=_form_scalar(form, params), form=form, params=dict(params))

    @classmethod
    def constant(cls, c: float = 1.0) -> "WarpingFunction":
        return cls.from_form("poly", {"coeffs": [float(c)]})

    def __call__(self, t):
        return self.fn(t)

    def derivatives(self, t: float) -> tuple[float, float, float]:
        """(b, b', b'') at t."""
        return hd.scalar_derivatives(self.fn, t)

    def check_positive(self, interval: Interval, n: int = 25) -> None:
        for t in interval.sample_points(n):
            b = value(self.fn(t))
            if not b > 0.0:
                raise ValidationError(f"warping must be positive; got {b} at t = {t}")


@dataclass(frozen=True)
class StaticPotential:
    """Positive scalar f on the fiber of a standard static spacetime.

    ``fn`` maps fiber coordinates (floats or hyper-duals) to a scalar;
    gradient and Hessian data is obtained through the fiber chart oracle.
    """

    fn: Callable
    form: str | None = None
    params: dict | None = None

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

@dataclass(frozen=True)
class FiberSpec:
    """A Riemannian factor: coordinate metric plus optional curvature tag.

    ``curvature_tag`` one of ``euclidean`` / ``sphere`` / ``hyperbolic`` /
    ``generic``; tagged fibers unlock the constant-curvature closed form
    for their Riemann tensor, generic fibers fall back to the chart oracle.
    """

    dim: int
    metric: Callable[[Sequence], Sequence]
    curvature_tag: str = "generic"
    model: str = "custom"
    radius: float | None = None
    params: dict = field(default_factory=dict)
    coord_names: tuple[str, ...] = ()
    domain: Callable[[Sequence[float]], bool] | None = None
    sample_coords: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("fiber dimension must be >= 1")
        if self.curvature_tag not in ("euclidean", "sphere", "hyperbolic", "generic"):
            raise ValidationError(f"unknown curvature tag {self.curvature_tag!r}")
        if self.coord_names and len(self.coord_names) != self.dim:
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
        return np.array([[value(rows[i][j]) for j in range(self.dim)]
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


def sphere_fiber(dim: int, radius: float = 1.0) -> FiberSpec:
    """Round sphere of the given radius in hyperspherical coordinates."""
    r2 = float(radius) ** 2
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
                     radius=float(radius), coord_names=names, domain=guard,
                     sample_coords=sample)


def hyperbolic_fiber(dim: int, radius: float = 1.0) -> FiberSpec:
    """Hyperbolic space of curvature -1/radius^2 in polar coordinates."""
    r2 = float(radius) ** 2
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
                     model="hyperbolic", radius=float(radius), coord_names=names,
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


@dataclass(frozen=True)
class ManifoldSpec:
    """Declarative multiply warped product; see module docstring for kinds."""

    kind: str
    base: Interval
    warpings: tuple = ()
    fibers: tuple = ()
    kasner_exponents: tuple[float, ...] | None = None
    phi: WarpingFunction | None = None
    potential: StaticPotential | None = None
    base_chart: CoordinateChart | None = None
    name: str = ""

    def __post_init__(self):
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

    def warping_derivatives(self, i: int, t: float) -> tuple[float, float, float]:
        """(b_i, b_i', b_i'') at base coordinate t."""
        return self.warpings[i].derivatives(t)

    def potential_value(self, fiber_coords: Sequence[float]) -> float:
        return value(self.potential(list(fiber_coords)))

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
        """Spot-check warping positivity and fiber SPD at sample points."""
        for w in self.warpings:
            if isinstance(w, WarpingFunction):
                w.check_positive(self.base)
        for f in self.fibers:
            if f.sample_coords:
                f.check_spd(f.sample_coords)
        if self.kind == "SSST" and self.fibers[0].sample_coords:
            if not self.potential_value(self.fibers[0].sample_coords) > 0:
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
    hyper-dual evaluable.
    """
    return ManifoldSpec(kind="MultiplyWarped-generic",
                        base=Interval(-math.inf, math.inf),
                        warpings=tuple(warpings), fibers=tuple(fibers),
                        base_chart=base_chart, name=name)


# ---------------------------------------------------------------------------
# points and tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """Base coordinate plus one coordinate tuple per fiber."""

    t: float | tuple
    fiber_coords: tuple

    def validate(self, spec: ManifoldSpec) -> None:
        if spec.base_chart is None:
            spec.base.require(float(self.t))
        if len(self.fiber_coords) != spec.m:
            raise ShapeError(f"expected {spec.m} fiber coordinate tuples")
        for f, x in zip(spec.fibers, self.fiber_coords):
            if len(x) != f.dim:
                raise ShapeError(f"fiber {f.model} expects {f.dim} coordinates")
            if f.domain is not None and not f.domain(list(map(float, x))):
                raise DomainError(f"fiber point {tuple(x)} outside {f.model} chart")

    def flat(self, spec: ManifoldSpec) -> tuple[float, ...]:
        base = tuple(self.t) if isinstance(self.t, tuple) else (float(self.t),)
        return base + tuple(float(c) for x in self.fiber_coords for c in x)


@dataclass(frozen=True)
class TangentVector:
    """Base coefficient (on d_t, or base components) plus per-fiber components."""

    base_part: float | tuple
    fiber_parts: tuple

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


def split(components: Sequence[float], spec: ManifoldSpec) -> TangentVector:
    """Inverse of :func:`flatten` for the given spec."""
    comps = tuple(float(c) for c in components)
    if len(comps) != spec.dim:
        raise ShapeError(f"expected {spec.dim} components, got {len(comps)}")
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
    comps = tuple(float(c) for c in coords)
    if len(comps) != spec.dim:
        raise ShapeError(f"expected {spec.dim} coordinates, got {len(comps)}")
    nb = spec.base_dim
    base = comps[:nb] if spec.base_chart is not None else comps[0]
    parts = []
    ofs = nb
    for f in spec.fibers:
        parts.append(comps[ofs:ofs + f.dim])
        ofs += f.dim
    return Point(base, tuple(parts))


# ---------------------------------------------------------------------------
# the product metric
# ---------------------------------------------------------------------------

def _fiber_inner(rows, v, w) -> float:
    acc = 0.0
    for i in range(len(rows)):
        if v[i] == 0.0:
            continue
        for j in range(len(rows)):
            if w[j] == 0.0:
                continue
            acc += v[i] * rows[i][j] * w[j]
    return acc


class PointMetric:
    """The assembled warped-product metric at one point.

    Built once per point: it validates the point and evaluates each
    warping (the potential f for SSST) and each fiber metric a single
    time, keeping them as floats.  :meth:`inner` then only contracts, so
    a caller taking many products at one point pays for the warpings and
    fiber metrics once.  Immutable after construction.
    """

    __slots__ = ("spec", "point", "warps", "fiber_rows", "base_rows")

    def __init__(self, spec: ManifoldSpec, p: Point):
        p.validate(spec)
        self.spec = spec
        self.point = p
        self.base_rows = None
        if spec.kind == "SSST":
            self.warps = (spec.potential_value(p.fiber_coords[0]),)
        else:
            if spec.base_chart is not None:
                self.base_rows = np.array(
                    [[value(e) for e in row]
                     for row in spec.base_chart.metric_at(list(p.t))], dtype=float)
                warp_args = list(p.t)
            else:
                warp_args = float(p.t)
            self.warps = tuple(value(w(warp_args)) for w in spec.warpings)
        self.fiber_rows = tuple(
            tuple(tuple(value(e) for e in row) for row in f.metric(list(x)))
            for f, x in zip(spec.fibers, p.fiber_coords))

    @classmethod
    def of(cls, spec: ManifoldSpec, p: "Point | PointMetric") -> "PointMetric":
        """The metric at ``p``; ``p`` itself if it already is one for spec."""
        if isinstance(p, cls):
            if p.spec is not spec:
                raise ValidationError("point metric belongs to another spec")
            return p
        return cls(spec, p)

    def inner(self, X: TangentVector, Y: TangentVector) -> float:
        """g(X, Y) at the point."""
        spec = self.spec
        X.validate(spec)
        Y.validate(spec)
        if spec.kind == "SSST":
            acc = -(self.warps[0] ** 2) * X.base_part * Y.base_part
            acc += _fiber_inner(self.fiber_rows[0], X.fiber_parts[0],
                                Y.fiber_parts[0])
            return acc
        if self.base_rows is not None:
            acc = float(np.asarray(X.base_part) @ self.base_rows
                        @ np.asarray(Y.base_part))
        else:
            acc = -X.base_part * Y.base_part
        for b, rows, v, w in zip(self.warps, self.fiber_rows, X.fiber_parts,
                                 Y.fiber_parts):
            acc += b * b * _fiber_inner(rows, v, w)
        return acc

    def plane(self, L: TangentVector, S: TangentVector,
              frame_U: TangentVector | None = None) -> "NullPlane":
        """span(L, S) at the point with its normalization data."""
        return NullPlane(point=self.point, L=L, S=S, frame_U=frame_U,
                         g_LL=self.inner(L, L), g_LS=self.inner(L, S),
                         g_SS=self.inner(S, S),
                         g_LU=self.inner(L, frame_U) if frame_U is not None
                         else -1.0)


def metric_eval(spec: ManifoldSpec, p: Point, X: TangentVector,
                Y: TangentVector) -> float:
    """g(X, Y) at p for the assembled warped-product metric."""
    return PointMetric(spec, p).inner(X, Y)


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

@dataclass(frozen=True)
class NullPlane:
    """Degenerate plane span(L, S) at a point, with cached normalization data."""

    point: Point
    L: TangentVector
    S: TangentVector
    frame_U: TangentVector | None = None
    g_LL: float = 0.0
    g_LS: float = 0.0
    g_SS: float = 1.0
    g_LU: float = -1.0

    @classmethod
    def build(cls, spec: ManifoldSpec, point: Point, L: TangentVector,
              S: TangentVector, frame_U: TangentVector | None = None) -> "NullPlane":
        return PointMetric(spec, point).plane(L, S, frame_U)

    @property
    def discriminant(self) -> float:
        """Q(L,S) = g(L,L) g(S,S) - g(L,S)^2; zero for a degenerate plane."""
        return self.g_LL * self.g_SS - self.g_LS ** 2

    def validate(self, tol: float = 1e-10) -> None:
        from .errors import PlaneError
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


def _fiber_from_dict(d: dict) -> FiberSpec:
    model = d["model"]
    if model == "euclidean":
        return euclidean_fiber(int(d["dim"]))
    if model == "sphere":
        return sphere_fiber(int(d["dim"]), float(d["radius"]))
    if model == "hyperbolic":
        return hyperbolic_fiber(int(d["dim"]), float(d["radius"]))
    if model == "schwarzschild_spatial":
        return schwarzschild_spatial_fiber(float(d["mass"]))
    raise ValidationError(f"unknown fiber model {model!r}")


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
    kind = d["kind"]
    b = d["base"]
    base = Interval(float(b["t1"]), float(b["t2"]))
    fibers = [_fiber_from_dict(fd) for fd in d["fibers"]]
    name = d.get("name", "")
    if kind == "Kasner":
        w = d["warpings"][0]
        phi = WarpingFunction.from_form(w["form"], w["params"])
        return kasner_spec(base, phi, d["kasner_exponents"], fibers, name=name)
    if kind == "SSST":
        w = d["warpings"][0]
        pot = StaticPotential.from_form(w["form"], w["params"])
        return ssst_spec(base, pot, fibers[0], name=name)
    warpings = [WarpingFunction.from_form(w["form"], w["params"])
                for w in d["warpings"]]
    if kind == "GRW":
        return grw_spec(base, warpings[0], fibers[0], name=name)
    if kind == "MGRW":
        return mgrw_spec(base, warpings, fibers, name=name)
    raise ValidationError(f"unknown kind {kind!r}")


def spec_to_json(spec: ManifoldSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(text: str) -> ManifoldSpec:
    return spec_from_dict(json.loads(text))


def spec_hash(spec: ManifoldSpec) -> str:
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()[:16]
