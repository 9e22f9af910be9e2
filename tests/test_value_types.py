"""The immutable value types: a field can be neither set nor deleted, two
instances with equal fields compare and hash equal, ``repr`` names the
class and its fields, and copying or pickling gives an equal instance."""

import copy
import math
import pickle

import numpy as np
import pytest

from warpcurv import (CatalogEntry, CoordinateChart, CurvatureTensors,
                      FiberSpec, Interval, KnownFact, ManifoldSpec,
                      NullPlane, Point, PointContext, StaticPotential,
                      TangentVector, WarpingFunction, by_name,
                      euclidean_fiber)
from warpcurv.core_types import WarpData
from warpcurv.null_sectional import _StaticData, _TimeData


def _metric(x):
    return [[1.0]]


_ENTRY = by_name("minkowski")
_SPEC = _ENTRY.spec
_POINT = _ENTRY.default_point()
_L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
_S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
_ONE = WarpingFunction.constant(1.0)
_A3, _A33 = np.zeros(3), np.zeros((3, 3))
_T3 = (1.0, 2.0, 3.0)

# type -> the fields of one instance (keyword arguments of its constructor)
FIELDS = {
    Interval: dict(t1=0.0, t2=1.0),
    WarpingFunction: dict(fn=_ONE.fn, form="poly", params=None),
    StaticPotential: dict(fn=_metric, form=None, params=None),
    FiberSpec: dict(dim=1, metric=_metric, curvature_tag="euclidean",
                    model="line", radius=None, params={}, coord_names=("x",),
                    domain=None, sample_coords=(0.1,)),
    ManifoldSpec: dict(kind="GRW", base=Interval(-math.inf, math.inf),
                       warpings=(_ONE,), fibers=(euclidean_fiber(2),)),
    Point: dict(t=0.5, fiber_coords=((0.1, 0.2, 0.3),)),
    TangentVector: dict(base_part=-1.0, fiber_parts=((1.0, 0.0, 0.0),)),
    NullPlane: dict(point=_POINT, L=_L, S=_S, frame_U=None, g_LL=0.0,
                    g_LS=0.0, g_SS=1.0, g_LU=-1.0),
    WarpData: dict(value=1.0, dcomps=_A3, hess=_A33, lap=0.0, grad_sq=0.0),
    KnownFact: dict(quantity="ricci_zero", where="everywhere", expected=0.0,
                    tol=1e-10, provenance="flat", params={}),
    CatalogEntry: dict(name="flat", spec=_SPEC, known_facts=(),
                       base_window=(-1.0, 1.0), fiber_windows=()),
    CoordinateChart: dict(dim=1, metric_at=_metric, name="line", domain=None),
    CurvatureTensors: dict(point=(0.0,), metric=_A33, metric_inv=_A33,
                           gamma=_A3, riemann=_A3, ricci=_A33, dmetric=_A3),
    _TimeData: dict(b=_T3, db=_T3, ddb=_T3, gVV=_T3, gVW=_T3, gWW=_T3, rF=_T3,
                    h=0.5, v=_T3, w=_T3, ps=None, phi=None),
    _StaticData: dict(f=1.0, h=0.5, gVV=0.6, gVW=0.7, gWW=0.8, hVV=0.1,
                      hVW=0.2, hWW=0.3, rF=0.4, grad_sq=0.5),
}
# the types whose instances hash; the others hold a dict or an array
HASHABLE = {Interval, WarpingFunction, StaticPotential, Point, TangentVector,
            NullPlane, CoordinateChart, _TimeData, _StaticData}

TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


def pair(cls):
    return cls(**FIELDS[cls]), cls(**FIELDS[cls])


@TYPES
def test_fields_cannot_be_set_or_deleted(cls):
    a, _ = pair(cls)
    for name in FIELDS[cls]:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@TYPES
def test_equal_fields_compare_and_hash_equal(cls):
    a, b = pair(cls)
    assert a is not b and a == b and not a != b
    assert a != object()
    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@TYPES
def test_repr_names_the_class_and_its_fields(cls):
    text = repr(cls(**FIELDS[cls]))
    assert text.startswith(f"{cls.__qualname__}(")
    for name in FIELDS[cls]:
        assert f"{name}=" in text


@pytest.mark.parametrize("cls", [Interval, Point, TangentVector, NullPlane],
                         ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    a = cls(**FIELDS[cls])
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_a_field_that_differs_makes_instances_differ():
    assert Point(0.5, ((0.1,),)) != Point(0.6, ((0.1,),))
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
    assert TangentVector(1.0, ()) != TangentVector(-1.0, ())


def test_null_plane_ignores_context_and_form_inputs():
    ctx = PointContext(_SPEC, _POINT)
    a = NullPlane(**FIELDS[NullPlane], context=ctx)
    b = NullPlane(**FIELDS[NullPlane])
    assert a.context is ctx and b.context is None
    assert a.form_inputs is None
    object.__setattr__(a, "form_inputs", ("filled",))
    assert a == b and hash(a) == hash(b)
    assert "context" not in repr(a) and "form_inputs" not in repr(a)
    with pytest.raises(AttributeError):
        a.form_inputs = None
    with pytest.raises(TypeError):
        NullPlane(**FIELDS[NullPlane], form_inputs=None)


def test_defaults_and_factories():
    iv = Interval(0.0, 1.0)
    f = FiberSpec(1, _metric)
    g = FiberSpec(1, _metric)
    assert (f.curvature_tag, f.model, f.radius, f.coord_names, f.domain,
            f.sample_coords) == ("generic", "custom", None, (), None, ())
    assert f.params == {} and f.params is not g.params
    assert KnownFact("q", "w", 0.0, 0.0, "p").params == {}
    spec = ManifoldSpec("GRW", iv, (_ONE,), (euclidean_fiber(2),))
    assert (spec.kasner_exponents, spec.phi, spec.potential, spec.base_chart,
            spec.name) == (None, None, None, None, "")
    plane = NullPlane(_POINT, _L, _S)
    assert (plane.frame_U, plane.g_LL, plane.g_LS, plane.g_SS, plane.g_LU,
            plane.context, plane.form_inputs) == (None, 0.0, 0.0, 1.0, -1.0,
                                                  None, None)
    assert CoordinateChart(2, _metric).name == "chart"
    assert CurvatureTensors((0.0,), _A33, _A33, _A3, _A3, _A33).dmetric is None
    assert WarpingFunction(_ONE.fn).params is None


def test_warp_data_arrays_are_read_only():
    d = WarpData(1.0, np.zeros(2), np.zeros((2, 2)), 0.0, 0.0)
    for a in (d.dcomps, d.hess):
        assert not a.flags.writeable
