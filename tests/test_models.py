"""Catalog integrity: entries, fact checking through both code paths,
JSON round trips, plane-construction robustness."""

import numpy as np
import pytest

from warpcurv import (Point, PointContext, by_name, catalog, sample_plane,
                      spec_from_json, spec_to_json, validate_entry)
from warpcurv.errors import ValidationError

EXPECTED_NAMES = {
    "minkowski",
    "einstein_static",
    "anti_de_sitter_cover",
    "schwarzschild_exterior",
    "kasner_vacuum",
    "kasner_flat",
    "grw_exponential",
    "generalized_reissner_nordstrom_demo",
}


class TestCatalogContents:
    def test_all_models_present(self):
        assert {e.name for e in catalog()} == EXPECTED_NAMES

    def test_callers_cannot_change_the_catalog(self):
        models = catalog()
        assert isinstance(models, tuple)
        with pytest.raises(AttributeError):
            models.reverse()
        with pytest.raises(AttributeError):
            models.pop()
        assert catalog() == models
        assert by_name("minkowski").name == "minkowski"

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            by_name("goedel")

    def test_every_entry_has_checkable_facts(self):
        from warpcurv.models import _CHECKERS
        for entry in catalog():
            assert entry.known_facts
            for fact in entry.known_facts:
                assert fact.quantity in _CHECKERS

    def test_kasner_exponent_constraints(self):
        for name in ("kasner_vacuum", "kasner_flat"):
            ps = by_name(name).spec.kasner_exponents
            assert sum(ps) == pytest.approx(1.0, abs=1e-15)
            assert sum(p * p for p in ps) == pytest.approx(1.0, abs=1e-15)

    def test_schwarzschild_mass_parameter(self):
        spec = by_name("schwarzschild_exterior").spec
        assert spec.potential.params == {"m": 1.0}
        assert spec.fibers[0].params == {"mass": 1.0}


class TestValidateEntry:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_all_facts_pass_both_paths(self, entry):
        report = validate_entry(entry, seed=1, n_planes=15)
        assert report["all_pass"], [r for r in report["rows"] if not r["pass"]]

    def test_printed_path_failures_are_recorded_not_raised(self):
        """The published exponential-warping identity check fails through
        the printed corollary and is recorded as a failing row."""
        report = validate_entry(by_name("grw_exponential"), seed=1,
                                n_planes=10, include_printed=True)
        printed_rows = [r for r in report["rows"] if r["path"] == "printed"]
        assert printed_rows
        assert any(not r["pass"] for r in printed_rows)
        assert report["all_pass"]  # derived/oracle rows still pass

    def test_report_shape(self):
        report = validate_entry(by_name("minkowski"), seed=2, n_planes=5)
        for row in report["rows"]:
            assert {"quantity", "where", "path", "expected", "tol",
                    "observed", "pass"} <= set(row)


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_bit_identical_round_trip(self, entry):
        text = spec_to_json(entry.spec)
        clone = spec_from_json(text)
        assert spec_to_json(clone) == text

    def test_clone_behaves_identically(self):
        entry = by_name("kasner_vacuum")
        clone = spec_from_json(spec_to_json(entry.spec))
        p = Point(1.3, entry.default_point().fiber_coords)

        def derivatives(spec):
            """(b_i, b_i', b_i'') of each warping at p."""
            return [(w.value, float(w.dcomps[0]), float(w.hess[0, 0]))
                    for w in PointContext(spec, p).warp_bundle]

        assert len(derivatives(clone)) == 3
        assert derivatives(clone) == derivatives(entry.spec)


class TestPlaneRobustness:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_hundred_seeds_construct_planes(self, entry):
        """100 independent seeds produce valid planes, no exceptions,
        guard bands keeping clear of chart singularities."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p = entry.random_point(rng)
            plane = sample_plane(entry.spec, p, rng)
            plane.validate(tol=1e-9)
