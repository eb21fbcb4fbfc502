"""Tests for the shadow rollout facade."""

from __future__ import annotations

import pytest

from repro.service import RefinementEngine, RefineRequest, ShadowEngine
from repro.service.engine import ConstraintSpec
from repro.service.shadow import comparable


def request(method: str = "milp+opt") -> RefineRequest:
    return RefineRequest(
        dataset="students",
        constraints=(ConstraintSpec("at_least", 3, 6, (("Gender", "F"),)),),
        epsilon=0.0,
        method=method,
    )


class TestShadowEngine:
    def test_rejects_out_of_range_rate(self):
        engine = RefinementEngine()
        with pytest.raises(ValueError):
            ShadowEngine(engine, "naive", sample_rate=1.5)
        with pytest.raises(ValueError):
            ShadowEngine(engine, "naive", sample_rate=-0.1)

    def test_rate_zero_never_samples(self):
        shadow = ShadowEngine(RefinementEngine(), "naive+prov", sample_rate=0.0)
        for _ in range(5):
            shadow.refine(request())
        assert shadow.report.requests == 5
        assert shadow.report.sampled == 0
        assert shadow.report.diffs == []

    def test_rate_one_agreeing_engines_zero_diffs(self):
        """Full shadowing of two engines that agree reports a clean rollout."""
        shadow = ShadowEngine(RefinementEngine(), "naive+prov", sample_rate=1.0)
        for _ in range(3):
            response = shadow.refine(request("milp+opt"))
            assert response.method == "milp+opt"  # primary always answers
        report = shadow.report
        assert report.requests == 3
        assert report.sampled == 3
        assert report.matched == 3
        assert report.shadow_errors == 0
        assert report.diffs == []
        assert report.clean

    def test_same_method_is_not_mirrored(self):
        shadow = ShadowEngine(RefinementEngine(), "milp+opt", sample_rate=1.0)
        shadow.refine(request("milp+opt"))
        assert shadow.report.requests == 1
        assert shadow.report.sampled == 0

    def test_disagreement_is_recorded_not_raised(self, monkeypatch):
        engine = RefinementEngine()
        shadow = ShadowEngine(engine, "naive+prov", sample_rate=1.0)
        original = RefinementEngine._refine

        def skewed(self, req):
            response = original(self, req)
            if req.method == "naive+prov":
                response.distance_value = 0.75  # force a divergent shadow answer
            return response

        monkeypatch.setattr(RefinementEngine, "_refine", skewed)
        response = shadow.refine(request("milp+opt"))
        assert response.method == "milp+opt"
        assert shadow.report.sampled == 1
        assert shadow.report.matched == 0
        assert len(shadow.report.diffs) == 1
        diff = shadow.report.diffs[0]
        assert diff.primary["distance_value"] != diff.shadow["distance_value"]
        assert not shadow.report.clean

    def test_shadow_error_is_counted_not_raised(self, monkeypatch):
        engine = RefinementEngine()
        shadow = ShadowEngine(engine, "naive+prov", sample_rate=1.0)
        original = RefinementEngine._refine

        def flaky(self, req):
            if req.method == "naive+prov":
                raise RuntimeError("shadow exploded")
            return original(self, req)

        monkeypatch.setattr(RefinementEngine, "_refine", flaky)
        response = shadow.refine(request("milp+opt"))
        assert response.feasible is not None
        assert shadow.report.shadow_errors == 1
        assert not shadow.report.clean

    def test_deterministic_sampling(self):
        def sampled_pattern(seed: int) -> list[int]:
            shadow = ShadowEngine(
                RefinementEngine(), "naive+prov", sample_rate=0.5, seed=seed
            )
            pattern = []
            for _ in range(8):
                before = shadow.report.sampled
                shadow.refine(request("milp+opt"))
                pattern.append(shadow.report.sampled - before)
            return pattern

        assert sampled_pattern(3) == sampled_pattern(3)

    def test_report_serializes(self):
        shadow = ShadowEngine(RefinementEngine(), "naive+prov", sample_rate=1.0)
        shadow.refine(request("milp+opt"))
        data = shadow.report.to_dict()
        assert data["shadow_method"] == "naive+prov"
        assert data["sampled"] == 1
        assert data["diffs"] == []


class TestComparable:
    def test_rounds_distances(self):
        engine = RefinementEngine()
        response = engine.refine(request())
        facts = comparable(response)
        assert set(facts) == {"feasible", "distance_value", "deviation"}
