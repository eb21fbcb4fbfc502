"""The results files every benchmark series is written to."""

from __future__ import annotations

import json
import os
import platform

import numpy
import scipy

from benchmarks import support


def test_every_series_is_stamped(tmp_path, monkeypatch):
    monkeypatch.setattr(support, "RESULTS_JSON_PATH", str(tmp_path / "latest.json"))
    monkeypatch.setattr(support, "RESULTS_PATH", str(tmp_path / "latest.txt"))
    record = support.RunRecord(
        dataset="students",
        algorithm="NAIVE",
        distance="QD",
        feasible=True,
        timed_out=False,
        setup_seconds=0.1,
        solve_seconds=0.2,
        total_seconds=0.3,
    )
    support.print_records("stamp check", [record])
    support.print_records("stamp check, again", [record])

    with open(tmp_path / "latest.json") as handle:
        series = json.load(handle)["series"]
    assert list(series) == ["stamp check", "stamp check, again"]
    for entry in series.values():
        stamp = entry["stamp"]
        assert set(stamp) == {
            "commit", "dirty", "source_sha256", "nproc", "python", "numpy", "scipy", "highs",
        }
        assert stamp["nproc"] == os.cpu_count()
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == numpy.__version__
        assert stamp["scipy"] == scipy.__version__
        assert stamp["highs"].count(".") == 2
        if stamp["commit"] is not None:
            assert len(stamp["commit"]) == 40
            assert isinstance(stamp["dirty"], bool)
        assert len(stamp["source_sha256"]) == 64
