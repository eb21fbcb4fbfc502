"""The results files every benchmark series is written to."""

from __future__ import annotations

import ast
import glob
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


def _written_titles() -> tuple[set[str], set[str]]:
    """The series titles the benchmarks write: ``(literals, f-string prefixes)``."""
    literals: set[str] = set()
    prefixes: set[str] = set()
    for path in glob.glob(os.path.join(os.path.dirname(__file__), "*.py")):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            function = node.func
            if isinstance(function, ast.Attribute):
                name = function.attr
            else:
                name = getattr(function, "id", None)
            if name != "print_records":
                continue
            title = node.args[0]
            if isinstance(title, ast.Constant) and isinstance(title.value, str):
                literals.add(title.value)
            elif isinstance(title, ast.JoinedStr):
                prefix = ""
                for part in title.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                assert prefix, f"{path}: a title must start with literal text"
                prefixes.add(prefix)
    return literals, prefixes


def test_every_recorded_series_is_still_written_by_a_benchmark():
    """A series no benchmark writes any more can never be refreshed, so a
    number in it describes code that is gone."""
    with open(support.RESULTS_JSON_PATH) as handle:
        titles = list(json.load(handle)["series"])
    literals, prefixes = _written_titles()
    stale = [
        title
        for title in titles
        if title not in literals and not any(title.startswith(p) for p in prefixes)
    ]
    assert stale == []
