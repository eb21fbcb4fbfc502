"""``scripts/perf_pairs.py`` reads paired perfbench runs as the acceptance rule does."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


perf_pairs = _load()

#: The benchmark's end-to-end metrics (as BENCHMARK.json declares them).
BENCHMARK = {
    "end_to_end": [
        {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "correct_share", "unit": "share", "better": "higher", "bound": 0.05},
    ]
}


def _runs(tmp_path, side, values, failed=0):
    """One output file per run; ``values`` maps a metric to its run values,
    and each run fails ``failed`` of its 20 answers."""
    count = len(next(iter(values.values())))
    paths = []
    for index in range(count):
        metrics = {
            name: {"value": series[index], "unit": "x"} for name, series in values.items()
        }
        result = {"correct": True, "attempted": 20, "failed": failed, "metrics": metrics}
        path = tmp_path / f"{side}{index}.out"
        path.write_text(f"# seed {index}\n{json.dumps(result)}\n")
        paths.append(str(path))
    return paths


def _run(tmp_path, parent, change, capsys, failed=(0, 0)):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    status = perf_pairs.main(
        ["--workload", "exhaustive_warm", "--benchmark", str(benchmark),
         "--parent", *_runs(tmp_path, "parent", parent, failed[0]),
         "--change", *_runs(tmp_path, "change", change, failed[1])]
    )
    table = capsys.readouterr().out
    verdicts = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            verdicts[cells[0].split("`")[1]] = (cells[5], cells[6])
    return status, verdicts, table


STEADY = [1.0] * 10


def test_a_clear_latency_gain(tmp_path, capsys):
    parent = {
        "latency_p50_s": [0.060, 0.066, 0.062, 0.070, 0.064, 0.061, 0.068, 0.063, 0.065, 0.067],
        "requests_per_s": [16.2, 16.9, 17.4, 16.5, 18.0, 17.1, 16.8, 17.7, 16.4, 17.0],
        "correct_share": STEADY,
    }
    change = {
        "latency_p50_s": [0.015, 0.014, 0.016, 0.015, 0.014, 0.016, 0.015, 0.015, 0.014, 0.016],
        "requests_per_s": [26.6, 27.1, 28.0, 27.5, 29.8, 26.9, 27.7, 28.4, 27.2, 28.8],
        "correct_share": STEADY,
    }
    status, verdicts, table = _run(tmp_path, parent, change, capsys)
    assert status == 0
    assert verdicts["latency_p50_s"] == ("10 of 10", "gain")
    assert verdicts["requests_per_s"] == ("10 of 10", "gain")
    # Ties count for neither side.
    assert verdicts["correct_share"] == ("0 of 10", "flat")
    assert "parent: 0 of 200 answers failed" in table


def test_nine_wins_and_a_gap_above_the_iqr_is_a_gain_eight_is_not(tmp_path, capsys):
    parent = {"latency_p50_s": [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]}
    nine = {"latency_p50_s": [0.9] * 9 + [1.05]}
    eight = {"latency_p50_s": [0.9] * 8 + [1.05, 1.05]}
    assert _run(tmp_path, parent, nine, capsys)[1]["latency_p50_s"] == ("9 of 10", "gain")
    assert _run(tmp_path, parent, eight, capsys)[1]["latency_p50_s"] == ("8 of 10", "flat")


def test_a_win_inside_the_parent_iqr_is_flat(tmp_path, capsys):
    parent = {"latency_p50_s": [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]}
    change = {"latency_p50_s": [value - 0.01 for value in parent["latency_p50_s"]]}
    status, verdicts, _ = _run(tmp_path, parent, change, capsys)
    assert status == 0
    assert verdicts["latency_p50_s"] == ("10 of 10", "flat")


def test_worse_beyond_the_bound_fails(tmp_path, capsys):
    parent = {"requests_per_s": [10.0] * 10, "correct_share": STEADY}
    change = {"requests_per_s": [7.0] * 10, "correct_share": [0.9] * 10}
    status, verdicts, _ = _run(tmp_path, parent, change, capsys)
    assert status == 1
    assert verdicts["requests_per_s"] == ("0 of 10", "worse")
    assert verdicts["correct_share"] == ("0 of 10", "worse")


def test_worse_within_the_bound_passes(tmp_path, capsys):
    parent = {"requests_per_s": [10.0] * 10}
    change = {"requests_per_s": [8.0] * 10}
    status, verdicts, _ = _run(tmp_path, parent, change, capsys)
    assert status == 0
    assert verdicts["requests_per_s"] == ("0 of 10", "flat")


def test_a_wide_spread_is_unresolved_unless_every_change_run_wins(tmp_path, capsys):
    parent = {"requests_per_s": [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0]}
    overlapping = {"requests_per_s": [1.5, 2.5, 1.2, 2.2, 1.8, 1.4, 2.4, 1.6, 1.1, 2.1]}
    separated = {"requests_per_s": [value + 5.0 for value in overlapping["requests_per_s"]]}
    status, verdicts, _ = _run(tmp_path, parent, overlapping, capsys)
    assert status == 0
    assert verdicts["requests_per_s"][1] == "unresolved"
    assert _run(tmp_path, parent, separated, capsys)[1]["requests_per_s"][1] == "gain"


def test_a_larger_share_of_failed_answers_fails(tmp_path, capsys):
    """A change that wins every metric but fails more answers is refused."""
    parent = {"requests_per_s": [10.0] * 10}
    change = {"requests_per_s": [20.0] * 10}
    status, verdicts, table = _run(tmp_path, parent, change, capsys, failed=(0, 1))
    assert verdicts["requests_per_s"] == ("10 of 10", "gain")
    assert "change: 10 of 200 answers failed" in table
    assert table.splitlines()[-1].startswith("verdict `failures`")
    assert status == 1
    # The same share as the parent's is no verdict.
    status, _, table = _run(tmp_path, parent, change, capsys, failed=(1, 1))
    assert "failures" not in table
    assert status == 0


def test_runs_must_pair_up(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    with pytest.raises(SystemExit):
        perf_pairs.main(
            ["--workload", "w", "--benchmark", str(benchmark),
             "--parent", *_runs(tmp_path, "parent", {"requests_per_s": [1.0, 2.0]}),
             "--change", *_runs(tmp_path, "change", {"requests_per_s": [1.0]})]
        )


def test_reads_the_repository_benchmark_declaration():
    declared = perf_pairs.load_metrics(perf_pairs.REPO_ROOT / "BENCHMARK.json")
    names = [metric.name for metric in declared]
    assert "latency_p50_s" in names and "peak_rss_mb" in names
