"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main, parse_constraint
from repro.core import BoundType


class TestConstraintParsing:
    def test_lower_bound(self):
        constraint = parse_constraint("3@6:Gender=F", "lower")
        assert constraint.bound == 3
        assert constraint.k == 6
        assert constraint.bound_type is BoundType.LOWER
        assert constraint.group.conditions == {"Gender": "F"}

    def test_upper_bound_with_conjunctive_group(self):
        constraint = parse_constraint("1@3:Income=High,Gender=M", "upper")
        assert constraint.bound_type is BoundType.UPPER
        assert constraint.group.conditions == {"Income": "High", "Gender": "M"}

    @pytest.mark.parametrize("text", ["3:Gender=F", "x@6:Gender=F", "3@6", "3@6:Gender"])
    def test_invalid_specifications(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_constraint(text, "lower")


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_refine_defaults(self):
        args = build_parser().parse_args(
            ["refine", "--dataset", "students", "--at-least", "3@6:Gender=F"]
        )
        assert args.epsilon == 0.5
        assert args.distance == "pred"
        assert args.method == "milp+opt"


class TestCommands:
    def test_datasets_lists_all_bundles(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("students", "astronauts", "law_students", "meps", "tpch"):
            assert name in output

    def test_inspect_students(self, capsys):
        exit_code = main(
            ["inspect", "--dataset", "students", "--top", "6", "--group", "Gender=F"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SELECT DISTINCT" in output
        assert "group Gender=F: 2 of the top-6" in output

    def test_refine_running_example(self, capsys):
        exit_code = main(
            [
                "refine",
                "--dataset", "students",
                "--at-least", "3@6:Gender=F",
                "--at-most", "1@3:Income=High",
                "--epsilon", "0",
                "--distance", "pred",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Activity: +{SO}" in output
        assert "refined query:" in output

    def test_refine_without_constraints_fails(self, capsys):
        exit_code = main(["refine", "--dataset", "students"])
        assert exit_code == 2
        assert "at least one" in capsys.readouterr().err

    def test_refine_infeasible_instance_returns_one(self, capsys):
        exit_code = main(
            [
                "refine",
                "--dataset", "students",
                "--at-least", "6@6:Gender=F",
                "--at-least", "6@6:Gender=M",
                "--epsilon", "0",
            ]
        )
        assert exit_code == 1
        assert "No refinement" in capsys.readouterr().out

    def test_refine_on_scaled_down_dataset(self, capsys):
        # 4@10 already holds (deviation 0), so the query is answered as it
        # stands; 6@10 at epsilon 0 needs a MILP solve.
        for constraint, epsilon in (("4@10:Sex=F", "0.5"), ("6@10:Sex=F", "0")):
            exit_code = main(
                [
                    "refine",
                    "--dataset", "law_students",
                    "--rows", "400",
                    "--at-least", constraint,
                    "--epsilon", epsilon,
                ]
            )
            assert exit_code == 0
            assert "refined query:" in capsys.readouterr().out

    def test_refine_says_why_a_fitting_query_is_unchanged(self, capsys):
        exit_code = main(
            ["refine", "--dataset", "students", "--at-least", "3@6:Gender=F"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert (
            "The original query already meets the constraints within epsilon=0.5, "
            "so no MILP was built."
        ) in output
        assert "distance=0 deviation=0.3333" in output
        assert "refinement: (no change)" in output
        assert "model statistics" not in output

    def test_refine_that_needs_a_solve_reports_its_model(self, capsys):
        exit_code = main(
            ["refine", "--dataset", "students", "--at-least", "3@6:Gender=F",
             "--epsilon", "0"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "already meets the constraints" not in output
        assert "refinement: Activity: +{SO}" in output
        assert "l[Gender=F,k=6]=3: 3" in output
        assert "model statistics: {" in output


class TestMalformedSpecs:
    """A malformed spec is a usage error, caught while arguments are parsed:
    one ``error:`` line on stderr, the fatal exit code 2, no traceback — and
    ``serve`` rejects it before binding its port."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["refine", "--dataset", "students", "--at-least", "banana"],
            ["refine", "--dataset", "students", "--at-least", "3@6:Gender"],
            ["inspect", "--dataset", "students", "--group", "banana"],
            ["serve", "--port", "0", "--warm", "bogus"],
            ["serve", "--port", "0", "--warm", "students:num_rows=abc"],
        ],
        ids=["at-least-banana", "at-least-no-value", "group-banana", "warm-bogus",
             "warm-non-numeric"],
    )
    def test_exits_two_without_a_traceback(self, argv):
        source = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        errors = [line for line in completed.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
