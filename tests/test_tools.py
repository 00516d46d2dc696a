"""The pure functions of the comparison scripts in ``tools/``."""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
with mock.patch.dict(os.environ):  # output_diff pins BLAS threads on import
    from bench_pair import spread, summarize
    from output_diff import frontier_census, frontier_curves, moved, moved_points
    from solver_panel import area, compare, report

DECLARED = [{"name": "run_s", "unit": "s", "better": "lower"}]


class TestMoved:
    def test_nested_entries(self):
        old = {"a": {"b": [1, 2, {"c": 3.5}]}, "d": "x"}
        new = {"a": {"b": [1, 7, {"c": 3.25}]}, "d": "x"}
        assert list(moved(old, new)) == [
            {"path": "/a/b/1", "base": 2, "change": 7},
            {"path": "/a/b/2/c", "base": 3.5, "change": 3.25},
        ]

    def test_length_mismatch_at_parent(self):
        old = {"rows": [[0.0, 1.0], [1.0, 0.0]]}
        new = {"rows": [[0.0, 1.0]]}
        assert list(moved(old, new)) == [
            {"path": "/rows", "base": old["rows"], "change": new["rows"]}
        ]

    def test_different_keys_at_parent(self):
        assert list(moved({"a": 1}, {"b": 1})) == [
            {"path": "/", "base": {"a": 1}, "change": {"b": 1}}
        ]

    def test_identical_yields_nothing(self):
        value = {"a": [1, {"b": [2.0, None]}], "c": "text"}
        assert list(moved(value, value)) == []


class TestFrontierPoints:
    def test_curves_of_each_summary(self):
        cli = {"code": 0, "stderr": "",
               "stdout": "kind,cost,loss,strategy\nPareto,0,2,1;1\nPareto,0.5,0,0;1\n"}
        assert frontier_curves("pareto:cycle", cli) == {"pareto": [(0.0, 2.0), (0.5, 0.0)]}
        curve = [[0.0, 2.0, [1.0], "Converged"], [1.0, 0.0, [0.0], "Converged"]]
        assert frontier_curves("anti:3", curve) == {"anti": [(0.0, 2.0), (1.0, 0.0)]}
        assembled = {"pareto": curve, "anti": curve[:1], "atoms": [[0]]}
        assert frontier_curves("assemble:0", assembled) == {
            "pareto": [(0.0, 2.0), (1.0, 0.0)], "anti": [(0.0, 2.0)]
        }
        assert frontier_curves("cstar:cycle", {"cstar": 0.5}) == {}
        assert frontier_curves("pareto:1", {"error": "ValueError()"}) == {}
        failed = {"code": 2, "stdout": "", "stderr": "error: budget"}
        assert frontier_curves("anti:cycle", failed) == {}
        assert frontier_curves("anti:2", None) == {}  # missing on one side

    def test_gain_is_signed_towards_the_objective(self):
        old = [(0.0, 2.0), (0.5, 1.0), (0.75, 0.5), (1.0, 0.0)]
        new = [(0.0, 2.0), (0.5, 0.9), (0.75, 0.5 + 1e-13), (1.0, 0.0)]
        pareto = list(moved_points("pareto", old, new))
        assert [(p["cost"], p["verdict"]) for p in pareto] == [
            (0.5, "better"), (0.75, "rounding")
        ]
        assert pareto[0]["gain"] == pytest.approx(0.1)
        anti = list(moved_points("anti", old, new))
        assert [p["verdict"] for p in anti] == ["worse", "rounding"]
        assert anti[0]["gain"] == pytest.approx(-0.1)

    def test_moved_cost_is_reported(self):
        (point,) = moved_points("anti", [(0.3, 1.0)], [(0.31, 1.0)])
        assert point["change_cost"] == 0.31 and point["verdict"] == "rounding"

    def test_unequal_lengths_pair_by_cost(self):
        # A Pareto sweep that reaches zero loss at an earlier budget stops there.
        old = [(0.0, 2.0), (0.25, 1.0), (0.5, 0.1), (0.75, 0.0)]
        new = [(0.0, 2.0), (0.25, 1.2), (0.75, 0.0)]
        assert [(p["cost"], p["verdict"]) for p in moved_points("pareto", old, new)] == [
            (0.25, "worse")
        ]

    def test_census(self):
        def point(verdict, gain):
            return {"kind": "pareto", "cost": 0.5, "base_loss": 1.0,
                    "change_loss": 1.0 - gain, "gain": gain, "verdict": verdict}

        def entry(*points):
            return {"identical": False, "frontier_points": list(points)}

        outputs = {
            "frontier-reducible seed 1 pareto:0": entry(
                point("worse", -0.1), point("better", 0.2)),
            "frontier-reducible seed 1 anti:0": entry(point("worse", -0.3)),
            "frontier-reducible seed 1 anti:1": entry(),  # a strategy moved
            "frontier-cycle12 seed 1 pareto:cycle": entry(point("rounding", 1e-15)),
            "eradication seed 1 cstar:cycle": {"identical": True},
        }
        census = frontier_census(outputs)
        reducible = census["by_workload"]["frontier-reducible"]
        assert (reducible["outputs"], reducible["points"]) == (3, 3)
        assert (reducible["better"], reducible["worse"], reducible["rounding"]) == (1, 2, 0)
        worst = reducible["largest_worsening"]
        assert worst["output"] == "frontier-reducible seed 1 anti:0"
        cycle = census["by_workload"]["frontier-cycle12"]
        assert (cycle["rounding"], cycle["largest_worsening"]) == (1, None)
        assert census["largest_worsening"]["gain"] == -0.3


def run(value, correct=True):
    return {"correct": correct, "failed": 0, "metrics": {"run_s": value}}


def failed_run():
    return {"correct": False, "failed": None, "metrics": {}, "error": "boom"}


def _panel_point(kind, cost, loss, re=0, grad=0, stop=0, fd=0, eig=0, model="m"):
    return {"model": model, "kind": kind, "cost": cost, "loss": loss,
            "re": re, "grad": grad, "stop": stop, "fd": fd, "eig": eig}


class TestSolverPanel:
    def test_area_is_the_trapezoid_rule_in_cost_order(self):
        points = [_panel_point("pareto", 1.0, 0.0), _panel_point("pareto", 0.0, 2.0),
                  _panel_point("pareto", 0.5, 1.0)]
        assert area(points) == 0.75 + 0.25

    def test_gains_verdicts_and_summary(self):
        base = [
            _panel_point("pareto", 0.0, 2.0),
            _panel_point("pareto", 0.5, 1.0, re=10, grad=4, eig=15),
            _panel_point("pareto", 0.75, 0.5, re=8, grad=2, stop=2, fd=1, eig=11),
            _panel_point("pareto", 1.0, 0.0),
            _panel_point("anti", 0.5, 1.5, re=6, grad=3),
            _panel_point("anti", 0.75, 1.25),
        ]
        change = [
            _panel_point("pareto", 0.0, 2.0),
            _panel_point("pareto", 0.5, 0.9, re=5, grad=2, eig=5),
            _panel_point("pareto", 0.75, 0.5 + 1e-15, re=4, grad=2, eig=4),
            _panel_point("anti", 0.5, 1.25, re=3, grad=2),
            _panel_point("anti", 0.75, 1.25),
        ]
        result = compare(base, change)
        verdicts = [(r["kind"], r["cost"], r["verdict"]) for r in result["points"]]
        assert verdicts == [
            ("pareto", 0.0, "same"), ("pareto", 0.5, "better"),
            ("pareto", 0.75, "rounding"), ("anti", 0.5, "worse"), ("anti", 0.75, "same"),
        ]
        gains = [r["gain"] for r in result["points"]]
        assert gains[1] == pytest.approx(0.1) and gains[3] == -0.25
        pareto, anti = result["summary"]["pareto"], result["summary"]["anti"]
        assert pareto["unpaired"] == 1 and anti["unpaired"] == 0
        assert pareto["largest_worsening"] is None
        assert anti["largest_worsening"]["cost"] == 0.5
        assert pareto["base_calls"] == {"re": 18, "grad": 6, "stop": 2, "fd": 1, "eig": 26}
        assert pareto["change_calls"] == {"re": 9, "grad": 4, "stop": 0, "fd": 0, "eig": 9}
        rows = report(result).splitlines()
        assert rows[0].endswith("| old R_e/grad/stop/fd/eig | new R_e/grad/stop/fd/eig |")
        assert rows[3].endswith("| 10/4/0/0/15 | 5/2/0/0/5 |")
        assert rows[4].endswith("| 8/2/2/1/11 | 4/2/0/0/4 |")
        assert "; calls R_e/grad/stop/fd/eig 18/6/2/1/26 -> 9/4/0/0/9; " in rows[-2]

    def test_summary_lists_models_with_finite_differences(self):
        base = [
            _panel_point("pareto", 0.5, 1.0, fd=3, model="cycle"),
            _panel_point("pareto", 0.75, 0.5, fd=2, model="cycle"),
            _panel_point("pareto", 0.5, 1.0, fd=4, model="draw"),
            _panel_point("pareto", 0.5, 1.0, model="convex"),
            _panel_point("anti", 0.5, 1.5, model="cycle"),
        ]
        change = [
            _panel_point("pareto", 0.5, 1.0, model="cycle"),
            _panel_point("pareto", 0.75, 0.5, model="cycle"),
            _panel_point("pareto", 0.5, 1.0, fd=5, model="draw"),
            _panel_point("pareto", 0.5, 1.0, fd=1, model="convex"),
            _panel_point("anti", 0.5, 1.5, model="cycle"),
        ]
        result = compare(base, change)
        pareto, anti = result["summary"]["pareto"], result["summary"]["anti"]
        assert pareto["fd_models"] == {"cycle": {"base": 5, "change": 0},
                                       "draw": {"base": 4, "change": 5},
                                       "convex": {"base": 0, "change": 1}}
        assert anti["fd_models"] == {}
        lines = report(result).splitlines()
        assert lines[-2].endswith(
            "finite differences by model cycle 5 -> 0, draw 4 -> 5, convex 0 -> 1")
        assert lines[-1].endswith("finite differences by model none")

    def test_summary_lists_models_with_failed_gradients(self):
        base = [
            _panel_point("pareto", 0.5, 1.0, stop=2, fd=6, model="draw"),
            _panel_point("pareto", 0.5, 1.0, model="convex"),
            _panel_point("anti", 0.5, 1.5, model="draw"),
        ]
        change = [
            _panel_point("pareto", 0.5, 1.0, model="draw"),
            _panel_point("pareto", 0.5, 1.0, stop=1, model="convex"),
            _panel_point("anti", 0.5, 1.5, model="draw"),
        ]
        result = compare(base, change)
        pareto, anti = result["summary"]["pareto"], result["summary"]["anti"]
        assert pareto["stop_models"] == {"draw": {"base": 2, "change": 0},
                                         "convex": {"base": 0, "change": 1}}
        assert anti["stop_models"] == {}
        lines = report(result).splitlines()
        assert ("; failed gradients by model draw 2 -> 0, convex 0 -> 1; "
                "finite differences by model draw 6 -> 0") in lines[-2]
        assert "; failed gradients by model none; " in lines[-1]


class TestSpread:
    def test_median_and_quartiles(self):
        got = spread([5.0, 1.0, 3.0, 2.0, 4.0])
        assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
        assert got["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0]

    def test_single_run(self):
        got = spread([0.5])
        assert (got["q1"], got["median"], got["q3"]) == (0.5, 0.5, 0.5)


class TestSummarize:
    def test_wins_and_ties(self):
        pairs = [
            {"base": run(2.0), "change": run(1.0)},  # change wins
            {"base": run(1.0), "change": run(2.0)},  # base wins
            {"base": run(1.5), "change": run(1.5)},  # tie: neither
            {"base": run(3.0), "change": run(2.5)},  # change wins
        ]
        entry = summarize(pairs, DECLARED)["metrics"]["run_s"]
        assert entry["change_wins"] == 2
        assert entry["pairs"] == 4
        assert entry["base"]["median"] == 1.75
        assert entry["change"]["median"] == 1.75
        assert entry["median_change_rel"] == 0.0

    def test_higher_is_better(self):
        declared = [{"name": "run_s", "unit": "1/s", "better": "higher"}]
        pairs = [{"base": run(1.0), "change": run(2.0)}]
        assert summarize(pairs, declared)["metrics"]["run_s"]["change_wins"] == 1

    def test_failed_run_drops_out(self):
        pairs = [
            {"base": run(2.0), "change": run(1.0)},
            {"base": run(4.0), "change": failed_run()},
            {"base": run(3.0), "change": run(3.5)},
        ]
        summary = summarize(pairs, DECLARED)
        entry = summary["metrics"]["run_s"]
        assert entry["pairs"] == 2
        assert entry["base"]["runs"] == [2.0, 3.0]
        assert entry["change"]["runs"] == [1.0, 3.5]
        assert entry["median_change_rel"] == pytest.approx(-0.1)
        assert summary["base"] == {"correct": True, "failed": 0}
        assert summary["change"] == {"correct": False, "failed": 0}

    def test_no_pair_leaves_the_metric_out(self):
        pairs = [{"base": failed_run(), "change": run(1.0)}]
        assert summarize(pairs, DECLARED)["metrics"] == {}
