"""The pure functions of the comparison scripts in ``tools/``."""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
with mock.patch.dict(os.environ):  # output_diff pins BLAS threads on import
    from bench_pair import spread, summarize
    from output_diff import moved

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


def run(value, correct=True):
    return {"correct": correct, "failed": 0, "metrics": {"run_s": value}}


def failed_run():
    return {"correct": False, "failed": None, "metrics": {}, "error": "boom"}


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
