import argparse
import json
import math

import numpy as np
import pytest

from vaxfront import fixtures, save_model
from vaxfront.cli import main


@pytest.fixture()
def cycle_path(tmp_path):
    path = tmp_path / "cycle.json"
    save_model(fixtures.cycle_model(), str(path))
    return str(path)


@pytest.fixture()
def two_block_path(tmp_path):
    path = tmp_path / "two_block.json"
    save_model(fixtures.two_block_model(), str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_cycle_full_population(self, capsys, cycle_path):
        code, out, _ = run(
            capsys, ["compute", "--model", cycle_path, "--eta", ",".join(["1"] * 12)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["re"] == pytest.approx(2.0, abs=1e-9)
        assert doc["cost"] == 0.0

    def test_one_in_four(self, capsys, cycle_path):
        eta = ["1"] * 12
        for k in (3, 7, 11):
            eta[k] = "0"
        code, out, _ = run(
            capsys, ["compute", "--model", cycle_path, "--eta", ",".join(eta)]
        )
        doc = json.loads(out)
        assert doc["re"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert doc["cost"] == 0.25

    def test_bad_eta_length_exit_2(self, capsys, cycle_path):
        for eta in ("1,0", "1,x" + ",1" * 10):  # too short, not a float
            code, _, err = run(capsys, ["compute", "--model", cycle_path, "--eta", eta])
            assert code == 2
            assert "error" in err

    def test_eta_from_file(self, capsys, cycle_path, tmp_path):
        eta_file = tmp_path / "eta.json"
        eta_file.write_text(json.dumps([1.0] * 12))
        code, out, _ = run(
            capsys, ["compute", "--model", cycle_path, "--eta", f"@{eta_file}"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "text",
        ["{bad", "3", "[NaN" + ", 1.0" * 11 + "]"],
        ids=["malformed", "not-a-list", "nan"],
    )
    def test_bad_eta_file_exit_2(self, capsys, cycle_path, tmp_path, text):
        eta_file = tmp_path / "eta.json"
        eta_file.write_text(text)
        code, out, err = run(
            capsys, ["compute", "--model", cycle_path, "--eta", f"@{eta_file}"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "eta" in err

    def test_grid_input(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"grid_points": 2, "samples": [[1.0, 1.0], [1.0, 1.0]]}))
        code, out, _ = run(capsys, ["compute", "--grid", str(grid), "--eta", "1,1"])
        assert code == 0
        assert json.loads(out)["r0"] == pytest.approx(1.0, abs=1e-12)

    def test_bad_labels_exit_2(self, capsys, tmp_path):
        path = tmp_path / "labels.json"
        doc = {"n": 1, "weights": [1.0], "matrix": [[2.0]], "labels": 5}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["compute", "--model", str(path), "--eta", "1"])
        assert code == 2
        assert out == "" and "labels" in err

    def test_missing_model_exit_2(self, capsys):
        code, _, err = run(capsys, ["compute", "--eta", "1"])
        assert code == 2

    def test_byte_identical_reruns(self, capsys, cycle_path):
        argv = ["compute", "--model", cycle_path, "--eta", ",".join(["0.5"] * 12)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestDecompose:
    def test_two_block_schema(self, capsys, two_block_path):
        code, out, _ = run(capsys, ["decompose", "--model", two_block_path])
        assert code == 0
        doc = json.loads(out)
        assert doc["atoms"] == [[0], [1]]
        assert doc["remainder"] == []
        assert doc["atom_radii"] == [3.0, 1.0]
        assert doc["order"] == [1, 0]

    def test_threshold_flag(self, capsys, tmp_path):
        noisy = fixtures.two_block_model()
        k = noisy.matrix.copy()
        k[0, 1] = 1e-9  # numerical dust couples the blocks
        from vaxfront import MetapopModel

        path = tmp_path / "noisy.json"
        save_model(MetapopModel(weights=noisy.weights, matrix=k), str(path))
        _, out, _ = run(capsys, ["decompose", "--model", str(path)])
        assert len(json.loads(out)["atoms"]) == 2  # still split: no path back
        _, out, _ = run(
            capsys, ["decompose", "--model", str(path), "--threshold", "1e-6"]
        )
        assert len(json.loads(out)["atoms"]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_2(self, capsys, two_block_path, threshold):
        code, out, err = run(
            capsys,
            ["decompose", "--model", two_block_path, "--threshold", threshold],
        )
        assert code == 2
        assert out == ""
        assert "threshold" in err


class TestClassify:
    def test_psd(self, capsys, tmp_path):
        path = tmp_path / "psd.json"
        save_model(fixtures.positive_definite_model(), str(path))
        code, out, _ = run(capsys, ["classify", "--model", str(path)])
        doc = json.loads(out)
        assert doc["symmetrizable"] is True
        assert doc["inertia"] == [3, 0]
        assert doc["verdict"] == "Convex"

    def test_probe_witness(self, capsys, tmp_path):
        path = tmp_path / "saddle.json"
        save_model(fixtures.counterexample_positive_spectrum(), str(path))
        code, out, _ = run(
            capsys,
            ["classify", "--model", str(path), "--probe", "2000", "--seed", "0"],
        )
        doc = json.loads(out)
        assert doc["verdict"] == "Indeterminate"
        assert doc["witness"]["convexity_violation"]["gap"] > 1e-4
        assert doc["witness"]["concavity_violation"]["gap"] < -1e-4


class TestCstar:
    def test_cycle(self, capsys, cycle_path):
        code, out, _ = run(capsys, ["cstar", "--model", cycle_path])
        doc = json.loads(out)
        assert doc["cstar"] == 0.5
        assert doc["set"] == [0, 2, 4, 6, 8, 10]
        assert doc["alpha"] == 0.5
        assert doc["exact"] is True

    def test_search_on_1200_groups(self, capsys, tmp_path):
        # One search level per group: deeper than the interpreter's
        # default recursion limit.
        from vaxfront import MetapopModel

        n = 1200
        path = tmp_path / "empty.json"
        save_model(
            MetapopModel(weights=np.full(n, 1.0 / n), matrix=np.zeros((n, n))),
            str(path),
        )
        code, out, _ = run(capsys, ["cstar", "--model", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["set"] == list(range(n))
        assert doc["exact"] is True


class TestFrontier:
    def test_past_forty_groups(self, capsys, tmp_path):
        from vaxfront.acceptance import random_convex_model

        path = tmp_path / "convex41.json"
        save_model(random_convex_model(np.random.default_rng(0), 41), str(path))
        code, out, _ = run(
            capsys, ["frontier", "--model", str(path), "--resolution", "2"]
        )
        assert code == 0
        kinds = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert kinds.count("pareto") == 3

    def test_csv_schema(self, capsys, two_block_path, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            [
                "frontier",
                "--model",
                two_block_path,
                "--resolution",
                "8",
                "--kind",
                "both",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "kind,cost,loss,strategy"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"pareto", "antipareto"}
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(3.0, abs=1e-9)
        assert len(first[3].split(";")) == 2

    def test_plot_data_document(self, capsys, two_block_path):
        code, out, _ = run(
            capsys,
            [
                "frontier",
                "--model",
                two_block_path,
                "--resolution",
                "6",
                "--plot-data",
                "--samples",
                "40",
                "--seed",
                "5",
            ],
        )
        doc = json.loads(out)
        assert doc["config"] == {"resolution": 6, "seed": 5}
        assert "pareto" in doc and "antipareto" in doc
        assert all(len(point) == 2 for point in doc["feasible"])


class TestOutFile:
    @pytest.mark.parametrize("argv", [["cstar"], ["frontier", "--resolution", "4"]])
    def test_file_holds_the_printed_bytes(self, capsys, two_block_path, tmp_path, argv):
        argv = argv + ["--model", two_block_path]
        out_path = tmp_path / "out.txt"
        _, printed, _ = run(capsys, argv)
        code, silent, _ = run(capsys, argv + ["--out", str(out_path)])
        assert (code, silent) == (0, "")
        assert out_path.read_bytes() == printed.encode("utf-8")

    def test_missing_directory_exit_2(self, capsys, two_block_path, tmp_path):
        out_path = tmp_path / "missing" / "out.txt"
        code, out, err = run(
            capsys, ["cstar", "--model", two_block_path, "--out", str(out_path)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestParserBuiltOnce:
    def test_second_call_builds_no_parser(self, capsys, monkeypatch, cycle_path):
        argv = ["compute", "--model", cycle_path, "--eta", ",".join(["1"] * 12)]
        run(capsys, argv)
        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, argv)[0] == 0
        assert built == []


class TestSample:
    def test_deterministic(self, capsys, two_block_path):
        argv = ["sample", "--model", two_block_path, "--samples", "25", "--seed", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        doc = json.loads(first)
        assert doc["config"] == {"samples": 25, "seed": 3}


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--samples", "5"],
            ["frontier", "--plot-data", "--resolution", "2", "--samples", "5"],
            ["classify", "--probe", "10"],
        ],
        ids=["sample", "frontier-plot-data", "classify-probe"],
    )
    def test_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "saddle.json"
        save_model(fixtures.counterexample_positive_spectrum(), str(path))
        code, out, err = run(capsys, argv + ["--model", str(path), "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "seed" in err


class TestFlagsCheckedUpFront:
    # Refused before any work, whatever the model's verdict and whether or
    # not --plot-data reads the flag.
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["classify", "--probe", "-3"], "probe"),
            (["classify", "--seed", "-1"], "seed"),
            (["frontier", "--resolution", "2", "--seed", "-1"], "seed"),
            (["frontier", "--resolution", "2", "--samples", "-1"], "samples"),
            (["frontier", "--resolution", "2", "--samples", "0"], "samples"),
        ],
        ids=["classify-probe", "classify-seed", "frontier-seed", "frontier-samples",
             "frontier-zero-samples"],
    )
    @pytest.mark.parametrize(
        "fixture",
        [fixtures.positive_definite_model, fixtures.counterexample_positive_spectrum],
        ids=["convex", "indeterminate"],
    )
    def test_exit_2(self, capsys, tmp_path, argv, flag, fixture):
        path = tmp_path / "model.json"
        save_model(fixture(), str(path))
        code, out, err = run(capsys, argv + ["--model", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err


class TestVerifyPaper:
    def test_cycle_criterion_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-paper", "--only", "cycle"])
        assert code == 0
        assert "PASS cycle-graph" in out

    def test_unknown_filter_exit_2(self, capsys):
        code, _, _ = run(capsys, ["verify-paper", "--only", "no-such-criterion"])
        assert code == 2

    def test_perturbed_fixture_detected(self, capsys, monkeypatch):
        import vaxfront.acceptance as acceptance
        from vaxfront import MetapopModel
        from vaxfront import fixtures as fx

        def broken_cycle(n=12):
            model = fx.cycle_model.__wrapped__(n) if hasattr(fx.cycle_model, "__wrapped__") else None
            k = np.zeros((n, n))
            for i in range(n):
                k[i, (i + 1) % n] = 1.01  # perturbed adjacency
                k[i, (i - 1) % n] = 1.0
            weights = np.full(n, 1.0 / n)
            weights[-1] += 1.0 - math.fsum(weights.tolist())
            return MetapopModel(weights=weights, matrix=k)

        monkeypatch.setattr(acceptance.fixtures, "cycle_model", broken_cycle)
        code, out, _ = run(capsys, ["verify-paper", "--only", "cycle"])
        assert code == 1
        assert "FAIL cycle-graph" in out


class TestVerifyPaperFilter:
    def test_eigen_subset_executed(self, capsys):
        code = main(["verify-paper", "--only", "eigen"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS counterexample-eigenvalues" in out
        assert "cycle-graph" not in out


class TestDeterministicOutputs:
    def test_frontier_csv_byte_identical(self, capsys, two_block_path, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "frontier",
                    "--model",
                    two_block_path,
                    "--resolution",
                    "4",
                    "--kind",
                    "both",
                    "--out",
                    str(out),
                ]
            )
            paths.append(out.read_bytes())
        capsys.readouterr()
        assert paths[0] == paths[1]


class TestAffineCost:
    def test_cstar_affine(self, capsys, cycle_path):
        coef = ",".join(["2"] * 12)
        code, out, _ = run(
            capsys, ["cstar", "--model", cycle_path, "--cost", f"affine:{coef}"]
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["cstar"] == pytest.approx(1.0, abs=1e-12)  # 2 * uniform value
        assert doc["set"] == [0, 2, 4, 6, 8, 10]

    def test_bad_cost_spec_exit_2(self, capsys, cycle_path):
        for spec in ("quadratic", "affine:1,x" + ",1" * 10):
            code, _, err = run(
                capsys,
                ["compute", "--model", cycle_path, "--eta", ",".join(["1"] * 12),
                 "--cost", spec],
            )
            assert code == 2
            assert err.startswith("error:")

    def test_affine_zero_coefficient_exit_2(self, capsys, cycle_path):
        coef = ",".join(["1"] * 11 + ["0"])
        code, _, _ = run(
            capsys,
            ["cstar", "--model", cycle_path, "--cost", f"affine:{coef}"],
        )
        assert code == 2
