"""Byte comparison of the benchmark's outputs, a revision against the working tree.

    python3 tools/output_diff.py REV --seeds 101,102,103 --out OUTPUTS_<N>.json

Runs every operation of every workload in ``perfbench/workloads.py`` once
per seed, on the committed files of REV and on the working tree.  The two
sides run at once through ``bench_pair.run_sides``, each in a fresh
process that imports vaxfront and the workloads from its own tree, with
one BLAS thread as in ``perfbench/run.py``.  An operation's output is
the JSON summary the benchmark checks byte for byte from round to round.

The output file records, per operation, whether the two summaries are
identical, and for each output that moved the old and new value of every
entry that differs.  For a moved frontier output (a Pareto or anti-Pareto
sweep, or an assembly's two curves) it also lists every moved point: its
cost, old and new loss, and the gain towards the curve's objective (lower
loss on the Pareto side, higher on the anti side), judged better, worse, or
rounding within ``ROUNDING`` relative by ``bench_pair.judge``.  A ``frontier`` section counts these
per workload and names the largest worsening.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import ROOT, git, header, judge, run_sides  # noqa: E402


def side_outputs(root: str, seeds: list[int]) -> dict[str, str]:
    """Every operation's summary as sorted JSON text, on the tree at ``root``.

    Meant for a fresh process: it puts that tree's ``src/`` and
    ``perfbench/`` first on the import path.
    """
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    vf = importlib.import_module("vaxfront")
    importlib.import_module("vaxfront.cli")
    workloads = importlib.import_module("workloads")
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="output-diff-") as workdir:
        for name, cls in workloads.WORKLOADS.items():
            for seed in seeds:
                workload = cls(vf, seed, False, Path(workdir))
                workload.warm_up()
                for op in workload.operations():
                    try:
                        summary = op.summarize(op.run())
                    except Exception as exc:  # a failed operation is an output too
                        summary = {"error": repr(exc)}
                    outputs[f"{name} seed {seed} {op.name}"] = json.dumps(
                        summary, sort_keys=True
                    )
    return outputs


def moved(old, new, path: str = ""):
    """The entries where two JSON values differ, as (path, old, new)."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from moved(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{path}/{i}")
    elif json.dumps(old) != json.dumps(new):
        yield {"path": path or "/", "base": old, "change": new}


def _workloads():
    """This tree's ``perfbench/workloads.py``, imported on first use: the
    processes of ``side_outputs`` must each import their own tree's."""
    perfbench = str(ROOT / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    return importlib.import_module("workloads")


def frontier_curves(op: str, summary) -> dict[str, list]:
    """The frontier curves of one operation's summary as {kind: [(cost, loss)]},
    kind ``pareto`` or ``anti``; empty for any other operation, or one that
    failed or is missing on one side."""
    kind = op.split(":")[0]
    if kind not in ("pareto", "anti", "assemble") or summary is None or "error" in summary:
        return {}
    if kind == "assemble":
        return {k: [tuple(p[:2]) for p in summary[k]] for k in ("pareto", "anti")}
    if isinstance(summary, dict):  # the CLI's captured output
        try:
            rows = _workloads().parse_frontier_csv(summary)
        except ValueError:  # a failed command
            return {}
        return {kind: [(float(c), float(loss)) for c, loss, _ in rows]}
    return {kind: [tuple(p[:2]) for p in summary]}


def moved_points(kind: str, old: list, new: list):
    """Each point of one curve whose cost or loss moved.  Points pair by
    position when both curves have as many, otherwise by cost."""
    if len(old) == len(new):
        pairs = zip(old, new)
    else:
        by_cost = {round(c, 12): (c, loss) for c, loss in new}
        pairs = [(p, by_cost[round(p[0], 12)]) for p in old if round(p[0], 12) in by_cost]
    for (c0, l0), (c1, l1) in pairs:
        gain, verdict = judge(kind, (c0, l0), (c1, l1))
        if verdict == "same":
            continue
        point = {"kind": kind, "cost": c0, "base_loss": l0, "change_loss": l1,
                 "gain": gain, "verdict": verdict}
        if c1 != c0:
            point["change_cost"] = c1
        yield point


def frontier_census(outputs: dict) -> dict:
    """Per workload: moved frontier outputs (a strategy alone may have
    moved), moved points by verdict, and the largest worsening; and the
    largest worsening over all workloads."""
    by_workload = {}
    for key, entry in outputs.items():
        points = entry.get("frontier_points")
        if points is None:
            continue
        census = by_workload.setdefault(key.split(" seed ")[0], {
            "outputs": 0, "points": 0, "better": 0, "worse": 0, "rounding": 0,
            "largest_worsening": None,
        })
        census["outputs"] += 1
        census["points"] += len(points)
        for point in points:
            census[point["verdict"]] += 1
            worst = census["largest_worsening"]
            if point["verdict"] == "worse" and (
                worst is None or point["gain"] < worst["gain"]
            ):
                census["largest_worsening"] = {"output": key, **point}
    worsts = [c["largest_worsening"] for c in by_workload.values()]
    worsts = [p for p in worsts if p is not None]
    return {"by_workload": by_workload,
            "largest_worsening": min(worsts, key=lambda p: p["gain"], default=None)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare against, e.g. HEAD")
    parser.add_argument("--seeds", default="0", help="comma-separated workload seeds")
    parser.add_argument("--out", required=True,
                        help="output file, e.g. OUTPUTS_<N>.json")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    base_sha = git("rev-parse", args.rev)
    sides = run_sides(base_sha, side_outputs, seeds)

    outputs = {}
    for key in sorted(sides["base"].keys() | sides["change"].keys()):
        old, new = (sides[s].get(key, "null") for s in ("base", "change"))
        outputs[key] = {"identical": old == new}
        if old != new:
            old, new = json.loads(old), json.loads(new)
            outputs[key]["moved"] = list(moved(old, new))
            op = key.split(" ")[-1]
            base_curves, change_curves = (frontier_curves(op, v) for v in (old, new))
            points = [
                point
                for kind in sorted(base_curves.keys() & change_curves.keys())
                for point in moved_points(kind, base_curves[kind], change_curves[kind])
            ]
            if base_curves or change_curves:
                outputs[key]["frontier_points"] = points
    document = {
        **header(args.rev, base_sha),
        "seeds": seeds,
        "operations": len(outputs),
        "identical": sum(entry["identical"] for entry in outputs.values()),
        "frontier": frontier_census(outputs),
        "outputs": outputs,
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"{document['identical']} of {document['operations']} outputs identical",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
