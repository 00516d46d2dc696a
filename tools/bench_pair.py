"""Paired benchmark of a revision against the working tree.

    python3 tools/bench_pair.py REV --out BENCH_<N>.json
        [--workload NAME ...] [--seeds 0,1,2] [--seconds 25]

Extracts the committed files of REV (``git archive``) into a temporary
directory outside the repository and runs ``python3 perfbench/run.py
--trace 0`` there and in the working tree, one process at a time, once for
every workload and seed; repeat a seed (``--seeds 0,0,0``) to run it more
than once.  The two sides alternate, and the side that goes first swaps
from one pair to the next, so that a drift in the machine's speed falls on
both alike.

The output file holds, per workload and end-to-end metric, each side's
per-run values, median and quartiles, the relative change of the medians
and the number of pairs the working tree won; and per side whether every
run was correct and how many operations failed.  The temporary directory
is removed at the end; set ``TMPDIR`` to choose where it goes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
ROUNDING = 1e-12


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def checkout(sha: str):
    """The committed files of ``sha`` (``git archive``) in a temporary
    directory outside the repository, removed on exit."""
    into = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
        yield into
    finally:
        shutil.rmtree(into, ignore_errors=True)


def run_sides(sha: str, work, *args) -> dict:
    """{side: work(root, *args)} with root the committed files of ``sha``
    for ``base`` and the working tree for ``change``.  The two run at once,
    each in a fresh process of a ``spawn`` pool, so that each imports
    vaxfront from its own tree."""
    with checkout(sha) as base_dir, multiprocessing.get_context("spawn").Pool(
        2, maxtasksperchild=1
    ) as pool:
        pending = {side: pool.apply_async(work, (str(root), *args))
                   for side, root in zip(SIDES, (base_dir, ROOT))}
        return {side: result.get() for side, result in pending.items()}


def header(rev: str, sha: str) -> dict:
    """The ``base`` and ``change`` entries that open an output file."""
    return {"base": {"rev": rev, "commit": sha},
            "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}}


def judge(kind: str, old: tuple, new: tuple) -> tuple[float, str]:
    """The gain of a frontier point that went from ``old`` to ``new``, each
    (cost, loss), towards its curve's objective (lower loss on the
    ``pareto`` side, higher on the anti side), and its verdict: same where
    the point did not move, rounding within ``ROUNDING`` relative, better
    or worse."""
    gain = (1.0 if kind == "pareto" else -1.0) * (old[1] - new[1])
    verdict = ("same" if old == new
               else "rounding" if abs(gain) <= ROUNDING * max(1.0, abs(old[1]))
               else "better" if gain > 0 else "worse")
    return gain, verdict


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result object, or a failed record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    metrics = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        kept = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not kept:
            continue
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            entry[side] = spread([p[side]["metrics"][name] for p in kept])
        base, change = entry["base"]["median"], entry["change"]["median"]
        entry["median_change_rel"] = (change - base) / base if base else None
        gains = [p["base"]["metrics"][name] - p["change"]["metrics"][name] for p in kept]
        entry["change_wins"] = sum(g > 0 if lower else g < 0 for g in gains)
        entry["pairs"] = len(kept)
        metrics[name] = entry
    sides = {
        side: {"correct": all(p[side]["correct"] for p in pairs),
               "failed": sum(p[side]["failed"] or 0 for p in pairs)}
        for side in SIDES
    }
    return {"metrics": metrics, **sides}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare against, e.g. HEAD")
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_<N>.json")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every declared one")
    parser.add_argument("--seeds", default="0",
                        help="comma-separated seeds, one pair each; may repeat")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    base_sha = git("rev-parse", args.rev)
    document = {
        **header(args.rev, base_sha),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    with checkout(base_sha) as base_dir:
        roots = {"base": base_dir, "change": ROOT}
        for workload in workloads:
            pairs = []
            for seed in seeds:
                order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}",
                          file=sys.stderr)
                pairs.append(pair)
            document["workloads"][workload] = {
                "pairs": pairs, **summarize(pairs, bench["end_to_end"])
            }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
