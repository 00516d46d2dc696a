"""Byte comparison of the benchmark's outputs, a revision against the working tree.

    python3 tools/output_diff.py REV --seeds 101,102,103 --out OUTPUTS_<N>.json

Runs every operation of every workload in ``perfbench/workloads.py`` once
per seed, on the committed files of REV (extracted as ``bench_pair.py``
does) and on the working tree.  Each side runs in a fresh process that
imports vaxfront and the workloads from its own tree, with one BLAS thread
as in ``perfbench/run.py``.  An operation's output is the JSON summary the
benchmark checks byte for byte from round to round.

The output file records, per operation, whether the two summaries are
identical, and for each output that moved the old and new value of every
entry that differs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import ROOT, extract, git  # noqa: E402


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare against, e.g. HEAD")
    parser.add_argument("--seeds", default="0", help="comma-separated workload seeds")
    parser.add_argument("--out", required=True,
                        help="output file, e.g. OUTPUTS_<N>.json")
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    base_sha = git("rev-parse", args.rev)
    context = multiprocessing.get_context("spawn")
    base_dir = Path(tempfile.mkdtemp(prefix="output-diff-"))
    try:
        extract(base_sha, base_dir)
        sides = {}
        for side, root in (("base", base_dir), ("change", ROOT)):
            with context.Pool(1) as pool:
                sides[side] = pool.apply(side_outputs, (str(root), seeds))
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    outputs = {}
    for key in sorted(sides["base"].keys() | sides["change"].keys()):
        old, new = (sides[s].get(key, "null") for s in ("base", "change"))
        outputs[key] = {"identical": old == new}
        if old != new:
            outputs[key]["moved"] = list(moved(json.loads(old), json.loads(new)))
    document = {
        "base": {"rev": args.rev, "commit": base_sha},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "seeds": seeds,
        "operations": len(outputs),
        "identical": sum(entry["identical"] for entry in outputs.values()),
        "outputs": outputs,
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"{document['identical']} of {document['operations']} outputs identical",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
