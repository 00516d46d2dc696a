"""Quality and call counts of the frontier solver on a broad panel, a
revision against the working tree.

    python3 tools/solver_panel.py REV [--resolution 8] [--out PANEL.json]

The panel is the cycles of 8, 16, 20, 24 and 30 groups, which are exactly
symmetric; six seeded irreducible draws of 4 to 10 groups
(``acceptance.random_model`` at density 0.5, redrawn until the support is
strongly connected), which cannot be symmetrized; seeded
``acceptance.random_convex_model`` draws of 4, 8 and 12 groups, which are
symmetrizable but not symmetric; and six seeded
``acceptance.random_block_upper_model`` draws of several atoms, whose
minimizing solves step along tied atom radii.  Each model is swept
on both sides, ``pareto_frontier`` and ``anti_pareto_frontier``, with
uniform costs and the default effort.  The two sides run at once through
``bench_pair.run_sides``, each in a fresh process that imports vaxfront
from its own tree, with one BLAS thread.

Per point it reports the cost, the old and new loss, the signed gain
towards the curve's objective (lower loss on the Pareto side, higher on the
anti side) with its verdict (``bench_pair.judge``) and, old and new, the
calls that the solve of that budget made: in the projected-gradient loop,
R_e evaluations, eigenvector gradients (whole matrix or per tied atom),
the gradient calls that raise, each of which ends its run, and
finite-difference gradients, which revisions before their removal took in
place of a failed gradient; and in all, eigen-solves (calls of
``np.linalg.eig``, ``eigvals``, ``eigh`` and ``eigvalsh``, a batched call
counting once).  Endpoints have no solve.  Points pair by cost.
A summary per side follows: moved points by verdict, the largest worsening,
the total calls, the summed area under the curves, and each model whose
sweep has failed gradients, or makes finite-difference gradients, on either
side, with the count on each side.  ``--out`` also writes every point as
JSON.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import git, header, judge, run_sides  # noqa: E402

CYCLES = (8, 16, 20, 24, 30)
DRAW_SIZES = (4, 5, 6, 8, 9, 10)
CONVEX_SIZES = (4, 8, 12)
BLOCK_DRAWS = 6
DRAW_DENSITY = 0.5
PANEL_SEED = 2110_12693
# The solver's calls, looked up by ``_pgd`` in the frontier module, and the
# eigen-solves, looked up in ``np.linalg``; a name that a revision does not
# have is not counted there.  "stop" patches no name: it counts the "grad"
# calls that raise.
COUNTED = {
    "re": ("_matrix_re", "_re_with_eig"),
    "grad": ("re_gradient", "_atom_gradients"),
    "stop": (),
    "fd": ("_fd_gradient",),
    "eig": ("eig", "eigvals", "eigh", "eigvalsh"),
}


def panel(vf) -> dict:
    """{label: model}: the cycles, the irreducible draws, the convex draws,
    then the several-atom draws."""
    acceptance = importlib.import_module("vaxfront.acceptance")
    fixtures = importlib.import_module("vaxfront.fixtures")
    models = {f"cycle{n}": fixtures.cycle_model(n) for n in CYCLES}
    for i, n in enumerate(DRAW_SIZES):
        rng = np.random.default_rng([PANEL_SEED, i])
        while True:
            model = acceptance.random_model(rng, n, density=DRAW_DENSITY)
            atoms = vf.frobenius_decompose(model).atoms
            if len(atoms) == 1 and len(atoms[0]) == n:
                break
        models[f"draw{i}-n{n}"] = model
    for i, n in enumerate(CONVEX_SIZES):
        rng = np.random.default_rng([PANEL_SEED, len(DRAW_SIZES) + i])
        models[f"convex{i}-n{n}"] = acceptance.random_convex_model(rng, n)
    for i in range(BLOCK_DRAWS):
        rng = np.random.default_rng([PANEL_SEED, len(DRAW_SIZES) + len(CONVEX_SIZES) + i])
        model, _ = acceptance.random_block_upper_model(rng)
        models[f"blocks{i}-n{model.n}"] = model
    return models


def side_points(root: str, resolution: int) -> list[dict]:
    """Every point of every panel sweep on the tree at ``root``, with the
    calls of the solve that produced it.  Meant for a fresh process: it
    puts that tree's ``src/`` first on the import path."""
    sys.path.insert(0, str(Path(root) / "src"))
    vf = importlib.import_module("vaxfront")
    frontier = importlib.import_module("vaxfront.frontier")
    counts = dict.fromkeys(COUNTED, 0)
    for key, names in COUNTED.items():
        module = np.linalg if key == "eig" else frontier
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _key=key, _original=original, **kw):
                counts[_key] += 1
                try:
                    return _original(*args, **kw)
                except Exception:
                    if _key == "grad":
                        counts["stop"] += 1
                    raise

            setattr(module, name, counted)
    by_cost = {}
    sweep = frontier._sweep

    def counted_sweep(first, budgets, solve, maximize):
        def counted_solve(c, extra):
            before = dict(counts)
            point = solve(c, extra)
            by_cost[c] = {k: counts[k] - before[k] for k in counts}
            return point

        return sweep(first, budgets, counted_solve, maximize)

    frontier._sweep = counted_sweep
    uniform = vf.CostFunction.uniform()
    points = []
    for label, model in panel(vf).items():
        for kind, run in (("pareto", vf.pareto_frontier), ("anti", vf.anti_pareto_frontier)):
            by_cost.clear()
            curve = run(model, uniform, resolution=resolution)
            for p in curve.points:
                calls = by_cost.get(p.cost, dict.fromkeys(COUNTED, 0))
                points.append({"model": label, "kind": kind, "cost": p.cost,
                               "loss": p.loss, **calls})
    return points


def area(points: list[dict]) -> float:
    """Trapezoid area under one curve, ordered by cost."""
    points = sorted(points, key=lambda p: p["cost"])
    return math.fsum(
        (b["cost"] - a["cost"]) * (a["loss"] + b["loss"]) / 2.0
        for a, b in zip(points, points[1:])
    )


def compare(base: list[dict], change: list[dict]) -> dict:
    """Points paired by (model, kind, cost), with their gain and verdict,
    and a summary per side."""
    def key(p):
        return p["model"], p["kind"], round(p["cost"], 12)

    new = {key(p): p for p in change}
    rows = []
    for old in base:
        p = new.get(key(old))
        if p is None:
            continue
        gain, verdict = judge(old["kind"], (old["cost"], old["loss"]),
                              (p["cost"], p["loss"]))
        rows.append({"model": old["model"], "kind": old["kind"], "cost": old["cost"],
                     "base_loss": old["loss"], "change_loss": p["loss"], "gain": gain,
                     "verdict": verdict,
                     **{f"base_{k}": old[k] for k in COUNTED},
                     **{f"change_{k}": p[k] for k in COUNTED}})
    summary = {}
    for kind in ("pareto", "anti"):
        mine = [r for r in rows if r["kind"] == kind]
        worse = [r for r in mine if r["verdict"] == "worse"]
        entry = {v: sum(r["verdict"] == v for r in mine)
                 for v in ("same", "rounding", "better", "worse")}
        entry["unpaired"] = (sum(p["kind"] == kind for p in base)
                             + sum(p["kind"] == kind for p in change) - 2 * len(mine))
        entry["largest_worsening"] = min(worse, key=lambda r: r["gain"], default=None)
        by_model = {"stop": {}, "fd": {}}
        for side, points in (("base", base), ("change", change)):
            own = [p for p in points if p["kind"] == kind]
            entry[f"{side}_calls"] = {k: sum(p[k] for p in own) for k in COUNTED}
            models = sorted({p["model"] for p in own})
            entry[f"{side}_area"] = math.fsum(
                area([p for p in own if p["model"] == m]) for m in models
            )
            for key, tally in by_model.items():
                for p in own:
                    if p[key]:
                        counts = tally.setdefault(p["model"], {"base": 0, "change": 0})
                        counts[side] += p[key]
        entry["stop_models"], entry["fd_models"] = by_model["stop"], by_model["fd"]
        summary[kind] = entry
    return {"points": rows, "summary": summary}


def _by_model(tally: dict) -> str:
    return ", ".join(f"{m} {c['base']} -> {c['change']}" for m, c in tally.items()) or "none"


def report(result: dict) -> str:
    lines = ["| model | side | cost | old loss | new loss | gain | verdict | "
             "old R_e/grad/stop/fd/eig | new R_e/grad/stop/fd/eig |", "|---" * 9 + "|"]
    for r in result["points"]:
        old = "/".join(str(r[f"base_{k}"]) for k in COUNTED)
        new = "/".join(str(r[f"change_{k}"]) for k in COUNTED)
        lines.append(f"| {r['model']} | {r['kind']} | {r['cost']:.6g} | "
                     f"{r['base_loss']:.10g} | {r['change_loss']:.10g} | "
                     f"{r['gain']:+.3g} | {r['verdict']} | {old} | {new} |")
    for kind, s in result["summary"].items():
        worst = s["largest_worsening"]
        lines.append(
            f"{kind}: {s['same']} same, {s['rounding']} rounding, {s['better']} better, "
            f"{s['worse']} worse, {s['unpaired']} unpaired; calls R_e/grad/stop/fd/eig "
            f"{'/'.join(str(v) for v in s['base_calls'].values())} -> "
            f"{'/'.join(str(v) for v in s['change_calls'].values())}; area "
            f"{s['base_area']:.6f} -> {s['change_area']:.6f}; largest worsening "
            + (f"{worst['gain']:+.3g} ({worst['model']} at c = {worst['cost']:.6g})"
               if worst else "none")
            + f"; failed gradients by model {_by_model(s['stop_models'])}"
            + f"; finite differences by model {_by_model(s['fd_models'])}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare against, e.g. HEAD")
    parser.add_argument("--resolution", type=int, default=8)
    parser.add_argument("--out", help="also write every point as JSON to this file")
    args = parser.parse_args(argv)

    base_sha = git("rev-parse", args.rev)
    sides = run_sides(base_sha, side_points, args.resolution)
    result = compare(sides["base"], sides["change"])
    print(report(result))
    if args.out:
        document = {**header(args.rev, base_sha), "resolution": args.resolution,
                    **result}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
