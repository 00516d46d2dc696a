"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error.  All commands
are deterministic given the model file, flags and seed; reals are printed
with full round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .acceptance import run_criteria
from .convexity import classify_convexity, probe_convexity
from .errors import ParseError, ValidationError, VaxfrontError
from .frontier import (
    anti_pareto_frontier,
    feasible_region_sample,
    pareto_frontier,
)
from .independent import eradication_cost
from .model import (
    CostFunction,
    MetapopModel,
    Strategy,
    _check_int,
    _read_json,
    cost,
    grid_to_model,
    load_grid,
    load_model,
)
from .spectral import effective_re
from .structure import frobenius_decompose


def _parse_cost(spec: str) -> CostFunction:
    if spec == "uniform":
        return CostFunction.uniform()
    if spec.startswith("affine:"):
        try:
            coefficients = [float(x) for x in spec[len("affine:") :].split(",")]
        except ValueError as exc:
            raise VaxfrontError(f"bad affine coefficients: {exc}") from exc
        return CostFunction.affine(coefficients)
    raise VaxfrontError(f"unknown cost spec {spec!r} (uniform or affine:c1,c2,...)")


def _parse_eta(spec: str, n: int) -> Strategy:
    if spec.startswith("@"):
        try:
            values = _read_json(spec[1:])
        except ParseError as exc:
            raise ValidationError(f"bad eta file: {exc}") from exc
        if not isinstance(values, list) or not all(
            type(v) in (int, float) for v in values
        ):
            raise ValidationError(
                f"eta file {spec[1:]} must hold a JSON list of numbers"
            )
    else:
        try:
            values = [float(x) for x in spec.split(",")]
        except ValueError as exc:
            raise VaxfrontError(f"bad eta values: {exc}") from exc
    if len(values) != n:
        raise VaxfrontError(f"eta has {len(values)} entries, model has {n} groups")
    return Strategy(np.asarray(values, dtype=float))


def _load_input(args) -> MetapopModel:
    if getattr(args, "grid", None):
        return grid_to_model(load_grid(args.grid))
    if getattr(args, "model", None):
        return load_model(args.model)
    raise VaxfrontError("either --model or --grid is required")


def _write(text: str, out: str | None) -> None:
    """The command's output, to the file ``out`` or else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(document: dict, out: str | None) -> None:
    _write(json.dumps(document, allow_nan=False) + "\n", out)


def _strategy_text(strategy: Strategy) -> str:
    return ";".join(format(v, ".9g") for v in strategy.values)


def cmd_compute(args) -> int:
    model = _load_input(args)
    cost_fn = _parse_cost(args.cost)
    eta = _parse_eta(args.eta, model.n)
    document = {
        "re": effective_re(model, eta),
        "r0": effective_re(model, Strategy.ones(model.n)),
        "cost": cost(cost_fn, model, eta),
    }
    _emit(document, args.out)
    return 0


def cmd_decompose(args) -> int:
    model = _load_input(args)
    decomposition = frobenius_decompose(model, threshold=args.threshold)
    document = {
        "atoms": [list(atom) for atom in decomposition.atoms],
        "remainder": list(decomposition.remainder),
        "atom_radii": list(decomposition.atom_radii),
        "order": list(decomposition.order),
    }
    _emit(document, args.out)
    return 0


def cmd_classify(args) -> int:
    # Checked whatever the verdict, though only an Indeterminate one probes.
    _check_int("probe", args.probe, 0)
    _check_int("seed", args.seed, 0)
    model = _load_input(args)
    verdict = classify_convexity(model)
    balance = verdict.symmetrization
    document = {
        "symmetrizable": balance.symmetrizable,
        "d": None if balance.d is None else list(balance.d),
        "inertia": list(verdict.inertia) if verdict.inertia else None,
        "verdict": verdict.verdict,
        "witness": None,
        "reason": verdict.reason,
    }
    if args.probe and verdict.verdict == "Indeterminate":
        probed = probe_convexity(model, trials=args.probe, seed=args.seed)
        witness = {}
        for name, w in (
            ("convexity_violation", probed.convexity_violation),
            ("concavity_violation", probed.concavity_violation),
        ):
            if w is not None:
                witness[name] = {
                    "eta0": list(w.eta0),
                    "eta1": list(w.eta1),
                    "t": w.t,
                    "gap": w.gap,
                }
        document["witness"] = witness or None
        document["probe"] = {"trials": args.probe, "seed": args.seed}
    _emit(document, args.out)
    return 0


def cmd_cstar(args) -> int:
    model = _load_input(args)
    cost_fn = _parse_cost(args.cost)
    result = eradication_cost(model, cost_fn)
    document = {
        "cstar": result.cstar,
        "set": list(result.set),
        "alpha": result.alpha,
        "exact": result.exact,
    }
    _emit(document, args.out)
    return 0


def _curve_rows(curve):
    for point in curve.points:
        yield (
            curve.kind.lower(),
            format(point.cost, ".17g"),
            format(point.loss, ".17g"),
            _strategy_text(point.strategy),
        )


def cmd_frontier(args) -> int:
    # Checked with or without --plot-data, which alone reads them.
    _check_int("samples", args.samples, 1)
    _check_int("seed", args.seed, 0)
    model = _load_input(args)
    cost_fn = _parse_cost(args.cost)
    kind = "both" if args.plot_data else args.kind
    curves = []
    if kind in ("pareto", "both"):
        curves.append(pareto_frontier(model, cost_fn, resolution=args.resolution))
    if kind in ("anti", "both"):
        curves.append(
            anti_pareto_frontier(model, cost_fn, resolution=args.resolution)
        )
    if args.plot_data:
        feasible = feasible_region_sample(
            model, cost_fn, samples=args.samples, seed=args.seed
        )
        document = {
            "config": {"resolution": args.resolution, "seed": args.seed},
            "feasible": [[c, l] for c, l in feasible],
        }
        for curve in curves:
            document[curve.kind.lower()] = {
                "points": [
                    {
                        "cost": p.cost,
                        "loss": p.loss,
                        "strategy": list(p.strategy.values),
                        "status": p.status,
                    }
                    for p in curve.points
                ]
            }
        _emit(document, args.out)
        return 0
    lines = ["kind,cost,loss,strategy"]
    for curve in curves:
        for row in _curve_rows(curve):
            lines.append(",".join(row))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sample(args) -> int:
    model = _load_input(args)
    cost_fn = _parse_cost(args.cost)
    points = feasible_region_sample(
        model, cost_fn, samples=args.samples, seed=args.seed
    )
    document = {
        "config": {"samples": args.samples, "seed": args.seed},
        "points": [[c, l] for c, l in points],
    }
    _emit(document, args.out)
    return 0


def cmd_verify_paper(args) -> int:
    results = run_criteria(only=args.only)
    if not results:
        print(f"no criteria match {args.only!r}", file=sys.stderr)
        return 2
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.slug}")
        else:
            failed += 1
            print(f"FAIL {result.slug}: {result.detail}")
        print(
            f"  {result.slug}: {result.seconds:.2f}s (budget {result.budget}s)",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _add_model_arguments(parser, with_cost=True):
    parser.add_argument("--model", help="model JSON file")
    parser.add_argument("--grid", help="grid kernel JSON file")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    if with_cost:
        parser.add_argument(
            "--cost",
            default="uniform",
            help="cost function: uniform or affine:c1,c2,...",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaxfront",
        description=(
            "Effective reproduction numbers, convexity classification, "
            "eradication costs and Pareto vaccination frontiers for "
            "metapopulation next-generation matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate R_e, R_0 and the cost of a strategy")
    _add_model_arguments(p)
    p.add_argument("--eta", required=True, help="strategy: comma list or @file.json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("decompose", help="Frobenius decomposition into atoms")
    _add_model_arguments(p, with_cost=False)
    p.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="support threshold for noisy grid kernels (default exact zero)",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="convexity classification of R_e")
    _add_model_arguments(p, with_cost=False)
    p.add_argument(
        "--probe",
        type=int,
        default=0,
        help="randomized violation search with this many trials when Indeterminate",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cstar", help="eradication cost via a maximum-weight acyclic set")
    _add_model_arguments(p)
    p.set_defaults(func=cmd_cstar)

    p = sub.add_parser("frontier", help="Pareto / anti-Pareto frontier sweep")
    _add_model_arguments(p)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--kind", choices=("pareto", "anti", "both"), default="both")
    p.add_argument(
        "--plot-data",
        action="store_true",
        help="emit one JSON document with the feasible scatter and the curves",
    )
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("sample", help="sample the feasible (cost, loss) region")
    _add_model_arguments(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "verify-paper",
        help="re-derive every bundled quantitative claim and report PASS/FAIL",
    )
    p.add_argument("--only", help="run only criteria whose name contains this")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VaxfrontError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
