"""Benchmark of vaxfront: one workload per process, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; vaxfront is imported from ``src/``.  The
run sets up the workload five times (import, inputs, warm-up) and reports
the median as ``setup_s``; then it runs whole rounds of the workload's
operations for about ``--seconds`` seconds.  ``run_s`` is one round's time
with every operation at its median over the rounds, and ``peak_rss_mb``
the process's peak resident memory, read before the checks import scipy.
Times are scaled to a reference machine speed (see ``calibrate``).  Every
output of the first round is checked against the oracles, and every later
round must reproduce it byte for byte.

With ``--trace 1`` the first round runs untraced, every later one with
spans around each vaxfront function (see tracing.py), and the per-layer
metrics are per traced round.  Result and trace files go to
``.perfbench/`` at the root.  The last line of standard output is the
result as one JSON object.  Exit code 0 on success, 2 when vaxfront cannot
be imported.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads; vaxfront's own thread setting
# stays at its default.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("VAXFRONT_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

# The host's speed swings by up to 2x within seconds as neighbouring
# machines load it.  Every timed step is therefore scaled by REFERENCE_S over
# the mean time of a fixed calibration kernel run just before and just after
# it: the kernel took REFERENCE_S seconds on the reference box (2 CPUs,
# Python 3.11, numpy 2.4).  Over five runs on one input, scaling each
# operation so cut the spread of the round time from 19% to 2%
# (radius-large) and 4% (eradication).  Scaling whole rounds helped less, as
# the speed changes within a round, and a kernel with large matrix-vector
# products tracked the interpreter-bound operations worse.  Consecutive
# operations shorter than CALIBRATE_EVERY_S share one bracket, which keeps
# the kernel's cost down on workloads of many tiny calls.
REFERENCE_S = 0.02
CALIBRATE_EVERY_S = 0.25
_SMALL = np.random.default_rng(0).random((24, 6, 6))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    in no vaxfront code.  The median of three passes, so that one
    preemption or one burst moves nothing."""
    passes = []
    for _ in range(3):
        begin = time.perf_counter()
        table = {}
        for i in range(13_000):
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(26):
            for m in _SMALL:
                np.linalg.eigvals(m)
        passes.append(time.perf_counter() - begin)
    return sorted(passes)[1]


def speed_scales(calibrations) -> list[float]:
    """For each step between two calibrations, REFERENCE_S over their mean."""
    return [REFERENCE_S * 2.0 / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def import_vaxfront():
    """A fresh import of the package from src/, so every set-up pays it."""
    for name in [m for m in sys.modules if m == "vaxfront" or m.startswith("vaxfront.")]:
        del sys.modules[name]
    vf = importlib.import_module("vaxfront")
    importlib.import_module("vaxfront.cli")
    return vf


def run_round(ops, tracer, calibrations: list[float]):
    """One pass over the operations, calibrating after every CALIBRATE_EVERY_S
    of them and after the last.

    Returns the seconds of each operation, scaled to the reference speed,
    and the summaries of their outputs.
    """
    raw = []
    seconds = []
    pending = 0.0  # unscaled seconds since the last calibration
    start = 0  # first operation since the last calibration
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        begin = time.perf_counter()
        try:
            raw.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            raw.append(exc)
        seconds.append(time.perf_counter() - begin)
        pending += seconds[-1]
        if pending >= CALIBRATE_EVERY_S or len(seconds) == len(ops):
            calibrations.append(calibrate())
            (scale,) = speed_scales(calibrations[-2:])
            seconds[start:] = [t * scale for t in seconds[start:]]
            pending, start = 0.0, len(seconds)
    summaries = [
        {"error": repr(out)} if isinstance(out, Exception) else op.summarize(out)
        for op, out in zip(ops, raw)
    ]
    return seconds, summaries


def typical_round(ops, rounds) -> tuple[float, dict[str, float]]:
    """Round time and time per phase, each operation at its median over the
    rounds, so that a burst of load moves no operation."""
    medians = [statistics.median(r[0][i] for r in rounds) for i in range(len(ops))]
    phase_s = dict.fromkeys((op.phase for op in ops), 0.0)
    for op, seconds in zip(ops, medians):
        phase_s[op.phase] += seconds
    return sum(medians), phase_s


def span_metrics(tracer, rounds: int, names) -> dict[str, float]:
    """Per traced round, each metric named ``<module>.<function>.<field>``
    or ``<module>.<function>.<field>_from_<caller>``, where the field is
    calls, s (inclusive seconds), self_s or rows; ``graph`` is vaxfront's
    ``_graph`` module.  Spans that never ran read 0."""
    by_name = tracer.by_name()
    metrics = {}
    for metric in names:
        span, _, field = metric.rpartition(".")
        field, _, caller = field.partition("_from_")
        if field not in tracing.FIELDS:
            continue
        if span.startswith("graph."):
            span = "_" + span
        values = tracer.totals.get((span, caller)) if caller else by_name.get(span)
        metrics[metric] = (values[tracing.FIELDS.index(field)] if values else 0) / rounds
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick check that every metric is reported")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_vaxfront()
    except ImportError as exc:
        print(f"error: cannot import vaxfront from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    cls = workloads.WORKLOADS[args.workload]
    calibrations = [calibrate()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        vf = import_vaxfront()
        workload = cls(vf, args.seed, args.smoke, workdir)
        workload.warm_up()
        setup_times.append(time.perf_counter() - begin)
        calibrations.append(calibrate())
    ops = workload.operations()

    tracer = None
    rounds = []
    start = time.perf_counter()
    while True:
        if args.trace and rounds and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
        if tracer is not None and len(rounds) == 2:
            tracer.keep_spans = False
        begin = time.perf_counter()
        rounds.append(run_round(ops, tracer, calibrations))
        now = time.perf_counter()
        if len(rounds) >= 1 + args.trace and now + (now - begin) - start > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {op.name: s for op, s in zip(ops, rounds[0][1])}
    problems = workload.check(reference)
    checked_wrong = {name for name, found in problems.items() if found}
    texts = [json.dumps(s, sort_keys=True) for s in rounds[0][1]]
    failed = wrong = 0
    for index, (_, summaries) in enumerate(rounds):
        for op, text, summary in zip(ops, texts, summaries):
            errored = isinstance(summary, dict) and "error" in summary
            mismatch = json.dumps(summary, sort_keys=True) != text
            if mismatch:
                problems[op.name].append(f"round {index} output differs from round 0")
            if errored or mismatch or op.name in checked_wrong:
                failed += 1
                wrong += not errored
    for name, found in problems.items():
        for problem in found[:3]:
            print(f"FAIL {args.workload} {name}: {problem}", file=sys.stderr)

    setup_scales = speed_scales(calibrations[: SETUP_REPEATS + 1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        traced = len(rounds) - 1
        metrics = span_metrics(tracer, traced, [m["name"] for m in declared])
        if not any(problems.values()):
            # Rates come from the untraced first round; areas are exact.
            metrics.update(workload.rates(typical_round(ops, rounds[:1])[1]))
            metrics["pareto_area"], metrics["anti_area"] = workload.areas(reference)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.document(traced)) + "\n")
    else:
        metrics = {
            "setup_s": statistics.median(t * k for t, k in zip(setup_times, setup_scales)),
            "run_s": typical_round(ops, rounds)[0],
            "peak_rss_mb": peak_rss_mb,
        }

    result = {
        "correct": wrong == 0,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    record = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, rounds=len(rounds), round_s=[sum(r[0]) for r in rounds],
        op_s={op.name: [r[0][i] for r in rounds] for i, op in enumerate(ops)},
        setup_times=setup_times, calibrations=calibrations,
        machine=dict(python=platform.python_version(), numpy=np.__version__,
                     cpus=os.cpu_count(), blas_threads=BLAS_THREADS),
    )
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
