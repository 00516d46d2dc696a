"""Spans around the calls into each vaxfront module, for the traced run.

``Tracer.install`` replaces every binding of a public vaxfront function in
every loaded vaxfront module namespace with a timing wrapper.  A span is
named after the function's defining module (``spectral.effective_re``) and
attributed to the module whose namespace the call went through, so the same
function called from ``frontier`` and from ``convexity`` is told apart.
Calls the benchmark makes through the package namespace, and into
``cli.main``, are attributed to ``bench``.

Self time is a span's duration minus the time its child spans cover.
Totals are kept for every call; the spans themselves are kept in memory for
the first traced round only, which bounds memory, and are written out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# What the totals hold for each (span name, caller), in this order.
FIELDS = ("calls", "s", "self_s", "rows")

# Bindings the benchmark calls directly that live in their defining module.
_ENTRY_POINTS = {("vaxfront.cli", "main")}


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        # (span name, caller) -> [calls, seconds, self seconds, rows]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.op = ""  # the benchmark operation the current spans belong to

    def install(self) -> None:
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (
                modname == "vaxfront" or modname.startswith("vaxfront.")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("vaxfront."):
                    continue
                if modname == "vaxfront" or (modname, attr) in _ENTRY_POINTS:
                    caller = "bench"
                else:
                    caller = modname.split(".", 1)[1]
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, name, caller))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str, caller: str):
        stack = self._stack
        totals = self.totals[(name, caller)]
        spans = self.spans
        counts_rows = name == "spectral.effective_re_batch"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - children[0]
                if counts_rows:
                    etas = args[1] if len(args) > 1 else kwargs["etas"]
                    totals[3] += len(etas)
                if self.keep_spans:
                    spans.append((self.op, name, caller, start, end, len(stack)))

        return traced

    def by_name(self) -> dict[str, list]:
        """Totals summed over callers: name -> [calls, s, self_s, rows]."""
        merged = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (name, _), values in self.totals.items():
            row = merged[name]
            for i, v in enumerate(values):
                row[i] += v
        return merged

    def document(self, rounds: int) -> dict:
        """Per-caller totals per traced round, and the first round's spans."""
        return {
            "rounds": rounds,
            "per_caller": [
                {
                    "name": name,
                    "caller": caller,
                    "calls": calls / rounds,
                    "s": seconds / rounds,
                    "self_s": self_s / rounds,
                    "rows": rows / rounds,
                }
                for (name, caller), (calls, seconds, self_s, rows) in sorted(
                    self.totals.items()
                )
            ],
            "spans": {
                "fields": ["op", "name", "caller", "start", "end", "depth"],
                "first_round": [list(span) for span in self.spans],
            },
        }
