"""Per-layer spans, recorded from outside the program.

The tracer rebinds each traced public function at the name its caller looks
it up by (``divprime.verify.build_graph``, ``divprime.oracle.divisors`` ...)
to a wrapper that records one span per call, and puts the originals back on
exit.  Nothing under ``src/`` changes.  Spans stay in memory as tuples
``(name, start_ns, end_ns, parent, op, note)``; ``parent`` is the index of
the enclosing span or -1, ``note`` a work count read off the call's
arguments or result.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

#: (module, attribute, span name).  The attribute is the caller's lookup:
#: cli calls factorize, cf_report and verify_n through its own globals,
#: verify_results calls verify_n through divprime.verify's, and build_graph
#: calls divisors through divprime.oracle's.
TARGETS = (
    ("divprime.cli", "main", "cli.main"),
    ("divprime.cli", "factorize", "arithmetic.factorize"),
    ("divprime.cli", "cf_report", "formulas.cf_report"),
    ("divprime.cli", "verify_n", "verify.verify_n"),
    ("divprime.verify", "verify_n", "verify.verify_n"),
    ("divprime.verify", "factorize", "arithmetic.factorize"),
    ("divprime.verify", "cf_report", "formulas.cf_report"),
    ("divprime.verify", "build_graph", "oracle.build_graph"),
    ("divprime.verify", "oracle_report", "oracle.oracle_report"),
    ("divprime.oracle", "divisors", "arithmetic.divisors"),
)

_NOTES = {
    "arithmetic.divisors": lambda args, result: len(result),
    "oracle.build_graph": lambda args, result: len(result.vertices),
    "oracle.oracle_report": lambda args, result: len(args[0].vertices),
    "verify.verify_n": lambda args, result: result.status,
}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.
    Spans accumulate across entries."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = -1  # set by the caller before each operation
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                counted = note(args, result) if note and result is not None else None
                spans[index] = (name, start, end, parent, self.op, counted)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("op,parent,name,start_ns,end_ns,note\n")
            for name, start, end, parent, op, note in self.spans:
                out.write(f"{op},{parent},{name},{start},{end},{'' if note is None else note}\n")


def layer_stats(spans: list[tuple]) -> dict[str, float]:
    """Per-span-name ``calls``, ``busy_s`` (outermost spans only) and
    ``self_s`` (minus direct children), plus the work counts in the notes."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    busy_ns: Counter = Counter()
    self_ns: Counter = Counter()
    notes: Counter = Counter()
    for index, (name, start, end, parent, _, note) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy_ns[name] += end - start
        if isinstance(note, str):
            notes[f"{name}.{note}"] += 1
        elif note is not None:
            notes[name] += note
            notes[f"{name}.pairs"] += note * (note - 1) // 2

    stats: dict[str, float] = {}
    for _, _, name in TARGETS:
        stats[f"{name}.calls"] = calls[name]
        stats[f"{name}.busy_s"] = busy_ns[name] / 1e9
        stats[f"{name}.self_s"] = self_ns[name] / 1e9
    stats["oracle.oracle_report.bfs_sources"] = notes["oracle.oracle_report"]
    stats["oracle.build_graph.gcd_pairs"] = notes["oracle.build_graph.pairs"]
    stats["arithmetic.divisors.items"] = notes["arithmetic.divisors"]
    for status in ("verified", "mismatch", "oracle_skipped"):
        stats[f"verify.verify_n.{status}"] = notes[f"verify.verify_n.{status}"]
    return stats
