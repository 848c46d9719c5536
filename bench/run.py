"""divprime benchmark: drives ``divprime.cli.main`` the way its users do.

    python3 bench/run.py --workload sweep|dense|factor|all --seed N
                         [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is not installed,
so ``src/`` is put on the path here.  One process, one client, closed loop:
each operation is one ``main([...])`` call with stdout captured, checked
against values the benchmark derives from its own seeded inputs.  Rounds of
operations run until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json, and the line before it the wall-clock ones not gated there.  With ``--trace 1`` every operation runs twice in a row,
untraced and then with every layer boundary wrapped (see tracing.py), and
the last line reports the per-layer metrics.  Spans are written to
``bench/out/<workload>.spans.csv``.  ``--workload all`` runs each workload in
a fresh interpreter and prints one table.  The exit code is 0 only when every
operation passed its checks.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from tracing import Tracer, layer_stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters timed per run for setup_s, spread evenly over the run
#: so that their median sees the machine's average state, not one moment.
SETUP_RUNS = 7
#: setup_s covers importing divprime.cli and the first factorize call, which
#: builds the trial-division prime table.
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import divprime.cli\n"
    "divprime.cli.factorize(720720)\n"
    "print(time.perf_counter() - start)\n"
)
#: Run before timing starts, so argparse, json and csv set-up is not timed.
WARMUP = (
    ("compute", "12", "--format", "json"),
    ("compute", "12", "--with-oracle", "--format", "json"),
    ("verify", "1", "10", "--format", "csv"),
)


def reference_work() -> int:
    """Fixed pure-Python work that shares nothing with divprime: small gcds,
    shifts and ors on a growing bitmask, and products of 67-bit integers
    modulo 2**67 - 1, the operations the oracle and Pollard rho spend their
    time in.  About 2.5 ms on a 2-core Xeon with Python 3.11."""
    mask, x = 0, 3
    for i in range(1, 320):
        for j in range(1, 40):
            if gcd(i, j) == 1:
                mask |= 1 << (i * j % 1024)
        x = (x * x + i) % 147573952589676412927
    return mask.bit_count() + x


def reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def metric_specs() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end_to_end and per_layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# run tags


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_tags() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# operations


def setup_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def call_main(argv: Iterable[str]) -> tuple[int | None, str, float]:
    """One CLI call: exit code (None if it raised), stdout, wall seconds."""
    import divprime.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = divprime.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc()
        wall = perf_counter() - start
    if code is None:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue(), wall


@dataclass
class Pass:
    """Operations run so far, with their wall times and check outcomes."""

    ops: list = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference_work after each op
    stdout_bytes: int = 0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def run(self, op, check) -> None:
        code, out, wall = call_main(op.argv)
        problem = check(op, out) if code == 0 else f"exit code {code}"
        if problem:
            print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        self.ops.append(op)
        self.walls.append(wall)
        self.ok.append(not problem)
        self.stdout_bytes += len(out.encode())


def until(rounds: Iterator[list], seconds: float) -> Iterator:
    """Operations from whole rounds, until a round ends past the deadline."""
    deadline = perf_counter() + seconds
    for ops in rounds:
        yield from ops
        if perf_counter() >= deadline:
            return


def _p90(values: list[float]) -> float:
    # The exclusive method keeps dense's p90 inside its largest-D group; the
    # inclusive one lands between groups for runs of fewer than nine rounds.
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(done: Pass, setup_s: float) -> dict[str, float]:
    """Wall-clock metrics, and the same in reference units: each operation's
    wall time divided by the median reference_work time of the nine nearest
    operations, which cancels drift in the machine's CPU speed."""
    refs = done.refs
    local = [statistics.median(refs[max(0, i - 4) : i + 5]) for i in range(len(refs))]
    cost = [w / r for w, r in zip(done.walls, local)]
    wall = sum(done.walls)
    integers = sum(op.integers for op, ok in zip(done.ops, done.ok) if ok)
    pairs = sum(op.pairs for op, ok in zip(done.ops, done.ok) if ok)
    ms = [w * 1e3 for w in done.walls]
    return {
        "setup_s": setup_s,
        "n_per_ref": integers / sum(cost),
        "op_p50_ref": statistics.median(cost),
        "op_p90_ref": _p90(cost),
        "pairs_per_ref": pairs / sum(cost),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_ms": statistics.median(refs) * 1e3,
        "n_per_s": integers / wall,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": _p90(ms),
        "pairs_per_s": pairs / wall,
    }


def per_layer(untraced: Pass, traced: Pass, spans: list) -> dict[str, float]:
    stats = layer_stats(spans)
    stats["cli.main.stdout_bytes"] = traced.stdout_bytes
    stats["trace.wall_s"] = sum(traced.walls)
    stats["trace.ops"] = len(traced.ops)
    stats["trace.overhead_frac"] = sum(traced.walls) / sum(untraced.walls) - 1
    return stats


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: end-to-end metrics, or per-layer ones if
    ``trace``, with the operation counts and the run's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import divprime.cli  # noqa: F401  (compiles the package before setup_s is timed)

    spec = WORKLOADS[workload]
    for argv in WARMUP:
        call_main(argv)
    untraced, traced, tracer, setup = Pass(), Pass(), Tracer(), []
    start = perf_counter()
    for op in until(spec.rounds(seed), seconds):
        untraced.run(op, spec.check)
        untraced.refs.append(reference_seconds())
        if not trace and len(setup) * seconds <= (perf_counter() - start) * SETUP_RUNS:
            setup.append(setup_seconds())
        if trace:
            # The traced call follows its untraced twin at once, so both see
            # the same machine state and overhead_frac measures the tracing.
            tracer.op = len(traced.ops)
            with tracer:
                traced.run(op, spec.check)
    result = {
        "attempted": len(untraced.ops) + len(traced.ops),
        "failed": untraced.failed + traced.failed,
        "inputs": [op.record for op in untraced.ops],
    }
    if trace:
        tracer.write(OUT / f"{workload}.spans.csv")
        result["metrics"] = per_layer(untraced, traced, tracer.spans)
    else:
        while len(setup) < SETUP_RUNS:
            setup.append(setup_seconds())
        result["metrics"] = end_to_end(untraced, statistics.median(setup))
    return result


def result_line(result: dict, units: dict[str, str]) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh interpreter, one table of every metric."""
    status = 0
    lines = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if not done.stdout.strip():
            print(f"{workload}: no result (exit code {done.returncode})")
            continue
        *_, unlisted, last = done.stdout.splitlines()
        line = lines[workload] = json.loads(last)
        print(f"{workload}: failed_frac {line['failed'] / line['attempted']:.4g} "
              f"({line['failed']} of {line['attempted']} operations)")
        for name, metric in line["metrics"].items():
            print(f"  {name:36} {metric['value']:>14.6g} {metric['unit']}")
        for name, value in json.loads(unlisted)["unlisted"].items():
            print(f"  ({name}){'':{34 - len(name)}} {value:>14.6g}")
    print(json.dumps(lines))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divprime" / "cli.py").is_file():
        print(f"error: no divprime sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    units = metric_specs()["per_layer" if args.trace else "end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "tags": run_tags()}))
    print(json.dumps({"inputs": result["inputs"]}))
    print(json.dumps({"unlisted": {k: v for k, v in result["metrics"].items() if k not in units}}))
    print(json.dumps(result_line(result, units)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
