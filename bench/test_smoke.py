"""Smoke test of the benchmark itself, at the smallest size (one round).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json

import pytest

import run
from tracing import TARGETS
from workloads import WORKLOADS, divisor_counts

TINY = ["--seed", "1", "--seconds", "0.01"]


def _bindings() -> list:
    return [getattr(importlib.import_module(m), attr) for m, attr, _ in TARGETS]


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_unit(workload, capsys):
    specs = run.metric_specs()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        before = _bindings() if trace else None
        assert run.main(["--workload", workload, *TINY, "--trace", str(trace)]) == 0
        line = _last_line(capsys)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == specs[kind]
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
        if trace:
            assert _bindings() == before
        else:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def _corrupt_sweep(out: str) -> str:
    head, _, last = out.rstrip("\n").rpartition("\n")
    return f"{head}\n{last.replace('verified', 'mismatch')}\n"


def _corrupt_json(key: str):
    def corrupt(out: str) -> str:
        data = json.loads(out)
        data[key] = str(int(data[key]) + 1)
        return json.dumps(data)

    return corrupt


CORRUPTIONS = {
    "sweep": _corrupt_sweep,
    "dense": _corrupt_json("D"),
    "factor": _corrupt_json("wiener"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_check_rejects_corrupted_output(workload):
    spec = WORKLOADS[workload]
    op = next(spec.rounds(3))[0]
    code, out, _ = run.call_main(op.argv)
    assert code == 0 and spec.check(op, out) is None
    assert spec.check(op, CORRUPTIONS[workload](out)) is not None


def test_corrupted_operation_fails_the_run(monkeypatch, capsys):
    import divprime.cli

    real_main = divprime.cli.main

    def corrupted_main(argv):
        code = real_main(argv)
        print("1,2,3")  # a stray CSV row
        return code

    monkeypatch.setattr(divprime.cli, "main", corrupted_main)
    assert run.main(["--workload", "sweep", *TINY]) == 1
    line = _last_line(capsys)
    assert not line["correct"] and line["failed"] == line["attempted"] >= 1


def test_divisor_counts_match_enumeration():
    from divprime.arithmetic import divisors, factorize

    assert divisor_counts(1, 300) == [
        sum(1 for d in range(1, m + 1) if m % d == 0) for m in range(1, 301)
    ]
    lo = 10**6 - 50
    assert divisor_counts(lo, lo + 100) == [len(divisors(factorize(m))) for m in range(lo, lo + 101)]
