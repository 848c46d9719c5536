"""Command-line front end.

    divprime compute <n> [--format table|json|csv] [--with-oracle [--cap D]]
    divprime verify <lo> <hi> [--cap D] [--format table|json|csv]
    divprime export <n> [--style dot|adjacency-json] [--cap D]

Exit codes: 0 success or verified, 1 mismatch or a cap hit by compute or
export, 2 usage error, 141 stdout closed by its reader before the output
ended (what a shell reports for SIGPIPE, as in ``divprime verify 1 20000 |
head``).

Machine formats (json, csv) are byte-identical across runs: integers are
serialized as decimal strings so arbitrary sizes survive any JSON parser,
the Harary index as a reduced "p/q" string, and durations appear only in
the human-readable table output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Sequence
from contextlib import suppress
from fractions import Fraction
from functools import cache
from operator import attrgetter
from time import perf_counter

from .arithmetic import Factorization, factorize
from .formulas import cf_report
from .oracle import DEFAULT_CAP, CapExceededError, build_graph, edges
from .report import COMPARED_FIELDS, IndexReport
from .verify import (
    MISMATCH,
    ORACLE_SKIPPED,
    VERIFIED,
    verify_n,
    verify_range,
    verify_results,
)

__all__ = ["main", "CSV_COLUMNS"]

#: The report field behind each CSV column but the last (every field but the
#: source tag), and the two columns named differently from their field.
_REPORT_FIELDS = tuple(field for field in IndexReport._fields if field != "source")
_RENAMED = {"divisor_count": "D", "edge_count": "edges"}

#: Fixed column set for all CSV output.  In compute mode the status column
#: carries the report's source tag; in verify mode the verification status.
CSV_COLUMNS = (*(_RENAMED.get(field, field) for field in _REPORT_FIELDS), "status")
_column_values = attrgetter(*_REPORT_FIELDS)  # a report's values in column order
_DIAMETER = CSV_COLUMNS.index("diameter")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # An integer longer than Python's int<->str digit limit also lands
        # here; name the limit rather than echo thousands of digits.
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits.isdecimal() and 0 < limit < len(digits):
            raise argparse.ArgumentTypeError(
                f"integer of {len(digits)} digits exceeds Python's limit of "
                f"{limit} digits (sys.get_int_max_str_digits())"
            )
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process: a parser is a web of cyclic objects, and one per
    # call would leave all of them for the cycle collector.
    parser = argparse.ArgumentParser(
        prog="divprime",
        description="Topological indices of divisor prime graphs, computed "
        "closed-form and cross-checked against brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="report the indices of one n")
    compute.add_argument("n", type=_positive_int)
    compute.add_argument("--format", choices=("table", "json", "csv"), default="table")
    compute.add_argument(
        "--with-oracle",
        action="store_true",
        help="also run the brute-force path and diff the two reports",
    )
    # No default, so that a --cap given without --with-oracle can be refused.
    compute.add_argument("--cap", type=_positive_int)

    verify = sub.add_parser("verify", help="sweep [lo, hi], comparing both paths")
    verify.add_argument("lo", type=_positive_int)
    verify.add_argument("hi", type=_positive_int)
    verify.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    verify.add_argument("--format", choices=("table", "json", "csv"), default="table")

    export = sub.add_parser("export", help="serialize the graph of one n")
    export.add_argument("n", type=_positive_int)
    export.add_argument("--style", choices=("dot", "adjacency-json"), default="dot")
    export.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)

    return parser, sub.choices


# ---------------------------------------------------------------------------
# report rendering


def _cell(value: object, table: bool = False) -> str | None:
    """One report value as a machine string, None where it is unknown; a
    rational reads "p/q" ("/1" included), plus its decimal value in a table."""
    if type(value) is not Fraction:  # isinstance would go through ABCMeta per cell
        return None if value is None else str(value)
    text = f"{value.numerator}/{value.denominator}"
    if table:
        with suppress(OverflowError):
            text += f" ({float(value):.6f})"
    return text


def _report_json_dict(report: IndexReport) -> dict:
    # status is not a report field; zip stops before it
    data = {column: _cell(value) for column, value in zip(CSV_COLUMNS, _column_values(report))}
    data["source"] = report.source
    return data


def _csv_row(report: IndexReport, status: str) -> list[str | None]:
    # csv.writer writes None as an empty field.
    return [*map(_cell, _column_values(report)), status]


def _render(
    fmt: str,
    fact: Factorization,
    reports: list[IndexReport],
    json_extra: dict,
    csv_statuses: list[str],
    trailer: list[str],
) -> None:
    """Print ``reports`` as json (later ones nested by source, then ``json_extra``),
    csv rows tagged ``csv_statuses``, or a table followed by ``trailer``."""
    if fmt == "json":
        nested = {r.source: _report_json_dict(r) for r in reports[1:]}
        print(json.dumps({**_report_json_dict(reports[0]), **nested, **json_extra}, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(_csv_row, reports, csv_statuses))
    else:
        print(f"n = {fact.n} = {fact}" if fact.factors else "n = 1")
        print()
        headers = [r.source.replace("_", " ") for r in reports]
        rows = [["", *headers]] if len(reports) > 1 else []
        for column, *values in zip(CSV_COLUMNS[1:-1], *(_column_values(r)[1:] for r in reports)):
            rows.append([column, *(_cell(v, table=True) or "-" for v in values)])
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        print("", *trailer, sep="\n")


# ---------------------------------------------------------------------------
# compute


def _cmd_compute(args: argparse.Namespace) -> int:
    fact = factorize(args.n)

    if not args.with_oracle:
        start = perf_counter()
        report = cf_report(fact)
        trailer = [f"elapsed: closed form {perf_counter() - start:.6f} s"]
        _render(args.format, fact, [report], {}, [report.source], trailer)
        return 0

    result = verify_n(fact, cap=args.cap or DEFAULT_CAP)
    if result.status == ORACLE_SKIPPED:
        reason = result.oracle_skipped_reason
        extra = {"status": ORACLE_SKIPPED, "oracle_skipped_reason": reason}
        trailer = [f"status: oracle skipped ({reason})"]
        _render(args.format, fact, [result.closed_form], extra, [ORACLE_SKIPPED], trailer)
        print(f"oracle skipped: {reason}", file=sys.stderr)
        return 1

    reports = [result.closed_form, result.oracle]
    mismatched = ", ".join(result.mismatches)
    total = len(COMPARED_FIELDS)
    trailer = [
        f"status: MISMATCH in {mismatched}"
        if result.status == MISMATCH
        else f"status: verified ({total}/{total} comparisons equal)",
        f"elapsed: closed form {result.elapsed_closed_form:.6f} s, "
        f"oracle {result.elapsed_oracle:.6f} s",
    ]
    extra = {"status": result.status, "mismatches": list(result.mismatches)}
    _render(args.format, fact, reports, extra, [r.source for r in reports], trailer)
    if result.status == MISMATCH:
        print(f"mismatch for n = {args.n}: {mismatched}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.format == "csv":
        # Stream one row per n; values from the closed form, diameter from
        # the oracle when it ran.
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        mismatches = 0
        for result in verify_results(args.lo, args.hi, cap=args.cap):
            row = _csv_row(result.closed_form, result.status)
            if result.oracle is not None:
                row[_DIAMETER] = str(result.oracle.diameter)
            writer.writerow(row)
            mismatches += result.status == MISMATCH
        return 1 if mismatches else 0

    summary = verify_range(args.lo, args.hi, cap=args.cap)
    counts = summary.counts
    if args.format == "json":
        data = {
            "lo": str(summary.lo),
            "hi": str(summary.hi),
            "cap": str(summary.cap),
            "verified": str(counts[VERIFIED]),
            "mismatch": str(counts[MISMATCH]),
            "oracle_skipped": str(counts[ORACLE_SKIPPED]),
            "mismatching_n": [str(n) for n in summary.mismatching_n],
            "max_divisor_count": str(summary.max_divisor_count),
        }
        print(json.dumps(data, indent=2))
    else:
        print(
            f"verify {summary.lo}..{summary.hi} (cap {summary.cap}): "
            f"{counts[VERIFIED]} verified, {counts[MISMATCH]} mismatches, "
            f"{counts[ORACLE_SKIPPED]} oracle-skipped"
        )
        print(f"max divisor count: {summary.max_divisor_count}")
        if summary.mismatching_n:
            print("mismatching n:", ", ".join(map(str, summary.mismatching_n)))
        print(f"elapsed: {summary.total_elapsed:.3f} s")
    return 1 if summary.mismatching_n else 0


# ---------------------------------------------------------------------------
# export


def _cmd_export(args: argparse.Namespace) -> int:
    fact = factorize(args.n)
    try:
        graph = build_graph(fact, cap=args.cap)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.style == "dot":
        print(f"graph divprime_{graph.n} {{")
        for v in graph.vertices:
            print(f"  {v};")
        for u, v in edges(graph):
            print(f"  {u} -- {v};")
        print("}")
    else:
        data = {
            "n": str(graph.n),
            "vertices": [str(v) for v in graph.vertices],
            "edges": [[str(u), str(v)] for u, v in edges(graph)],
        }
        print(json.dumps(data, indent=2))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute" and args.cap is not None and not args.with_oracle:
        commands["compute"].error("argument --cap: requires --with-oracle")
    if args.command == "verify" and args.lo > args.hi:
        commands["verify"].error(f"invalid range: lo={args.lo} exceeds hi={args.hi}")
    run = {"compute": _cmd_compute, "verify": _cmd_verify, "export": _cmd_export}
    try:
        code = run[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        # The reader left early (`| head`).  Point stdout at devnull so the
        # flush at exit cannot fail again, and exit as a shell does on SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
