import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divprime
from divprime.cli import CSV_COLUMNS, main
from divprime.formulas import cf_report
from divprime.oracle import build_graph, edges, oracle_report
from divprime.arithmetic import factorize
from divprime.report import IndexReport
from divprime.verify import verify_n


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_json_twelve(self, capsys):
        code, out, _ = run(capsys, "compute", "12", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["wiener"] == "23"
        assert data["harary"] == "11/1"
        assert data["D"] == "6"
        assert data["edges"] == "7"
        assert data["diameter"] is None
        assert data["source"] == "closed_form"

    def test_table_one(self, capsys):
        code, out, _ = run(capsys, "compute", "1")
        assert code == 0
        assert "n = 1" in out
        assert "wiener" in out and "0" in out

    def test_with_oracle_thirty(self, capsys):
        code, out, _ = run(capsys, "compute", "30", "--with-oracle")
        assert code == 0
        assert "verified" in out
        assert out.count("361") == 2  # gutman agrees on both paths

    def test_with_oracle_json(self, capsys):
        code, out, _ = run(capsys, "compute", "30", "--with-oracle", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "verified"
        assert data["mismatches"] == []
        assert data["gutman"] == "361"
        assert data["oracle"]["gutman"] == "361"
        assert data["oracle"]["diameter"] == "2"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "compute", "12", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1][0] == "12"
        assert rows[1][-1] == "closed_form"

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compute", "0"])
        assert err.value.code == 2

    def test_garbage_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["compute", "twelve"])
        assert err.value.code == 2

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int<->str digit limit in this interpreter",
    )
    def test_overlong_integer_is_a_precise_usage_error(self, capsys):
        # Digits are counted as int() reads them, underscores between them aside.
        limit = sys.get_int_max_str_digits()
        for text, digits in [("1" * (limit + 700), limit + 700), ("1_" * limit + "1", limit + 1)]:
            with pytest.raises(SystemExit) as err:
                main(["compute", text])
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert f"integer of {digits} digits exceeds" in message
            assert f"limit of {limit} digits" in message
            assert "not an integer" not in message
            assert text[:100] not in message

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int<->str digit limit in this interpreter",
    )
    def test_malformed_overlong_literal_is_not_an_integer(self, capsys):
        # A double underscore makes no literal, however many digits it joins.
        text = "1__" + "1" * (sys.get_int_max_str_digits() + 700)
        with pytest.raises(SystemExit) as err:
            main(["compute", text])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "is not an integer" in message
        assert "exceeds" not in message

    def test_long_n_below_the_digit_limit_prints_its_csv(self, capsys):
        # 3914 digits: under the default limit of 4300, so the CLI accepts it
        # and must also be able to print it back.
        n = 2**13000
        code, out, _ = run(capsys, "compute", str(n), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows[1][0]) == 3914
        assert int(rows[1][0]) == n

    def test_oracle_skipped_by_cap(self, capsys):
        code, out, err = run(capsys, "compute", "12", "--with-oracle", "--cap", "4")
        assert code == 1
        assert "cap" in err
        assert "23" in out  # closed-form report still printed

    def test_environment_does_not_set_the_cap(self, capsys, monkeypatch):
        # --cap is the only setting; output never depends on the environment.
        monkeypatch.setenv("DIVPRIME_CAP", "4")
        code, out, err = run(capsys, "compute", "12", "--with-oracle")
        assert code == 0 and err == ""
        assert "status: verified" in out

    @pytest.mark.parametrize("cap", ["4", "5000"])
    def test_cap_without_oracle_is_usage_error(self, capsys, cap):
        with pytest.raises(SystemExit) as err:
            main(["compute", "12", "--cap", cap])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--cap" in message and "--with-oracle" in message

    def test_with_oracle_factorizes_once(self, capsys, monkeypatch):
        import divprime.cli
        import divprime.verify

        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(divprime.cli, "factorize", counted)
        monkeypatch.setattr(divprime.verify, "factorize", counted)
        code, out, _ = run(capsys, "compute", "183783600", "--with-oracle", "--format", "json")
        assert code == 0 and json.loads(out)["status"] == "verified"
        assert calls == [183783600]

    def test_json_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "compute", "360360", "--format", "json")
        _, second, _ = run(capsys, "compute", "360360", "--format", "json")
        assert first == second


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "50")
        assert code == 0
        assert "50 verified, 0 mismatches" in out

    def test_single(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "12")
        assert code == 0
        assert "1 verified" in out

    def test_inverted_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "9", "3"])
        assert err.value.code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "30", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] == "30"
        assert data["mismatch"] == "0"
        assert data["mismatching_n"] == []

    def test_csv_streams_one_row_per_n(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "20", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 21
        assert [r[0] for r in rows[1:]] == [str(n) for n in range(1, 21)]
        assert all(r[-1] == "verified" for r in rows[1:])

    def test_csv_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "verify", "1", "40", "--format", "csv")
        _, second, _ = run(capsys, "verify", "1", "40", "--format", "csv")
        assert first == second

    def test_csv_skip_rows_keep_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "48", "48", "--cap", "8", "--format", "csv")
        assert code == 0  # skips are not mismatches
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[-1] == "oracle_skipped"
        assert row[CSV_COLUMNS.index("diameter")] == ""
        assert row[CSV_COLUMNS.index("D")] == "10"


class TestCsvRow:
    """``_csv_row`` hands ints and None to ``csv.writer`` as they are and
    formats only the Harary index; written out, each row must read as the
    row of per-field ``_cell`` strings does."""

    CASES = {
        # n = 12: Harary 11/1, no diameter
        "closed_form": lambda: (cf_report(factorize(12)), "closed_form"),
        # n = 4: Harary 5/2, diameter 2
        "oracle": lambda: (oracle_report(build_graph(factorize(4))), "oracle"),
        # D = 240 above the cap: the closed form's row, Harary 15251/1
        "oracle_skipped": lambda: (verify_n(720720, cap=100).closed_form, "oracle_skipped"),
    }
    HARARY = {"closed_form": "11/1", "oracle": "5/2", "oracle_skipped": "15251/1"}

    @staticmethod
    def written(row):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(row)
        return out.getvalue()

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_per_field_cells(self, case):
        report, status = self.CASES[case]()
        row = divprime.cli._csv_row(report, status)
        fields = [*(getattr(report, f) for f in IndexReport._fields if f != "source"), status]
        assert self.written(row) == self.written([*map(divprime.cli._cell, fields)])
        cells = next(csv.reader([self.written(row)]))
        assert cells[: CSV_COLUMNS.index("harary")] == [str(v) for v in report[:5]]
        assert cells[CSV_COLUMNS.index("harary")] == self.HARARY[case]
        assert cells[CSV_COLUMNS.index("diameter")] == ("2" if case == "oracle" else "")
        assert cells[-1] == status


class TestMismatch:
    """A closed form that is off by one in the Wiener index, as seen by
    verify_n; the CLI must report the mismatch in every format."""

    @pytest.fixture(autouse=True)
    def broken_closed_form(self, monkeypatch):
        import divprime.verify

        real = divprime.verify.cf_report

        def off_by_one(f):
            report = real(f)
            return report._replace(wiener=report.wiener + 1)

        monkeypatch.setattr(divprime.verify, "cf_report", off_by_one)

    def test_json(self, capsys):
        code, out, err = run(capsys, "compute", "30", "--with-oracle", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "mismatch"
        assert data["mismatches"] == ["wiener"]
        assert err == "mismatch for n = 30: wiener\n"

    def test_table(self, capsys):
        code, out, err = run(capsys, "compute", "30", "--with-oracle")
        assert code == 1
        assert "status: MISMATCH in wiener\n" in out
        assert err == "mismatch for n = 30: wiener\n"

    def test_csv_has_both_rows(self, capsys):
        code, out, err = run(capsys, "compute", "30", "--with-oracle", "--format", "csv")
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert [r[-1] for r in rows[1:]] == ["closed_form", "oracle"]
        wiener = CSV_COLUMNS.index("wiener")
        assert (rows[1][wiener], rows[2][wiener]) == ("44", "43")
        assert err == "mismatch for n = 30: wiener\n"

    def test_verify_csv_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "5", "--format", "csv")
        assert code == 1
        assert [r[-1] for r in list(csv.reader(io.StringIO(out)))[1:]] == ["mismatch"] * 5

    def test_verify_table_lists_mismatching_n(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "5")
        assert code == 1
        assert "0 verified, 5 mismatches" in out
        assert "mismatching n: 1, 2, 3, 4, 5\n" in out

    def test_verify_json_lists_mismatching_n(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "5", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["mismatch"] == "5"
        assert data["mismatching_n"] == ["1", "2", "3", "4", "5"]


class TestExport:
    def test_dot_fifteen(self, capsys):
        code, out, _ = run(capsys, "export", "15", "--style", "dot")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("graph")
        assert sum(1 for l in lines if l.endswith(";") and "--" not in l) == 4
        assert sum(1 for l in lines if "--" in l) == 4
        assert "  3 -- 5;" in lines

    def test_dot_one(self, capsys):
        code, out, _ = run(capsys, "export", "1")
        assert code == 0
        assert "  1;" in out.splitlines()
        assert "--" not in out

    def test_adjacency_json_twelve(self, capsys):
        code, out, _ = run(capsys, "export", "12", "--style", "adjacency-json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == "12"
        assert len(data["vertices"]) == 6
        assert len(data["edges"]) == 7

    def test_adjacency_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "export", "30", "--style", "adjacency-json")
        data = json.loads(out)
        vertices = [int(v) for v in data["vertices"]]
        edge_list = [(int(u), int(v)) for u, v in data["edges"]]
        # re-score definitionally from the serialized edge list
        degree = {v: 0 for v in vertices}
        for u, v in edge_list:
            degree[u] += 1
            degree[v] += 1
        g = build_graph(factorize(30))
        assert vertices == sorted(g.vertices)
        assert len(edge_list) == sum(1 for _ in edges(g))
        assert [degree[v] for v in g.vertices] == [
            row.bit_count() for row in g.adjacency
        ]

    def test_edges_ascending(self, capsys):
        _, out, _ = run(capsys, "export", "60", "--style", "adjacency-json")
        data = json.loads(out)
        pairs = [(int(u), int(v)) for u, v in data["edges"]]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_cap_exceeded(self, capsys):
        code, out, err = run(capsys, "export", "720720", "--cap", "100")
        assert code == 1
        assert out == ""
        assert err == "error: n = 720720 has 240 divisors, above the configured cap of 100\n"


@pytest.mark.parametrize("argv", [["compute", "12", "--cap", "4"], ["verify", "9", "3"]])
def test_subcommand_usage_error_prints_its_usage(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: divprime {argv[0]} ")


@pytest.mark.parametrize(
    ("argv", "first_line"),
    [
        (["verify", "1", "20000", "--format", "csv"], ",".join(CSV_COLUMNS)),
        (["export", "720720", "--style", "dot"], "graph divprime_720720 {"),
    ],
)
def test_reader_closing_stdout_exits_141_without_a_traceback(argv, first_line):
    # `divprime ... | head -1`: exit 1 would read as a mismatch, and a
    # traceback as a crash.  A one-page pipe makes the child's later writes
    # fail however fast it runs: the DOT export is 25 KB, less than a
    # default pipe holds.
    src = str(Path(divprime.__file__).resolve().parent.parent)
    fcntl = pytest.importorskip("fcntl")
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen(
        [sys.executable, "-m", "divprime.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
    ) as child:
        os.close(write_end)
        with open(read_end) as reader:
            assert reader.readline() == first_line + "\n"
        err = child.stderr.read()
    assert child.returncode == 141
    assert "Traceback" not in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has left: flushing it raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_leaves_no_devnull_fd_open(monkeypatch):
    # main() points stdout's fd at devnull with dup2; the fd that os.open
    # returned for devnull is then a duplicate and must be closed.
    opened = []
    real_open = os.open

    def recording_open(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened.append(fd)
        return fd

    owned = real_open(os.devnull, os.O_WRONLY)
    try:
        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(owned))
        assert main(["compute", "12"]) == 141
        monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])
    finally:
        os.close(owned)


class TestParserReuse:
    """main() builds its parser once per process; no call may leave state
    behind for the next."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        return err.value.code, capsys.readouterr().err

    def test_cap_does_not_carry_over(self, capsys):
        code, _, err = run(capsys, "compute", "12", "--with-oracle", "--cap", "3")
        assert code == 1 and "exceeds cap 3" in err
        code, out, _ = run(capsys, "compute", "12", "--with-oracle")
        assert code == 0 and "status: verified" in out

    def test_cap_refusal_does_not_carry_over(self, capsys):
        code, err = self.usage_error(capsys, "compute", "12", "--cap", "4")
        assert code == 2 and "--with-oracle" in err
        code, out, _ = run(capsys, "compute", "12", "--with-oracle")
        assert code == 0 and "status: verified" in out

    def test_usage_error_does_not_carry_over(self, capsys):
        first = self.usage_error(capsys, "compute", "0")
        assert first[0] == 2 and "expected a positive integer, got 0" in first[1]
        assert run(capsys, "compute", "12")[0] == 0
        assert self.usage_error(capsys, "compute", "0") == first
        assert run(capsys, "compute", "12")[0] == 0

    def test_leaves_no_argparse_cycles(self, capsys):
        run(capsys, "verify", "1", "30", "--format", "csv")  # builds the parser
        gc.collect()
        flags, start = gc.get_debug(), len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run(capsys, "verify", "1", "30", "--format", "csv")
            gc.collect()
            modules = {getattr(obj, "__module__", None) for obj in gc.garbage[start:]}
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
        assert "argparse" not in modules
