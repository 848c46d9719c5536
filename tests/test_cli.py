import csv
import gc
import io
import json
import sys

import pytest

from divprime.cli import CSV_COLUMNS, main
from divprime.oracle import build_graph, degree_of, edges
from divprime.arithmetic import factorize


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
        limit = sys.get_int_max_str_digits()
        text = "1" * (limit + 700)
        with pytest.raises(SystemExit) as err:
            main(["compute", text])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"integer of {limit + 700} digits exceeds" in message
        assert f"limit of {limit} digits" in message
        assert "not an integer" not in message
        assert "1" * 100 not in message

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
        assert len(edge_list) == sum(1 for _ in edges(g))
        assert [degree[v] for v in vertices] == [
            degree_of(g, i) for i in range(len(g.vertices))
        ]

    def test_edges_ascending(self, capsys):
        _, out, _ = run(capsys, "export", "60", "--style", "adjacency-json")
        data = json.loads(out)
        pairs = [(int(u), int(v)) for u, v in data["edges"]]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "export", "720720", "--cap", "100")
        assert code == 1
        assert "cap" in err


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
