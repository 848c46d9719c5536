import ast
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import divprime
from divprime import build_graph, cf_report, factorize, oracle_report, verify_n, verify_range
from divprime.oracle import distance_summary


def test_readme_library_snippet():
    f = factorize(12)
    assert f.factors == ((2, 2), (3, 1))
    assert cf_report(f).wiener == 23
    assert oracle_report(build_graph(f)).wiener == 23
    assert verify_n(12).status == "verified"


def test_every_public_name_resolves():
    submodules = ("arithmetic", "formulas", "oracle", "report", "verify", "cli")
    modules = [divprime, *(importlib.import_module(f"divprime.{m}") for m in submodules)]
    stale = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert stale == []


def test_the_oracle_owns_the_cap():
    import divprime.arithmetic
    import divprime.oracle

    assert divprime.DEFAULT_CAP is divprime.oracle.DEFAULT_CAP
    assert divprime.CapExceededError is divprime.oracle.CapExceededError
    source = Path(divprime.arithmetic.__file__).read_text()
    assert "cap" not in source.lower()


def test_oracle_never_imports_formulas():
    # The oracle is the independent check on the closed form, so it must not
    # read formulas.py in any spelling of the import.
    oracle = importlib.import_module("divprime.oracle")
    with open(oracle.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base, *(f"{base}.{alias.name}" for alias in node.names)]
    assert [name for name in imported if "formulas" in name.split(".")] == []


#: One of each result record (two reports, two verification outcomes), its
#: wall-clock fields set so that its repr is fixed.
RECORDS = {
    "Factorization": lambda: factorize(12),
    "IndexReport-closed_form": lambda: cf_report(factorize(12)),
    "IndexReport-oracle": lambda: oracle_report(build_graph(factorize(12))),
    "DivisorGraph": lambda: build_graph(factorize(12)),
    "DistanceSummary": lambda: distance_summary(build_graph(factorize(12))),
    "VerificationResult-verified": lambda: verify_n(12)._replace(
        elapsed_closed_form=0.5, elapsed_oracle=0.25
    ),
    "VerificationResult-oracle_skipped": lambda: verify_n(12, cap=4)._replace(
        elapsed_closed_form=0.5
    ),
    "SweepSummary": lambda: verify_range(1, 12)._replace(total_elapsed=1.5),
}

#: The reprs these records had as frozen dataclasses; they must not change.
PINNED_REPRS = {
    "Factorization": 'Factorization(n=12, factors=((2, 2), (3, 1)))',
    "IndexReport-closed_form": "IndexReport(n=12, divisor_count=6, edge_count=7, degree_sum=14, wiener=23, harary=Fraction(11, 1), hyper_wiener=31, zagreb1=44, zagreb2=57, gutman=95, schultz=96, eccentric_connectivity=23, source='closed_form', diameter=None)",
    "IndexReport-oracle": "IndexReport(n=12, divisor_count=6, edge_count=7, degree_sum=14, wiener=23, harary=Fraction(11, 1), hyper_wiener=31, zagreb1=44, zagreb2=57, gutman=95, schultz=96, eccentric_connectivity=23, source='oracle', diameter=2)",
    "DivisorGraph": 'DivisorGraph(n=12, vertices=(1, 3, 2, 6, 4, 12), adjacency=(62, 21, 3, 1, 3, 1))',
    "DistanceSummary": 'DistanceSummary(pairs_at_distance={1: 7, 2: 8}, eccentricities=(1, 2, 2, 2, 2, 2), diameter=2)',
    "VerificationResult-verified": "VerificationResult(n=12, status='verified', closed_form=IndexReport(n=12, divisor_count=6, edge_count=7, degree_sum=14, wiener=23, harary=Fraction(11, 1), hyper_wiener=31, zagreb1=44, zagreb2=57, gutman=95, schultz=96, eccentric_connectivity=23, source='closed_form', diameter=None), oracle=IndexReport(n=12, divisor_count=6, edge_count=7, degree_sum=14, wiener=23, harary=Fraction(11, 1), hyper_wiener=31, zagreb1=44, zagreb2=57, gutman=95, schultz=96, eccentric_connectivity=23, source='oracle', diameter=2), oracle_skipped_reason=None, elapsed_closed_form=0.5, elapsed_oracle=0.25, mismatches=())",
    "VerificationResult-oracle_skipped": "VerificationResult(n=12, status='oracle_skipped', closed_form=IndexReport(n=12, divisor_count=6, edge_count=7, degree_sum=14, wiener=23, harary=Fraction(11, 1), hyper_wiener=31, zagreb1=44, zagreb2=57, gutman=95, schultz=96, eccentric_connectivity=23, source='closed_form', diameter=None), oracle=None, oracle_skipped_reason='divisor count 6 exceeds cap 4', elapsed_closed_form=0.5, elapsed_oracle=None, mismatches=())",
    "SweepSummary": "SweepSummary(lo=1, hi=12, cap=5000, counts={'verified': 12, 'mismatch': 0, 'oracle_skipped': 0}, mismatching_n=(), max_divisor_count=6, total_elapsed=1.5)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_is_pinned(name):
    assert repr(RECORDS[name]()) == PINNED_REPRS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_record_attributes_cannot_be_set(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.unknown = 0


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickle_round_trips(name):
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record

@pytest.mark.parametrize(
    "make_bad",
    [
        lambda: factorize(360)._replace(n=361),
        lambda: cf_report(factorize(360))._replace(source="x"),
        lambda: verify_range(1, 12)._replace(hi=13),
    ],
    ids=["Factorization", "IndexReport", "SweepSummary"],
)
def test_replace_validates_like_the_constructor(make_bad):
    with pytest.raises(ValueError):
        make_bad()


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # Importing the CLI is most of a one-shot command's own time.  -S skips
    # site, whose .pth files may import typing or random and so hide a
    # regression; nothing in the package needs random.
    src = str(Path(divprime.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import divprime.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_pollard_rho_does_not_import_random():
    # psi_12 survives trial division and p-1, so ECM splits it, and
    # 23603 * 45197, which p-1 leaves, is below ECM's size bound, so rho
    # splits it.  ECM's curves come from a fixed sequence and rho's walks
    # from a fixed point: neither needs a random number generator.
    src = str(Path(divprime.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from divprime import factorize; "
        "print(factorize(318665857834031151167461), factorize(23603 * 45197), "
        "'random' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "399165290221 * 798330580441 23603 * 45197 False\n"
