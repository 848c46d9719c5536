import ast
import importlib

import divprime
from divprime import build_graph, cf_report, factorize, oracle_report, verify_n


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
