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
