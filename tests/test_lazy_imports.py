"""Each `prect` subcommand loads only the modules of the stages it runs.

The package serves its re-exports on first use (PEP 562) and the CLI
imports a stage module inside the facts and subcommands that use it, so a
`prect build` process compiles six modules, not twelve.  verify reads its
planarity, Eulerian and Krein verdicts from linegraph, so it never loads
analysis.  No module imports dataclasses, which would load inspect, nor
fractions: analyze's eigenvalue bound is integer work.  No report class
outside _util restates the ok rule of its checks or verdicts.
Every run here is a fresh interpreter, since one test process has long
since loaded them all.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import prect
from prect.cli import main

SRC = Path(prect.__file__).resolve().parent.parent
ROOT = SRC.parent

BUILD = {"cli", "export", "construct", "gf", "incidence", "_util"}
QUICK = BUILD | {"linegraph", "cliques"}
FULL = QUICK | {"geometry"}

# argv with {} for the model file's directory, and the prect.* modules it loads
SUBCOMMANDS = {
    "build": (("build", "--family", "l2k", "--k", "2", "--out", "{}/new.json"), BUILD),
    "verify quick": (("verify", "{}/l22.json"), QUICK),
    "verify full l2k": (("verify", "{}/l22.json", "--profile", "full"), FULL),
    "verify full subplane": (("verify", "{}/r39.json", "--profile", "full"),
                             FULL | {"bilinear"}),
    "analyze": (("analyze", "--graph", "{}/l22.json"), BUILD | {"linegraph", "analysis"}),
    "iso": (("iso", "{}/r39.json"), BUILD | {"linegraph", "bilinear"}),
    "cliques": (("cliques", "{}/l22.json"), QUICK),
    "geometry": (("geometry", "{}/l22.json"), QUICK | {"geometry"}),
    "export model": (("export", "{}/l22.json", "--what", "model"), BUILD),
    "export graph6": (("export", "{}/l22.json", "--format", "graph6"), BUILD | {"linegraph"}),
    "export dot": (("export", "{}/l22.json", "--format", "dot"), BUILD | {"linegraph"}),
    "export census": (("export", "{}/l22.json", "--what", "census"), QUICK),
}

_LOADED = """if True:
    import contextlib, io, json, sys
    import prect.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = prect.cli.main(sys.argv[1:])
    print(json.dumps([code, sorted(k[6:] for k in sys.modules if k.startswith("prect.")),
                      [k for k in ("dataclasses", "inspect", "fractions") if k in sys.modules]]))
"""


def _fresh(code: str, *args: str) -> str:
    """stdout of code run in a new interpreter that finds prect in ./src."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    for name, args in (("l22", ("--family", "l2k", "--k", "2")),
                       ("r39", ("--family", "subplane", "--p", "3", "--k", "2"))):
        assert main(["build", *args, "--out", str(d / f"{name}.json")]) == 0
    return d


def test_the_module_sets_cover_the_package():
    every = {m.name for m in pkgutil.iter_modules(prect.__path__)}
    assert every == FULL | {"bilinear", "analysis"}
    assert set().union(*(s for _, s in SUBCOMMANDS.values())) == every


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_each_subcommand_loads_only_the_stages_it_runs(models, name):
    argv, expected = SUBCOMMANDS[name]
    code, loaded, heavy = json.loads(_fresh(_LOADED, *(a.format(models) for a in argv)))
    assert code == 0
    assert set(loaded) == expected
    assert heavy == []


def test_no_module_imports_dataclasses():
    """dataclasses loads inspect, about 10 ms of every process's start."""
    for path in (SRC / "prect").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name


def test_report_verdict_rules_live_in_util():
    """Every report states ok, mismatches and failing through _util.Checks
    or _util.Verdicts: no other class defines mismatches or failing, or an
    ok that is all(...) over its checks or verdicts."""
    for path in (SRC / "prect").glob("*.py"):
        if path.name == "_util.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                where = f"{path.name}: {cls.name}.{fn.name}"
                assert fn.name not in ("mismatches", "failing"), where
                if fn.name == "ok":
                    for call in ast.walk(fn):
                        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "all":
                            reads = {n.attr for n in ast.walk(call) if isinstance(n, ast.Attribute)
                                     and getattr(n.value, "id", None) == "self"}
                            assert not reads & {"checks", "verdicts"}, where


def test_importing_prect_loads_no_module():
    code = "import sys, prect; print(sorted(k for k in sys.modules if k.startswith('prect.')))"
    assert _fresh(code).strip() == "[]"
    code = ("import sys; from prect import build_l2k; "
            "print(sorted(k[6:] for k in sys.modules if k.startswith('prect.')))")
    assert _fresh(code).strip() == str(sorted({"construct", "gf", "incidence", "_util"}))


def test_every_reexport_is_its_home_modules_object():
    for name in prect.__all__:
        obj = getattr(prect, name)
        home = obj.__module__
        assert home.startswith("prect.") and getattr(sys.modules[home], name) is obj, name
    assert set(prect.__all__) <= set(dir(prect))
    assert len(set(prect.__all__)) == len(prect.__all__)
    namespace = {}
    exec("from prect import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(prect.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prect.no_such_name  # noqa: B018
    assert not hasattr(prect, "ENUMERATION_MAX_VERTICES")
    with pytest.raises(ImportError):
        exec("from prect import no_such_name", {})


def test_the_names_the_benchmark_tracer_imports_still_import():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prect")
                for alias in node.names]
    assert ("prect.cli", "NODES_PER_MS") in imported
    assert ("prect.analysis", "hamiltonian_search") in imported
    # the three verdicts moved to linegraph; analysis re-exports them
    for name in ("planarity_verdict", "eulerian_verdict", "krein_check"):
        assert ("prect.analysis", name) in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
