"""Mutated model files through every CLI subcommand: a verdict or a typed error.

Each example takes the JSON of L_2^2, R(3,9) or PG(2,3), applies one
mutation of its incidence structure (drop or add an incidence, duplicate a
line, relabel D, or add an ordinary line through three points of one
special line), and runs verify (both profiles), cliques, geometry, iso,
analyze, export --what census and the DOT graph export on it through
prect.cli.main.  Each run must return an exit code of 0, 1 or 2 and raise
nothing: a broken model gives failing verdicts or an "error:" line, never a
traceback.  A failing A1 verdict of verify must carry a witness that
re-checks on the mutated structure.

Those mutations break the translation certificate, so two more tests take
translation-invariant mutants (one mutation of line 0, applied to every
translate) through the orbit paths.  Through verify in both profiles the
certified paths must give the A6 verdict, witness and coverage of the
uncertified ones; through cliques and geometry, whose census carries the
certificate in place of a closure check, the same exit code, stdout and
stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from oracles import INVARIANT_MUTATIONS, invariant_mutant, recheck_a1_witness
from prect.cli import main
from prect.export import model_from_dict
from prect.incidence import IncidenceStructure

BUILDS = {
    "L_2^2": ("--family", "l2k", "--k", "2"),
    "R(3,9)": ("--family", "subplane", "--p", "3", "--k", "2"),
    "PG(2,3)": ("--family", "plane", "--p", "3"),
}

MUTATIONS = ["drop incidence", "add incidence", "duplicate line", "relabel D", "special triple"]

COMMANDS = [
    ("verify", "{}", "--a6-samples", "2000", "--seed", "3"),
    ("verify", "{}", "--profile", "full"),
    ("cliques", "{}"),
    ("geometry", "{}"),
    ("iso", "{}"),
    ("analyze", "--graph", "{}"),
    ("export", "{}", "--what", "census"),
    ("export", "{}", "--what", "graph", "--format", "dot"),
]


def _cli(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(list(argv)), out.getvalue(), err.getvalue()


def _run(*argv) -> tuple[int, str]:
    """Exit code and stdout of one CLI run."""
    return _cli(*argv)[:2]


@lru_cache(maxsize=None)
def _model_json(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        assert _run("build", *BUILDS[name], "--out", path)[0] == 0
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def _mutate(d: dict, kind: str, draw) -> str:
    """Apply one mutation to the structure of model dict d; describe it.

    A model file lists its ordinary lines before its special ones, so a new
    line goes in front of the special block and a copy next to its original.
    """
    s = d["structure"]
    lines, points, special = s["lines"], s["points"], s["special_point"]
    if kind == "relabel D":
        s["special_point"] = draw(st.sampled_from([p for p in points if p != special]))
        return f"D -> {s['special_point']}"
    if kind == "special triple":
        specials = [ln for ln in lines if special in ln]
        on = draw(st.sampled_from(specials))
        triple = draw(st.lists(st.sampled_from([p for p in on if p != special]),
                               min_size=3, max_size=3, unique=True))
        lines.insert(lines.index(specials[0]), sorted(triple))
        return f"new line {triple}"
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop incidence":
        p = lines[i].pop(draw(st.integers(0, len(lines[i]) - 1)))
        return f"line {i} loses {p}"
    if kind == "add incidence":
        p = draw(st.sampled_from([p for p in points if p not in lines[i]]))
        lines[i].append(p)
        return f"line {i} gains {p}"
    lines.insert(i, list(lines[i]))
    return f"line {i} duplicated"


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_model_gives_a_verdict_or_a_typed_error(name, kind, data):
    d = json.loads(_model_json(name))
    note(_mutate(d, kind, data.draw))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh, sort_keys=True)
        for argv in COMMANDS:
            argv = [a.format(path) for a in argv]
            code, out = _run(*argv)
            assert code in (0, 1, 2), argv
            if argv[0] == "verify" and code != 2:
                recheck_a1_witness(d["structure"], json.loads(out)["details"]["axioms"])


VERIFY_COMMANDS = [COMMANDS[0], COMMANDS[1], ("verify", "{}", "--a6-samples", "300", "--seed", "8")]


def _a6(out: str):
    axioms = json.loads(out)["details"]["axioms"]
    return axioms["verdicts"]["A6"], axioms["witnesses"].get("A6"), axioms["a6_coverage"]


@contextlib.contextmanager
def _invariant_mutant_file(name: str, kind: str, data):
    """The path of a model file of name whose structure is an invariant mutant."""
    d = json.loads(_model_json(name))
    mutant, what = invariant_mutant(model_from_dict(d).structure, kind,
                                    lambda options: data.draw(st.sampled_from(options)))
    note(what)
    d["structure"] = mutant.to_json_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh, sort_keys=True)
        yield path


@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_invariant_mutant_gives_the_uncertified_a6(name, kind, data):
    with _invariant_mutant_file(name, kind, data) as path:
        for argv in VERIFY_COMMANDS:
            argv = [a.format(path) for a in argv]
            code, out = _run(*argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(IncidenceStructure, "translations", property(lambda s: None))
                uncertified = _run(*argv)
            assert code in (0, 1, 2) and code == uncertified[0], argv
            if code != 2:
                assert _a6(out) == _a6(uncertified[1]), argv


@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_invariant_mutant_gives_the_uncertified_census_and_geometry(name, kind, data):
    """Any exception, KeyError, IndexError or RecursionError included, fails the test."""
    with _invariant_mutant_file(name, kind, data) as path:
        for argv in (("cliques", path), ("geometry", path)):
            certified = _cli(*argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(IncidenceStructure, "translations", property(lambda s: None))
                assert _cli(*argv) == certified, argv
            assert certified[0] in (0, 1, 2), argv
