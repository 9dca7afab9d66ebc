"""Mutated model files through every CLI subcommand: a verdict or a typed error.

Each example takes the JSON of L_2^2, R(3,9) or PG(2,3), applies one
mutation of its incidence structure (drop or add an incidence, duplicate a
line, relabel D, or add an ordinary line through three points of one
special line), and runs verify (both profiles), cliques, geometry, iso,
analyze, export --what census and the DOT graph export on it through
prect.cli.main.  Each run must return an exit code of 0, 1 or 2 and raise
nothing: a broken model gives failing verdicts or an "error:" line, never a
traceback.  Every failing verdict's witness must re-check on the mutated
model file (tests/oracles): the axiom witnesses of verify and the A1
witness of cliques, geometry and iso; each anomalous clique of the census
that cliques and export write; and the pair of a failing isomorphism.  The
structure's incidence index, IncidenceStructure.through, must equal the
oracles' own point index on every mutant.

Those mutations break the translation certificate, so two more tests take
translation-invariant mutants (one mutation of line 0, applied to every
translate) through the orbit paths.  Through verify in both profiles the
certified paths must give the A6 verdict, witness and coverage of the
uncertified ones; through cliques and geometry, whose census carries the
certificate in place of a closure check, the same exit code, stdout and
stderr.  Every such mutant of L_2^3, R(3,9) and R(4,16), the first and the
last choice of each mutation, also runs through iso and analyze: an exit
code of 0, 1 or 2 and no exception.  At the advertised bound, nu = 4096,
the same mutants of L_2^6 run through verify in both profiles: a report
whose exit code is 0 iff it passes and whose axiom witnesses re-check, or
an "error:" line and exit 2.
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

from oracles import (INVARIANT_MUTATIONS, invariant_mutant, lines_at, recheck_anomalous_clique,
                     recheck_iso_witness, recheck_witnesses)
from prect.cli import main
from prect.export import model_from_dict
from prect.pipeline import _Run
from prect.structure import IncidenceStructure

BUILDS = {
    "L_2^2": ("--family", "l2k", "--k", "2"),
    "R(3,9)": ("--family", "subplane", "--p", "3", "--k", "2"),
    "PG(2,3)": ("--family", "plane", "--p", "3"),
}
ISO_ANALYZE_BUILDS = {
    "L_2^3": ("--family", "l2k", "--k", "3"),
    "R(3,9)": BUILDS["R(3,9)"],
    "R(4,16)": ("--family", "subplane", "--p", "2", "--e", "2", "--k", "2"),
}
BOUND_BUILDS = {"L_2^6": ("--family", "l2k", "--k", "6")}

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


def _recheck(argv, out: str, err: str):
    """Re-check, on the model file, the witness of each failing verdict of a
    run that gave one (exit 0 or 1)."""
    command, path = argv[0], argv[1]
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    report = json.loads(err.splitlines()[-1] if command in ("cliques", "geometry", "export")
                        else out)
    recheck_witnesses(d["structure"], report["details"]["axioms"] if command == "verify" else
                      {"verdicts": report["verdicts"], "witnesses": report["details"]})
    if report["verdicts"].get("bilinear_isomorphism") is False:
        mapping, iso = _Run(path).iso
        assert not iso.ok
        recheck_iso_witness(d, mapping, iso.witness)
    if command == "cliques" or command == "export" and "census" in argv:
        for clique in json.loads(out)["anomalous"]:
            recheck_anomalous_clique(d, clique)


@lru_cache(maxsize=None)
def _model_json(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        builds = {**BUILDS, **ISO_ANALYZE_BUILDS, **BOUND_BUILDS}
        assert _run("build", *builds[name], "--out", path)[0] == 0
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


def _check_index(structure: dict):
    """IncidenceStructure.through against the oracles' own point index."""
    s = IncidenceStructure.from_json_dict(structure)
    assert s.through == [sum(1 << i for i in ls) for ls in lines_at(s)]


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_model_gives_a_verdict_or_a_typed_error(name, kind, data):
    d = json.loads(_model_json(name))
    note(_mutate(d, kind, data.draw))
    _check_index(d["structure"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh, sort_keys=True)
        for argv in COMMANDS:
            argv = [a.format(path) for a in argv]
            code, out, err = _cli(*argv)
            assert code in (0, 1, 2), argv
            if code != 2 and argv[0] != "analyze":  # analyze reports no such witness
                _recheck(argv, out, err)


VERIFY_COMMANDS = [COMMANDS[0], COMMANDS[1], ("verify", "{}", "--a6-samples", "300", "--seed", "8")]


def _a6(out: str):
    axioms = json.loads(out)["details"]["axioms"]
    return axioms["verdicts"]["A6"], axioms["witnesses"].get("A6"), axioms["a6_coverage"]


@contextlib.contextmanager
def _invariant_mutant_file(name: str, kind: str, choose):
    """(the path of a model file of name whose structure is an invariant
    mutant, its description), choose(options) picking each choice of the
    mutation."""
    d = json.loads(_model_json(name))
    mutant, what = invariant_mutant(model_from_dict(d).structure, kind, choose)
    d["structure"] = mutant.to_json_dict()
    _check_index(d["structure"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh, sort_keys=True)
        yield path, what


def _drawn(data):
    return lambda options: data.draw(st.sampled_from(options))


@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_invariant_mutant_gives_the_uncertified_a6(name, kind, data):
    with _invariant_mutant_file(name, kind, _drawn(data)) as (path, what):
        note(what)
        for argv in VERIFY_COMMANDS:
            argv = [a.format(path) for a in argv]
            code, out, err = _cli(*argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(IncidenceStructure, "translations", property(lambda s: None))
                uncertified = _run(*argv)
            assert code in (0, 1, 2) and code == uncertified[0], argv
            if code != 2:
                assert _a6(out) == _a6(uncertified[1]), argv
                _recheck(argv, out, err)


@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_invariant_mutant_gives_the_uncertified_census_and_geometry(name, kind, data):
    """Any exception, KeyError, IndexError or RecursionError included, fails the test."""
    with _invariant_mutant_file(name, kind, _drawn(data)) as (path, what):
        note(what)
        for argv in (("cliques", path), ("geometry", path)):
            certified = _cli(*argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(IncidenceStructure, "translations", property(lambda s: None))
                assert _cli(*argv) == certified, argv
            assert certified[0] in (0, 1, 2), argv
            if certified[0] != 2:
                _recheck(argv, *certified[1:])


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(ISO_ANALYZE_BUILDS))
def test_invariant_mutant_through_iso_and_analyze_gives_an_exit_code(name, kind, end):
    """Any exception, KeyError, IndexError or RecursionError included, fails the test."""
    with _invariant_mutant_file(name, kind, lambda options: options[end]) as (path, what):
        for argv in (("iso", path), ("analyze", "--graph", path)):
            assert _cli(*argv)[0] in (0, 1, 2), (argv, what)


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("kind", INVARIANT_MUTATIONS)
@pytest.mark.parametrize("name", sorted(BOUND_BUILDS))
def test_invariant_mutant_at_the_bound_through_verify_gives_a_verdict(name, kind, end):
    """Any exception, KeyError, IndexError or RecursionError included, fails the test."""
    with _invariant_mutant_file(name, kind, lambda options: options[end]) as (path, what):
        for argv in (("verify", path), ("verify", path, "--profile", "full")):
            code, out, err = _cli(*argv)
            if code == 2:
                assert not out and err.startswith("error: ") and err.count("\n") == 1, (argv, what)
            else:
                assert code == (0 if json.loads(out)["ok"] else 1), (argv, what)
                _recheck(argv, out, err)
