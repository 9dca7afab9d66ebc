"""tools/identity.py, the byte-identity corpus, on a few of its runs: one
tree against itself differs nowhere, and a copy with a byte planted in a
key of the census counts and one in a key of the census export differs in
exactly the runs that write them, on the parts that hold them, and names
the report keys that differ."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

from prect.construct import build_l2k
from prect.export import model_to_json

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_identical_trees_agree_and_a_planted_byte_shows_in_its_runs(tmp_path):
    model = tmp_path / "l22.json"
    model.write_text(model_to_json(build_l2k(2)))
    names = {"build L_2^2", "verify --profile full l22", "geometry l22", "analyze --graph l22",
             "export --what census --format json l22"}
    cases = [case for case in identity.corpus([model]) if case[0] in names]
    assert {name for name, _ in cases} == names

    assert identity.compare(ROOT, ROOT, cases) == []

    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted / "src")
    pipeline = planted / "src" / "prect" / "pipeline.py"
    text = pipeline.read_text()
    for key, planted_key in (('"mismatches":', '"mismatcheS":'), ('"trivial":', '"triviaL":')):
        assert text.count(key) == 1
        text = text.replace(key, planted_key)
    pipeline.write_text(text)
    differences = identity.compare(ROOT, planted, cases)
    keys = ["details.census_counts.mismatcheS", "details.census_counts.mismatches"]
    assert differences == [
        {"case": "verify --profile full l22", "parts": ["stdout"], "keys": keys},
        {"case": "export --what census --format json l22", "parts": ["stderr", "out"],
         "keys": keys}]
    block = identity.byte_identity(cases, differences)
    assert (block["cases"], block["identical"], block["differ"]) == (5, 3, 2)
    assert block["kinds"] == identity.kinds(differences)


def test_report_keys_are_the_dotted_keys_that_differ():
    old = b'{"verdicts": {"A1": true}, "details": {"counts": {"point": 1}, "planar": true}}\n'
    new = (b'usage line\n{"verdicts": {"A1": true}, "details": {"census_counts": {"point": 1}, '
           b'"planar": {"planar": true}}}\n')
    assert identity.report_keys(old, new) == ["details.census_counts", "details.counts",
                                              "details.planar"]
    assert identity.report_keys(old, old) == []
    assert identity.report_keys(old, b'{"m": 2}') == []  # a product, not a report
    assert identity.report_keys(None, old) == []


def test_kinds_count_the_differing_runs_by_subcommand_parts_and_keys():
    exported = ["verdicts.exported"]
    differences = [
        {"case": "iso L_2^2", "parts": ["stderr"], "keys": []},
        {"case": "export --what model --format dot L_2^2", "parts": ["stderr"], "keys": []},
        {"case": "export R(3,9)", "parts": ["stderr"], "keys": exported},
        {"case": "iso PG(2,3)", "parts": ["stderr"], "keys": []},
        {"case": "export --what census R(3,9)", "parts": ["stderr", "out"], "keys": exported},
        {"case": "export --what census L_2^2", "parts": ["stderr", "out"], "keys": exported},
    ]
    assert identity.kinds(differences) == [
        {"subcommand": "export", "parts": ["stderr"], "keys": [], "runs": 1},
        {"subcommand": "export", "parts": ["stderr"], "keys": exported, "runs": 1},
        {"subcommand": "export", "parts": ["stderr", "out"], "keys": exported, "runs": 2},
        {"subcommand": "iso", "parts": ["stderr"], "keys": [], "runs": 2}]
    assert identity.kinds([]) == []
