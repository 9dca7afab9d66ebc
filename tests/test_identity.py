"""tools/identity.py, the byte-identity corpus, on a few of its runs: one
tree against itself differs nowhere, and a copy with one byte planted in
the geometry report differs in exactly the run that writes it, on its
stderr and its --out file."""

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
    key = '"degenerate": geo_pl.degenerate'
    assert text.count(key) == 1
    pipeline.write_text(text.replace(key, key.replace("degenerate", "degeneratE", 1)))
    differences = identity.compare(ROOT, planted, cases)
    assert differences == [{"case": "geometry l22", "parts": ["stderr", "out"]}]
    block = identity.byte_identity(cases, differences)
    assert (block["cases"], block["identical"], block["differ"]) == (5, 4, 1)
