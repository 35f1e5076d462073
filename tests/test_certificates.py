"""Conjugating the frozen benchmark instances reproduces their frozen
certificates byte for byte, so a change to the construction cannot alter a
certificate unnoticed.  sphere-rotoreflection-1-2-m10 reaches the
refine-and-retry loop of the embedding.
"""

import hashlib
import json
from pathlib import Path

import pytest

from plhomeo import cli

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
MANIFEST = json.loads((INPUTS / "manifest.json").read_text())["sha256"]


@pytest.mark.parametrize("name", [
    "disc-reflection-0-2",
    "sphere-reflection-0-2",
    "sphere-rotoreflection-1-2",
    "sphere-rotoreflection-1-2-m10",
])
def test_certificate_matches_frozen(name, tmp_path):
    out = tmp_path / f"{name}.cert.json"
    assert cli.main(["conjugate", str(INPUTS / f"{name}.json"),
                     "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == MANIFEST[f"{name}.cert.json"]
