"""Conjugating the frozen benchmark instances reproduces their frozen
certificates byte for byte, so a change to the construction cannot alter a
certificate unnoticed.  sphere-rotoreflection-1-2-m10 reaches the
refine-and-retry loop of the embedding; sphere-rotoreflection-1-4 is the
one whose square is normalized by a conjugacy first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from plhomeo import cli, sphere

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
MANIFEST = json.loads((INPUTS / "manifest.json").read_text())["sha256"]


@pytest.mark.parametrize("name", [
    "disc-reflection-0-2",
    "disc-rotation-1-3",
    "sphere-reflection-0-2",
    "sphere-rotation-1-3",
    "sphere-rotoreflection-1-2",
    "sphere-rotoreflection-1-2-m10",
    "sphere-rotoreflection-1-4",
])
def test_certificate_matches_frozen(name, tmp_path):
    out = tmp_path / f"{name}.cert.json"
    assert cli.main(["conjugate", str(INPUTS / f"{name}.json"),
                     "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == MANIFEST[f"{name}.cert.json"]


def test_conjugate_builds_the_free_structure_once(monkeypatch, tmp_path):
    """The certificate builder consumes the analysis: conjugating a
    rotoreflection builds its free structure and its map once."""
    calls = {"free_structure": 0, "_assemble_free_map": 0}
    for name in calls:
        original = getattr(sphere, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(sphere, name, counted)
    out = tmp_path / "cert.json"
    assert cli.main(["conjugate",
                     str(INPUTS / "sphere-rotoreflection-1-2.json"),
                     "--out", str(out)]) == 0
    assert calls == {"free_structure": 1, "_assemble_free_map": 1}
