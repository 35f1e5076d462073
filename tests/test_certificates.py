"""Conjugating the frozen benchmark instances reproduces their frozen
certificates byte for byte, so a change to the construction cannot alter a
certificate unnoticed.  sphere-rotoreflection-1-2-m10 reaches the
refine-and-retry loop of the embedding; sphere-rotoreflection-1-4 is the
one whose square is normalized by a conjugacy first.  ``verify`` prints
the same verdict, witness and exit code on every frozen certificate,
the two tampered ones included, and the witness it prints is a point where
h o f and model o h differ.
"""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import cli, sphere
from plhomeo import io as pio
from plhomeo.maps import evaluate

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


VERIFIED = "certificate verified: h o f = model o h exactly\n"
VERIFY_OUTPUT = {
    "disc-reflection-0-2": (0, VERIFIED),
    "disc-rotation-1-3": (0, VERIFIED),
    "disc-rotation-1-3.k-changed": (
        1, "certificate REJECTED: first disagreement at (1/12, 1/4)\n"),
    "sphere-reflection-0-2": (0, VERIFIED),
    "sphere-rotation-1-3": (0, VERIFIED),
    "sphere-rotation-1-3.vertex-moved": (
        1, "certificate invalid: cell 26 has zero determinant; cell 44 has "
           "zero determinant; poles must map onto poles; image complex: "
           "triangle 26 not positively oriented; image complex: triangle 44 "
           "not positively oriented; image complex: chart area 47/12 != 4; "
           "image complex: edge ((Fraction(11, 12), Fraction(1, 1)), "
           "(Fraction(1, 1), Fraction(1, 2))) not matched: [-1]; image "
           "complex: edge ((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, "
           "12), Fraction(1, 1))) not matched: [-1]; image complex: line "
           "s=1 not fully edge-covered\n"),
    "sphere-rotoreflection-1-2": (0, VERIFIED),
    "sphere-rotoreflection-1-2-m10": (0, VERIFIED),
    "sphere-rotoreflection-1-4": (0, VERIFIED),
}


@pytest.mark.parametrize("name", sorted(VERIFY_OUTPUT))
def test_verify_output_of_frozen_certificate(name, capsys):
    instance = INPUTS / f"{name.split('.')[0]}.json"
    code = cli.main(["verify", str(instance),
                     str(INPUTS / f"{name}.cert.json")])
    out = capsys.readouterr().out
    assert (code, out) == VERIFY_OUTPUT[name]
    witness = re.search(r"disagreement at \((\S+), (\S+)\)", out)
    if witness:
        w = (Fraction(witness[1]), Fraction(witness[2]))
        _, f, _, _ = pio.instance_from_dict(pio.load_json(instance))
        cert = pio.certificate_from_dict(
            pio.load_json(INPUTS / f"{name}.cert.json"))
        h, model = cert.h, cert.model.as_map()
        assert evaluate(h, evaluate(f, w)) != evaluate(model, evaluate(h, w))
