"""Generating the frozen benchmark instances and conjugating them reproduces
the frozen instances and certificates byte for byte, so a change to the
generator or the construction cannot alter either unnoticed.  sphere-rotoreflection-1-2-m10 reaches the
refine-and-retry loop of the embedding; sphere-rotoreflection-1-4 is the
one whose square is normalized by a conjugacy first.  ``verify`` prints
the same verdict, witness and exit code on every frozen certificate,
the two tampered ones included, and the witness it prints is a point where
h o f and model o h differ.  ``verify`` ignores the certificate file's own
"exact" claim, and a certificate is the pair of its model and its map.
"""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import cli, sphere
from plhomeo import io as pio
from plhomeo.conjugacy import Certificate
from plhomeo.generate import make_instance
from plhomeo.maps import evaluate

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FROZEN = json.loads((INPUTS / "manifest.json").read_text())
MANIFEST = FROZEN["sha256"]
NAMES = [
    "disc-reflection-0-2",
    "disc-rotation-1-3",
    "sphere-reflection-0-2",
    "sphere-rotation-1-3",
    "sphere-rotoreflection-1-2",
    "sphere-rotoreflection-1-2-m10",
    "sphere-rotoreflection-1-4",
]


@pytest.mark.parametrize("name", NAMES)
def test_generate_reproduces_frozen_instance(name):
    """The generator, and the model map it scrambles, reproduce each frozen
    instance byte for byte; "-m10" marks the one made with 10 moves."""
    space, kind, k, n = name.split("-")[:4]
    moves = 10 if name.endswith("-m10") else FROZEN["moves"]
    f, _, _ = make_instance(space, kind, int(k), int(n), FROZEN["seed"],
                            moves)
    text = pio.dumps(pio.instance_to_dict(space, f))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == MANIFEST[f"{name}.json"]


@pytest.mark.parametrize("name", NAMES)
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
           "image complex: edge (11/12, 1/1) to (1/1, 1/2) not matched: "
           "[-1]; image complex: edge (0/1, 1/2) to (1/12, 1/1) not "
           "matched: [-1]; image complex: line s=1 not fully "
           "edge-covered\n"),
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
        _, f = pio.instance_from_dict(pio.load_json(instance))
        cert = pio.certificate_from_dict(
            pio.load_json(INPUTS / f"{name}.cert.json"))
        h, model = cert.h, cert.model.as_map()
        assert evaluate(h, evaluate(f, w)) != evaluate(model, evaluate(h, w))


def test_verify_ignores_the_files_exact_claim(tmp_path, capsys):
    name = "disc-rotation-1-3"
    cert = json.loads((INPUTS / f"{name}.cert.json").read_text())
    cert["exact"] = False
    path = tmp_path / "claims-inexact.cert.json"
    path.write_text(json.dumps(cert))
    code = cli.main(["verify", str(INPUTS / f"{name}.json"), str(path)])
    assert (code, capsys.readouterr().out) == (0, VERIFIED)


def test_certificate_is_its_model_and_its_map():
    cert = pio.certificate_from_dict(
        pio.load_json(INPUTS / "disc-rotation-1-3.cert.json"))
    assert [x.name for x in dataclasses.fields(Certificate)] == ["model", "h"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.h = None
