"""The command-line contract: exit codes of analyze, verify and render."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import cli
from plhomeo import io as pio
from plhomeo.circle import CirclePL, IntervalPL, LinePL, circle_rotation
from plhomeo.maps import CellMap, PLMap2, shift_into_unit
from plhomeo.suspension import DISC, SPHERE, band_cells

Q = Fraction
INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


@pytest.fixture(scope="module")
def disc_rotation(tmp_path_factory):
    """A scrambled disc rotation 1/3 and the certificate conjugate writes."""
    d = tmp_path_factory.mktemp("cli")
    inst, cert = d / "f.json", d / "f.cert.json"
    assert cli.main(["generate", "--space", "disc", "--kind", "rotation",
                     "--k", "1", "--n", "3", "--seed", "1", "--moves", "3",
                     "--out", str(inst)]) == 0
    assert cli.main(["conjugate", str(inst), "--out", str(cert)]) == 0
    return inst, json.loads(cert.read_text())


def _verify(tmp_path, inst, cert_data) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert_data))
    return cli.main(["verify", str(inst), str(path)])


def test_verify_accepts_own_certificate(disc_rotation, tmp_path):
    inst, cert = disc_rotation
    assert _verify(tmp_path, inst, cert) == 0


def test_verify_rejects_changed_class(disc_rotation, tmp_path, capsys):
    inst, cert = disc_rotation
    cert = json.loads(json.dumps(cert))
    cert["model"]["k"] = 2
    assert _verify(tmp_path, inst, cert) == 1
    assert "REJECTED" in capsys.readouterr().out


def _triangle_index_out_of_range(cert):
    cert["h"]["triangles"][0][0] = 10 ** 6


def _images_cut_short(cert):
    cert["h"]["images"] = cert["h"]["images"][:3]


def _lifts_cut_short(cert):
    cert["h"]["lifts"] = [lift[:1] for lift in cert["h"]["lifts"]]


def _integer_coordinate(cert):
    cert["h"]["vertices"][0][0] = 0


def _pins_not_a_mapping(cert):
    cert["pins"] = 5


def _class_not_reduced(cert):
    cert["model"]["k"] = 3


def _unknown_kind(cert):
    cert["model"]["kind"] = "spiral"


def _period_zero(cert):
    cert["model"]["n"] = 0


def _model_on_the_other_space(cert):
    cert["model"]["space"] = "sphere"


def _class_a_boolean(cert):
    cert["model"]["k"] = True


def _rotation_renamed_reflection(cert):
    # a reflection carries no class; this one keeps k = 1 and n = 3
    cert["model"]["kind"] = "reflection"


@pytest.mark.parametrize("damage", [
    _triangle_index_out_of_range, _images_cut_short, _lifts_cut_short,
    _integer_coordinate, _pins_not_a_mapping, _class_not_reduced,
    _unknown_kind, _period_zero, _model_on_the_other_space, _class_a_boolean,
    _rotation_renamed_reflection])
def test_verify_malformed_certificate_is_a_parse_error(
        disc_rotation, tmp_path, capsys, damage):
    inst, cert = disc_rotation
    cert = json.loads(json.dumps(cert))
    damage(cert)
    assert _verify(tmp_path, inst, cert) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, k, n", [
    ("disc-reflection-0-2", 5, 0), ("sphere-reflection-0-2", "x", [1])])
def test_verify_reflection_with_a_class_is_a_parse_error(
        tmp_path, capsys, name, k, n):
    cert = json.loads((INPUTS / f"{name}.cert.json").read_text())
    cert["model"]["k"], cert["model"]["n"] = k, n
    assert _verify(tmp_path, INPUTS / f"{name}.json", cert) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_render_reports_analysis_failure(tmp_path, capsys):
    # (t, s) -> (-t, -s) preserves orientation and swaps the poles, so its
    # fixed points lie off the polar axis and the analysis rejects it
    cells = []
    for c in band_cells(SPHERE, 4):
        _, img = shift_into_unit([(-x, -y) for x, y in c])
        cells.append(CellMap(tuple(c), img))
    inst, svg = tmp_path / "f.json", tmp_path / "f.svg"
    pio.save_json(str(inst),
                  pio.instance_to_dict(SPHERE, PLMap2(SPHERE, cells)))
    assert cli.main(["render", str(inst), "--out", str(svg)]) == 0
    err = capsys.readouterr().err
    assert "StructureViolated" in err and "bare map" in err
    assert svg.read_text().startswith("<svg")


def test_analyze_of_a_non_periodic_map_exits_4(tmp_path, capsys):
    # the radial squeeze of test_analyze_not_periodic: the boundary map is
    # the identity, so its period 1 is the only candidate, and f != id
    cells = []
    for j in range(3):
        a, b = Q(j, 3), Q(j + 1, 3)
        cells.append(((a, Q(0)), (b, Q(0)), (b, Q(1, 2)), (a, Q(1, 2))))
        cells.append(((a, Q(1, 2)), (b, Q(1, 2)), (b, Q(1)), (a, Q(1))))

    def squeeze(p):
        x, y = p
        return (x, y / 2) if y <= Q(1, 2) else (x, Q(3, 2) * y - Q(1, 2))

    f = PLMap2(DISC, [CellMap(c, tuple(squeeze(p) for p in c))
                      for c in cells])
    inst = tmp_path / "f.json"
    pio.save_json(str(inst), pio.instance_to_dict(DISC, f))
    assert cli.main(["analyze", str(inst)]) == 4
    assert "not periodic" in capsys.readouterr().err


def test_reversing_circle_map_with_non_identity_square_exits_4(
        tmp_path, capsys):
    # reverses orientation, so a periodic one would be an involution; its
    # square is not the identity, so analyze and conjugate both prove it is
    # not periodic
    f = CirclePL(((Q(0), Q(0)), (Q(1, 2), Q(-1, 4))), -1)
    inst = tmp_path / "f.json"
    pio.save_json(str(inst), pio.instance_to_dict("circle", f))
    assert cli.main(["analyze", str(inst)]) == 4
    assert cli.main(["conjugate", str(inst),
                     "--out", str(tmp_path / "f.cert.json")]) == 4
    assert capsys.readouterr().err.count("error: ") == 2


def _onedim_instance(tmp_path, space, f):
    """An instance file and the certificate conjugate writes for it."""
    inst, cert = tmp_path / "f.json", tmp_path / "f.cert.json"
    pio.save_json(str(inst), pio.instance_to_dict(space, f))
    assert cli.main(["conjugate", str(inst), "--out", str(cert)]) == 0
    return inst, json.loads(cert.read_text())


def test_verify_rejects_identity_certificate_of_a_line_scaling(
        tmp_path, capsys):
    # f(x) = 2x agrees with the identity at its only breakpoint 0
    inst = tmp_path / "f.json"
    pio.save_json(str(inst), pio.instance_to_dict(
        "line", LinePL(((Q(0), Q(0)),), Q(2), Q(2))))
    cert = {"model": {"space": "line", "kind": "identity"}, "h": None,
            "exact": True}
    assert _verify(tmp_path, inst, cert) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_verify_accepts_own_onedim_certificates(tmp_path):
    for space, f in (
            ("circle", circle_rotation(Q(1, 3))),
            ("interval", IntervalPL(((Q(0), Q(1)), (Q(1, 3), Q(1, 2)),
                                     (Q(1, 2), Q(1, 3)), (Q(1), Q(0))))),
            ("line", LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)))):
        inst, cert = _onedim_instance(tmp_path, space, f)
        assert _verify(tmp_path, inst, cert) == 0, space


def _circle_period_zero(cert):
    cert["model"]["n"] = 0


def _circle_model_not_a_mapping(cert):
    cert["model"] = 5


def _circle_kind_unknown(cert):
    cert["model"]["kind"] = "spiral"


@pytest.mark.parametrize("damage", [
    _circle_period_zero, _circle_model_not_a_mapping, _circle_kind_unknown])
def test_verify_malformed_circle_certificate_is_a_parse_error(
        tmp_path, capsys, damage):
    inst, cert = _onedim_instance(tmp_path, "circle",
                                  circle_rotation(Q(1, 3)))
    damage(cert)
    assert _verify(tmp_path, inst, cert) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("space, f", [
    ("interval", IntervalPL(((Q(0), Q(1)), (Q(1), Q(0))))),
    ("line", LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)))])
def test_verify_malformed_onedim_certificate_is_a_parse_error(
        tmp_path, capsys, space, f):
    inst, cert = _onedim_instance(tmp_path, space, f)
    del cert["h"]
    assert _verify(tmp_path, inst, cert) == 3
    assert _verify(tmp_path, inst, [cert]) == 3
    assert capsys.readouterr().err.count("error: ") == 2
