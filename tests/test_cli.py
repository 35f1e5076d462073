"""The command-line contract: exit codes of analyze, verify and render,
the output of analyze, and the selftest with a planted corruption."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import circle, cli, conjugacy, sphere
from plhomeo import io as pio
from plhomeo.circle import CirclePL, LinePL, circle_rotation, interval_map
from plhomeo.conjugacy import meridian_edges
from plhomeo.exact import fmt_rat, mod1
from plhomeo.geom import on_segment
from plhomeo.maps import (CellMap, PLMap2, evaluate, first_disagreement,
                          shift_into_unit)
from plhomeo.suspension import DISC, SPHERE, _edge_key, band_cells
from plhomeo.svg import render_map
from test_certificates import NAMES

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


@pytest.mark.parametrize("space, kind, k, n", [
    (DISC, "identity", 0, 1), (DISC, "rotation", 2, 5),
    (DISC, "reflection", 0, 1), (SPHERE, "identity", 0, 1),
    (SPHERE, "rotation", 1, 3), (SPHERE, "reflection", 0, 1),
    (SPHERE, "rotoreflection", 1, 4)])
def test_conjugate_and_verify_every_class(tmp_path, space, kind, k, n):
    """generate, conjugate and verify succeed for every class of both
    models; the model of an identity or a reflection has k = 0, n = 1."""
    inst, cert = tmp_path / "f.json", tmp_path / "f.cert.json"
    assert cli.main(["generate", "--space", space, "--kind", kind,
                     "--k", str(k), "--n", str(n), "--seed", "2",
                     "--moves", "3", "--out", str(inst)]) == 0
    assert cli.main(["conjugate", str(inst), "--out", str(cert)]) == 0
    assert cli.main(["verify", str(inst), str(cert)]) == 0
    assert json.loads(cert.read_text())["model"] == {
        "space": space, "kind": kind, "k": k, "n": n}


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


def _pins_not_pairs(cert):
    cert["pins"] = "north"


def _pins_unhashable_key(cert):
    cert["pins"] = [[["north"], True]]


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
    _integer_coordinate, _pins_not_a_mapping, _pins_not_pairs,
    _pins_unhashable_key, _class_not_reduced,
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


def _degenerate_triangle(cert):
    cert["h"]["triangles"][4] = [0, 3, 0]


def test_verify_reports_a_degenerate_cell_as_invalid(tmp_path, capsys):
    name = "sphere-rotoreflection-1-2"
    cert = json.loads((INPUTS / f"{name}.cert.json").read_text())
    _degenerate_triangle(cert)
    assert _verify(tmp_path, INPUTS / f"{name}.json", cert) == 1
    out = capsys.readouterr().out
    assert out.startswith("certificate invalid: ")
    assert "cell 4 is degenerate: " in out


@pytest.mark.parametrize("name", ["disc-rotation-1-3",
                                  "sphere-rotoreflection-1-4"])
def test_verify_rejects_an_instance_with_a_hole(tmp_path, capsys, name):
    """An instance missing a triangle is not a homeomorphism; verify says
    so before it compares h o f with model o h."""
    inst = json.loads((INPUTS / f"{name}.json").read_text())
    for key in ("triangles", "lifts", "image_lifts"):
        del inst["map"][key][0]
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(inst))
    assert cli.main(["verify", str(path),
                     str(INPUTS / f"{name}.cert.json")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("instance invalid: ")
    assert "chart area" in out


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


@pytest.mark.parametrize("space, kind, k, n", [
    (DISC, "rotation", 1, 3), (DISC, "reflection", 0, 1),
    (SPHERE, "rotoreflection", 1, 2)])
def test_render_draws_the_arcs_the_certificate_maps_onto_meridians(
        tmp_path, space, kind, k, n):
    """render draws in blue one polyline per edge that the certificate maps
    onto a meridian of the model, and f maps that set of edges into
    itself: the midpoint of every drawn edge onto a drawn edge."""
    inst, cert = tmp_path / "f.json", tmp_path / "f.cert.json"
    svg = tmp_path / "f.svg"
    assert cli.main(["generate", "--space", space, "--kind", kind,
                     "--k", str(k), "--n", str(n), "--seed", "2",
                     "--moves", "3", "--out", str(inst)]) == 0
    assert cli.main(["render", str(inst), "--out", str(svg)]) == 0
    assert cli.main(["conjugate", str(inst), "--out", str(cert)]) == 0
    _, f = pio.instance_from_dict(pio.load_json(str(inst)))
    edges = meridian_edges(pio.certificate_from_dict(pio.load_json(str(cert))))
    blue = svg.read_text().count('stroke="blue"')
    assert blue >= 1 and blue == len(edges)
    for a, b in edges:
        q = evaluate(f, (mod1((a[0] + b[0]) / 2), (a[1] + b[1]) / 2))
        assert any(on_segment((q[0] + dx, q[1]), c, d)
                   for c, d in edges for dx in (0, 1))


@pytest.mark.parametrize("name", [
    "disc-rotation-1-3", "sphere-rotation-1-3", "disc-reflection-0-2",
    "sphere-rotoreflection-1-4"])
def test_render_draws_each_cell_edge_once(name):
    """One grey polyline per edge of f's cells, an edge that two cells list
    at t = 0 and at t = 1 included."""
    _, f = pio.instance_from_dict(pio.load_json(str(INPUTS / f"{name}.json")))
    edges = {_edge_key(c.poly[i], c.poly[(i + 1) % len(c.poly)])
             for c in f.cells for i in range(len(c.poly))}
    assert render_map(f).count('stroke="#c8c8c8"') == len(edges)


def test_selftest_case_builds_the_free_structure_once(monkeypatch):
    """A selftest case hands one analysis to the class check and to the
    certificate builder."""
    calls = []
    original = sphere.free_structure

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(sphere, "free_structure", counted)
    case = (SPHERE, "rotoreflection", 1, 2, 100, 3, False)
    assert cli._run_case(case)[1:3] == (True, "ok")
    assert len(calls) == 1


@pytest.mark.parametrize("case, scans", [
    ((DISC, "rotation", 1, 3, 100, 3, False), 1),
    ((SPHERE, "rotoreflection", 1, 4, 100, 3, False), 2)])
def test_selftest_case_checks_its_certificate_once(monkeypatch, case, scans):
    """The builder's own exact check is the case's verdict; only a planted
    corruption is checked again."""
    calls = []
    original = conjugacy.first_disagreement

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(conjugacy, "first_disagreement", counted)
    assert cli._run_case(case)[1:3] == (True, "ok")
    assert len(calls) == scans


ANALYSIS = {
    "disc-reflection-0-2": (
        "disc, reflection, period 2, fixed arc endpoints (0/1, 1/1) and "
        "(5/8, 1/1)",
        '{"class":"reflection","fixed_arc_endpoints":[["0/1","1/1"],'
        '["5/8","1/1"]],"orientation":"reversing","period":2,'
        '"space":"disc"}'),
    "disc-rotation-1-3": (
        "disc, rotation, period 3, angle 1/3, fixed point (0/1, 0/1)",
        '{"class":"rotation","fixed_point":["0/1","0/1"],"k":1,"n":3,'
        '"orientation":"preserving","period":3,"space":"disc"}'),
    "sphere-reflection-0-2": (
        "sphere, reflection, period 2, fixed set: simple closed curve",
        '{"class":"reflection","fixed_set":"simple closed curve",'
        '"orientation":"reversing","period":2,"space":"sphere"}'),
    "sphere-rotation-1-3": (
        "sphere, rotation, period 3, angle 1/3, fixed set: two poles",
        '{"class":"rotation","fixed_set":"two poles","k":1,"n":3,'
        '"orientation":"preserving","period":3,"space":"sphere"}'),
}


@pytest.mark.parametrize("name", sorted(ANALYSIS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_output_of_frozen_instance(name, fmt, capsys):
    argv = ["analyze", str(INPUTS / f"{name}.json")]
    if fmt == "json":
        argv += ["--format", "json"]
    assert cli.main(argv) == 0
    text, js = ANALYSIS[name]
    assert capsys.readouterr().out == (text if fmt == "text" else js) + "\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_selftest_detects_the_planted_corruption(jobs, capsys):
    """With no seeds only the corrupted case runs; selftest passes when
    verify rejects it, serially and in worker processes."""
    assert cli.main(["selftest", "--quick", "--seeds", "0",
                     "--inject-corruption", "--moves", "1",
                     "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert "[corrupted]: corruption detected" in out
    assert out.endswith("1/1 cases passed\n")


@pytest.mark.parametrize("row", cli._class_matrix(True))
def test_selftest_rows_are_classes_generate_accepts(row, tmp_path, capsys):
    """Each quick selftest class, as (space, kind, k, n), is one that
    ``generate`` writes, and its selftest case passes: a reflection is
    listed as k = 0, n = 1, the model-file form, and analyzed with the
    period 2 it has."""
    space, kind, k, n = row
    assert cli.main(["generate", "--space", space, "--kind", kind,
                     "--k", str(k), "--n", str(n), "--seed", "1",
                     "--moves", "1", "--out", str(tmp_path / "f.json")]) == 0
    assert cli._run_case((space, kind, k, n, 100, 1, False))[1:3] \
        == (True, "ok")
    capsys.readouterr()


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
    # the error names the case and a point that f^1 moves
    assert capsys.readouterr().err == (
        "error: not periodic: f^n != id for n = 1, e.g. at (1/4, 3/8) -> "
        "(1/4, 3/16)\n")


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


@pytest.mark.parametrize("breaks, message", [
    ([["0", "0"], ["1/2", "1"]], "breakpoints must span x = 0..1"),
    ([["0", "0"], ["1/2", "1/2"], ["1/2", "3/4"], ["1", "1"]],
     "x-values must be strictly increasing"),
    ([["0", "0"], ["1/2", "3/4"], ["3/4", "1/2"], ["1", "1"]],
     "y-values must be strictly monotone"),
    ([["0", "1/4"], ["1", "1"]], "increasing map must fix the endpoints"),
    ([["0", "1"], ["1", "1/4"]], "decreasing map must swap the endpoints")])
def test_analyze_malformed_interval_map_is_a_parse_error(
        tmp_path, capsys, breaks, message):
    inst = tmp_path / "f.json"
    inst.write_text(json.dumps({"space": "interval", "map": {
        "type": "interval_pl", "breakpoints": breaks}}))
    assert cli.main(["analyze", str(inst)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_interval_involution_with_a_collinear_break_verifies(tmp_path):
    # h keeps f's break (1/4, 3/4) as its own collinear break (1/4, 1/4)
    f = interval_map(((Q(0), Q(1)), (Q(1, 4), Q(3, 4)), (Q(1), Q(0))))
    inst, cert = _onedim_instance(tmp_path, "interval", f)
    assert cert["h"]["breakpoints"] == [["0/1", "0/1"], ["1/4", "1/4"],
                                        ["1/1", "1/1"]]
    assert _verify(tmp_path, inst, cert) == 0


def _scrambled_circle(model):
    """h^-1 o model o h for a fixed four-break h."""
    h = CirclePL(((Q(0), Q(0)), (Q(1, 5), Q(1, 3)), (Q(1, 2), Q(5, 8)),
                  (Q(3, 4), Q(4, 5))), 1)
    return circle.compose_circle(circle.compose_circle(h, model),
                                 circle.inverse_circle(h))


def test_verify_accepts_own_onedim_certificates(tmp_path):
    for space, f in (
            ("circle", circle_rotation(Q(1, 3))),
            ("circle", _scrambled_circle(circle_rotation(Q(1, 3)))),
            ("circle", _scrambled_circle(circle_rotation(Q(3, 8)))),
            ("circle", _scrambled_circle(CirclePL(((Q(0), Q(1, 3)),), -1))),
            ("interval", interval_map(((Q(0), Q(1)), (Q(1, 3), Q(1, 2)),
                                       (Q(1, 2), Q(1, 3)), (Q(1), Q(0))))),
            ("line", LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)))):
        inst, cert = _onedim_instance(tmp_path, space, f)
        assert _verify(tmp_path, inst, cert) == 0, space


def test_analyze_does_not_search_the_period_of_a_reversing_circle_map(
        tmp_path, capsys, monkeypatch):
    def no_search(f):
        raise AssertionError("period_circle called")

    monkeypatch.setattr(circle, "period_circle", no_search)
    monkeypatch.setattr(cli, "period_circle", no_search, raising=False)
    inst = tmp_path / "f.json"
    pio.save_json(str(inst), pio.instance_to_dict(
        "circle", CirclePL(((Q(0), Q(1, 3)),), -1)))
    assert cli.main(["analyze", str(inst), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["period"] == 2


@pytest.mark.parametrize("kind, k, n", [("reflection", 5, 0),
                                        ("rotation", 1, 1)])
def test_generate_refuses_an_invalid_class(tmp_path, capsys, kind, k, n):
    out, key = tmp_path / "g.json", tmp_path / "k.json"
    assert cli.main(["generate", "--space", "disc", "--kind", kind,
                     "--k", str(k), "--n", str(n), "--seed", "1",
                     "--moves", "2", "--out", str(out),
                     "--key-out", str(key)]) == 3
    assert not out.exists() and not key.exists()
    assert capsys.readouterr().err.startswith("error: ")


def _circle_period_zero(cert):
    cert["model"]["n"] = 0


def _circle_model_not_a_mapping(cert):
    cert["model"] = 5


def _circle_kind_unknown(cert):
    cert["model"]["kind"] = "spiral"


def _circle_lift_empty(cert):
    cert["h"]["lift"] = []


def _circle_orientation_x(cert):
    cert["h"]["lift"] = cert["h"]["lift"][:1]
    cert["h"]["orientation"] = "x"


def _circle_orientation_null(cert):
    _circle_orientation_x(cert)
    cert["h"]["orientation"] = None


CIRCLE_MAP_DAMAGES = [_circle_lift_empty, _circle_orientation_x,
                      _circle_orientation_null]


@pytest.mark.parametrize("damage", [
    _circle_period_zero, _circle_model_not_a_mapping, _circle_kind_unknown,
    *CIRCLE_MAP_DAMAGES])
def test_verify_malformed_circle_certificate_is_a_parse_error(
        tmp_path, capsys, damage):
    inst, cert = _onedim_instance(tmp_path, "circle",
                                  circle_rotation(Q(1, 3)))
    damage(cert)
    assert _verify(tmp_path, inst, cert) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("space, f", [
    ("interval", interval_map(((Q(0), Q(1)), (Q(1), Q(0))))),
    ("line", LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)))])
def test_verify_malformed_onedim_certificate_is_a_parse_error(
        tmp_path, capsys, space, f):
    inst, cert = _onedim_instance(tmp_path, space, f)
    del cert["h"]
    assert _verify(tmp_path, inst, cert) == 3
    assert _verify(tmp_path, inst, [cert]) == 3
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("damage", CIRCLE_MAP_DAMAGES)
def test_analyze_malformed_circle_map_is_a_parse_error(
        tmp_path, capsys, damage):
    data = pio.instance_to_dict(
        "circle", _scrambled_circle(circle_rotation(Q(1, 3))))
    damage({"h": data["map"]})  # the damages act on a certificate's h
    inst = tmp_path / "f.json"
    inst.write_text(json.dumps(data))
    assert cli.main(["analyze", str(inst)]) == 3
    assert cli.main(["conjugate", str(inst),
                     "--out", str(tmp_path / "f.cert.json")]) == 3
    assert capsys.readouterr().err.count("error: ") == 2


def test_unreadable_and_unwritable_files_are_parse_errors(
        disc_rotation, tmp_path, capsys):
    inst, cert = disc_rotation
    cert_path, binary = tmp_path / "cert.json", tmp_path / "binary.json"
    cert_path.write_text(json.dumps(cert))
    binary.write_bytes(b"\xff\xfe{}")
    missing = str(tmp_path / "no-such-dir" / "out")
    assert cli.main(["verify", str(tmp_path), str(cert_path)]) == 3
    assert cli.main(["verify", str(inst), str(binary)]) == 3
    assert cli.main(["conjugate", str(inst), "--out", missing]) == 3
    assert cli.main(["render", str(inst), "--out", missing]) == 3
    assert capsys.readouterr().err.count("error: ") == 4


MUTATION_VALUES = (None, "x", -1, 0, [], {}, "1/0")


def _slots(data):
    """Every (container, key) inside a JSON value."""
    items = data.items() if isinstance(data, dict) else \
        enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield data, key
        yield from _slots(value)


def _random_damage(rng, cert) -> str:
    """Set one random slot to a bad value, or delete a random key."""
    holder, key = rng.choice(list(_slots(cert)))
    pick = rng.randrange(len(MUTATION_VALUES) + isinstance(holder, dict))
    if pick == len(MUTATION_VALUES):
        del holder[key]
        return f"delete {key!r}"
    holder[key] = copy.deepcopy(MUTATION_VALUES[pick])
    return f"{key!r} = {MUTATION_VALUES[pick]!r}"


def test_verify_survives_mutated_certificates(tmp_path, capsys):
    circle_inst, circle_cert = _onedim_instance(
        tmp_path, "circle", _scrambled_circle(circle_rotation(Q(1, 3))))
    cases = [(INPUTS / f"{name}.json",
              json.loads((INPUTS / f"{name}.cert.json").read_text()),
              [_degenerate_triangle])
             for name in ("disc-reflection-0-2", "sphere-rotoreflection-1-2")]
    cases.append((circle_inst, circle_cert, CIRCLE_MAP_DAMAGES))
    rng = random.Random(0)
    bad = []
    for inst, cert, damages in cases:
        mutants = []
        for damage in damages:
            mutant = copy.deepcopy(cert)
            damage(mutant)
            mutants.append((damage.__name__, mutant))
        for _ in range(20):
            mutant = copy.deepcopy(cert)
            mutants.append((_random_damage(rng, mutant), mutant))
        for what, mutant in mutants:
            try:
                code = _verify(tmp_path, inst, mutant)
            except Exception as exc:  # a crash is what this test looks for
                code = repr(exc)
            out = capsys.readouterr()
            if code not in (0, 1, 3):
                bad.append((inst.name, what, code))
            if "Fraction(" in out.out + out.err:  # points print as p/q
                bad.append((inst.name, what, out.out + out.err))
    assert bad == []


SEMANTIC_MUTATIONS = ("image", "vertex", "lift", "image_lift", "triangle",
                      "drop", "model")


def _semantic_mutant(cert, kind, rng):
    """cert, still well formed, with an image coordinate or a vertex
    coordinate moved, a lift or an image lift changed by one, a
    triangle's vertex index replaced, a triangle dropped, or the model's
    k and n replaced."""
    cert = copy.deepcopy(cert)
    h = cert["h"]
    t, j = rng.randrange(len(h["triangles"])), rng.randrange(3)
    if kind in ("image", "vertex"):
        points = h["images" if kind == "image" else "vertices"]
        v, c = rng.randrange(len(points)), rng.randrange(2)
        step = Q(rng.choice((-1, 1)), rng.choice((2, 3, 7, 24, 97)))
        points[v][c] = fmt_rat(Q(points[v][c]) + step)
    elif kind in ("lift", "image_lift"):
        h[f"{kind}s"][t][j] += rng.choice((-1, 1))
    elif kind == "triangle":
        h["triangles"][t][j] = rng.randrange(len(h["vertices"]))
    elif kind == "drop":
        for key in ("triangles", "lifts", "image_lifts"):
            del h[key][t]
    else:
        cert["model"]["k"], cert["model"]["n"] = \
            rng.randrange(5), rng.randrange(7)
    return cert


@pytest.mark.parametrize("name", NAMES)
def test_verify_answers_semantic_mutants(name, tmp_path, capsys):
    """Each intact frozen certificate, mutated once in each way of
    ``_semantic_mutant`` from a fixed seed: ``verify`` exits 0, 1 or 3
    without a traceback, and 0 only when the mutant's model is the
    intact one and its h is the intact h as a model map."""
    intact = json.loads((INPUTS / f"{name}.cert.json").read_text())
    cert = pio.certificate_from_dict(intact)
    for kind in SEMANTIC_MUTATIONS:
        mutant = _semantic_mutant(intact, kind,
                                  random.Random(f"{name} {kind}"))
        code = _verify(tmp_path, INPUTS / f"{name}.json", mutant)
        out = capsys.readouterr()
        assert code in (0, 1, 3), (kind, out)
        assert "Traceback" not in out.out + out.err
        if code == 0:
            same = pio.certificate_from_dict(mutant)
            assert same.model == cert.model
            assert first_disagreement(same.h, cert.h) is None
