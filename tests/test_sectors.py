"""The arc system, the sectors and the fixed edges of an equivariant
complex, which the certificates with fixed points are laid out on."""

import importlib
import pkgutil
from fractions import Fraction
from math import gcd

import pytest

import plhomeo
from plhomeo import maps
from plhomeo.conjugacy import ModelIsometry, check_certificate
from plhomeo.disc import analyze_disc, build_conjugacy_rotation
from plhomeo.eqcomplex import equivariant_complex
from plhomeo.generate import make_instance
from plhomeo.maps import validate_homeo
from plhomeo.sectors import (LEVEL_CUTS, cut_sectors, fixed_edges, polar_arc,
                             rotation_layout)
from plhomeo.sphere import analyze_sphere, build_conjugacy_fixedpoint
from plhomeo.suspension import DISC, SPHERE

Q = Fraction


def _rotation_sectors(f, n):
    """The complex of f, the orbit of its polar arc, the sectors the arcs
    cut and the sector that ``rotation_layout`` lays out first."""
    k = equivariant_complex(f, n, level_cuts=LEVEL_CUTS[DISC])
    arcs, _, sectors, sector0 = cut_sectors(k, polar_arc(k), n)
    rotation = ModelIsometry(DISC, "rotation", 1, n).affine()
    assert rotation_layout(k, rotation, 1).fund == sector0
    return k, arcs, sectors, sector0


def test_cut_sectors_model():
    f = ModelIsometry(DISC, "rotation", 1, 4).as_map()
    k, arcs, sectors, sector0 = _rotation_sectors(f, 4)
    assert len(sectors) == 4
    assert len(arcs) == 4
    # arcs pairwise share no vertex except bottom chart copies of the center
    for i in range(4):
        for j in range(i + 1, 4):
            shared = set(arcs[i]) & set(arcs[j])
            assert all(k.verts[v][1] == 0 for v in shared)
    # sectors are permuted cyclically by f
    cycle = [sector0]
    for _ in range(4):
        cycle.append(frozenset(k.cell_perm[c] for c in cycle[-1]))
    assert cycle[4] == sector0 and set(cycle[:4]) == set(sectors)


def test_cut_sectors_scrambled():
    f, h, r = make_instance(DISC, "rotation", 1, 3, seed=2, moves=8)
    k, _, sectors, _ = _rotation_sectors(f, 3)
    assert len(sectors) == 3
    total = sum(len(s) for s in sectors)
    assert total == len(k.polys)


def test_fixed_edges_are_read_off_the_action():
    """The model reflection (t, s) -> (-t, s) fixes the meridians t = 0
    and t = 1/2, and its square fixes every edge off the end lines."""
    f = ModelIsometry(DISC, "reflection").as_map()
    k = equivariant_complex(f, 2, level_cuts=LEVEL_CUTS[DISC])
    assert {k.edges[ei][0][0] for ei in fixed_edges(k, 1)} == {Q(0), Q(1, 2)}
    assert all(pa[0] == pb[0] for pa, pb in
               (k.edges[ei] for ei in fixed_edges(k, 1)))
    on_ends = {ei for ei, (pa, pb) in enumerate(k.edges)
               if pa[1] == pb[1] and pa[1] in (Q(0), Q(1))}
    off_ends = set(range(len(k.edges))) - on_ends
    assert fixed_edges(k, 2) == off_ends


ANALYZE = {DISC: (analyze_disc, build_conjugacy_rotation),
           SPHERE: (analyze_sphere, build_conjugacy_fixedpoint)}


@pytest.mark.parametrize("model", [DISC, SPHERE])
@pytest.mark.parametrize("k, n", [(k, n) for n in range(3, 8)
                                  for k in range(2, n) if gcd(k, n) == 1])
def test_rotation_certificate_is_built_on_fs_own_complex(model, k, n):
    """A rotation k/n with k != 1 is laid out on f's own complex, the
    sector's right arc the image of its left arc under f^j, jk = 1 mod n,
    and its certificate names k/n and verifies."""
    f = ModelIsometry(model, "rotation", k, n).as_map()
    analyze, build = ANALYZE[model]
    cert = build(f, analyze(f))
    assert (cert.model.kind, cert.model.k, cert.model.n) == ("rotation", k, n)
    assert check_certificate(f, cert) is None
    assert validate_homeo(cert.h) == []


def test_rotation_certificate_composes_no_iterate(monkeypatch):
    """After the analysis, which builds f's iterates, the certificate of
    disc rotation 2/5 composes only h o f, in its exactness check: no
    iterate of a power of f is built."""
    f, _, _ = make_instance(DISC, "rotation", 2, 5, seed=2, moves=3)
    ana = analyze_disc(f)
    calls = {"compose": 0}
    original = maps.compose

    def counted(a, b):
        calls["compose"] += 1
        return original(a, b)
    for info in pkgutil.iter_modules(plhomeo.__path__):
        module = importlib.import_module(f"plhomeo.{info.name}")
        if getattr(module, "compose", None) is original:
            monkeypatch.setattr(module, "compose", counted)
    cert = build_conjugacy_rotation(f, ana)
    assert (cert.model.k, cert.model.n) == (2, 5)
    assert calls == {"compose": 1}
