"""The affine maps that the equivariant complexes are built with are handed
on from ``maps.compose`` and never located again.

Two point-location constructions serve as oracles here:
``_affine_at`` takes the affine map of the cell of a complex's map that a
cell's centroid lies in, and ``_iterate_affines`` composes the affine maps
of f^0, ..., f^(n-1) on a chain cell, one located step of f at a time.
They run on the frozen disc rotation 1/3 and on the frozen sphere
rotoreflection 1/4, whose complex is built in the frame of f and pushed
through the conjugacy that normalizes its square.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import io as pio
from plhomeo.eqcomplex import (_chain_cells, _cut_polys,
                               conjugated_equivariant_complex,
                               equivariant_complex, refine_cells,
                               refine_edges)
from plhomeo.exact import mod1
from plhomeo.geom import centroid, frac_poly
from plhomeo.maps import (CellMap, PLMap2, _action_key, compose, identity_map,
                          inverse, locate_cell)
from plhomeo.sectors import LEVEL_CUTS
from plhomeo.sphere import free_structure
from plhomeo.suspension import DISC, SPHERE, IDENTITY_AFFINE
from test_geom import affine_of

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
Q = Fraction


def _load(name):
    _, f = pio.instance_from_dict(pio.load_json(INPUTS / f"{name}.json"))
    return f


def _affine_at(m, poly):
    c = centroid(list(poly))
    idx, _ = locate_cell(m, (mod1(c[0]), c[1]))
    return m.affine(idx)


def _iterate_affines(f, poly, n):
    """Affines of f^i on a chain cell, i in [0, n), located step by step in
    f's own cell list."""
    affs = [IDENTITY_AFFINE]
    x = centroid(list(poly))
    A = IDENTITY_AFFINE
    for _ in range(1, n):
        q = (mod1(x[0]), x[1])
        ci, qq = locate_cell(f, q)
        delta = qq[0] - x[0]
        step = f.affine(ci)
        if delta != 0:
            step = step.compose_after(affine_of(Q(1), Q(0), delta,
                                                Q(0), Q(1), Q(0)))
        A = step.compose_after(A)
        affs.append(A)
        x = step(x)
    return affs


def _check_complex(k, f):
    """The builder's affine maps, and those that refine_cells and
    refine_edges give the children of their cells, are the located ones of
    f, the map k is a complex of."""
    for cx in (k, refine_cells(k, [0, len(k.polys) - 1]),
               refine_edges(k, [0, len(k.edges) - 1])):
        assert cx.model == f.model
        assert len(cx.f_affines) == len(cx.polys)
        assert cx.f_affines == [_affine_at(f, poly) for poly in cx.polys]


def _check_chains(f, n, levels):
    """Each chain cell, also after cuts, has the cell of f and, up to a
    horizontal integer shift, the iterate affines that location finds.
    The chain cells are homogeneous points, the cut ones Fractions."""
    chains = _chain_cells(f, n)
    cut = _cut_polys(chains, list(levels), [])
    assert len(cut) > len(chains)
    for poly, cell, affs in [(frac_poly(p), c, a) for p, c, a in chains] \
            + cut:
        assert f.affine(cell) == _affine_at(f, poly)
        assert [_action_key(A) for A in affs] == \
            [_action_key(A) for A in _iterate_affines(f, poly, n)]


def test_disc_rotation_complex_affines_are_handed_on():
    f = _load("disc-rotation-1-3")
    _check_complex(equivariant_complex(f, 3, level_cuts=LEVEL_CUTS[DISC]), f)
    _check_chains(f, 3, LEVEL_CUTS[DISC])


def _moved(m):
    """m with every image moved by 1 along t: the same model map, with
    images off the unit chart."""
    return PLMap2(m.model, [CellMap(c.poly, tuple((x + 1, y)
                                                  for x, y in c.img))
                            for c in m.cells])


@pytest.mark.parametrize("moved", [False, True])
def test_conjugated_complex_affines_are_handed_on(moved):
    f = _load("sphere-rotoreflection-1-4")
    fs = free_structure(f, 4)
    assert fs.conj is not None
    fp, h = fs.fp, fs.conj.h
    if moved:
        # pushing a cell, and following f, now leave the unit chart
        f, h = _moved(f), _moved(h)
        fp = compose(compose(inverse(h), f), h)
    p0 = fs.orbit[0]
    k = conjugated_equivariant_complex(
        f, h, 4, level_cuts=[fs.t0],
        chord_cuts=[((p0[0], fs.t0), (p0[0], Q(1)))],
        phi_power=2 if fs.subcase == "coincident" else None)
    _check_complex(k, fp)
    f_ref = compose(identity_map(SPHERE, [c.poly for c in h.cells]), f)
    _check_chains(f_ref, 4, [Q(1, 3), Q(-1, 3)])
