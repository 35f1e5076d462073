"""JSON (de)serialization: instances, maps, certificates, answer keys.

All rationals travel as "p/q" strings (q > 0, lowest terms); output is
deterministic (sorted keys, fixed separators).
"""

from __future__ import annotations

import json

from .circle import (CircleCertificate, CirclePL, IntervalPL, LinePL,
                     RotationClass)
from .conjugacy import (Certificate, ModelIsometry, IDENTITY, REFLECTION,
                        ROTATION)
from .errors import InvalidClass, ParseError, StructureViolated
from .exact import fmt_rat, parse_rat
from .maps import PLMap2, from_complex, serializable_parts
from .suspension import DISC, SPHERE, SuspensionComplex

SPACES = ("interval", "line", "circle", "disc", "sphere")

# The pins a certificate file carries, by model and class (none for the
# others); bench/inputs/manifest.json pins the bytes of the certificates,
# so "boundary", always False, stays.
PINS = {(DISC, ROTATION): {"boundary": False},
        (SPHERE, ROTATION): {"north": True},
        (SPHERE, REFLECTION): {"north": True}}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def map2_to_dict(f: PLMap2) -> dict:
    cx, img_verts, img_lifts = serializable_parts(f)
    return {
        "model": f.model,
        "vertices": [[fmt_rat(t), fmt_rat(s)] for t, s in cx.verts],
        "triangles": [list(t) for t in cx.tris],
        "lifts": [list(l) for l in cx.lifts],
        "images": [[fmt_rat(t), fmt_rat(s)] for t, s in img_verts],
        "image_lifts": [list(l) for l in img_lifts],
    }


def map2_from_dict(data: dict) -> PLMap2:
    try:
        model = data["model"]
        if model not in (DISC, SPHERE):
            raise ParseError(f"unknown model {model!r}")
        verts = [(parse_rat(t), parse_rat(s)) for t, s in data["vertices"]]
        tris = _int_triples(data["triangles"], "triangles")
        lifts = _int_triples(data["lifts"], "lifts")
        imgs = [(parse_rat(t), parse_rat(s)) for t, s in data["images"]]
        img_lifts = _int_triples(data["image_lifts"], "image_lifts")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad map payload: {exc}") from exc
    if len(imgs) != len(verts):
        raise ParseError(f"{len(imgs)} images for {len(verts)} vertices")
    if len(lifts) != len(tris) or len(img_lifts) != len(tris):
        raise ParseError("lifts and image_lifts need one entry per triangle")
    if any(not 0 <= v < len(verts) for tri in tris for v in tri):
        raise ParseError("triangle vertex index out of range")
    cx = SuspensionComplex(model, verts, tris, lifts)
    return from_complex(cx, imgs, img_lifts)


def _int_triples(rows, what: str) -> list[tuple[int, int, int]]:
    out = [tuple(row) for row in rows]
    if any(len(row) != 3 or any(type(x) is not int for x in row)
           for row in out):
        raise ParseError(f"{what} entries must be three integers")
    return out


def circle_from_dict(data: dict) -> CirclePL:
    try:
        breaks = tuple((parse_rat(t), parse_rat(u)) for t, u in data["lift"])
        if not breaks:
            raise ParseError("circle map needs a breakpoint")
        if len(breaks) > 1:
            sign = 1 if breaks[1][1] > breaks[0][1] else -1
        elif "orientation" not in data:
            raise ParseError("single-breakpoint circle map needs an "
                             "explicit orientation")
        else:
            sign = 1 if data["orientation"] >= 0 else -1
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad circle payload: {exc}") from exc
    return CirclePL(breaks, sign)


def circle_to_dict_oriented(f: CirclePL) -> dict:
    d = {"type": "circle_pl",
         "lift": [[fmt_rat(t), fmt_rat(u)] for t, u in f.breaks]}
    if len(f.breaks) == 1:
        d["orientation"] = f.orientation
    return d


def interval_to_dict(f: IntervalPL) -> dict:
    return {"type": "interval_pl",
            "breakpoints": [[fmt_rat(x), fmt_rat(y)] for x, y in f.breaks]}


def interval_from_dict(data: dict) -> IntervalPL:
    try:
        return IntervalPL(tuple((parse_rat(x), parse_rat(y))
                                for x, y in data["breakpoints"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad interval payload: {exc}") from exc


def line_to_dict(f: LinePL) -> dict:
    return {"type": "line_pl",
            "breakpoints": [[fmt_rat(x), fmt_rat(y)] for x, y in f.breaks],
            "left_slope": fmt_rat(f.left_slope),
            "right_slope": fmt_rat(f.right_slope)}


def line_from_dict(data: dict) -> LinePL:
    try:
        return LinePL(tuple((parse_rat(x), parse_rat(y))
                            for x, y in data["breakpoints"]),
                      parse_rat(data["left_slope"]),
                      parse_rat(data["right_slope"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad line payload: {exc}") from exc


def instance_to_dict(space: str, payload) -> dict:
    if space not in SPACES:
        raise ParseError(f"unknown space {space!r}")
    if space in (DISC, SPHERE):
        body = map2_to_dict(payload)
    elif space == "circle":
        body = circle_to_dict_oriented(payload)
    elif space == "interval":
        body = interval_to_dict(payload)
    else:
        body = line_to_dict(payload)
    return {"space": space, "map": body}


def instance_from_dict(data: dict):
    """(space, map); any other key of the instance is ignored."""
    try:
        space = data["space"]
        body = data["map"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"instance file needs 'space' and 'map': {exc}")
    if space not in SPACES:
        raise ParseError(f"unknown space {space!r}")
    if space in (DISC, SPHERE):
        f = map2_from_dict(body)
        if f.model != space:
            raise ParseError("space tag and map model disagree")
    elif space == "circle":
        f = circle_from_dict(body)
    elif space == "interval":
        f = interval_from_dict(body)
    else:
        f = line_from_dict(body)
    return space, f


def model_to_dict(m: ModelIsometry) -> dict:
    return {"space": m.model, "kind": m.kind, "k": m.k, "n": m.n}


def model_from_dict(data: dict) -> ModelIsometry:
    """k and n must be integers; an identity or a reflection has no class,
    so it must carry k = 0 and n = 1, as ``model_to_dict`` writes it."""
    try:
        kind, k, n = data["kind"], data.get("k", 0), data.get("n", 1)
        if (type(k), type(n)) != (int, int) or \
                kind in (IDENTITY, REFLECTION) and (k, n) != (0, 1):
            raise ParseError(f"model {kind!r} with k = {k!r} and n = {n!r}")
        return ModelIsometry(data["space"], kind, k, n)
    except (KeyError, TypeError, InvalidClass) as exc:
        raise ParseError(f"bad model payload: {exc}") from exc


def certificate_to_dict(cert: Certificate) -> dict:
    """Every certificate written is one its builder checked exactly."""
    return {"model": model_to_dict(cert.model),
            "h": map2_to_dict(cert.h),
            "exact": True,
            "pins": PINS.get((cert.model.model, cert.model.kind), {})}


def certificate_from_dict(data: dict) -> Certificate:
    """The model and h of a certificate file; its "exact" claim is not
    read, and its "pins", constant per class, need only convert to a dict."""
    try:
        cert = Certificate(model_from_dict(data["model"]),
                           map2_from_dict(data["h"]))
        dict(data.get("pins", {}))
        return cert
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad certificate payload: {exc}") from exc


def circle_certificate_to_dict(kind: str, klass, h: CirclePL) -> dict:
    model = {"space": "circle", "kind": kind}
    if klass is not None:
        model["k"], model["n"] = klass.k, klass.n
    return {"model": model, "h": circle_to_dict_oriented(h), "exact": True}


def circle_certificate_from_dict(data: dict) -> CircleCertificate:
    try:
        model = data["model"]
        kind = model["kind"]
        h = circle_from_dict(data["h"])
        klass = None
        if kind == "rotation":
            k, n = model["k"], model["n"]
            if type(k) is not int or type(n) is not int or n < 1:
                raise ParseError(f"circle rotation k/n = {k!r}/{n!r} needs "
                                 "integers with n >= 1")
            klass = RotationClass(k, n)
        elif kind not in ("identity", "reflection"):
            raise ParseError(f"unknown circle model kind {kind!r}")
    except (KeyError, TypeError, StructureViolated) as exc:
        raise ParseError(f"bad circle certificate: {exc}") from exc
    return CircleCertificate(kind, klass, h)


def onedim_certificate_to_dict(space: str, kind: str, h) -> dict:
    to_dict = interval_to_dict if space == "interval" else line_to_dict
    return {"model": {"space": space, "kind": kind},
            "h": to_dict(h) if h is not None else None, "exact": True}


def onedim_certificate_from_dict(space: str, data: dict):
    """(kind, h) of an interval or line certificate; h is None for the
    identity."""
    parse = interval_from_dict if space == "interval" else line_from_dict
    try:
        kind = data["model"]["kind"]
        if kind == "identity":
            return kind, None
        if kind == "involution":
            return kind, parse(data["h"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad {space} certificate: {exc}") from exc
    raise ParseError(f"unknown {space} model kind {kind!r}")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def save_json(path: str, obj):
    save_text(path, dumps(obj))


def save_text(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
