"""Command-line driver: generate, analyze, conjugate, verify, render,
selftest.

Exit codes: 0 success, 1 verification failure (``verify`` also exits 1,
before any check of h o f = model o h, when the instance map f or the
certificate's map h is not a PL homeomorphism of its model, as
``maps.validate_homeo`` decides), 2 structural violation,
3 parse error (including a malformed certificate, one naming an invalid
model class, or a file that cannot be read or written), 4 not periodic
(NotPeriodic).  A disc or sphere map is not periodic when f^n is not the
identity for the period n of its circle map on s = 1, which is a proof
(see ``maps.period``), or when that circle map has no period up to
``circle.MAX_PERIOD``; a circle map is searched for a period up to the
same bound, and one that reverses orientation is not periodic when its
square is not the identity.

The angle k/n that ``analyze`` reports for a disc or sphere rotation or
a sphere rotoreflection, and that its certificate's model names, is kept
by a conjugacy that preserves orientation and fixes the poles, or that
reverses orientation and swaps them; on the disc, by one that preserves
orientation.  Others turn k into n - k: on the disc, sigma: (t, s) ->
(-t, s) turns the rotation 1/3 into 2/3; on the sphere, both sigma and
rho: (t, s) -> (-t, -s) turn k into n - k, for the rotation 1/3 and for
the rotoreflection 1/4, while sigma o rho keeps k.  So k/n is not yet a
class up to every conjugacy; item 3 of ROADMAP.md names the canonical
class.

``render`` draws a disc or sphere map's cell edges in grey and its fixed
set in red.  It builds the certificate h as ``conjugate`` does and draws
in blue the h-preimages of the model's meridians t = i k/n mod 1, the
orbit of t = 0 under the model (only t = 0 for the identity and the
reflection, whose model has k = 0 and n = 1): the arcs that bound the
fundamental domains of f (``conjugacy.meridian_edges``).  When the
construction fails it says why on stderr and draws the bare map.
"""

from __future__ import annotations

import argparse
# the package, not ProcessPoolExecutor: concurrent.futures loads
# multiprocessing only when that name is first looked up, so the commands
# other than selftest --jobs do not pay its import time and memory
import concurrent.futures
import sys
import time
from math import gcd

from . import io as pio
from .circle import (circle_conjugacy_holds, classify_line,
                     conjugate_circle_to_model, fixed_points_reversing,
                     is_line_identity, line_conjugacy_holds, rotation_number)
from .conjugacy import (REFLECTION, Certificate, check_certificate,
                        meridian_edges)
from .disc import (analyze_disc, build_conjugacy_reflection,
                   build_conjugacy_rotation)
from .errors import ParseError, PLHomeoError
from .exact import fmt_pt, fmt_rat
from .generate import make_instance
from .maps import CellMap, PLMap2, compose, validate_homeo
from .sphere import (analyze_sphere, build_conjugacy_fixedpoint,
                     build_conjugacy_free)
from .suspension import DISC, SPHERE
from .svg import render_map


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 0
    try:
        return args.func(args) or 0
    except PLHomeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _build_parser():
    p = argparse.ArgumentParser(
        prog="plhomeo",
        description="Exact classification and conjugacy certificates for "
                    "periodic PL homeomorphisms")
    sub = p.add_subparsers()

    g = sub.add_parser("generate", help="emit a scrambled model isometry")
    g.add_argument("--space", choices=(DISC, SPHERE), required=True)
    g.add_argument("--kind", required=True,
                   choices=("identity", "rotation", "reflection",
                            "rotoreflection"))
    g.add_argument("--k", type=int, default=0)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--moves", type=int, default=10)
    g.add_argument("--out", required=True)
    g.add_argument("--key-out", help="answer key file (scramble + model)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="classify an instance")
    a.add_argument("path")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("conjugate", help="build a conjugacy certificate")
    c.add_argument("path")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_conjugate)

    v = sub.add_parser("verify", help="independently re-check a certificate")
    v.add_argument("instance")
    v.add_argument("certificate")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser(
        "render", help="draw an instance as SVG: its fixed set in red, and "
        "in blue the arcs that the certificate h maps onto the model's "
        "meridians")
    r.add_argument("path")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)

    s = sub.add_parser("selftest", help="run the acceptance battery")
    s.add_argument("--seeds", type=int, default=3,
                   help="scramble seeds per class")
    s.add_argument("--moves", type=int, default=10)
    s.add_argument("--quick", action="store_true",
                   help="small class sample instead of the full matrix")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--inject-corruption", action="store_true",
                   help="plant a deliberate failure to prove detection")
    s.set_defaults(func=cmd_selftest)
    return p


# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    pio.model_from_dict({"space": args.space, "kind": args.kind,
                         "k": args.k, "n": args.n})
    f, h, r = make_instance(args.space, args.kind, args.k, args.n,
                            args.seed, args.moves)
    pio.save_json(args.out, pio.instance_to_dict(args.space, f))
    if args.key_out:
        key = {
            "space": args.space, "kind": args.kind, "k": args.k, "n": args.n,
            "seed": args.seed, "moves": args.moves,
            "scramble": pio.map2_to_dict(h),
        }
        pio.save_json(args.key_out, key)
    print(f"wrote {args.out} ({len(f.cells)} cells)")
    return 0


def _analysis_dict(space, f):
    if space in ("interval", "line"):
        cls = classify_line(f)
        return {"space": space, "class": cls.kind,
                "period": 1 if cls.kind == "identity" else 2,
                "fixed_point": fmt_rat(cls.fixed_point)
                if cls.fixed_point is not None else None}
    if space == "circle":
        if f.orientation == 1:
            rc = rotation_number(f)
            return {"space": space, "period": rc.n,
                    "orientation": "preserving", "class": "rotation",
                    "k": rc.k, "n": rc.n}
        # fixed_points_reversing proves f^2 = id, or raises NotPeriodic
        p, q = fixed_points_reversing(f)
        return {"space": space, "period": 2, "orientation": "reversing",
                "class": "reflection",
                "fixed_points": [fmt_rat(p), fmt_rat(q)]}
    return _map_analysis_dict(space, _analyze(space, f))


def _analyze(space, f):
    """The analysis of a disc or sphere map, which its certificate builder
    consumes."""
    return analyze_disc(f) if space == DISC else analyze_sphere(f)


def _map_analysis_dict(space, ana) -> dict:
    if space == DISC:
        out = {"space": space, "class": ana.kind, "period": ana.n,
               "orientation": "reversing" if ana.kind == "reflection"
               else "preserving"}
        if ana.kind == "rotation":
            out["k"], out["n"] = ana.k, ana.n
            out["fixed_point"] = [fmt_rat(x) for x in ana.fixed.zero[0]]
        if ana.kind == "reflection":
            arc = ana.fixed.one[0]
            out["fixed_arc_endpoints"] = [[fmt_rat(x) for x in arc[0]],
                                          [fmt_rat(x) for x in arc[-1]]]
        return out
    out = {"space": space, "class": ana.kind, "period": ana.n,
           "orientation": "preserving" if ana.kind in ("identity", "rotation")
           else "reversing"}
    if ana.kind in ("rotation", "rotoreflection"):
        out["k"], out["n"] = ana.k, ana.n
    if ana.kind == "rotoreflection":
        out["fixed_set"] = "empty"
    elif ana.kind == "rotation":
        out["fixed_set"] = "two poles"
    elif ana.kind == "reflection":
        out["fixed_set"] = "simple closed curve"
    return out


def _fmt_pt(p) -> str:
    if isinstance(p, (list, tuple)):
        return "(" + ", ".join(str(x) for x in p) + ")"
    return str(p)


def _analysis_text(d: dict) -> str:
    bits = [d["space"], d["class"]]
    if "period" in d:
        bits.append(f"period {d['period']}")
    if "k" in d:
        bits.append(f"angle {d['k']}/{d['n']}")
    if d.get("fixed_point"):
        bits.append(f"fixed point {_fmt_pt(d['fixed_point'])}")
    if d.get("fixed_points"):
        bits.append("fixed points "
                    + ", ".join(_fmt_pt(p) for p in d["fixed_points"]))
    if d.get("fixed_arc_endpoints"):
        bits.append("fixed arc endpoints "
                    + " and ".join(_fmt_pt(p)
                                   for p in d["fixed_arc_endpoints"]))
    if d.get("fixed_set"):
        bits.append(f"fixed set: {d['fixed_set']}")
    return ", ".join(str(b) for b in bits)


def cmd_analyze(args) -> int:
    space, f = pio.instance_from_dict(pio.load_json(args.path))
    d = _analysis_dict(space, f)
    if args.format == "json":
        sys.stdout.write(pio.dumps(d))
    else:
        print(_analysis_text(d))
    return 0


def cmd_conjugate(args) -> int:
    space, f = pio.instance_from_dict(pio.load_json(args.path))
    if space == "circle":
        cert = conjugate_circle_to_model(f)
        body = pio.circle_certificate_to_dict(cert.kind, cert.klass, cert.h)
    elif space in ("interval", "line"):
        cls = classify_line(f)
        body = pio.onedim_certificate_to_dict(space, cls.kind, cls.h)
    else:
        # every builder ends in require_exact
        body = pio.certificate_to_dict(
            _conjugate_map(space, f, _analyze(space, f)))
    pio.save_json(args.out, body)
    print(f"wrote {args.out} (exact)")
    return 0


def _conjugate_map(space, f, ana) -> Certificate:
    """The certificate of f, built from ``ana``, its analysis."""
    if space == DISC:
        if ana.kind == "reflection":
            return build_conjugacy_reflection(f, ana)
        return build_conjugacy_rotation(f, ana)
    if ana.kind == "rotoreflection":
        return build_conjugacy_free(f, ana)
    return build_conjugacy_fixedpoint(f, ana)


def cmd_verify(args) -> int:
    space, f = pio.instance_from_dict(pio.load_json(args.instance))
    data = pio.load_json(args.certificate)
    if space in ("circle", "interval", "line"):
        return _verify_onedim(space, f, data)
    cert = pio.certificate_from_dict(data)
    for what, g in (("instance", f), ("certificate", cert.h)):
        problems = validate_homeo(g)
        if problems:
            print(f"{what} invalid: " + "; ".join(problems))
            return 1
    witness = check_certificate(f, cert)
    if witness is None:
        print("certificate verified: h o f = model o h exactly")
        return 0
    print("certificate REJECTED: first disagreement at " + fmt_pt(witness))
    return 1


def _verify_onedim(space, f, data) -> int:
    """Check a circle, interval or line certificate with the exact tests
    the classifiers apply to the conjugacies they build."""
    if space == "circle":
        cert = pio.circle_certificate_from_dict(data)
        ok = circle_conjugacy_holds(f, cert.h, cert.model_map())
        print("certificate verified: h o f = model o h exactly" if ok
              else "certificate REJECTED")
        return 0 if ok else 1
    kind, h = pio.onedim_certificate_from_dict(space, data)
    ok = is_line_identity(f) if kind == "identity" \
        else line_conjugacy_holds(f, h)
    print("verified" if ok else "REJECTED")
    return 0 if ok else 1


def cmd_render(args) -> int:
    space, f = pio.instance_from_dict(pio.load_json(args.path))
    if space not in (DISC, SPHERE):
        raise ParseError("render supports disc and sphere instances")
    arcs = None
    try:
        arcs = meridian_edges(_conjugate_map(space, f, _analyze(space, f)))
    except PLHomeoError as exc:
        print(f"render: analysis failed ({type(exc).__name__}: {exc}); "
              "drawing the bare map", file=sys.stderr)
    pio.save_text(args.out, render_map(f, arcs=arcs))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# selftest battery


def _class_matrix(quick: bool):
    """The (space, kind, k, n) classes the selftest runs, each as a model
    file gives it: a reflection has no class, so it is k = 0, n = 1
    (``io.model_from_dict``), though its period is 2."""
    out = []
    if quick:
        out = [
            (DISC, "rotation", 1, 3), (DISC, "rotation", 2, 5),
            (DISC, "reflection", 0, 1),
            (SPHERE, "rotation", 1, 3), (SPHERE, "reflection", 0, 1),
            (SPHERE, "rotoreflection", 1, 4),
        ]
        return out
    for n in range(2, 9):
        for k in range(1, n):
            if gcd(k, n) == 1:
                out.append((DISC, "rotation", k, n))
                out.append((SPHERE, "rotation", k, n))
    out.append((DISC, "reflection", 0, 1))
    out.append((SPHERE, "reflection", 0, 1))
    for n in (2, 4, 6, 8):
        for k in range(1, n):
            if gcd(2 * k, n) == 2:
                out.append((SPHERE, "rotoreflection", k, n))
    return out


def _run_case(case):
    space, kind, k, n, seed, moves, corrupt = case
    t0 = time.time()
    try:
        f, h, r = make_instance(space, kind, k, n, seed, moves)
        ana = _analyze(space, f)
        if (ana.kind, ana.k, ana.n) != (kind, k,
                                        2 if kind == REFLECTION else n):
            return (case, False, "class mismatch", time.time() - t0)
        # every builder ends in require_exact, which raises when inexact
        cert = _conjugate_map(space, f, ana)
        if corrupt:
            caught = check_certificate(f, _corrupt(cert)) is not None
            return (case, caught, "corruption detected" if caught
                    else "corruption NOT detected", time.time() - t0)
        return (case, True, "ok", time.time() - t0)
    except PLHomeoError as exc:
        return (case, False, f"{type(exc).__name__}: {exc}",
                time.time() - t0)


def _corrupt(cert: Certificate) -> Certificate:
    cells = list(cert.h.cells)
    for idx, c in enumerate(cells):
        img = list(c.img)
        for j, (x, y) in enumerate(img):
            if 0 < y < 1:
                img[j] = (x, y + (1 - y) / 7)
                cells[idx] = CellMap(c.poly, tuple(img))
                return Certificate(cert.model,
                                   PLMap2(cert.h.model, cells=cells))
    return cert


def cmd_selftest(args) -> int:
    cases = []
    for (space, kind, k, n) in _class_matrix(args.quick):
        for s in range(args.seeds):
            cases.append((space, kind, k, n, 100 + s, args.moves, False))
    if args.inject_corruption:
        cases.append((DISC, "rotation", 1, 3, 999, args.moves, True))
    results = []
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            results = list(pool.map(_run_case, cases))
    else:
        results = [_run_case(c) for c in cases]
    failures = 0
    for (case, ok, msg, dt) in results:
        space, kind, k, n, seed, moves, corrupt = case
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        tag = f"{space} {kind} k={k} n={n} seed={seed}"
        if corrupt:
            tag += " [corrupted]"
        print(f"{status} {tag}: {msg} ({dt:.1f}s)")
    print(f"{len(results) - failures}/{len(results)} cases passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
