"""A traced run of the commands is the same program as an untraced one.

``bench/tracer.py`` wraps functions of ``plhomeo`` by name and measures a
size on some results: the ``cells`` of ``maps.compose``, the ``polys`` of
the two equivariant complexes, and the first two positional arguments of
``embedding.tutte_positions``.  Here ``analyze --format json``,
``conjugate`` and ``verify`` run on four frozen instances, both fixed-point
classes among them, once untraced and twice under an installed ``Tracer``.
Both traced runs must give the untraced exit codes, standard output and
certificate bytes, with no exception escaping a wrapper, and make the same
calls in every group.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from plhomeo import cli

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "bench" / "inputs"
NAMES = ["disc-reflection-0-2", "disc-rotation-1-3", "sphere-rotation-1-3",
         "sphere-rotoreflection-1-4"]
CALLED = ["maps.compose", "eqcomplex.equivariant_complex",
          "eqcomplex.conjugated_equivariant_complex",
          "embedding.tutte_positions", "disc.analyze_disc",
          "sphere.analyze_sphere"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _run(call, tmp: Path):
    """(case, stage, exit code, stdout) of each command, with the
    temporary directory masked, and each certificate's bytes."""
    out = []
    for name in NAMES:
        inst = str(INPUTS / f"{name}.json")
        cert = tmp / f"{name}.cert.json"
        cert.unlink(missing_ok=True)
        for stage, argv in (
                ("analyze", ["analyze", "--format", "json", inst]),
                ("conjugate", ["conjugate", inst, "--out", str(cert)]),
                ("verify", ["verify", inst, str(cert)])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = call(stage, argv)
            out.append((name, stage, rc,
                        buf.getvalue().replace(str(tmp), "<tmp>")))
        out.append((name, "certificate", cert.read_bytes()))
    return out


def test_traced_runs_are_the_untraced_run(tmp_path):
    tracer = _load_tracer().Tracer()
    untraced = _run(lambda stage, argv: cli.main(argv), tmp_path)
    traced, counts = [], []
    for _ in range(2):
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(_run(lambda stage, argv: tracer.root(
                stage, cli.main, argv), tmp_path))
        finally:
            tracer.uninstall()
        counts.append({group: s["calls"]
                       for group, s in tracer.aggregate(first).items()})
    assert [run[2] for run in untraced if len(run) == 4] == \
        [0] * 3 * len(NAMES)
    assert traced[0] == untraced
    assert traced[1] == untraced
    assert counts[0] == counts[1]
    assert [g for g in CALLED if counts[0][g] == 0] == []
