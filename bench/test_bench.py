"""Tests of the benchmark runner itself.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import os
import random
import time
import types

import run
import workloads as wl
from tracer import Tracer

FROZEN = wl.FROZEN_DIR


def _step(case, stage, expect_rc):
    return wl.Step(case, stage, (stage, "instance", "certificate"),
                   expect_rc)


def _fake_cli(main):
    return types.SimpleNamespace(main=main)


def test_tampered_certificate_fails_unless_verify_exits_1():
    step = _step("disc-rotation-1-3.k-changed", "verify", 1)
    for rc, failures in ((1, 0), (0, 1), (3, 1), (None, 1)):
        result = run.run_pass(_fake_cli(lambda argv: rc), [step],
                              random.Random(0))
        assert len(result.failures) == failures, rc


def test_escaping_exception_is_counted_and_the_pass_goes_on():
    cli = run.import_plhomeo()

    def broken(args):
        raise KeyError("injected")

    cli.cmd_verify = broken
    try:
        steps = wl.verify_steps(FROZEN)
        result = run.run_pass(cli, steps, random.Random(0))
    finally:
        run.import_plhomeo()
    assert len(result.digest) == len(steps)
    assert len(result.failures) == len(steps)
    assert all("KeyError: 'injected'" in f for f in result.failures)


def test_wrong_class_is_a_failure():
    step = wl.Step("disc-rotation-1-3", "analyze", ("analyze",), 0)
    wrong = json.dumps({"class": "rotation", "k": 2, "n": 3})
    result = run.run_pass(
        _fake_cli(lambda argv: print(wrong) or 0), [step], random.Random(0))
    assert len(result.failures) == 1


def test_tracer_restores_every_patched_name():
    cli = run.import_plhomeo()
    import plhomeo.disc as disc
    import plhomeo.maps as maps
    before = (maps.compose, disc.compose, cli.compose)
    tracer = Tracer()
    tracer.install()
    assert disc.compose is maps.compose is cli.compose
    assert maps.compose is not before[0]
    tracer.uninstall()
    assert (maps.compose, disc.compose, cli.compose) == before


def test_layer_counts_repeat_across_traced_runs():
    """Two traced runs of the free workload, with different case orders:
    every count is identical, traced certificates equal untraced ones, and
    the root spans cover each traced command's wall time."""
    runs = [run.run("free", seed, 0, 1, FROZEN) for seed in (1, 2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", ".cells_out", ".interior_verts"))}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sphere.free_structure.calls"] == 9
    assert counts[0]["eqcomplex.refine.calls"] > 0
    assert counts[0]["maps.compose.cells_out"] > 0


def test_benchmark_json_names_what_the_runner_reports():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    values = run.end_to_end("verify", wl.verify_steps(FROZEN), 0.1,
                            [run.Pass()], {"verify": 1.0})
    assert set(values) == set(run.metric_units(0))


def test_time_outside_the_root_span_is_reported():
    class LateTracer(Tracer):
        def root(self, stage, fn, *args):
            time.sleep(0.05)
            return super().root(stage, fn, *args)

    step = _step("disc-rotation-1-3", "verify", 0)
    for tracer, problems in ((Tracer(), 0), (LateTracer(), 1)):
        result = run.run_pass(_fake_cli(lambda argv: 0), [step],
                              random.Random(0), tracer)
        assert len(result.problems) == problems


def test_frozen_inputs_match_their_manifest():
    manifest = wl.check_inputs(FROZEN)
    assert manifest["seed"] == wl.FROZEN_SEED
    assert manifest["moves"] == wl.MOVES
