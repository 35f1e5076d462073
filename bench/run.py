"""plhomeo benchmark runner.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixed-point --seed 1 --seconds 40 --trace 0

It drives the real commands in-process through ``plhomeo.cli.main``
(``analyze --format json``, ``conjugate``, ``verify``), one process and
one thread, in a closed loop: one command after another, in passes over
the workload's cases.  ``--seed`` shuffles the case order of every pass;
the inputs themselves are the frozen files in ``bench/inputs`` (see
``workloads.py``), or a held-out set made with ``--input-seed N``.

With ``--trace 0`` it prints the end-to-end metrics of untraced passes;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (``tracer.py``), writing the spans
and a per-case size/time table to ``.bench_work/<workload>/trace.json``.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are normalised to the machine's speed.  On a shared VM the speed of
pure-Python code drifts by +-20 % within a minute, for every process
alike.  ``SpeedMeter`` times a fixed slice of exact arithmetic
(``reference_slice``) before each command and, from a SIGALRM handler,
every ``SAMPLE_PERIOD_S`` while it runs; a command's time, less the
slices inside it, is scaled by ``REFERENCE_S`` over the mean slice time
around it.  A time is thus in seconds at the speed at which one slice
takes ``REFERENCE_S``; raw wall times are printed beside them.

``python3 bench/run.py --freeze`` rewrites the frozen inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

import workloads as wl
from tracer import GROUPS, STAGES, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 7      # set-ups per run; setup_s is their median
MIN_PASSES = 3      # untraced passes per run, even past --seconds
# Median duration of one reference slice on the machine the benchmark was
# defined on: a shared 2-core x86-64 VM, CPython 3.11.7.
REFERENCE_S = 0.0048
SAMPLE_PERIOD_S = 0.2

# Largest part of a traced command's wall time, measured around the call,
# that may lie outside its root span ``cli.<stage>``.  The StringIO
# redirection and the call into the span take about 0.1 ms; the constant
# leaves room for a full garbage collection there, about 5 ms.
TRACE_GAP_SHARE = 0.01
TRACE_GAP_S = 0.02


class SetupError(Exception):
    """The checkout cannot be benchmarked: no program, or broken inputs."""


def metric_units(trace):
    """Names and units of the metrics a run reports, from BENCHMARK.json:
    the end-to-end ones, or with ``trace`` the per-layer ones."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# set-up


def import_plhomeo():
    """A fresh import of plhomeo from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "plhomeo", "cli.py")):
        raise SetupError(f"no plhomeo package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "plhomeo" or m.startswith("plhomeo.")]:
        del sys.modules[name]
    cli = importlib.import_module("plhomeo.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"plhomeo imported from {cli.__file__}")
    return cli


def load_inputs(cli, inputs_dir, steps):
    """Check the inputs against their manifest and parse every input file
    the steps read."""
    try:
        wl.check_inputs(inputs_dir)
    except (OSError, ValueError, RuntimeError) as exc:
        raise SetupError(f"inputs in {inputs_dir}: {exc}") from exc
    pio = cli.pio
    paths = {path for step in steps for path in step.argv[1:]
             if path.startswith(inputs_dir)}
    for path in sorted(paths):
        data = pio.load_json(path)
        if path.endswith(".cert.json"):
            pio.certificate_from_dict(data)
        else:
            pio.instance_from_dict(data)


def reference_slice():
    """Fixed pure-Python exact arithmetic, the kind of work plhomeo does:
    Fraction products and sums, gcds, dict updates.  The cyclic garbage
    collector is off meanwhile, so that the slice's time does not depend
    on how many objects the program has alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = Fraction(0)
        seen = {}
        for i in range(1, 400):
            a = Fraction(i, i + 7) * Fraction(3, 11) - Fraction(i % 13, 17)
            acc += a
            seen[(i % 97, a.denominator % 89)] = acc.numerator % 1000003
            if acc.denominator > 10 ** 12:
                acc = Fraction(acc.numerator % 1009, 13)
        return len(seen)
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Samples the machine's speed with reference slices.

    ``sample`` times one slice now; inside ``sampling()`` a SIGALRM timer
    adds one every SAMPLE_PERIOD_S.  ``normalise`` turns a timed interval
    into reference-speed seconds."""

    def __init__(self):
        self.samples = []         # (start, duration) of each slice
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_slice()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def sampling(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False

    def normalise(self, t0, t1):
        """Seconds of [t0, t1) outside reference slices, scaled by
        REFERENCE_S over the mean of the slices in it and of the last one
        before and the first one after it."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        before = [d for s, d in self.samples if s < t0][-1:]
        after = [d for s, d in self.samples if s >= t1][:1]
        around = before + inside + after
        return (t1 - t0 - sum(inside)) * REFERENCE_S * len(around) / sum(
            around)


def setup(workload, inputs_dir, work_dir):
    """Import and load SETUP_REPS times; returns (normalised median s,
    cli, steps)."""
    steps = wl.steps_for(workload, inputs_dir, work_dir)
    meter = SpeedMeter()
    spans = []
    for _ in range(SETUP_REPS):
        meter.sample()
        t0 = time.perf_counter()
        with meter.sampling():
            cli = import_plhomeo()
            load_inputs(cli, inputs_dir, steps)
        spans.append((t0, time.perf_counter()))
    meter.sample()
    return median([meter.normalise(*span) for span in spans]), cli, steps


# ---------------------------------------------------------------------------
# passes


def invoke(call, argv):
    """Run one command; returns (exit code or None, stdout, traceback).

    ``cli.main`` catches only PLHomeoError, so any other exception that
    escapes it is caught here, recorded and counted as a failed
    operation instead of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(list(argv))
    except (Exception, SystemExit):
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), None


def check_step(step, rc, stdout, tb):
    """None if the command did what the workload expects, else why not."""
    if tb is not None:
        return "exception escaped cli.main:\n" + tb
    if rc != step.expect_rc:
        return f"exit {rc}, expected {step.expect_rc}"
    if step.stage == "analyze":
        case = wl.case_by_id(step.case)
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"analyze printed no JSON: {stdout!r}"
        want = {"class": case.kind}
        if case.kind in ("rotation", "rotoreflection"):
            want.update(k=case.k, n=case.n)
        if any(got.get(key) != value for key, value in want.items()):
            return f"analyze reported {got}, generated {want}"
    return None


class Pass:
    """Normalised times and outputs of one pass through a workload's
    steps; ``raw_s`` is the wall time of its commands."""

    def __init__(self):
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.step_s = {}          # (case, stage) -> seconds
        self.raw_s = 0.0
        self.digest = {}          # (case, stage) -> (rc, stdout, cert hash)
        self.certs = {}           # case -> certificate bytes
        self.failures = []
        self.problems = []        # traced time outside the root spans

    @property
    def wall_s(self):
        return sum(self.stage_s.values())


def run_pass(cli, steps, rng, tracer=None):
    """One pass over the steps in a shuffled case order.  A traced pass
    samples the speed between commands only, so that no reference slice
    runs inside a span, and checks that the root span of each command
    covers the command's wall time up to TRACE_GAP_*."""
    by_case = {}
    for step in steps:
        by_case.setdefault(step.case, []).append(step)
    order = sorted(by_case)
    rng.shuffle(order)
    result = Pass()
    meter = SpeedMeter()
    spans = []
    for case in order:
        for step in by_case[case]:
            cert = step.argv[3] if step.stage == "conjugate" else None
            if cert is not None and os.path.exists(cert):
                os.remove(cert)
            if tracer is None:
                call, sampling = cli.main, meter.sampling()
            else:
                tracer.case = step.case
                call = functools.partial(tracer.root, step.stage, cli.main)
                sampling = contextlib.nullcontext()
            meter.sample()
            root = len(tracer.spans) if tracer is not None else None
            t0 = time.perf_counter()
            with sampling:
                rc, stdout, tb = invoke(call, step.argv)
            t1 = time.perf_counter()
            spans.append((step, t0, t1))
            if root is not None:
                _, s0, s1, *_ = tracer.spans[root]
                gap = (t1 - t0) - (s1 - s0)
                if gap > TRACE_GAP_S + TRACE_GAP_SHARE * (t1 - t0):
                    result.problems.append(
                        f"{step.case} {step.stage}: {gap:.6f} s of "
                        f"{t1 - t0:.6f} s outside the root span")
            why = check_step(step, rc, stdout, tb)
            if why is not None:
                result.failures.append(f"{step.case} {step.stage}: {why}")
            cert_hash = None
            if cert is not None and os.path.exists(cert):
                with open(cert, "rb") as fh:
                    result.certs[step.case] = fh.read()
                cert_hash = hashlib.sha256(
                    result.certs[step.case]).hexdigest()
            result.digest[(step.case, step.stage)] = (rc, stdout, cert_hash)
    meter.sample()
    for step, t0, t1 in spans:
        dt = meter.normalise(t0, t1)
        result.stage_s[step.stage] += dt
        result.step_s[(step.case, step.stage)] = dt
        result.raw_s += t1 - t0
    return result


# ---------------------------------------------------------------------------
# metrics


def _rat_bits(text):
    num, _, den = text.partition("/")
    return int(num).bit_length() + int(den or "1").bit_length()


def cert_sizes(blobs):
    """(cells of h, largest coordinate bit length, bytes) summed/maxed."""
    cells = bits = size = 0
    for blob in blobs:
        h = json.loads(blob)["h"]
        cells += len(h["triangles"])
        bits = max([bits] + [_rat_bits(x) for pt in h["vertices"] + h["images"]
                             for x in pt])
        size += len(blob)
    return cells, bits, size


def workload_certs(workload, steps, first):
    """The certificate files a pass produced or, for verify, read."""
    if workload != "verify":
        return [first.certs[c] for c in sorted(first.certs)]
    return [_read(step.argv[2]) for step in steps]


def layer_values(tracer, first, untraced, traced):
    """Per-layer metrics of the spans of the traced pass ``traced``, which
    start at index ``first``; times are scaled like the pass's."""
    scale = traced.wall_s / traced.raw_s
    values = {}
    modules = {}
    for group, s in tracer.aggregate(first).items():
        values[f"{group}.calls"] = s["calls"]
        values[f"{group}.self_s"] = s["self_s"] * scale
        values[f"{group}.total_s"] = s["total_s"] * scale
        size = GROUPS[group][2] if group in GROUPS else None
        if size and size[0] == "hit_ratio":
            values[f"{group}.hit_ratio"] = s["count"] / max(s["calls"], 1)
        elif size:
            values[f"{group}.{size[0]}"] = s["count"]
        module = group.split(".")[0]
        modules[module] = modules.get(module, 0.0) + values[
            f"{group}.self_s"]
    for module, self_s in modules.items():
        values[f"{module}.self_s"] = self_s
    for stage in STAGES:
        values[f"cli.{stage}.wall_s"] = values[f"cli.{stage}.total_s"]
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s - 1
    return values


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def case_rows(workload, steps, passes, inputs_dir):
    """Per case: cells of f and h, cert_bits, median seconds per stage."""
    rows = []
    first = passes[0]
    for case in sorted({s.case for s in steps}):
        base = case.split(".")[0]
        with open(wl.instance_path(inputs_dir, base)) as fh:
            cells_f = len(json.load(fh)["map"]["triangles"])
        if workload == "verify":
            blob = next(_read(s.argv[2]) for s in steps if s.case == case)
        else:
            blob = first.certs.get(case)
        cells_h, bits, _ = cert_sizes([blob]) if blob else (0, 0, 0)
        row = {"case": case, "cells_f": cells_f, "cells_h": cells_h,
               "cert_bits": bits}
        for stage in STAGES:
            ts = [p.step_s[(case, stage)] for p in passes
                  if (case, stage) in p.step_s]
            if ts:
                row[f"{stage}_s"] = median(ts)
        rows.append(row)
    return rows


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------


def measure(cli, steps, seed, seconds, tracer):
    """Passes until ``seconds`` are used up: untraced ones or, with a
    tracer, (untraced, traced) pairs.  Returns (untraced, traced, per-layer
    values of each traced pass)."""
    rng = random.Random(seed)
    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(cli, steps, rng))
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(cli, steps, rng, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append(layer_values(tracer, first, untraced[-1],
                                           traced[-1]))
        now = time.perf_counter()
        enough = len(untraced) >= (1 if tracer else MIN_PASSES)
        if enough and (now - start) + (now - t0) > seconds:
            return untraced, traced, layer_runs


def end_to_end(workload, steps, setup_s, untraced, stage_medians):
    cells, bits, size = cert_sizes(
        workload_certs(workload, steps, untraced[0]))
    return {
        "setup_s": setup_s,
        "pass_s": median([p.wall_s for p in untraced]),
        "verify_s": stage_medians["verify"],
        "cert_cells": cells, "cert_bits": bits, "cert_bytes": size,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, steps, untraced, layer_runs, inputs_dir, work_dir,
              tracer, seed, names):
    """Median per-layer values; prints the per-case table and writes the
    spans.  Returns (values, problems)."""
    problems = []
    counts = [{k: v for k, v in lv.items()
               if k.endswith((".calls", ".cells_out", ".interior_verts"))}
              for lv in layer_runs]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    values = {name: median([lv[name] for lv in layer_runs])
              for name in names}
    rows = case_rows(workload, steps, untraced, inputs_dir)
    print("  case | cells f | cells h | cert_bits | analyze_s | "
          "conjugate_s | verify_s")
    for r in rows:
        print("  " + " | ".join(
            [r["case"], str(r["cells_f"]), str(r["cells_h"]),
             str(r["cert_bits"])]
            + [f"{r[f'{s}_s']:.4f}" if f"{s}_s" in r else "-"
               for s in STAGES]))
    path = os.path.join(work_dir, "trace.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "cases": rows,
                   "per_layer": values, **tracer.dump()}, fh)
    print(f"  {len(tracer.spans)} spans written to {path}")
    return values, problems


def run(workload, seed, seconds, trace, inputs_dir):
    work_dir = os.path.join(WORK, workload)
    if os.path.isdir(work_dir):
        shutil.rmtree(work_dir)
    os.makedirs(work_dir)
    units = metric_units(trace)
    setup_s, cli, steps = setup(workload, inputs_dir, work_dir)
    tracer = Tracer() if trace else None
    untraced, traced, layer_runs = measure(cli, steps, seed, seconds, tracer)
    passes = untraced + traced
    failures = [f for p in passes for f in p.failures + p.problems]
    for i, p in enumerate(passes[1:], 1):
        if p.digest != passes[0].digest:
            kind = "traced" if i >= len(untraced) else "untraced"
            failures.append(f"{kind} pass {i} output differs from pass 0")
    attempted = sum(len(p.digest) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    print(f"{workload}: {len(untraced)} untraced passes, "
          f"{len(traced)} traced, {attempted} commands, {failed} failed")
    stage_medians = {}
    for stage in STAGES:
        q1, q2, q3 = quartiles([p.stage_s[stage] for p in untraced])
        stage_medians[stage] = q2
        print(f"  {stage}_s per pass: median {q2:.4f} s "
              f"(quartiles {q1:.4f} .. {q3:.4f})")
    print(f"  raw wall s per pass: median "
          f"{median([p.raw_s for p in untraced]):.4f}")

    if trace:
        values, bad = per_layer(workload, steps, untraced, layer_runs,
                                inputs_dir, work_dir, tracer, seed, units)
        failures += bad
    else:
        values = end_to_end(workload, steps, setup_s, untraced,
                            stage_medians)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for msg in failures[:20]:
        print(f"FAILURE {msg}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="shuffles the case order of each pass")
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--input-seed", type=int,
                   help="run on a fresh held-out input set generated with "
                        "this seed instead of the frozen inputs")
    p.add_argument("--freeze", action="store_true",
                   help="rewrite the frozen inputs and exit")
    args = p.parse_args(argv)
    try:
        if args.freeze:
            import_plhomeo()
            wl.write_inputs(wl.FROZEN_DIR, wl.FROZEN_SEED)
            print(f"wrote {wl.FROZEN_DIR}")
            return 0
        if args.workload is None:
            p.error("--workload is required")
        inputs_dir = wl.FROZEN_DIR
        if args.input_seed is not None:
            inputs_dir = os.path.join(WORK, f"inputs-seed{args.input_seed}")
            if not os.path.exists(os.path.join(inputs_dir, "manifest.json")):
                import_plhomeo()
                wl.write_inputs(inputs_dir, args.input_seed)
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     inputs_dir)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
