"""Workload definitions and their input files.

Every workload reads frozen input files from ``bench/inputs``: instances
made once with the public generator, and the certificates of the
``verify`` workload.  Regenerating them at every run would measure a
different input whenever a change alters ``maps.compose``, because the
cells of ``f = h o r o h^-1`` depend on it.  ``write_inputs`` makes the
frozen set (``python3 bench/run.py --freeze``) and, with another seed, a
fresh held-out set (``--input-seed N``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

FROZEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "inputs")
FROZEN_SEED = 1
# Scramble moves per instance, unless a case names its own.  Three keep a
# pass over any workload to a few seconds; ten cost up to 1.75 times as
# much per case.
MOVES = 3


@dataclass(frozen=True)
class Case:
    space: str
    kind: str
    k: int
    n: int
    moves: int = MOVES

    @property
    def id(self) -> str:
        base = f"{self.space}-{self.kind}-{self.k}-{self.n}"
        return base if self.moves == MOVES else f"{base}-m{self.moves}"


FIXED_POINT = (
    Case("disc", "rotation", 1, 3),
    Case("disc", "reflection", 0, 2),
    Case("sphere", "rotation", 1, 3),
    Case("sphere", "reflection", 0, 2),
)
FREE = (
    Case("sphere", "rotoreflection", 1, 4),
    Case("sphere", "rotoreflection", 1, 2),
    # with generator seed 1 and 10 moves, the embedding of this instance
    # fails at first, so the refine-and-retry loop runs (3 refinements)
    Case("sphere", "rotoreflection", 1, 2, 10),
)
# (case whose certificate is tampered with, how) for the verify workload
TAMPERED = (
    ("disc-rotation-1-3", "k-changed"),
    ("sphere-rotation-1-3", "vertex-moved"),
)
# how `verify` must report each tampering: a full check that finds a
# disagreement, or validate_homeo rejecting h before any composition
REJECTION = {"k-changed": "certificate REJECTED",
             "vertex-moved": "certificate invalid"}
CONSTRUCTION = {"fixed-point": FIXED_POINT, "free": FREE}
WORKLOADS = ("fixed-point", "free", "verify")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload and what it must return."""
    case: str
    stage: str           # analyze | conjugate | verify
    argv: tuple
    expect_rc: int


def instance_path(inputs_dir, case_id):
    return os.path.join(inputs_dir, f"{case_id}.json")


def cert_path(inputs_dir, case_id, tamper=None):
    suffix = f".{tamper}" if tamper else ""
    return os.path.join(inputs_dir, f"{case_id}{suffix}.cert.json")


def construction_steps(cases, inputs_dir, work_dir):
    """analyze -> conjugate -> verify for each case."""
    out = []
    for c in cases:
        inst = instance_path(inputs_dir, c.id)
        cert = os.path.join(work_dir, f"{c.id}.cert.json")
        out.append(Step(c.id, "analyze",
                        ("analyze", "--format", "json", inst), 0))
        out.append(Step(c.id, "conjugate", ("conjugate", inst, "--out", cert),
                        0))
        out.append(Step(c.id, "verify", ("verify", inst, cert), 0))
    return out


def verify_steps(inputs_dir):
    """verify over every intact certificate, then the tampered ones."""
    out = []
    for c in FIXED_POINT + FREE:
        out.append(Step(c.id, "verify", ("verify", instance_path(
            inputs_dir, c.id), cert_path(inputs_dir, c.id)), 0))
    for case_id, tamper in TAMPERED:
        out.append(Step(f"{case_id}.{tamper}", "verify", (
            "verify", instance_path(inputs_dir, case_id),
            cert_path(inputs_dir, case_id, tamper)), 1))
    return out


def steps_for(workload, inputs_dir, work_dir):
    if workload == "verify":
        return verify_steps(inputs_dir)
    return construction_steps(CONSTRUCTION[workload], inputs_dir, work_dir)


def case_by_id(case_id):
    return {c.id: c for c in FIXED_POINT + FREE}[case_id]


# ---------------------------------------------------------------------------
# writing the input files


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def tamper_k(cert: dict) -> dict:
    """Claim the other rotation class k' = n - k: a full check rejects it."""
    model = cert["model"]
    model["k"] = model["n"] - model["k"]
    return cert


def tamper_vertex(cert: dict) -> dict:
    """Move the image of one north-pole chart vertex off the pole, which
    breaks the collapse condition that validate_homeo checks."""
    h = cert["h"]
    vi = next(i for i, (_, s) in enumerate(h["vertices"]) if s == "1/1")
    h["images"][vi] = ["0/1", "1/2"]
    return cert


TAMPERS = {"k-changed": tamper_k, "vertex-moved": tamper_vertex}


def write_inputs(out_dir, seed):
    """Generate every case with `seed`, certify it, and tamper copies.

    Returns the manifest, which is also written to ``manifest.json``."""
    from plhomeo import cli
    from plhomeo import io as pio
    from plhomeo.generate import make_instance

    os.makedirs(out_dir, exist_ok=True)
    files = []
    for c in FIXED_POINT + FREE:
        f, _, _ = make_instance(c.space, c.kind, c.k, c.n, seed, c.moves)
        inst = instance_path(out_dir, c.id)
        pio.save_json(inst, pio.instance_to_dict(c.space, f))
        cert = cert_path(out_dir, c.id)
        rc, _ = _call(cli, ("conjugate", inst, "--out", cert))
        if rc != 0:
            raise RuntimeError(f"conjugate failed on {c.id} (exit {rc})")
        files += [inst, cert]
    for case_id, tamper in TAMPERED:
        with open(cert_path(out_dir, case_id)) as fh:
            data = TAMPERS[tamper](json.load(fh))
        path = cert_path(out_dir, case_id, tamper)
        pio.save_json(path, data)
        rc, text = _call(cli, ("verify", instance_path(out_dir, case_id),
                               path))
        if rc != 1 or not text.startswith(REJECTION[tamper]):
            raise RuntimeError(f"tampered {case_id}.{tamper} not rejected "
                               f"as {REJECTION[tamper]!r}: {text!r}")
        files.append(path)
    manifest = {
        "seed": seed, "moves": MOVES,
        "sha256": {os.path.basename(p): _sha256(p) for p in files},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def check_inputs(inputs_dir):
    """Raise unless every input file is present and unchanged."""
    with open(os.path.join(inputs_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for name, digest in manifest["sha256"].items():
        if _sha256(os.path.join(inputs_dir, name)) != digest:
            raise RuntimeError(f"input file {name} differs from its manifest")
    return manifest
