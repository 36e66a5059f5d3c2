"""The four benchmark workloads: timed phase plus output checks.

Each workload function runs inside a fresh child process (see ``rep.py``)
after ``import repro``.  It receives its size parameters (``spec``), the
run's seed and a :class:`Clock`; it returns the number of work items it
processed and a list of checked ops ``(name, ok, detail)``.  Work done
inside ``clock.untimed()`` (the output checks) is excluded from every
timing and from the trace.

All workloads run in-process with ``jobs=1``: no pool and no extra threads.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Seed of the fixed-seed reference ops, whose counts are recorded in
#: ``expected.json``; independent of the run's ``--seed``.
REF_SEED = 20231112

#: Two-sided z of the binomial bounds.  Each run makes a few thousand
#: marginal comparisons; at z = 6 a false alarm is ~2e-9 per comparison.
Z_BOUND = 6.0
#: z of the Wilson intervals whose overlap compares the two engines' LERs.
Z_OVERLAP = 4.0

SPECS = {
    "lfr_decode": {
        "d": 7, "rounds": 21, "noise": "near_term", "shots": 10000, "max_batch": 2000,
        "marginal_shots": 2000, "check_shots": 1000,
    },
    "lfr_sweep_cold": {
        "distances": [5, 7, 9, 11], "noise": "near_term", "shots": 1000,
        "check_d": 5, "check_shots": 1000,
    },
    "compile_surgery": {"distances": [7, 9, 11]},
    "tableau_replay": {
        "d": 5, "rounds": 5, "noise": "near_term", "shots": 1000,
        "frame_shots": 10000, "check_shots": 200,
    },
}

#: Small sizes for the benchmark's self-test; recorded in ``expected.json`` too.
TINY_SPECS = {
    "lfr_decode": {
        "d": 3, "rounds": 3, "noise": "near_term", "shots": 300, "max_batch": 100,
        "marginal_shots": 300, "check_shots": 100,
    },
    "lfr_sweep_cold": {
        "distances": [3, 5], "noise": "near_term", "shots": 100, "check_d": 3, "check_shots": 100,
    },
    "compile_surgery": {"distances": [3]},
    "tableau_replay": {
        "d": 3, "rounds": 3, "noise": "near_term", "shots": 100,
        "frame_shots": 1000, "check_shots": 50,
    },
}

#: The function whose first call ends set-up, per workload: the first shot
#: sampled, or the first program compiled.
FIRST_WORK = {
    "lfr_decode": ("repro.sim.frame", "FrameSampler.sample"),
    "lfr_sweep_cold": ("repro.sim.frame", "FrameSampler.sample"),
    "compile_surgery": ("repro.core.compiler", "TISCC.compile"),
    "tableau_replay": ("repro.core.compiler", "TISCC.simulate_shots"),
}


class Clock:
    """Accumulates the seconds spent in :meth:`untimed` blocks."""

    def __init__(self, tracer=None):
        self.excluded = 0.0
        self._tracer = tracer

    @contextmanager
    def untimed(self):
        if self._tracer is not None:
            self._tracer.enabled = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0
            if self._tracer is not None:
                self._tracer.enabled = True


# ----------------------------------------------------------------- checks
def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion ``k / n``."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return centre - half, centre + half


def rate_within(k: int, n: int, p: float, z: float = Z_BOUND) -> bool:
    lo, hi = wilson(k, n, z)
    return lo <= p <= hi


def marginals_op(name: str, detectors: np.ndarray, rates: np.ndarray) -> tuple:
    """Every sampled detector marginal lies within a binomial bound of its DEM rate."""
    n = detectors.shape[0]
    counts = detectors.sum(axis=0, dtype=np.int64)
    bad = [d for d, (k, p) in enumerate(zip(counts.tolist(), rates.tolist()))
           if not rate_within(k, n, p)]
    return (name, not bad, f"{len(bad)} of {len(counts)} detectors outside the bound")


def raw_flips_op(name: str, report, dem) -> tuple:
    """Raw (undecoded) flips agree with the DEM's analytic observable rate."""
    p = float(dem.observable_rates()[0])
    ok = rate_within(report.raw_failures, report.n_shots, p)
    return (name, ok, f"{report.raw_failures}/{report.n_shots} raw flips, analytic {p:.5f}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def equals_recorded(name: str, key: str, observed, expected: dict) -> tuple:
    """``observed`` equals the value recorded under ``key`` (JSON-normalised)."""
    if key not in expected:
        return (name, False, f"no recorded value for {key!r}")
    ok = json.loads(json.dumps(observed)) == expected[key]
    return (name, ok, "" if ok else f"{observed!r} != recorded {expected[key]!r}")


def memory_key(engine: str, d: int, rounds, noise: str, shots: int) -> str:
    return f"memory {engine} d={d} rounds={rounds} {noise} shots={shots} seed={REF_SEED}"


def frame_reference(d: int, rounds, noise: str, shots: int) -> dict:
    """Fixed-seed frame-engine counts of one memory cell."""
    from repro import MemoryExperiment, NoiseModel

    exp = MemoryExperiment(distance=d, rounds=rounds)
    rep = exp.run(shots, noise=NoiseModel.preset(noise), seed=REF_SEED, engine="frame")
    return {"failures": rep.failures, "raw_failures": rep.raw_failures}


def tableau_reference(d: int, rounds, noise: str, shots: int):
    """Fixed-seed tableau-engine counts of one memory cell, and its syndromes."""
    from repro import MemoryExperiment, NoiseModel

    model = NoiseModel.preset(noise)
    exp = MemoryExperiment(distance=d, rounds=rounds)
    batch = exp.sample(shots, noise=model, seed=REF_SEED)
    syndromes = exp.syndromes(batch)
    raw = exp.measured_flips(batch)
    failures = raw ^ exp.decoder_for(model).decode_batch(syndromes)
    counts = {"failures": int(failures.sum()), "raw_failures": int(raw.sum())}
    return counts, syndromes, exp.detector_error_model(model)


def compile_key(d: int, simd: bool) -> str:
    return f"cnot d={d} simd={int(simd)}"


def compile_cnot(d: int, simd: bool):
    from repro import TISCC
    from repro.core.router import lattice_surgery_cnot_program

    compiler = TISCC(dx=d, dz=d, tile_rows=2, tile_cols=2)
    return compiler.compile(lattice_surgery_cnot_program(), operation="CNOT", simd=simd)


def compile_record(compiled) -> dict:
    report = compiled.simd_report
    return {
        "resources": compiled.resources.to_dict(),
        "beam_passes": None if report is None else report.beam_passes,
    }


def per_site_sequence(circuit) -> tuple[np.ndarray, ...]:
    """Each site's (gate, duration, label) rows in schedule order, site-major."""
    cols = circuit.sorted_columns()
    rows = np.arange(cols.n)
    two = cols.nsites >= 2
    site = np.concatenate([cols.site0, cols.site1[two]])
    row = np.concatenate([rows, rows[two]])
    order = np.lexsort((row, site))
    site, row = site[order], row[order]
    labels = np.full(cols.n, "", dtype=object)
    for i, label in cols.labels.items():
        labels[i] = label
    return site, cols.codes[row], cols.duration[row], labels[row]


def compile_ops(d: int, simd: bool, compiled, expected: dict) -> list[tuple]:
    tag = f"d={d} simd={int(simd)}"
    validity = compiled.validity
    ops = [(
        f"check_circuit {tag}",
        validity is not None and validity.n_instructions == len(compiled.circuit),
        "",
    )]
    if simd:
        before = per_site_sequence(compiled.unscheduled_circuit)
        after = per_site_sequence(compiled.circuit)
        same = all(np.array_equal(a, b) for a, b in zip(before, after))
        ops.append((f"simd keeps per-site order {tag}", same, ""))
    ops.append(equals_recorded(
        f"resources {tag}", compile_key(d, simd), compile_record(compiled), expected
    ))
    return ops


# -------------------------------------------------------------- workloads
def lfr_decode(spec: dict, seed: int, clock: Clock, expected: dict):
    """d=7 Z memory over 21 rounds: set-up, then a chunked frame-engine run."""
    from repro import MemoryExperiment, NoiseModel

    noise = NoiseModel.preset(spec["noise"])
    exp = MemoryExperiment(distance=spec["d"], rounds=spec["rounds"])
    report = exp.run(
        spec["shots"], noise=noise, seed=seed, engine="frame", max_batch=spec["max_batch"]
    )
    with clock.untimed():
        dem = exp.detector_error_model(noise)
        samples = exp.sample_frame(spec["marginal_shots"], noise=noise, seed=seed)
        ops = [
            raw_flips_op("run raw flips", report, dem),
            marginals_op("frame detector marginals", samples.detectors, dem.detection_rates()),
            equals_recorded(
                "fixed-seed counts",
                memory_key("frame", spec["d"], spec["rounds"], spec["noise"], spec["check_shots"]),
                frame_reference(spec["d"], spec["rounds"], spec["noise"], spec["check_shots"]),
                expected,
            ),
        ]
    return spec["shots"], ops


def lfr_sweep_cold(spec: dict, seed: int, clock: Clock, expected: dict):
    """logical_error_sweep over distances, rounds=d, into a fresh checkpoint."""
    from repro import MemoryExperiment, NoiseModel, logical_error_sweep
    from repro.estimator.cache import ResultCache

    noise = NoiseModel.preset(spec["noise"])
    checkpoint = Path(".perfbench") / f"checkpoint-{os.getpid()}"
    try:
        reports = logical_error_sweep(
            spec["distances"], noise_models=[noise], shots=spec["shots"], seed=seed,
            checkpoint=str(checkpoint),
        )
        with clock.untimed():
            ops = [
                raw_flips_op(
                    f"sweep d={r.dx} raw flips", r,
                    MemoryExperiment(distance=r.dx).detector_error_model(noise),
                )
                for r in reports
            ]
            cache = ResultCache(checkpoint)
            stored = {
                p["dx"]: (p["failures"], p["raw_failures"])
                for p in (cache.get(k) for k in cache.keys())
                if p is not None
            }
            swept = {r.dx: (r.failures, r.raw_failures) for r in reports}
            ops.append((
                "checkpoint holds every cell",
                stored == swept,
                f"stored {stored}, swept {swept}",
            ))
            ops.append(equals_recorded(
                "fixed-seed counts",
                memory_key("frame", spec["check_d"], None, spec["noise"], spec["check_shots"]),
                frame_reference(spec["check_d"], None, spec["noise"], spec["check_shots"]),
                expected,
            ))
    finally:
        with clock.untimed():
            shutil.rmtree(checkpoint, ignore_errors=True)
    return spec["shots"] * len(reports), ops


def compile_surgery(spec: dict, seed: int, clock: Clock, expected: dict):
    """Lattice-surgery CNOT on 2x2 tiles, SIMD off and on, validated and estimated."""
    legs = [(d, simd) for d in spec["distances"] for simd in (False, True)]
    random.Random(seed).shuffle(legs)
    instructions = 0
    ops: list[tuple] = []
    for d, simd in legs:
        compiled = compile_cnot(d, simd)
        with clock.untimed():
            instructions += len(compiled.circuit)
            ops.extend(compile_ops(d, simd, compiled, expected))
            del compiled
    return instructions, ops


def tableau_replay(spec: dict, seed: int, clock: Clock, expected: dict):
    """d=5 Z memory replayed shot-batched on the packed tableau engine."""
    from repro import MemoryExperiment, NoiseModel

    noise = NoiseModel.preset(spec["noise"])
    exp = MemoryExperiment(distance=spec["d"], rounds=spec["rounds"])
    report = exp.run(spec["shots"], noise=noise, seed=seed, engine="tableau")
    with clock.untimed():
        frame = exp.run(spec["frame_shots"], noise=noise, seed=seed, engine="frame")
        lo_t, hi_t = wilson(report.failures, report.n_shots, Z_OVERLAP)
        lo_f, hi_f = wilson(frame.failures, frame.n_shots, Z_OVERLAP)
        counts, syndromes, dem = tableau_reference(
            spec["d"], spec["rounds"], spec["noise"], spec["check_shots"]
        )
        ops = [
            raw_flips_op("tableau raw flips", report, dem),
            (
                "tableau LER interval overlaps frame",
                lo_t <= hi_f and lo_f <= hi_t,
                f"tableau {report.failures}/{report.n_shots}, "
                f"frame {frame.failures}/{frame.n_shots}",
            ),
            marginals_op("tableau detector marginals", syndromes, dem.detection_rates()),
            equals_recorded(
                "fixed-seed counts",
                memory_key(
                    "tableau", spec["d"], spec["rounds"], spec["noise"], spec["check_shots"]
                ),
                counts,
                expected,
            ),
        ]
    return spec["shots"], ops


WORKLOADS = {
    "lfr_decode": lfr_decode,
    "lfr_sweep_cold": lfr_sweep_cold,
    "compile_surgery": compile_surgery,
    "tableau_replay": tableau_replay,
}


def record(specs: dict) -> dict:
    """The fixed-seed values the checks compare against, for ``specs``."""
    out = {}
    s = specs["lfr_decode"]
    out[memory_key("frame", s["d"], s["rounds"], s["noise"], s["check_shots"])] = (
        frame_reference(s["d"], s["rounds"], s["noise"], s["check_shots"])
    )
    s = specs["lfr_sweep_cold"]
    out[memory_key("frame", s["check_d"], None, s["noise"], s["check_shots"])] = (
        frame_reference(s["check_d"], None, s["noise"], s["check_shots"])
    )
    for d in specs["compile_surgery"]["distances"]:
        for simd in (False, True):
            out[compile_key(d, simd)] = compile_record(compile_cnot(d, simd))
    s = specs["tableau_replay"]
    out[memory_key("tableau", s["d"], s["rounds"], s["noise"], s["check_shots"])] = (
        tableau_reference(s["d"], s["rounds"], s["noise"], s["check_shots"])[0]
    )
    return out
