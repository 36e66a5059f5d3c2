"""In-memory spans around calls into repro's layers, recorded from outside ``src/``.

The benchmark never edits the program to time it.  Instead, :class:`Tracer`
replaces a public layer function (or method) with a thin wrapper that
records a span: name, start, end and the index of the enclosing span.  A
module-level function is replaced in every loaded ``repro`` module that
holds a reference to it, so ``from x import f`` call sites are covered too.

Self time of a span is its duration minus the durations of its direct
children; summed per span name it is the per-layer time.  Spans stay in
memory and are written out by the parent process at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

#: (module, qualified name, span name).  Each span name ``x`` reports the
#: per-layer metric ``x_s`` (its summed self time), except where
#: :data:`METRIC_OF_SPAN` says otherwise.  A workload that never enters a
#: layer reports 0 for it.
LAYER_SPANS = [
    ("repro.core.compiler", "TISCC.compile", "core.compile"),
    ("repro.hardware.simd", "simd_schedule", "hardware.simd"),
    ("repro.hardware.validity", "check_circuit", "hardware.validity"),
    ("repro.hardware.resources", "estimate_resources", "hardware.resources"),
    ("repro.sim.dem", "extract_fault_table", "sim.dem.fault_table"),
    # The periodic path's one full walk happens while building the template.
    ("repro.sim.dem", "make_periodic_template", "sim.dem.fault_table"),
    ("repro.sim.dem", "build_dem", "sim.dem.build_dem"),
    ("repro.sim.frame", "FrameSampler.__init__", "sim.frame.init"),
    ("repro.sim.frame", "FrameSampler.sample", "sim.frame.sample"),
    ("repro.core.compiler", "TISCC.simulate_shots", "sim.batch.replay"),
    ("repro.decode.graph", "build_dem_graph", "decode.graph"),
    ("repro.decode.memory", "MemoryExperiment.__init__", "decode.experiment_init"),
    ("repro.decode.memory", "MemoryExperiment.decoder_for", "decode.decoder_build"),
    ("repro.decode.memory", "MemoryExperiment.syndromes", "decode.syndromes"),
    ("repro.estimator.jobs", "run_cells", "estimator.run_cells"),
    ("repro.estimator.cache", "ResultCache.put", "estimator.cache_put"),
]

#: Every registered decoder class that defines ``decode_batch`` gets a
#: ``decode.decode`` span (see :meth:`Tracer.install`).
DECODE_SPAN = "decode.decode"

METRIC_OF_SPAN = {"estimator.run_cells": "estimator.run_cells_self_s"}

#: Counters filled by the span hooks below, reported as-is.
COUNTERS = [
    "core.instructions",
    "hardware.beam_passes",
    "sim.dem.tables",
    "sim.dem.periodic_tables",
    "decode.shots",
    "decode.nontrivial",
    "decode.distinct",
    "estimator.cells_executed",
]


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner_path, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    return module, owner, attr


def replace(module_name: str, qualname: str, make_wrapper) -> None:
    """Swap a repro function or method for ``make_wrapper(original)``."""
    module, owner, attr = _resolve(module_name, qualname)
    if owner is not module:
        setattr(owner, attr, make_wrapper(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class FirstCall:
    """Records the ``time.monotonic()`` of the first call to one function.

    ``time.monotonic`` is ``CLOCK_MONOTONIC`` on Linux, a system-wide clock,
    so the parent's spawn time and this stamp can be subtracted.
    """

    def __init__(self, module_name: str, qualname: str):
        self.t: float | None = None

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.t is None:
                    self.t = time.monotonic()
                return fn(*args, **kwargs)

            return wrapper

        replace(module_name, qualname, make)


class Tracer:
    """Nested spans and counters, kept in memory."""

    def __init__(self):
        #: ``[name, start_ns, end_ns, parent_index]``; parent -1 is a root.
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.enabled = True
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0, 0, parent])
            self._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
            if after is not None:
                after(self, parent, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point in :data:`LAYER_SPANS` and the decoders."""
        from repro.decode.base import available_decoders, decoder_class

        hooks = {
            "TISCC.compile": _after_compile,
            "simd_schedule": _after_simd,
            "extract_fault_table": _after_fault_table,
        }
        for module_name, qualname, name in LAYER_SPANS:
            replace(
                module_name,
                qualname,
                lambda fn, name=name, hook=hooks.get(qualname): self._wrap(fn, name, hook),
            )
        classes = {decoder_class(n) for n in available_decoders()}
        for cls in classes:
            if "decode_batch" in cls.__dict__:
                cls.decode_batch = self._wrap(
                    cls.__dict__["decode_batch"], DECODE_SPAN, _after_decode
                )
        # execute_cell is counted, not spanned: its own time is glue.
        replace(
            "repro.estimator.jobs",
            "execute_cell",
            lambda fn: _counting(fn, self, "estimator.cells_executed"),
        )

    def parent_name(self, parent: int) -> str | None:
        return self.spans[parent][0] if parent >= 0 else None

    def self_times(self) -> dict[str, float]:
        """Summed self time (seconds) per span name."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0 - child[i]) / 1e9
        return out

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0) / 1e9

    def metrics(self, wall_s: float, import_s: float, visited: int) -> dict:
        """Per-layer metrics of one traced repetition (0 for layers never entered)."""
        self_s = self.self_times()
        names = dict.fromkeys([name for _, _, name in LAYER_SPANS] + [DECODE_SPAN])
        out = {METRIC_OF_SPAN.get(n, n + "_s"): self_s.get(n, 0.0) for n in names}
        c = self.counts
        out.update({
            "import_s": import_s,
            "unattributed_s": wall_s - self.root_seconds(),
            "core.instructions": c["core.instructions"],
            "hardware.beam_passes": c["hardware.beam_passes"],
            "sim.dem.instructions_visited": visited,
            "sim.dem.periodic_frac": c["sim.dem.periodic_tables"] / max(c["sim.dem.tables"], 1),
            "decode.shots_per_s": (
                c["decode.shots"] / out["decode.decode_s"] if c["decode.shots"] else 0.0
            ),
            "decode.nontrivial_frac": c["decode.nontrivial"] / max(c["decode.shots"], 1),
            "decode.distinct_frac": c["decode.distinct"] / max(c["decode.nontrivial"], 1),
            "estimator.cells_executed": c["estimator.cells_executed"],
        })
        return out


def _counting(fn, tracer: Tracer, counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _after_compile(tracer: Tracer, parent, args, compiled) -> None:
    tracer.counts["core.instructions"] += len(compiled.circuit)


def _after_simd(tracer: Tracer, parent, args, out) -> None:
    tracer.counts["hardware.beam_passes"] += out[1].beam_passes


def _after_fault_table(tracer: Tracer, parent, args, table) -> None:
    tracer.counts["sim.dem.tables"] += 1
    tracer.counts["sim.dem.periodic_tables"] += table.method == "periodic"


def _after_decode(tracer: Tracer, parent, args, out) -> None:
    if tracer.parent_name(parent) == DECODE_SPAN:
        return  # a decoder delegating to its base class: count the shots once
    syndromes = np.asarray(args[1])
    nontrivial = syndromes[syndromes.sum(axis=1, dtype=np.int64) >= 2]
    tracer.counts["decode.shots"] += len(syndromes)
    tracer.counts["decode.nontrivial"] += len(nontrivial)
    if len(nontrivial):
        packed = np.ascontiguousarray(np.packbits(nontrivial, axis=1))
        rows = packed.view(np.dtype((np.void, packed.shape[1])))
        tracer.counts["decode.distinct"] += len(np.unique(rows))
