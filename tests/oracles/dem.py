"""Forward-walk fault-table oracle and loop-form DEM rate oracles.

:func:`forward_fault_table` is the original extraction algorithm: one walk
over the instruction stream that carries a bit-packed Pauli frame per
*fault site* (one bit lane per site), injecting each fault at its location
and recording which measurement outcomes it flips, then XOR-projecting
those flips onto detectors and observables.  ``repro.sim.dem`` now walks
the circuit backward over *detector* lanes instead; both must produce the
same sites, footprints and observable masks.
"""

from __future__ import annotations

import numpy as np

from repro.sim.dem import (
    DemExtractionError,
    DetectorErrorModel,
    FaultSite,
    FaultTable,
    build_dem,
    enumerate_fault_sites,
)
from repro.sim.gates import NON_CLIFFORD_GATES
from repro.sim.interpreter import apply_load, apply_move, init_run_state, resolve_qubits
from repro.sim.noise import NoiseParams
from repro.sim.packed import unpack_bits

# Pauli-frame conjugation rules for the native Clifford gate set (signs are
# irrelevant to detector footprints, so only the x/z bit flow matters).
_FRAME_PHASE = frozenset({"Z_pi/4", "Z_-pi/4"})  # X -> +/-Y: z ^= x
_FRAME_SQRT_X = frozenset({"X_pi/4", "X_-pi/4"})  # Z -> +/-Y: x ^= z
_FRAME_SWAP = frozenset({"Y_pi/4", "Y_-pi/4"})  # X <-> +/-Z: swap x, z
_FRAME_PAULI = frozenset({"X_pi/2", "Y_pi/2", "Z_pi/2"})  # commute up to phase


def propagate_frames(
    circuit, initial_occupancy: dict[int, int], sites: list[FaultSite]
) -> dict[str, np.ndarray]:
    """Conjugate every fault site through the remaining Clifford schedule.

    One walk over the instruction stream with a bit-packed Pauli frame per
    site (``(n_qubits, ceil(n_sites/64))`` x/z planes, one bit lane per
    site): faults are injected at their location, gates transform all lanes
    at once via the x/z conjugation rules, preparations clear the target
    qubit's lanes, and measurements record the X plane of the measured
    qubit — the lanes whose faults flip that outcome label.

    Returns ``label -> (W,) uint64`` flip columns over the site axis.
    """
    n_sites = len(sites)
    words = max(1, -(-n_sites // 64))
    occupancy, ion_index, n_qubits = init_run_state(circuit, initial_occupancy)
    x = np.zeros((n_qubits, words), dtype=np.uint64)
    z = np.zeros((n_qubits, words), dtype=np.uint64)
    label_flips: dict[str, np.ndarray] = {}

    pending: dict[tuple[int, str], list[tuple[int, FaultSite]]] = {}
    for s, site in enumerate(sites):
        pending.setdefault((site.index, site.when), []).append((s, site))

    def inject(s: int, site: FaultSite) -> None:
        w, sh = divmod(s, 64)
        bit = np.uint64(1) << np.uint64(sh)
        for q, letter in site.pauli:
            if letter in ("X", "Y"):
                x[q, w] ^= bit
            if letter in ("Z", "Y"):
                z[q, w] ^= bit

    cols = circuit.sorted_columns()
    names, qsites, labels = cols.names, cols.sites, cols.labels
    for idx in range(cols.n):
        name = names[idx]
        qubits = resolve_qubits(name, qsites[idx], occupancy, ion_index)
        for s, site in pending.get((idx, "before"), ()):
            inject(s, site)

        if name == "Load":
            apply_load(qsites[idx][0], occupancy, ion_index, n_qubits)
        elif name == "Move":
            apply_move(qsites[idx][0], qsites[idx][1], occupancy)
        elif name == "Prepare_Z":
            q = qubits[0]
            x[q] = 0
            z[q] = 0
        elif name == "Measure_Z":
            label_flips[labels.get(idx) or f"m?{idx}"] = x[qubits[0]].copy()
        elif name in _FRAME_PHASE:
            q = qubits[0]
            z[q] ^= x[q]
        elif name in _FRAME_SQRT_X:
            q = qubits[0]
            x[q] ^= z[q]
        elif name in _FRAME_SWAP:
            q = qubits[0]
            t = x[q].copy()
            x[q] = z[q]
            z[q] = t
        elif name in _FRAME_PAULI:
            pass
        elif name == "ZZ":
            a, b = qubits
            t = x[a] ^ x[b]
            z[a] ^= t
            z[b] ^= t
        elif name in NON_CLIFFORD_GATES:
            raise DemExtractionError(
                f"{name} is non-Clifford: its per-shot quasi-Clifford substitutes "
                "have no fixed fault footprint, so no detector error model exists"
            )
        else:
            raise DemExtractionError(f"unknown instruction {name!r} in DEM extraction")

        for s, site in pending.get((idx, "after"), ()):
            inject(s, site)
        for s, site in pending.get((idx, "record"), ()):
            w, sh = divmod(s, 64)
            assert site.label is not None
            label_flips[site.label][w] ^= np.uint64(1) << np.uint64(sh)

    return label_flips


def _xor_columns(label_flips: dict[str, np.ndarray], labels: list[str], words: int) -> np.ndarray:
    col = np.zeros(words, dtype=np.uint64)
    for lab in labels:
        try:
            col ^= label_flips[lab]
        except KeyError:
            raise ValueError(f"detector references unknown measurement label {lab!r}") from None
    return col


def project(
    sites: list[FaultSite],
    label_flips: dict[str, np.ndarray],
    detectors: list[list[str]],
    observables: list[list[str]],
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Project per-site flip columns onto detector footprints + obs masks."""
    n_sites = len(sites)
    words = max(1, -(-n_sites // 64))

    footprints: list[list[int]] = [[] for _ in range(n_sites)]
    for d, labels in enumerate(detectors):
        col = _xor_columns(label_flips, labels, words)
        for s in np.nonzero(unpack_bits(col, n_sites))[0] if n_sites else ():
            footprints[s].append(d)
    obs_mask = np.zeros(n_sites, dtype=np.uint64)
    for o, labels in enumerate(observables):
        col = _xor_columns(label_flips, labels, words)
        if n_sites:
            obs_mask[np.nonzero(unpack_bits(col, n_sites))[0]] |= np.uint64(1 << o)
    return [tuple(fp) for fp in footprints], obs_mask


def forward_fault_table(
    circuit,
    initial_occupancy: dict[int, int],
    params: NoiseParams,
    detectors: list[list[str]],
    observables: list[list[str]],
) -> FaultTable:
    """The full forward walk: enumerate, propagate site lanes, project."""
    sites = enumerate_fault_sites(circuit, initial_occupancy, params)
    label_flips = propagate_frames(circuit, initial_occupancy, sites)
    footprints, obs_mask = project(sites, label_flips, detectors, observables)
    return FaultTable(
        sites=sites,
        footprints=footprints,
        observables=obs_mask,
        n_detectors=len(detectors),
        n_observables=len(observables),
    )


def experiment_fault_table(exp, noise) -> FaultTable:
    """:func:`forward_fault_table` of a ``MemoryExperiment`` under ``noise``."""
    return forward_fault_table(
        exp.compiled.circuit,
        exp.compiled.initial_occupancy,
        noise.params,
        exp.detector_labels,
        [exp.observable_labels],
    )


def assert_matches_forward_walk(
    table: FaultTable, oracle: FaultTable, params: NoiseParams
) -> None:
    """Sites, footprints, observable masks and the DEM equal the forward walk's.

    The DEMs of both tables under ``params`` must agree to the float64
    probability bit.
    """
    assert table.n_detectors == oracle.n_detectors
    assert table.sites == oracle.sites
    assert table.footprints == oracle.footprints
    assert np.array_equal(table.observables, oracle.observables)
    dem, ref = build_dem(table, params), build_dem(oracle, params)
    assert np.array_equal(dem.probs, ref.probs)
    assert dem.detectors == ref.detectors
    assert np.array_equal(dem.observables, ref.observables)


def detection_rates_loop(dem: DetectorErrorModel) -> np.ndarray:
    """Per-mechanism loop form of :meth:`DetectorErrorModel.detection_rates`."""
    prod = np.ones(dem.n_detectors)
    for p, dets in zip(dem.probs, dem.detectors):
        for d in dets:
            prod[d] *= 1.0 - 2.0 * p
    return 0.5 * (1.0 - prod)


def observable_rates_loop(dem: DetectorErrorModel) -> np.ndarray:
    """Per-mechanism loop form of :meth:`DetectorErrorModel.observable_rates`."""
    prod = np.ones(dem.n_observables)
    for p, mask in zip(dem.probs, dem.observables):
        for o in range(dem.n_observables):
            if int(mask) >> o & 1:
                prod[o] *= 1.0 - 2.0 * p
    return 0.5 * (1.0 - prod)
