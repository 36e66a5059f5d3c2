"""SIMD beam-pass rescheduling of a compiled hardware circuit.

TISCC's scheduler (and the per-site pricing of §3.4) treats every gate as
its own laser event, but trapped-ion hardware drives many *identical* gates
in one global beam pass — TrapSIMD (arXiv:2504.17886) shows batching
same-mnemonic gates is the dominant backend-compiler lever on 2D junction
grids.  This module adds that backend phase: :func:`simd_schedule` takes a
compiled :class:`~repro.hardware.circuit.HardwareCircuit`, regroups its
laser gates into wide same-``(mnemonic, duration)`` beam passes, compacts
the time axis, and co-schedules transport so groups form as early and as
wide as possible.

The pass is a *pure retiming*: it never reorders two instructions that
share a site (or a junction), so the rescheduled circuit passes the
reference validity checker and — because detector error models depend only
on the per-site instruction order and on idle gaps derived from the
schedule — yields the same DEM as the input up to idle-window durations.
For dephasing-free noise the mechanism structure (detector footprints and
observable masks) is *identical* and every probability agrees to within a
few ulp: retiming can permute the XOR-combine fold order inside a
mechanism, which is the only float-level freedom left.  Fixed-seed
frame-engine logical-error counters are identical in practice — a sampled
bit flips only when a uniform draw lands inside that ulp-wide sliver —
and tests and ``bench_simd`` enforce both properties.

Scheduling model
----------------

* **Laser rows** are the mnemonics priced in
  :attr:`HardwareProfile.gate_times_us`; ``Move``/``Load`` are transport
  and are never beam-limited — they drain eagerly between passes.
* **Resources** are trap sites, plus one pseudo-resource per junction for
  junction-crossing ``Move`` rows (two swaps through one junction must
  serialize, matching the validity checker's junction rule).
* The scheduler is a readiness-driven list scheduler worked a *wave* at a
  time.  Per-resource last-user chains define the dependency DAG, built as
  arrays: ``(n, 3)`` previous-user and next-user matrices from one stable
  argsort of the ``(resource, row)`` entries.  A row's earliest start is
  the latest end among its predecessors, fixed once they have all fired.
  Each step fires every ready transport row at its earliest start, wave
  after wave, then fires the ready laser class whose earliest member can
  start first (ties broken by mnemonic, then duration) as one pass,
  chunked to ``width`` members when the profile caps group width.  Ready
  members of one class are provably resource-disjoint, so firing them
  together is always conflict-free, and the order rows are handled in
  within a wave cannot change the outcome.  The schedule is the one the
  original per-row scheduler (kept as the test oracle
  ``tests/oracles/simd.py``) produced, bit for bit.  At the d=11
  lattice-surgery CNOT (311 507 rows, ~2 000 steps) scheduling takes
  ~0.36 s against ~1.6 s row by row (median of 5, 2-vCPU VM).
* ``site_parallel`` (default): a pass occupies only its member sites;
  per-pass overhead extends each member's busy window.  ``pass_serial``:
  one global beam serializes passes — each pass waits for the beam and
  holds it for ``duration + overhead``; this prices beam-limited hardware
  and can *lengthen* the circuit, which is the point of the model.

The result is rebuilt through :meth:`HardwareCircuit.from_columns`;
template-replay provenance is consumed (the replayed rounds are already
materialized columns), so downstream DEM extraction uses the full-walk
oracle path for rescheduled circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.circuit import HardwareCircuit, name_code
from repro.hardware.profile import SIMD_MODES

__all__ = ["SimdReport", "simd_schedule", "baseline_beam_passes", "SIMD_MODES"]


@dataclass(frozen=True)
class SimdReport:
    """What one :func:`simd_schedule` run did to a circuit.

    ``utilization`` is mean group width over the effective beam capacity —
    the width cap when one is set, else the widest group actually formed —
    so 1.0 means every pass was as wide as the hardware allows.
    """

    n_rows: int
    n_laser_rows: int
    baseline_passes: int
    beam_passes: int
    max_group_width: int
    mean_group_width: float
    utilization: float
    baseline_makespan_us: float
    makespan_us: float
    width: int
    mode: str
    overhead_us: float

    @property
    def pass_reduction(self) -> float:
        """Fraction of baseline beam passes eliminated (0 when none existed)."""
        if self.baseline_passes == 0:
            return 0.0
        return 1.0 - self.beam_passes / self.baseline_passes

    @property
    def makespan_ratio(self) -> float:
        """Compacted / original circuit duration (1.0 for an empty circuit)."""
        if self.baseline_makespan_us == 0.0:
            return 1.0
        return self.makespan_us / self.baseline_makespan_us

    def to_dict(self) -> dict:
        import dataclasses

        out = dataclasses.asdict(self)
        out["pass_reduction"] = self.pass_reduction
        out["makespan_ratio"] = self.makespan_ratio
        return out


def _check_width(width) -> None:
    if isinstance(width, bool) or not isinstance(width, int) or width < 0:
        raise ValueError(f"width={width!r} must be an integer >= 0 (0 = unlimited)")


def _laser_codes(profile) -> dict[int, str]:
    """Interned code -> name of every laser mnemonic the profile prices."""
    codes = {}
    for name, _ in profile.gate_times_us:
        code = name_code(name)
        if code is not None:
            codes[code] = name
    return codes


def _row_resources(grid, cols, is_move: np.ndarray) -> np.ndarray:
    """``(n, 3)`` resource ids per row, -1 for none: sites, plus a junction
    pseudo-resource ``n_positions + j`` for junction-crossing Moves (two
    swaps through one junction serialize)."""
    res = np.full((cols.n, 3), -1, dtype=np.int64)
    res[:, 0] = np.where(cols.nsites >= 1, cols.site0, -1)
    res[:, 1] = np.where(cols.nsites == 2, cols.site1, -1)
    moves = np.flatnonzero(is_move & (cols.nsites == 2))
    if len(moves):
        _, junction = grid.classify_hops(cols.site0[moves], cols.site1[moves])
        crossing = junction >= 0
        res[moves[crossing], 2] = grid.n_positions + junction[crossing]
    return res


def _resource_chains(res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Previous and next user of each row's resources, ``(n, 3)`` each,
    ``n`` for none.

    A stable argsort of the ``(resource, row)`` entries puts each
    resource's users in stream order; neighbours in a resource group are
    one DAG edge, seen from both ends (a row listed twice in another's
    slots is one edge counted twice on both sides).
    """
    n = len(res)
    flat = res.ravel()
    used = np.flatnonzero(flat >= 0)
    order = used[np.argsort(flat[used], kind="stable")]
    same = flat[order[1:]] == flat[order[:-1]]
    before, after = order[:-1][same], order[1:][same]
    pred = np.full(flat.shape, n, dtype=np.int64)
    nxt = np.full(flat.shape, n, dtype=np.int64)
    pred[after] = before // 3
    nxt[before] = after // 3
    return pred.reshape(n, 3), nxt.reshape(n, 3)


def _laser_classes(cols, laser_rows: np.ndarray, laser_codes: dict[int, str]):
    """Class id per laser row (``-1`` elsewhere) and per-class durations.

    A class is one ``(mnemonic, duration)`` pair; ids follow the order of
    those tuples, so the smallest id breaks ties the way comparing
    ``(mnemonic, duration)`` keys does.
    """
    cls = np.full(cols.n, -1, dtype=np.int64)
    if not len(laser_rows):
        return cls, []
    code = cols.codes[laser_rows]
    dur = cols.duration[laser_rows]
    order = np.lexsort((dur, code))
    code, dur = code[order], dur[order]
    head = np.r_[True, (code[1:] != code[:-1]) | (dur[1:] != dur[:-1])]
    keys = [
        (laser_codes[c], d) for c, d in zip(code[head].tolist(), dur[head].tolist())
    ]
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[ranked] = np.arange(len(keys))
    cls[laser_rows[order]] = rank[np.cumsum(head) - 1]
    return cls, [keys[k][1] for k in ranked]


def baseline_beam_passes(circuit: HardwareCircuit, profile, width: int = 0) -> int:
    """Beam passes the *unscheduled* circuit needs: distinct
    ``(mnemonic, start, duration)`` groups of laser rows, chunked to
    ``width`` members when the hardware caps group width (0 = unlimited).

    This is the honest baseline — gates the original scheduler already
    started at the same instant ride one pass for free.
    """
    _check_width(width)
    cols = circuit.sorted_columns()
    rows = np.flatnonzero(np.isin(cols.codes, list(_laser_codes(profile))))
    if not len(rows):
        return 0
    code, t, dur = cols.codes[rows], cols.t[rows], cols.duration[rows]
    order = np.lexsort((dur, t, code))
    code, t, dur = code[order], t[order], dur[order]
    head = np.r_[
        True, (code[1:] != code[:-1]) | (t[1:] != t[:-1]) | (dur[1:] != dur[:-1])
    ]
    if not width:
        return int(head.sum())
    counts = np.diff(np.r_[np.flatnonzero(head), len(rows)])
    return int((-(-counts // width)).sum())


def simd_schedule(
    circuit: HardwareCircuit,
    grid,
    width: int = 0,
    mode: str = "site_parallel",
    overhead_us: float = 0.0,
) -> tuple[HardwareCircuit, SimdReport]:
    """Reschedule ``circuit`` into SIMD beam passes on ``grid``.

    ``width`` caps members per pass (0 = unlimited), ``mode`` selects the
    beam timing discipline (:data:`SIMD_MODES`), ``overhead_us`` is the
    per-pass setup cost.  Returns the retimed circuit (same rows, same
    per-site order, new start times) and a :class:`SimdReport`.
    """
    if mode not in SIMD_MODES:
        raise ValueError(f"mode must be one of {SIMD_MODES}, got {mode!r}")
    _check_width(width)
    if not (overhead_us >= 0.0 and np.isfinite(overhead_us)):
        raise ValueError(f"overhead_us must be finite and >= 0, got {overhead_us}")

    cols = circuit.sorted_columns()
    n = cols.n
    if n and int(cols.nsites.max()) > 2:
        raise ValueError("simd_schedule does not support arity>2 rows")
    profile = grid.profile
    laser_codes = _laser_codes(profile)
    is_laser = np.isin(cols.codes, list(laser_codes))
    move_code = name_code("Move")
    is_move = cols.codes == (-1 if move_code is None else move_code)
    dur = cols.duration
    cls, class_dur = _laser_classes(cols, np.flatnonzero(is_laser), laser_codes)

    # Dependency DAG from per-resource last-user chains: row i depends on
    # the previous user of each of its resources.  Edges follow the sorted
    # stream, so per-site order is preserved by construction.
    pred, nxt = _resource_chains(_row_resources(grid, cols, is_move))
    indeg = (pred < n).sum(axis=1)

    # end[i] is the time row i frees its resources; end[n] = 0.0 pads
    # missing predecessors.  A row's predecessors are the last users of its
    # resources, so its earliest start is fixed once they have all fired.
    end = np.zeros(n + 1, dtype=np.float64)
    est = np.zeros(n, dtype=np.float64)
    new_t = np.zeros(n, dtype=np.float64)
    ready_laser = np.empty(0, dtype=np.int64)

    def admit(rows: np.ndarray) -> np.ndarray:
        """Fix the earliest start of newly ready rows; pool the laser rows
        and return the transport rows."""
        nonlocal ready_laser
        m = end[pred[rows]].max(axis=1)
        est[rows] = np.where(m > 0.0, m, 0.0)
        laser = is_laser[rows]
        ready_laser = np.concatenate((ready_laser, rows[laser]))
        return rows[~laser]

    def release(fired: np.ndarray) -> np.ndarray:
        """Retire ``fired``; admit the successors this makes ready."""
        hit = nxt[fired].ravel()
        hit = hit[hit < n]
        np.subtract.at(indeg, hit, 1)
        return admit(np.unique(hit[indeg[hit] == 0]))

    transport = admit(np.flatnonzero(indeg == 0))
    beam_free = 0.0
    n_passes = 0
    max_group = 0
    scheduled = 0
    while scheduled < n:
        # Transport is not beam-limited: every ready Move/Load fires at its
        # earliest start, wave after wave, before the next pass is
        # committed, so pass groups form as wide as possible.
        while len(transport):
            start = est[transport]
            new_t[transport] = start
            end[transport] = start + dur[transport]
            scheduled += len(transport)
            transport = release(transport)
        if scheduled >= n:
            break
        # Fire the laser class whose earliest ready member can start first
        # (ties broken by mnemonic then duration, for determinism).
        if not len(ready_laser):  # pragma: no cover - the DAG is acyclic
            raise RuntimeError("SIMD scheduler deadlocked with unscheduled rows")
        ready_est = est[ready_laser]
        ready_cls = cls[ready_laser]
        k = int(ready_cls[ready_est == ready_est.min()].min())
        fire = ready_cls == k
        members = np.sort(ready_laser[fire])
        ready_laser = ready_laser[~fire]
        duration = class_dur[k]
        size = len(members)
        cap = width if width else size
        heads = np.arange(0, size, cap)
        starts = np.maximum.reduceat(est[members], heads)
        if mode == "pass_serial":
            busy = np.empty_like(starts)
            for c, start in enumerate(starts.tolist()):
                if beam_free > start:
                    start = beam_free
                beam_free = start + duration + overhead_us
                starts[c] = start
                busy[c] = start + duration
        else:
            busy = starts + duration + overhead_us
        widths = np.full(len(heads), cap)
        widths[-1] = size - heads[-1]
        new_t[members] = np.repeat(starts, widths)
        end[members] = np.repeat(busy, widths)
        scheduled += size
        n_passes += len(heads)
        max_group = max(max_group, int(widths[0]))
        transport = release(members)

    new = HardwareCircuit.from_columns(cols, t=new_t, measure_count=circuit._measure_count)

    n_laser = int(is_laser.sum())
    mean_group = n_laser / n_passes if n_passes else 0.0
    capacity = width if width else max_group
    report = SimdReport(
        n_rows=n,
        n_laser_rows=n_laser,
        baseline_passes=baseline_beam_passes(circuit, profile, width),
        beam_passes=n_passes,
        max_group_width=max_group,
        mean_group_width=mean_group,
        utilization=mean_group / capacity if capacity else 0.0,
        baseline_makespan_us=circuit.makespan,
        makespan_us=float(np.max(new_t + cols.duration)) if n else 0.0,
        width=width,
        mode=mode,
        overhead_us=overhead_us,
    )
    return new, report
