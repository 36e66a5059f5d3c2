"""Independent hardware-circuit validity checking (paper §3.3).

"In TISCC, we implement basic hardware validity checks such as that two
qubits do not move through the same junction at the same time, and that two
qubits do not occupy the same site at the same time."

:func:`check_circuit` replays a compiled, time-resolved circuit against an
initial site occupancy and raises :class:`CircuitValidityError` on the first
violation.  It is deliberately independent of the scheduling logic in
:class:`~repro.hardware.grid.GridManager` so that it can double-check any
compiled circuit, exactly as ORQCS re-models the hardware on its side.

Two implementations share the contract:

* :func:`check_circuit_reference` — the original instruction-by-instruction
  replay over :class:`Instruction` objects, kept verbatim as the executable
  specification (and the error-reporting path);
* :func:`check_circuit` — the production path, which consumes the circuit's
  sorted columns directly: static legality (arities, zone membership, move
  durations, hop geometry) is verified with vectorized array expressions,
  ion-busy and junction-overlap constraints with sorted-array sweeps, and
  only the occupancy state machine (who is where, in time order) runs as a
  tight scalar loop over the move/load rows.  Any detected violation defers
  to the reference checker so the raised error is identical, and logs
  one DEBUG record naming the failed check on the
  ``repro.hardware.validity`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.circuit import HardwareCircuit, Instruction, name_code
from repro.hardware.grid import GridManager

__all__ = [
    "CircuitValidityError",
    "ValidityReport",
    "check_circuit",
    "check_circuit_reference",
]

_EPS = 1e-9

_LOG = logging.getLogger(__name__)


class CircuitValidityError(RuntimeError):
    """A hardware circuit violates an occupancy/movement/timing constraint."""

    def __init__(self, message: str, instruction: Instruction | None = None):
        if instruction is not None:
            message = f"{message} (at {instruction.to_text()!r})"
        super().__init__(message)
        self.instruction = instruction


@dataclass
class ValidityReport:
    """Summary statistics from a successful validity replay."""

    n_instructions: int = 0
    n_moves: int = 0
    n_junction_crossings: int = 0
    junctions_used: set[int] = field(default_factory=set)
    sites_used: set[int] = field(default_factory=set)
    final_occupancy: dict[int, int] = field(default_factory=dict)
    makespan: float = 0.0


def check_circuit_reference(
    grid: GridManager,
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
) -> ValidityReport:
    """Replay ``circuit`` from ``initial_occupancy`` (site -> ion).

    Verifies, instruction by instruction in time order:

    * moves are single hops between adjacent zones (5.25 µs) or junction
      crossings between the two zones flanking one junction (210 µs);
    * an ion never starts an operation before its previous one finished;
    * a move's destination has been fully vacated before the transit begins;
    * no two ions cross the same junction at overlapping times;
    * gates/preps/measurements act on occupied zones, with ZZ requiring
      lattice adjacency.

    This is the executable specification: one Python iteration per
    instruction.  :func:`check_circuit` is the vectorized production path.
    """
    occupant: dict[int, int] = dict(initial_occupancy)
    site_release: dict[int, float] = {}
    ion_free: dict[int, float] = {ion: 0.0 for ion in occupant.values()}
    junction_free: dict[int, float] = {}
    report = ValidityReport(final_occupancy=occupant)

    for site, ion in occupant.items():
        if not grid.is_zone(site):
            raise CircuitValidityError(f"initial occupancy places ion {ion} on junction {site}")
    if len(set(occupant.values())) != len(occupant):
        raise CircuitValidityError("initial occupancy maps two sites to the same ion")

    for inst in circuit.sorted_instructions():
        report.n_instructions += 1
        report.sites_used.update(inst.sites)
        t, dur = inst.t, inst.duration

        if inst.name == "Load":
            (s,) = inst.sites
            if s in occupant:
                raise CircuitValidityError(f"Load onto occupied site {s}", inst)
            if not grid.is_zone(s):
                raise CircuitValidityError("ions load onto trapping zones only", inst)
            if t + _EPS < site_release.get(s, 0.0):
                raise CircuitValidityError(f"site {s} not vacated at load time", inst)
            new_ion = max(ion_free, default=-1) + 1
            occupant[s] = new_ion
            ion_free[new_ion] = t

        elif inst.name == "Move":
            if len(inst.sites) != 2:
                raise CircuitValidityError("Move takes exactly two qsites", inst)
            src, dst = inst.sites
            ion = occupant.get(src)
            if ion is None:
                raise CircuitValidityError(f"Move from unoccupied site {src}", inst)
            if ion_free.get(ion, 0.0) > t + _EPS:
                raise CircuitValidityError(
                    f"ion {ion} busy until {ion_free[ion]:.3f}, move starts at {t:.3f}", inst
                )
            if dst in occupant:
                raise CircuitValidityError(
                    f"Move into occupied site {dst} (ion {occupant[dst]})", inst
                )
            if t + _EPS < site_release.get(dst, 0.0):
                raise CircuitValidityError(
                    f"site {dst} not vacated until {site_release[dst]:.3f}", inst
                )
            if not grid.is_zone(dst) or not grid.is_zone(src):
                raise CircuitValidityError("moves must start and end on trapping zones", inst)
            junction = grid.junction_between(src, dst)
            if dst in grid.neighbors(src):
                if abs(dur - grid.move_us) > _EPS:
                    raise CircuitValidityError(
                        f"adjacent-zone move must take {grid.move_us} µs", inst
                    )
            elif junction is not None:
                if abs(dur - grid.junction_hop_us) > _EPS:
                    raise CircuitValidityError(
                        f"junction crossing must take {grid.junction_hop_us} µs", inst
                    )
                if t + _EPS < junction_free.get(junction, 0.0):
                    raise CircuitValidityError(
                        f"junction {junction} busy until {junction_free[junction]:.3f}", inst
                    )
                junction_free[junction] = t + dur
                report.n_junction_crossings += 1
                report.junctions_used.add(junction)
            else:
                raise CircuitValidityError(f"{src} -> {dst} is not a legal hop", inst)
            del occupant[src]
            occupant[dst] = ion
            site_release[src] = t + dur
            ion_free[ion] = t + dur
            report.n_moves += 1

        elif inst.name == "ZZ":
            if len(inst.sites) != 2:
                raise CircuitValidityError("ZZ takes exactly two qsites", inst)
            a, b = inst.sites
            if not grid.gate_adjacent(a, b):
                raise CircuitValidityError(f"ZZ between non-adjacent zones {a}, {b}", inst)
            for s in (a, b):
                ion = occupant.get(s)
                if ion is None:
                    raise CircuitValidityError(f"ZZ on unoccupied site {s}", inst)
                if ion_free.get(ion, 0.0) > t + _EPS:
                    raise CircuitValidityError(f"ion {ion} busy at {t:.3f}", inst)
            for s in (a, b):
                ion_free[occupant[s]] = t + dur

        else:  # single-site native operation
            if len(inst.sites) != 1:
                raise CircuitValidityError(f"{inst.name} takes exactly one qsite", inst)
            (s,) = inst.sites
            ion = occupant.get(s)
            if ion is None:
                raise CircuitValidityError(f"{inst.name} on unoccupied site {s}", inst)
            if ion_free.get(ion, 0.0) > t + _EPS:
                raise CircuitValidityError(f"ion {ion} busy at {t:.3f}", inst)
            ion_free[ion] = t + dur

        report.makespan = max(report.makespan, t + dur)

    report.final_occupancy = occupant
    return report


def check_circuit(
    grid: GridManager,
    circuit: HardwareCircuit,
    initial_occupancy: dict[int, int],
) -> ValidityReport:
    """Columnar validity replay; see :func:`check_circuit_reference`.

    Operates on :meth:`HardwareCircuit.sorted_columns`: all static checks
    and the busy/overlap sweeps are vectorized; only occupancy evolution
    (which ion is where) runs as a scalar loop over move/load rows.  On the
    first sign of trouble the reference checker re-runs the replay so the
    raised :class:`CircuitValidityError` is byte-identical to the original
    implementation's.
    """
    for site, ion in initial_occupancy.items():
        if not grid.is_zone(site):
            raise CircuitValidityError(f"initial occupancy places ion {ion} on junction {site}")
    if len(set(initial_occupancy.values())) != len(initial_occupancy):
        raise CircuitValidityError("initial occupancy maps two sites to the same ion")

    cols = circuit.sorted_columns()
    n = cols.n
    report = ValidityReport(final_occupancy=dict(initial_occupancy))
    if n == 0:
        return report

    site0, site1, nsites = cols.site0, cols.site1, cols.nsites
    t, dur = cols.t, cols.duration
    end = t + dur

    def fail(reason: str) -> ValidityReport:
        # Re-run the reference replay: it raises the chronologically-first
        # violation with the exact legacy message.  (Returning its report
        # also covers the impossible false-positive case.)
        _LOG.debug("columnar validity check fell back to the reference replay: %s", reason)
        return check_circuit_reference(grid, circuit, initial_occupancy)

    if (site0 >= grid.n_positions).any() or (site1 >= grid.n_positions).any():
        return fail("site index out of range")

    codes = cols.codes

    def mask_of(name: str) -> np.ndarray:
        code = name_code(name)
        return codes == (np.int32(-1) if code is None else np.int32(code))

    is_move = mask_of("Move")
    is_load = mask_of("Load")
    is_zz = mask_of("ZZ")
    is_single = ~(is_move | is_load | is_zz)

    # --- arity and zone-membership checks (vectorized) -------------------
    if (
        (nsites[is_move | is_zz] != 2).any()
        or (nsites[is_load | is_single] != 1).any()
    ):
        return fail("wrong arity")
    zone = grid.zone_mask()
    if is_load.any() and not zone[site0[is_load]].all():
        return fail("load onto a non-zone site")
    if is_zz.any():
        a, b = site0[is_zz], site1[is_zz]
        r0, c0 = np.divmod(a, grid.width)
        r1, c1 = np.divmod(b, grid.width)
        gate_ok = (np.abs(r1 - r0) + np.abs(c1 - c0) == 1) & zone[a] & zone[b]
        if not gate_ok.all():
            return fail("ZZ not between two adjacent zones")

    # --- move legality: zones, single hops, exact durations --------------
    move_idx = np.nonzero(is_move)[0]
    junction_ids = np.empty(0, dtype=np.int64)
    if len(move_idx):
        src, dst = site0[move_idx], site1[move_idx]
        if not (zone[src] & zone[dst]).all():
            return fail("move endpoint off a zone")
        adjacent, junction = grid.classify_hops(src, dst)
        crossing = junction >= 0
        if not (adjacent | crossing).all():
            return fail("move is neither a single hop nor a junction crossing")
        if (np.abs(dur[move_idx[adjacent]] - grid.move_us) > _EPS).any():
            return fail("adjacent-zone move with the wrong duration")
        if (np.abs(dur[move_idx[crossing]] - grid.junction_hop_us) > _EPS).any():
            return fail("junction crossing with the wrong duration")
        junction_ids = junction[crossing]
        # Junction exclusivity: within each junction's crossings (already in
        # time order), each must start after the previous one ended.
        cross_rows = move_idx[crossing]
        order = np.argsort(junction_ids, kind="stable")
        jt, je = t[cross_rows][order], end[cross_rows][order]
        same = junction_ids[order][1:] == junction_ids[order][:-1]
        if (same & (jt[1:] + _EPS < je[:-1])).any():
            return fail("overlapping crossings of one junction")

    # --- per-site event sweep (fully vectorized) -------------------------
    # Flatten the replay into one entry stream: every row contributes an
    # operation interval at each site it touches; Move rows additionally
    # open an occupancy episode at the destination and close one at the
    # source, Loads open one, and the initial occupancy seeds an episode
    # per occupied site.  Grouped by site and swept in execution order,
    # three segmented passes reproduce every dynamic constraint of the
    # reference replay:
    #
    # * interval chaining -- an entry may not start before the previous
    #   entry at its site ended.  Within an episode that is exactly the
    #   per-ion busy rule (an ion parked at a site does nothing anywhere
    #   else, and the moves that carry it between sites appear in both
    #   sites' streams); across episodes it is the site-vacancy rule.
    # * episode alternation -- a running (+1 arrival, -1 departure) count
    #   catches moves/loads onto occupied sites, moves from empty sites,
    #   and operations on unoccupied sites.
    # * ion identity -- each move-arrival's ion is the ion of the episode
    #   its source-departure closed; resolved for all chains at once by
    #   pointer doubling over the governing-arrival links.
    move_rows = np.nonzero(is_move)[0]
    load_rows = np.nonzero(is_load)[0]
    zz_rows = np.nonzero(is_zz)[0]
    op_rows = np.nonzero(is_single | is_zz)[0]
    n_init, n_load, n_move = len(initial_occupancy), len(load_rows), len(move_rows)
    n_op = len(op_rows)
    init_sites = np.fromiter(initial_occupancy, dtype=np.int64, count=n_init)

    # Entry stream: [initial | load-arrivals | move-departures |
    #               move-arrivals | op intervals (gates/preps/measures,
    #               ZZ at both sites)].  Moves and Loads already carry
    #               their busy interval on their episode entries.
    e_site = np.concatenate(
        [init_sites, site0[load_rows], site0[move_rows], site1[move_rows],
         site0[op_rows], site1[zz_rows]]
    )
    # Execution position per entry; the initial occupancy precedes row 0.
    # A row touches each site at most once, so (site, order) is unique and
    # entries at one site sort into exact replay order.
    e_order = np.concatenate(
        [np.full(n_init, -1, dtype=np.int64), load_rows, move_rows, move_rows,
         op_rows, zz_rows]
    )
    e_t = np.concatenate(
        [np.full(n_init, -np.inf), t[load_rows], t[move_rows], t[move_rows],
         t[op_rows], t[zz_rows]]
    )
    e_end = np.concatenate(
        [np.zeros(n_init), t[load_rows], end[move_rows], end[move_rows],
         end[op_rows], end[zz_rows]]
    )
    # +1 opens an episode, -1 closes one, 0 is a plain operation interval.
    e_delta = np.concatenate(
        [np.ones(n_init, dtype=np.int8),
         np.ones(n_load, dtype=np.int8),
         np.full(n_move, -1, dtype=np.int8),
         np.ones(n_move, dtype=np.int8),
         np.zeros(n_op + len(zz_rows), dtype=np.int8)]
    )
    # Arrival-event ids: [0, n_init) initial, then loads, then move dsts.
    n_events = n_init + n_load + n_move
    e_event = np.full(len(e_site), -1, dtype=np.int64)
    e_event[:n_init] = np.arange(n_init)
    e_event[n_init : n_init + n_load] = n_init + np.arange(n_load)
    arr0 = n_init + n_load + n_move
    e_event[arr0 : arr0 + n_move] = n_init + n_load + np.arange(n_move)

    # (site, order) pairs are unique, so a single fused int64 key sorts the
    # stream with one argsort pass.
    order = np.argsort(e_site * np.int64(n + 2) + (e_order + 1))
    s_site = e_site[order]
    s_t = e_t[order]
    s_end = e_end[order]
    s_delta = e_delta[order]
    s_event = e_event[order]

    same_site = s_site[1:] == s_site[:-1]
    # Interval chaining: busy-ion and site-vacancy violations in one test.
    if (same_site & (s_t[1:] + _EPS < s_end[:-1])).any():
        return fail("site busy (ion busy or site not vacated)")
    # Episode alternation via a segmented running occupancy count.
    new_group = np.r_[True, ~same_site]
    grp_id = np.cumsum(new_group) - 1
    csum = np.cumsum(s_delta)
    base = (csum - s_delta)[new_group]
    count = csum - base[grp_id]
    if count.min() < 0 or count.max() > 1:
        return fail("occupancy count out of range (occupied target or empty source)")
    if ((s_delta == 0) & (count == 0)).any():
        return fail("operation on an unoccupied site")

    # Governing arrival per position: segmented running max of arrival
    # positions (the additive group offset keeps maxima from leaking
    # across site groups).
    big = np.int64(len(s_site) + 2)
    pos = np.arange(len(s_site), dtype=np.int64)
    marked = np.where(s_event >= 0, pos, np.int64(-1))
    gov_pos = np.maximum.accumulate(marked + grp_id * big) - grp_id * big

    # Ion identity by pointer doubling: a move-arrival's parent is the
    # arrival governing its source departure (alternation above guarantees
    # it exists); initial and Load events are the chain roots.
    entry_pos = np.empty(len(s_site), dtype=np.int64)
    entry_pos[order] = pos  # original entry index -> sorted position
    dep0 = n_init + n_load
    dep_positions = entry_pos[dep0 : dep0 + n_move]
    parent = np.arange(n_events, dtype=np.int64)
    parent[n_init + n_load :] = s_event[gov_pos[dep_positions]]
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            break
        parent = hop
    event_ion = np.empty(n_events, dtype=np.int64)
    event_ion[:n_init] = np.fromiter(
        initial_occupancy.values(), dtype=np.int64, count=n_init
    )
    # Loads allocate ids above every id seen so far, in execution order.
    max_ion = int(event_ion[:n_init].max()) if n_init else -1
    event_ion[n_init : n_init + n_load] = max_ion + 1 + np.arange(n_load)
    event_ion = event_ion[parent]

    # Final occupancy: a site group whose last entry leaves the running
    # count at 1 still holds the ion of its governing arrival.
    group_last = np.r_[~same_site, True]
    occupant: dict[int, int] = {}
    for p in np.nonzero(group_last & (count == 1))[0].tolist():
        occupant[int(s_site[p])] = int(event_ion[s_event[gov_pos[p]]])

    # --- report ----------------------------------------------------------
    report.n_instructions = n
    report.n_moves = int(len(move_idx))
    report.n_junction_crossings = int(len(junction_ids))
    report.junctions_used = set(np.unique(junction_ids).tolist())
    report.sites_used = circuit.used_sites()  # cached, shared with §3.4
    report.final_occupancy = occupant
    report.makespan = float(end.max())
    return report
