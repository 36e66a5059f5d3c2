"""SIMD beam-pass scheduling: equivalence, key stability, and report gating.

The scheduler's contract is *pure retiming*: the rescheduled circuit must
contain exactly the original instructions, keep every site's instruction
sequence in order, and satisfy the executable reference validity spec.
Its detector error model is therefore structurally identical to the
unscheduled one under idle-free noise: same detector footprints, same
observable masks, and probabilities equal to within a few ULP (retiming
permutes the XOR fold order inside multi-site mechanisms — the only
float-level freedom).  The frame engine thresholds uniform draws against
those probabilities, so fixed-seed logical-error counters stay *exactly*
identical: a count could change only if a draw landed inside a ULP-wide
sliver.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simd as oracle
from repro.core.compiler import TISCC
from repro.core.router import lattice_surgery_cnot_program
from repro.decode.memory import MemoryExperiment, memory_cache_key
from repro.estimator.jobs import SweepCell
from repro.estimator.report import format_resource_table
from repro.hardware.circuit import HardwareCircuit
from repro.hardware.grid import JUNCTION_HOP_US, MOVE_US, GridManager
from repro.hardware.profile import (
    DEFAULT_PROFILE,
    PROFILE_DIR,
    SIMD_MODES,
    ProfileError,
    get_profile,
)
from repro.hardware.simd import baseline_beam_passes, simd_schedule
from repro.hardware.validity import check_circuit_reference
from repro.sim.noise import IdleClock, NoiseModel


@lru_cache(maxsize=None)
def compiled_memory(d: int = 3):
    """One unscheduled d×d MeasureZ compile, shared across examples."""
    compiler = TISCC(dx=d, dz=d, tile_rows=1, tile_cols=1)
    program = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
    compiled = compiler.compile(program, operation="MeasureZ", estimate=False)
    return compiler, compiled


def per_site_order(circuit):
    """Each site's (code, duration, label) sequence in schedule order."""
    cols = circuit.sorted_columns()
    seq: dict[int, list] = {}
    for i in range(cols.n):
        for s in cols.sites[i]:
            seq.setdefault(s, []).append(
                (int(cols.codes[i]), float(cols.duration[i]), cols.labels.get(i))
            )
    return seq


def instruction_multiset(circuit):
    cols = circuit.sorted_columns()
    return sorted(
        (int(cols.codes[i]), int(cols.site0[i]), int(cols.site1[i]), float(cols.duration[i]))
        for i in range(cols.n)
    )


class TestScheduleProperties:
    """Hypothesis sweep over (width, mode, overhead): retiming invariants."""

    @settings(max_examples=24, deadline=None)
    @given(
        width=st.sampled_from([0, 1, 2, 3, 8]),
        mode=st.sampled_from(SIMD_MODES),
        overhead=st.sampled_from([0.0, 5.0]),
    )
    def test_retiming_invariants(self, width, mode, overhead):
        compiler, compiled = compiled_memory(3)
        circuit = compiled.circuit
        scheduled, report = simd_schedule(
            circuit, compiler.grid, width=width, mode=mode, overhead_us=overhead
        )

        # Pure retiming: same instructions, same per-site order, same labels.
        assert len(scheduled) == len(circuit)
        assert instruction_multiset(scheduled) == instruction_multiset(circuit)
        assert per_site_order(scheduled) == per_site_order(circuit)
        assert scheduled._measure_count == circuit._measure_count

        # The executable validity spec must accept the new schedule
        # (check_circuit_reference raises CircuitValidityError on failure).
        check_circuit_reference(compiler.grid, scheduled, compiled.initial_occupancy)

        # Report arithmetic.
        assert report.baseline_passes == baseline_beam_passes(
            circuit, compiler.profile, width=width
        )
        assert 0 < report.beam_passes <= report.baseline_passes or width > 0
        assert 0.0 <= report.pass_reduction <= 1.0 or width > 0
        assert report.mode == mode and report.width == width
        if mode == "site_parallel" and overhead == 0.0:
            # No overhead, no serial beam constraint: never slower.
            assert report.makespan_us <= report.baseline_makespan_us + 1e-9

    def test_unlimited_width_halves_passes_at_d3(self):
        compiler, compiled = compiled_memory(3)
        _, report = simd_schedule(compiled.circuit, compiler.grid)
        assert report.pass_reduction >= 0.30  # acceptance floor, d=3 already ~0.47


SHIPPED_PROFILES = ("baseline", "fast_projected", "slow_junction")


@lru_cache(maxsize=None)
def compiled_op(op: str, d: int, profile: str = "baseline"):
    """One unscheduled compile of a memory patch or a lattice-surgery CNOT."""
    if op == "CNOT":
        compiler = TISCC(dx=d, dz=d, tile_rows=2, tile_cols=2, profile=profile)
        program = lattice_surgery_cnot_program()
    else:
        compiler = TISCC(dx=d, dz=d, tile_rows=1, tile_cols=1, profile=profile)
        basis = op[0]
        program = [(f"Prepare{basis}", (0, 0)), (f"Measure{basis}", (0, 0))]
    compiled = compiler.compile(program, operation=op, validate=False, estimate=False)
    return compiler, compiled


def assert_matches_oracle(circuit, grid, width=0, mode="site_parallel", overhead_us=0.0):
    """Wave scheduler vs the per-row list scheduler: float64 start-time bits
    and the full report must agree."""
    new, report = simd_schedule(circuit, grid, width, mode, overhead_us)
    old, expected = oracle.simd_schedule(circuit, grid, width, mode, overhead_us)
    knobs = f"width={width} mode={mode} overhead={overhead_us}"
    t_new = new.sorted_columns().t
    t_old = old.sorted_columns().t
    assert np.array_equal(t_new.view(np.int64), t_old.view(np.int64)), knobs
    assert report.to_dict() == expected.to_dict(), knobs
    assert new._measure_count == old._measure_count
    return report


class TestOracleEquivalence:
    """The wave scheduler reproduces the list-scheduler oracle bit for bit."""

    def test_shipped_profiles_are_all_covered(self):
        shipped = {p.stem for p in PROFILE_DIR.glob("*.toml")} | {"baseline"}
        assert shipped == set(SHIPPED_PROFILES)

    @pytest.mark.parametrize("profile", SHIPPED_PROFILES)
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("op", ["CNOT", "ZMemory", "XMemory"])
    def test_knob_grid(self, op, d, profile):
        compiler, compiled = compiled_op(op, d, profile)
        for width in (0, 1, 3, 16):
            for mode in SIMD_MODES:
                for overhead in (0.0, 5.0):
                    assert_matches_oracle(
                        compiled.circuit, compiler.grid, width, mode, overhead
                    )
            assert baseline_beam_passes(
                compiled.circuit, compiler.profile, width
            ) == oracle.baseline_beam_passes(compiled.circuit, compiler.profile, width)

    @pytest.mark.slow
    @pytest.mark.parametrize("d", [7, 9, 11])
    def test_compile_surgery_shapes(self, d):
        """The CNOT shapes the ``compile_surgery`` benchmark schedules."""
        compiler, compiled = compiled_op("CNOT", d)
        report = assert_matches_oracle(compiled.circuit, compiler.grid)
        assert report.pass_reduction >= 0.30

    def test_empty_circuit(self):
        grid = GridManager(2, 2)
        report = assert_matches_oracle(HardwareCircuit(), grid)
        assert report.n_rows == report.beam_passes == report.baseline_passes == 0
        assert report.makespan_us == 0.0

    @pytest.mark.parametrize("mode", SIMD_MODES)
    def test_transport_only_circuit(self, mode):
        # Two swaps through one junction serialize; a plain hop fires at 0.
        g = GridManager(2, 2)
        a, b = g.index(0, 3), g.index(0, 5)
        x = g.index(1, 4)
        c = HardwareCircuit()
        c.append("Move", (a, b), 0.0, JUNCTION_HOP_US)
        c.append("Move", (x, g.index(0, 5)), 400.0, JUNCTION_HOP_US)
        c.append("Move", (g.index(0, 1), g.index(0, 2)), 50.0, MOVE_US)
        scheduled, report = simd_schedule(c, g, mode=mode, overhead_us=5.0)
        assert report.beam_passes == report.n_laser_rows == 0
        t = sorted(scheduled.sorted_columns().t.tolist())
        assert t == [0.0, 0.0, JUNCTION_HOP_US]
        assert_matches_oracle(c, g, mode=mode, overhead_us=5.0)

    def test_arity_above_two_rejected(self):
        g = GridManager(2, 2)
        c = HardwareCircuit()
        c.append("ZZ", (g.index(0, 1), g.index(0, 2), g.index(0, 3)), 0.0, 10.0)
        with pytest.raises(ValueError, match="arity>2"):
            simd_schedule(c, g)


class TestWidthValidation:
    """``width`` follows the ``HardwareProfile.simd_width`` rule."""

    @pytest.mark.parametrize("width", [2.5, True, False, -1, "3", None, np.int64(3)])
    def test_non_integer_width_rejected(self, width):
        compiler, compiled = compiled_memory(3)
        message = f"width={width!r} must be an integer >= 0 (0 = unlimited)"
        with pytest.raises(ValueError) as err:
            simd_schedule(compiled.circuit, compiler.grid, width=width)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            baseline_beam_passes(compiled.circuit, compiler.profile, width)
        assert str(err.value) == message

    def test_integer_width_accepted(self):
        compiler, compiled = compiled_memory(3)
        passes = baseline_beam_passes(compiled.circuit, compiler.profile, 3)
        assert isinstance(passes, int)
        _, report = simd_schedule(compiled.circuit, compiler.grid, width=3)
        assert report.width == 3 and report.max_group_width <= 3


NOISE = NoiseModel.uniform(1.5e-3)  # t2-free: idle windows cannot enter the DEM


@lru_cache(maxsize=None)
def plain_dem():
    return MemoryExperiment(distance=3).detector_error_model(NOISE)


class TestDemEquivalence:
    """Scheduled DEM vs the unscheduled oracle across timing modes."""

    @pytest.mark.parametrize(
        "mode, width, overhead",
        [
            ("site_parallel", 0, 0.0),
            ("site_parallel", 0, 5.0),
            ("site_parallel", 3, 0.0),
            ("pass_serial", 0, 0.0),
            ("pass_serial", 16, 5.0),
        ],
    )
    def test_dem_matches_oracle(self, mode, width, overhead):
        prof = replace(
            DEFAULT_PROFILE,
            simd_mode=mode,
            simd_width=width,
            simd_pass_overhead_us=overhead,
        )
        dem = MemoryExperiment(distance=3, profile=prof, simd=True).detector_error_model(
            NOISE
        )
        oracle = plain_dem()
        assert dem.n_detectors == oracle.n_detectors
        assert dem.n_observables == oracle.n_observables
        assert dem.detectors == oracle.detectors
        assert np.array_equal(dem.observables, oracle.observables)
        # Retiming may permute the XOR fold order inside multi-site
        # mechanisms — probabilities agree to within a few ULP, nothing more.
        ulps = np.abs(dem.probs - oracle.probs) / np.spacing(
            np.maximum(dem.probs, oracle.probs)
        )
        assert ulps.max() <= 8.0

    def test_fixed_seed_ler_counters_identical(self):
        """Frame-engine failure counters at a fixed seed match exactly."""
        kwargs = dict(noise=NOISE, seed=7, engine="frame")
        base = MemoryExperiment(distance=3).run(4000, **kwargs)
        simd = MemoryExperiment(distance=3, simd=True).run(4000, **kwargs)
        assert base.engine == simd.engine == "frame"
        assert simd.failures == base.failures
        assert simd.raw_failures == base.raw_failures


class TestCompilerIntegration:
    def test_oracle_and_report_retained(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        program = [("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))]
        compiled = compiler.compile(program, operation="MeasureZ", simd=True)
        assert compiled.unscheduled_circuit is not None
        assert len(compiled.unscheduled_circuit) == len(compiled.circuit)
        assert compiled.simd_report is not None
        assert compiled.simd_report.beam_passes < compiled.simd_report.baseline_passes
        assert compiled.simd_seconds > 0.0
        assert compiled.validity is not None  # validity replay ran on the *scheduled* circuit

    def test_default_compile_untouched(self):
        _, compiled = compiled_memory(3)
        assert compiled.simd_report is None
        assert compiled.unscheduled_circuit is None
        assert compiled.simd_seconds == 0.0


class TestIdleClock:
    """Shared idle-gap helper: exact float semantics, one definition."""

    def test_single_shared_definition(self):
        # batch.py and dem.py must consume the same class — the drift guard.
        from repro.sim import batch, dem, noise

        assert batch.IdleClock is noise.IdleClock
        assert dem.IdleClock is noise.IdleClock

    def test_gap_semantics_on_compacted_schedule(self):
        # The same ops at original vs compacted times: gaps follow the
        # schedule actually handed in, with exact float arithmetic.
        original = [(0.0, 10.0), (35.0, 45.0), (80.0, 90.0)]
        compacted = [(0.0, 10.0), (10.0, 20.0), (20.5, 30.5)]
        for times, gaps in (
            (original, [0.0, 25.0, 35.0]),
            (compacted, [0.0, 0.0, 0.5]),
        ):
            clock = IdleClock(1)
            for (start, end), expected in zip(times, gaps):
                assert clock.gap_before(0, start) == expected
                clock.mark_busy([0], end)

    def test_row_tracking(self):
        clock = IdleClock(2, track_rows=True)
        assert clock.last_row == [-1, -1]
        clock.mark_busy([1], 5.0, row=3)
        assert clock.last_row == [-1, 3]
        assert clock.gap_before(1, 7.5) == 2.5
        assert IdleClock(2).last_row is None

    def test_noise_model_factory_gates_on_tracks_idle(self):
        assert NoiseModel.uniform(1e-3).idle_clock(4) is None  # no t2: no tracking
        clock = NoiseModel.preset("near_term").idle_clock(4)
        assert isinstance(clock, IdleClock)


class TestProfileFields:
    def test_defaults_stay_out_of_fingerprint_and_dict(self):
        explicit = replace(
            DEFAULT_PROFILE,
            simd_width=0,
            simd_pass_overhead_us=0.0,
            simd_mode="site_parallel",
        )
        assert explicit.fingerprint == DEFAULT_PROFILE.fingerprint
        assert not any(k.startswith("simd") for k in DEFAULT_PROFILE.to_dict())

    def test_nondefault_changes_fingerprint_and_roundtrips(self):
        prof = replace(DEFAULT_PROFILE, simd_width=8, simd_mode="pass_serial")
        assert prof.fingerprint != DEFAULT_PROFILE.fingerprint
        d = prof.to_dict()
        assert d["simd_width"] == 8 and d["simd_mode"] == "pass_serial"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"simd_width": -1},
            {"simd_width": True},
            {"simd_width": 2.5},
            {"simd_mode": "both"},
            {"simd_pass_overhead_us": -1.0},
            {"simd_pass_overhead_us": float("nan")},
            {"simd_pass_overhead_us": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ProfileError):
            replace(DEFAULT_PROFILE, **kwargs)

    def test_shipped_profiles_carry_beam_pass_limits(self):
        assert get_profile("baseline") == DEFAULT_PROFILE
        fast = get_profile("fast_projected")
        assert (fast.simd_width, fast.simd_mode) == (64, "site_parallel")
        slow = get_profile("slow_junction")
        assert (slow.simd_width, slow.simd_mode) == (16, "pass_serial")
        assert slow.simd_pass_overhead_us == 5.0


class TestKeyStability:
    """simd enters cache keys only when enabled: old checkpoints stay valid."""

    def test_memory_cache_key_unchanged_when_off(self):
        base = memory_cache_key(3, 3, None, "Z", NOISE)
        assert base == memory_cache_key(3, 3, None, "Z", NOISE, simd=False)
        assert "simd" not in base
        assert memory_cache_key(3, 3, None, "Z", NOISE, simd=True) == base + ("simd",)

    def test_sweep_cell_payloads(self):
        plain = SweepCell(kind="memory_lfr", op="ZMemory", dx=3, dz=3, rounds=None,
                          noise=NOISE.params, shots=100)
        assert plain.key_payload() == replace(plain, simd=False).key_payload()
        assert "simd" not in repr(plain.key_payload())
        assert replace(plain, simd=True).key() != plain.key()

        res = SweepCell(kind="resource", op="MeasureZ", dx=3, dz=3, rounds=None)
        assert "simd" not in res.key_payload()
        assert replace(res, simd=True).key_payload()["simd"] is True


class TestReportGating:
    def test_default_resource_report_has_no_simd_columns(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        compiled = compiler.compile([("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))],
                                    operation="MeasureZ")
        rep = compiled.resources
        assert rep.beam_passes is None and rep.simd_utilization is None
        assert "beam_passes" not in rep.header()
        assert "beam_passes" not in format_resource_table([rep])
        assert "beam_passes" not in rep.to_dict()

    def test_simd_resource_report_gains_columns(self):
        compiler = TISCC(dx=3, dz=3, tile_rows=1, tile_cols=1)
        compiled = compiler.compile([("PrepareZ", (0, 0)), ("MeasureZ", (0, 0))],
                                    operation="MeasureZ", simd=True)
        rep = compiled.resources
        assert rep.beam_passes == compiled.simd_report.beam_passes
        assert rep.simd_utilization == pytest.approx(compiled.simd_report.utilization)
        table = format_resource_table([rep])
        assert "beam_passes" in table and "simd_util" in table
        assert rep.to_dict()["beam_passes"] == rep.beam_passes


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_compile_output_unchanged_without_flag(self, capsys):
        code, out = self.run_cli(
            capsys, "compile", "--op", "MeasureZ", "--resources", "--timings"
        )
        assert code == 0
        assert "simd" not in out and "beam_passes" not in out

    def test_compile_simd_prints_summary_and_phase(self, capsys):
        code, out = self.run_cli(
            capsys, "compile", "--op", "MeasureZ", "--simd", "--resources", "--timings"
        )
        assert code == 0
        assert "# simd: beam passes" in out and "reduction" in out
        assert "beam_passes" in out and "simd_util" in out
        assert ", simd " in out  # phase split in the timings line
