"""MemoryExperiment builds each pipeline stage once per key, and only on demand.

Locks down the staging of ``repro.decode.memory``: construction compiles
and nothing else; one detector error model per rate set feeds both the
matching graph and the frame sampler; every memory program extracts a DEM
(so no engine or graph fallback is ever needed); and bad inputs fail with
one-line errors instead of deep ``IndexError``/``range()`` tracebacks.
"""

from __future__ import annotations

import pytest
from oracles.dem import assert_matches_forward_walk, experiment_fault_table

import repro.decode.memory as memory
from repro.decode.memory import MemoryExperiment, _noise_key, _periodic_template
from repro.hardware.profile import DEFAULT_PROFILE, available_profiles
from repro.sim.noise import NoiseModel


@pytest.fixture(scope="module")
def exp3():
    return MemoryExperiment(distance=3)


def _refuse(*args, **kwargs):
    raise AssertionError("built during construction")


class TestLazyConstruction:
    def test_construction_builds_no_graph_or_decoder(self, monkeypatch):
        for name in ("build_memory_graph", "build_dem_graph", "build_dem", "get_decoder"):
            monkeypatch.setattr(memory, name, _refuse)
        exp = MemoryExperiment(distance=3, basis="X", rounds=4)
        assert not exp._decoders
        monkeypatch.undo()
        # First access builds the schedule graph and the default decoder.
        assert exp.graph.n_detectors == exp.n_detectors
        assert exp.decoder is exp.decoder_for(None)
        assert exp.decoder.graph is exp.graph

    def test_unknown_decoder_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown decoder"):
            MemoryExperiment(distance=3, decoder="mwpm")

    def test_noise_free_decoding_uses_the_schedule_graph(self, exp3):
        assert exp3.matching_graph(None) is exp3.graph
        assert exp3.matching_graph(NoiseModel.preset("ideal")) is exp3.graph

    def test_renamed_profile_shares_the_compiled_core(self):
        renamed = DEFAULT_PROFILE.renamed("renamed-baseline")
        a = MemoryExperiment(distance=3, profile=renamed)
        assert a._core is MemoryExperiment(distance=3)._core
        assert a.profile.name == "renamed-baseline"

    def test_template_is_shared_across_rates_of_one_structure(self):
        low = NoiseModel.uniform(1e-3).params
        high = NoiseModel.uniform(4e-3).params
        template = _periodic_template(3, 3, "Z", None, low)
        assert _periodic_template(3, 3, "Z", None, high) is template


class TestOneDemPerRateSet:
    def test_build_dem_runs_once_per_rate_set(self, monkeypatch):
        calls = []
        real = memory.build_dem

        def counting(*args, **kwargs):
            calls.append(kwargs.get("keep_sources", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(memory, "build_dem", counting)
        model = NoiseModel.uniform(1.23e-3)  # unique rate: cold cache entry
        first = MemoryExperiment(distance=3)
        second = MemoryExperiment(distance=3)
        assert first._core is second._core
        for exp in (first, second):
            exp.run(40, noise=model, seed=0, engine="frame", max_batch=16)
            exp.decoder_for(model)
            exp.frame_sampler(model)
            exp.detector_error_model(model)
        assert calls == [False]

        dem = first.detector_error_model(model)
        assert second.detector_error_model(model) is dem
        assert first.frame_sampler(model).dem is dem
        assert first._core.dems[_noise_key(model)].dem is dem

        other = NoiseModel.uniform(1.37e-3)
        first.decoder_for(other)
        first.frame_sampler(other)
        assert calls == [False, False]

        # Source-carrying models stay uncached.
        assert first.detector_error_model(model, keep_sources=True) is not dem
        assert first.detector_error_model(model, keep_sources=True).sources is not None
        assert calls == [False, False, True, True]


@pytest.mark.parametrize("profile", available_profiles())
@pytest.mark.parametrize("simd", [False, True])
@pytest.mark.parametrize("basis", ["Z", "X"])
def test_every_memory_program_extracts_a_dem(basis, simd, profile):
    """Memory programs are Clifford under every shipped profile, with and
    without SIMD rescheduling, so the frame engine never needs a fallback;
    the extracted table matches the forward-walk oracle."""
    exp = MemoryExperiment(distance=3, basis=basis, simd=simd, profile=profile)
    noise = NoiseModel.preset("near_term", profile=profile)
    dem = exp.detector_error_model(noise)
    assert dem.n_detectors == exp.n_detectors
    assert dem.n_observables == 1
    assert dem.n_mechanisms > 0
    oracle = experiment_fault_table(exp, noise)
    assert_matches_forward_walk(exp.fault_table(noise), oracle, noise.params)


class TestInputValidation:
    @pytest.mark.parametrize("rounds", [0, -2])
    def test_rounds_below_one_rejected(self, rounds):
        with pytest.raises(ValueError, match=f"rounds must be at least 1 \\(got {rounds}\\)"):
            MemoryExperiment(distance=3, rounds=rounds)

    @pytest.mark.parametrize("engine", ["frame", "tableau"])
    def test_zero_shots_rejected(self, exp3, engine):
        with pytest.raises(ValueError, match="need at least one shot"):
            exp3.run(0, noise=NoiseModel.uniform(1e-3), engine=engine)
