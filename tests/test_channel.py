"""Tests for the Gilbert-Elliott bursty channel model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.channel import (
    GilbertElliottChannel,
    GilbertElliottParams,
    ge_outcome_block,
)


def burst_lengths(outcomes):
    """Lengths of consecutive-loss runs in an outcome sequence."""
    arr = np.asarray(outcomes, dtype=bool)
    if arr.ndim != 1:
        raise ConfigurationError("outcomes must be one-dimensional")
    lengths = []
    run = 0
    for lost in arr:
        if lost:
            run += 1
        elif run:
            lengths.append(run)
            run = 0
    if run:
        lengths.append(run)
    return np.asarray(lengths, dtype=int)


class TestParams:
    def test_stationary_quantities(self):
        p = GilbertElliottParams(0.02, 0.08, 0.0, 0.5)
        assert p.stationary_bad_fraction == pytest.approx(0.2)
        assert p.stationary_loss_rate == pytest.approx(0.1)
        assert p.mean_burst_length == pytest.approx(12.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottParams(p_good_to_bad=0.0)
        with pytest.raises(ConfigurationError):
            GilbertElliottParams(loss_bad=1.0)


class TestChannel:
    def test_empirical_loss_matches_stationary(self):
        params = GilbertElliottParams(0.02, 0.1, 0.01, 0.6)
        channel = GilbertElliottChannel(params, seed=1)
        outcomes = channel.outcomes(60_000)
        assert outcomes.mean() == pytest.approx(
            params.stationary_loss_rate, abs=0.02
        )

    def test_burstier_than_iid(self):
        """At matched mean loss, the GE channel's losses cluster: its mean
        loss-run length exceeds the i.i.d. channel's."""
        params = GilbertElliottParams(0.01, 0.08, 0.005, 0.7)
        channel = GilbertElliottChannel(params, seed=3)
        ge_outcomes = channel.outcomes(40_000)
        rng = np.random.default_rng(3)
        iid_outcomes = rng.random(40_000) < ge_outcomes.mean()
        ge_bursts = burst_lengths(ge_outcomes)
        iid_bursts = burst_lengths(iid_outcomes)
        assert ge_bursts.mean() > 1.5 * iid_bursts.mean()

    @pytest.mark.parametrize(
        "params",
        [
            GilbertElliottParams(0.02, 0.1, 0.01, 0.6),
            GilbertElliottParams(0.05, 0.05, 0.0, 0.9),
            GilbertElliottParams(0.2, 0.4, 0.02, 0.3),
        ],
    )
    def test_long_run_loss_matches_stationary(self, params):
        """Empirical loss over a long seeded run sits within a few relative
        percent of the closed-form stationary loss rate."""
        channel = GilbertElliottChannel(params, seed=7)
        outcomes = channel.outcomes(200_000)
        assert outcomes.mean() == pytest.approx(
            params.stationary_loss_rate, rel=0.08
        )

    def test_reproducible_by_seed(self):
        a = GilbertElliottChannel(seed=9).outcomes(500)
        b = GilbertElliottChannel(seed=9).outcomes(500)
        assert np.array_equal(a, b)

    def test_same_seed_identical_trace_stepwise(self):
        """Same seed => bit-identical traces, whether drawn one outcome at
        a time or as a batch, including the hidden state trajectory."""
        params = GilbertElliottParams(0.05, 0.08, 0.01, 0.7)
        stepped = GilbertElliottChannel(params, seed=21)
        trace = [(stepped.next_outcome(), stepped.in_bad_state)
                 for _ in range(2_000)]
        batch = GilbertElliottChannel(params, seed=21).outcomes(2_000)
        assert [lost for lost, _ in trace] == batch.tolist()
        replay = GilbertElliottChannel(params, seed=21)
        assert [(replay.next_outcome(), replay.in_bad_state)
                for _ in range(2_000)] == trace

    def test_different_seeds_diverge(self):
        params = GilbertElliottParams(0.05, 0.08, 0.01, 0.7)
        a = GilbertElliottChannel(params, seed=1).outcomes(5_000)
        b = GilbertElliottChannel(params, seed=2).outcomes(5_000)
        assert not np.array_equal(a, b)

    def test_state_exposed(self):
        channel = GilbertElliottChannel(
            GilbertElliottParams(1.0, 1.0, 0.0, 0.9), seed=0
        )
        channel.next_outcome()
        assert isinstance(channel.in_bad_state, bool)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottChannel().outcomes(0)


class TestOutcomeBlock:
    """The N-D chain solver behind outcome_block and the SoA fleet engine."""

    def test_matrix_rows_match_independent_channels(self):
        """A 2-D ge_outcome_block call (one row per chain) is bit-identical
        to stepping one GilbertElliottChannel per row on the same draws."""
        params = GilbertElliottParams(0.05, 0.08, 0.02, 0.7)
        rng = np.random.default_rng(31)
        n_chains, n_steps = 7, 64
        ut = rng.random((n_chains, n_steps))
        ul = rng.random((n_chains, n_steps))
        bad0 = rng.random(n_chains) < params.stationary_bad_fraction
        loss, final_bad = ge_outcome_block(bad0, ut, ul, params)
        assert loss.shape == (n_chains, n_steps)
        assert final_bad.shape == (n_chains,)
        for i in range(n_chains):
            row_loss, row_bad = ge_outcome_block(
                bad0[i : i + 1], ut[i : i + 1], ul[i : i + 1], params
            )
            assert np.array_equal(loss[i], row_loss[0])
            assert final_bad[i] == row_bad[0]

    def test_matrix_matches_scalar_chain_walk(self):
        """Each row agrees with the textbook one-step-at-a-time recurrence."""
        params = GilbertElliottParams(0.2, 0.3, 0.05, 0.6)
        rng = np.random.default_rng(5)
        ut = rng.random((3, 40))
        ul = rng.random((3, 40))
        bad0 = np.array([False, True, False])
        loss, final_bad = ge_outcome_block(bad0, ut, ul, params)
        for i in range(3):
            bad = bool(bad0[i])
            for t in range(40):
                flip = ut[i, t] < (
                    params.p_bad_to_good if bad else params.p_good_to_bad
                )
                if flip:
                    bad = not bad
                expect = ul[i, t] < (
                    params.loss_bad if bad else params.loss_good
                )
                assert loss[i, t] == expect
            assert final_bad[i] == bad

    def test_validation(self):
        params = GilbertElliottParams()
        with pytest.raises(ConfigurationError):
            ge_outcome_block(
                np.zeros(2, dtype=bool),
                np.zeros((2, 3)),
                np.zeros((2, 4)),
                params,
            )
        with pytest.raises(ConfigurationError):
            ge_outcome_block(
                np.zeros(2, dtype=bool),
                np.zeros((2, 0)),
                np.zeros((2, 0)),
                params,
            )


class TestInjectedGenerator:
    def test_rng_injection_shares_the_stream(self):
        """Channels built with rng= consume the shared generator in
        construction order — the scalar-twin discipline of the fleet
        engine: the same stream, drawn per-object, reproduces the
        seed-constructed channels exactly."""
        params = GilbertElliottParams(0.05, 0.08, 0.02, 0.7)
        shared = np.random.default_rng(17)
        a = GilbertElliottChannel(params, rng=shared)
        b = GilbertElliottChannel(params, rng=shared)
        # Reference: same stream, drawn manually.
        ref_rng = np.random.default_rng(17)
        ref_a = GilbertElliottChannel(params, rng=ref_rng)
        ref_b = GilbertElliottChannel(params, rng=ref_rng)
        trace = [(a.next_outcome(), b.next_outcome()) for _ in range(200)]
        ref = [(ref_a.next_outcome(), ref_b.next_outcome()) for _ in range(200)]
        assert trace == ref
        assert (a.in_bad_state, b.in_bad_state) == (
            ref_a.in_bad_state,
            ref_b.in_bad_state,
        )


class TestBurstLengths:
    def test_known_sequence(self):
        outcomes = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert burst_lengths(outcomes).tolist() == [2, 1, 3]

    def test_no_losses(self):
        assert burst_lengths(np.zeros(10, dtype=bool)).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            burst_lengths(np.zeros((2, 2), dtype=bool))


class TestAdaptiveIntegration:
    def test_controller_survives_bursty_channel(
        self, tiny_topology, energy_lib_90, cpu_model
    ):
        from repro.core.adaptive import AdaptivePartitionController
        from repro.core.generator import AutomaticXProGenerator
        from repro.hw.wireless import WirelessLink

        generator = AutomaticXProGenerator(
            tiny_topology, energy_lib_90, WirelessLink("model2"), cpu_model
        )
        controller = AdaptivePartitionController(generator, recheck_interval=50)
        channel = GilbertElliottChannel(
            GilbertElliottParams(0.05, 0.05, 0.01, 0.7), seed=4
        )
        for _ in range(300):
            controller.observe_event(channel.next_outcome())
        # Decisions happened and never increased per-event energy.
        assert len(controller.history) == 6
        for event in controller.history:
            assert event.energy_after_j <= event.energy_before_j + 1e-18
