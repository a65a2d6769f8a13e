"""Bursty body-area channel model (Gilbert-Elliott).

The lossy-link extension (:class:`repro.hw.wireless.WirelessLink` with
``loss_rate``) assumes i.i.d. payload loss.  Real body-area channels are
*bursty*: posture changes and passing interferers produce clustered loss.
The classic two-state Gilbert-Elliott chain captures that:

- state **G** (good): low loss probability;
- state **B** (bad): high loss probability;
- geometric dwell times set by the transition probabilities.

The model produces per-payload outcomes for driving the adaptive
controller and the DES, and exposes the closed-form stationary loss rate
so a matched i.i.d. channel can be constructed for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GilbertElliottParams:
    """Parameters of the two-state chain.

    Attributes:
        p_good_to_bad: Per-payload probability of entering the bad state.
        p_bad_to_good: Per-payload probability of recovering.
        loss_good: Payload-loss probability in the good state.
        loss_bad: Payload-loss probability in the bad state.
    """

    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.10
    loss_good: float = 0.01
    loss_bad: float = 0.6

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1]")
        for name in ("loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")

    @property
    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time spent in the bad state."""
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run mean payload-loss probability."""
        bad = self.stationary_bad_fraction
        return bad * self.loss_bad + (1.0 - bad) * self.loss_good

    @property
    def mean_burst_length(self) -> float:
        """Expected consecutive payloads spent in one bad-state visit."""
        return 1.0 / self.p_bad_to_good


def ge_outcome_block(
    bad0: np.ndarray,
    ut: np.ndarray,
    ul: np.ndarray,
    params: GilbertElliottParams,
) -> tuple:
    """Resolve the Gilbert-Elliott recurrence for pre-drawn uniform blocks.

    The chain-scan core shared by :meth:`GilbertElliottChannel.outcome_block`
    (one chain) and the struct-of-arrays fleet engine
    (:mod:`repro.sim.fleetsoa`, one row per device): each step's transition
    uniform classifies it as a *setter* (pins the state regardless of
    history), a *flip* (both transition tests fire, so the state toggles),
    or an identity; the state at step ``t`` is then the last setter's value
    XOR the parity of flips since it, computed with ``maximum.accumulate``
    and ``cumsum`` along the step axis.

    Args:
        bad0: Initial chain state(s); shape ``ut.shape[:-1]`` (a scalar
            for one chain, ``(n_chains,)`` for a matrix of chains).
        ut: Transition uniforms, one per step, steps on the last axis.
        ul: Loss uniforms, same shape as ``ut``.
        params: Chain parameters.

    Returns:
        ``(loss, final_bad)`` — boolean loss outcomes shaped like ``ut``
        and the chain state(s) after the last step, shaped like ``bad0``.
        Outcomes are bit-identical to stepping each chain with
        :meth:`GilbertElliottChannel.next_outcome` over the same uniforms.
    """
    ut = np.asarray(ut, dtype=np.float64)
    ul = np.asarray(ul, dtype=np.float64)
    if ut.shape != ul.shape or ut.ndim < 1 or ut.shape[-1] < 1:
        raise ConfigurationError(
            "ut and ul must share a shape with at least one step"
        )
    bad_start = np.asarray(bad0, dtype=bool)
    if bad_start.shape != ut.shape[:-1]:
        raise ConfigurationError(
            f"bad0 shape {bad_start.shape} must equal ut.shape[:-1] "
            f"{ut.shape[:-1]}"
        )
    n = ut.shape[-1]
    would_enter_bad = ut < params.p_good_to_bad
    would_recover = ut < params.p_bad_to_good
    flip = would_enter_bad & would_recover
    setter = would_enter_bad ^ would_recover
    idx = np.arange(n)
    last_set = np.maximum.accumulate(np.where(setter, idx, -1), axis=-1)
    flips = np.cumsum(flip, axis=-1)
    set_val = would_enter_bad.astype(np.int64)
    anchor = np.clip(last_set, 0, None)
    set_at_anchor = np.take_along_axis(set_val, anchor, axis=-1)
    flips_at_anchor = np.take_along_axis(flips, anchor, axis=-1)
    start = np.expand_dims(bad_start.astype(np.int64), -1)
    base = np.where(last_set >= 0, set_at_anchor, start)
    parity = np.where(last_set >= 0, flips - flips_at_anchor, flips) & 1
    state = base ^ parity
    loss = ul < np.where(state, params.loss_bad, params.loss_good)
    return loss, state[..., -1].astype(bool).reshape(bad_start.shape)


class GilbertElliottChannel:
    """Stateful per-payload loss source.

    Args:
        params: Chain parameters.
        seed: Random seed; the channel owns its generator so simulations
            are reproducible.
        rng: Optional externally owned generator.  When given it is used
            *instead* of ``seed``; several channels constructed with the
            same generator share one stream in construction order, which
            is how the fleet scalar twin (:mod:`repro.sim.fleetsoa`)
            reproduces the per-network block draws of the SoA engine.
    """

    def __init__(
        self,
        params: GilbertElliottParams = GilbertElliottParams(),
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        self.params = params
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._bad = self._rng.random() < params.stationary_bad_fraction

    @property
    def in_bad_state(self) -> bool:
        """Whether the chain currently sits in the bad state."""
        return self._bad

    def next_outcome(self) -> bool:
        """Advance one payload; returns True if it was lost."""
        p = self.params
        if self._bad:
            if self._rng.random() < p.p_bad_to_good:
                self._bad = False
        else:
            if self._rng.random() < p.p_good_to_bad:
                self._bad = True
        loss_prob = p.loss_bad if self._bad else p.loss_good
        return bool(self._rng.random() < loss_prob)

    def outcome_block(self, n: int) -> np.ndarray:
        """Vectorized :meth:`next_outcome` for ``n`` consecutive payloads.

        Consumes the generator stream in exactly the scalar order (one
        transition uniform then one loss uniform per payload), so the
        outcomes — and the chain state left behind — are bit-identical
        to ``n`` sequential :meth:`next_outcome` calls on the same seed.

        The state recurrence is resolved without a Python loop by
        :func:`ge_outcome_block` (setter/flip classification,
        ``maximum.accumulate`` + ``cumsum`` parity), shared with the
        struct-of-arrays fleet engine where it runs on one row per
        device.
        """
        if n <= 0:
            raise ConfigurationError("n must be positive")
        draws = self._rng.random(2 * n)
        loss, final_bad = ge_outcome_block(
            np.asarray(self._bad, dtype=bool),
            draws[0::2],
            draws[1::2],
            self.params,
        )
        self._bad = bool(final_bad)
        return loss

    def outcomes(self, n: int) -> np.ndarray:
        """Boolean loss outcomes for ``n`` consecutive payloads."""
        return self.outcome_block(n)

