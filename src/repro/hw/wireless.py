"""Wireless transceiver models and the inter-end communication link.

Section 4.2 evaluates three published ultra-low-power medical-implant
transceivers, reduced (as the paper itself does) to their energy-per-bit
figures:

========  ==================  ============  ============  ==========
Model     Reference design    Tx (nJ/bit)   Rx (nJ/bit)   Data rate
========  ==================  ============  ============  ==========
Model 1   FSK/MSK + OOK [5]   2.90          3.30          1 Mbps
Model 2   current-reuse [29]  1.53          1.71          2 Mbps
Model 3   MedRadio OOK [30]   0.42          0.295         2 Mbps
========  ==================  ============  ============  ==========

The common protocol carries an 8-bit header per payload (Section 4.2).
Bluetooth Low Energy is deliberately excluded, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.hw.arq import ARQConfig, UNBOUNDED_ARQ
from repro.hw.framing import FramingConfig

_NJ = 1e-9


@dataclass(frozen=True)
class TransceiverModel:
    """Energy-per-bit model of one wireless transceiver design.

    Attributes:
        name: Display name ("model1"..."model3").
        tx_nj_per_bit: Average transmission energy, nJ/bit (paper's Ct).
        rx_nj_per_bit: Average reception energy, nJ/bit (paper's Cr).
        data_rate_bps: Link data rate, bits/second (drives the delay model).
        header_bits: Protocol header prepended to each payload.
    """

    name: str
    tx_nj_per_bit: float
    rx_nj_per_bit: float
    data_rate_bps: float
    header_bits: int = 8

    def __post_init__(self) -> None:
        if self.tx_nj_per_bit <= 0 or self.rx_nj_per_bit <= 0:
            raise ConfigurationError("energy-per-bit must be positive")
        if self.data_rate_bps <= 0:
            raise ConfigurationError("data rate must be positive")
        if self.header_bits < 0:
            raise ConfigurationError("header_bits must be non-negative")


#: The three evaluated transceivers (Section 4.2), keyed by short name.
WIRELESS_MODELS: Dict[str, TransceiverModel] = {
    "model1": TransceiverModel("model1", 2.90, 3.30, 1e6),
    "model2": TransceiverModel("model2", 1.53, 1.71, 2e6),
    "model3": TransceiverModel("model3", 0.42, 0.295, 2e6),
}


#: Bluetooth Low Energy, for the exclusion study only.  The paper (§4.2)
#: deliberately leaves BLE out, citing measurements [47] that its
#: energy-per-bit sits orders of magnitude above the uW-level implant
#: radios; this model (effective ~50 nJ/bit with protocol overheads at
#: 1 Mbps application throughput) makes that argument quantitative in
#: ``benchmarks/test_bench_ablations.py``.
BLE_MODEL = TransceiverModel("ble", 50.0, 55.0, 1e6)


def get_wireless_model(name: str) -> TransceiverModel:
    """Look up a transceiver model by name (e.g. ``"model2"``)."""
    if name not in WIRELESS_MODELS:
        raise ConfigurationError(
            f"unknown wireless model {name!r}; available: {sorted(WIRELESS_MODELS)}"
        )
    return WIRELESS_MODELS[name]


class WirelessLink:
    """The inter-end communication link between sensor node and aggregator.

    Implements Eq. 3 of the paper::

        Ew = Nt * B * Ct + Nr * B * Cr

    plus the 8-bit protocol header per payload and the serialisation delay
    at the transceiver's data rate.

    A body-area channel is not loss-free: ``loss_rate`` models stop-and-wait
    retransmission under i.i.d. payload loss, inflating every energy and
    delay figure by the expected transmission count (acknowledgement
    traffic is folded into the per-bit figures, as the published
    transceiver measurements already include protocol overhead).  The
    paper's evaluation corresponds to ``loss_rate = 0``.

    Without an ``arq`` policy the legacy *unbounded* stop-and-wait model
    applies: expectation ``1 / (1 - p)``, which diverges as ``p`` tends to
    1, so ``loss_rate = 1`` is rejected deterministically.  With a bounded
    :class:`~repro.hw.arq.ARQConfig` the truncated-geometric model applies
    instead: every figure stays finite for all ``p`` in ``[0, 1]`` (it
    saturates at ``max_retries + 1`` transmissions) at the cost of a
    nonzero payload-drop probability, which the resilience layer
    (:mod:`repro.sim.faults`, :mod:`repro.core.degrade`) handles.

    Args:
        model: Transceiver model (name or object).
        loss_rate: Per-payload loss probability; ``[0, 1)`` without ARQ,
            ``[0, 1]`` with a bounded ARQ policy.
        arq: Retransmission policy; None selects the legacy unbounded
            stop-and-wait model (the paper-compatible default).
        framing: Optional data-plane framing (:mod:`repro.hw.framing`).
            ``None`` reproduces the paper's zero-overhead accounting
            bit-for-bit: one 8-bit radio header per payload, no frame
            headers, no CRC.  With a :class:`FramingConfig` the payload is
            serialised into frames and every frame is charged its header,
            its optional CRC-16 trailer and its own radio header — the
            honest cost of wire integrity.
    """

    def __init__(
        self,
        model: TransceiverModel | str = "model2",
        loss_rate: float = 0.0,
        arq: Optional[ARQConfig] = None,
        framing: Optional[FramingConfig] = None,
    ) -> None:
        self.model = get_wireless_model(model) if isinstance(model, str) else model
        self.arq = UNBOUNDED_ARQ if arq is None else arq
        self.framing = framing
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")
        if loss_rate == 1.0 and not self.arq.bounded:
            raise ConfigurationError(
                "loss_rate = 1 diverges under unbounded stop-and-wait "
                "(expected transmissions 1/(1-p)); pass a bounded ARQConfig "
                "to saturate at max_retries + 1 transmissions instead"
            )
        self.loss_rate = float(loss_rate)

    @property
    def expected_transmissions(self) -> float:
        """Mean transmissions per payload under the loss/ARQ model."""
        return self.arq.expected_transmissions(self.loss_rate)

    @property
    def delivery_probability(self) -> float:
        """Probability a payload is delivered within the ARQ try budget."""
        return self.arq.delivery_probability(self.loss_rate)

    def payload_bits(self, n_values: int, bits_per_value: int) -> int:
        """Total on-air bits for one payload of ``n_values`` samples.

        Without framing this is the paper's accounting: raw value bits
        plus one 8-bit radio header.  With framing, the values are packed
        into bytes and fragmented into frames, and each frame pays its
        5-byte header, its CRC-16 trailer (when enabled) and its own radio
        header.
        """
        if n_values < 0 or bits_per_value <= 0:
            raise ConfigurationError("invalid payload shape")
        if n_values == 0:
            return 0
        if self.framing is None:
            return n_values * bits_per_value + self.model.header_bits
        payload_bytes = -(-n_values * bits_per_value // 8)
        n_frames = self.framing.frame_count(payload_bytes)
        return (
            self.framing.framed_bits(payload_bytes)
            + n_frames * self.model.header_bits
        )

    def framing_overhead_bits(self, n_values: int, bits_per_value: int) -> int:
        """Extra on-air bits the framing layer adds over the legacy path."""
        if self.framing is None or n_values == 0:
            return 0
        legacy = n_values * bits_per_value + self.model.header_bits
        return self.payload_bits(n_values, bits_per_value) - legacy

    def tx_energy(self, n_values: int, bits_per_value: int) -> float:
        """Sensor-side energy (J) to transmit one payload (retries included)."""
        return (
            self.payload_bits(n_values, bits_per_value)
            * self.model.tx_nj_per_bit
            * _NJ
            * self.expected_transmissions
        )

    def rx_energy(self, n_values: int, bits_per_value: int) -> float:
        """Receiver-side energy (J) to receive one payload (retries included)."""
        return (
            self.payload_bits(n_values, bits_per_value)
            * self.model.rx_nj_per_bit
            * _NJ
            * self.expected_transmissions
        )

    def transfer_delay(self, n_values: int, bits_per_value: int) -> float:
        """Expected link occupancy (s) of one payload.

        Covers on-air serialisation of every expected transmission plus
        the expected ARQ backoff waits (zero under the legacy unbounded
        policy, which models ideal stop-and-wait).
        """
        bits = self.payload_bits(n_values, bits_per_value)
        if bits == 0:
            return 0.0
        return (
            bits / self.model.data_rate_bps * self.expected_transmissions
            + self.arq.expected_backoff_s(self.loss_rate)
        )

    def worst_case_transfer_delay(
        self, n_values: int, bits_per_value: int
    ) -> float:
        """Worst-case link occupancy (s) of one payload.

        Finite whenever the ARQ policy is bounded; ``inf`` under the
        legacy unbounded stop-and-wait model on a lossy channel.
        """
        bits = self.payload_bits(n_values, bits_per_value)
        if bits == 0:
            return 0.0
        if self.loss_rate == 0.0:
            return bits / self.model.data_rate_bps
        return self.arq.worst_case_delay_s(bits / self.model.data_rate_bps)

    def tx_energy_bits(self, bits: int) -> float:
        """Energy (J) to transmit a raw bit count (header already included)."""
        if bits < 0:
            raise ConfigurationError("bits must be non-negative")
        return bits * self.model.tx_nj_per_bit * _NJ * self.expected_transmissions

    def single_try_tx_energy_bits(self, bits: int) -> float:
        """Energy (J) of exactly one transmission of a raw bit count.

        Unlike :meth:`tx_energy_bits` this does *not* scale by the
        expected-transmission count of the loss/ARQ model — it is the
        per-attempt figure the supervision layer needs when a circuit
        breaker (:class:`~repro.sim.supervise.LinkCircuitBreaker`) caps
        attempts per event, so retries are counted as they actually
        happen instead of in expectation.
        """
        if bits < 0:
            raise ConfigurationError("bits must be non-negative")
        return bits * self.model.tx_nj_per_bit * _NJ
