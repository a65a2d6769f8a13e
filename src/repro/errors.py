"""Exception hierarchy for the XPro reproduction library.

Every error raised by :mod:`repro` derives from :class:`XProError`, so
callers can catch one type to handle any library failure while still
distinguishing configuration mistakes from solver failures.
"""

from __future__ import annotations


class XProError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(XProError):
    """An object was constructed or configured with invalid parameters."""


class TopologyError(XProError):
    """A functional-cell topology is malformed (cycles, dangling ports...)."""


class PartitionError(XProError):
    """The Automatic XPro Generator could not produce a valid partition."""


class InfeasibleConstraintError(PartitionError):
    """No partition satisfies the requested delay constraint.

    By construction (Eq. 4 of the paper) this should never happen when the
    constraint is ``min(T_sensor, T_aggregator)``, because at least one of the
    two single-end extreme cuts is always feasible.  It can happen for
    user-supplied tighter constraints.
    """


class DataValidationError(ConfigurationError):
    """Input data failed validation (non-finite samples, empty or
    inconsistent datasets).  Subclasses :class:`ConfigurationError` so
    existing handlers keep working."""


class IntegrityError(XProError):
    """A wire-format integrity check failed (bad frame, CRC mismatch)."""


class SimulationError(XProError):
    """The cross-end system simulator reached an inconsistent state."""


class TrainingError(XProError):
    """A classifier could not be trained (degenerate data, no convergence)."""


class PerfRegressionError(XProError):
    """A measured performance metric regressed past the allowed threshold
    relative to the committed baseline (see :mod:`repro.eval.perf`)."""


class ReplayMismatchError(XProError):
    """A chaos replay bundle did not reproduce its pinned report digest
    bit-for-bit (see :mod:`repro.sim.chaos`)."""


class ChaosRegressionError(XProError):
    """The adversarial chaos search found a worst case materially worse
    than the committed baseline allows (see :mod:`repro.eval.chaos`)."""


class CheckpointError(XProError):
    """A checkpoint file is missing, tampered with, or was written for a
    different run configuration (see :mod:`repro.sim.checkpoint`)."""


class SupervisionGateError(XProError):
    """The supervision benchmark failed an acceptance gate: the circuit
    breaker did not save wasted retry energy, availability regressed, or
    checkpoint/resume was not bit-identical (see
    :mod:`repro.eval.supervision`)."""
