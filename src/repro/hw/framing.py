"""Byte-level data-plane framing: Q16.16 serialisation, CRC-16, sequencing.

The paper charges every transferred intermediate for TX/RX energy
(Section 4.5) but says nothing about how those Q16.16 words survive a
body-area channel.  Real wearable stacks frame their payloads: a header
carrying a version, flags, a sequence number and the payload length, the
payload itself, and a CRC trailer that lets the receiver reject corrupted
bits instead of silently folding them into downstream features.  This
module provides that layer as concrete bytes, so fault injection can flip
*real* bits and the CRC has to earn its detections:

- :func:`encode_values` / :func:`decode_values` -- the Q16.16 payload
  serialiser (big-endian two's-complement raw words, saturating exactly
  like the :mod:`repro.dsp.fixedpoint` datapath);
- :func:`crc16_ccitt` -- CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF),
  the 16-bit CRC BLE and IEEE 802.15.4 data frames use;
- :class:`FramingConfig`, :func:`encode_frame`, :func:`decode_frame`,
  :func:`fragment_payload` -- the frame codec and fragmenter;
- :class:`FrameReassembler` -- the receiver: verifies CRCs, tracks
  sequence numbers (duplicates, reordering, gaps) and exposes
  :class:`IntegrityCounters` including a silent-escape estimate.

Batch data plane
----------------

The per-frame codec above processes one byte at a time in Python, which
makes it the dominant cost of the fault-injection harnesses.  The batch
codec removes that: frames live in a padded ``(n_frames, max_len)``
``uint8`` matrix with per-frame lengths, and every per-byte loop becomes
a numpy operation vectorised *across frames*, except the CRC itself,
which runs per row in C:

- :func:`batch_crc16_ccitt` -- CRC-16 of N byte strings at once, one
  stdlib :func:`binascii.crc_hqx` call per row (the same
  CRC-16/CCITT-FALSE), bit-identical to :func:`crc16_ccitt` per row;
- :func:`encode_values` / :func:`decode_values` are vectorised
  internally (``encode_values_scalar`` / ``decode_values_scalar`` keep
  the per-value reference implementations);
- :func:`encode_frames` / :func:`decode_frames` -- the batch frame
  codec, bit-identical to :func:`encode_frame` / :func:`decode_frame`
  per row;
- :func:`pack_byte_rows` / :func:`unpack_byte_rows` -- conversions
  between byte strings and the padded-matrix representation.

A 16-bit CRC is not a proof of integrity: a uniformly random corruption
passes with probability ``2**-16``.  The counters therefore carry an
*estimate* of silent escapes alongside the detected count, which is the
honest way to report CRC protection.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsp.fixedpoint import FixedPointFormat, Q16_16
from repro.errors import ConfigurationError, IntegrityError

#: Frame header layout: 1 byte version/flags, 2 bytes sequence number,
#: 2 bytes payload length — all big-endian.
HEADER_BYTES = 5

#: CRC-16 trailer width.
CRC_BYTES = 2

#: Current wire-format version (4 bits on the wire).
FRAME_VERSION = 1

#: Sequence numbers live in an unsigned 16-bit space and wrap.
SEQ_MODULUS = 1 << 16

#: Flag bit: a CRC-16 trailer follows the payload.
FLAG_CRC = 0x01

#: Flag bit: this frame is the last fragment of its payload.
FLAG_LAST = 0x02

#: Probability a uniformly random corruption passes a 16-bit CRC.
CRC16_ESCAPE_PROBABILITY = 2.0**-16


def _crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC16_TABLE = _crc16_table()


def crc16_ccitt(data: bytes, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (poly 0x1021, MSB-first).

    The pure-Python reference of :func:`batch_crc16_ccitt`.
    """
    crc = init & 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def pack_byte_rows(rows: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack byte strings into a zero-padded ``(n, max_len)`` uint8 matrix.

    Returns:
        ``(matrix, lengths)`` — bytes of row ``i`` occupy
        ``matrix[i, :lengths[i]]``; the padding beyond each length is 0.
    """
    lengths = np.fromiter((len(r) for r in rows), dtype=np.int64,
                          count=len(rows))
    max_len = int(lengths.max()) if len(rows) else 0
    matrix = np.zeros((len(rows), max_len), dtype=np.uint8)
    if max_len:
        flat = np.frombuffer(b"".join(rows), dtype=np.uint8)
        row_idx = np.repeat(np.arange(len(rows)), lengths)
        col_idx = np.arange(lengths.sum()) - np.repeat(
            np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths
        )
        matrix[row_idx, col_idx] = flat
    return matrix, lengths


def unpack_byte_rows(matrix: np.ndarray, lengths: np.ndarray) -> List[bytes]:
    """Inverse of :func:`pack_byte_rows`: per-row byte strings."""
    data = np.ascontiguousarray(matrix, dtype=np.uint8)
    return [data[i, : int(n)].tobytes() for i, n in enumerate(lengths)]


def batch_crc16_ccitt(
    frames: Union[np.ndarray, Sequence[bytes]],
    lengths: Optional[np.ndarray] = None,
    init: int = 0xFFFF,
) -> np.ndarray:
    """CRC-16/CCITT-FALSE of N byte strings at once.

    Row ``i`` of the result equals ``crc16_ccitt(frames[i][:lengths[i]])``
    bit-for-bit.  Each row is one :func:`binascii.crc_hqx` call over a
    slice of the matrix's bytes: ``crc_hqx`` is the same CRC (poly
    0x1021, MSB-first, no final xor) computed in C, so the only Python
    loop is over rows, and padding past a row's length is never read.

    Args:
        frames: ``(n, max_len)`` uint8 matrix (rows padded past their
            length) or a sequence of byte strings.
        lengths: Per-row byte counts; defaults to the full matrix width.
        init: CRC register preset (0xFFFF for CRC-16/CCITT-FALSE).

    Returns:
        ``(n,)`` uint16 CRC array.
    """
    if not isinstance(frames, np.ndarray):
        frames, lengths = pack_byte_rows(frames)
    matrix = np.ascontiguousarray(frames, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ConfigurationError("frames must be a (n_frames, max_len) matrix")
    n, max_len = matrix.shape
    if lengths is None:
        lengths = np.full(n, max_len, dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (n,):
            raise ConfigurationError("lengths must have one entry per frame")
        if lengths.min(initial=0) < 0 or lengths.max(initial=0) > max_len:
            raise ConfigurationError("frame lengths must be in [0, max_len]")
    data = memoryview(matrix.tobytes())
    init &= 0xFFFF
    starts = range(0, n * max_len, max_len) if max_len else [0] * n
    return np.fromiter(
        (
            binascii.crc_hqx(data[start : start + length], init)
            for start, length in zip(starts, lengths.tolist())
        ),
        dtype=np.uint16,
        count=n,
    )


# -- Q16.16 payload serialisation ---------------------------------------------


def _serial_width(fmt: FixedPointFormat) -> int:
    """Word width in bytes; rejects non-byte-aligned formats."""
    if fmt.total_bits % 8 != 0:
        raise ConfigurationError(
            f"serialisation needs a byte-aligned format, got {fmt.total_bits} bits"
        )
    return fmt.total_bits // 8


def encode_values_scalar(values, fmt: FixedPointFormat = Q16_16) -> bytes:
    """Per-value reference implementation of :func:`encode_values`."""
    width = _serial_width(fmt)
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(arr).all():
        raise ConfigurationError("cannot serialise non-finite values")
    out = bytearray()
    for value in arr:
        raw = fmt.from_float(float(value))
        out += raw.to_bytes(width, "big", signed=True)
    return bytes(out)


def decode_values_scalar(data: bytes, fmt: FixedPointFormat = Q16_16) -> np.ndarray:
    """Per-value reference implementation of :func:`decode_values`."""
    width = _serial_width(fmt)
    if len(data) % width != 0:
        raise IntegrityError(
            f"payload length {len(data)} is not a multiple of the "
            f"{width}-byte word size"
        )
    values = [
        fmt.to_float(int.from_bytes(data[i : i + width], "big", signed=True))
        for i in range(0, len(data), width)
    ]
    return np.asarray(values, dtype=np.float64)


def quantize_raw(values, fmt: FixedPointFormat = Q16_16) -> np.ndarray:
    """Vectorised :meth:`FixedPointFormat.from_float`: raw words as int64.

    Applies the exact round-half-away / saturate semantics of the scalar
    datapath to a whole array at once.
    """
    arr = np.asarray(values, dtype=np.float64)
    scaled = np.where(
        arr >= 0,
        np.floor(arr * fmt.scale + 0.5),
        -np.floor(-arr * fmt.scale + 0.5),
    )
    return np.clip(scaled, fmt.min_raw, fmt.max_raw).astype(np.int64)


def encode_values(values, fmt: FixedPointFormat = Q16_16) -> bytes:
    """Serialise real values as big-endian two's-complement ``fmt`` words.

    Each value is quantised exactly as the fixed-point datapath would
    (round-half-away, saturate), so a value already on the ``fmt`` grid
    round-trips bit-identically — including both saturation boundaries.
    Vectorised; byte-for-byte identical to :func:`encode_values_scalar`.
    """
    width = _serial_width(fmt)
    if width > 8:  # beyond one int64 word: keep the arbitrary-width path
        return encode_values_scalar(values, fmt)
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(arr).all():
        raise ConfigurationError("cannot serialise non-finite values")
    return raw_to_bytes(quantize_raw(arr, fmt), width)


def raw_to_bytes(raw: np.ndarray, width: int) -> bytes:
    """Big-endian two's-complement serialisation of int64 raw words."""
    if width in (1, 2, 4, 8):
        return raw.astype(f">i{width}").tobytes()
    # Arbitrary width: arithmetic shifts of the sign-extended int64 word
    # yield exactly the low `width` two's-complement bytes.
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64) * 8
    return ((raw[:, None] >> shifts) & 0xFF).astype(np.uint8).tobytes()


def decode_values(data: bytes, fmt: FixedPointFormat = Q16_16) -> np.ndarray:
    """Inverse of :func:`encode_values`; returns float64 on the ``fmt`` grid.

    Vectorised; element-for-element identical to
    :func:`decode_values_scalar`.
    """
    width = _serial_width(fmt)
    # int64 reconstruction and exact float64 division both need the raw
    # word inside the double's 53-bit mantissa; wider formats fall back.
    if width > 8 or fmt.total_bits > 52:
        return decode_values_scalar(data, fmt)
    if len(data) % width != 0:
        raise IntegrityError(
            f"payload length {len(data)} is not a multiple of the "
            f"{width}-byte word size"
        )
    if width in (1, 2, 4, 8):
        raw = np.frombuffer(data, dtype=f">i{width}").astype(np.int64)
    else:
        chunks = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
        unsigned = np.zeros(len(chunks), dtype=np.int64)
        for col in range(width):
            unsigned = (unsigned << 8) | chunks[:, col]
        sign_bit = np.int64(1) << (8 * width - 1)
        raw = unsigned - ((unsigned & sign_bit) << 1)
    return raw / fmt.scale


# -- frame codec --------------------------------------------------------------


@dataclass(frozen=True)
class FramingConfig:
    """Wire-format parameters of the data-plane framing layer.

    Attributes:
        max_payload_bytes: Fragmentation threshold; payloads longer than
            this are split across frames.
        crc: Whether frames carry (and the receiver checks) a CRC-16
            trailer.  ``False`` models the no-protection baseline, where
            corruption is undetectable by construction.
        version: Wire-format version stamped into every header (4 bits).
    """

    max_payload_bytes: int = 64
    crc: bool = True
    version: int = FRAME_VERSION

    def __post_init__(self) -> None:
        if not 1 <= self.max_payload_bytes <= 0xFFFF:
            raise ConfigurationError("max_payload_bytes must be in [1, 65535]")
        if not 0 <= self.version <= 0xF:
            raise ConfigurationError("version must fit in 4 bits")

    @property
    def header_bits(self) -> int:
        """Header width in bits."""
        return HEADER_BYTES * 8

    @property
    def crc_bits(self) -> int:
        """Trailer width in bits (0 when CRC protection is off)."""
        return CRC_BYTES * 8 if self.crc else 0

    @property
    def overhead_bits_per_frame(self) -> int:
        """Header + trailer bits added to every frame."""
        return self.header_bits + self.crc_bits

    def frame_count(self, payload_bytes: int) -> int:
        """Frames needed to carry a payload of ``payload_bytes`` bytes."""
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be non-negative")
        if payload_bytes == 0:
            return 0
        return -(-payload_bytes // self.max_payload_bytes)

    def framed_bits(self, payload_bytes: int) -> int:
        """Total on-air bits of a framed payload (excluding radio headers)."""
        return 8 * payload_bytes + self.frame_count(payload_bytes) * (
            self.overhead_bits_per_frame
        )


@dataclass(frozen=True)
class Frame:
    """One decoded frame.

    Attributes:
        seq: 16-bit sequence number.
        payload: Payload bytes.
        last: Whether this frame closes its payload (FLAG_LAST).
        crc_protected: Whether the frame carried a verified CRC trailer.
    """

    seq: int
    payload: bytes
    last: bool
    crc_protected: bool


def encode_frame(
    payload: bytes,
    seq: int,
    config: FramingConfig,
    last: bool = True,
) -> bytes:
    """Encode one frame: header, payload, optional CRC-16 trailer."""
    if len(payload) > config.max_payload_bytes:
        raise ConfigurationError(
            f"payload of {len(payload)} bytes exceeds max_payload_bytes="
            f"{config.max_payload_bytes}; fragment it first"
        )
    flags = (FLAG_CRC if config.crc else 0) | (FLAG_LAST if last else 0)
    header = bytes(
        [
            (config.version << 4) | flags,
            (seq >> 8) & 0xFF,
            seq & 0xFF,
            (len(payload) >> 8) & 0xFF,
            len(payload) & 0xFF,
        ]
    )
    body = header + payload
    if config.crc:
        crc = crc16_ccitt(body)
        body += bytes([(crc >> 8) & 0xFF, crc & 0xFF])
    return body


def decode_frame(data: bytes, config: FramingConfig) -> Frame:
    """Decode and verify one frame; raises :class:`IntegrityError` on any
    malformation the wire format can detect (short frame, bad version,
    length mismatch, CRC failure).

    Without CRC protection only *structural* damage is detectable; bit
    flips confined to the payload decode successfully — the silent
    corruption this layer exists to expose.
    """
    if len(data) < HEADER_BYTES:
        raise IntegrityError(f"frame of {len(data)} bytes is shorter than a header")
    version = data[0] >> 4
    flags = data[0] & 0x0F
    if version != config.version:
        raise IntegrityError(
            f"frame version {version} does not match expected {config.version}"
        )
    has_crc = bool(flags & FLAG_CRC)
    if has_crc != config.crc:
        raise IntegrityError(
            "frame CRC flag does not match the configured wire format"
        )
    seq = (data[1] << 8) | data[2]
    length = (data[3] << 8) | data[4]
    expected = HEADER_BYTES + length + (CRC_BYTES if has_crc else 0)
    if len(data) != expected:
        raise IntegrityError(
            f"frame length {len(data)} does not match header-declared {expected}"
        )
    payload = data[HEADER_BYTES : HEADER_BYTES + length]
    if has_crc:
        stated = (data[-2] << 8) | data[-1]
        actual = crc16_ccitt(data[:-CRC_BYTES])
        if stated != actual:
            raise IntegrityError(
                f"CRC mismatch: trailer 0x{stated:04X}, computed 0x{actual:04X}"
            )
    return Frame(
        seq=seq,
        payload=bytes(payload),
        last=bool(flags & FLAG_LAST),
        crc_protected=has_crc,
    )


def fragment_payload(
    payload: bytes, seq_start: int, config: FramingConfig
) -> List[bytes]:
    """Split a payload into encoded frames with consecutive sequence numbers.

    The final fragment carries FLAG_LAST; an empty payload produces a
    single empty LAST frame so the receiver still sees a payload boundary.
    """
    chunks = [
        payload[i : i + config.max_payload_bytes]
        for i in range(0, len(payload), config.max_payload_bytes)
    ] or [b""]
    return [
        encode_frame(
            chunk,
            (seq_start + i) % SEQ_MODULUS,
            config,
            last=(i == len(chunks) - 1),
        )
        for i, chunk in enumerate(chunks)
    ]


# -- batch frame codec --------------------------------------------------------


def encode_frames(
    payloads: Sequence[bytes],
    seqs,
    config: FramingConfig,
    last=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode many frames at once; the batch twin of :func:`encode_frame`.

    Args:
        payloads: One payload per frame, each at most
            ``config.max_payload_bytes`` long.
        seqs: Per-frame sequence numbers (array-like; wrapped mod
            :data:`SEQ_MODULUS`).
        config: Wire-format parameters.
        last: FLAG_LAST per frame — ``None`` (all last, matching the
            :func:`encode_frame` default), a single bool, or a bool
            array.

    Returns:
        ``(matrix, lengths)``: a zero-padded ``(n, max_len)`` uint8
        matrix and per-frame encoded lengths.  Row ``i`` trimmed to
        ``lengths[i]`` is byte-identical to the scalar
        ``encode_frame(payloads[i], seqs[i], config, last[i])``.
    """
    n = len(payloads)
    plens = np.fromiter((len(p) for p in payloads), dtype=np.int64, count=n)
    if n and int(plens.max()) > config.max_payload_bytes:
        worst = int(plens.max())
        raise ConfigurationError(
            f"payload of {worst} bytes exceeds max_payload_bytes="
            f"{config.max_payload_bytes}; fragment it first"
        )
    seq_arr = np.mod(np.asarray(seqs, dtype=np.int64), SEQ_MODULUS)
    if seq_arr.shape != (n,):
        raise ConfigurationError(
            f"seqs must be a length-{n} vector, got shape {seq_arr.shape}"
        )
    if last is None:
        last_arr = np.ones(n, dtype=bool)
    else:
        last_arr = np.broadcast_to(np.asarray(last, dtype=bool), (n,))
    body_lens = HEADER_BYTES + plens
    total_lens = body_lens + (CRC_BYTES if config.crc else 0)
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint8), total_lens
    matrix = np.zeros((n, int(total_lens.max())), dtype=np.uint8)
    flags = (FLAG_CRC if config.crc else 0) | np.where(last_arr, FLAG_LAST, 0)
    matrix[:, 0] = (config.version << 4) | flags
    matrix[:, 1] = (seq_arr >> 8) & 0xFF
    matrix[:, 2] = seq_arr & 0xFF
    matrix[:, 3] = (plens >> 8) & 0xFF
    matrix[:, 4] = plens & 0xFF
    if int(plens.max()):
        payload_matrix, _ = pack_byte_rows(payloads)
        matrix[:, HEADER_BYTES : HEADER_BYTES + payload_matrix.shape[1]] = (
            payload_matrix
        )
    if config.crc:
        crc = batch_crc16_ccitt(matrix, lengths=body_lens)
        rows = np.arange(n)
        matrix[rows, body_lens] = (crc >> np.uint16(8)).astype(np.uint8)
        matrix[rows, body_lens + 1] = crc.astype(np.uint8)
    return matrix, total_lens


@dataclass
class FrameBatch:
    """Per-frame verdicts and decoded fields from :func:`decode_frames`.

    Frame ``i`` mirrors the scalar :func:`decode_frame`: either
    ``ok[i]`` with identical seq/payload/last fields, or ``not ok[i]``
    with ``errors[i]`` carrying the exact :class:`IntegrityError`
    message the scalar decoder would have raised.
    """

    ok: np.ndarray
    seq: np.ndarray
    last: np.ndarray
    crc_protected: np.ndarray
    payloads: List[Optional[bytes]]
    errors: List[Optional[str]]

    def __len__(self) -> int:
        return len(self.payloads)

    def frame(self, i: int) -> Frame:
        """Frame ``i`` as a scalar :class:`Frame`; raises its
        :class:`IntegrityError` when the frame was rejected."""
        if not self.ok[i]:
            raise IntegrityError(self.errors[i])
        payload = self.payloads[i]
        assert payload is not None
        return Frame(
            seq=int(self.seq[i]),
            payload=payload,
            last=bool(self.last[i]),
            crc_protected=bool(self.crc_protected[i]),
        )


def decode_frames(
    frames: Union[np.ndarray, Sequence[bytes]],
    config: FramingConfig,
    lengths: Optional[np.ndarray] = None,
) -> FrameBatch:
    """Decode and verify many frames at once; batch twin of
    :func:`decode_frame`.

    Accepts either a padded ``(n, max_len)`` uint8 matrix with
    per-frame ``lengths`` (rows assumed full-width when omitted) or a
    sequence of byte strings.  Verdict priority matches the scalar
    decoder exactly: short frame, then version, CRC-flag and length
    mismatches, then CRC failure.
    """
    if isinstance(frames, np.ndarray):
        matrix = np.ascontiguousarray(frames, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"frames must be a 2-D byte matrix, got shape {matrix.shape}"
            )
        if lengths is None:
            lens = np.full(len(matrix), matrix.shape[1], dtype=np.int64)
        else:
            lens = np.asarray(lengths, dtype=np.int64)
            if lens.shape != (len(matrix),):
                raise ConfigurationError(
                    f"lengths must be a length-{len(matrix)} vector, "
                    f"got shape {lens.shape}"
                )
            if len(matrix) and not (
                0 <= int(lens.min()) and int(lens.max()) <= matrix.shape[1]
            ):
                raise ConfigurationError(
                    "lengths must lie in [0, max_len] of the frame matrix"
                )
    else:
        matrix, lens = pack_byte_rows(list(frames))
    n = len(matrix)
    # Pad so header columns are always addressable; the padding is only
    # read for frames already rejected as shorter than a header.
    if matrix.shape[1] < HEADER_BYTES:
        matrix = np.pad(matrix, ((0, 0), (0, HEADER_BYTES - matrix.shape[1])))
    b0 = matrix[:, 0].astype(np.int64)
    version = b0 >> 4
    flags = b0 & 0x0F
    seq = (matrix[:, 1].astype(np.int64) << 8) | matrix[:, 2]
    length = (matrix[:, 3].astype(np.int64) << 8) | matrix[:, 4]
    has_crc = (flags & FLAG_CRC) != 0
    expected = HEADER_BYTES + length + np.where(has_crc, CRC_BYTES, 0)
    # Error codes in scalar check order; first failure wins per frame.
    err = np.zeros(n, dtype=np.int8)
    err = np.where(lens < HEADER_BYTES, 1, err)
    err = np.where((err == 0) & (version != config.version), 2, err)
    err = np.where((err == 0) & (has_crc != config.crc), 3, err)
    err = np.where((err == 0) & (lens != expected), 4, err)
    stated = computed = None
    if config.crc and n:
        width = matrix.shape[1]
        body_lens = np.clip(lens - CRC_BYTES, 0, width)
        computed = batch_crc16_ccitt(matrix, lengths=body_lens)
        rows = np.arange(n)
        hi = matrix[rows, np.clip(lens - 2, 0, width - 1)].astype(np.int64)
        lo = matrix[rows, np.clip(lens - 1, 0, width - 1)].astype(np.int64)
        stated = (hi << 8) | lo
        err = np.where((err == 0) & (stated != computed), 5, err)
    ok = err == 0
    payloads: List[Optional[bytes]] = [None] * n
    errors: List[Optional[str]] = [None] * n
    for i in np.nonzero(ok)[0]:
        payloads[i] = matrix[i, HEADER_BYTES : HEADER_BYTES + int(length[i])].tobytes()
    for i in np.nonzero(~ok)[0]:
        code = int(err[i])
        if code == 1:
            errors[i] = f"frame of {int(lens[i])} bytes is shorter than a header"
        elif code == 2:
            errors[i] = (
                f"frame version {int(version[i])} does not match expected "
                f"{config.version}"
            )
        elif code == 3:
            errors[i] = "frame CRC flag does not match the configured wire format"
        elif code == 4:
            errors[i] = (
                f"frame length {int(lens[i])} does not match header-declared "
                f"{int(expected[i])}"
            )
        else:
            assert stated is not None and computed is not None
            errors[i] = (
                f"CRC mismatch: trailer 0x{int(stated[i]):04X}, "
                f"computed 0x{int(computed[i]):04X}"
            )
    return FrameBatch(
        ok=ok,
        seq=seq,
        last=(flags & FLAG_LAST) != 0,
        crc_protected=has_crc,
        payloads=payloads,
        errors=errors,
    )


# -- receiver ----------------------------------------------------------------


@dataclass
class IntegrityCounters:
    """Receiver-side integrity bookkeeping.

    Attributes:
        frames_ok: Frames accepted (structure and CRC verified).
        frames_corrupt: Frames rejected by a failed integrity check.
        frames_duplicate: Frames discarded as duplicates / stale reorders.
        sequence_gaps: Gap events (a jump past the expected sequence number).
        frames_missing: Frames the gaps imply were never received.
        payloads_ok: Complete payloads reassembled.
    """

    frames_ok: int = 0
    frames_corrupt: int = 0
    frames_duplicate: int = 0
    sequence_gaps: int = 0
    frames_missing: int = 0
    payloads_ok: int = 0

    @property
    def frames_total(self) -> int:
        """Frames pushed into the reassembler."""
        return self.frames_ok + self.frames_corrupt + self.frames_duplicate

    @property
    def silent_escape_estimate(self) -> float:
        """Expected corrupted frames that *passed* the CRC.

        Each detected corruption is one draw that failed the 16-bit check;
        with escape probability ``q = 2**-16`` the expected number of
        undetected companions is ``detected * q / (1 - q)``.  Without CRC
        protection every corruption is silent and this estimate is
        meaningless (the detector never fires), so it stays 0 — silent
        corruption must then be measured end-to-end instead.
        """
        q = CRC16_ESCAPE_PROBABILITY
        return self.frames_corrupt * q / (1.0 - q)


class FrameReassembler:
    """Receiver-side frame verifier, sequencer and payload reassembler.

    Feed raw frame bytes to :meth:`push`; complete payloads come back once
    their LAST fragment arrives.  Corrupted frames are counted and
    dropped; duplicate and reordered frames are counted and discarded;
    sequence jumps are counted as gaps (with the number of frames the jump
    skipped) and the reassembler resynchronises on the new number.

    Args:
        config: Wire-format parameters (must match the sender's).
    """

    def __init__(self, config: FramingConfig) -> None:
        self.config = config
        self.counters = IntegrityCounters()
        self._expected_seq: Optional[int] = None
        self._fragments: List[bytes] = []

    def reset(self) -> None:
        """Clear counters, sequence state and any partial payload."""
        self.counters = IntegrityCounters()
        self._expected_seq = None
        self._fragments = []

    def push(self, raw: bytes) -> Optional[bytes]:
        """Process one received frame; returns a payload when complete."""
        try:
            frame = decode_frame(raw, self.config)
        except IntegrityError:
            self.counters.frames_corrupt += 1
            return None
        if self._expected_seq is not None:
            distance = (frame.seq - self._expected_seq) % SEQ_MODULUS
            if distance == 0:
                pass
            elif distance < SEQ_MODULUS // 2:
                # Forward jump: `distance` frames never arrived.
                self.counters.sequence_gaps += 1
                self.counters.frames_missing += distance
                self._fragments = []
            else:
                # A sequence number from the past: duplicate or stale reorder.
                self.counters.frames_duplicate += 1
                return None
        self.counters.frames_ok += 1
        self._expected_seq = (frame.seq + 1) % SEQ_MODULUS
        self._fragments.append(frame.payload)
        if frame.last:
            payload = b"".join(self._fragments)
            self._fragments = []
            self.counters.payloads_ok += 1
            return payload
        return None
