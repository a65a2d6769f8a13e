"""Bit-level pins of the batched feature front end.

Training reads every feature through ``batch_extract_matrix``, so a
change of one bit there changes the normaliser, every SVM and every
decision.  Two guards hold the front end to its values:

- sha256 pins of the feature matrices of the six Table-1 datasets at 360
  segments (C1's 82-sample rows are zero-padded to the 128-sample DWT
  alignment);
- a property test against the per-band computation that
  ``batch_extract_matrix`` used to run, one single-band feature call
  per band, copied below as the oracle.  The rows cross the kernel's row
  blocks, and include flat bands (``m2 <= 1e-12``) and detail bands that
  open with exact zeros after centring, where the Czero sign carry must
  restart at the band start.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import FeatureLayout
from repro.dsp.batch import batch_extract_matrix, batch_haar_multilevel
from repro.dsp.features import (
    FEATURE_NAMES,
    ROW_BLOCK,
    multiband_feature_matrix,
)
from repro.signals.datasets import CASE_ORDER, load_case

#: sha256 of ``batch_extract_matrix(load_case(case, 360).segments, layout)``
#: with the default Haar layout at the case's segment length.
GOLDEN = {
    "C1": "d580d38072be67dcdd6db953aa018fec"
    "f2b55aa58d9f3f74129e5016bd776083",
    "C2": "e9360aec8789581be06fc31c2b655a76"
    "d18e7d7d33cff6540cb3cf67700dbd89",
    "E1": "115adb0d687b7edeb18711993a257bab"
    "a212ed0a579bea3318411e39ffed7721",
    "E2": "4fde39b0a838aff2ff1a2e396a84650a"
    "bac5e0100968f2cb2b5a1828c72939f3",
    "M1": "7b38d4dc4f08f1ba53e2db10f4231212"
    "eb6bf1600551b324397d44b7e694367d",
    "M2": "baf800e509b00adbe00104855d4302e8"
    "6c2f9e5c980e49e047e273779b398444",
}


def _digest(matrix: np.ndarray) -> str:
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
    return hashlib.sha256(matrix.tobytes()).hexdigest()


@pytest.mark.parametrize("case", CASE_ORDER)
def test_table1_feature_matrices_are_pinned(case):
    data = load_case(case, n_segments=360)
    layout = FeatureLayout(segment_length=data.segment_length)
    assert _digest(batch_extract_matrix(data.segments, layout)) == GOLDEN[case]


# -- oracle: the per-band body of the single-band call before fusion --------


def _propagate_signs(signs):
    positions = np.arange(signs.shape[1])[None, :]
    last_nonzero = np.where(signs != 0, positions, 0)
    np.maximum.accumulate(last_nonzero, axis=1, out=last_nonzero)
    filled = signs[np.arange(signs.shape[0])[:, None], last_nonzero]
    filled[filled == 0] = 1.0
    return filled


def _per_band(X, names):
    need = set(names)
    columns = {}
    if "max" in need:
        columns["max"] = X.max(axis=1)
    if "min" in need:
        columns["min"] = X.min(axis=1)
    if need - {"max", "min"}:
        mu = X.mean(axis=1)
        columns["mean"] = mu
        if need & {"var", "std"}:
            var = (X * X).mean(axis=1) - mu * mu
            columns["var"] = var
            columns["std"] = np.sqrt(np.maximum(var, 0.0))
        if need & {"czero", "skew", "kurt"}:
            centered = X - mu[:, None]
            if "czero" in need:
                signs = _propagate_signs(np.sign(centered))
                columns["czero"] = (signs[:, 1:] != signs[:, :-1]).sum(
                    axis=1
                ).astype(np.float64)
            if need & {"skew", "kurt"}:
                m2 = (centered**2).mean(axis=1)
                degenerate = m2 <= 1e-12
                safe_m2 = np.where(degenerate, 1.0, m2)
                if "skew" in need:
                    m3 = (centered**3).mean(axis=1)
                    columns["skew"] = np.where(degenerate, 0.0, m3 / safe_m2**1.5)
                if "kurt" in need:
                    m4 = (centered**4).mean(axis=1)
                    columns["kurt"] = np.where(degenerate, 0.0, m4 / safe_m2**2)
    return np.column_stack([columns[n] for n in names])


def _extract_oracle(X, layout):
    target = layout.dwt_aligned_length
    if X.shape[1] >= target:
        aligned = X[:, :target]
    else:
        aligned = np.zeros((X.shape[0], target))
        aligned[:, : X.shape[1]] = X
    bands = batch_haar_multilevel(aligned, layout.dwt_levels)
    parts = [_per_band(X, layout.feature_names)]
    parts.extend(_per_band(band, layout.feature_names) for band in bands)
    return np.concatenate(parts, axis=1)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_ROW_COUNTS = st.one_of(
    st.integers(1, 100),
    st.sampled_from([k * ROW_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]),
)


def _dipole_row(rng, length):
    """Zeros plus Haar D1 dipoles: D1 opens with exact zeros, mean exactly 0.

    Each dipole puts ``+1/sqrt(2)`` at D1 index ``k`` and ``-1/sqrt(2)`` at
    ``k + 8`` (the same lane of NumPy's pairwise sum), so the band sum is
    exactly 0 and every leading zero centres to exactly 0, while the time
    band's trailing zeros centre to a negative value.
    """
    row = np.zeros(length)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, max(2, min(length, 128) // 2 - 8)))
        if 2 * (k + 8) + 1 >= min(length, 128):
            continue
        row[2 * k] += 1.0
        row[2 * (k + 8) + 1] += 1.0
    return row


@st.composite
def _rows(draw, length):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(_ROW_COUNTS)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(5, n)
    X = rng.normal(size=(n, length)) * rng.uniform(0.1, 10)
    for i, kind in enumerate(kinds):
        if kind == 1:  # constant: every DWT band flat
            X[i] = rng.normal()
        elif kind == 2:  # tiny but not constant: m2 below the 1e-12 floor
            X[i] = 1.0 + rng.normal(size=length) * 1e-8
        elif kind == 3:  # small integers: exact zeros after centring
            X[i] = rng.integers(-2, 3, length).astype(float)
        elif kind == 4:
            X[i] = _dipole_row(rng, length)
    return X


@st.composite
def _layouts(draw):
    names = draw(st.permutations(FEATURE_NAMES))
    k = draw(st.integers(1, len(FEATURE_NAMES)))
    levels = draw(st.integers(1, 5))
    return FeatureLayout(
        segment_length=draw(st.sampled_from([40, 82, 128, 136])),
        dwt_levels=levels,
        feature_names=tuple(names[:k]) if draw(st.booleans()) else FEATURE_NAMES,
    )


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_extraction_matches_per_band_oracle(data):
    layout = data.draw(_layouts())
    X = data.draw(_rows(layout.segment_length))
    assert _same_bits(batch_extract_matrix(X, layout), _extract_oracle(X, layout))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_one_band_matches_per_band_oracle(data):
    names = data.draw(st.permutations(FEATURE_NAMES))
    names = names[: data.draw(st.integers(1, len(FEATURE_NAMES)))]
    X = data.draw(_rows(data.draw(st.integers(1, 70))))
    assert _same_bits(multiband_feature_matrix([X], names), _per_band(X, names))


def test_dipole_rows_open_d1_with_centred_zeros():
    # The property above relies on this shape reaching the kernel.
    row = _dipole_row(np.random.default_rng(0), 128)
    d1 = batch_haar_multilevel(row[None, :], 5)[0][0]
    assert d1.mean() == 0.0 and d1[0] == 0.0 and np.any(d1 != 0)
    assert row.mean() > 0.0 and row[-1] == 0.0


def _zero_led_band(rng, rows, length):
    """Integer rows summing to exactly 0 whose first samples are 0.

    The mean is exactly 0, so the leading samples centre to exactly 0 and
    take their sign from the first non-zero sample of their own band,
    never from the band before.
    """
    band = rng.integers(-3, 4, (rows, length)).astype(float)
    lead = rng.integers(1, length + 1, rows)
    band[np.arange(length)[None, :] < lead[:, None]] = 0.0
    band[:, -1] -= band.sum(axis=1)
    return band


@st.composite
def _band_sets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(_ROW_COUNTS)
    bands = []
    for _ in range(draw(st.integers(1, 8))):
        length = int(rng.integers(1, 40))
        kind = rng.choice(4)
        if kind == 0:
            band = rng.normal(size=(rows, length)) * rng.uniform(0.1, 10)
        elif kind == 1:  # flat
            band = np.repeat(rng.normal(size=(rows, 1)), length, axis=1)
        elif kind == 2:  # m2 under the floor
            band = 1.0 + rng.normal(size=(rows, length)) * 1e-8
        else:
            band = _zero_led_band(rng, rows, length)
        bands.append(band)
    return bands


@given(_band_sets(), st.permutations(FEATURE_NAMES), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_multiband_kernel_matches_per_band_oracle(bands, names, k):
    names = names[:k]
    want = np.concatenate([_per_band(b, names) for b in bands], axis=1)
    assert _same_bits(multiband_feature_matrix(bands, names), want)


def test_zero_led_band_carries_no_sign_across_bands():
    # A band ending below its mean, then one opening with centred zeros
    # and rising: on its own the second crosses once, at its last sample;
    # a sign carried in from the first would add a crossing at its 1.
    bands = [np.array([[1.0, -1.0]]), np.array([[0.0, 0.0, 1.0, -1.0]])]
    out = multiband_feature_matrix(bands, ["czero"])
    assert out.tolist() == [[1.0, 1.0]]


def test_empty_batches():
    layout = FeatureLayout(segment_length=82)
    assert batch_extract_matrix(np.zeros((0, 82)), layout).shape == (0, 56)
    shallow = FeatureLayout(segment_length=64, dwt_levels=3)
    assert batch_extract_matrix(np.zeros((0, 64)), shallow).shape == (0, 40)
    assert multiband_feature_matrix([np.zeros((0, 3))], ["max"]).shape == (0, 1)
