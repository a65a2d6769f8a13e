"""One feature front end: the per-row reference, the engine's fused feature
step and the batch path give the same bits.

The classifier is trained on ``batch_extract_matrix`` features, the
gateway scores windows through it, and the wearable computes its features
in the engine's cells; all three must agree on every value, not just to
rounding.  The per-row reference is :meth:`FeatureLayout.extract` (one
``compute_feature`` call per band and feature, over the Haar pyramid of
``dwt_multilevel``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell import PortRef
from repro.cells.library import make_feature_cell
from repro.core.layout import FeatureLayout
from repro.dsp.batch import batch_extract_matrix
from repro.dsp.features import FEATURE_NAMES, multiband_feature_matrix
from repro.hw.energy import EnergyLibrary
from repro.signals.datasets import CASE_ORDER, load_case

LIB = EnergyLibrary("90nm")


def _assert_rows_match(segments, layout):
    batch = batch_extract_matrix(segments, layout)
    for i, segment in enumerate(segments):
        assert layout.extract(segment).tobytes() == batch[i].tobytes(), i


@pytest.mark.parametrize("case", CASE_ORDER)
def test_table1_extract_equals_batch(case):
    data = load_case(case, n_segments=60)
    _assert_rows_match(data.segments, FeatureLayout(segment_length=data.segment_length))


def _rows(rng, n_rows, length):
    """Rows of mixed shapes: noise at any scale, constants, near-constants
    (``m2`` under the 1e-12 floor), small integers with samples exactly on
    the mean, and signed zeros."""
    X = rng.normal(size=(n_rows, length)) * 10.0 ** rng.uniform(-3, 3)
    for i, kind in enumerate(rng.choice(5, n_rows)):
        if kind == 1:
            X[i] = rng.normal()
        elif kind == 2:
            X[i] = 1.0 + rng.normal(size=length) * 1e-8
        elif kind == 3:
            X[i] = rng.integers(-2, 3, length).astype(float)
        elif kind == 4:
            X[i, rng.random(length) < 0.5] = -0.0
    return X


@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 40),
    # Below 128 the DWT input is zero-padded, above it truncated.
    length=st.sampled_from([8, 40, 82, 127, 128, 129, 136, 200]),
    levels=st.integers(1, 5),
    names=st.permutations(FEATURE_NAMES),
    k=st.integers(1, len(FEATURE_NAMES)),
)
@settings(max_examples=60, deadline=None)
def test_extract_equals_batch(seed, n_rows, length, levels, names, k):
    layout = FeatureLayout(segment_length=length, dwt_levels=levels, feature_names=tuple(names[:k]))
    _assert_rows_match(_rows(np.random.default_rng(seed), n_rows, length), layout)


@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 70), min_size=1, max_size=7),
    names=st.permutations(FEATURE_NAMES),
    k=st.integers(1, len(FEATURE_NAMES)),
)
@settings(max_examples=60, deadline=None)
def test_fused_feature_step_equals_batch(seed, lengths, names, k):
    """The engine's feature step over a set of bands (Std reading its
    band's Var cell, as the builder wires it) gives the batch values."""
    names = tuple(names[:k])
    rng = np.random.default_rng(seed)
    bands = [_rows(rng, 3, n) for n in lengths]
    cells, column = [], {}
    for b, n in enumerate(lengths):
        ref = PortRef(f"band{b}")
        var = make_feature_cell("var", ref, n, LIB, name=f"var@{b}")
        for j, name in enumerate(names):
            if name == "std":
                cell = make_feature_cell("std", PortRef(var.name), n, LIB, name=f"std@{b}")
            else:
                cell = var if name == "var" else make_feature_cell(name, ref, n, LIB, name=f"{name}@{b}")
            cells.append(cell)
            column[cell.name] = b * len(names) + j
        if "std" in names and "var" not in names:
            cells.append(var)
    # A Std runs after the Var it reads, as in a topological order.
    cells.sort(key=lambda cell: cell.module == "std")
    size = dict(zip((PortRef(f"band{b}") for b in range(len(lengths))), lengths)).__getitem__
    refs, run = cells[0].family.build(cells, size)
    want = multiband_feature_matrix(bands, names)
    for row in range(3):
        by_ref = {PortRef(f"band{b}"): band[row] for b, band in enumerate(bands)}
        out = np.asarray(run(np.concatenate([by_ref[ref] for ref in refs])))
        for cell, value in zip(cells, out):
            if cell.name in column:
                assert value.tobytes() == want[row, column[cell.name]].tobytes(), cell.name
