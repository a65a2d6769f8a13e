"""Fused same-end steps of the cross-end engine, bit for bit.

The engine runs the feature cells of every band on one end as one
multi-band kernel pass and the SVM members on one end as one step, with
one stacked-support scorer per kernel.  The independent references are
the per-feature functions of :mod:`repro.dsp.features` and
:meth:`SVMClassifier.decision_function`; the engine as a whole is checked
against ``CellTopology.execute`` on the partitions that exercise the
plan's corner cases.
"""

import itertools
import pickle
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import library
from repro.cells.cell import SOURCE_CELL, FunctionalCell, OutputPort, PortRef
from repro.cells.library import make_feature_cell, make_fusion_cell, make_svm_cell
from repro.cells.topology import CellTopology
from repro.core.engine import CrossEndEngine, argmax_decode
from repro.core.layout import FeatureLayout
from repro.core.multiclass import build_multiclass_topology, classify_multiclass
from repro.core.partition import Partition
from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.dsp import features as feat
from repro.dsp.batch import batch_extract_matrix
from repro.dsp.normalize import MinMaxNormalizer
from repro.errors import ConfigurationError
from repro.graph.cuts import aggregator_cut, sensor_cut
from repro.hw.energy import ALUMode, EnergyLibrary
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.kernels import LinearKernel, RBFKernel, SupportRows
from repro.ml.multiclass import OneVsRestSubspaceClassifier
from repro.ml.subspace import RandomSubspaceClassifier
from repro.ml.svm import SVMClassifier, StackedScorer, share_support
from repro.signals.datasets import load_case, load_multiclass_emg

LIB = EnergyLibrary("90nm")
KERNELS = (LinearKernel(), RBFKernel(gamma=0.5), RBFKernel(gamma=0.03))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


# -- band kernel ------------------------------------------------------------


def _assert_band_matches(names, band):
    values = feat.band_kernel(names)(band)
    assert len(values) == len(names)
    for name, value in zip(names, values):
        assert type(value) is float
        assert _bits(value) == _bits(feat.compute_feature(name, band)), name


_RNG = np.random.default_rng(11)
FIXED_BANDS = [
    np.array([0.37]),
    np.array([-2.5, 2.5]),
    np.full(33, 0.1),  # constant: the m2 <= 1e-12 branch
    np.array([0.0, -0.0, -0.0, 0.0, 1.5, -0.0, -1.5, 0.0]),
    _RNG.normal(size=64) * 1e-3,
    _RNG.normal(size=41) * 1e3,
]


@pytest.mark.parametrize("band", FIXED_BANDS, ids=lambda b: f"n{len(b)}")
def test_band_kernel_every_subset(band):
    """All 255 non-empty feature subsets, Std with and without Var."""
    for size in range(1, len(feat.FEATURE_NAMES) + 1):
        for names in itertools.combinations(feat.FEATURE_NAMES, size):
            _assert_band_matches(names, band)


@st.composite
def _bands(draw, max_size=70):
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["normal", "constant", "zeros", "signed", "on_mean"]))
    if kind == "constant":
        return np.full(n, rng.normal() * scale)
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "on_mean":
        # Small integers around an integer level, in +/- pairs: every sum
        # is exact, the mean is the level, and the zero offsets sit
        # exactly on it (the first sample, often).
        half = rng.integers(-3, 4, size=n // 2)
        offsets = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2, int)]))
        if rng.random() < 0.5:
            offsets = np.roll(offsets, -int(np.argmin(np.abs(offsets))))
        return float(rng.integers(-5, 6)) + offsets.astype(np.float64)
    band = rng.normal(size=n) * scale
    if kind == "signed":
        band[rng.random(n) < 0.3] = -0.0
        band[rng.random(n) < 0.2] = 0.0
    return band


@given(
    names=st.lists(st.sampled_from(feat.FEATURE_NAMES), min_size=1, unique=True),
    band=_bands(),
)
@settings(max_examples=300, deadline=None)
def test_band_kernel_matches_feature_functions(names, band):
    _assert_band_matches(tuple(names), band)


def test_band_kernel_validates():
    with pytest.raises(ConfigurationError):
        feat.band_kernel(("mean", "median"))
    kernel = feat.band_kernel(("mean",))
    with pytest.raises(ConfigurationError):
        kernel(np.zeros(0))
    with pytest.raises(ConfigurationError):
        kernel(np.zeros((2, 3)))


# -- multi-band kernel --------------------------------------------------------


@st.composite
def _band_sets(draw):
    bands = draw(st.lists(_bands(max_size=140), min_size=1, max_size=7))
    names = [
        tuple(draw(st.lists(st.sampled_from(feat.FEATURE_NAMES), min_size=1, max_size=10)))
        for _ in bands
    ]
    return bands, names


@given(case=_band_sets())
@settings(max_examples=300, deadline=None)
def test_multiband_kernel_matches_each_band_alone(case):
    """Every value is bitwise the band's own: the sign carry restarts at
    each band start and no sign change straddles two bands."""
    bands, names = case
    kernel = feat.multiband_kernel(tuple(len(b) for b in bands), tuple(names))
    row = np.concatenate(bands)
    values = kernel(row)
    assert values.dtype == np.float64 and values.shape == (sum(map(len, names)),)
    assert _bits(kernel(np.stack([row, row]))) == _bits([values, values])
    per_band = [v for band, ns in zip(bands, names) for v in feat.band_kernel(ns)(band)]
    assert _bits(values) == _bits(per_band)
    reference = [feat.compute_feature(n, band) for band, ns in zip(bands, names) for n in ns]
    assert _bits(values) == _bits(reference)


def test_multiband_czero_restarts_at_band_starts():
    """A band that opens on its mean counts from +1, whatever sign the
    band before it ended on; a sign change across the boundary is not
    counted."""
    first = np.array([1.0, -1.0])  # ends below its mean
    second = np.array([0.0, 0.0, -1.0, 1.0])  # opens on its mean
    kernel = feat.multiband_kernel((2, 4), (("czero",), ("czero",)))
    assert kernel(np.concatenate([first, second])).tolist() == [1.0, 2.0]
    pair = feat.multiband_kernel((2, 2), (("czero",), ("czero",)))
    assert pair(np.array([1.0, -1.0, 1.0, -1.0])).tolist() == [1.0, 1.0]


def test_multiband_kernel_validates():
    for lengths, names in (
        ((), ()),
        ((3,), ()),
        ((3, 0), (("max",), ("max",))),
        ((3,), (("median",),)),
    ):
        with pytest.raises(ConfigurationError):
            feat.multiband_kernel(lengths, names)


# -- stacked SVM scorer -------------------------------------------------------


def _trained(kernel, n, d, seed) -> SVMClassifier:
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    X = (rng.normal(size=(n, d)) + 0.8 * y[:, None]) * 10.0 ** rng.uniform(-1, 1)
    return SVMClassifier(kernel=kernel, seed=seed % 97).fit(X, y)


def _one_sv(kernel, d, seed) -> SVMClassifier:
    """A member with one support vector and a non-zero coefficient."""
    rng = np.random.default_rng(seed)
    svm = SVMClassifier(kernel=kernel)
    svm._store_solution(
        rng.normal(size=(4, d)),
        np.array([1.0, -1.0, 1.0, -1.0]),
        np.array([0.7, 0.0, 0.0, 0.0]),
        float(rng.normal()),
    )
    assert svm.n_support_vectors == 1
    return svm


def _bias_only(kernel, d) -> SVMClassifier:
    svm = SVMClassifier(kernel=kernel, seed=9).fit(
        np.zeros((6, d)), np.array([0, 1, 0, 1, 0, 1])
    )
    assert svm.n_support_vectors == 1 and not svm.dual_coef.any()
    return svm


def _queries(rng, k, d, signed_zeros):
    q = rng.uniform(0.0, 1.0, size=(k, d))
    if signed_zeros:
        q[rng.random(q.shape) < 0.3] = -0.0
        q[rng.random(q.shape) < 0.2] = 0.0
    return q


@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from(KERNELS),
    d=st.integers(1, 14),
    sizes=st.lists(st.integers(3, 40), max_size=5),
    one_sv=st.booleans(),
    bias_only=st.booleans(),
    signed_zeros=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_stacked_scorer_matches_decision_function(
    seed, kernel, d, sizes, one_sv, bias_only, signed_zeros
):
    rng = np.random.default_rng(seed)
    members = [_trained(kernel, n, d, seed + i) for i, n in enumerate(sizes)]
    if one_sv or not members:
        members.insert(int(rng.integers(len(members) + 1)), _one_sv(kernel, d, seed))
    if bias_only:
        members.insert(int(rng.integers(len(members) + 1)), _bias_only(kernel, d))
    queries = _queries(rng, len(members), d, signed_zeros)
    expected = [svm.decision_function(q) for svm, q in zip(members, queries)]

    assert _bits(StackedScorer(members).scores(queries)) == _bits(expected)
    block = share_support(members)  # the members now are column runs of one block
    scorer = StackedScorer(members)
    assert np.shares_memory(scorer.support.rows_t, block.rows_t)
    assert _bits(scorer.scores(queries)) == _bits(expected)
    # Given out of block order, the members still read the block in place.
    perm = rng.permutation(len(members))
    shuffled = StackedScorer([members[i] for i in perm])
    assert np.shares_memory(shuffled.support.rows_t, block.rows_t)
    assert _bits(shuffled.scores(queries[perm])) == _bits([expected[i] for i in perm])
    assert _bits([svm.decision_function(q) for svm, q in zip(members, queries)]) == (
        _bits(expected)
    )
    # Each member alone: the one-column loop for a single support vector.
    for svm, q, score in zip(members, queries, expected):
        assert _bits(StackedScorer([svm]).scores(q[None, :])) == _bits([score])


def test_stacked_scorer_refuses_mixed_kernels():
    rbf_a, rbf_b, linear = (_trained(k, 20, 4, 3) for k in reversed(KERNELS))
    for pair in ([rbf_a, rbf_b], [rbf_a, linear], [linear, rbf_b]):
        with pytest.raises(ConfigurationError):
            StackedScorer(pair)
    with pytest.raises(ConfigurationError):
        StackedScorer([rbf_a, _trained(RBFKernel(gamma=0.03), 20, 5, 4)])
    with pytest.raises(ConfigurationError):
        StackedScorer([rbf_a]).scores(np.zeros((2, 4)))


def test_stack_views_consecutive_runs_and_copies_others():
    members = [_trained(KERNELS[1], n, 5, n) for n in (12, 20, 16)]
    block = share_support(members)
    assert block.block is None and block.rows_t.flags.c_contiguous
    supports = [svm._support for svm in members]
    run = SupportRows.stack(supports[1:])
    assert run.block is block and run.start == supports[1].start
    assert np.shares_memory(run.rows_t, block.rows_t)
    gapped = SupportRows.stack([supports[0], supports[2]])
    assert gapped.block is None
    assert not np.shares_memory(gapped.rows_t, block.rows_t)
    assert _bits(gapped.rows_t) == _bits(
        np.concatenate([supports[0].rows_t, supports[2].rows_t], axis=1)
    )
    assert _bits(gapped.sq_norms) == _bits(
        np.concatenate([supports[0].sq_norms, supports[2].sq_norms])
    )
    # Idempotent: a second share keeps the block.
    again = share_support(members)
    assert again.block is block
    assert all(svm._support.block is block for svm in members)


def _assert_one_block(ensemble: RandomSubspaceClassifier) -> SupportRows:
    supports = [m.classifier._support for m in ensemble.members]
    block = supports[0].block
    assert block is not None and block.rows_t.flags.c_contiguous
    start = 0
    for support in supports:
        assert support.block is block and support.start == start
        assert np.shares_memory(support.rows_t, block.rows_t)
        start += support.n
    assert start == block.n
    scorer = StackedScorer([m.classifier for m in ensemble.members])
    assert scorer.support.block is block
    return block


def test_pickle_round_trip_rebuilds_shared_block():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=80)
    X = rng.uniform(size=(80, 10)) + 0.3 * y[:, None]
    ensemble = RandomSubspaceClassifier(
        n_features=10, subspace_dim=4, n_draws=8, keep_fraction=0.5, seed=3
    ).fit(X, y)
    assert len(ensemble.members) > 1
    block = _assert_one_block(ensemble)
    clone = pickle.loads(pickle.dumps(ensemble))
    assert _assert_one_block(clone) is not block
    assert _bits(clone.decision_function(X)) == _bits(ensemble.decision_function(X))
    for row in X[:8]:
        assert _bits(clone.decision_function(row)) == _bits(
            ensemble.decision_function(row)
        )


# -- plan structure and split partitions ---------------------------------------


@pytest.fixture(scope="module")
def case():
    """One case at the benchmark's scale: ten members, 65-70 cells."""
    dataset = load_case("M1", n_segments=360)
    engine = train_analytic_engine(dataset, TrainingConfig(n_draws=20, keep_fraction=0.5))
    return engine, engine.build_topology(LIB), dataset.segments[:12]


def _assert_matches_execute(topology, in_sensor, segments, decode=None):
    kwargs = {} if decode is None else {"decode": decode}
    engine = CrossEndEngine(topology, Partition(in_sensor=frozenset(in_sensor)), **kwargs)
    for seg in segments:
        oracle = topology.execute(seg)[topology.result][0]
        assert _bits(engine.classify(seg).score) == _bits(oracle)
    return engine


def _names(topology, module):
    return [n for n in topology.cell_names if topology.cell(n).module == module]


def test_single_end_plans_fuse(case):
    """A deterministic ceiling on the plan: five lone DWT levels, then per
    end one feature step (every band) and one SVM step, and the fusion
    cell.  Splitting the feature step per band again would add steps."""
    _, topology, segments = case
    assert 65 <= len(topology) <= 70
    assert len(_names(topology, "dwt")) == 5
    stds = set(_names(topology, "std"))
    cuts = {
        "sensor": (sensor_cut(topology), 8),
        "aggregator": (aggregator_cut(topology), 8),
        # Std on the aggregator reading its Var from the sensor: the Stds
        # share one aggregator step, the rest fuses on the sensor.
        "std split": (set(topology.cell_names) - stds, 9),
    }
    for label, (cut, steps) in cuts.items():
        engine = _assert_matches_execute(topology, cut, segments)
        assert len(engine._plan) == steps, label
        lone = [run.__self__.module for run, _, _ in engine._plan if hasattr(run, "__self__")]
        assert sorted(lone) == ["dwt"] * 5 + ["fusion"], label


def test_var_and_std_on_different_ends(case):
    _, topology, segments = case
    stds = _names(topology, "std")
    assert stds
    everything = set(topology.cell_names)
    for std in stds:
        var = topology.cell(std).inputs[0].cell
        _assert_matches_execute(topology, everything - {std}, segments[:4])
        _assert_matches_execute(topology, {var}, segments[:4])


def test_svm_members_split_non_contiguously(case):
    _, topology, segments = case
    members = _names(topology, "svm")
    features = {ref.cell for n in members for ref in topology.cell(n).inputs}
    for picked in (members[0::2], [members[1], members[4], members[5]]):
        _assert_matches_execute(topology, set(picked), segments[:6])
        _assert_matches_execute(topology, set(picked) | features, segments[:6])


def test_hand_made_cell_runs_unfused(case):
    _, topology, segments = case
    base = [topology.cell(n) for n in topology.cell_names]

    def peak(inputs) -> Dict[str, np.ndarray]:
        return {"out": np.array([float(np.max(inputs[0]))])}

    def decide(inputs) -> Dict[str, np.ndarray]:
        return {"out": np.array([float(inputs[0][0] + 0.0 * inputs[1][0])])}

    extra = [
        FunctionalCell("peak", "max", {"cmp": 1}, ALUMode.SERIAL,
                       (PortRef(SOURCE_CELL),), (OutputPort("out", 1),), peak),
        FunctionalCell("decide", "toy", {"add": 1}, ALUMode.SERIAL,
                       (topology.result, PortRef("peak")), (OutputPort("out", 1),), decide),
    ]
    mixed = CellTopology(topology.segment_length, base + extra, PortRef("decide"))
    for in_sensor in (sensor_cut(mixed), aggregator_cut(mixed), {"peak"}):
        engine = _assert_matches_execute(mixed, in_sensor, segments[:4])
        runs = [step[0] for step in engine._plan]
        for cell in extra:
            assert cell.execute in runs


def test_std_joins_whatever_feature_it_reads():
    """Std is the square root of its input, fused or alone, even when a
    hand-made topology feeds it a feature other than Var."""
    source = PortRef(SOURCE_CELL)
    cells = [make_feature_cell(n, source, 24, LIB, name=n) for n in ("mean", "var", "kurt")]
    cells += [
        make_feature_cell("std", PortRef("mean"), 24, LIB, name="std_mean"),
        make_feature_cell("std", PortRef("var"), 24, LIB, name="std_var"),
        make_feature_cell("std", PortRef("kurt"), 24, LIB, name="std_kurt"),
    ]
    members = [_tiny_svm_cell(i, KERNELS[1], PortRef(c.name), 40 + i) for i, c in enumerate(cells)]
    rng = np.random.default_rng(6)
    fusion = WeightedVotingFusion().fit(rng.normal(size=(30, 6)), rng.integers(0, 2, 30))
    cells += members + [make_fusion_cell(fusion, [PortRef(m.name) for m in members], LIB)]
    topology = CellTopology(24, cells, PortRef("fusion"))
    segments = rng.normal(size=(5, 24)) + 0.3
    for in_sensor in (set(), {"mean", "var", "kurt"}, {"std_mean", "std_kurt"}):
        engine = _assert_matches_execute(topology, in_sensor, segments)
        if not in_sensor:
            assert len(engine._plan) == 3  # band step, SVM step, fusion
    values = topology.execute(segments[0])
    for name in ("mean", "var", "kurt"):
        assert _bits(values[PortRef(f"std_{name}")]) == _bits(
            [np.sqrt(max(values[PortRef(name)][0], 0.0))]
        )


def _tiny_svm_cell(index, kernel, ref, seed):
    svm = _trained(kernel, 24, 1, seed)
    return make_svm_cell(index, svm, [ref], np.zeros(1), np.ones(1), LIB)


def test_mixed_kernels_never_share_a_scorer(monkeypatch):
    rng = np.random.default_rng(2)
    source = PortRef(SOURCE_CELL)
    names = ("mean", "var", "skew")
    cells = [make_feature_cell(n, source, 40, LIB, name=n) for n in names]
    members = [
        _tiny_svm_cell(i, kernel, PortRef(names[i % 3]), 20 + i)
        for i, kernel in enumerate(KERNELS * 2)
    ]
    fusion = WeightedVotingFusion().fit(rng.normal(size=(30, 6)), rng.integers(0, 2, 30))
    cells += members + [make_fusion_cell(fusion, [PortRef(m.name) for m in members], LIB)]
    topology = CellTopology(40, cells, PortRef("fusion"))
    segments = rng.normal(size=(5, 40))
    built = []

    class Recording(StackedScorer):
        def __init__(self, classifiers):
            super().__init__(classifiers)
            built.append({svm.kernel.signature for svm in classifiers})

    with monkeypatch.context() as patch:
        patch.setattr(library, "StackedScorer", Recording)
        engine = CrossEndEngine(topology, Partition(in_sensor=frozenset()))
    # One feature step, one SVM step with one scorer per kernel, the fusion.
    assert len(engine._plan) == 3
    assert sorted(len(kernels) for kernels in built) == [1, 1, 1]
    assert len({frozenset(k) for k in built}) == 3
    _assert_matches_execute(topology, set(), segments)
    for seg in segments:
        values = topology.execute(seg)
        for cell in members:
            member = cell.family.constants
            x = np.array([values[ref][0] for ref in cell.inputs])
            q = np.clip((x - member.mins) / member.ranges, 0.0, 1.0)
            assert _bits(values[PortRef(cell.name)]) == _bits(
                [member.classifier.decision_function(q)]
            )


def test_contraction_cycle_leaves_group_unfused():
    """SVM member a feeds a band that member b's feature reads: fusing a
    and b would close a cycle, so both run alone."""
    source = PortRef(SOURCE_CELL)
    first = make_feature_cell("mean", source, 16, LIB, name="mean_src")
    a = _tiny_svm_cell(0, KERNELS[1], PortRef("mean_src"), 1)

    def widen(inputs) -> Dict[str, np.ndarray]:
        return {"out": np.array([inputs[0][0], 1.0, -2.0, 0.5])}

    band = FunctionalCell("widen", "toy", {"add": 1}, ALUMode.SERIAL,
                          (PortRef(a.name),), (OutputPort("out", 4),), widen)
    second = make_feature_cell("max", PortRef("widen"), 4, LIB, name="max_band")
    b = _tiny_svm_cell(1, KERNELS[1], PortRef("max_band"), 2)
    rng = np.random.default_rng(4)
    fusion = WeightedVotingFusion().fit(rng.normal(size=(20, 2)), rng.integers(0, 2, 20))
    fuse = make_fusion_cell(fusion, [PortRef(a.name), PortRef(b.name)], LIB)
    cells = [first, a, band, second, b, fuse]
    topology = CellTopology(16, cells, PortRef("fusion"))
    engine = _assert_matches_execute(topology, set(), rng.normal(size=(4, 16)))
    runs = [step[0] for step in engine._plan]
    assert a.execute in runs and b.execute in runs
    assert len(engine._plan) == len(cells)


def test_group_reading_its_own_output_runs_unfused():
    """A feature over another feature's value (hand-made) would make the
    feature step read its own output: its cells run alone instead."""
    source = PortRef(SOURCE_CELL)
    cells = [
        make_feature_cell("mean", source, 16, LIB, name="mean_src"),
        make_feature_cell("var", source, 16, LIB, name="var_src"),
        make_feature_cell("max", PortRef("mean_src"), 1, LIB, name="max_of_mean"),
    ]
    members = [_tiny_svm_cell(i, KERNELS[1], PortRef(c.name), 30 + i) for i, c in enumerate(cells)]
    rng = np.random.default_rng(3)
    fusion = WeightedVotingFusion().fit(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
    cells += members + [make_fusion_cell(fusion, [PortRef(m.name) for m in members], LIB)]
    topology = CellTopology(16, cells, PortRef("fusion"))
    engine = _assert_matches_execute(topology, set(), rng.normal(size=(4, 16)))
    runs = [step[0] for step in engine._plan]
    for name in ("mean_src", "var_src", "max_of_mean"):
        assert topology.cell(name).execute in runs
    assert len(engine._plan) == 5  # three features, the SVM step, fusion


@pytest.fixture(scope="module")
def multiclass():
    dataset = load_multiclass_emg(n_classes=3, n_segments=90)
    layout = FeatureLayout(segment_length=dataset.segment_length)
    normalizer = MinMaxNormalizer().fit(layout.extract_matrix(dataset.segments))
    X = normalizer.transform(layout.extract_matrix(dataset.segments))
    classifier = OneVsRestSubspaceClassifier(
        n_features=layout.n_features, n_classes=3, subspace_dim=6, n_draws=6,
        keep_fraction=0.34, seed=4,
    ).fit(X, dataset.labels)
    topology = build_multiclass_topology(layout, classifier, normalizer, LIB)
    return topology, dataset.segments[:10]


def test_multiclass_argmax(multiclass):
    topology, segments = multiclass
    rng = np.random.default_rng(8)
    cuts = [sensor_cut(topology), aggregator_cut(topology)] + [
        {n for n in topology.cell_names if rng.random() < 0.5} for _ in range(6)
    ]
    for in_sensor in cuts:
        engine = _assert_matches_execute(topology, in_sensor, segments, argmax_decode)
        for seg in segments:
            assert engine.classify(seg).prediction == classify_multiclass(topology, seg)


# -- stack sharing and the gateway's predict paths -------------------------------


def test_topologies_share_the_ensemble_block(case):
    trained, _, _ = case
    block = _assert_one_block(trained.ensemble)
    for topology in (trained.build_topology(LIB), trained.build_topology(LIB)):
        classifiers = [topology.cell(n).family.constants.classifier
                       for n in _names(topology, "svm")]
        assert StackedScorer(classifiers).support.block is block
    assert _assert_one_block(trained.ensemble) is block


def test_predict_paths_unchanged_by_stacking(case):
    trained, _, _ = case
    segments = load_case("M1", n_segments=40).segments
    members = trained.ensemble.members
    # Pickled alone, each member derives its own, unstacked support rows.
    twins = [pickle.loads(pickle.dumps(m.classifier)) for m in members]
    assert all(twin._support.block is None for twin in twins)

    def reference(X):
        scores = np.column_stack(
            [np.atleast_1d(t.decision_function(X[:, m.feature_indices]))
             for t, m in zip(twins, members)]
        )
        return trained.ensemble.fusion.fuse(scores)

    X = trained.normalizer.transform(batch_extract_matrix(segments, trained.layout))
    expected = reference(X)
    assert _bits(trained.ensemble.decision_function(X)) == _bits(expected)
    assert np.array_equal(trained.predict_batch(segments), (expected > 0).astype(int))
    for seg in segments[:10]:
        x = trained.normalizer.transform(trained.layout.extract(seg))[None, :]
        single = reference(x)
        assert _bits(trained.ensemble.decision_function(x)) == _bits(single)
        assert trained.predict_segment(seg) == int(single[0] > 0)
