"""Microbenchmarks of the core computational components.

These are conventional pytest-benchmark timings (many rounds) of the hot
paths: DWT, feature extraction, SVM inference, the Dinic min-cut on a real
XPro s-t graph, the Automatic Generator end to end, and the cross-end
engine's per-segment classification.
"""

import numpy as np
import pytest

from repro.core.engine import CrossEndEngine
from repro.core.generator import AutomaticXProGenerator
from repro.core.layout import FeatureLayout
from repro.dsp.features import feature_vector
from repro.dsp.wavelet import dwt_multilevel
from repro.graph.stgraph import build_st_graph
from repro.hw.wireless import WirelessLink


@pytest.fixture(scope="module")
def setup(full_context):
    ctx = full_context
    symbol = "E1"
    topology = ctx.topology(symbol, "90nm")
    lib = ctx.energy_library("90nm")
    link = WirelessLink("model2")
    generator = AutomaticXProGenerator(topology, lib, link, ctx.cpu)
    return ctx, symbol, topology, lib, link, generator


def test_dwt_multilevel_128(benchmark):
    segment = np.random.default_rng(0).normal(size=128)
    bands = benchmark(dwt_multilevel, segment, 5)
    assert len(bands) == 6


def test_feature_vector_128(benchmark):
    segment = np.random.default_rng(0).normal(size=128)
    vec = benchmark(feature_vector, segment)
    assert vec.shape == (8,)


def test_full_feature_layout_extract(benchmark):
    layout = FeatureLayout(segment_length=128)
    segment = np.random.default_rng(0).normal(size=128)
    vec = benchmark(layout.extract, segment)
    assert vec.shape == (56,)


def test_ensemble_inference(benchmark, setup):
    ctx, symbol, *_ = setup
    engine = ctx.engine(symbol)
    segment = np.random.default_rng(0).normal(size=128)
    pred = benchmark(engine.predict_segment, segment)
    assert pred in (0, 1)


def test_st_graph_construction(benchmark, setup):
    _, _, topology, lib, link, _ = setup
    graph = benchmark(build_st_graph, topology, lib, link)
    assert len(graph.cell_names) == len(topology)


def test_min_cut_solve(benchmark, setup):
    _, _, topology, lib, link, _ = setup

    def build_and_solve():
        return build_st_graph(topology, lib, link).solve()

    in_sensor, capacity = benchmark(build_and_solve)
    assert capacity > 0


def test_generator_end_to_end(benchmark, setup):
    *_, generator = setup
    result = benchmark(generator.generate)
    assert result.metrics.sensor_total_j > 0


def test_cross_end_classification(benchmark, setup):
    _, _, topology, _, _, generator = setup
    engine = CrossEndEngine(topology, generator.generate().partition)
    segment = np.random.default_rng(0).normal(size=topology.segment_length)
    result = benchmark(engine.classify, segment)
    assert result.prediction in (0, 1)
