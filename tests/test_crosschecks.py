"""Cross-checks of from-scratch implementations against scipy/networkx.

Everything load-bearing in this library is implemented from scratch; these
tests validate the implementations against independent, widely-trusted
references:

- max-flow/min-cut vs :func:`networkx.maximum_flow`;
- statistical moments vs :mod:`scipy.stats`;
- DWT filtering vs direct :func:`scipy.signal` convolution;
- the EEG generator's spectral content vs a Welch periodogram.
"""

import networkx as nx
import numpy as np
import pytest
import scipy.signal
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.features import kurtosis, skewness, variance
from repro.dsp.wavelet import dwt_single_level
from repro.graph.maxflow import FlowNetwork
from repro.graph.stgraph import build_st_graph
from repro.signals.waveforms import EEGGenerator

SEGMENTS = arrays(
    np.float64,
    st.integers(8, 100),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
)


class TestMaxFlowVsNetworkx:
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 40)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, raw_edges):
        edges = [(u, v, float(c)) for u, v, c in raw_edges if u != v]
        if not edges:
            return
        ours = FlowNetwork()
        ours._node(0)
        ours._node(6)
        reference = nx.DiGraph()
        reference.add_nodes_from([0, 6])
        for u, v, c in edges:
            ours.add_edge(u, v, c)
            if reference.has_edge(u, v):
                reference[u][v]["capacity"] += c
            else:
                reference.add_edge(u, v, capacity=c)
        expected, _ = nx.maximum_flow(reference, 0, 6)
        assert ours.max_flow(0, 6).max_flow == pytest.approx(expected)

    def test_real_xpro_st_graph(self, tiny_topology, energy_lib_90, link_model2):
        graph = build_st_graph(tiny_topology, energy_lib_90, link_model2)
        reference = nx.DiGraph()
        for u, v, c in graph.network.edge_list():
            capacity = c if c != float("inf") else 1e9
            if reference.has_edge(u, v):
                reference[u][v]["capacity"] += capacity
            else:
                reference.add_edge(u, v, capacity=capacity)
        expected, _ = nx.maximum_flow(reference, "F", "B")
        _, ours = graph.solve()
        assert ours == pytest.approx(expected, rel=1e-9)

    def test_topology_is_a_dag_per_networkx(self, tiny_topology):
        from repro.cells.cell import SOURCE_CELL

        dag = nx.DiGraph()
        for name, cell in tiny_topology.cells.items():
            for ref in cell.inputs:
                if ref.cell != SOURCE_CELL:
                    dag.add_edge(ref.cell, name)
        assert nx.is_directed_acyclic_graph(dag)
        # Our topological order is a valid linearisation of the same DAG.
        position = {n: i for i, n in enumerate(tiny_topology.cell_names)}
        for u, v in dag.edges:
            assert position[u] < position[v]


class TestMomentsVsScipy:
    @given(SEGMENTS)
    @settings(max_examples=60)
    def test_skewness(self, seg):
        # Our hardware-faithful guard zeroes the ratio below m2 = 1e-12;
        # only compare where both paths compute the genuine statistic.
        assume(variance(seg) > 1e-9)
        ours = skewness(seg)
        reference = float(scipy.stats.skew(seg, bias=True))
        assert ours == pytest.approx(reference, abs=1e-7)

    @given(SEGMENTS)
    @settings(max_examples=60)
    def test_kurtosis(self, seg):
        assume(variance(seg) > 1e-9)
        ours = kurtosis(seg)
        reference = float(scipy.stats.kurtosis(seg, bias=True, fisher=False))
        assert ours == pytest.approx(reference, abs=1e-7)

    @given(SEGMENTS)
    @settings(max_examples=60)
    def test_variance(self, seg):
        assert variance(seg) == pytest.approx(float(np.var(seg)), abs=1e-8)


class TestDWTVsScipyConvolution:
    def test_analysis_step_matches_direct_convolution(self, rng):
        lowpass = np.array([2**-0.5, 2**-0.5])
        highpass = np.array([2**-0.5, -(2**-0.5)])
        x = rng.normal(size=64)
        a, d = dwt_single_level(x)
        # Reference: periodic extension + scipy correlation + downsample.
        ext = np.concatenate([x, x[:1]])
        ref_a = scipy.signal.correlate(ext, lowpass, mode="valid")[: len(x)][::2]
        ref_d = scipy.signal.correlate(ext, highpass, mode="valid")[: len(x)][::2]
        assert np.allclose(a, ref_a, atol=1e-10)
        assert np.allclose(d, ref_d, atol=1e-10)


class TestGeneratorSpectraVsWelch:
    def test_eeg_alpha_rhythm_visible_in_psd(self):
        """Class-0 EEG carries 8-12 Hz alpha power well above the 25-45 Hz
        background — checked with scipy's Welch estimator."""
        generator = EEGGenerator(1024, sample_rate=256.0)
        rng = np.random.default_rng(2)
        segments = np.stack([generator.generate(rng, 0) for _ in range(24)])
        freqs, psd = scipy.signal.welch(segments, fs=256.0, nperseg=512, axis=1)
        mean_psd = psd.mean(axis=0)
        alpha = mean_psd[(freqs >= 8) & (freqs <= 12)].mean()
        background = mean_psd[(freqs >= 25) & (freqs <= 45)].mean()
        assert alpha > 3 * background
