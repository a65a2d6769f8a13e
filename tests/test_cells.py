"""Tests for the functional-cell model, library and topology graph."""

import numpy as np
import pytest

from repro.cells.cell import (
    FEATURE_BITS,
    SOURCE_CELL,
    FunctionalCell,
    OutputPort,
    PortRef,
)
from repro.cells.library import (
    choose_alu_mode,
    dwt_op_counts,
    make_dwt_cell,
    make_feature_cell,
    make_fusion_cell,
    make_svm_cell,
)
from repro.cells.topology import CellTopology
from repro.dsp.features import skewness, variance
from repro.dsp.wavelet import dwt_single_level
from repro.errors import ConfigurationError, TopologyError
from repro.hw.energy import ALUMode
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.svm import SVMClassifier


def _const_cell(name, inputs, n_out=1, value=1.0, module="toy"):
    def compute(arrays):
        return {"out": np.full(n_out, value)}

    return FunctionalCell(
        name=name,
        module=module,
        op_counts={"add": 1},
        mode=ALUMode.SERIAL,
        inputs=tuple(inputs),
        outputs=(OutputPort("out", n_out),),
        compute=compute,
    )


class TestCellModel:
    def test_port_lookup(self):
        cell = _const_cell("a", [PortRef(SOURCE_CELL)])
        assert cell.port("out").n_values == 1
        with pytest.raises(TopologyError):
            cell.port("nope")

    def test_execute_validates_arity(self):
        cell = _const_cell("a", [PortRef(SOURCE_CELL)])
        with pytest.raises(TopologyError):
            cell.execute([])

    def test_execute_validates_output_shape(self):
        def bad(arrays):
            return {"out": np.zeros(3)}

        cell = FunctionalCell(
            name="bad",
            module="toy",
            op_counts={},
            mode=ALUMode.SERIAL,
            inputs=(),
            outputs=(OutputPort("out", 1),),
            compute=bad,
        )
        with pytest.raises(TopologyError):
            cell.execute([])

    def test_missing_port_detected(self):
        def wrong_name(arrays):
            return {"result": np.zeros(1)}

        cell = FunctionalCell(
            name="w",
            module="toy",
            op_counts={},
            mode=ALUMode.SERIAL,
            inputs=(),
            outputs=(OutputPort("out", 1),),
            compute=wrong_name,
        )
        with pytest.raises(TopologyError):
            cell.execute([])

    def test_reserved_name_rejected(self):
        with pytest.raises(ConfigurationError):
            _const_cell(SOURCE_CELL, [])

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionalCell(
                name="d",
                module="toy",
                op_counts={},
                mode=ALUMode.SERIAL,
                inputs=(),
                outputs=(OutputPort("out", 1), OutputPort("out", 2)),
                compute=lambda a: {},
            )

    def test_port_bits(self):
        port = OutputPort("out", 10, 16)
        assert port.bits == 160


class TestLibraryCells:
    def test_feature_cell_computes_feature(self, energy_lib_90, rng):
        cell = make_feature_cell("skew", PortRef(SOURCE_CELL), 64, energy_lib_90)
        seg = rng.normal(size=64)
        out = cell.execute([seg])["out"]
        assert out[0] == pytest.approx(skewness(seg))

    def test_std_cell_consumes_variance(self, energy_lib_90):
        cell = make_feature_cell(
            "std", PortRef("var@seg0", "out"), 64, energy_lib_90, name="std@seg0"
        )
        out = cell.execute([np.array([4.0])])["out"]
        assert out[0] == pytest.approx(2.0)
        assert cell.op_counts == {"super": 1}

    def test_feature_cell_port_is_8bit(self, energy_lib_90):
        cell = make_feature_cell("max", PortRef(SOURCE_CELL), 32, energy_lib_90)
        assert cell.port("out").bits_per_value == FEATURE_BITS

    def test_unknown_feature_rejected(self, energy_lib_90):
        with pytest.raises(ConfigurationError):
            make_feature_cell("median", PortRef(SOURCE_CELL), 32, energy_lib_90)

    def test_dwt_cell_semantics(self, energy_lib_90, rng):
        cell = make_dwt_cell(1, PortRef(SOURCE_CELL), 32, energy_lib_90)
        seg = rng.normal(size=32)
        out = cell.execute([seg])
        a, d = dwt_single_level(seg)
        assert np.allclose(out["approx"], a)
        assert np.allclose(out["detail"], d)

    def test_dwt_cell_alignment(self, energy_lib_90, rng):
        cell = make_dwt_cell(
            1, PortRef(SOURCE_CELL), 128, energy_lib_90, align_to=128
        )
        seg = rng.normal(size=82)  # shorter than aligned length
        out = cell.execute([seg])
        assert len(out["approx"]) == 64

    def test_dwt_mode_dependent_op_counts(self):
        pipe = dwt_op_counts(128, ALUMode.PIPELINE)
        serial = dwt_op_counts(128, ALUMode.SERIAL)
        assert pipe["mul"] == 256
        assert serial["mul"] == 128 * 128

    def test_dwt_align_mismatch_rejected(self, energy_lib_90):
        with pytest.raises(ConfigurationError):
            make_dwt_cell(1, PortRef(SOURCE_CELL), 64, energy_lib_90, align_to=128)

    def test_svm_cell_matches_classifier(self, energy_lib_90, rng):
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        svm = SVMClassifier().fit(X, y)
        mins = np.array([-3.0, -3.0, -3.0])
        ranges = np.array([6.0, 6.0, 6.0])
        refs = [PortRef(f"f{i}", "out") for i in range(3)]
        cell = make_svm_cell(0, svm, refs, mins, ranges, energy_lib_90)
        raw = np.array([0.5, -0.2, 1.0])
        normalised = np.clip((raw - mins) / ranges, 0, 1)
        expected = float(np.atleast_1d(svm.decision_function(normalised))[0])
        got = cell.execute([np.array([v]) for v in raw])["out"][0]
        assert got == pytest.approx(expected)

    def test_svm_cell_validates_shapes(self, energy_lib_90, rng):
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        svm = SVMClassifier().fit(X, y)
        with pytest.raises(ConfigurationError):
            make_svm_cell(
                0, svm, [PortRef("f0")], np.zeros(2), np.ones(2), energy_lib_90
            )
        with pytest.raises(ConfigurationError):
            make_svm_cell(
                0,
                svm,
                [PortRef("f0"), PortRef("f1")],
                np.zeros(2),
                np.zeros(2),  # zero ranges
                energy_lib_90,
            )

    def test_fusion_cell_weighted_sum(self, energy_lib_90, rng):
        S = rng.normal(size=(40, 2))
        y = (S @ np.array([1.0, -1.0]) > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        cell = make_fusion_cell(
            fusion, [PortRef("m0"), PortRef("m1")], energy_lib_90
        )
        scores = np.array([0.3, -0.7])
        expected = float(scores @ fusion.weights + fusion.intercept)
        got = cell.execute([np.array([s]) for s in scores])["out"][0]
        assert got == pytest.approx(expected)

    def test_choose_alu_mode_requires_candidates(self, energy_lib_90):
        with pytest.raises(ConfigurationError):
            choose_alu_mode({}, energy_lib_90)


class TestTopology:
    def _chain(self):
        a = _const_cell("a", [PortRef(SOURCE_CELL)])
        b = _const_cell("b", [PortRef("a", "out")])
        return CellTopology(segment_length=8, cells=[a, b], result=PortRef("b", "out"))

    def test_topological_order(self):
        topo = self._chain()
        assert topo.cell_names == ("a", "b")

    def test_consumers_and_predecessors(self):
        topo = self._chain()
        assert topo.consumers(PortRef("a", "out")) == ["b"]
        assert topo.predecessors("b") == {"a"}
        assert topo.reads_source("a") and not topo.reads_source("b")

    def test_dangling_input_rejected(self):
        with pytest.raises(TopologyError):
            CellTopology(
                segment_length=8,
                cells=[_const_cell("a", [PortRef("ghost", "out")])],
                result=PortRef("a", "out"),
            )

    def test_missing_result_rejected(self):
        a = _const_cell("a", [PortRef(SOURCE_CELL)])
        with pytest.raises(TopologyError):
            CellTopology(segment_length=8, cells=[a], result=PortRef("z", "out"))

    def test_cycle_rejected(self):
        a = _const_cell("a", [PortRef("b", "out")])
        b = _const_cell("b", [PortRef("a", "out")])
        with pytest.raises(TopologyError):
            CellTopology(segment_length=8, cells=[a, b], result=PortRef("b", "out"))

    def test_duplicate_names_rejected(self):
        a1 = _const_cell("a", [PortRef(SOURCE_CELL)])
        a2 = _const_cell("a", [PortRef(SOURCE_CELL)])
        with pytest.raises(TopologyError):
            CellTopology(segment_length=8, cells=[a1, a2], result=PortRef("a", "out"))

    def test_execute_produces_all_ports(self):
        topo = self._chain()
        values = topo.execute(np.zeros(8))
        assert PortRef("a", "out") in values
        assert PortRef("b", "out") in values

    def test_execute_validates_segment(self):
        topo = self._chain()
        with pytest.raises(ConfigurationError):
            topo.execute(np.zeros(5))

    def test_source_port_shape(self):
        topo = self._chain()
        assert topo.port_of(PortRef(SOURCE_CELL, "out")).n_values == 8
        with pytest.raises(TopologyError):
            topo.port_of(PortRef(SOURCE_CELL, "other"))
