"""Tests for the hardware models: technology, energy/ALU modes, wireless,
battery, aggregator CPU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw.aggregator import AggregatorCPU
from repro.hw.battery import AGGREGATOR_BATTERY, SENSOR_BATTERY, BatteryModel
from repro.hw.energy import ALUMode, EnergyLibrary, OperationEnergyTable
from repro.hw.technology import PROCESS_NODES, get_node
from repro.hw.wireless import WIRELESS_MODELS, WirelessLink, get_wireless_model


class TestTechnology:
    def test_three_nodes(self):
        assert set(PROCESS_NODES) == {"130nm", "90nm", "45nm"}

    def test_90nm_is_reference(self):
        assert get_node("90nm").dynamic_scale == 1.0

    def test_scaling_monotone(self):
        assert (
            get_node("130nm").dynamic_scale
            > get_node("90nm").dynamic_scale
            > get_node("45nm").dynamic_scale
        )

    def test_unknown_node(self):
        with pytest.raises(ConfigurationError):
            get_node("28nm")


class TestEnergyLibrary:
    def test_energy_scales_with_node(self):
        counts = {"add": 100, "mul": 50}
        e = {
            node: EnergyLibrary(node).cell_cost(counts).energy_j
            for node in PROCESS_NODES
        }
        assert e["130nm"] > e["90nm"] > e["45nm"]
        assert e["130nm"] / e["90nm"] == pytest.approx(2.2)

    def test_zero_ops_cost_nothing(self):
        cost = EnergyLibrary().cell_cost({})
        assert cost.energy_j == 0.0 and cost.cycles == 0

    def test_serial_cycles_accumulate_latency(self):
        lib = EnergyLibrary()
        assert lib.serial_cycles({"add": 3}) == 3
        assert lib.serial_cycles({"super": 2}) > 4

    def test_pipeline_shortens_delay(self):
        lib = EnergyLibrary()
        counts = {"mul": 400, "add": 400}
        serial = lib.cell_cost(counts, ALUMode.SERIAL)
        pipe = lib.cell_cost(counts, ALUMode.PIPELINE)
        assert pipe.cycles < serial.cycles

    def test_parallel_shortens_delay_costs_energy(self):
        lib = EnergyLibrary()
        counts = {"mul": 640}
        serial = lib.cell_cost(counts, ALUMode.SERIAL)
        par = lib.cell_cost(counts, ALUMode.PARALLEL, parallel_width=64)
        assert par.cycles < serial.cycles
        assert par.energy_j > serial.energy_j

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyLibrary().cell_cost({"fma": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyLibrary().cell_cost({"add": -1})

    def test_invalid_constructor_args(self):
        with pytest.raises(ConfigurationError):
            EnergyLibrary(clock_hz=0)
        with pytest.raises(ConfigurationError):
            EnergyLibrary(calibration=0.0)

    def test_seconds_conversion(self):
        lib = EnergyLibrary(clock_hz=16e6)
        assert lib.seconds(16) == pytest.approx(1e-6)

    def test_characterize_module_finds_best(self):
        lib = EnergyLibrary()
        counts = {m: {"add": 100} for m in ALUMode}
        char = lib.characterize_module("toy", counts, parallel_width=8)
        assert char.best_mode in ALUMode
        assert char.energy_of(char.best_mode) == min(char.per_mode.values())

    def test_characterize_requires_all_modes(self):
        lib = EnergyLibrary()
        with pytest.raises(ConfigurationError):
            lib.characterize_module("toy", {ALUMode.SERIAL: {"add": 1}})

    @given(
        st.dictionaries(
            st.sampled_from(["add", "sub", "mul", "div", "cmp", "super"]),
            st.integers(1, 500),
            min_size=1,
        )
    )
    @settings(max_examples=60)
    def test_energy_and_delay_always_positive(self, counts):
        lib = EnergyLibrary()
        for mode in ALUMode:
            cost = lib.cell_cost(counts, mode, parallel_width=16)
            assert cost.energy_j > 0 and cost.cycles >= 1

    @given(st.integers(1, 500))
    @settings(max_examples=40)
    def test_energy_monotone_in_op_count(self, n):
        lib = EnergyLibrary()
        small = lib.cell_cost({"mul": n}).energy_j
        large = lib.cell_cost({"mul": n + 1}).energy_j
        assert large > small


class TestFig4Shapes:
    """The paper's Figure 4 orderings, as library-level invariants."""

    def test_serial_optimal_for_most_features(self, energy_lib_90):
        from repro.cells.library import characterize_all_modules

        rows = {c.module: c for c in characterize_all_modules(energy_lib_90)}
        for module in ("max", "min", "mean", "var", "czero", "skew", "kurt",
                       "svm", "fusion"):
            assert rows[module].best_mode is ALUMode.SERIAL, module

    def test_pipeline_optimal_for_std_and_dwt(self, energy_lib_90):
        from repro.cells.library import characterize_all_modules

        rows = {c.module: c for c in characterize_all_modules(energy_lib_90)}
        assert rows["std"].best_mode is ALUMode.PIPELINE
        assert rows["dwt"].best_mode is ALUMode.PIPELINE

    def test_parallel_dwt_orders_of_magnitude_worse(self, energy_lib_90):
        from repro.cells.library import characterize_all_modules

        rows = {c.module: c for c in characterize_all_modules(energy_lib_90)}
        dwt = rows["dwt"]
        assert dwt.per_mode[ALUMode.PARALLEL] > 30 * dwt.per_mode[ALUMode.SERIAL]


class TestWireless:
    def test_three_models_present(self):
        assert set(WIRELESS_MODELS) == {"model1", "model2", "model3"}

    def test_paper_energy_figures(self):
        m1 = get_wireless_model("model1")
        assert (m1.tx_nj_per_bit, m1.rx_nj_per_bit) == (2.90, 3.30)
        m2 = get_wireless_model("model2")
        assert (m2.tx_nj_per_bit, m2.rx_nj_per_bit) == (1.53, 1.71)
        m3 = get_wireless_model("model3")
        assert (m3.tx_nj_per_bit, m3.rx_nj_per_bit) == (0.42, 0.295)

    def test_header_included_once_per_payload(self):
        link = WirelessLink("model2")
        assert link.payload_bits(10, 16) == 168
        assert link.payload_bits(0, 16) == 0

    def test_eq3_energy_model(self):
        link = WirelessLink("model2")
        bits = 10 * 16 + 8
        assert link.tx_energy(10, 16) == pytest.approx(bits * 1.53e-9)
        assert link.rx_energy(10, 16) == pytest.approx(bits * 1.71e-9)

    def test_transfer_delay(self):
        link = WirelessLink("model2")  # 2 Mbps
        assert link.transfer_delay(10, 16) == pytest.approx(168 / 2e6)

    def test_raw_bit_helpers(self):
        link = WirelessLink("model3")
        assert link.tx_energy_bits(1000) == pytest.approx(420e-9)
        with pytest.raises(ConfigurationError):
            link.tx_energy_bits(-1)

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            WirelessLink("model9")

    def test_invalid_payload(self):
        with pytest.raises(ConfigurationError):
            WirelessLink().payload_bits(-1, 16)


class TestBattery:
    def test_standard_configurations(self):
        assert SENSOR_BATTERY.capacity_mah == 40.0
        assert AGGREGATOR_BATTERY.capacity_mah == 2900.0

    def test_energy_joules(self):
        assert SENSOR_BATTERY.energy_j == pytest.approx(40e-3 * 3600 * 3.0)

    def test_lifetime_inverse_in_power(self):
        life1 = SENSOR_BATTERY.lifetime_hours(1e-6)
        life2 = SENSOR_BATTERY.lifetime_hours(2e-6)
        assert life1 / life2 == pytest.approx(2.0, rel=1e-6)

    def test_zero_load_infinite(self):
        assert SENSOR_BATTERY.lifetime_hours(0.0) == float("inf")

    def test_rate_capacity_derating(self):
        heavy = SENSOR_BATTERY.usable_energy_j(1.0)  # 1 W: far above C/5
        assert heavy < SENSOR_BATTERY.energy_j

    def test_light_load_not_derated(self):
        assert SENSOR_BATTERY.usable_energy_j(1e-6) == SENSOR_BATTERY.energy_j

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            BatteryModel(capacity_mah=0, voltage_v=3.0)
        with pytest.raises(ConfigurationError):
            BatteryModel(capacity_mah=40, voltage_v=3.0, peukert_exponent=0.9)
        with pytest.raises(ConfigurationError):
            SENSOR_BATTERY.usable_energy_j(-1.0)


class TestAggregatorCPU:
    def test_energy_and_time_positive(self):
        cpu = AggregatorCPU()
        counts = {"add": 100, "mul": 50, "super": 2}
        assert cpu.compute_energy(counts) > 0
        assert cpu.compute_time(counts) > 0

    def test_super_ops_weighted_heavily(self):
        cpu = AggregatorCPU()
        assert cpu.weighted_ops({"super": 1}) > cpu.weighted_ops({"add": 1})

    def test_listen_and_idle_energy(self):
        cpu = AggregatorCPU()
        assert cpu.listen_energy(1e-3) == pytest.approx(30e-3 * 1e-3)
        assert cpu.idle_energy(1.0) == pytest.approx(5e-3)

    def test_invalid_inputs(self):
        cpu = AggregatorCPU()
        with pytest.raises(ConfigurationError):
            cpu.weighted_ops({"add": -1})
        with pytest.raises(ConfigurationError):
            cpu.weighted_ops({"quantum": 1})
        with pytest.raises(ConfigurationError):
            cpu.listen_energy(-1.0)
        with pytest.raises(ConfigurationError):
            AggregatorCPU(ops_per_second=0)
