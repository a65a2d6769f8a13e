"""Golden key trees of the chaos and supervision summary documents.

``xpro-chaos-summary-v1`` and ``xpro-supervision-summary-v1`` are what
the CLI writes with ``--json`` and what the committed baselines under
``benchmarks/results/`` hold.  These tests run both stages at their
``--smoke`` configuration through the CLI and pin every key path of the
written document (``[]`` marks the elements of a list), so a layout
change shows up here rather than in a downstream reader.
"""

import json

import pytest

from repro.cli import main

#: Key paths of the ``repro chaos --smoke --json`` document.
CHAOS_KEYS = """
    axes_max.battery_overhead axes_max.latency_tail
    axes_max.silent_corruption axes_max.unavailability bundle_paths bundles
    config.evaluations config.generations config.n_events config.population
    config.seed fixed[].badness fixed[].battery_overhead_pct
    fixed[].degraded_pct fixed[].generation fixed[].label
    fixed[].latency_tail_x fixed[].scenario_key
    fixed[].silent_corruption_pct fixed[].unavailability_pct
    frontier[].badness frontier[].battery_overhead_pct
    frontier[].degraded_pct frontier[].generation frontier[].label
    frontier[].latency_tail_x frontier[].scenario_key
    frontier[].silent_corruption_pct frontier[].unavailability_pct
    replay.bit_identical replay.bundle_id replay.report_digest schema
    strictly_worse_than_fixed worst.badness worst.battery_overhead_pct
    worst.degraded_pct worst.generation worst.label worst.latency_tail_x
    worst.report_digest worst.scenario.bitflip_rate
    worst.scenario.brownout_len worst.scenario.brownout_start
    worst.scenario.burst_loss_bad worst.scenario.burst_loss_good
    worst.scenario.burst_p_bg worst.scenario.burst_p_gb
    worst.scenario.erasure_rate worst.scenario.max_bit_flips
    worst.scenario.n_events worst.scenario.outage_len
    worst.scenario.outage_start worst.scenario.seed worst.scenario.stall_len
    worst.scenario.stall_ms worst.scenario.stall_start worst.scenario_key
    worst.silent_corruption_pct worst.unavailability_pct
""".split()

#: Key paths of the ``repro supervision --smoke --json`` document.
SUPERVISION_KEYS = """
    availability_preserved breaker_saves_energy config.arq.backoff_factor
    config.arq.max_retries config.arq.timeout_s
    config.breaker.backoff_factor config.breaker.failure_threshold
    config.breaker.max_backoff_events config.breaker.probe_backoff_events
    config.breaker.probe_retries config.devices config.n_events config.node
    config.round_events config.rounds config.seed config.symbol
    config.wireless fleet.devices fleet.final_states.node00
    fleet.final_states.node01 fleet.final_states.node02
    fleet.history[].round fleet.history[].scheduled
    fleet.history[].states.node00 fleet.history[].states.node01
    fleet.history[].states.node02 fleet.round_events fleet.rounds
    fleet.sick_device fleet.sick_final_state fleet.sick_quarantines
    fleet.sick_rest_rounds fleet.state_counts.degraded
    fleet.state_counts.healthy fleet.state_counts.quarantined
    fleet.state_counts.recovering resume.bit_identical
    resume.checkpoint_every resume.reference_digest resume.resumed_digest
    resume_bit_identical scenarios[].availability_pct
    scenarios[].blocked_events scenarios[].degraded_pct
    scenarios[].dropped_pct scenarios[].opens scenarios[].probe_successes
    scenarios[].probes scenarios[].retransmissions
    scenarios[].retry_energy_uj scenarios[].scenario
    scenarios[].sensor_uj_per_event scenarios[].wasted_radio_uj schema
    wasted_radio_saved_uj
""".split()


def key_paths(node, prefix=""):
    """Every leaf key path of a JSON tree; list elements share ``[]``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from key_paths(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list) and node and isinstance(node[0], (dict, list)):
        for item in node:
            yield from key_paths(item, prefix + "[]")
    else:
        yield prefix


@pytest.mark.parametrize(
    "command,schema,golden",
    [
        ("chaos", "xpro-chaos-summary-v1", CHAOS_KEYS),
        ("supervision", "xpro-supervision-summary-v1", SUPERVISION_KEYS),
    ],
)
def test_smoke_summary_key_tree(tmp_path, capsys, command, schema, golden):
    path = tmp_path / f"{command}.json"
    assert main([command, "--smoke", "--json", str(path)]) == 0
    capsys.readouterr()
    summary = json.loads(path.read_text())
    assert summary["schema"] == schema
    assert sorted(set(key_paths(summary))) == golden
