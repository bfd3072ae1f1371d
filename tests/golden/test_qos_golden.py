"""Golden QoS fingerprints: multi-requester runs under wrr / bank-reg.

The scenarios are the canonical QoS setup (two CPU cores running the
random pattern in requester domain 0 plus a streaming agent in domain
1, :func:`~repro.experiments.runner.run_qos`) fingerprinted with
:func:`~repro.reliability.fingerprint.qos_fingerprint` — the standard
event-log fingerprint *plus* a per-requester section carrying every
bandwidth and latency stack row at full float precision. Any change to
arbitration, attribution, or the interference split fails the
comparison with a per-requester, per-component diff.

The single-requester degenerate case deliberately has no fixture here:
it is pinned by the *existing* golden files, which
tests/dram/test_qos_properties.py proves the QoS schedulers reproduce
bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.system import CpuSystem
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import qos_scenario, run_qos
from repro.reliability.fingerprint import qos_fingerprint
from repro.stacks.requester import REQUESTER_BANDWIDTH_COMPONENTS

# Small but contended: ~2.4k accesses across three cores (2 CPU + agent).
QOS_SCALE = ExperimentScale(
    "qos-golden",
    synthetic_accesses=600,
    graph_scale=9,
    graph_degree=6,
)

#: Requester rows every QoS fingerprint of this scenario must carry:
#: both domains plus the shared (-1) refresh/idle row.
EXPECTED_ROWS = {"-1", "0", "1"}


def _check_requester_sections(fp: dict) -> None:
    assert set(fp["requesters"]) == EXPECTED_ROWS
    for rid, section in fp["requesters"].items():
        names = [name for name, __ in section["bandwidth"]]
        assert set(names) <= set(REQUESTER_BANDWIDTH_COMPONENTS)
        if rid == "-1":
            assert "latency" not in section  # nobody's reads
        else:
            assert section["latency"], f"requester {rid} has no reads"


def test_wrr_two_cores_plus_agent(golden):
    result = run_qos(scheduling="wrr", scale=QOS_SCALE, guard=False)
    fp = golden("qos-wrr-2c-agent", qos_fingerprint(result))
    _check_requester_sections(fp)
    assert fp["digest"] != fp["base_digest"]


def test_bank_reg_two_cores_plus_agent(golden):
    result = run_qos(
        scheduling="bank-reg:period=1000,budget=4",
        scale=QOS_SCALE,
        guard=False,
    )
    fp = golden("qos-bank-reg-2c-agent", qos_fingerprint(result))
    _check_requester_sections(fp)


@pytest.mark.slow
@pytest.mark.parametrize(
    "scheduling", ["wrr:3,1", "bank-reg:period=1000,budget=4"]
)
def test_fast_vs_reference_engines_match(scheduling):
    """The QoS schedulers keep the two core engines bit-identical."""
    config, traces = qos_scenario(scheduling=scheduling, scale=QOS_SCALE)
    fingerprints = [
        qos_fingerprint(CpuSystem(replace(
            config, core=replace(config.core, engine=engine)
        )).run(traces, guard=False))
        for engine in ("fast", "reference")
    ]
    assert fingerprints[0]["digest"] == fingerprints[1]["digest"]
