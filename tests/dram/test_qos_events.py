"""Event-log regression tests for the multi-requester model.

Every blocked window in the controller's event log names the victim
requester whose candidate waited and whether the binding constraint was
last touched by a *different* requester (interference). The
per-requester stacks read those windows offline, so a contended run
must record them on both engines. The default reliability guard (the
forward-progress watchdog and the invariant auditor) must keep working,
untouched, on multi-requester runs.
"""

from __future__ import annotations

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.controller import ENGINES
from repro.dram.timing import DDR4_2400
from tests.conftest import run_stream


class TestInterferenceInLog:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_contended_wrr_run_logs_interference(self, engine):
        ctrl = MemoryController(ControllerConfig(
            spec=DDR4_2400, scheduling="wrr", engine=engine,
        ))
        requests = [
            Request(
                RequestType.READ, (r << 22) + i * 64, arrival=0,
                core_id=r, requester_id=r,
            )
            for i in range(16) for r in (0, 1)
        ]
        run_stream(ctrl, requests)
        windows = [window for window in ctrl.log.blocked if window[6]]
        assert windows, (
            "a contended 2-requester run must log interference"
        )
        for start, end, __, __, reason, victim, __ in windows:
            assert start < end
            assert reason
            assert victim in (0, 1)


class TestExistingSubscribersSurvive:
    def test_default_guard_on_multi_requester_run(self):
        """run_qos under the default watchdog + auditor guard."""
        from repro.experiments.config import ExperimentScale
        from repro.experiments.runner import run_qos

        tiny = ExperimentScale(
            "qos-tiny", synthetic_accesses=60, graph_scale=8,
            graph_degree=4,
        )
        result = run_qos(scheduling="wrr", scale=tiny, guard=None)
        assert result.dram_reads > 0
