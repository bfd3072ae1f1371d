"""Component-swap tests: every policy is selected by a config string.

Each pluggable concern of the controller (scheduling, page policy,
write draining, refresh) must be swappable purely through
:class:`ControllerConfig` strings, with at least two registered
implementations whose behavior observably differs.
"""

import pytest

from repro.devices import DEVICES
from repro.dram import (
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.components.draining import (
    BurstDrainPolicy,
    WatermarkDrainPolicy,
)
from repro.dram.components.refreshing import AllBankRefresh, NoRefresh
from repro.dram.components.scheduling import FcfsScheduler, FrFcfsScheduler
from repro.dram.wqueue import WriteQueueConfig
from repro.errors import ConfigurationError
from repro.reliability.fingerprint import event_log_digest

from tests.conftest import make_reads, make_writes, run_stream


def controller(**kwargs):
    return MemoryController(ControllerConfig(**kwargs))


def mixed_stream(reads=60, writes=60):
    """Interleaved read/write backlog that forces write drains."""
    requests = make_reads(reads, stride=64, gap=2)
    requests += make_writes(writes, stride=64, start_address=1 << 20, gap=2)
    return sorted(requests, key=lambda r: r.arrival)


class TestSchedulingSwap:
    def test_config_string_selects_component(self):
        assert isinstance(controller()._sched, FrFcfsScheduler)
        assert isinstance(controller(scheduling="fcfs")._sched, FcfsScheduler)

    def test_fcfs_ignores_row_hits(self):
        # Two interleaved row streams to one bank: FR-FCFS reorders for
        # row hits, FCFS serves strictly in age order and ping-pongs.
        def run(scheduling):
            mc = controller(scheduling=scheduling, refresh="none")
            requests = []
            for i in range(20):
                row = (i % 2) * (1 << 21)  # alternate rows, same bank
                requests.append(
                    Request(RequestType.READ, row + (i // 2) * 64, arrival=0)
                )
            run_stream(mc, requests)
            return mc

        frfcfs = run("fr-fcfs")
        fcfs = run("fcfs")
        assert frfcfs.stats.row_hits > fcfs.stats.row_hits
        assert frfcfs.now < fcfs.now  # reordering pays off in time too

    def test_engines_agree_for_fcfs_too(self):
        digests = []
        for engine in ("packed", "reference"):
            mc = controller(scheduling="fcfs", engine=engine)
            run_stream(mc, mixed_stream())
            digests.append(event_log_digest(mc.log))
        assert digests[0] == digests[1]


class TestWriteDrainSwap:
    WQ = WriteQueueConfig(capacity=8, high_watermark=0.75, low_watermark=0.25)

    def test_config_string_selects_component(self):
        mc = controller()
        assert isinstance(mc._drain, WatermarkDrainPolicy)
        assert not isinstance(mc._drain, BurstDrainPolicy)
        assert isinstance(
            controller(write_drain="burst")._drain, BurstDrainPolicy
        )

    def test_burst_drains_deeper_than_watermark(self):
        def drained_writes(write_drain):
            mc = controller(write_drain=write_drain, write_queue=self.WQ,
                            refresh="none")
            # Writes plus a trickle of reads keeps read-pressure on, so
            # draining stops as early as the policy allows.
            requests = make_writes(40, stride=64, gap=1)
            requests += make_reads(40, stride=64, start_address=1 << 22,
                                   gap=40)
            run_stream(mc, sorted(requests, key=lambda r: r.arrival))
            return [end - start for start, end in mc.log.drain_windows]

        watermark = drained_writes("watermark")
        burst = drained_writes("burst")
        assert watermark and burst
        # Burst mode runs each forced drain until the buffer is empty,
        # so its drain windows are longer on average.
        assert max(burst) > max(watermark)


class TestRefreshSwap:
    def test_config_string_selects_component(self):
        assert isinstance(controller()._refresh, AllBankRefresh)
        assert isinstance(controller(refresh="none")._refresh, NoRefresh)

    def test_none_policy_never_refreshes(self):
        mc = controller(refresh="none")
        run_stream(mc, make_reads(50, gap=200))
        assert mc.log.refresh_windows == []
        assert mc.stats.refreshes == 0

    @pytest.mark.parametrize("device", DEVICES.names())
    def test_none_policy_overrides_every_preset(self, device):
        # A stream spanning several refresh intervals: the preset's own
        # policy refreshes during it, "none" never does.
        def run(refresh):
            mc = controller(device=device, refresh=refresh)
            return run_stream(mc, make_reads(60, stride=4096, gap=400))

        assert run(None).stats.refreshes > 0
        mc = run("none")
        assert mc.stats.refreshes == 0
        assert mc.log.refresh_windows == []
        assert mc.log.bank_refresh_windows == []


class TestUnknownNames:
    @pytest.mark.parametrize("field,value", [
        ("scheduling", "elevator"),
        ("page_policy", "ajar"),
        ("write_drain", "sieve"),
        ("refresh", "per-bank"),
    ])
    def test_unknown_component_name_rejected(self, field, value):
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(**{field: value})
        message = str(excinfo.value)
        assert repr(value) in message
        assert "expected one of" in message
