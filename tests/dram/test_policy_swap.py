"""Policy-swap tests: every policy is selected by a config string.

Each policy kind of the controller (scheduling, page policy, refresh)
is swapped purely through :class:`ControllerConfig` strings, between
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
from repro.dram.components.refreshing import AllBankRefresh, NoRefresh
from repro.dram.components.scheduling import FcfsScheduler, FrFcfsScheduler
from repro.errors import ConfigurationError
from repro.experiments.config import paper_system
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
        ("refresh", "per-bank"),
        ("address_scheme", "nope"),
        # Unhashable values are unknown names too, not a TypeError.
        ("page_policy", ["open"]),
        ("refresh", {}),
        ("address_scheme", ["default"]),
    ])
    def test_unknown_component_name_rejected(self, field, value):
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(**{field: value})
        message = str(excinfo.value)
        assert repr(value) in message
        assert "expected one of" in message


class TestBadValues:
    @pytest.mark.parametrize("device,spec_name", [
        (None, "DDR4-2400"),
        ("ddr5-4800", "DDR5-4800-sc2"),
        ("hbm2", "HBM2-pc8"),
    ])
    def test_scheme_that_misses_a_spec_field_rejected(
        self, device, spec_name
    ):
        # The "lpddr5" scheme has no bank-group field; these specs do.
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(address_scheme="lpddr5", device=device)
        message = str(excinfo.value)
        assert "address_scheme 'lpddr5'" in message
        assert spec_name in message
        with pytest.raises(ConfigurationError, match="address_scheme"):
            paper_system(address_scheme="lpddr5", device=device)
