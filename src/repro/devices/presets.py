"""Device presets: timing + organization + system shape per standard.

A :class:`DevicePreset` bundles everything a controller config needs
to model one memory technology: the :class:`TimingSpec` (one channel's
worth), how many independent channels the device presents (DDR5
sub-channels, HBM pseudo-channels), which refresh policy it uses and
which named address scheme it ships with. :data:`DEVICES` maps each
preset name to its factory, and :func:`make_device` resolves selector
strings (``"ddr5-4800:subchannels=2"``) to built presets;
``ControllerConfig(device=...)`` and the CLI ``--device`` flag go
through it.

The DDR4 presets return the *same* :class:`TimingSpec` objects the
codebase has always used, so selecting ``ddr4-2400`` by name is
bit-identical to the historic default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dram.timing import (
    DDR4_2400,
    DDR4_3200,
    DDR5_4800,
    Organization,
    TimingSpec,
)
from repro.errors import ConfigurationError, require_choice


@dataclass(frozen=True)
class DevicePreset:
    """One selectable memory device configuration.

    Attributes:
        name: resolved preset name (includes chosen parameters).
        spec: per-channel timing spec.
        channels: independent channels the device presents (sub- or
            pseudo-channels); >1 builds a
            :class:`~repro.dram.system.MemorySystem` behind the
            processor instead of a single controller.
        refresh: refresh policy registry name the preset defaults to.
        mapping: address scheme registry name the preset ships with.
        description: one-line human summary for ``specs`` listings.
    """

    name: str
    spec: TimingSpec
    channels: int = 1
    refresh: str = "all-bank"
    mapping: str = "default"
    description: str = ""

    def __post_init__(self) -> None:
        if self.channels < 1 or self.channels & (self.channels - 1):
            raise ConfigurationError(
                f"device {self.name!r}: channels must be a positive "
                f"power of two, got {self.channels}"
            )

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak across all channels."""
        return self.spec.peak_bandwidth_gbps * self.channels


def _ddr4_2400() -> DevicePreset:
    """The paper's configuration, unchanged (bit-identical baseline)."""
    return DevicePreset(
        name="ddr4-2400",
        spec=DDR4_2400,
        description="DDR4-2400, 1 channel, 16 banks, 19.2 GB/s (paper)",
    )


def _ddr4_3200() -> DevicePreset:
    return DevicePreset(
        name="ddr4-3200",
        spec=DDR4_3200,
        description="DDR4-3200, 1 channel, 16 banks, 25.6 GB/s",
    )


#: tRFCsb for the DDR5-4800 grade (same-bank refresh, 130 ns).
_DDR5_TRFCSB = 312


def _ddr5_4800(subchannels: int = 2) -> DevicePreset:
    """DDR5-4800 with independent 32-bit sub-channels and REFsb.

    ``subchannels=1`` folds the DIMM into one 64-bit logical channel
    (the pre-existing :data:`DDR5_4800` spec); 2 (the real DIMM shape)
    or 4 split the bus into independent narrower channels, each with
    proportionally narrower data paths and longer bursts. Aggregate
    peak bandwidth is 38.4 GB/s regardless.
    """
    if subchannels not in (1, 2, 4):
        raise ConfigurationError(
            f"ddr5-4800: subchannels must be 1, 2 or 4, got {subchannels}"
        )
    if subchannels == 1:
        spec = replace(DDR5_4800, tRFCsb=_DDR5_TRFCSB)
        name = "ddr5-4800"
    else:
        org = DDR5_4800.organization
        bus = org.bus_bytes // subchannels
        burst = org.line_bytes // (bus * org.data_rate)
        spec = replace(
            DDR5_4800,
            name=f"DDR5-4800-sc{subchannels}",
            organization=replace(org, bus_bytes=bus, columns=32),
            tCCD_S=burst,
            tCCD_L=max(12, burst),
            tRFCsb=_DDR5_TRFCSB,
        )
        name = f"ddr5-4800:subchannels={subchannels}"
    return DevicePreset(
        name=name,
        spec=spec,
        channels=subchannels,
        refresh="same-bank",
        description=(
            f"DDR5-4800, {subchannels} sub-channel(s), 32 banks each, "
            f"same-bank refresh, 38.4 GB/s"
        ),
    )


def _lpddr5_6400() -> DevicePreset:
    """LPDDR5-6400: 16n prefetch, bank-group-less 16-bank mode.

    A single 16-bit channel: the 16n prefetch means one 64-byte line
    occupies a 16-cycle burst, and the bank-group-less (BG-off) 16-bank
    mode removes the _S/_L timing distinction (tCCD and tRRD collapse
    to the burst-limited value). Timings are deep-sleep-biased — long
    analog latencies relative to the 3200 MHz clock. Refresh uses the
    standard's per-bank REFpb (the same-bank policy, tRFCpb=448).
    """
    return DevicePreset(
        name="lpddr5-6400",
        spec=TimingSpec(
            name="LPDDR5-6400",
            freq_mhz=3200.0,
            organization=Organization(
                bank_groups=1,
                banks_per_group=16,
                rows=64 * 1024,
                columns=32,
                bus_bytes=2,
                data_rate=2,
            ),
            tCL=56,
            tCWL=44,
            tRCD=58,
            tRP=58,
            tRAS=134,
            tCCD_S=16,
            tCCD_L=16,
            tRRD_S=16,
            tRRD_L=16,
            tFAW=64,
            tWTR_S=16,
            tWTR_L=32,
            tWR=112,
            tRTP=24,
            tRFC=672,
            tREFI=12480,
            tRFCsb=448,
        ),
        refresh="same-bank",
        mapping="lpddr5",
        description=(
            "LPDDR5-6400, 1 channel, 16 banks (BG-off), 16n prefetch, "
            "12.8 GB/s"
        ),
    )


def _hbm2(pseudo_channels: int = 8) -> DevicePreset:
    """HBM2-style stack: many narrow low-latency pseudo-channels.

    Each 64-bit pseudo-channel runs at a modest clock with short
    analog latencies (the stack sits on the interposer next to the
    die); bandwidth comes from width — 8 pseudo-channels aggregate to
    153.6 GB/s. Composed through the multi-channel
    :class:`~repro.dram.system.MemorySystem` contract.
    """
    if (
        pseudo_channels < 2
        or pseudo_channels > 16
        or pseudo_channels & (pseudo_channels - 1)
    ):
        raise ConfigurationError(
            f"hbm2: pseudo_channels must be a power of two in [2, 16], "
            f"got {pseudo_channels}"
        )
    name = (
        "hbm2" if pseudo_channels == 8
        else f"hbm2:pseudo_channels={pseudo_channels}"
    )
    return DevicePreset(
        name=name,
        spec=TimingSpec(
            name=f"HBM2-pc{pseudo_channels}",
            freq_mhz=1200.0,
            organization=Organization(
                bank_groups=4,
                banks_per_group=4,
                rows=16 * 1024,
                columns=32,
                bus_bytes=8,
                data_rate=2,
            ),
            tCL=17,
            tCWL=8,
            tRCD=17,
            tRP=17,
            tRAS=34,
            tCCD_S=4,
            tCCD_L=6,
            tRRD_S=4,
            tRRD_L=6,
            tFAW=16,
            tWTR_S=4,
            tWTR_L=9,
            tWR=19,
            tRTP=4,
            tRFC=312,
            tREFI=4680,
            tRFCsb=192,
        ),
        channels=pseudo_channels,
        refresh="all-bank",
        description=(
            f"HBM2-style, {pseudo_channels} pseudo-channels, "
            f"{19.2 * pseudo_channels:.1f} GB/s aggregate"
        ),
    )


#: Preset name -> factory, in listing order. A factory's keyword
#: arguments are the parameters its selector may carry.
DEVICES = {
    "ddr4-2400": _ddr4_2400,
    "ddr4-3200": _ddr4_3200,
    "ddr5-4800": _ddr5_4800,
    "lpddr5-6400": _lpddr5_6400,
    "hbm2": _hbm2,
}


def _parse_value(text: str):
    """Parse a selector parameter value: int, float, or raw string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def make_device(selector: str) -> DevicePreset:
    """Resolve a selector string to a built preset.

    A selector is ``name`` or ``name:key=value,key=value`` —
    ``"ddr5-4800:subchannels=2"`` calls the ``ddr5-4800`` factory with
    ``subchannels=2``. Values parse as int, then float, then stay
    strings. An unknown name, a malformed parameter or one the factory
    does not take raises :class:`ConfigurationError`; an unknown name
    lists the choices, so a CLI typo fails with the full menu.
    """
    base, sep, params = str(selector).partition(":")
    factory = require_choice("memory device", base, DEVICES)
    kwargs = {}
    if sep:
        for part in params.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            if not eq or not key.strip():
                raise ConfigurationError(
                    f"malformed parameter {part!r} in memory device "
                    f"selector {selector!r}; expected key=value"
                )
            kwargs[key.strip()] = _parse_value(value.strip())
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for memory device {base!r}: {exc}"
        ) from exc
