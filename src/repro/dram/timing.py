"""DRAM organization and timing specifications.

All timing parameters are expressed in memory-controller clock cycles (one
cycle per two data transfers for double-data-rate memories). Presets follow
the JEDEC speed grades; the paper's configuration is :data:`DDR4_2400` with
one channel, one rank, 4 bank groups x 4 banks, an 8 KB page and an 8-byte
data bus, giving 19.2 GB/s peak bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Organization:
    """Physical organization of one memory channel.

    Attributes:
        ranks: independent device packages sharing the channel.
        bank_groups: bank groups per rank.
        banks_per_group: banks within each bank group.
        rows: rows per bank.
        columns: cache lines per row (page size / line size).
        line_bytes: cache line size in bytes (one CAS transfers one line).
        bus_bytes: data bus width in bytes.
        data_rate: transfers per clock cycle (2 for DDR).
    """

    ranks: int = 1
    bank_groups: int = 4
    banks_per_group: int = 4
    rows: int = 32 * 1024
    columns: int = 128
    line_bytes: int = 64
    bus_bytes: int = 8
    data_rate: int = 2

    def __post_init__(self) -> None:
        for name in (
            "ranks", "bank_groups", "banks_per_group", "rows", "columns"
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
            if value & (value - 1):
                raise ConfigurationError(
                    f"{name} must be a power of two, got {value}"
                )
        if self.line_bytes % self.bus_bytes:
            raise ConfigurationError(
                "line_bytes must be a multiple of bus_bytes "
                f"({self.line_bytes} % {self.bus_bytes} != 0)"
            )

    @property
    def banks(self) -> int:
        """Total banks per rank."""
        return self.bank_groups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        """Banks across all ranks of the channel."""
        return self.ranks * self.banks

    @property
    def page_bytes(self) -> int:
        """Row-buffer (page) size in bytes."""
        return self.columns * self.line_bytes

    @property
    def capacity_bytes(self) -> int:
        """Addressable bytes behind one channel."""
        return self.ranks * self.banks * self.rows * self.page_bytes


@dataclass(frozen=True)
class TimingSpec:
    """Timing constraints for one DRAM device generation/speed grade.

    All values are in memory clock cycles. The ``_S``/``_L`` suffixes follow
    the DDR4 convention: ``_S`` applies between different bank groups,
    ``_L`` within the same bank group.
    """

    name: str
    freq_mhz: float
    organization: Organization

    tCL: int  # CAS (read) latency
    tCWL: int  # CAS write latency
    tRCD: int  # activate to CAS
    tRP: int  # precharge period
    tRAS: int  # activate to precharge
    tCCD_S: int  # CAS to CAS, different bank group
    tCCD_L: int  # CAS to CAS, same bank group
    tRRD_S: int  # activate to activate, different bank group
    tRRD_L: int  # activate to activate, same bank group
    tFAW: int  # four-activate window
    tWTR_S: int  # write data end to read, different bank group
    tWTR_L: int  # write data end to read, same bank group
    tWR: int  # write recovery (write data end to precharge)
    tRTP: int  # read to precharge
    tRFC: int  # refresh cycle time
    tREFI: int  # refresh interval
    tRTRS: int = 2  # rank-to-rank switch
    #: Same-bank refresh cycle time (DDR5 REFsb). 0 means the grade does
    #: not specify one; the same-bank refresh policy derives tRFC/2.
    tRFCsb: int = 0

    def __post_init__(self) -> None:
        for name in (
            "tCL", "tCWL", "tRCD", "tRP", "tRAS", "tCCD_S", "tCCD_L",
            "tRRD_S", "tRRD_L", "tFAW", "tWTR_S", "tWTR_L", "tWR",
            "tRTP", "tRFC", "tREFI",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.tCCD_L < self.tCCD_S:
            raise ConfigurationError("tCCD_L must be >= tCCD_S")
        if self.tRRD_L < self.tRRD_S:
            raise ConfigurationError("tRRD_L must be >= tRRD_S")
        if self.tRAS + self.tRP > self.tREFI:
            raise ConfigurationError("tREFI too small to ever refresh")
        # Cross-constraints, checked eagerly so a bad preset fails at
        # registry/config construction with its name attached rather
        # than as a protocol anomaly mid-run.
        if self.tRAS < self.tRCD:
            raise ConfigurationError(
                f"{self.name}: tRAS ({self.tRAS}) must be >= tRCD "
                f"({self.tRCD}) — a row must stay open at least long "
                f"enough to issue a CAS"
            )
        if self.tRFC >= self.tREFI:
            raise ConfigurationError(
                f"{self.name}: tRFC ({self.tRFC}) must be < tREFI "
                f"({self.tREFI}) or the device does nothing but refresh"
            )
        if self.tRFCsb < 0 or self.tRFCsb > self.tRFC:
            raise ConfigurationError(
                f"{self.name}: tRFCsb ({self.tRFCsb}) must be in "
                f"[0, tRFC={self.tRFC}]"
            )
        org = self.organization
        burst = org.line_bytes // (org.bus_bytes * org.data_rate)
        if burst < 1:
            raise ConfigurationError(
                f"{self.name}: bus moves {org.bus_bytes * org.data_rate} "
                f"bytes/cycle, more than one {org.line_bytes}-byte line — "
                f"burst/prefetch lengths are inconsistent"
            )
        if self.tCCD_S < burst:
            raise ConfigurationError(
                f"{self.name}: tCCD_S ({self.tCCD_S}) must cover the "
                f"{burst}-cycle burst or back-to-back CAS data overlaps"
            )

    # ------------------------------------------------------------------
    # Derived quantities. The three on the simulator's inner loop are
    # cached: a frozen dataclass still owns a __dict__, which is where
    # cached_property stores the computed value (bypassing the frozen
    # __setattr__), so the derivation runs once per spec instance.
    # ------------------------------------------------------------------
    @cached_property
    def burst_cycles(self) -> int:
        """Data-bus cycles one cache-line transfer occupies."""
        org = self.organization
        return org.line_bytes // (org.bus_bytes * org.data_rate)

    @cached_property
    def tRC(self) -> int:
        """Activate-to-activate minimum on one bank."""
        return self.tRAS + self.tRP

    @cached_property
    def read_to_write(self) -> int:
        """READ to WRITE command spacing on the same rank.

        The data bus must not collide: read data occupies the bus tCL after
        the READ, write data tCWL after the WRITE, plus one bus-turnaround
        bubble.
        """
        return self.tCL + self.burst_cycles + 2 - self.tCWL

    def write_to_read(self, same_bank_group: bool) -> int:
        """WRITE to READ command spacing on the same rank."""
        twtr = self.tWTR_L if same_bank_group else self.tWTR_S
        return self.tCWL + self.burst_cycles + twtr

    def tCCD(self, same_bank_group: bool) -> int:
        """CAS-to-CAS spacing."""
        return self.tCCD_L if same_bank_group else self.tCCD_S

    def tRRD(self, same_bank_group: bool) -> int:
        """ACT-to-ACT spacing (different banks)."""
        return self.tRRD_L if same_bank_group else self.tRRD_S

    @property
    def cycle_ns(self) -> float:
        """Duration of one memory clock cycle in nanoseconds."""
        return 1000.0 / self.freq_mhz

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak data-bus bandwidth in GB/s (decimal GB)."""
        org = self.organization
        return self.freq_mhz * 1e6 * org.data_rate * org.bus_bytes / 1e9

    @property
    def transfer_rate_mts(self) -> float:
        """Transfer rate in mega-transfers per second."""
        return self.freq_mhz * self.organization.data_rate

    def bytes_per_cycle(self) -> int:
        """Data the bus moves in one fully-utilized cycle."""
        org = self.organization
        return org.bus_bytes * org.data_rate

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * self.cycle_ns

    def ns_to_cycles(self, ns: float) -> int:
        """Convert nanoseconds to cycles, rounding up.

        A small epsilon absorbs float error so exact multiples of the
        cycle time round to the exact cycle count.
        """
        return math.ceil(ns / self.cycle_ns - 1e-9)

    def with_organization(self, **changes: int) -> "TimingSpec":
        """Return a copy with organization fields replaced.

        Example: ``DDR4_2400.with_organization(ranks=2)``.
        """
        return replace(
            self, organization=replace(self.organization, **changes)
        )


def _ddr4(name: str, freq_mhz: float, cl: int, **overrides: int) -> TimingSpec:
    """Build a DDR4 speed grade from its frequency and CAS latency.

    Analog timings are converted from their JEDEC nanosecond values at the
    given clock; integer JEDEC minima (tCCD, tRRD floors) are applied.
    """
    tck = 1000.0 / freq_mhz

    def ns(value: float, floor: int = 1) -> int:
        """Convert nanoseconds to cycles with a floor."""
        return max(floor, -int(-value // tck))

    params = dict(
        tCL=cl,
        tCWL=cl - 5,
        tRCD=cl,
        tRP=cl,
        tRAS=ns(32.0),
        tCCD_S=4,
        tCCD_L=max(6, ns(5.0, 4)),
        tRRD_S=max(4, ns(3.3)),
        tRRD_L=max(6, ns(4.9)),
        tFAW=ns(21.0),
        tWTR_S=max(2, ns(2.5)),
        tWTR_L=max(4, ns(7.5)),
        tWR=ns(15.0),
        tRTP=max(4, ns(7.5)),
        tRFC=ns(350.0),
        tREFI=ns(7800.0),
    )
    params.update(overrides)
    return TimingSpec(
        name=name,
        freq_mhz=freq_mhz,
        organization=Organization(),
        **params,
    )


#: The paper's configuration: DDR4-2400, 1 rank, 4 bank groups x 4 banks,
#: 8 KB page, 8-byte bus, 19.2 GB/s peak.
DDR4_2400 = _ddr4("DDR4-2400", freq_mhz=1200.0, cl=17)

#: A faster DDR4 grade, used in ablation benchmarks.
DDR4_3200 = _ddr4("DDR4-3200", freq_mhz=1600.0, cl=22)

#: A DDR5-like grade: twice the bank groups, higher rate, longer tRFC.
#: The two 32-bit subchannels of a DDR5 DIMM are folded into one logical
#: 64-bit channel (tCCD_S expressed per 64-byte line on that channel).
DDR5_4800 = TimingSpec(
    name="DDR5-4800",
    freq_mhz=2400.0,
    organization=Organization(bank_groups=8, banks_per_group=4, columns=64),
    tCL=40,
    tCWL=38,
    tRCD=40,
    tRP=40,
    tRAS=77,
    tCCD_S=4,
    tCCD_L=8,
    tRRD_S=8,
    tRRD_L=12,
    tFAW=32,
    tWTR_S=4,
    tWTR_L=16,
    tWR=36,
    tRTP=18,
    tRFC=700,
    tREFI=9360,
)
