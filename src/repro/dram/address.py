"""Physical-address to DRAM-coordinate mapping.

The mapping slices the physical address (above the cache-line offset) into
fields for column, bank group, bank, rank, channel and row, in a
configurable order. The paper's two schemes (Fig. 5) are provided:

* ``default``  — row : bank : bank-group : column : line-offset. Consecutive
  cache lines fill a page before moving to the next bank group, maximizing
  page hits for sequential streams.
* ``interleaved`` — row : column : bank : bank-group : line-offset.
  Consecutive cache lines rotate across bank groups and banks, maximizing
  bank-level parallelism at the cost of page locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.dram.timing import Organization
from repro.errors import ConfigurationError

#: Field names a mapping may contain, from least- to most-significant
#: position in a scheme string (reading right to left).
_FIELDS = ("channel", "rank", "bank_group", "bank", "row", "column")


@dataclass(frozen=True, slots=True)
class Coordinates:
    """Decoded DRAM coordinates of a physical address."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int


def _log2(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


class AddressMapping:
    """Bit-sliced physical-address decoder.

    Args:
        organization: channel organization (field widths come from it).
        channels: number of channels in the system.
        order: field names from most-significant to least-significant,
            e.g. ``("row", "bank", "bank_group", "column")``. Fields of
            width zero (e.g. a single rank) may be omitted.

    The mapping is a bijection between byte addresses (below the channel
    capacity) and (coordinates, line offset) pairs; :meth:`encode` is the
    inverse of :meth:`decode`.
    """

    def __init__(
        self,
        organization: Organization,
        channels: int = 1,
        order: Sequence[str] = ("row", "bank", "bank_group", "column"),
    ) -> None:
        self.organization = organization
        self.channels = channels
        widths = {
            "channel": _log2(channels, "channels"),
            "rank": _log2(organization.ranks, "ranks"),
            "bank_group": _log2(organization.bank_groups, "bank_groups"),
            "bank": _log2(organization.banks_per_group, "banks_per_group"),
            "row": _log2(organization.rows, "rows"),
            "column": _log2(organization.columns, "columns"),
        }
        seen = set()
        for name in order:
            if name not in _FIELDS:
                raise ConfigurationError(f"unknown address field {name!r}")
            if name in seen:
                raise ConfigurationError(f"duplicate address field {name!r}")
            seen.add(name)
        missing = [
            name for name in _FIELDS if name not in seen and widths[name] > 0
        ]
        if missing:
            raise ConfigurationError(
                f"address mapping is missing nonzero-width fields: {missing}"
            )

        self.offset_bits = _log2(organization.line_bytes, "line_bytes")
        self._order = tuple(order)
        # Compute (name, shift, mask) from the least-significant field up.
        shift = self.offset_bits
        slices = []
        for name in reversed(self._order):
            width = widths[name]
            slices.append((name, shift, (1 << width) - 1))
            shift += width
        self._slices = tuple(slices)
        self.address_bits = shift
        self.capacity_bytes = 1 << shift
        # Flat (shift, mask) pairs in Coordinates field order — fields a
        # scheme omits get (0, 0) and so decode to 0. Lets decode build
        # the Coordinates positionally without a field dict (hot path).
        by_name = {name: (s, m) for name, s, m in slices}
        self._decode_bits = tuple(
            v for name in _FIELDS for v in by_name.get(name, (0, 0))
        )
        self._banks_per_rank = organization.banks
        self._banks_per_group = organization.banks_per_group

    # ------------------------------------------------------------------
    def decode(self, address: int) -> Coordinates:
        """Decode a physical byte address into DRAM coordinates.

        Addresses beyond the capacity wrap around (the high bits are
        ignored), matching real controllers' behaviour of only decoding
        the bits they own. A subclass that overrides ``decode`` must
        override :meth:`locate` to match: the packed controller admits
        requests through ``locate`` alone.
        """
        b = self._decode_bits
        return Coordinates(
            (address >> b[0]) & b[1],
            (address >> b[2]) & b[3],
            (address >> b[4]) & b[5],
            (address >> b[6]) & b[7],
            (address >> b[8]) & b[9],
            (address >> b[10]) & b[11],
        )

    def locate(self, address: int) -> tuple[int, int]:
        """``(flat bank index, row)`` of a physical byte address.

        Equal to ``(flat_bank_index(decode(address)),
        decode(address).row)``, from the same slice table, without
        building the :class:`Coordinates`; the packed controller's
        admission path calls it once per request. A subclass that
        overrides :meth:`decode` must override this to match.
        """
        b = self._decode_bits
        return (
            ((address >> b[2]) & b[3]) * self._banks_per_rank
            + ((address >> b[4]) & b[5]) * self._banks_per_group
            + ((address >> b[6]) & b[7]),
            (address >> b[8]) & b[9],
        )

    def encode(self, coords: Coordinates, offset: int = 0) -> int:
        """Re-assemble a physical address from coordinates (inverse of
        :meth:`decode`)."""
        address = offset & ((1 << self.offset_bits) - 1)
        for name, shift, mask in self._slices:
            address |= (getattr(coords, name) & mask) << shift
        return address

    def flat_bank_index(self, coords: Coordinates) -> int:
        """Flatten (rank, bank_group, bank) into one channel-wide index."""
        return (
            coords.rank * self._banks_per_rank
            + coords.bank_group * self._banks_per_group
            + coords.bank
        )

    def line_address(self, address: int) -> int:
        """Cache-line-aligned address."""
        return address & ~(self.organization.line_bytes - 1)

    @property
    def order(self) -> tuple[str, ...]:
        """Field order, most-significant first."""
        return self._order

    def describe(self) -> str:
        """Human-readable field layout, most-significant first."""
        parts = []
        for name, shift, mask in reversed(self._slices):
            width = mask.bit_length()
            parts.append(f"{name}[{shift + width - 1}:{shift}]")
        parts.append(f"offset[{self.offset_bits - 1}:0]")
        return " | ".join(parts)

    # ------------------------------------------------------------------
    # Paper schemes (Fig. 5)
    # ------------------------------------------------------------------
    @classmethod
    def default_scheme(
        cls, organization: Organization, channels: int = 1
    ) -> "AddressMapping":
        """Fig. 5(a): row : bank : bank-group : column : line offset."""
        return cls(organization, channels, _with_system_fields(
            ("row", "bank", "bank_group", "column"), organization, channels))

    @classmethod
    def interleaved_scheme(
        cls, organization: Organization, channels: int = 1
    ) -> "AddressMapping":
        """Fig. 5(b): row : column : bank : bank-group : line offset.

        Cache lines interleave across bank groups first, then banks; the
        column moves to higher bits but stays below the row bits so a long
        stream returns to the same page on each bank.
        """
        return cls(organization, channels, _with_system_fields(
            ("row", "column", "bank", "bank_group"), organization, channels))

    @classmethod
    def lpddr5_scheme(
        cls, organization: Organization, channels: int = 1
    ) -> "AddressMapping":
        """LPDDR5 in bank-group-off mode: row : bank : column : offset.

        The mode has no bank-group field; banks interleave directly
        under the row bits.
        """
        return cls(organization, channels, _with_system_fields(
            ("row", "bank", "column"), organization, channels))

    @classmethod
    def from_name(
        cls, name: str, organization: Organization, channels: int = 1
    ) -> "AddressMapping":
        """Look up a scheme by name in :data:`SCHEMES`."""
        if name not in SCHEMES:
            raise ConfigurationError(
                f"unknown address scheme {name!r}; expected one of "
                f"{sorted(SCHEMES)}"
            )
        return SCHEMES[name](organization, channels)


#: Named address schemes, keyed by ``ControllerConfig.address_scheme``.
#: Each entry is ``(organization, channels) -> AddressMapping``: the
#: paper's two schemes (Fig. 5) and the LPDDR5 device preset's.
SCHEMES: dict = {
    "default": AddressMapping.default_scheme,
    "interleaved": AddressMapping.interleaved_scheme,
    "lpddr5": AddressMapping.lpddr5_scheme,
}


def _with_system_fields(
    order: Iterable[str], organization: Organization, channels: int
) -> tuple[str, ...]:
    """Prepend rank and channel fields when they have nonzero width.

    Channel bits sit just above the line offset (cache-line channel
    interleaving); rank bits sit below the row bits.
    """
    order = list(order)
    if organization.ranks > 1:
        order.insert(1, "rank")
    if channels > 1:
        order.append("channel")
    return tuple(order)
