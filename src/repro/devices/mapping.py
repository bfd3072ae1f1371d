"""Sudoku-style address-mapping decomposition and inference.

Every :class:`~repro.dram.address.AddressMapping` in this codebase is
XOR-linear over GF(2): each output bit of each coordinate field is the
parity of the physical address ANDed with a fixed mask (bit-slice
mappings are the special case of single-bit masks). That makes the
mapping *inspectable*:

* :func:`decompose` probes a mapping with basis addresses and returns
  the per-field, per-bit XOR masks — the declarative form of what the
  decoder does;
* :func:`compose` turns masks back into a decode function, so
  ``compose(decompose(m))`` reproduces ``m`` exactly (the round-trip
  property tests rely on this);
* :func:`infer_component` recovers the masks of one field from
  observed ``(address, value)`` samples — e.g. (address, bank) pairs
  harvested from conflict measurements — by solving one GF(2) linear
  system per output bit;
* :func:`is_bijective` checks that a full set of component masks (plus
  the line-offset bits) spans the address space, i.e. no two addresses
  alias to the same coordinates.

The method follows Sudoku's reverse-engineering formulation (see
PAPERS.md): a DRAM address mapping is a system of parity functions,
recoverable from samples by Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.dram.address import _FIELDS, AddressMapping, Coordinates
from repro.errors import ConfigurationError


def _parity(value: int) -> int:
    return value.bit_count() & 1


@dataclass(frozen=True)
class ComponentMapping:
    """One coordinate field as XOR masks over the physical address.

    ``masks[j]`` is the address mask whose parity gives output bit
    ``j`` (LSB first). A plain bit slice ``addr[s+w-1:s]`` is
    ``masks = (1 << s, 1 << (s+1), ..., 1 << (s+w-1))``.
    """

    field: str
    masks: tuple[int, ...]

    @property
    def width(self) -> int:
        """Output bits this field carries."""
        return len(self.masks)

    def apply(self, address: int) -> int:
        """Evaluate the field value for a physical address."""
        value = 0
        for j, mask in enumerate(self.masks):
            value |= _parity(address & mask) << j
        return value

    def describe(self) -> str:
        """Human-readable per-bit masks, e.g. ``bank[0] = ^addr{6,13}``."""
        parts = []
        for j, mask in enumerate(self.masks):
            bits = [
                str(b) for b in range(mask.bit_length()) if (mask >> b) & 1
            ]
            parts.append(f"{self.field}[{j}] = ^addr{{{','.join(bits)}}}")
        return "; ".join(parts) if parts else f"{self.field} = 0"


def decompose(
    mapping: AddressMapping, verify: bool = True
) -> dict[str, ComponentMapping]:
    """Extract per-field XOR masks from a mapping by basis probing.

    For an XOR-linear decoder, ``decode(a)`` is the XOR over set bits
    ``b`` of ``a`` of ``decode(1 << b)`` (relative to ``decode(0)``),
    so probing the ``address_bits`` basis addresses recovers every
    mask exactly. With `verify` (default), a deterministic set of
    two-bit composite addresses is checked against the reconstruction;
    a non-linear decoder raises :class:`ConfigurationError`.
    """
    base = mapping.decode(0)
    masks: dict[str, list[int]] = {name: [] for name in _FIELDS}
    for b in range(mapping.address_bits):
        coords = mapping.decode(1 << b)
        for name in _FIELDS:
            delta = getattr(coords, name) ^ getattr(base, name)
            field_masks = masks[name]
            j = 0
            while delta:
                if delta & 1:
                    while len(field_masks) <= j:
                        field_masks.append(0)
                    field_masks[j] |= 1 << b
                delta >>= 1
                j += 1
    components = {
        name: ComponentMapping(name, tuple(field_masks))
        for name, field_masks in masks.items()
        if field_masks
    }
    if verify:
        decode = compose(components)
        step = max(1, mapping.address_bits // 8)
        for lo in range(0, mapping.address_bits, step):
            hi = (lo + mapping.address_bits // 2) % mapping.address_bits
            probe = (1 << lo) | (1 << hi)
            if decode(probe) != mapping.decode(probe):
                raise ConfigurationError(
                    f"mapping {mapping.describe()} is not XOR-linear; "
                    f"decomposition is invalid at address {probe:#x}"
                )
    return components


def compose(components: Mapping[str, ComponentMapping]):
    """Build a decode function from per-field components.

    Returns ``address -> Coordinates``; fields absent from
    `components` decode to 0, mirroring zero-width fields of
    :class:`AddressMapping`.
    """
    ordered = tuple(components.get(name) for name in _FIELDS)

    def decode(address: int) -> Coordinates:
        return Coordinates(*(
            comp.apply(address) if comp is not None else 0
            for comp in ordered
        ))

    return decode


def infer_component(
    samples: Sequence[tuple[int, int]], field: str = "inferred"
) -> ComponentMapping:
    """Recover one field's XOR masks from (address, value) samples.

    Solves one GF(2) linear system per output bit: unknown mask ``m``
    with ``parity(a & m) == bit_j(v)`` for every sample ``(a, v)``.
    Underdetermined systems take the minimal solution (free address
    bits excluded from the mask), which still reproduces every sample;
    inconsistent samples (no XOR-linear mapping fits) raise
    :class:`ConfigurationError`.
    """
    if not samples:
        raise ConfigurationError("cannot infer a mapping from zero samples")
    width = max(value.bit_length() for _, value in samples)
    masks = []
    for j in range(max(width, 1)):
        equations = [(a, (v >> j) & 1) for a, v in samples]
        mask = _solve_parity_system(equations)
        if mask is None:
            raise ConfigurationError(
                f"samples for {field!r} bit {j} are inconsistent with "
                f"any XOR-linear mapping"
            )
        masks.append(mask)
    return ComponentMapping(field, tuple(masks))


def _solve_parity_system(
    equations: Iterable[tuple[int, int]]
) -> int | None:
    """Solve ``parity(coeff & m) == rhs`` for ``m`` over GF(2).

    Gauss-Jordan elimination with int bitmasks as rows. Returns the
    minimal solution (free variables 0) or None when inconsistent.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for coeff, rhs in equations:
        for bit, (pc, pr) in pivots.items():
            if (coeff >> bit) & 1:
                coeff ^= pc
                rhs ^= pr
        if coeff == 0:
            if rhs:
                return None
            continue
        bit = coeff.bit_length() - 1
        for other, (pc, pr) in list(pivots.items()):
            if (pc >> bit) & 1:
                pivots[other] = (pc ^ coeff, pr ^ rhs)
        pivots[bit] = (coeff, rhs)
    mask = 0
    for bit, (_, rhs) in pivots.items():
        if rhs:
            mask |= 1 << bit
    return mask


def is_bijective(
    components: Mapping[str, ComponentMapping],
    address_bits: int,
    offset_bits: int = 0,
) -> bool:
    """Whether components (plus offset bits) map addresses bijectively.

    A GF(2)-linear map between equal-dimension spaces is a bijection
    iff its mask matrix has full rank. The line-offset bits pass
    through untouched, so they contribute identity masks.
    """
    masks = [1 << b for b in range(offset_bits)]
    for comp in components.values():
        masks.extend(comp.masks)
    if len(masks) != address_bits:
        return False
    return _gf2_rank(masks) == address_bits


def _gf2_rank(masks: Iterable[int]) -> int:
    """Rank of a set of GF(2) vectors (ints as bit vectors)."""
    basis: dict[int, int] = {}
    for mask in masks:
        while mask:
            high = mask.bit_length() - 1
            if high in basis:
                mask ^= basis[high]
            else:
                basis[high] = mask
                break
    return len(basis)


def mapping_is_bijective(mapping: AddressMapping) -> bool:
    """Convenience: decompose a mapping and check bijectivity."""
    components = decompose(mapping)
    return is_bijective(
        components,
        mapping.address_bits,
        offset_bits=mapping.offset_bits,
    )
