"""Property-based tests for the address mapping (hypothesis).

The mapping must be a bijection between byte addresses below the
channel capacity and (coordinates, line-offset) pairs, for *any* valid
scheme. These properties back the per-bank candidate caches in the
packed controller engine, which key cache entries and dirty-bank masks
on ``flat_bank_index`` — a collision or a non-invertible decode would
silently corrupt scheduling decisions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapping, Coordinates
from repro.dram.timing import Organization

ORG = Organization()
SCHEMES = {
    "default": AddressMapping.default_scheme(ORG),
    "interleaved": AddressMapping.interleaved_scheme(ORG),
}

addresses = st.integers(min_value=0, max_value=2**40 - 1)
scheme_names = st.sampled_from(sorted(SCHEMES))
coordinates = st.builds(
    Coordinates,
    channel=st.just(0),
    rank=st.just(0),
    bank_group=st.integers(0, ORG.bank_groups - 1),
    bank=st.integers(0, ORG.banks_per_group - 1),
    row=st.integers(0, ORG.rows - 1),
    column=st.integers(0, ORG.columns - 1),
)


@given(scheme=scheme_names, address=addresses)
def test_encode_inverts_decode(scheme, address):
    """decode → encode round-trips the address modulo the capacity.

    High bits beyond the mapping's capacity are deliberately ignored
    (controllers only decode the bits they own), so the round-trip
    recovers the address wrapped into the channel.
    """
    mapping = SCHEMES[scheme]
    coords = mapping.decode(address)
    offset = address & (ORG.line_bytes - 1)
    rebuilt = mapping.encode(coords, offset)
    assert rebuilt == address % mapping.capacity_bytes


@given(scheme=scheme_names, coords=coordinates,
       offset=st.integers(0, ORG.line_bytes - 1))
def test_decode_inverts_encode(scheme, coords, offset):
    """encode → decode recovers every coordinate field exactly."""
    mapping = SCHEMES[scheme]
    address = mapping.encode(coords, offset)
    assert address < mapping.capacity_bytes
    decoded = mapping.decode(address)
    assert decoded == coords
    assert address & (ORG.line_bytes - 1) == offset


@given(scheme=scheme_names,
       lines=st.sets(st.integers(0, 2**26 - 1), min_size=2, max_size=64))
def test_distinct_lines_decode_to_distinct_coordinates(scheme, lines):
    """Bijectivity: distinct in-capacity lines never collide."""
    mapping = SCHEMES[scheme]
    decoded = {
        mapping.decode(line * ORG.line_bytes) for line in lines
    }
    assert len(decoded) == len(lines)


@given(scheme=scheme_names, coords=coordinates)
def test_flat_bank_index_is_consistent_and_bounded(scheme, coords):
    mapping = SCHEMES[scheme]
    flat = mapping.flat_bank_index(coords)
    assert 0 <= flat < ORG.banks
    assert flat == coords.bank_group * ORG.banks_per_group + coords.bank


@given(start_line=st.integers(0, 2**20))
@settings(max_examples=25)
def test_interleaved_stride_balances_bank_groups(start_line):
    """Fig. 5(b): consecutive lines rotate bank groups round-robin.

    Any window of 4k consecutive cache lines lands exactly k times on
    each bank group — the bank-level-parallelism guarantee the
    interleaved scheme exists for.
    """
    mapping = SCHEMES["interleaved"]
    k = 8
    counts = [0] * ORG.bank_groups
    for i in range(k * ORG.bank_groups):
        coords = mapping.decode((start_line + i) * ORG.line_bytes)
        counts[coords.bank_group] += 1
    assert counts == [k] * ORG.bank_groups


@given(start_line=st.integers(0, 2**20))
@settings(max_examples=25)
def test_default_stride_fills_a_page_before_moving(start_line):
    """Fig. 5(a): a page-aligned window of one row's lines stays in one
    bank, walking the columns — the page-hit guarantee of the default
    scheme."""
    mapping = SCHEMES["default"]
    base = (start_line // ORG.columns) * ORG.columns
    seen_banks = set()
    columns = []
    for i in range(ORG.columns):
        coords = mapping.decode((base + i) * ORG.line_bytes)
        seen_banks.add((coords.bank_group, coords.bank, coords.row))
        columns.append(coords.column)
    assert len(seen_banks) == 1
    assert columns == list(range(ORG.columns))
