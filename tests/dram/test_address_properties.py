"""Property-based tests for the address mapping (hypothesis).

The mapping must be a bijection between byte addresses below the
channel capacity and (coordinates, line-offset) pairs, for *any* valid
scheme. These properties back the per-bank candidate caches in the
packed controller engine, which key cache entries and dirty-bank masks
on ``flat_bank_index`` — a collision or a non-invertible decode would
silently corrupt scheduling decisions. The flat index includes the
rank, so the bijection properties also run a two-rank organization.
The packed engine admits requests through ``locate``, which must agree
with ``decode`` for every registered scheme on every device preset.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import DEVICES  # also registers the "lpddr5" scheme
from repro.dram.address import SCHEMES as SCHEME_REGISTRY
from repro.dram.address import AddressMapping, Coordinates
from repro.dram.timing import DDR4_2400, Organization
from repro.errors import ConfigurationError

ORG = Organization()
ORG_2RANK = DDR4_2400.with_organization(ranks=2).organization
SCHEMES = {
    "default": AddressMapping.default_scheme(ORG),
    "interleaved": AddressMapping.interleaved_scheme(ORG),
    "default/2rank": AddressMapping.default_scheme(ORG_2RANK),
    "interleaved/2rank": AddressMapping.interleaved_scheme(ORG_2RANK),
}

addresses = st.integers(min_value=0, max_value=2**40 - 1)
scheme_names = st.sampled_from(sorted(SCHEMES))


def coordinates(org: Organization):
    return st.builds(
        Coordinates,
        channel=st.just(0),
        rank=st.integers(0, org.ranks - 1),
        bank_group=st.integers(0, org.bank_groups - 1),
        bank=st.integers(0, org.banks_per_group - 1),
        row=st.integers(0, org.rows - 1),
        column=st.integers(0, org.columns - 1),
    )


#: (scheme name, coordinates valid for that scheme's organization).
mapped_coordinates = scheme_names.flatmap(
    lambda name: st.tuples(
        st.just(name), coordinates(SCHEMES[name].organization)
    )
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


@given(case=mapped_coordinates,
       offset=st.integers(0, ORG.line_bytes - 1))
def test_decode_inverts_encode(case, offset):
    """encode → decode recovers every coordinate field exactly."""
    scheme, coords = case
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


@given(case=mapped_coordinates)
def test_flat_bank_index_is_consistent_and_bounded(case):
    scheme, coords = case
    mapping = SCHEMES[scheme]
    org = mapping.organization
    flat = mapping.flat_bank_index(coords)
    assert 0 <= flat < org.total_banks
    assert flat == (
        coords.rank * org.banks
        + coords.bank_group * org.banks_per_group
        + coords.bank
    )


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


# ----------------------------------------------------------------------
# locate: the packed admission's (flat bank, row) decode.
# ----------------------------------------------------------------------
#: Every device preset's per-channel organization, plus DDR4 with two
#: ranks (no preset has a rank field).
ORGANIZATIONS = {
    **{
        name: DEVICES.create(name).spec.organization
        for name in DEVICES.names()
    },
    "ddr4-2400-2rank": ORG_2RANK,
}


def _registry_mappings() -> dict[tuple[str, str, int], AddressMapping]:
    """Every registered scheme on every organization it accepts, with
    one and two channels (a channel field moves every shift above the
    line offset), keyed (scheme, organization, channels)."""
    built = {}
    for scheme in sorted(SCHEME_REGISTRY):
        for org_name, org in ORGANIZATIONS.items():
            for channels in (1, 2):
                try:
                    mapping = SCHEME_REGISTRY[scheme](org, channels)
                except ConfigurationError:
                    # e.g. the bank-group-less lpddr5 scheme on an
                    # organization with bank groups.
                    continue
                built[scheme, org_name, channels] = mapping
    return built


LOCATE_MAPPINGS = _registry_mappings()

#: Below every organization's capacity (2**29 to 2**34 bytes with two
#: channels) and far above it, where the high bits must be ignored.
any_addresses = st.one_of(
    st.integers(min_value=0, max_value=2**36),
    st.integers(min_value=2**36, max_value=2**64),
)


def test_locate_cases_cover_every_scheme_and_organization():
    assert {key[0] for key in LOCATE_MAPPINGS} == set(SCHEME_REGISTRY)
    assert {"default", "interleaved", "lpddr5"} <= set(SCHEME_REGISTRY)
    assert {key[1] for key in LOCATE_MAPPINGS} == set(ORGANIZATIONS)


@pytest.mark.parametrize(
    "key", sorted(LOCATE_MAPPINGS),
    ids=[f"{s}-{o}-{c}ch" for s, o, c in sorted(LOCATE_MAPPINGS)],
)
@given(address=any_addresses)
@settings(max_examples=40)
def test_locate_matches_decode(key, address):
    """locate(a) is (flat_bank_index(decode(a)), decode(a).row)."""
    mapping = LOCATE_MAPPINGS[key]
    coords = mapping.decode(address)
    located = mapping.locate(address)
    assert located == (mapping.flat_bank_index(coords), coords.row)
    assert all(type(value) is int for value in located)
    assert 0 <= located[0] < mapping.organization.total_banks
