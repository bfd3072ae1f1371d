"""Property tests for the address-mapping decomposition module.

Every registered scheme must be XOR-linear, decomposable into per-field
masks, reconstructible from those masks, recoverable from samples, and
a bijection over its address space.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DEVICES, make_device
from repro.devices.mapping import (
    ComponentMapping,
    compose,
    decompose,
    infer_component,
    is_bijective,
    mapping_is_bijective,
)
from repro.dram.address import SCHEMES, AddressMapping
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError


def _all_mappings():
    """Every (id, mapping) this PR ships: schemes x representative orgs."""
    cases = []
    # The paper's two schemes on the paper's organization; the
    # device-specific schemes (e.g. "lpddr5") only fit their own
    # organizations and are covered by the preset loop below.
    for scheme in ("default", "interleaved"):
        assert scheme in SCHEMES
        cases.append((
            f"{scheme}/ddr4",
            AddressMapping.from_name(scheme, DDR4_2400.organization),
        ))
    for name in DEVICES:
        preset = make_device(name)
        cases.append((
            f"{preset.mapping}/{name}",
            AddressMapping.from_name(preset.mapping, preset.spec.organization),
        ))
    return cases


MAPPINGS = _all_mappings()
MAPPING_IDS = [case_id for case_id, _ in MAPPINGS]
MAPPING_OBJS = [mapping for _, mapping in MAPPINGS]


@pytest.fixture(params=MAPPING_OBJS, ids=MAPPING_IDS)
def mapping(request):
    return request.param


class TestDecomposeCompose:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_matches_decode(self, data):
        mapping = data.draw(st.sampled_from(MAPPING_OBJS))
        decode = compose(decompose(mapping))
        address = data.draw(
            st.integers(min_value=0, max_value=mapping.capacity_bytes - 1)
        )
        assert decode(address) == mapping.decode(address)

    def test_decomposed_fields_match_schemes(self, mapping):
        components = decompose(mapping)
        # Exactly the nonzero-width fields of the scheme appear.
        widths = {
            name: mask.bit_length()
            for name, _, mask in mapping._slices
            if mask
        }
        assert set(components) == set(widths)
        for name, comp in components.items():
            assert comp.width == widths[name]

    def test_bit_slice_masks_are_single_bits(self):
        # The built-in schemes are plain bit slices: every mask is a
        # power of two (one address bit per output bit).
        mapping = AddressMapping.default_scheme(DDR4_2400.organization)
        for comp in decompose(mapping).values():
            for mask in comp.masks:
                assert mask and mask & (mask - 1) == 0

    def test_describe_names_the_address_bits(self):
        comp = ComponentMapping("bank", ((1 << 6) | (1 << 13),))
        assert comp.describe() == "bank[0] = ^addr{6,13}"

    def test_nonlinear_decoder_is_rejected(self):
        mapping = AddressMapping.default_scheme(DDR4_2400.organization)

        class Warped:
            address_bits = mapping.address_bits
            offset_bits = mapping.offset_bits

            def decode(self, address):
                # Depends on the popcount of the whole address — not
                # XOR-linear (basis probes see one bit set and stay
                # clean; any composite address flips the bank).
                coords = mapping.decode(address)
                if address.bit_count() >= 2:
                    coords = type(coords)(
                        coords.channel, coords.rank, coords.bank_group,
                        coords.bank ^ 1, coords.row, coords.column,
                    )
                return coords

            def describe(self):
                return "warped"

        with pytest.raises(ConfigurationError, match="not XOR-linear"):
            decompose(Warped())


class TestInference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inferred_component_reproduces_the_field(self, data):
        mapping = data.draw(st.sampled_from(MAPPING_OBJS))
        field = data.draw(st.sampled_from(
            sorted(decompose(mapping))
        ))
        truth = decompose(mapping)[field]
        addresses = data.draw(st.lists(
            st.integers(min_value=0, max_value=mapping.capacity_bytes - 1),
            min_size=mapping.address_bits * 2,
            max_size=mapping.address_bits * 3,
        ))
        # Basis addresses pin every bit; random samples alone may leave
        # the system underdetermined, which is fine (minimal solution
        # still fits) but makes exact mask comparison flaky.
        addresses += [1 << b for b in range(mapping.address_bits)]
        samples = [(a, truth.apply(a)) for a in addresses]
        inferred = infer_component(samples, field)
        assert inferred.masks == truth.masks

    def test_underdetermined_samples_still_fit(self):
        truth = ComponentMapping("bank", (1 << 6, (1 << 7) | (1 << 20)))
        samples = [(a, truth.apply(a)) for a in (0, 64, 128, 192, 321)]
        inferred = infer_component(samples, "bank")
        for address, value in samples:
            assert inferred.apply(address) == value

    def test_inconsistent_samples_raise(self):
        # Same address, two different values: no function fits.
        with pytest.raises(ConfigurationError, match="inconsistent"):
            infer_component([(64, 0), (64, 1)], "bank")

    def test_zero_samples_raise(self):
        with pytest.raises(ConfigurationError, match="zero samples"):
            infer_component([])


class TestBijectivity:
    def test_every_shipped_mapping_is_bijective(self, mapping):
        assert mapping_is_bijective(mapping)

    def test_aliasing_masks_are_detected(self):
        # Two fields reading the same address bit: rank-1 collapse.
        components = {
            "bank": ComponentMapping("bank", (1 << 6,)),
            "row": ComponentMapping("row", (1 << 6,)),
        }
        assert not is_bijective(components, address_bits=8, offset_bits=6)

    def test_missing_bits_are_detected(self):
        components = {"bank": ComponentMapping("bank", (1 << 6,))}
        assert not is_bijective(components, address_bits=8, offset_bits=6)

    def test_xor_mixed_masks_can_still_be_bijective(self):
        # A Sudoku-style XOR of bank and row bits keeps full rank.
        components = {
            "bank": ComponentMapping("bank", ((1 << 6) | (1 << 7),)),
            "row": ComponentMapping("row", (1 << 7,)),
        }
        assert is_bijective(components, address_bits=8, offset_bits=6)
