"""Tests for eager experiment-configuration validation.

Every rejected shape must raise ConfigurationError naming the bad field,
at construction time — not cycles into a run.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    SCALES,
    ExperimentScale,
    get_scale,
    paper_system,
)


class TestExperimentScale:
    def test_builtin_scales_are_valid(self):
        for name, scale in SCALES.items():
            assert scale.name == name

    def test_empty_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            ExperimentScale(name="")

    @pytest.mark.parametrize("field_name", [
        "synthetic_accesses",
        "graph_scale",
        "graph_degree",
        "pr_iterations",
        "tc_max_edges",
        "bin_cycles",
    ])
    def test_nonpositive_field_named(self, field_name):
        with pytest.raises(ConfigurationError, match=field_name):
            ExperimentScale(name="bad", **{field_name: 0})

    @pytest.mark.parametrize("field_name,value", [
        ("synthetic_accesses", 2.5),
        ("bin_cycles", "1000"),
        ("graph_degree", True),
    ])
    def test_non_int_field_named(self, field_name, value):
        with pytest.raises(ConfigurationError, match=field_name):
            ExperimentScale(name="bad", **{field_name: value})

    def test_absurd_graph_scale(self):
        with pytest.raises(ConfigurationError, match="graph_scale"):
            ExperimentScale(name="huge", graph_scale=30)

    def test_unknown_scale_name(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            get_scale("gigantic")

    def test_passthrough(self):
        scale = ExperimentScale(name="custom", synthetic_accesses=10)
        assert get_scale(scale) is scale


class TestPaperSystem:
    def test_defaults_build(self):
        config = paper_system()
        assert config.cores == 1

    @pytest.mark.parametrize("cores", [0, -1, 1.5, True])
    def test_bad_cores_named(self, cores):
        with pytest.raises(ConfigurationError, match="cores"):
            paper_system(cores=cores)

    def test_bad_write_queue_named(self):
        with pytest.raises(
            ConfigurationError, match="write_queue_capacity"
        ):
            paper_system(write_queue_capacity=0)

    @pytest.mark.parametrize("capacity", [True, 2.5])
    def test_non_int_write_queue_named(self, capacity):
        with pytest.raises(
            ConfigurationError, match="write_queue_capacity"
        ):
            paper_system(write_queue_capacity=capacity)

    def test_bad_page_policy_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="page policy"):
            paper_system(page_policy="ajar")

    def test_bad_address_scheme_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="address_scheme"):
            paper_system(address_scheme="scrambled")
