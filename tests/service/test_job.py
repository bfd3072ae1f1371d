"""Tests for the canonical job model and its content digest."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentScale, get_scale
from repro.service.job import JOB_FORMAT, Job


class TestDigest:
    def test_dict_order_invariance(self):
        a = Job("synthetic", {"pattern": "sequential", "cores": 2})
        b = Job("synthetic", {"cores": 2, "pattern": "sequential"})
        assert a.digest() == b.digest()

    def test_config_change_changes_digest(self):
        base = Job("synthetic", {"pattern": "sequential", "cores": 1})
        for variant in (
            Job("synthetic", {"pattern": "random", "cores": 1}),
            Job("synthetic", {"pattern": "sequential", "cores": 2}),
            Job("probe", {"pattern": "sequential", "cores": 1}),
        ):
            assert variant.digest() != base.digest()

    def test_scale_name_and_instance_hash_identically(self):
        by_name = Job("synthetic", {"pattern": "random"}, scale="ci")
        by_instance = Job(
            "synthetic", {"pattern": "random"}, scale=get_scale("ci")
        )
        assert by_name.digest() == by_instance.digest()

    def test_scale_parameters_enter_digest(self):
        small = Job(
            "synthetic", {"pattern": "random"},
            scale=ExperimentScale("t", synthetic_accesses=800),
        )
        large = Job(
            "synthetic", {"pattern": "random"},
            scale=ExperimentScale("t", synthetic_accesses=900),
        )
        assert small.digest() != large.digest()

    def test_label_and_timeout_do_not_enter_digest(self):
        plain = Job("synthetic", {"pattern": "random"})
        dressed = Job(
            "synthetic", {"pattern": "random"},
            label="fancy", timeout_s=30.0,
        )
        assert plain.digest() == dressed.digest()

    def test_format_version_enters_canonical_form(self):
        job = Job("synthetic", {"pattern": "random"})
        assert job.canonical()["format"] == JOB_FORMAT


class TestValidation:
    def test_rejects_empty_kind(self):
        with pytest.raises(ConfigurationError):
            Job("")

    def test_rejects_non_json_config(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            Job("synthetic", {"pattern": object()})

    def test_rejects_non_string_config_keys(self):
        with pytest.raises(ConfigurationError):
            Job("synthetic", {"nested": {1: "x"}})

    def test_rejects_unknown_scale_name(self):
        with pytest.raises(ConfigurationError):
            Job("synthetic", {"pattern": "random"}, scale="galactic")

    @pytest.mark.parametrize(
        "timeout_s", [0, 0.0, -2.0, float("nan"), True, "5"]
    )
    def test_rejects_nonpositive_or_non_numeric_timeout(self, timeout_s):
        with pytest.raises(ConfigurationError, match="Job.timeout_s"):
            Job("probe", timeout_s=timeout_s)

    @pytest.mark.parametrize("timeout_s", [None, 0.001, 30, float("inf")])
    def test_accepts_none_or_positive_timeout(self, timeout_s):
        assert Job("probe", timeout_s=timeout_s).timeout_s == timeout_s


class TestRoundTrip:
    def test_to_from_dict_preserves_digest_and_fields(self):
        job = Job(
            "synthetic", {"pattern": "random", "cores": 2}, scale="ci",
            label="random-2c", timeout_s=60.0,
        )
        clone = Job.from_dict(job.to_dict())
        assert clone.digest() == job.digest()
        assert clone.label == "random-2c"
        assert clone.timeout_s == 60.0
        assert clone.resolved_scale() == get_scale("ci")

    def test_from_dict_rejects_foreign_format(self):
        body = Job("synthetic", {"pattern": "random"}).to_dict()
        body["format"] = JOB_FORMAT + 1
        with pytest.raises(ConfigurationError, match="format"):
            Job.from_dict(body)

    def test_display_label_falls_back_to_digest_stub(self):
        job = Job("synthetic", {"pattern": "random"})
        assert job.digest()[:10] in job.display_label
        assert Job("synthetic", {}, label="x").display_label == "x"
