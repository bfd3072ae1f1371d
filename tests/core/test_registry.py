"""Tests for the component plugin registry."""

import pytest

from repro.core.registry import ComponentRegistry
from repro.errors import ConfigurationError


def make_registry():
    registry = ComponentRegistry("test policy")

    @registry.register("default")
    class Default:
        def __init__(self, *args, **kwargs):
            self.args = args
            self.kwargs = kwargs

    @registry.register("other")
    class Other:
        pass

    return registry, Default, Other


class TestRegistration:
    def test_names_in_registration_order(self):
        registry, *_ = make_registry()
        assert registry.names() == ("default", "other")

    def test_register_returns_class_unchanged(self):
        registry = ComponentRegistry("x")

        class Thing:
            pass

        assert registry.register("thing")(Thing) is Thing

    def test_duplicate_name_rejected(self):
        registry, *_ = make_registry()
        with pytest.raises(ConfigurationError, match="already registered"):
            @registry.register("default")
            class Clash:
                pass

    def test_container_protocol(self):
        registry, *_ = make_registry()
        assert "default" in registry
        assert "missing" not in registry
        assert list(registry) == ["default", "other"]
        assert len(registry) == 2


class TestLookup:
    def test_get_returns_factory(self):
        registry, Default, Other = make_registry()
        assert registry.get("default") is Default
        assert registry.get("other") is Other

    def test_create_forwards_arguments(self):
        registry, Default, _ = make_registry()
        instance = registry.create("default", 1, 2, key="value")
        assert isinstance(instance, Default)
        assert instance.args == (1, 2)
        assert instance.kwargs == {"key": "value"}

    def test_unknown_name_names_kind_and_choices(self):
        registry, *_ = make_registry()
        with pytest.raises(ConfigurationError) as excinfo:
            registry.get("bogus")
        message = str(excinfo.value)
        assert "test policy" in message
        assert "'bogus'" in message
        assert "default" in message and "other" in message


class TestBuiltInRegistries:
    def test_every_registry_has_at_least_two_implementations(self):
        from repro.dram import components

        for registry in (
            components.SCHEDULERS,
            components.PAGE_POLICIES,
            components.WRITE_DRAIN,
            components.REFRESH,
        ):
            assert len(registry) >= 2, registry.kind

    def test_custom_component_reaches_controller_config(self):
        """The advertised extension path: register, then name in config."""
        from repro.dram import components
        from repro.dram.components.scheduling import FcfsScheduler
        from repro.dram.controller import ControllerConfig

        name = "test-fcfs-alias"
        components.SCHEDULERS.register(name)(FcfsScheduler)
        try:
            config = ControllerConfig(scheduling=name)
            assert config.scheduling == name
        finally:
            # Keep the global registry pristine for other tests.
            del components.SCHEDULERS._factories[name]
