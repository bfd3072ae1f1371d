"""Public API stability checks."""

import repro


class TestRootExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__


class TestCoreArchitecture:
    def test_all_names_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), name

    def test_registries_are_populated(self):
        from repro.core.registry import ComponentRegistry
        from repro.dram import components

        assert components.SCHEDULERS.names() == (
            "fr-fcfs", "fcfs", "wrr", "bank-reg"
        )
        assert components.PAGE_POLICIES.names() == ("open", "closed")
        assert components.WRITE_DRAIN.names() == ("watermark", "burst")
        assert components.REFRESH.names() == (
            "all-bank", "none", "same-bank"
        )
        assert {
            name for name, value in vars(components).items()
            if isinstance(value, ComponentRegistry)
        } == {"SCHEDULERS", "PAGE_POLICIES", "WRITE_DRAIN", "REFRESH"}

    def test_memory_interface_satisfied(self):
        from repro.core import MemoryInterface
        from repro.dram import (
            ControllerConfig,
            MemoryController,
            MemorySystem,
            MemorySystemConfig,
        )

        assert isinstance(MemoryController(ControllerConfig()), MemoryInterface)
        assert isinstance(MemorySystem(MemorySystemConfig()), MemoryInterface)


class TestEntryPoints:
    def test_cli_main_importable(self):
        from repro.cli import main

        assert callable(main)

    def test_experiment_modules_have_run_and_main(self):
        import importlib

        for name in (
            "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
            "figqos", "figstd",
        ):
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)
            assert callable(module.main)


class TestDeviceLibrary:
    def test_all_names_resolve(self):
        import repro.devices

        for name in repro.devices.__all__:
            assert hasattr(repro.devices, name), name

    def test_registry_holds_every_standard(self):
        from repro.devices import DEVICES

        assert DEVICES.names() == (
            "ddr4-2400", "ddr4-3200", "ddr5-4800", "lpddr5-6400", "hbm2",
        )

    def test_timing_constants_live_in_the_timing_module(self):
        # Their only import path: the packages re-export none of them.
        from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800

        for spec in (DDR4_2400, DDR4_3200, DDR5_4800):
            assert spec.name
