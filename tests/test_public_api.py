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
        from repro.dram import components

        assert tuple(components.SCHEDULERS) == (
            "fr-fcfs", "fcfs", "wrr", "bank-reg"
        )
        assert tuple(components.PAGE_POLICIES) == ("open", "closed")
        assert tuple(components.REFRESH) == (
            "all-bank", "none", "same-bank"
        )
        assert {
            name for name, value in vars(components).items()
            if isinstance(value, dict) and name.isupper()
        } == {"SCHEDULERS", "PAGE_POLICIES", "REFRESH"}

    def test_memory_interface_satisfied(self):
        from repro.core import MemoryInterface
        from repro.dram import (
            ControllerConfig,
            MemoryController,
            MemorySystem,
            MemorySystemConfig,
        )

        assert isinstance(
            MemoryController(ControllerConfig()), MemoryInterface
        )
        assert isinstance(MemorySystem(MemorySystemConfig()), MemoryInterface)


class TestEntryPoints:
    def test_package_import_loads_no_service(self):
        """Importing the package, its experiments and the CLI loads no
        execution-service module and no multiprocessing: only running a
        batch does (``run_sweep`` imports the service when called)."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro, repro.experiments, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('repro.service', 'multiprocessing'))))\n"
        )
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_lpddr5_scheme_needs_no_device_import(self):
        """The address-scheme table lists the LPDDR5 scheme itself: a
        fresh interpreter maps with it before anything imports the
        device library."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "from repro.dram.address import SCHEMES, AddressMapping\n"
            "from repro.dram.timing import Organization\n"
            "assert 'lpddr5' in SCHEMES, sorted(SCHEMES)\n"
            "org = Organization(bank_groups=1, banks_per_group=16)\n"
            "mapping = AddressMapping.from_name('lpddr5', org)\n"
            "print(mapping.order, 'repro.devices' in sys.modules)\n"
        )
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "('row', 'bank', 'column') False"

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

        assert tuple(DEVICES) == (
            "ddr4-2400", "ddr4-3200", "ddr5-4800", "lpddr5-6400", "hbm2",
        )

    def test_timing_constants_live_in_the_timing_module(self):
        # Their only import path: the packages re-export none of them.
        from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800

        for spec in (DDR4_2400, DDR4_3200, DDR5_4800):
            assert spec.name
