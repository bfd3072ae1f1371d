"""Composable device library: memory standards behind one registry.

``repro.devices`` turns the hardcoded DDR4 timing constants into a
library of selectable memory technologies:

* :data:`DEVICES` — the :class:`DeviceRegistry` mapping selector
  strings (``"ddr4-2400"``, ``"ddr5-4800:subchannels=2"``,
  ``"lpddr5-6400"``, ``"hbm2:pseudo_channels=8"``) to
  :class:`DevicePreset` bundles of timing spec, channel count,
  refresh policy and address scheme;
* :mod:`repro.devices.mapping` — Sudoku-style XOR-mask decomposition
  and inference for address mappings, so every preset's mapping is
  declarative and reverse-engineerable from conflict samples.

``ControllerConfig(device="ddr5-4800")`` (or CLI ``--device``)
resolves through this package. A preset names its address scheme in
:data:`repro.dram.address.SCHEMES` (``"lpddr5"`` for LPDDR5's
bank-group-off mode).
"""

from __future__ import annotations

from repro.devices.mapping import (
    ComponentMapping,
    compose,
    decompose,
    infer_component,
    is_bijective,
    mapping_is_bijective,
)
from repro.devices.presets import DEVICES, DevicePreset
from repro.devices.registry import DeviceRegistry

__all__ = [
    "ComponentMapping",
    "DEVICES",
    "DevicePreset",
    "DeviceRegistry",
    "compose",
    "decompose",
    "infer_component",
    "is_bijective",
    "mapping_is_bijective",
]
