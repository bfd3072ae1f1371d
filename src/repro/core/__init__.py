"""Core architecture: the memory interface.

This package holds the seam the simulator is composed along — no
simulation logic: :mod:`repro.core.interfaces`, the single-/multi-
channel :class:`~repro.core.interfaces.MemoryInterface` contract and
its :class:`~repro.core.interfaces.CompositeMemory` aggregation base.

The controller's policies live in :mod:`repro.dram.components`; the
accounting mechanisms that are the paper's contribution live in
:mod:`repro.stacks`. See ``docs/architecture.md`` for the full map.
"""

from repro.core.interfaces import CompositeMemory, MemoryInterface

__all__ = [
    "CompositeMemory",
    "MemoryInterface",
]
