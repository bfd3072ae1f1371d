"""DRAM subsystem: timing model, address mapping, and memory controller.

This subpackage implements the simulation substrate the paper relies on: an
event-driven DDR4-style DRAM model (channel / rank / bank group / bank
hierarchy with JEDEC-style timing constraints) and a memory controller with
FR-FCFS scheduling, a drained write buffer, refresh management and
configurable page policies and address mappings.

The controller records the event timeline (data bursts, precharge/activate
windows, refresh windows, blocked intervals) that the stack accounting in
:mod:`repro.stacks` consumes.
"""

from repro.dram import components
from repro.dram.address import AddressMapping, Coordinates
from repro.dram.commands import Command, CommandType, Request, RequestType
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.system import MemorySystem, MemorySystemConfig
from repro.dram.validator import TimingValidator, validate_controller
from repro.dram.timing import Organization, TimingSpec

__all__ = [
    "AddressMapping",
    "components",
    "Command",
    "CommandType",
    "ControllerConfig",
    "Coordinates",
    "MemoryController",
    "MemorySystem",
    "MemorySystemConfig",
    "Organization",
    "Request",
    "RequestType",
    "TimingSpec",
    "TimingValidator",
    "validate_controller",
]
