"""Fixtures for the execution-service tests."""

from __future__ import annotations

import errno
import json
from dataclasses import dataclass

import pytest

from repro.service.cache import ResultCache


@dataclass
class ChaosCache(ResultCache):
    """A :class:`ResultCache` with scripted IO faults.

    The fault counters are consumed front-to-back: the next
    ``read_faults`` entry reads raise ``OSError(EIO)``, the next
    ``corrupt_faults`` reads of an *existing* entry parse as garbage
    (driving the invalid-entry self-heal), the next ``write_faults``
    writes raise ``OSError(write_errno)`` — pass ``errno.ENOSPC`` for
    the disk-full case. Counters at zero leave the cache behaving
    exactly like its parent class. Faults strike at the IO seams rather
    than through file permissions because tests may run as root, where
    ``chmod`` does not bite.
    """

    read_faults: int = 0
    corrupt_faults: int = 0
    write_faults: int = 0
    write_errno: int = errno.EIO

    def _read_entry(self, path, digest):
        if self.read_faults > 0:
            self.read_faults -= 1
            raise OSError(
                errno.EIO, "chaos: injected read fault", str(path)
            )
        entry = super()._read_entry(path, digest)
        if self.corrupt_faults > 0:
            self.corrupt_faults -= 1
            raise json.JSONDecodeError(
                "chaos: injected corrupt entry", doc="\x00", pos=0
            )
        return entry

    def _write_entry(self, path, digest, body) -> None:
        if self.write_faults > 0:
            self.write_faults -= 1
            raise OSError(
                self.write_errno,
                "chaos: injected write fault "
                f"({errno.errorcode.get(self.write_errno, '?')})",
                str(path),
            )
        super()._write_entry(path, digest, body)


@pytest.fixture
def chaos_cache():
    """The :class:`ChaosCache` class, for building fault-scripted caches."""
    return ChaosCache
