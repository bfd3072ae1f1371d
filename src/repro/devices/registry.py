"""String-keyed device registry with parameterized selectors.

A selector is ``name`` or ``name:key=value,key=value`` —
``"ddr5-4800:subchannels=2"`` resolves the ``ddr5-4800`` factory and
hands it ``subchannels=2``. Values parse as int, then float, then
stay strings. Unknown names and bad parameters raise
:class:`~repro.errors.ConfigurationError` listing the registered
choices, so a CLI typo fails with the full menu.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError


def _parse_value(text: str):
    """Parse a selector parameter value: int, float, or raw string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


class DeviceRegistry:
    """Named device-preset factories, resolved from selector strings."""

    def __init__(self, kind: str = "memory device") -> None:
        self._kind = kind
        self._factories: dict[str, Callable] = {}

    def register(self, name: str) -> Callable:
        """Decorator: register a preset factory under `name`."""
        def apply(factory: Callable) -> Callable:
            if name in self._factories:
                raise ConfigurationError(
                    f"{self._kind} {name!r} is already registered"
                )
            self._factories[name] = factory
            return factory

        return apply

    def names(self) -> tuple[str, ...]:
        """Registered device names, in registration order."""
        return tuple(self._factories)

    def get(self, name: str) -> Callable:
        """The factory registered under a bare name."""
        if name not in self._factories:
            raise ConfigurationError(
                f"unknown {self._kind} {name!r}; expected one of "
                f"{list(self._factories)} (parameterize as "
                f"'name:key=value,...')"
            )
        return self._factories[name]

    def create(self, selector: str):
        """Resolve a selector string to a built preset.

        ``"name"`` calls the factory with defaults;
        ``"name:key=value,..."`` passes the parsed parameters as
        keyword arguments. Factory signature mismatches (unknown keys)
        surface as :class:`ConfigurationError`, not ``TypeError``.
        """
        base, sep, params = str(selector).partition(":")
        factory = self.get(base)
        kwargs = {}
        if sep:
            for part in params.split(","):
                part = part.strip()
                if not part:
                    continue
                key, eq, value = part.partition("=")
                if not eq or not key.strip():
                    raise ConfigurationError(
                        f"malformed parameter {part!r} in {self._kind} "
                        f"selector {selector!r}; expected key=value"
                    )
                kwargs[key.strip()] = _parse_value(value.strip())
        try:
            return factory(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad parameters for {self._kind} {base!r}: {exc}"
            ) from exc
