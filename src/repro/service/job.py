"""The unit of parallel work: a canonically serialized job description.

A :class:`Job` is everything a worker process needs to reproduce one
simulation: which executor runs it (``kind``), its configuration knobs
(``config``) and the experiment scale. Jobs are *content
addressed*: :meth:`Job.digest` hashes a canonical JSON serialization,
so two jobs built from equal configurations — whatever the dict
ordering or whether the scale came as a name or an
:class:`~repro.experiments.config.ExperimentScale` — hash identically,
and any change to a knob produces a different digest. The digest is the
key of the on-disk result cache (:mod:`repro.service.cache`) and the
determinism contract of the whole service: a cache hit returns the
bit-identical payload the original run produced.

Display-only fields (``label``) and execution-policy fields
(``timeout_s``) deliberately do **not** enter the digest — renaming a
point or tightening its timeout must not invalidate its cached result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentScale, get_scale
from repro.reliability.guard import check_timeout

#: Bumped whenever the canonical job serialization or the payload
#: schema changes shape; folded into every digest so stale cache
#: entries from an older format can never be returned as hits.
JOB_FORMAT = 2


def _check_json_value(value: Any, path: str) -> None:
    """Reject config values that cannot round-trip through JSON."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_json_value(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"job config key {path}.{key!r} must be a string"
                )
            _check_json_value(item, f"{path}.{key}")
        return
    raise ConfigurationError(
        f"job config value {path}={value!r} is not JSON-serializable; "
        f"jobs must be content-addressable plain data"
    )


def _canonical_scale(scale) -> dict | None:
    """Expand a scale (name or instance) to its full field dict.

    Expanding — rather than keeping the name — means a digest pins the
    actual run sizes: if a named scale's parameters ever change, cached
    results taken under the old parameters stop matching.
    """
    if scale is None:
        return None
    resolved = get_scale(scale)
    return dataclasses.asdict(resolved)


@dataclass(frozen=True)
class Job:
    """One deterministic, independently executable unit of work.

    Attributes:
        kind: job kind, a key of
            :data:`repro.service.executors.EXECUTORS` (``synthetic``,
            ``figure`` or ``probe``).
        config: executor-specific knobs; must be plain JSON data. For
            ``synthetic`` these are the :func:`run_synthetic` keyword
            arguments (``pattern``, ``cores``, ...).
        scale: experiment scale (name, instance, or None for kinds
            that do not take one).
        label: display name for progress output; not part of the
            digest.
        timeout_s: per-job wall-clock budget in seconds (None, or a
            number > 0); enforced cooperatively (reliability guard)
            in-process and by a hard kill in the worker pool. Not part
            of the digest.
    """

    kind: str
    config: Mapping[str, Any] = field(default_factory=dict)
    scale: Any = None
    label: str = ""
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError(
                f"Job.kind must be a non-empty string, got {self.kind!r}"
            )
        check_timeout(self.timeout_s, "Job.timeout_s")
        _check_json_value(dict(self.config), "config")
        # Resolve eagerly so a bad scale name fails at Job construction,
        # not inside a worker process.
        object.__setattr__(
            self, "_scale_dict", _canonical_scale(self.scale)
        )

    # ------------------------------------------------------------------
    # Canonical form and digest
    # ------------------------------------------------------------------
    @property
    def scale_dict(self) -> dict | None:
        """The fully expanded scale fields (None when scale is None)."""
        return self._scale_dict  # type: ignore[attr-defined]

    def resolved_scale(self) -> ExperimentScale | None:
        """The scale as an :class:`ExperimentScale` instance."""
        if self.scale_dict is None:
            return None
        return ExperimentScale(**self.scale_dict)

    def canonical(self) -> dict:
        """The digest-relevant content as a plain dict."""
        return {
            "format": JOB_FORMAT,
            "kind": self.kind,
            "config": dict(self.config),
            "scale": self.scale_dict,
        }

    def canonical_json(self) -> str:
        """Canonical JSON serialization (sorted keys, no whitespace)."""
        return json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 content digest; the cache key."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ------------------------------------------------------------------
    # Process-boundary serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Full serialization (including display/policy fields)."""
        body = self.canonical()
        body["label"] = self.label
        body["timeout_s"] = self.timeout_s
        return body

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "Job":
        """Rebuild a job shipped across a process boundary."""
        if body.get("format") != JOB_FORMAT:
            raise ConfigurationError(
                f"job serialized with format {body.get('format')!r}, "
                f"this build expects {JOB_FORMAT}"
            )
        scale_dict = body.get("scale")
        scale = (
            None if scale_dict is None else ExperimentScale(**scale_dict)
        )
        return cls(
            kind=body["kind"],
            config=dict(body.get("config", {})),
            scale=scale,
            label=body.get("label", ""),
            timeout_s=body.get("timeout_s"),
        )

    @property
    def display_label(self) -> str:
        """The label, falling back to a kind+digest stub."""
        return self.label or f"{self.kind}:{self.digest()[:10]}"
