"""Run configuration: one JSON document describing (p̄, d̄, seed, command).

The document's top level is checked before any computation: an object with
keys p and d, optionally seed and command, each in range.  The sequence
descriptions are then parsed with the stricter per-kind range checks.  CLI
flags may override individual fields after loading.  States are 64-bit
(`BaseSequence.capacity`); no key sets a wider ceiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .chain import ChainConfig
from .dynamics import FiberedSystem
from .errors import ConfigError, json_int
from .numeration import BaseSequence
from .sequences import SequenceSpec, spec_from_json, spec_to_json

__all__ = ["RunConfig", "parse_config", "load_config_file"]

_KEYS = ("p", "d", "seed", "command")
_SEED_RANGE = (0, 2**64 - 1)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; the single source of truth for one run."""

    p: SequenceSpec
    d: SequenceSpec
    seed: int = 0
    command: dict = field(default_factory=dict)

    @cached_property
    def _base(self) -> BaseSequence:
        return BaseSequence(self.d)

    def base(self) -> BaseSequence:
        """The one BaseSequence (and digit memo) shared by chain() and system()."""
        return self._base

    def chain(self) -> ChainConfig:
        return ChainConfig(self.base(), self.p)

    def system(self) -> FiberedSystem:
        return FiberedSystem(self.base(), self.p)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=json_int("config seed", seed, *_SEED_RANGE))

    def to_json(self) -> dict:
        out = {
            "p": spec_to_json(self.p),
            "d": spec_to_json(self.d),
            "seed": self.seed,
        }
        if self.command:
            out["command"] = self.command
        return out


def parse_config(obj) -> RunConfig:
    """Validate a JSON document and build the RunConfig; ConfigError on defects."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in _KEYS:
            raise ConfigError(f"config has unknown key {key!r}")
    for key in ("p", "d"):
        if key not in obj:
            raise ConfigError(f"config is missing key {key!r}")
    seed = json_int("config seed", obj.get("seed", 0), *_SEED_RANGE)
    if not isinstance(obj.get("command", {}), dict):
        raise ConfigError("config command must be an object")
    p = spec_from_json(obj["p"], "p")
    d = spec_from_json(obj["d"], "d")
    return RunConfig(
        p=p,
        d=d,
        seed=seed,
        command=dict(obj.get("command", {})),
    )


def load_config_file(path) -> RunConfig:
    """Read and parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)
