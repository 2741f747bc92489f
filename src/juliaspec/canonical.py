"""The five canonical configurations shipped with the package.

They cover every qualitative branch of the theory at once:

dendrite           d≡2, p≡1/2      null recurrent, residual set X = {1}
binary-p34         d≡2, p≡3/4      null recurrent, even base with p > 1/2
ternary-p12        d≡3, p≡1/2      null recurrent, odd base
mixed23-harmonic   d=(2,3,...), p_j = 1 - 1/(2(j+1))   p -> 1 harmonically
binary-geometric   d≡2, p_j = 1 - 4^{-j}               p -> 1 geometrically,
                                                        transient, tail >= ρ
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .config import RunConfig, parse_config
from .errors import ConfigError

__all__ = ["CANONICAL_NAMES", "canonical_config", "all_canonical"]

CANONICAL_NAMES = (
    "dendrite",
    "binary-p34",
    "ternary-p12",
    "mixed23-harmonic",
    "binary-geometric",
)


@functools.cache
def _packaged_text(name: str) -> str:
    """The packaged JSON document of one canonical name, read once per process."""
    return resources.files("juliaspec.configs").joinpath(f"{name}.json").read_text("utf-8")


def canonical_config(name: str) -> RunConfig:
    """Load one packaged canonical configuration by name.

    The package data is read once per process (`_packaged_text`); every call
    parses that text into a fresh `RunConfig`, so no caller shares one.
    """
    if name not in CANONICAL_NAMES:
        raise ConfigError(
            f"unknown canonical config {name!r}; choose one of {', '.join(CANONICAL_NAMES)}"
        )
    return parse_config(json.loads(_packaged_text(name)))


def all_canonical() -> dict[str, RunConfig]:
    """All five canonical configurations, keyed by name."""
    return {name: canonical_config(name) for name in CANONICAL_NAMES}
