"""``ConfigError`` and the JSON scalar rules shared by the config file and the aggregate metadata.

It imports no other fedsim module, so ``fedsim aggregate`` reads its metadata without the config schema.
"""

from __future__ import annotations

import sys


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or invalid."""


def _exact(kind: type, expected: str):
    def coerce(value, path: str):
        if type(value) is kind:  # so a bool is never an int
            return value
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")

    return coerce


def _float(value, path: str) -> float:
    # Not NaN, not infinite, and no integer past the float range.
    if (type(value) is float or type(value) is int) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


SCALARS = {  # JSON value rules: (value, "section.key") -> the value, or a ConfigError naming the key
    int: _exact(int, "an integer"), bool: _exact(bool, "true or false"), str: _exact(str, "a string"), float: _float,
}
