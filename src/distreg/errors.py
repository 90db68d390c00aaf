"""Exception hierarchy shared across the package, and the config number checks.

The CLI maps these onto exit codes: InputError -> 2, ConfigError and
ContractError -> 3, NumericalError -> 4.
"""

import sys


class DistRegError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DistRegError):
    """Malformed or inconsistent input data (dimensions, empty bags, bad files)."""


class ConfigError(DistRegError):
    """Invalid configuration: unknown families, non-positive parameters, bad modes."""


class ContractError(DistRegError):
    """A documented precondition between components was violated."""


class NumericalError(DistRegError):
    """A numerical routine failed (factorization breakdown, non-finite values)."""


def _shown(value) -> str:
    """repr(value) for an error line, cut to about 40 characters."""
    return text if len(text := repr(value)) <= 40 else f"{text[:37]}..."


def config_float(value, what: str) -> float:
    """A finite JSON number (not a string or bool) as a float, or ConfigError naming `what`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{what} must be a finite number, got {_shown(value)}")


def config_int(value, what: str, least: int) -> int:
    """A JSON integer >= `least` that a float can hold (12.0 counts, 12.7 does not),
    or ConfigError naming `what`."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not (is_int and least <= value <= sys.float_info.max):
        raise ConfigError(f"{what} must be an integer >= {least}, got {_shown(value)}")
    return value


def config_keys(section: dict, known, what: str) -> None:
    """ConfigError naming any key of `section` outside `known`."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
