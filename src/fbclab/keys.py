"""Config key tables and the one checker that reads them.

Every level of a config is a table that maps each key to a `ParamSpec`: an
experiment's params, a codec `model` override and a checkpoint's config echo
(both `afc.MODEL_KEYS`), an `uplink_trace`, and each `coverage` `schemes`
entry. `check_keys` checks a dict against its table and recurses into the
tables its values carry, so every fault names its key path
(`params.schemes[1].delta_snr_db: required`). A library object checks the
values that depend on more than one key itself; `reported` names the key path
of its error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Defaults of a key that has no default value: it must be given, or it may
# be left out. Either way it takes no null.
REQUIRED, OPTIONAL = object(), object()


# A key's `read_if` conditions each map the filled-in dict of its level to
# None when met, else to the setting that skips the key; a run reads the key
# while every condition holds, and the first unmet one names why it does
# not. `choices` lists the values a selector key may take; `minimum` is the
# least value a numeric key may take, or the bound it must exceed when
# `strict`. `keys` is the table of a dict value, or of each entry of a list.
@dataclass
class ParamSpec:
    type: str  # number | int | bool | string | list | dict
    default: object
    help: str
    choices: tuple = ()
    read_if: tuple = ()
    minimum: float | None = None
    strict: bool = False
    keys: dict[str, ParamSpec] | None = None


def finite_number(value) -> bool:
    """An int or float, not a bool, that a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= float(np.finfo(float).max)


TYPE_CHECKS = {
    "number": finite_number,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
}


def _type_error(path: str, expected: str, value) -> ConfigError:
    shown = value if value is None or isinstance(value, float) else type(value).__name__
    return ConfigError(f"{path}: expected {expected}, got {shown}")


def check_keys(given: dict, table: dict[str, ParamSpec], path: str,
               unknown: str = "unknown key") -> dict:
    """`given` with its defaults filled in, or a ConfigError naming the key path.

    A key takes null only where its default is null, and a number only a
    finite value. Giving a key that the other settings leave unread is an
    error, and the result keeps only the keys that are read, so a manifest and
    its config hash state only settings the run uses. A key that is read
    stays within its bound and its own table; a nested value is kept as given.
    """
    for key in given:
        if key not in table:
            raise ConfigError(f"{path}.{key}: {unknown}")
    out = {}
    for key, spec in table.items():
        value = given.get(key, spec.default)
        if value is REQUIRED:
            raise ConfigError(f"{path}.{key}: required")
        if value is OPTIONAL:
            continue
        if not (TYPE_CHECKS[spec.type](value) or value is None and spec.default is None):
            raise _type_error(f"{path}.{key}", spec.type, value)
        out[key] = value
    for key, spec in table.items():
        if spec.choices and out[key] not in spec.choices:
            raise ConfigError(f"{path}.{key}: unknown {key} {out[key]!r}")
    unread = {
        key: reason
        for key, spec in table.items()
        if (reason := next(filter(None, (cond(out) for cond in spec.read_if)), None))
    }
    for key in given:  # the keys as given: defaults are not settings
        if key in unread:
            raise ConfigError(f"{path}.{key}: {unread[key]} does not read it")
    out = {key: value for key, value in out.items() if key not in unread}
    for key, value in out.items():
        spec = table[key]
        low = spec.minimum
        if low is not None and (value <= low if spec.strict else value < low):
            raise ConfigError(f"{path}.{key}: must be {'>' if spec.strict else '>='} {low}, got {value}")
        if spec.keys is None or value is None:
            continue
        entries = {"": value} if spec.type == "dict" else {f"[{i}]": e for i, e in enumerate(value)}
        for where, entry in entries.items():
            if not isinstance(entry, dict):
                raise _type_error(f"{path}.{key}{where}", "dict", entry)
            check_keys(entry, spec.keys, f"{path}.{key}{where}")
    return out


def reported(path: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, a library object whose own value checks raise
    `<key>: ...`; its ConfigError is reported under `path`."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None
