"""Config key tables and the one checker that reads them.

Every level of a config is a table that maps each key to a `ParamSpec`: an
experiment's params, a codec `model` override and a checkpoint's config echo
(both `afc.MODEL_KEYS`), an `uplink_trace`, and each `coverage` `schemes`
entry. `check_keys` checks a dict against its table and recurses into the
tables its values carry, so every fault names its key path
(`params.schemes[1].delta_snr_db: required`).

A key that sets a library config field is stated once, on the field: its
class checks the bound `bounded` gives it (`check_bounds`), and `field_key`
makes the key's spec from it. A library object checks the values that depend
on more than one key itself; `built` and `reported` name its error's key path.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, InputDomainError

# Defaults of a key that has no default value: it must be given, or it may
# be left out. Either way it takes no null.
REQUIRED, OPTIONAL = object(), object()


# A key's `read_if` conditions each map the filled-in dict of its level to
# None when met, else to the setting that skips the key; a run reads the key
# while every condition holds, and the first unmet one names why it does
# not. `choices` lists the values a selector key may take; `minimum` is the
# least value a numeric key may take, or the bound it must exceed when
# `strict`. `keys` is the table of a dict value, or of each entry of a list.
# `sets` names the library field the key sets: (its dataclass, or the default
# object of that class the key's default comes from; the field's name).
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
    sets: tuple[object, str] | None = None


def bounded(minimum, default=MISSING, strict=False):
    """A dataclass field that `check_bounds` keeps >= `minimum`, or > when `strict`."""
    return field(default=default, metadata={"minimum": minimum, "strict": strict})


def _check_bound(where: str, value, low, strict: bool) -> None:
    if low is not None and value is not None and (value <= low if strict else value < low):
        raise ConfigError(f"{where}: must be {'>' if strict else '>='} {low}, got {value}")


def check_bounds(obj) -> None:
    """Raise `<field>: must be >= N, got V` for the first field of the
    dataclass `obj` outside its bound; a null value has none."""
    for f in fields(obj):
        _check_bound(f.name, getattr(obj, f.name), f.metadata.get("minimum"), f.metadata.get("strict"))


def field_key(owner, name: str, help: str, **overrides) -> ParamSpec:
    """The spec of a key that sets field `name` of `owner`, a dataclass or a
    default object of one: the field's type (null only as its default), its
    default or the object's value, and its bound, less what `overrides` restate."""
    f = next(f for f in fields(owner) if f.name == name)
    default = f.default if isinstance(owner, type) else getattr(owner, name)
    return replace(ParamSpec(
        f.type.removesuffix(" | None").replace("float", "number"), default, help,
        minimum=f.metadata.get("minimum"), strict=f.metadata.get("strict", False), sets=(owner, name),
    ), **overrides)


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
        _check_bound(f"{path}.{key}", value, spec.minimum, spec.strict)
        if spec.keys is None or value is None:
            continue
        entries = {"": value} if spec.type == "dict" else {f"[{i}]": e for i, e in enumerate(value)}
        for where, entry in entries.items():
            if not isinstance(entry, dict):
                raise _type_error(f"{path}.{key}{where}", "dict", entry)
            check_keys(entry, spec.keys, f"{path}.{key}{where}")
    return out


def reported(path: str, build, *args, key_of: dict | None = None, **kwargs):
    """`build(*args, **kwargs)`, a library object or result whose own checks
    raise a ConfigError or InputDomainError `<name>: ...`, re-raised as a
    ConfigError `<path>.<key>: ...`; `key_of` maps a field to the key setting it."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, InputDomainError) as exc:
        name, sep, fault = str(exc).partition(": ")
        raise ConfigError(f"{path}.{(key_of or {}).get(name, name)}{sep}{fault}") from None


def built(owner, given: dict, table: dict[str, ParamSpec], path: str = "params", **extra):
    """The dataclass of `owner` built from the `given` values of the `table`
    keys that set its fields, and from `extra`, as `reported` under `path`."""
    key_of = {spec.sets[1]: key for key, spec in table.items() if spec.sets and spec.sets[0] is owner}
    values = {name: given[key] for name, key in key_of.items() if key in given}
    cls = owner if isinstance(owner, type) else type(owner)
    return reported(path, cls, **values, **extra, key_of=key_of)
