"""The config schema.  Each field of a config dataclass declares its type, its
choices or range and its default once (setting).  parse (from a raw mapping),
dump (of a built config) and build_preset check each value by one function,
check_value, so they fail alike, with the field's path."""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields, is_dataclass


class ConfigError(ValueError):
    pass


def setting(typ, default=MISSING, *, factory=MISSING, **rule):
    """A dataclass field of type typ and its rule: choices, ge or gt, item (each
    item's rule), size, holds ((text, test of the items)), keys (the config's
    values -> each key's rule), also (a type only Python takes, dumped by
    tolist).  A None default allows None."""
    return field(default=default, default_factory=factory,
                 metadata=dict(rule, type=typ, optional=default is None))


def check_value(path, v, rule, values):
    """v as dump gives it, once it passes rule (values: the config's, for keys)."""
    typ = rule["type"]
    if isinstance(v, rule.get("also", ())):
        return v.tolist()
    if is_dataclass(typ) and isinstance(v, typ):
        return dump(v, path + ".")
    if "item" in rule:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(v).__name__}")
        if len(v) != rule.get("size", len(v)):
            raise ConfigError(f"{path}: expected {rule['size']} values, got {len(v)}")
        item = rule["item"]
        # ints (a long t_grid): one pass over the types, and the min for a bound
        if item["type"] is int and set(map(type, v)) <= {int}:
            if v:
                check_value(f"{path}[{v.index(min(v))}]", min(v), item, values)
        else:
            v = [check_value(f"{path}[{i}]", x, item, values) for i, x in enumerate(v)]
        if "holds" in rule and not rule["holds"][1](*v):
            raise ConfigError(f"{path}: expected {rule['holds'][0]}, got {list(v)}")
        return list(v)
    if "keys" in rule:
        keys = rule["keys"](values)
        for key in check_value(path, v, {"type": dict}, values):
            if key not in keys:
                raise ConfigError(f"{path}.{key}: unknown field")
        return {k: check_value(f"{path}.{k}", x, keys[k], values) for k, x in v.items()}
    if typ in (int, float) and isinstance(v, (int, float)) and not isinstance(v, bool):
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{path}: expected a finite number, got {v!r}")
        if typ is int and not isinstance(v, int):
            raise ConfigError(f"{path}: expected int, got {v!r}")
        v = typ(v)
    # bool subclasses int; only a bool field takes one
    elif not isinstance(v, typ) or isinstance(v, bool) != (typ is bool):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {type(v).__name__}")
    if "choices" in rule and v not in rule["choices"]:
        raise ConfigError(f"{path}: expected one of {rule['choices']}, got {v!r}")
    if "ge" in rule and v < rule["ge"] or "gt" in rule and v <= rule["gt"]:
        bound = f">= {rule['ge']}" if "ge" in rule else f"> {rule['gt']}"
        raise ConfigError(f"{path}: must be {bound}, got {v!r}")
    return v


def parse(cls, raw, path: str = ""):
    """The config of dataclass cls that the mapping raw gives, every field
    checked in declared order; null or [] leaves a field at its default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config root'}: expected a mapping")
    unknown = [key for key in raw if key not in {f.name for f in fields(cls)}]
    if unknown:
        raise ConfigError(f"{path}{unknown[0]}: unknown field")
    kwargs = {}
    for f in fields(cls):
        typ, v = f.metadata["type"], raw.get(f.name)
        if v is None or v == []:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path}{f.name}: required field is missing")
        elif is_dataclass(typ):
            kwargs[f.name] = parse(typ, v, f"{path}{f.name}.")
        else:  # typ makes a tuple of check_value's list
            kwargs[f.name] = typ(check_value(path + f.name, v, f.metadata, kwargs))
    return cls(**kwargs)


def dump(cfg, path: str = "") -> dict:
    """The plain mapping whose parse is cfg (a matrix G, which only Python
    takes, excepted), checked as parse checks, path prefixing each name."""
    return {f.name: None if getattr(cfg, f.name) is None and f.metadata["optional"]
            else check_value(path + f.name, getattr(cfg, f.name), f.metadata, vars(cfg))
            for f in fields(cfg)}


check = dump  # for a built config: the walk of dump raises what parse would
