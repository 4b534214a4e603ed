"""The settings table, the one path from config text or flag values to a config.

Config dataclasses declare each key and its bounds on a ``setting`` field,
and the walks below read those fields.  Imports nothing from the package."""

from __future__ import annotations

from dataclasses import field, fields, is_dataclass, replace


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending key.  Both
    arguments are the error's ``args``, so it unpickles."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)
        self.key = key

    def __str__(self) -> str:
        return f"config key {self.args[0]!r}: {self.args[1]}"


def setting(default, key: str, bounds: str | tuple | None = None):
    """A config field that declares its experiment-config key and its bounds.

    ``bounds`` is an interval such as ``"[0, 1)"`` or ``"(0, inf]"``, or a
    tuple of the allowed strings; ``check_settings`` enforces it.
    """
    return field(default=default, metadata={"key": key, "bounds": bounds})


def check_settings(config) -> None:
    """Raise ``ConfigError`` naming the first field outside its bounds.

    Every comparison is one that NaN fails, and an open ``inf`` end refuses
    inf.
    """
    for f in fields(config):
        bounds, v = f.metadata.get("bounds"), getattr(config, f.name)
        if isinstance(bounds, tuple) and v not in bounds:
            raise ConfigError(f.metadata["key"],
                              f"must be one of {', '.join(bounds)}, got {v!r}")
        if isinstance(bounds, str):
            lo, hi = (float(end) for end in bounds[1:-1].split(","))
            if not ((lo <= v if bounds[0] == "[" else lo < v)
                    and (v <= hi if bounds[-1] == "]" else v < hi)):
                raise ConfigError(f.metadata["key"], f"must lie in {bounds}, got {v!r}")


def _parse_bool(text) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# field annotations are strings under ``from __future__ import annotations``
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def with_settings(config, mapping: dict):
    """``config`` with each of its keys in ``mapping`` set, from text or a value.

    Nested configs are rebuilt first, then this one, each with ``replace``, so
    every construction check runs again; a value that does not parse or fails
    a check raises ``ConfigError`` naming its key."""
    changes = {f.name: with_settings(getattr(config, f.name), mapping)
               for f in fields(config) if is_dataclass(getattr(config, f.name))}
    for f in fields(config):
        if (key := f.metadata.get("key")) in mapping:
            try:
                changes[f.name] = _PARSERS[f.type](mapping[key])
            except ValueError as err:
                raise ConfigError(key, str(err)) from None
    return replace(config, **changes)


def config_to_mapping(config) -> dict:
    """Every keyed field of ``config`` and of the configs it nests, as text
    sorted by key: what the manifests record."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out.update(config_to_mapping(value))
        elif "key" in f.metadata:
            out[f.metadata["key"]] = str(value)
    return dict(sorted(out.items()))


def config_from_text(config, text: str):
    """``config`` with ``key=value`` lines applied; ``#`` starts a comment,
    blanks are skipped, and a key ``config`` lacks is refused by line."""
    known = config_to_mapping(config)
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(stripped, f"line {lineno} is not key=value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ConfigError(key, f"unknown key on line {lineno}")
        mapping[key] = value
    return with_settings(config, mapping)
