"""Exception hierarchy shared across the package, and the JSON reader that
turns malformed input into a ConfigError.  Each error class carries the exit
status the command line reports for it."""

import json


class GraphonFitError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class DomainError(GraphonFitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 2


class ModelError(GraphonFitError):
    """A model precondition is violated at runtime (e.g. rho * sup f >= 1)."""


class SaturatedBlockError(ModelError):
    """A divergence or risk is undefined because a block average hit {0, 1}."""


class ConfigError(GraphonFitError):
    """An infeasible or invalid configuration (constraints, rules, files)."""

    exit_code = 2


class BudgetError(GraphonFitError):
    """A combinatorial enumeration would exceed its enforced budget."""


class InternalError(GraphonFitError):
    """An internal consistency invariant failed; indicates a bug."""

    exit_code = 4


def _matches(value, kind) -> bool:
    """Whether a decoded JSON value has the schema type kind: int, float, str,
    bool, None, [kind] for a list of kind, or a tuple of alternatives.  A JSON
    true/false is only a bool, and an integer also counts as a float."""
    if isinstance(kind, tuple):
        return any(_matches(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_matches(v, kind[0]) for v in value)
    if kind is None:
        return value is None
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, list):
        return f"list[{_describe(kind[0])}]"
    return "null" if kind is None else kind.__name__


def parse_json_object(
    text: str, what: str, schema: dict, optional=(), closed: bool = False, hints=None,
) -> dict:
    """The JSON object in text, checked against schema, a map from each key to
    the type its value must have (see _matches).  Every schema key not in
    optional must be present; closed rejects keys outside the schema.  what
    names the input in error messages, and hints maps a key to advice given
    when it is missing."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(schema))
    if closed and unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}")
    missing = [key for key in schema if key not in obj and key not in optional]
    if missing:
        hint = next((f"; {hints[key]}" for key in missing if key in (hints or {})), "")
        raise ConfigError(f"{what} is missing keys {missing}{hint}")
    for key, kind in schema.items():
        if key in obj and not _matches(obj[key], kind):
            raise ConfigError(f"{what} key {key!r} must be {_describe(kind)}")
    return obj
