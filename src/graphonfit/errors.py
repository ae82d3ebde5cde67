"""Exception hierarchy shared across the package, and the JSON reader that
turns malformed input into a ConfigError."""

import json


class GraphonFitError(Exception):
    """Base class for all library errors."""


class DomainError(GraphonFitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelError(GraphonFitError):
    """A model precondition is violated at runtime (e.g. rho * sup f >= 1)."""


class SaturatedBlockError(ModelError):
    """A divergence or risk is undefined because a block average hit {0, 1}."""


class ConfigError(GraphonFitError):
    """An infeasible or invalid configuration (constraints, rules, files)."""


class BudgetError(GraphonFitError):
    """A combinatorial enumeration would exceed its enforced budget."""


class InternalError(GraphonFitError):
    """An internal consistency invariant failed; indicates a bug."""


def parse_json_object(text: str, what: str, required=()) -> dict:
    """The JSON object in text, which must hold every key in required; what
    names the input in error messages."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} is missing keys {missing}")
    return obj
