"""Tiny expression grammar for config-level schedules k(n) and rho(n).

Rules are strings over numbers, the variable n, the functions log (natural),
log10, sqrt, ceil, and the operators + - * / ^ ( ).  Anything else is
rejected, so config files stay declarative.  Regime classification is done
numerically from the empirical growth exponent of the rule.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

__all__ = [
    "evaluate_rule",
    "k_from_rule",
    "growth_exponent",
    "classify_rho_rule",
    "validate_k_rule",
]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>n|k|log10|log|sqrt|ceil)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {
    "log": math.log,
    "log10": math.log10,
    "sqrt": math.sqrt,
    "ceil": lambda x: float(math.ceil(x)),
}


def _compile(expr: str) -> str:
    """Validate the token stream and return a python-evaluable expression."""
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError("rule expression must be a nonempty string")
    expr = expr.strip()
    out = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            raise ConfigError(f"invalid token at {expr[pos:]!r} in rule {expr!r}")
        if m.group("op") == "^":
            out.append("**")
        elif m.group("num") is not None and m.group("num").isdigit():
            # as a float, so a huge power overflows instead of growing a big integer
            out.append(m.group("num") + ".0")
        else:
            out.append(m.group(0).strip())
        pos = m.end()
    return "".join(out)


def evaluate_rule(expr: str, n: int | float, k: int | float | None = None) -> float:
    """Evaluate a rule expression at the given n (and k, for size rules)."""
    compiled = _compile(expr)
    env = {"__builtins__": {}, "n": float(n), **_FUNCS}
    if k is not None:
        env["k"] = float(k)
    try:
        value = eval(compiled, env)  # noqa: S307 - token-whitelisted input
    except ZeroDivisionError:
        raise ConfigError(f"rule {expr!r} divides by zero at n={n}") from None
    except Exception as e:
        raise ConfigError(f"rule {expr!r} failed to evaluate: {e}") from None
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"rule {expr!r} produced non-finite value at n={n}")
    return float(value)


def k_from_rule(expr: str, n: int) -> int:
    """Group count from a rule: ceiling of the rule value, at least 1."""
    value = evaluate_rule(expr, n)
    if value <= 0:
        raise ConfigError(f"k rule {expr!r} gives nonpositive value at n={n}")
    return max(1, math.ceil(value - 1e-9))


def growth_exponent(expr: str, n_lo: float = 1e80, n_hi: float = 1e100) -> float:
    """Empirical log-log slope of the rule between two large n values.

    The probe points are deliberately astronomical so that polylog factors
    (which decay like o(1) on the log-log scale) barely perturb the slope.
    """
    lo = evaluate_rule(expr, n_lo)
    hi = evaluate_rule(expr, n_hi)
    if lo <= 0 or hi <= 0:
        raise ConfigError(f"rule {expr!r} must stay positive for regime checks")
    return (math.log(hi) - math.log(lo)) / (math.log(n_hi) - math.log(n_lo))


def classify_rho_rule(expr: str) -> str:
    """Map a sparsity rule to its regime: dense, sparse, or ultra_sparse.

    dense: rho essentially constant; sparse: polynomial decay slower than 1/n;
    ultra_sparse: decay within log factors of 1/n.  An exponent at or below
    -1 + 1e-4 (1/n with no log slack, or faster) is rejected: degree stops
    growing.  log(log(n))/n, at -0.99909, is still ultra_sparse.
    """
    e = growth_exponent(expr)
    if abs(e) <= 0.02:
        return "dense"
    if -0.93 < e < 0.0:
        return "sparse"
    if -1.0 + 1e-4 < e <= -0.93:
        return "ultra_sparse"
    raise ConfigError(
        f"rho rule {expr!r} has growth exponent {e:.5f}; expected a constant, "
        "polynomial-decay, or polylog-over-n schedule (1/n needs log slack)"
    )


def validate_k_rule(expr: str, max_exponent: float = 0.8) -> float:
    """Require k(n) to grow strictly slower than n (at most n^max_exponent)."""
    e = growth_exponent(expr)
    if e < 0.0:
        raise ConfigError(f"k rule {expr!r} must be nondecreasing in n")
    if e > max_exponent + 1e-9:
        raise ConfigError(
            f"k rule {expr!r} grows like n^{e:.3f}; group counts must grow "
            f"strictly slower than n (exponent <= {max_exponent})"
        )
    return e
