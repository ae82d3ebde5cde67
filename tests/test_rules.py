import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import ConfigError
from graphonfit.rules import (
    classify_rho_rule,
    evaluate_rule,
    growth_exponent,
    k_from_rule,
    validate_k_rule,
)


class TestEvaluateRule:
    def test_arithmetic(self):
        assert evaluate_rule("2*n + 1", 10) == 21.0
        assert evaluate_rule("n^2", 3) == 9.0
        assert evaluate_rule("sqrt(n)", 16) == 4.0
        assert evaluate_rule("log(n)", math.e) == pytest.approx(1.0)
        assert evaluate_rule("log10(n)", 1000) == pytest.approx(3.0)
        assert evaluate_rule("ceil(n/3)", 10) == 4.0
        assert evaluate_rule("0.5*n^(-0.3)", 100) == pytest.approx(0.5 * 100**-0.3)

    def test_k_variable(self):
        assert evaluate_rule("ceil(2*n/k)", 100, k=10) == 20.0
        # k-dependent rules need k supplied
        with pytest.raises(ConfigError):
            evaluate_rule("2*n/k", 100)

    def test_rejects_foreign_tokens(self):
        for bad in (
            "__import__('os')",
            "n.real",
            "m + 1",
            "exp(n)",
            "n,n",
            "lambda: 0",
            "n; n",
            "",
            "   ",
        ):
            with pytest.raises(ConfigError):
                evaluate_rule(bad, 10)

    def test_rejects_malformed_expressions(self):
        with pytest.raises(ConfigError):
            evaluate_rule("2*", 10)
        with pytest.raises(ConfigError):
            evaluate_rule("(n", 10)
        with pytest.raises(ConfigError):
            evaluate_rule("1/(n-10)", 10)  # divide by zero

    @pytest.mark.parametrize("rule", ["2^2^2^2^2", "ceil(n)*ceil(n)*ceil(n)*ceil(n)"])
    def test_overflow_is_a_config_error(self, rule):
        # computed in floats: the power overflows, the product is infinite
        with pytest.raises(ConfigError):
            evaluate_rule(rule, 1e100)
        with pytest.raises(ConfigError):
            validate_k_rule(rule)

    @given(st.floats(0.1, 10), st.floats(-1, 1))
    @settings(max_examples=30, deadline=None)
    def test_power_rule_matches_math(self, c, e):
        n = 50
        got = evaluate_rule(f"{c}*n^({e})", n)
        assert got == pytest.approx(c * n**e)


class TestKFromRule:
    def test_ceiling_behaviour(self):
        assert k_from_rule("sqrt(n)", 100) == 10
        assert k_from_rule("sqrt(n)", 101) == 11
        assert k_from_rule("n/7", 14) == 2
        assert k_from_rule("0.1", 100) == 1  # floor at 1

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            k_from_rule("0", 100)
        with pytest.raises(ConfigError):
            k_from_rule("n - 200", 100)


class TestRegimes:
    def test_growth_exponent_pure_powers(self):
        assert growth_exponent("n") == pytest.approx(1.0)
        assert growth_exponent("3*n^0.5") == pytest.approx(0.5)
        assert growth_exponent("0.3") == pytest.approx(0.0)
        assert growth_exponent("2/n") == pytest.approx(-1.0)

    def test_classify(self):
        assert classify_rho_rule("0.3") == "dense"
        assert classify_rho_rule("0.5*n^(-0.3)") == "sparse"
        assert classify_rho_rule("2*log10(n)^4/n") == "ultra_sparse"
        assert classify_rho_rule("2*log(n)^4/n") == "ultra_sparse"
        assert classify_rho_rule("log(n)/n") == "ultra_sparse"

    def test_classify_rejects_too_fast_decay(self):
        with pytest.raises(ConfigError):
            classify_rho_rule("1/n^2")
        with pytest.raises(ConfigError):
            classify_rho_rule("n")  # growing density is not a sparsity schedule

    @pytest.mark.parametrize("rule, exponent", [
        ("1/n", "-1.00000"), ("0.5/n", "-1.00000"), ("n^(-1.01)", "-1.01000"),
    ])
    def test_classify_rejects_1_over_n_without_log_slack(self, rule, exponent):
        # degree stops growing, so 1/n needs a log factor to be ultra-sparse
        with pytest.raises(ConfigError, match=f"growth exponent {exponent}"):
            classify_rho_rule(rule)

    @pytest.mark.parametrize("rule, exponent", [
        ("log(log(n))/n", -0.99909), ("log(n)/n", -0.99515), ("2*log10(n)^4/n", -0.98062),
    ])
    def test_classify_keeps_log_slack_ultra_sparse(self, rule, exponent):
        assert growth_exponent(rule) == pytest.approx(exponent, abs=1e-5)
        assert classify_rho_rule(rule) == "ultra_sparse"

    def test_classify_requires_positive_rule(self):
        with pytest.raises(ConfigError):
            classify_rho_rule("0 - 1")


class TestValidateKRule:
    def test_accepts_slow_growth(self):
        assert validate_k_rule("sqrt(n)") == pytest.approx(0.5)
        assert validate_k_rule("n^0.75") == pytest.approx(0.75)
        assert validate_k_rule("log(n)") == pytest.approx(0.0, abs=0.05)

    def test_rejects_linear_and_decreasing(self):
        with pytest.raises(ConfigError):
            validate_k_rule("n")
        with pytest.raises(ConfigError):
            validate_k_rule("1/n")
