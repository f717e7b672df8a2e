import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import expr as ex
from curv4 import jets

from oracles import random_expression


def test_parse_structure():
    t = ex.parse("0.1*sin(x1)*cos(x2)")
    assert isinstance(t, ex.Bin) and t.op == "*"
    assert isinstance(t.left, ex.Bin) and t.left.op == "*"
    assert isinstance(t.right, ex.Call) and t.right.fn == "cos"


def test_precedence():
    t = ex.parse("x1 + x2 * x3")
    assert t.op == "+" and isinstance(t.right, ex.Bin) and t.right.op == "*"


def test_power_right_associative():
    v = ex.eval_values(ex.parse("2 ^ 3 ^ 2"), np.zeros((1, 4)))
    assert v[0] == 512.0


def test_unary_minus_binds_below_power():
    assert ex.eval_values(ex.parse("-2^2"), np.zeros((1, 4)))[0] == -4.0


def test_round_trip_stability():
    for src in ["x1 + x2 * x3 - (-x4) ^ 2 / sqrt(x1)",
                "sin(x1)*cos(x2) - exp(-x3/2) + pi",
                "1/(1 + x1^2) ^ 2"]:
        t1 = ex.parse(src)
        t2 = ex.parse(ex.to_string(t1))
        assert t1 == t2
        assert ex.to_string(t1) == ex.to_string(t2)


def test_unknown_identifier_located():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x1 + foo(x2)")
    assert err.value.offset == 5


def test_syntax_error_expected_set():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x1 + ")
    assert err.value.expected


def test_empty_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("   ")


def test_eval_jet_example():
    j = ex.eval_jet(ex.parse("x1*x2"), np.array([[1.0, 2.0, 0.0, 0.0]]))
    assert j.value[0] == 2.0
    assert j.derivative((1, 0, 0, 0))[0] == 2.0
    assert j.derivative((0, 1, 0, 0))[0] == 1.0
    assert j.derivative((1, 1, 0, 0))[0] == 1.0


def test_eval_jet_exp_derivatives():
    j = ex.eval_jet(ex.parse("exp(x3)"), np.zeros((1, 4)))
    for alpha in jets.MULTI_INDICES:
        want = 1.0 if all(a == 0 for i, a in enumerate(alpha) if i != 2) else 0.0
        assert abs(j.derivative(alpha)[0] - want) < 1e-15, alpha


def test_domain_error_cites_node():
    with pytest.raises(ex.DomainError) as err:
        ex.eval_jet(ex.parse("1/x1"), np.array([[0.0, 1.0, 1.0, 1.0]]))
    assert "1 / x1" in str(err.value) or "division" in str(err.value)


def test_finite_gate_formats_context_only_on_failure(monkeypatch):
    calls = []
    real = ex.to_string
    monkeypatch.setattr(ex, "to_string",
                        lambda node, *args: calls.append(node) or real(node, *args))
    ex.eval_jet(ex.parse("x1 * x2 + 1"), np.ones((3, 4)))
    assert calls == []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(jets.JetError, match="in expression 'exp\\(x1\\)'"):
            ex.eval_jet(ex.parse("exp(x1)"), np.array([[1000.0, 0.0, 0.0, 0.0]]))


def test_log_domain_error_located():
    with pytest.raises(ex.DomainError):
        ex.eval_values(ex.parse("log(x1 - 5)"), np.array([[1.0, 0, 0, 0]]))


def test_negative_base_constant_exponent_ok():
    v = ex.eval_values(ex.parse("(-2)^3"), np.zeros((1, 4)))
    assert v[0] == -8.0


def test_negative_base_variable_exponent_rejected():
    with pytest.raises(ex.DomainError):
        ex.eval_values(ex.parse("(0 - 2) ^ x1"), np.array([[1.5, 0, 0, 0]]))


def test_real_vs_jet_value_agreement():
    rng = np.random.default_rng(23)
    done = 0
    while done < 1000:
        tree = random_expression(rng, depth=3)
        pts = rng.uniform(0.2, 1.1, size=(1, 4))
        try:
            rv = ex.eval_values(tree, pts)
            jv = ex.eval_jet(tree, pts)
        except ex.ExprError:
            continue
        assert abs(rv[0] - jv.value[0]) <= 1e-14 * max(1.0, abs(rv[0]))
        done += 1


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_fuzz_random_trees_never_crash(seed):
    rng = np.random.default_rng(seed)
    tree = random_expression(rng, depth=4)
    src = ex.to_string(tree)
    assert ex.parse(src) == tree
    pts = rng.uniform(0.3, 1.0, size=(2, 4))
    try:
        ex.eval_values(tree, pts)
    except ex.DomainError:
        pass  # located domain errors are the contract


@given(st.text(alphabet="x1234+-*/^()sincoepqrtlg. ", max_size=40))
@settings(max_examples=200, deadline=None)
def test_fuzz_malformed_inputs_error_cleanly(src):
    try:
        tree = ex.parse(src)
    except ex.ParseError:
        return
    # whatever parsed must round-trip
    assert ex.parse(ex.to_string(tree)) == tree


def test_substitute():
    t = ex.parse("x1 * sin(x2)")
    sub = ex.substitute(t, [ex.parse("x3 + 1"), ex.parse("2*x4"),
                            ex.Var(2), ex.Var(3)])
    pts = np.array([[0.0, 0.0, 0.5, 0.25]])
    want = (0.5 + 1) * np.sin(2 * 0.25)
    assert abs(ex.eval_values(sub, pts)[0] - want) < 1e-15


def test_constant_folding_helpers():
    n = ex.mul(ex.num(3.0), ex.num(4.0))
    assert isinstance(n, ex.Num) and n.value == 12.0
    assert ex.constant_value(ex.parse("2^3 + pi")) == pytest.approx(8 + np.pi)
