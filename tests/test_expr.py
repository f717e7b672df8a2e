from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import expr as ex
from curv4 import jets

from oracles import MULTI_INDICES, derivative, random_expression, tree_jet_env


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
    assert derivative(j, (1, 0, 0, 0))[0] == 2.0
    assert derivative(j, (0, 1, 0, 0))[0] == 1.0
    assert derivative(j, (1, 1, 0, 0))[0] == 1.0


def test_eval_jet_exp_derivatives():
    j = ex.eval_jet(ex.parse("exp(x3)"), np.zeros((1, 4)))
    for alpha in MULTI_INDICES:
        want = 1.0 if all(a == 0 for i, a in enumerate(alpha) if i != 2) else 0.0
        assert abs(derivative(j, alpha)[0] - want) < 1e-15, alpha


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


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_fuzz_random_trees_never_crash(seed):
    rng = np.random.default_rng(seed)
    tree = random_expression(rng, depth=4)
    src = ex.to_string(tree)
    assert ex.parse(src) == tree
    pts = rng.uniform(0.3, 1.0, size=(2, 4))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            ex.eval_values(tree, pts)
    except (ex.DomainError, jets.JetError):
        pass  # located domain errors and the finiteness gate are the contract


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


# -- the compiled plan against the tree walkers ---------------------------------

_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]).map(ex.Num),
    st.integers(0, 3).map(ex.Var),
    st.just(ex.Const("pi")),
)
_TREES = st.recursive(_LEAVES, lambda t: st.one_of(
    t.map(lambda a: ex.Unary("-", a)),
    st.tuples(st.sampled_from("+-*/^"), t, t).map(lambda x: ex.Bin(*x)),
    st.tuples(st.sampled_from(ex.FUNCTIONS), t).map(lambda x: ex.Call(*x)),
), max_leaves=12)
_PTS = np.array([[0.3, 1.1, -0.7, 2.0], [1.5, -0.2, 0.9, 0.4], [0.0, 0.6, 1.3, -1.0]])


def _each(results):
    """The results of a generator or list of thunks up to the first error, and
    that error's type and message."""
    out = []
    try:
        for r in results:
            out.append(r() if callable(r) else r)
    except (ex.ExprError, jets.JetError) as e:
        return out, (type(e), str(e))
    return out, None


def _same_bits(a, b):
    return len(a) == len(b) and all(
        np.asarray(x).shape == np.asarray(y).shape
        and np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


def _check_plan_matches_walkers(trees, pts):
    env = [jets.Jet3.variable(i, pts[..., i]) for i in range(4)]
    row = [jets.Jet3(pts[None, ..., i]) for i in range(4)]  # one-row jets: the values
    with np.errstate(all="ignore"):
        plan = ex.Plan(trees)
        got, err = _each(plan.values(pts))
        want, want_err = _each([lambda t=t: tree_jet_env(t, row, pts).value for t in trees])
        assert err == want_err and _same_bits(got, want)
        got, err = _each(plan.jets(env, pts))
        want, want_err = _each([lambda t=t: tree_jet_env(t, env, pts) for t in trees])
        assert err == want_err and _same_bits([u.c for u in got], [u.c for u in want])


@given(st.lists(_TREES, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_plan_matches_tree_walkers_bitwise(trees):
    """One plan over several random trees gives the tree walkers' values and
    jets bit for bit, and the same first error with the same message (node
    and offset), with equal subtrees shared across the trees."""
    _check_plan_matches_walkers(trees, _PTS)


@pytest.mark.parametrize("sources", [
    ["x1 ^ 3 + x2 ^ -2", "(x1 + x2) ^ 3 * (x1 + x2) ^ 0.5"],  # integer and real powers
    ["log(x3) + 1", "log(x3) * 2"],  # the error cites the first log, in the first tree
    ["x1 + 1", "2 / (x1 - x1)", "log(0 - x2)"],  # first failing tree wins
    ["(0 - 2) ^ log(x1 - 5)"],  # the base is checked before the exponent runs
    ["sqrt(x1) ^ x2 + x1 ^ (x2 * pi)"],  # variable exponents
])
def test_plan_matches_tree_walkers_examples(sources):
    _check_plan_matches_walkers([ex.parse(s) for s in sources], _PTS)


def test_plan_keys_constants_by_bits():
    """0.0 and -0.0 compare equal as floats; the plan keeps them apart."""
    trees = [ex.Bin("*", ex.Var(0), ex.Num(0.0)), ex.Bin("*", ex.Var(0), ex.Num(-0.0))]
    pts = np.ones((2, 4))
    assert [bool(np.signbit(v[0])) for v in ex.Plan(trees).values(pts)] == [False, True]
    env = [jets.Jet3.variable(i, pts[..., i]) for i in range(4)]
    assert [bool(np.signbit(u.value[0])) for u in ex.Plan(trees).jets(env)] == [False, True]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_real_vs_jet_value_agreement(seed):
    """Plan.values is the value row of Plan.jets bit for bit on random trees
    with division and integer powers, with the same DomainError (node and
    point); only the jets' finiteness gate also reads their derivative rows."""
    rng = np.random.default_rng(seed)
    plan = ex.Plan([random_expression(rng, depth=4) for _ in range(3)])
    pts = rng.uniform(-1.0, 1.5, size=(5, 4))
    env = [jets.Jet3.variable(i, pts[:, i]) for i in range(4)]
    with np.errstate(all="ignore"):
        got, err = _each(plan.values(pts))
        want, want_err = _each(plan.jets(env, pts))
    assert _same_bits(got[:len(want)], [u.value for u in want])
    if want_err is None or want_err[0] is ex.DomainError:
        assert err == want_err and len(got) == len(want)


def test_one_row_run_stays_one_row():
    """Constants and x^0 take their row count from the env: a run on one-row
    jets never forms a jet of NCOEFF rows."""
    row = [jets.Jet3(_PTS[None, :, i]) for i in range(4)]
    for src in ("x1 ^ 0", "2 * pi + 1", "(x2 - x2) ^ 0"):
        (u,) = ex.Plan([ex.parse(src)]).jets(row, _PTS)
        assert u.c.shape == (1, len(_PTS))
        assert np.array_equal(u.value, ex.eval_values(ex.parse(src), _PTS))


def test_plan_domain_error_names_first_node():
    """A failing subtree shared by two trees is reported at its first occurrence,
    as the tree walker does."""
    trees = [ex.parse("x1 + 1"), ex.parse("2 * log(x2 - 5)"), ex.parse("log(x2 - 5)")]
    with pytest.raises(ex.DomainError) as err:
        list(ex.Plan(trees).values(_PTS))
    assert err.value.node.offset == 4
    assert ("log of nonpositive value at point (0.3, 1.1, -0.7, 2.0) in 'log(x2 - 5.0)' "
            "(offset 4)") in str(err.value)
    with pytest.raises(ex.DomainError, match="variable exponent"):
        ex.eval_jet(ex.parse("(0 - 2) ^ log(x1 - 5)"), _PTS)


def test_conformal_chart_plan_shares_subtrees():
    """The ten upper metric entries of the conformal S^2 x S^2 chart hold 138
    nodes of which 22 are distinct; the plan evaluates each of those once."""
    from curv4 import scenario
    from curv4.charts import UPPER

    sc = scenario.load(Path(__file__).resolve().parents[1] / "scenarios" / "conformal_product.json")
    chart = sc.build_chart()

    def count(n):
        kids = [getattr(n, f) for f in ("arg", "left", "right") if hasattr(n, f)]
        return 1 + sum(count(k) for k in kids)

    assert sum(count(chart.g[i][j]) for i, j in UPPER) == 138
    assert len(chart.plan.steps) == 22
