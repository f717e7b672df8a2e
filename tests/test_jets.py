import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import expr as ex
from curv4 import jets
from curv4.jets import Jet3

from oracles import (INDEX_OF, MULTI_INDICES, broadcast_congruence, cofactor_minor,
                     convolution_mul, derivative, entries, fancy_index_mul, random_expression,
                     slot_loop_inverse, stack, taylor_coefficient)


def test_variable_lift():
    j = Jet3.variable(0, 2.0)
    assert j.value == 2.0
    assert derivative(j, (1, 0, 0, 0)) == 1.0
    assert np.sum(np.abs(j.c)) == 3.0  # value + unit slot only


def _pure_power(alpha, axis):
    """k if alpha = k e_axis, else None (a mixed or off-axis multi-index)."""
    if any(a for i, a in enumerate(alpha) if i != axis):
        return None
    return alpha[axis]


def test_sin_of_variable_taylor():
    s = jets.sin(Jet3.variable(1, 0.0))
    for alpha in MULTI_INDICES:
        k = _pure_power(alpha, 1)
        want = 0.0 if k is None else (0.0, 1.0, 0.0, -1.0)[k % 4]  # d^k sin(0)
        assert derivative(s, alpha) == want, alpha


def test_cube_of_variable():
    c = jets.powr(Jet3.variable(2, 1.0), 3)
    for alpha in MULTI_INDICES:
        k = _pure_power(alpha, 2)
        want = 0.0 if k is None else float(math.perm(3, k))  # d^k x^3 at x = 1
        assert derivative(c, alpha) == want, alpha


def test_negative_power_of_small_variable():
    """x^-7 at x = 1e-22 is formed as (1/x)^7, whose jet is finite; 1/x^7 would
    overflow in the second-order coefficient of the reciprocal of 1e-154."""
    x0 = 1e-22
    c = jets.powr(Jet3.variable(2, x0), -7)
    for alpha in MULTI_INDICES:
        k = _pure_power(alpha, 2)
        want = 0.0 if k is None else (-1) ** k * math.perm(6 + k, k) * x0 ** (-7 - k)
        assert derivative(c, alpha) == pytest.approx(want, rel=1e-14), alpha


def test_exp_pure_coefficients():
    e = jets.exp(Jet3.variable(0, 0.0))
    for alpha in MULTI_INDICES:
        want = 0.0 if _pure_power(alpha, 0) is None else 1.0
        assert abs(derivative(e, alpha) - want) < 1e-15, alpha


def test_product_mixed_coefficient():
    ab = Jet3.variable(0, 0.0) * Jet3.variable(1, 0.0)
    assert derivative(ab, (1, 1, 0, 0)) == 1.0
    assert np.sum(np.abs(ab.c)) == 1.0


def test_geometric_series_normalization():
    """Pins the storage convention: raw Taylor coefficients, derivative = c * a!."""
    r = 1.0 / (1.0 + Jet3.variable(0, 0.0))
    pure = [_pure_power(alpha, 0) for alpha in MULTI_INDICES]
    stored = [0.0 if k is None else (-1.0)**k for k in pure]
    assert np.allclose(r.c, stored, atol=1e-15)
    derivs = [0.0 if k is None else (-1.0)**k * math.factorial(k) for k in pure]
    assert np.allclose([derivative(r, alpha) for alpha in MULTI_INDICES], derivs,
                       atol=1e-15)


def test_polynomial_products_truncation_exact():
    """Degree <= 3 polynomial products match exact expansion coefficient-wise."""
    rng = np.random.default_rng(0)
    x = [Jet3.variable(i, rng.uniform(-1, 1)) for i in range(4)]
    p = x[0] * x[1] - 2.0 * x[2]  # degree 2
    q = x[3] + 0.5 * x[0]  # degree 1
    prod = p * q
    # compare against expanded polynomial evaluated as jets
    expanded = (x[0] * x[1] * x[3] + 0.5 * x[0] * x[0] * x[1]
                - 2.0 * x[2] * x[3] - x[0] * x[2])
    assert np.allclose(prod.c, expanded.c, atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_against_symbolic_oracle_batch(seed):
    """Jet coefficients match the AST-level symbolic differentiator."""
    rng = np.random.default_rng(100 + seed)
    checked = 0
    while checked < 250:
        tree = random_expression(rng, depth=3)
        p = rng.uniform(0.3, 1.2, size=4)
        try:
            jet = ex.eval_jet(tree, p[None, :])
        except ex.ExprError:
            continue
        ok = True
        for alpha in MULTI_INDICES:
            try:
                want = taylor_coefficient(tree, alpha, p)
            except ex.ExprError:
                ok = False
                break
            if not np.isfinite(want):
                ok = False  # oracle differentiated through ^0 at a zero base
                break
            got = jet.c[INDEX_OF[alpha], 0]
            scale = max(abs(want), 1.0)
            assert abs(got - want) <= 1e-12 * scale, (ex.to_string(tree), alpha)
        if ok:
            checked += 1


def test_chain_rule_composites():
    """elementary(fn, arith(...)) equals the jet of the composed closed form."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(0.2, 1.5, size=2)
        p = rng.uniform(0.2, 1.0, size=4)
        composed = ex.parse(f"exp(sin({a}*x1 + x2*x3) - {b}*x4^2)")
        jet = ex.eval_jet(composed, p[None, :])
        for alpha in MULTI_INDICES:
            want = taylor_coefficient(composed, alpha, p)
            got = jet.c[INDEX_OF[alpha], 0]
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def _dense(coeffs):
    """Raw coefficients as a dense (ORDER+1)^4 array indexed by exponents."""
    out = np.zeros(coeffs.shape[:-1] + (jets.ORDER + 1,) * 4)
    for k, alpha in enumerate(MULTI_INDICES):
        out[(...,) + alpha] = coeffs[..., k]
    return out


def test_product_matches_dense_truncated_convolution():
    """Jet products equal the full polynomial product, truncated to degree ORDER."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, jets.NCOEFF))
    b = rng.standard_normal((9, jets.NCOEFF))
    da, db = _dense(a), _dense(b)
    want = np.zeros((9, jets.NCOEFF))
    exponents = list(itertools.product(range(jets.ORDER + 1), repeat=4))
    for x in exponents:
        for y in exponents:
            s = tuple(i + j for i, j in zip(x, y))
            if sum(s) <= jets.ORDER:
                want[:, INDEX_OF[s]] += da[(...,) + x] * db[(...,) + y]
    got = (Jet3(a.T) * Jet3(b.T)).c.T
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.allclose((Jet3(b.T) * Jet3(a.T)).c.T, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("shape_a,shape_b", [((), ()), ((1,), (1,)), ((12,), (12,)),
                                             ((1024,), (1024,)), ((5, 4, 4), (1, 4, 1))])
def test_product_bitwise_equals_convolution_sum(shape_a, shape_b):
    """The graded product sums every slot in the order of the plain convolution
    sum, so the two agree bit for bit, for any batch shape and argument order."""
    rng = np.random.default_rng(13)
    a = rng.standard_normal(shape_a + (jets.NCOEFF,)) * 10.0 ** rng.integers(-6, 7, jets.NCOEFF)
    b = rng.standard_normal(shape_b + (jets.NCOEFF,)) * 10.0 ** rng.integers(-6, 7, jets.NCOEFF)
    a, b = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    for x, y in ((a, b), (b, a)):
        got = (Jet3(x) * Jet3(y)).c
        want = convolution_mul(x, y)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_division_by_zero_reports_point():
    with pytest.raises(jets.JetError):
        Jet3.variable(0, 1.0) / Jet3.variable(1, 0.0)


def test_log_domain_error():
    with pytest.raises(jets.JetError):
        jets.log(Jet3.variable(0, -1.0))


def test_sqrt_matches_pow_half():
    u = 1.0 + Jet3.variable(0, 0.5) * Jet3.variable(1, 0.25)
    assert np.allclose(jets.sqrt(u).c, jets.powr(u, 0.5).c, atol=1e-14)


def test_nan_poisoning_aborts():
    bad = Jet3.constant(np.nan)
    with pytest.raises(jets.JetError, match="non-finite"):
        jets.assert_finite(bad, "unit test")


def test_batched_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 1.0, size=(17, 4))
    tree = ex.parse("sin(x1)*exp(x2) / (1 + x3^2) - sqrt(x4)")
    batch = ex.eval_jet(tree, pts)
    for n in (0, 7, 16):
        single = ex.eval_jet(tree, pts[n:n + 1])
        assert np.allclose(batch.c[:, n], single.c[:, 0], atol=1e-15)


@given(st.integers(0, 3), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(axis, a, b):
    x = Jet3.variable(axis, 0.3)
    u = a + x * x
    v = b - 2.0 * x
    w = x * 0.5 + 1.0
    assert np.allclose((u * v).c, (v * u).c, atol=1e-13)
    assert np.allclose(((u + v) * w).c, (u * w + v * w).c, atol=1e-12)
    assert np.allclose((u * (v * w)).c, ((u * v) * w).c, atol=1e-12)


@given(st.floats(0.2, 3.0), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_exp_log_inverse(v, axis):
    u = v + Jet3.variable(axis, 0.0) * 0.3
    back = jets.exp(jets.log(u))
    assert np.allclose(back.c, u.c, atol=1e-12)


def test_partial_degrades_order():
    u = jets.powr(Jet3.variable(0, 1.0), 3)
    du = u.partial(0)  # 3 x^2
    for alpha in MULTI_INDICES:
        if sum(alpha) == jets.ORDER:
            # top-order content of a derivative is unknown and stored as zero
            assert du.c[INDEX_OF[alpha]] == 0.0, alpha
            continue
        k = _pure_power(alpha, 0)
        want = 0.0 if k is None else 3.0 * math.perm(2, k)  # d^k 3x^2 at x = 1
        assert abs(derivative(du, alpha) - want) < 1e-15, alpha


def test_mat_inverse_and_det():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.2, 0.8, size=(5, 4))
    env = [Jet3.variable(i, pts[:, i]) for i in range(4)]
    m = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            base = 3.0 if i == j else 0.0
            m[i][j] = Jet3.constant(base, (5,)) + 0.2 * env[i] * env[j]
            m[j][i] = m[i][j]
    inv = entries(jets.mat_inverse(stack(m)))
    eye = [[sum((m[i][k] * inv[k][j] for k in range(1, 4)), m[i][0] * inv[0][j])
            for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            # m m^-1 = I to order 2: value 1 or 0, every derivative coefficient 0
            target = np.zeros((jets.NCOEFF, 1))
            target[0] = 1.0 if i == j else 0.0
            assert np.allclose(eye[i][j].c, target, atol=1e-12), (i, j)
    det = jets.det4(Jet3(stack(m)))
    assert np.allclose(det.value, np.linalg.det(stack(m)[0]), atol=1e-10)
    # the cofactor expansion over stacked values is the value of the jet one
    assert np.array_equal(jets.det4(stack(m)[0]), det.value)


def test_mat_inverse_singular_names_point():
    pts = np.arange(12.0).reshape(3, 4) / 10.0
    env = [Jet3.variable(i, pts[:, i]) for i in range(4)]
    m = [[Jet3.constant(1.0 if i == j else 0.0, (3,)) for j in range(4)] for i in range(4)]
    # rows 0 and 1 of the value matrix agree at the third point only
    m[0][0] = m[1][1] = 1.0 + env[0]
    m[0][1] = m[1][0] = Jet3.constant(np.array([0.0, 0.0, 1.0]), (3,)) + env[0]
    with pytest.raises(jets.JetError, match="singular metric matrix") as err:
        jets.mat_inverse(stack(m), pts)
    assert err.value.where == tuple(pts[2])


# Random stacked coefficients: entries of either sign over several decades, so
# that no ulp bound is met by the scale of one dominant term alone.
COEFFS = st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).normal(size=(jets.NCOEFF, 3, 4, 4))
    * 10.0 ** np.random.default_rng(seed + 1).integers(-3, 4, size=(jets.NCOEFF, 1, 1, 1)))


@pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5)])
def test_mul_bit_identical_to_fancy_index_formula(batch):
    """Jet3.__mul__ (jets._graded with np.multiply, one row of quadratic slots
    at a time) sums every slot in the order of the formula it replaced, which
    worked on fancy-indexed copies of all slots at once: the two agree bit for
    bit, on every batch shape, the empty one included."""
    rng = np.random.default_rng(len(batch) + sum(batch))
    for _ in range(20):
        scale = 10.0 ** rng.integers(-4, 5, size=(2,) + (1,) * (1 + len(batch)))
        a, b = rng.normal(size=(2, jets.NCOEFF) + batch) * scale
        assert np.array_equal((Jet3(a) * Jet3(b)).c, fancy_index_mul(a, b))
    # a broadcast factor, as the conformal metric e^{2f} g is formed
    a = rng.normal(size=(jets.NCOEFF,) + batch + (1, 1))
    b = rng.normal(size=(jets.NCOEFF,) + batch + (4, 4))
    assert np.array_equal((Jet3(a) * Jet3(b)).c, fancy_index_mul(a, b))


@given(COEFFS, COEFFS, COEFFS)
@settings(max_examples=60, deadline=None)
def test_matmul_and_congruence_match_broadcast_oracle(a, b, m):
    """jets.matmul is the graded product with each slot pair one batched
    matmul, and congruence is matmul(a^T, matmul(m, a)); against the graded
    products broadcast over a third axis and summed (oracles), they differ
    only in the order of the sums over the contracted index: within 8 ulps of
    the largest coefficient of the result (the worst seen over 3,000 draws is
    2.4 ulps for matmul, 3.4 for congruence)."""
    eps = np.finfo(float).eps
    ref = (Jet3(a[..., :, :, None]) * Jet3(b[..., None, :, :])).c.sum(axis=-2)
    assert np.max(np.abs(jets.matmul(a, b) - ref)) <= 8 * eps * np.max(np.abs(ref))
    ref = broadcast_congruence(a, m)
    assert np.max(np.abs(jets.congruence(a, m) - ref)) <= 8 * eps * np.max(np.abs(ref))


@given(COEFFS, COEFFS)
@settings(max_examples=30, deadline=None)
def test_solve_and_inverse_match_slot_loop_oracle(c, b):
    """jets.solve(m, b) = m^-1 b one jet slot at a time, and mat_inverse =
    solve(m, I), against the slot loop of m^-1 = V - V N V + V N V N V they
    replaced (times b by jets.matmul): within 16 ulps of the largest
    coefficient (the worst seen over 2,000 draws is 6.6 ulps for solve, 9.4
    for the inverse)."""
    eps = np.finfo(float).eps
    c = c + 8.0 * np.abs(c).max() * np.eye(4)  # comfortably invertible values
    ref = slot_loop_inverse(c)
    assert np.max(np.abs(jets.mat_inverse(c) - ref)) <= 16 * eps * np.max(np.abs(ref))
    ref = jets.matmul(ref, b)
    assert np.max(np.abs(jets.solve(c, b) - ref)) <= 16 * eps * np.max(np.abs(ref))


# The minors the program takes: det4 and every principal minor (grid.assemble's
# complementary axis sets, charts.require_positive_definite's leading ones) and
# canonical._euclid_cross's minors of three rows on each three of four columns.
MINORS = ([(rows, None) for k in range(1, 5) for rows in itertools.combinations(range(4), k)]
          + [((0, 1, 2), cols) for cols in itertools.combinations(range(4), 3)])


@given(COEFFS)
@settings(max_examples=30, deadline=None)
def test_minor_matches_cofactor_recursion(c):
    """jets.minor forms each sub-minor once, where the plain recursion
    (oracles.cofactor_minor) forms it again wherever it recurs; the products
    and sums are the same, so the two agree bit for bit on values and jets."""
    for rows, cols in MINORS:
        assert np.array_equal(jets.minor(c[0], rows, cols), cofactor_minor(c[0], rows, cols))
        assert np.array_equal(jets.minor(Jet3(c), rows, cols).c,
                              cofactor_minor(Jet3(c), rows, cols).c)
    assert np.array_equal(jets.det4(c[0]), cofactor_minor(c[0], (0, 1, 2, 3)))
    assert np.array_equal(jets.det4(Jet3(c)).c, cofactor_minor(Jet3(c), (0, 1, 2, 3)).c)
    assert jets.minor(c[0], ()) == 1.0
