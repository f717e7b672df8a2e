from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curv4 import charts, forms, jets, presets, scenario, verify
from curv4 import expr as ex
from curv4.charts import Geometry, conformal_chart, curvature_at, sample_box
from curv4.forms import TwoFormField

RNG = np.random.default_rng(31)


@pytest.fixture(scope="module")
def cp2():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 8, seed=2)
    return chart, pts, Geometry.of_chart(chart, pts)


def test_star_examples_and_involution():
    f = RNG.normal(size=(40, 6))
    st = forms.hodge_star_frame(f)
    assert np.allclose(forms.hodge_star_frame(st), f)
    assert np.allclose(np.sum(st**2, -1), np.sum(f**2, -1))  # isometry, exact
    e = np.eye(6)
    assert np.allclose(forms.hodge_star_frame(e[0]), e[5])    # w12 -> w34
    assert np.allclose(forms.hodge_star_frame(e[1]), -e[4])   # w13 -> -w24
    assert np.allclose(forms.hodge_star_frame(e[2]), e[3])    # w14 -> w23


def test_volume_pairing_oracle(cp2):
    """phi ^ *psi = <phi, psi> vol fixes every star sign."""
    _, _, geom = cp2
    av, bv = RNG.normal(size=(2, 8, 6))
    vol = geom.sqrt_det_jet.value
    sv = forms.star_coord(forms.raised_pairs(geom.ginv_values, bv), vol[:, None]).T
    av = av.T
    wedge = (av[0] * sv[5] - av[1] * sv[4] + av[2] * sv[3]
             + av[3] * sv[2] - av[4] * sv[1] + av[5] * sv[0])
    inner = forms.inner_values(geom.ginv_values, av.T, bv)
    assert np.max(np.abs(wedge - inner * vol)) < 1e-12


def _frame_fg(f6):
    """forms.fg_values on orthonormal-frame components: g^-1 = I, sqrt(det g) = 1."""
    return forms.fg_values(np.eye(4), f6, 1.0)


def test_sd_split_contract():
    lam = np.array([3.0, 1.0])
    f = np.zeros(6)
    f[0], f[5] = lam
    F, G, size = _frame_fg(f)
    assert F == pytest.approx((lam[0] + lam[1])**2)
    assert G == pytest.approx((lam[0] - lam[1])**2)
    assert size == pytest.approx(np.sum(lam**2) + 2.0 * lam[0] * lam[1])
    e12 = np.eye(6)[0]
    F, G, _ = _frame_fg(e12)
    assert F == pytest.approx(1.0) and G == pytest.approx(1.0)
    # self-dual input: G = 0 and *phi+ = phi+
    sd = e12 + np.eye(6)[5]
    assert _frame_fg(sd)[1] == pytest.approx(0.0)
    out = oracles.sd_split_frame(sd)
    assert np.allclose(forms.hodge_star_frame(out["plus"]), out["plus"], atol=1e-12)
    assert np.allclose(forms.hodge_star_frame(out["minus"]), -out["minus"], atol=1e-12)
    # F = |phi+|^2/2 and G = |phi-|^2/2, and F - G is twice the written-out
    # *(phi^phi) = 2 (f12 f34 - f13 f24 + f14 f23): the star's sign convention
    f = RNG.normal(size=(200, 6))
    F, G, size = _frame_fg(f)
    out = oracles.sd_split_frame(f)
    tol = 1e-14 * np.max(size)
    assert np.max(np.abs(F - out["F"])) <= tol and np.max(np.abs(G - out["G"])) <= tol
    assert np.max(np.abs(F - G - 2.0 * out["wedge"])) <= tol


def test_fg_values_frame_invariant(cp2):
    """F and G from coordinate components, g^-1 and sqrt(det g) are F and G of
    the orthonormal-frame components."""
    chart, pts, geom = cp2
    c6 = RNG.normal(size=(len(pts), 6))
    F, G, size = forms.fg_values(geom.ginv_values, c6,
                                 charts.sqrt_det_values(geom.g_values))
    Ff, Gf, sizef = _frame_fg(forms.frame_components(geom.frame, c6))
    tol = 1e-13 * np.max(size)
    assert np.max(np.abs(F - Ff)) <= tol and np.max(np.abs(G - Gf)) <= tol
    assert np.max(np.abs(size - sizef)) <= tol


def test_fg_nonnegative_and_product_zero_iff_sd():
    f = RNG.normal(size=(200, 6))
    F, G, _ = _frame_fg(f)
    assert np.all(F >= 0) and np.all(G >= 0)
    F2, G2, _ = _frame_fg(f + forms.hodge_star_frame(f))
    assert np.max(np.abs(G2)) < 1e-12 * np.max(F2)


def test_d_squared_zero(cp2):
    chart, pts, _ = cp2
    alpha = [ex.eval_jet(ex.parse(s), pts) for s in
             ("sin(x1)*x2", "cos(x3) + x4^2", "x1*x4", "exp(0.3*x2)")]
    d_alpha = oracles.exterior_d({(i,): a for i, a in enumerate(alpha)}, 1)
    dd = forms.exterior_d2_jets(np.stack([d_alpha[p].c for p in forms.PAIRS], axis=-1))
    assert np.max(np.abs(dd[0])) < 1e-10


def test_flat_hand_calculus():
    chart = presets.flat_t4()
    pts = sample_box(chart.domain, 10, seed=3)
    geom = Geometry.of_chart(chart, pts)
    c6 = np.zeros((jets.NCOEFF, 10, 6))
    c6[..., 3] = ex.eval_jet(ex.parse("sin(x1)"), pts).c  # phi = sin(x1) dx2^dx3
    dphi = forms.exterior_d2_jets(c6)  # on TRIPLES (012), (013), (023), (123)
    assert np.max(np.abs(dphi[0, :, 0] - np.cos(pts[:, 0]))) < 1e-10
    assert np.max(np.abs(dphi[0, :, 1:])) < 1e-14
    delta, _ = forms.codiff_two_form_jets(geom, c6)
    assert np.max(np.abs(delta)) < 1e-10
    hodge = forms.hodge_laplacian_values(geom, c6)
    assert np.max(np.abs(hodge[:, 3] - np.sin(pts[:, 0]))) < 1e-10


def test_parallel_forms_product_and_kaehler():
    chart = presets.product_s2s2(1.0, 1.0)
    pts = sample_box(chart.domain, 10, seed=4)
    geom = Geometry.of_chart(chart, pts)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    c6 = fld.component_jets(pts)
    T = forms.nabla_two_form_jets(geom, c6)
    assert forms.nabla_norm_sq_values(geom.ginv_values, T[0]).max() < 1e-18
    dphi = forms.exterior_d2_jets(c6)
    assert np.max(np.abs(dphi[0])) < 1e-10
    delta, _ = forms.codiff_two_form_jets(geom, c6)
    assert np.max(np.abs(delta)) < 1e-10

    cp2_chart = presets.cp2_fubini_study()
    pts2 = sample_box(cp2_chart.domain, 10, seed=5)
    geom2 = Geometry.of_chart(cp2_chart, pts2)
    kf = TwoFormField(cp2_chart, presets.form_preset("kaehler", cp2_chart))
    c6k = kf.component_jets(pts2)
    Tk = forms.nabla_two_form_jets(geom2, c6k)
    assert forms.nabla_norm_sq_values(geom2.ginv_values, Tk[0]).max() < 1e-9
    hodge = forms.hodge_laplacian_values(geom2, c6k)
    assert np.max(np.abs(hodge)) < 1e-8


def test_weitzenboeck_identity_independent_paths(cp2):
    chart, pts, geom = cp2
    comps = {k: f"{RNG.uniform(-0.4, 0.4):.3f}*sin(x{RNG.integers(1, 5)})"
                f"*cos(x{RNG.integers(1, 5)}) + {RNG.uniform(-0.3, 0.3):.3f}"
             for k in forms.PAIR_KEYS}
    fld = TwoFormField(chart, comps)
    c6 = fld.component_jets(pts)
    slate = curvature_at(chart, pts)
    f6 = forms.frame_components(slate.frame, c6[0])
    hodge = forms.frame_components(slate.frame, forms.hodge_laplacian_values(geom, c6))
    rough = forms.frame_components(slate.frame, forms.rough_laplacian_values(geom, c6))
    qR = forms.curvature_action_frame(slate.M, slate.Ric, f6)
    assert np.max(np.abs(hodge + rough - qR)) < 1e-12


def test_conformal_star_invariance_and_codiff_scaling():
    base = presets.product_s2s2(1.0, 1.0)
    f_src = "0.2*sin(x1)*sin(x3)"
    conf = conformal_chart(base, f_src)
    pts = sample_box(base.domain, 10, seed=6)
    g1 = Geometry.of_chart(base, pts)
    g2 = Geometry.of_chart(conf, pts)
    c6 = np.stack([ex.eval_jet(ex.parse(s), pts).c for s in
                   ("sin(x1)*x2 + 1", "x3", "0.5", "cos(x4)", "x1*x3", "2")], axis=-1)
    s1, s2 = forms.star_jets(g1, c6), forms.star_jets(g2, c6)
    # * on 2-forms is conformally invariant (machine precision)
    assert np.max(np.abs(s1[0] - s2[0])) < 1e-12
    # delta' phi = e^{-2f} delta phi
    d1, _ = forms.codiff_two_form_jets(g1, c6)
    d2, _ = forms.codiff_two_form_jets(g2, c6)
    scale = np.exp(-2.0 * ex.eval_values(ex.parse(f_src), pts))
    err = np.max(np.abs(d2 - scale[:, None] * d1))
    assert err < 1e-9


def test_harmonicity_conformally_invariant():
    base = presets.product_s2s2(1.0, 1.0)
    conf = conformal_chart(base, "0.1*sin(x1)*cos(x3)")
    pts = sample_box(base.domain, 12, seed=7)
    fld = TwoFormField(conf, presets.form_preset("factor_volume_1", conf))
    c6 = fld.component_jets(pts)
    geom = Geometry.of_chart(conf, pts)
    assert np.max(np.abs(forms.hodge_laplacian_values(geom, c6))) < 1e-8


def test_classical_kato_everywhere():
    base = presets.product_s2s2(1.0, 1.0)
    conf = conformal_chart(base, "0.15*sin(x1)*cos(x3)")
    pts = sample_box(conf.domain, 300, seed=8)
    b = verify.PointBundle(conf, TwoFormField(conf, presets.form_preset("factor_volume_1", conf)),
                           pts)
    norm, _, dnorm_sq = b.abs_phi
    rho, admitted = verify.kato_ratio(b.grad_sq, norm, dnorm_sq, float(np.max(norm)), 1e-8)
    assert admitted.all()
    assert np.min(rho) >= 1.0 - 1e-9


def test_scalar_laplacian_flat():
    chart = presets.flat_t4()
    pts = sample_box(chart.domain, 15, seed=10)
    geom = Geometry.of_chart(chart, pts)
    u = ex.eval_jet(ex.parse("sin(x1)*cos(x2)"), pts)
    lap = forms.scalar_laplacian_values(geom, u)
    assert np.max(np.abs(lap + 2.0 * u.value)) < 1e-12
    # Delta(h^2) = 2 h Delta h + 2 |dh|^2 fixes the function-Laplacian sign
    lap_sq = forms.scalar_laplacian_values(geom, u * u)
    grad_sq = forms.grad_inner_values(geom, u, u)
    assert np.max(np.abs(lap_sq - 2.0 * u.value * lap - 2.0 * grad_sq)) < 1e-12


def test_rough_laplacian_constant_flat():
    chart = presets.flat_t4()
    pts = sample_box(chart.domain, 5, seed=11)
    geom = Geometry.of_chart(chart, pts)
    c6 = np.zeros((jets.NCOEFF, 5, 6))
    c6[0] = RNG.normal(size=6)
    assert np.max(np.abs(forms.rough_laplacian_values(geom, c6))) < 1e-14
    assert np.max(np.abs(forms.hodge_laplacian_values(geom, c6))) < 1e-14


def test_two_form_field_parsing():
    chart = presets.flat_t4()
    fld = TwoFormField(chart, {"12": "sin(x1)", "34": "1"})
    assert isinstance(fld.components[0], ex.Call)
    assert ex.constant_value(fld.components[5]) == 1.0
    assert ex.constant_value(fld.components[1]) == 0.0


def test_pointwise_algebra_same_on_values_and_jets(cp2):
    """*phi and |phi|^2 run on stacked jets (forms.star_jets, the raised form)
    and on values (forms.star_coord, forms.inner_values); the values path
    equals the values of the jets path."""
    chart, pts, geom = cp2
    fld = TwoFormField(chart, presets.form_preset("random_analytic", chart, seed=3))
    c6 = fld.component_jets(pts)
    gi, phi = geom.ginv_values, c6[0]
    star_v = forms.star_coord(forms.raised_pairs(gi, phi), geom.sqrt_det_jet.value[:, None])
    star_j = forms.star_jets(geom, c6)[0]
    assert np.max(np.abs(star_j - star_v)) <= 1e-14 * np.max(np.abs(star_v))
    nsq = forms.inner_values(gi, phi, phi)
    assert np.allclose(forms.norm_sq_jet(forms.raised_jets(geom, c6)).value, nsq,
                       rtol=1e-14, atol=0)
    # |nabla phi|^2 against the contraction g^ab <T_a, T_b>
    T = forms.nabla_two_form_values(geom, c6)
    T6 = forms.pair_components_values(T)
    ref = sum(gi[:, a, b] * forms.inner_values(gi, T6[:, a], T6[:, b])
              for a in range(4) for b in range(4))
    got = forms.nabla_norm_sq_values(gi, T)
    assert np.allclose(got, ref, rtol=1e-13, atol=0)


SCENARIO_FILES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
# six trig terms plus a constant: a nowhere-degenerate, not harmonic 2-form
FORM_TERMS = st.lists(oracles.TRIG_TERM, min_size=6, max_size=6)


def _trig_form(chart, terms):
    return TwoFormField(chart, [f"{a:.6f}*{fn}({f}*x{v}) + 0.3" for a, fn, f, v in terms])


def _assert_hodge_matches_star_d_star(geom, c6):
    """forms.hodge_laplacian_values (through Gamma, d Gamma and nabla phi)
    against oracles.hodge_laplacian (d delta + delta d, delta = -*d*, from the
    Lambda^k minors of g^-1 and sqrt(g) alone) within 1e-12 of the largest jet
    coefficient of phi; the worst seen on the shipped scenarios is 7.3e-14 of
    it (round_s4_random), on near-flat metrics 1.8e-15."""
    err = np.max(np.abs(forms.hodge_laplacian_values(geom, c6)
                        - oracles.hodge_laplacian(oracles.entries(geom.gc), c6)))
    assert err <= 1e-12 * np.max(np.abs(c6)), err


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_hodge_laplacian_matches_star_d_star_oracle(path):
    sc = scenario.load(path)
    chart = sc.build_chart()
    pts = sc.points(chart)
    _assert_hodge_matches_star_d_star(Geometry.of_chart(chart, pts),
                                      sc.build_field(chart).component_jets(pts))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_fg_jets_value_slot_is_fg_values(path):
    """The value slots of the jets of |phi|^2, F and G are forms.fg_values'
    arithmetic on the values bit for bit: the graded product forms its value
    slot as the op of the two values alone."""
    sc = scenario.load(path)
    chart = sc.build_chart()
    b = verify.PointBundle(chart, sc.build_field(chart), sc.points(chart), sc.tols)
    A = b.geom.ginv_values @ forms.full_matrix_values(b.phi)
    assert np.array_equal(b.norm_sq_jet.value, -0.5 * forms._TRACE_AB(A, A))
    F, G, _ = b.fg
    assert np.array_equal(b.fg_jets[0].value, F) and np.array_equal(b.fg_jets[1].value, G)


@given(oracles.NEAR_FLAT_TERMS, FORM_TERMS)
@settings(max_examples=20, deadline=None)
def test_hodge_laplacian_matches_star_d_star_oracle_near_flat(terms, form_terms):
    chart = oracles.near_flat_chart(terms)
    pts = sample_box(chart.domain, 8, seed=43)
    _assert_hodge_matches_star_d_star(Geometry.of_chart(chart, pts),
                                      _trig_form(chart, form_terms).component_jets(pts))


@given(oracles.NEAR_FLAT_TERMS, FORM_TERMS)
@settings(max_examples=25, deadline=None)
def test_second_order_kernels_match_einsum_oracles(terms, form_terms):
    """The slice-wise kernels (d Gamma, nabla phi and its first-order part, both
    codifferentials, the rough Laplacian, the jet inverse) against the einsum
    kernels they replaced (oracles.einsum_*), within 8 ulps of the largest
    entry of each result; the worst seen over 300 examples is 1.8 ulps
    (d delta), and most results are bit-identical."""
    chart = oracles.near_flat_chart(terms)
    pts = sample_box(chart.domain, 8, seed=44)
    geom = Geometry.of_chart(chart, pts)
    c6 = _trig_form(chart, form_terms).component_jets(pts)
    T = forms.nabla_two_form_jets(geom, c6)
    w = forms.exterior_d2_jets(c6)
    pairs = [(jets.mat_inverse(geom.gc), oracles.einsum_inverse_coeffs(geom.gc)),
             (np.stack([geom.dgamma_slice(a) for a in range(4)], axis=-4),
              oracles.einsum_dgamma(geom)),
             *zip(T, oracles.einsum_nabla_two_form_jets(geom, c6)),
             *zip(forms.codiff_two_form_jets(geom, c6, T),
                  oracles.einsum_codiff_two_form_jets(geom, T)),
             (forms.codiff_three_form_values(geom, w),
              oracles.einsum_codiff_three_form_values(geom, w)),
             (forms.rough_laplacian_values(geom, c6, T),
              oracles.einsum_rough_laplacian_values(geom, T))]
    for k, (new, old) in enumerate(pairs):
        assert np.max(np.abs(new - old)) <= 8 * np.finfo(float).eps * np.max(np.abs(old)), k
    assert np.array_equal(forms.nabla_two_form_values(geom, c6), T[0])


def _assert_lambda2_matches_nested_q(geom, c6, ulps):
    """Every Lambda^2 quantity from the raised form A = g^-1 Phi against the
    nested 6x6 metric Q it replaced (oracles.lambda2_metric and its sums over
    entry jets), within `ulps` ulps of the largest coefficient of each result:
    the jets of |phi|^2 and of *phi, *phi's values, <phi, Delta phi> and
    |nabla phi|^2.  Both sum the same products in different orders."""
    eps = np.finfo(float).eps
    gi = oracles.entries(jets.mat_inverse(geom.gc, geom.pts))
    Q = oracles.lambda2_metric(gi)
    ginv, phi = geom.ginv_values, c6[0]
    pairs6 = oracles.pair_jets(c6)
    T = forms.nabla_two_form_values(geom, c6)
    hodge = forms.hodge_laplacian_values(geom, c6)
    Qv = oracles.entry_values(Q)
    pairs = [(forms.norm_sq_jet(forms.raised_jets(geom, c6)).c,
              oracles.inner_lambda2(Q, pairs6, pairs6).c),
             (forms.star_jets(geom, c6),
              np.stack([u.c for u in oracles.star_coord(gi, geom.sqrt_det_jet, pairs6, Q)], -1)),
             (forms.star_coord(forms.raised_pairs(ginv, phi), geom.sqrt_det_jet.value[:, None]),
              np.stack([u.value for u in oracles.star_coord(gi, geom.sqrt_det_jet, pairs6, Q)],
                       -1)),
             (forms.inner_values(ginv, phi, hodge), oracles.inner_lambda2(Qv, phi.T, hodge.T)),
             (forms.nabla_norm_sq_values(ginv, T), oracles.nabla_norm_sq_values(gi, T, Qv))]
    for k, (new, old) in enumerate(pairs):
        assert np.max(np.abs(new - old)) <= ulps * eps * np.max(np.abs(old)), k


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
def test_lambda2_matches_nested_q_oracles(path):
    """128 ulps on the shipped scenarios: near the poles of S^2 x S^2 the
    entries of g^-1 reach 4e3 against |phi|^2 of order 1, and the two orders
    of summation cancel differently (worst seen 80 ulps, the jets of *phi on
    conformal_product)."""
    sc = scenario.load(path)
    chart = sc.build_chart()
    pts = sc.points(chart)
    _assert_lambda2_matches_nested_q(Geometry.of_chart(chart, pts),
                                     sc.build_field(chart).component_jets(pts), 128)


@given(oracles.NEAR_FLAT_TERMS, FORM_TERMS)
@settings(max_examples=25, deadline=None)
def test_lambda2_matches_nested_q_oracles_near_flat(terms, form_terms):
    """8 ulps on near-flat metrics (worst seen over 300 examples 4.2 ulps)."""
    chart = oracles.near_flat_chart(terms)
    pts = sample_box(chart.domain, 8, seed=45)
    _assert_lambda2_matches_nested_q(Geometry.of_chart(chart, pts),
                                     _trig_form(chart, form_terms).component_jets(pts), 8)
