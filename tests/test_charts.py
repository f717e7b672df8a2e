import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from curv4 import charts, forms, presets, scenario
from curv4 import expr as ex
from curv4.charts import (ChartError, Geometry, conformal_chart, curvature_at,
                          normal_chart, normal_chart_map, pullback_two_form, sample_box,
                          sectional, validate_chart)
from curv4.forms import TwoFormField
from curv4.jets import Jet3

from oracles import (NEAR_FLAT_TERMS, complex_space_form_R, constant_curvature_R,
                     cp2_complex_structure, derivative, entries, near_flat_chart, op6, ricci_R,
                     riemann_coord, rotate_R, scipy_halton_permutations, splitmix64, unpack_R)

RNG = np.random.default_rng(42)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def cp2_slate():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 12, seed=4)
    return chart, curvature_at(chart, pts)


def test_flat_curvature_zero():
    chart = presets.flat_t4()
    pts = sample_box(chart.domain, 6, seed=1)
    slate = curvature_at(chart, pts)
    assert np.max(np.abs(slate.M)) < 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_round_sphere_sectional(r):
    chart = presets.round_s4(r)
    pts = sample_box(chart.domain, 10, seed=2)
    slate = curvature_at(chart, pts)
    for _ in range(20):
        u, v = RNG.normal(size=4), RNG.normal(size=4)
        assert np.max(np.abs(sectional(slate, u, v) - 1.0 / r**2)) < 1e-8
    assert np.max(np.abs(slate.scal - 12.0 / r**2)) < 1e-8
    assert np.max(np.abs(unpack_R(slate.M) - constant_curvature_R(1.0 / r**2))) < 1e-9


def test_slate_symmetries_and_bianchi(cp2_slate):
    _, slate = cp2_slate
    R = unpack_R(slate.M)
    assert np.max(np.abs(R + np.swapaxes(R, 1, 2))) < 1e-9
    assert np.max(np.abs(R + np.einsum("nijkl->nijlk", R))) < 1e-9
    assert np.max(np.abs(R - np.einsum("nijkl->nklij", R))) < 1e-9
    bianchi = R + np.einsum("nijkl->niklj", R) + np.einsum("nijkl->niljk", R)
    assert np.max(np.abs(bianchi)) < 1e-9
    ric = np.einsum("nkikj->nij", R)
    assert np.max(np.abs(slate.Ric - ric)) < 1e-10
    assert np.max(np.abs(slate.Ric - np.swapaxes(slate.Ric, 1, 2))) < 1e-10


def test_cp2_matches_complex_space_form(cp2_slate):
    chart, slate = cp2_slate
    J0 = cp2_complex_structure()
    g = slate.geometry.g_values
    JE = np.einsum("ij,njb->nib", J0, slate.frame)
    Jab = np.einsum("nia,nij,njb->nab", JE, g, slate.frame, optimize=True)
    want = complex_space_form_R(Jab, c=4.0)
    assert np.max(np.abs(unpack_R(slate.M) - want)) < 1e-7


def test_cp2_sec_range(cp2_slate):
    _, slate = cp2_slate
    secs = []
    for _ in range(300):
        u, v = RNG.normal(size=4), RNG.normal(size=4)
        secs.append(sectional(slate, u, v))
    secs = np.concatenate(secs) if isinstance(secs[0], np.ndarray) else np.array(secs)
    assert np.all(secs > 1.0 - 1e-8) and np.all(secs < 4.0 + 1e-8)


def test_product_mixed_planes_flat():
    chart = presets.product_s2s2(1.0, 1.0)
    pts = sample_box(chart.domain, 8, seed=3)
    slate = curvature_at(chart, pts)
    e = np.eye(4)
    assert np.max(np.abs(sectional(slate, e[0], e[2]))) < 1e-10
    assert np.max(np.abs(sectional(slate, e[0], e[1]) - 1.0)) < 1e-10
    assert np.max(np.abs(sectional(slate, e[2], e[3]) - 1.0)) < 1e-10


def test_sectional_plane_dependence_only(cp2_slate):
    _, slate = cp2_slate
    u, v = RNG.normal(size=4), RNG.normal(size=4)
    s1 = sectional(slate, u, v)
    s2 = sectional(slate, v, u)
    s3 = sectional(slate, u, v + 0.3 * u)
    assert np.max(np.abs(s1 - s2)) < 1e-10
    assert np.max(np.abs(s1 - s3)) < 1e-10


def test_sectional_degenerate_plane_rejected(cp2_slate):
    _, slate = cp2_slate
    u = RNG.normal(size=4)
    with pytest.raises(ChartError):
        sectional(slate, u, 2.0 * u)


def test_exterior_point_named_in_plain_floats():
    chart = presets.round_s4(1.0)
    pts = np.array([[0.5, 0.5, 0.5, 0.5], [1.25, 0.5, 0.5, 0.5]])
    with pytest.raises(ChartError, match=r"point \(1\.25, 0\.5, 0\.5, 0\.5\) not interior"):
        curvature_at(chart, pts)


def test_christoffel_polar_oracle():
    chart = presets.product_s2s2(1.0, 1.0)
    pts = sample_box(chart.domain, 8, seed=5)
    G = Geometry.of_chart(chart, pts).gamma_values
    t = pts[:, 0]
    assert np.max(np.abs(G[:, 0, 1, 1] + np.sin(t) * np.cos(t))) < 1e-12
    assert np.max(np.abs(G[:, 1, 0, 1] - np.cos(t) / np.sin(t))) < 1e-12
    assert np.max(np.abs(G - np.swapaxes(G, 2, 3))) == 0.0


def test_conformal_christoffel_identity():
    f_src = "0.1*sin(x1)*cos(x2) + 0.05*x3"
    chart = conformal_chart(presets.flat_t4(), f_src)
    pts = sample_box(chart.domain, 8, seed=6)
    G = Geometry.of_chart(chart, pts).gamma_values
    df = ex.eval_jet(ex.parse(f_src), pts).grad()
    d = np.eye(4)
    want = (np.einsum("ij,nk->nijk", d, df) + np.einsum("ik,nj->nijk", d, df)
            - np.einsum("jk,ni->nijk", d, df, optimize=True))
    assert np.max(np.abs(G - want)) < 1e-12


# The bound of the curvature operator against the 4-index oracle, relative to
# max|M|: the two differ only in the order of their sums.
OPERATOR_REL_TOL = 1e-14


@given(NEAR_FLAT_TERMS)
@settings(max_examples=25, deadline=None)
def test_curvature_operator_matches_four_index_oracle(terms):
    """On random near-flat periodic metrics (oracles.near_flat_chart) the
    coordinate and frame curvature operators, Ric, scal and both Bianchi
    contractions match the 4-index oracle: riemann_coord, then the four-pass
    rotation into the frame.  Bianchi: for a 2-form f, sum_jp R_ajpb f_pj
    (Weitzenboeck) and sum_pq R_kplq f_pq (Eq 2.2) both equal (M f)_(ab)."""
    chart = near_flat_chart(terms)
    geom = Geometry.of_chart(chart, sample_box(chart.domain, 16, seed=41))
    slate = curvature_at(geom)
    R_coord = riemann_coord(geom)
    R = rotate_R(R_coord, slate.frame)
    Ric, scal = ricci_R(R)
    f6 = charts.normals(42, charts.FORM, (16, 6))
    Phi = forms.full_matrix_values(f6)
    Mf = (slate.M @ f6[..., None])[..., 0]
    weitzenboeck = forms.pair_components_values(np.einsum("najpb,npj->nab", R, Phi))
    eq22 = forms.pair_components_values(np.einsum("nkplq,npq->nkl", R, Phi))

    def close(got, want, scale):
        return np.max(np.abs(got - want)) <= OPERATOR_REL_TOL * scale

    Mc = geom.curvature_operator
    assert close(Mc, op6(R_coord), np.max(np.abs(Mc)))
    scale = np.max(np.abs(slate.M))
    assert close(slate.M, op6(R), scale)
    assert close(slate.Ric, Ric, 3.0 * scale)
    assert close(slate.scal, scal, 12.0 * scale)
    f_max = np.max(np.abs(f6))
    assert close(Mf, weitzenboeck, 6.0 * scale * f_max)
    assert close(Mf, eq22, 6.0 * scale * f_max)


def test_dgamma_matches_central_differences():
    """d_a Gamma from the closed form against central differences of Gamma on
    the perturbed torus metric, which has an off-diagonal entry."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "perturbed_t4_n8.json"
    metric = json.loads(path.read_text())["grid"]["metric"]
    chart = charts.chart_from_strings(metric, [(0.0, 2.0 * np.pi)] * 4)
    pts = sample_box(chart.domain, 8, seed=9)
    geom = Geometry.of_chart(chart, pts)
    assert max(np.max(np.abs(geom.dgamma_slice(a))) for a in range(4)) > 1e-2
    h = 1e-4
    for a in range(4):
        step = h * np.eye(4)[a]
        fd = (Geometry.of_chart(chart, pts + step).gamma_values
              - Geometry.of_chart(chart, pts - step).gamma_values) / (2.0 * h)
        assert np.max(np.abs(geom.dgamma_slice(a) - fd)) < 1e-9, a


def test_metric_compatibility():
    """Jet derivative of <V,W> equals <DV,W> + <V,DW> along coordinates."""
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 6, seed=7)
    geom = Geometry.of_chart(chart, pts)
    rng = np.random.default_rng(8)
    vc = rng.normal(size=4)
    wc = rng.normal(size=4)
    env = [Jet3.variable(i, pts[:, i]) for i in range(4)]
    V = [vc[i] + 0.3 * env[(i + 1) % 4] for i in range(4)]
    W = [wc[i] - 0.2 * env[(i + 2) % 4] for i in range(4)]
    g = entries(geom.gc)
    gam = geom.gamma_values  # gam[n, i, a, k] = Gamma^i_{ak}

    def inner(A, B):
        acc = None
        for i in range(4):
            for j in range(4):
                t = A[i] * g[i][j] * B[j]
                acc = t if acc is None else acc + t
        return acc

    lhs = inner(V, W).grad()  # d_a <V, W>
    Vv = np.stack([x.value for x in V], -1)
    Wv = np.stack([x.value for x in W], -1)
    dV = np.stack([x.grad() for x in V], 1)  # (n, i, a)
    dW = np.stack([x.grad() for x in W], 1)
    gv = geom.g_values
    # (nabla_a V)^i = d_a V^i + Gamma^i_{ak} V^k
    covV = np.einsum("nia->nai", dV) + np.einsum("niak,nk->nai", gam, Vv)
    covW = np.einsum("nia->nai", dW) + np.einsum("niak,nk->nai", gam, Wv)
    rhs = (np.einsum("nai,nij,nj->na", covV, gv, Wv, optimize=True)
           + np.einsum("ni,nij,naj->na", Vv, gv, covW, optimize=True))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_frame_choice_independence():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 5, seed=9)
    s1 = curvature_at(chart, pts)
    # random orthonormal frames from QR of the GS frame times random rotations
    rng = np.random.default_rng(10)
    from scipy.stats import special_ortho_group

    Q = special_ortho_group.rvs(4, size=len(pts), random_state=11)
    E2 = np.einsum("nij,njk->nik", s1.frame, Q)
    s2 = curvature_at(chart, pts, frame=E2)
    assert np.max(np.abs(s1.scal - s2.scal)) < 1e-10
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    # the same geometric plane has components rotated by Q^T in the new frame
    u2 = np.einsum("nij,j->ni", np.swapaxes(Q, 1, 2), u)
    v2 = np.einsum("nij,j->ni", np.swapaxes(Q, 1, 2), v)
    assert np.max(np.abs(sectional(s1, u, v) - sectional(s2, u2, v2))) < 1e-10


def test_chart_independence_sphere():
    """S4 in two stereographic charts: sec agrees at a shared point."""
    north = presets.round_s4(1.0)
    pts = np.array([[0.2, 0.1, 0.15, 0.05]])
    s1 = curvature_at(north, pts)
    # the antipodal chart x -> x/|x|^2 covers the same point set
    sub = [ex.parse(f"x{i + 1} / (x1^2 + x2^2 + x3^2 + x4^2)") for i in range(4)]
    g2 = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            g2[i][j] = ex.substitute(north.g[i][j], sub)
    # pull back with the Jacobian of the inversion, assembled as expressions
    r2 = ex.parse("x1^2 + x2^2 + x3^2 + x4^2")
    jac = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for a in range(4):
            delta = ex.num(1.0 if i == a else 0.0)
            term = ex.Bin("/", ex.Bin("-", ex.mul(delta, r2),
                                      ex.mul(ex.num(2.0),
                                             ex.mul(ex.Var(i), ex.Var(a)))),
                          ex.Bin("^", r2, ex.num(2.0)))
            jac[i][a] = term
    gp = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            acc = None
            for i in range(4):
                for j in range(4):
                    t = ex.mul(ex.mul(jac[i][a], jac[j][b]), g2[i][j])
                    acc = t if acc is None else ex.add(acc, t)
            gp[a][b] = acc
    inv_chart = charts.MetricChart(tuple(tuple(row) for row in gp),
                                   ((0.01, 5.0),) * 4, "s4_inverted")
    q = pts[0]
    q2 = q / np.dot(q, q)
    s2 = curvature_at(inv_chart, q2[None, :])
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert abs(float(sectional(s1, u, v)[0]) - 1.0) < 1e-8
        assert abs(float(sectional(s2, u, v)[0]) - 1.0) < 1e-8


def _normal_chart(chart, P, B):
    return normal_chart(chart, normal_chart_map(Geometry.of_chart(chart, np.atleast_2d(P)), B))


def test_normal_chart_properties():
    chart = presets.cp2_fubini_study()
    p = np.array([0.21, -0.33, 0.11, 0.4])
    slate = curvature_at(chart, p[None, :])
    geom = _normal_chart(chart, p, slate.frame[0])
    assert np.max(np.abs(geom.g_values[0] - np.eye(4))) < 1e-12
    assert np.max(np.abs(geom.gamma_values[0])) < 1e-9
    # curvature reconstruction from second metric derivatives
    d2g = np.empty((4, 4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    a = [0, 0, 0, 0]
                    a[k] += 1
                    a[l] += 1
                    d2g[i, j, k, l] = derivative(Jet3(geom.gc[..., i, j]), a)[0]
    rec = 0.5 * (np.einsum("iljk->ijkl", d2g) + np.einsum("jkil->ijkl", d2g)
                 - np.einsum("jlik->ijkl", d2g) - np.einsum("ikjl->ijkl", d2g))
    assert np.max(np.abs(rec - unpack_R(slate.M[0]))) < 1e-7


def test_normal_chart_flat_translation():
    chart = presets.flat_t4()
    p = np.array([1.0, 2.0, 3.0, 1.5])
    geom = _normal_chart(chart, p, np.eye(4))
    assert np.max(np.abs(geom.gamma_values)) == 0.0


def test_normal_chart_rejects_bad_basis():
    chart = presets.round_s4(1.0)
    with pytest.raises(ChartError, match="orthonormal"):
        _normal_chart(chart, np.zeros(4), np.eye(4) * 1.5)


def test_round_sphere_normal_gamma():
    chart = presets.round_s4(1.0)
    pts = sample_box(chart.domain, 3, seed=12)
    for n in range(len(pts)):
        slate = curvature_at(chart, pts[n][None, :])
        geom = _normal_chart(chart, pts[n], slate.frame[0])
        assert np.max(np.abs(geom.gamma_values)) < 1e-9


def _normal_chart_arrays(chart, fld, P, B):
    xj = normal_chart_map(Geometry.of_chart(chart, np.atleast_2d(P)), B)
    geom = normal_chart(chart, xj)
    pulled = pullback_two_form(fld.components, xj)
    return [np.moveaxis(geom.gc, 0, -1), np.moveaxis(pulled, 0, -1),
            np.stack([geom.dgamma_slice(a) for a in range(4)], axis=1)]


def test_normal_chart_batch_equals_single_points():
    """N points in one call give what N one-point calls give."""
    chart = conformal_chart(presets.product_s2s2(1.0, 1.0), "0.1*sin(x1)*cos(x3)")
    fld = TwoFormField(chart, presets.form_preset("factor_volume_1", chart))
    pts = sample_box(chart.domain, 5, seed=21)
    frames = curvature_at(chart, pts).frame
    batch = _normal_chart_arrays(chart, fld, pts, frames)
    for n in range(len(pts)):
        single = _normal_chart_arrays(chart, fld, pts[n], frames[n])
        for many, one in zip(batch, single):
            scale = max(float(np.max(np.abs(one))), 1.0)
            assert np.max(np.abs(many[n] - one[0])) <= 1e-13 * scale


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_metric_values_are_the_jets_value_row(name):
    """metric_values is row 0 of metric_jets on every shipped chart, bit for
    bit: g has one definition for values and jets."""
    sc = scenario.load(SCENARIOS / f"{name}.json")
    for chart in [sc.build_chart()] + ([sc.grid_chart()] if sc.grid else []):
        pts = sample_box(chart.domain, 512, seed=3)
        assert np.array_equal(charts.metric_values(chart, pts), charts.metric_jets(chart, pts)[0])


def test_validate_chart():
    assert validate_chart(presets.cp2_fubini_study())
    bad = charts.chart_from_strings(
        [["x1 - 3", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 1.0)] * 4, "indefinite")
    with pytest.raises(ChartError):
        validate_chart(bad)


def test_validate_chart_names_point():
    """The Sylvester check names a spot-check point where g11 = x1 - 0.5 < 0."""
    bad = charts.chart_from_strings(
        [["x1 - 0.5", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 1.0)] * 4, "half_indefinite")
    with pytest.raises(ChartError, match="not positive definite on half_indefinite at point") \
            as err:
        validate_chart(bad)
    point = [float(v) for v in str(err.value).split("(")[1].rstrip(")").split(",")]
    assert len(point) == 4 and point[0] < 0.5


def test_preset_conformal_zero_is_identity():
    base = presets.flat_t4()
    conf = conformal_chart(base, "0")
    pts = sample_box(base.domain, 5, seed=13)
    g1 = Geometry.of_chart(base, pts).g_values
    g2 = Geometry.of_chart(conf, pts).g_values
    assert np.max(np.abs(g1 - g2)) < 1e-15


def test_factor_volumes_read_radii_of_wrapped_product():
    chart = conformal_chart(presets.product_s2s2(2, 3), "0.1*sin(x1)*cos(x3)")
    assert chart.name == "conformal(product_s2s2(2,3))"
    comps = presets.form_preset("factor_volumes", chart)
    pts = sample_box(chart.domain, 7, seed=14)
    assert np.allclose(ex.eval_values(comps["12"], pts), 4.0 * np.sin(pts[:, 0]), rtol=1e-15)
    assert np.allclose(ex.eval_values(comps["34"], pts), 9.0 * np.sin(pts[:, 2]), rtol=1e-15)
    renamed = conformal_chart(presets.product_s2s2(2, 3), "0", name="s2_x_s2")
    comps = presets.form_preset("factor_volume_1", renamed)
    assert np.allclose(ex.eval_values(comps["12"], pts), 4.0 * np.sin(pts[:, 0]), rtol=1e-15)
    with pytest.raises(presets.PresetError):
        presets.form_preset("factor_volumes", conformal_chart(presets.flat_t4(), "0"))


def test_kaehler_reads_the_chart_preset_not_its_name():
    """The kaehler form needs a chart built by cp2_fubini_study (conformal
    charts keep the tag); a flat chart named like it is refused."""
    comps = presets.form_preset("kaehler", conformal_chart(presets.cp2_fubini_study(), "0",
                                                            name="renamed"))
    assert len(comps) == 6
    fake = charts.chart_from_strings(presets.flat_t4().g, [(-1.0, 1.0)] * 4, "my_cp2")
    with pytest.raises(presets.PresetError, match="kaehler"):
        presets.form_preset("kaehler", fake)


def test_sample_box_margins_and_count():
    dom = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (3.0, 4.0))
    pts = sample_box(dom, 100, margin=0.1, seed=5)
    assert pts.shape == (100, 4)
    for a, (lo, hi) in enumerate(dom):
        width = hi - lo
        assert np.all(pts[:, a] >= lo + 0.1 * width - 1e-12)
        assert np.all(pts[:, a] <= hi - 0.1 * width + 1e-12)
    assert np.allclose(pts, sample_box(dom, 100, margin=0.1, seed=5))


@pytest.mark.parametrize("seed", [0, 1, 5, 11, 2**31 - 1])
def test_sample_box_equals_scipy_halton(seed):
    """Given scipy's digit permutations, the in-house digit summation draws
    scipy's scrambled Halton points bit for bit; sample_box scales that
    summation of its own permutations."""
    from scipy.stats import qmc

    dom = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (3.0, 4.0))
    perms = scipy_halton_permutations(seed)
    for count in (1, 2, 7, 64, 100, 1024, 5000):
        want = qmc.Halton(d=4, scramble=True, seed=seed).random(count)
        assert np.array_equal(charts.scrambled_halton(count, perms), want)
        assert np.array_equal(sample_box(dom, count, margin=0.1, seed=seed),
                              charts._scale_to_box(dom, 0.1, charts.scrambled_halton(
                                  count, charts.digit_permutations(seed))))


def test_splitmix64_matches_reference():
    """The uint64-array SplitMix64 equals the Python-integer recurrence, and
    the reference outputs from state 1234567."""
    assert charts.splitmix64(1234567, 5).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    for state in (0, 1, 2**63 + 5, 2**64 - 1):
        assert charts.splitmix64(state, 300).tolist() == splitmix64(state, 300)


def test_uniforms_and_normals():
    """Uniforms lie in [0, 1), fill a shape in index order, and differ by seed
    and stream; the normals have mean 0 and variance 1 to sampling error."""
    u = charts.uniforms(5, charts.SPOT, 4000)
    assert u.dtype == float and np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(charts.uniforms(5, charts.SPOT, (1000, 4)).ravel(), u)
    assert abs(u.mean() - 0.5) < 0.02
    for other in (charts.uniforms(6, charts.SPOT, 4000), charts.uniforms(5, charts.PLANES, 4000)):
        assert not np.any(other == u)
    z = charts.normals(5, charts.PLANES, (2, 20000))
    assert z.shape == (2, 20000)
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.03


def test_sample_points_are_frozen():
    """The points are a fixed function of (seed, count): the first five of
    seed 7, exactly."""
    want = [
        ["0x1.d12487b2d5740p-1", "0x1.8a7ff80abac4ep-1", "0x1.80e3f6a0526f0p-1",
         "0x1.21646c112e0a7p-1"],
        ["0x1.a2490f65aae80p-2", "0x1.bfaa9ac020344p-2", "0x1.1a7d9039ec089p-1",
         "0x1.1e368efdc9cc1p-2"],
        ["0x1.512487b2d5740p-1", "0x1.a95515ab2b7c6p-4", "0x1.36c30db47cef0p-3",
         "0x1.b07fb39012f0bp-2"],
        ["0x1.44921ecb55d00p-3", "0x1.fc47147c81e15p-1", "0x1.e74a5d06b8d56p-1",
         "0x1.6a88fe5a529ccp-1"],
        ["0x1.912487b2d5740p-1", "0x1.519c69d1d736bp-1", "0x1.682e53a70b445p-2",
         "0x1.b3ad90a3772f0p-1"],
    ]
    got = charts.scrambled_halton(5, charts.digit_permutations(7))
    assert [[x.hex() for x in row] for row in got.tolist()] == want
    assert np.array_equal(sample_box(((0.0, 1.0),) * 4, 5, margin=0.0, seed=7), got)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_sample_points_stratify(seed):
    """In the axis of base b, the first b^k points fall one in each interval
    [j b^-k, (j + 1) b^-k): every digit permutation is a bijection."""
    u = charts.scrambled_halton(1024, charts.digit_permutations(seed))
    for axis, base in enumerate(charts.HALTON_BASES):
        k = 1
        while base**k <= len(u):
            strata = np.floor(u[:base**k, axis] * base**k).astype(int)
            assert np.array_equal(np.sort(strata), np.arange(base**k)), (base, k)
            k += 1


def test_interior_check():
    chart = presets.flat_t4()
    with pytest.raises(ChartError, match="interior"):
        curvature_at(chart, np.array([[0.0, 1.0, 1.0, 1.0]]))
