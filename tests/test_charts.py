import numpy as np
import pytest

from curv4 import charts, presets
from curv4 import expr as ex
from curv4.charts import (ChartError, Geometry, conformal_chart, curvature_at,
                          normal_chart, normal_chart_map, pullback_two_form, sample_box,
                          sectional, validate_chart)
from curv4.forms import TwoFormField

from oracles import complex_space_form_R, constant_curvature_R

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def cp2_slate():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 12, seed=4)
    return chart, curvature_at(chart, pts)


def test_flat_curvature_zero():
    chart = presets.flat_t4()
    pts = sample_box(chart.domain, 6, seed=1)
    slate = curvature_at(chart, pts)
    assert np.max(np.abs(slate.R)) < 1e-12


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_round_sphere_sectional(r):
    chart = presets.round_s4(r)
    pts = sample_box(chart.domain, 10, seed=2)
    slate = curvature_at(chart, pts)
    for _ in range(20):
        u, v = RNG.normal(size=4), RNG.normal(size=4)
        assert np.max(np.abs(sectional(slate, u, v) - 1.0 / r**2)) < 1e-8
    assert np.max(np.abs(slate.scal - 12.0 / r**2)) < 1e-8
    assert np.max(np.abs(slate.R - constant_curvature_R(1.0 / r**2))) < 1e-9


def test_slate_symmetries_and_bianchi(cp2_slate):
    _, slate = cp2_slate
    R = slate.R
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
    J0 = presets.cp2_complex_structure()
    g = slate.geometry.g_values
    JE = np.einsum("ij,njb->nib", J0, slate.frame)
    Jab = np.einsum("nia,nij,njb->nab", JE, g, slate.frame, optimize=True)
    want = complex_space_form_R(Jab, c=4.0)
    assert np.max(np.abs(slate.R - want)) < 1e-7


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


def test_metric_compatibility():
    """Jet derivative of <V,W> equals <DV,W> + <V,DW> along coordinates."""
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 6, seed=7)
    geom = Geometry.of_chart(chart, pts)
    rng = np.random.default_rng(8)
    vc = rng.normal(size=4)
    wc = rng.normal(size=4)
    from curv4.jets import Jet3

    env = [Jet3.variable(i, pts[:, i]) for i in range(4)]
    V = [vc[i] + 0.3 * env[(i + 1) % 4] for i in range(4)]
    W = [wc[i] - 0.2 * env[(i + 2) % 4] for i in range(4)]
    g = geom.g
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
                                   ((0.01, 5.0),) * 4, 1, "s4_inverted")
    q = pts[0]
    q2 = q / np.dot(q, q)
    s2 = curvature_at(inv_chart, q2[None, :])
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert abs(float(sectional(s1, u, v)[0]) - 1.0) < 1e-8
        assert abs(float(sectional(s2, u, v)[0]) - 1.0) < 1e-8


def test_normal_chart_properties():
    chart = presets.cp2_fubini_study()
    p = np.array([0.21, -0.33, 0.11, 0.4])
    slate = curvature_at(chart, p[None, :])
    geom = normal_chart(chart, p, slate.frame[0])
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
                    d2g[i, j, k, l] = geom.g[i][j].derivative(tuple(a))[0]
    rec = 0.5 * (np.einsum("iljk->ijkl", d2g) + np.einsum("jkil->ijkl", d2g)
                 - np.einsum("jlik->ijkl", d2g) - np.einsum("ikjl->ijkl", d2g))
    assert np.max(np.abs(rec - slate.R[0])) < 1e-7


def test_normal_chart_flat_translation():
    chart = presets.flat_t4()
    p = np.array([1.0, 2.0, 3.0, 1.5])
    geom = normal_chart(chart, p, np.eye(4))
    assert np.max(np.abs(geom.gamma_values)) == 0.0


def test_normal_chart_rejects_bad_basis():
    chart = presets.round_s4(1.0)
    with pytest.raises(ChartError, match="orthonormal"):
        normal_chart(chart, np.zeros(4), np.eye(4) * 1.5)


def test_round_sphere_normal_gamma():
    chart = presets.round_s4(1.0)
    pts = sample_box(chart.domain, 3, seed=12)
    for n in range(len(pts)):
        slate = curvature_at(chart, pts[n][None, :])
        geom = normal_chart(chart, pts[n], slate.frame[0])
        assert np.max(np.abs(geom.gamma_values)) < 1e-9


def _normal_chart_arrays(chart, fld, P, B):
    geom = normal_chart(chart, P, B)
    pulled = pullback_two_form(fld.components, normal_chart_map(chart, P, B))
    return [np.stack([geom.g[i][j].c for i in range(4) for j in range(4)], axis=-2),
            np.stack([c.c for c in pulled], axis=-2),
            geom.dgamma_values]


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


def test_validate_chart():
    assert validate_chart(presets.cp2_fubini_study())
    bad = charts.chart_from_strings(
        [["x1 - 3", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 1.0)] * 4, 1, "indefinite")
    with pytest.raises(ChartError):
        validate_chart(bad)


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
    """The in-house scrambled Halton draws scipy's points bit for bit."""
    from scipy.stats import qmc

    dom = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0), (3.0, 4.0))
    for count in (1, 2, 7, 64, 100, 1024, 5000):
        want = qmc.Halton(d=4, scramble=True, seed=seed).random(count)
        assert np.array_equal(charts.scrambled_halton(count, seed), want)
        assert np.array_equal(sample_box(dom, count, margin=0.1, seed=seed),
                              charts._scale_to_box(dom, 0.1, want))


def test_interior_check():
    chart = presets.flat_t4()
    with pytest.raises(ChartError, match="interior"):
        curvature_at(chart, np.array([[0.0, 1.0, 1.0, 1.0]]))
