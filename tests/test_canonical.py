from pathlib import Path

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from curv4 import canonical, forms, presets, scenario
from curv4.charts import curvature_at, sample_box
from curv4.forms import TwoFormField
from oracles import (admissible_K_range, biorthogonal, euclid_cross_eps, orthonormal_plane,
                     plane_complement, unpack_R)

RNG = np.random.default_rng(17)


def _random_block_inputs(n, seed):
    rng = np.random.default_rng(seed)
    raw1 = rng.uniform(0.2, 3.0, n)
    raw2 = rng.uniform(-2.0, 2.0, n)
    a = np.abs(raw1 + raw2)
    b = np.abs(raw1 - raw2)
    lam = np.stack([(a + b) / 2.0, (a - b) / 2.0], -1)
    B = np.zeros((n, 4, 4))
    B[:, 0, 1] = lam[:, 0]
    B[:, 1, 0] = -lam[:, 0]
    B[:, 2, 3] = lam[:, 1]
    B[:, 3, 2] = -lam[:, 1]
    Q = special_ortho_group.rvs(4, size=n, random_state=seed + 1).reshape(n, 4, 4)
    A = np.einsum("nai,nab,nbj->nij", Q, B, Q, optimize=True)
    return forms.pair_components_values(A), lam


def test_lambda_round_trip_1000():
    f6, lam = _random_block_inputs(1000, seed=3)
    ad = canonical.canonicalize(f6)
    assert np.max(np.abs(ad.lam1 - lam[:, 0])) < 1e-10
    assert np.max(np.abs(ad.lam2 - lam[:, 1])) < 1e-10
    assert np.max(ad.block_residual) < 1e-10
    assert np.max(np.abs(np.linalg.det(ad.basis) - 1.0)) < 1e-10
    assert np.all(ad.lam1 + ad.lam2 >= -1e-12)
    assert np.all(ad.lam1 - ad.lam2 >= -1e-12)


def test_canonicalize_examples():
    f = np.zeros((1, 6))
    f[0, 0], f[0, 5] = 3.0, 1.0
    ad = canonical.canonicalize(f)
    assert ad.lam1[0] == pytest.approx(3.0) and ad.lam2[0] == pytest.approx(1.0)
    assert not ad.degenerate[0]

    ad0 = canonical.canonicalize(np.zeros((1, 6)))
    assert ad0.degenerate[0] and ad0.lam1[0] == 0.0 and ad0.lam2[0] == 0.0

    rot, lam = _random_block_inputs(1, seed=8)
    ad2 = canonical.canonicalize(rot)
    assert abs(ad2.lam1[0] - lam[0, 0]) < 1e-10
    assert ad2.block_residual[0] < 1e-10


def test_frame_equivariance():
    f6, lam = _random_block_inputs(50, seed=5)
    Q = special_ortho_group.rvs(4, size=50, random_state=9)
    A = forms.full_matrix_values(f6)
    A2 = np.einsum("nai,nab,nbj->nij", Q, A, Q, optimize=True)
    f6_rot = forms.pair_components_values(A2)
    ad1 = canonical.canonicalize(f6)
    ad2 = canonical.canonicalize(f6_rot)
    assert np.max(np.abs(ad1.lam1 - ad2.lam1)) < 1e-10
    assert np.max(np.abs(ad1.lam2 - ad2.lam2)) < 1e-10


def test_lambda_fg_consistency_cross_module():
    f6, _ = _random_block_inputs(200, seed=6)
    ad = canonical.canonicalize(f6)
    F, G, _ = forms.fg_values(np.eye(4), f6, 1.0)
    assert np.max(np.abs((ad.lam1 + ad.lam2)**2 - F)) < 1e-10
    assert np.max(np.abs((ad.lam1 - ad.lam2)**2 - G)) < 1e-10


def test_inplane_rotation_invariance_of_K():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 6, seed=7)
    slate = curvature_at(chart, pts)
    f6, _ = _random_block_inputs(6, seed=11)
    ad = canonical.canonicalize(f6)
    kk = canonical.curvature_term_K(slate, ad)
    rng = np.random.default_rng(12)
    for _ in range(5):
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        R1 = np.eye(4)
        R1[:2, :2] = [[np.cos(t1), -np.sin(t1)], [np.sin(t1), np.cos(t1)]]
        R1[2:, 2:] = [[np.cos(t2), -np.sin(t2)], [np.sin(t2), np.cos(t2)]]
        basis2 = np.einsum("nij,jk->nik", ad.basis, R1)
        K2, R12 = canonical._k_r(slate.M, basis2)
        assert np.max(np.abs(kk["K"] - K2)) < 1e-10
        assert np.max(np.abs(kk["R1234"] - R12)) < 1e-10


def test_cp2_kaehler_K_values():
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 20, seed=13)
    slate = curvature_at(chart, pts)
    fld = TwoFormField(chart, presets.form_preset("kaehler", chart))
    c6 = fld.component_jets(pts)
    f6 = forms.frame_components(slate.frame, c6[0])
    ad = canonical.canonicalize(f6)
    assert ad.degenerate.all()  # the Kaehler form is self-dual
    kk = canonical.curvature_term_K(slate, ad)
    assert np.max(np.abs(kk["K"] - 2.0)) < 1e-8
    assert np.max(np.abs(kk["R1234"] - 2.0)) < 1e-8
    # for this form K is the same over all admissible frames
    assert np.max(admissible_K_range(slate.M, ad, samples=8, seed=3)) < 1e-8


def test_product_volumes_K_zero():
    chart = presets.product_s2s2(1.0, 1.0)
    pts = sample_box(chart.domain, 20, seed=14)
    slate = curvature_at(chart, pts)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    c6 = fld.component_jets(pts)
    f6 = forms.frame_components(slate.frame, c6[0])
    ad = canonical.canonicalize(f6)
    kk = canonical.curvature_term_K(slate, ad)
    assert np.max(np.abs(kk["K"])) < 1e-8
    assert np.max(np.abs(kk["R1234"])) < 1e-8
    # K alone is frame dependent at SD-degenerate points, K - R1234 is not
    assert np.max(np.abs(kk["K"] - kk["R1234"])) < 1e-10


def test_round_s4_K():
    chart = presets.round_s4(1.0)
    pts = sample_box(chart.domain, 10, seed=15)
    slate = curvature_at(chart, pts)
    f6, _ = _random_block_inputs(10, seed=16)
    ad = canonical.canonicalize(f6)
    kk = canonical.curvature_term_K(slate, ad)
    assert np.max(np.abs(kk["K"] - 2.0)) < 1e-9
    assert np.max(np.abs(kk["R1234"])) < 1e-9


def test_biorthogonal_symmetry_and_values():
    chart = presets.product_s2s2(1.0, 1.0)
    pts = sample_box(chart.domain, 4, seed=17)
    slate = curvature_at(chart, pts)
    u, v = RNG.normal(size=4), RNG.normal(size=4)
    uo, vo = orthonormal_plane(u, v)
    w1, w2 = plane_complement(uo, vo)
    R = unpack_R(slate.M[0])
    s1 = biorthogonal(R, uo, vo)
    s2 = biorthogonal(R, w1, w2)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_plane_minimum_product_and_sphere():
    chart = presets.product_s2s2(1.0, 1.0)
    slate = curvature_at(chart, sample_box(chart.domain, 2, seed=18))
    res = canonical.plane_minimum(slate.M, biortho=True)
    assert res.shape == (2,)
    assert abs(res[0]) < 1e-6  # mixed planes and their complements are flat

    sphere = presets.round_s4(2.0)
    slate_s = curvature_at(sphere, sample_box(sphere.domain, 1, seed=19))
    res_s = canonical.plane_minimum(slate_s.M, biortho=True)
    assert res_s[0] == pytest.approx(0.25, abs=1e-6)


def _random_frames(count, seed):
    """Random orthonormal frames (u, v, w1, w2), each (count, 4)."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(count, 4, 4)))
    return [q[:, :, k] for k in range(4)]


def _conformal_product():
    path = Path(__file__).resolve().parents[1] / "scenarios" / "conformal_product.json"
    return scenario.load(path).build_chart()


@pytest.mark.parametrize("make_chart", [presets.cp2_fubini_study, presets.product_s2s2,
                                        _conformal_product],
                         ids=["cp2", "s2s2", "conformal_s2s2"])
def test_closed_form_extremes_bound_dense_planes(make_chart):
    chart = make_chart()
    slate = curvature_at(chart, sample_box(chart.domain, 20, seed=31))
    u, v, w1, w2 = _random_frames(40_000, seed=32)
    R = unpack_R(slate.M)
    sec = np.einsum("nijkl,mi,mj,mk,ml->nm", R, u, v, u, v, optimize=True)
    sec_c = np.einsum("nijkl,mi,mj,mk,ml->nm", R, w1, w2, w1, w2, optimize=True)
    secperp = 0.5 * (sec + sec_c)
    for m in range(3):
        assert secperp[0, m] == pytest.approx(biorthogonal(R[0], u[m], v[m]), abs=1e-12)

    lo = canonical.plane_minimum(slate.M)
    hi = -canonical.plane_minimum(-slate.M)
    lo_perp = canonical.plane_minimum(slate.M, biortho=True)
    assert np.all(lo[:, None] <= sec + 1e-12)
    assert np.all(hi[:, None] >= sec - 1e-12)
    assert np.all(lo_perp[:, None] <= secperp + 1e-12)
    assert np.all(sec.min(axis=1) - lo < 1e-2)
    assert np.all(secperp.min(axis=1) - lo_perp < 1e-2)


def test_closed_form_extremes_exact_values():
    for r in (0.5, 1.0, 2.0):
        sphere = presets.round_s4(r)
        M = curvature_at(sphere, sample_box(sphere.domain, 5, seed=33)).M
        for val in (canonical.plane_minimum(M), -canonical.plane_minimum(-M),
                    canonical.plane_minimum(M, biortho=True)):
            assert np.allclose(val, 1.0 / r**2, atol=1e-9)

    for chart, sec_range, secperp_min in ((presets.product_s2s2(1.0, 1.0), (0.0, 1.0), 0.0),
                                          (presets.cp2_fubini_study(), (1.0, 4.0), 1.0)):
        M = curvature_at(chart, sample_box(chart.domain, 8, seed=34)).M
        assert np.allclose(canonical.plane_minimum(M), sec_range[0], atol=1e-9)
        assert np.allclose(-canonical.plane_minimum(-M), sec_range[1], atol=1e-9)
        assert np.allclose(canonical.plane_minimum(M, biortho=True), secperp_min, atol=1e-9)


def test_global_curvature_stats():
    stats = canonical.global_curvature_stats(presets.round_s4(1.0), samples=12, seed=6)
    assert stats["k_lower"] == pytest.approx(1.0, abs=1e-6)
    assert stats["secperp_min"] == pytest.approx(1.0, abs=1e-6)

    stats_p = canonical.global_curvature_stats(presets.product_s2s2(1.0, 1.0),
                                               samples=12, seed=7)
    assert abs(stats_p["k_lower"]) < 1e-6
    assert abs(stats_p["secperp_min"]) < 1e-6

    stats_c = canonical.global_curvature_stats(presets.cp2_fubini_study(),
                                               samples=16, seed=8)
    assert stats_c["k_lower"] == pytest.approx(1.0, abs=1e-4)
    assert stats_c["sec_range"][1] <= 4.0 + 1e-6


def test_K_equals_sum_of_biorthogonal():
    """K = sec-perp(e1,e3) + sec-perp(e1,e4) in the adapted basis."""
    chart = presets.cp2_fubini_study()
    pts = sample_box(chart.domain, 5, seed=20)
    slate = curvature_at(chart, pts)
    f6, _ = _random_block_inputs(5, seed=21)
    ad = canonical.canonicalize(f6)
    kk = canonical.curvature_term_K(slate, ad)
    R = unpack_R(slate.M)
    for n in range(5):
        Q = ad.basis[n]
        Rq = np.einsum("ijkl,ia,jb,kc,ld->abcd", R[n], Q, Q, Q, Q, optimize=True)
        e = np.eye(4)
        s13 = biorthogonal(Rq, e[0], e[2])
        s14 = biorthogonal(Rq, e[0], e[3])
        assert abs(kk["K"][n] - (s13 + s14)) < 1e-10


def test_euclid_cross_matches_levi_civita_contraction():
    """The cofactor cross product equals the eps_ijkl contraction to round-off,
    is orthogonal to its inputs and completes them to a positive basis."""
    a, b, c = np.random.default_rng(41).standard_normal((3, 500, 4))
    got, want = canonical._euclid_cross(a, b, c), euclid_cross_eps(a, b, c)
    # |a| |b| |c| bounds every entry and every term that enters it
    scale = np.prod([np.linalg.norm(v, axis=-1) for v in (a, b, c)], axis=0)
    assert np.max(np.abs(got - want) / scale[:, None]) <= 2e-15
    for v in (a, b, c):
        assert np.max(np.abs(np.sum(got * v, axis=-1)) / scale) <= 2e-15
    assert np.all(np.linalg.det(np.stack([a, b, c, got], axis=-2)) > 0)
