"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Heavy artifacts (grids, scans) are shared through module fixtures.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from curv4 import canonical, charts, cli, forms, grid, presets, verify
from curv4.charts import conformal_chart, curvature_at, sample_box
from curv4.forms import TwoFormField

from oracles import complex_space_form_R, cp2_complex_structure, unpack_R

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

PERTURBED = [
    ["1 + 0.1*sin(x1)*cos(x2)", "0.03*sin(x3)*sin(x4)", "0", "0"],
    ["0.03*sin(x3)*sin(x4)", "1 + 0.1*sin(x2)*cos(x3)", "0", "0"],
    ["0", "0", "1 + 0.1*sin(x3)*cos(x4)", "0"],
    ["0", "0", "0", "1 + 0.1*sin(x4)*cos(x1)"],
]


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def conformal_scenario():
    base = presets.product_s2s2(1.0, 1.0)
    chart = conformal_chart(base, "0.1*sin(x1)*cos(x3)")
    fld = TwoFormField(chart, presets.form_preset("factor_volume_1", chart))
    return chart, fld


@pytest.fixture(scope="module")
def perturbed_reports():
    chart = charts.chart_from_strings(PERTURBED, [(0.0, 2 * np.pi)] * 4,
                                      "perturbed_t4")
    out = {}
    for n in (8, 16):
        gc = grid.assemble(chart, n)
        phi, delta_res, _ = grid.harmonic_representative(gc, (0, 1))
        rep = grid.discrete_eq23_report(grid.discrete_field_export(gc, phi))
        rep["representative_delta_residual"] = delta_res
        out[n] = rep
    return out


def test_criterion_1_curvature_ground_truth():
    rng = np.random.default_rng(50)
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        chart = presets.round_s4(r)
        slate = curvature_at(chart, sample_box(chart.domain, 50, seed=1))
        for _ in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            worst = max(worst, float(np.max(np.abs(
                charts.sectional(slate, u, v) - 1.0 / r**2))))
    flat = presets.flat_t4()
    flat_max = float(np.max(np.abs(
        curvature_at(flat, sample_box(flat.domain, 10, seed=2)).M)))
    cp2 = presets.cp2_fubini_study()
    slate = curvature_at(cp2, sample_box(cp2.domain, 20, seed=3))
    J0 = cp2_complex_structure()
    JE = np.einsum("ij,njb->nib", J0, slate.frame)
    Jab = np.einsum("nia,nij,njb->nab", JE, slate.geometry.g_values, slate.frame,
                    optimize=True)
    cp2_err = float(np.max(np.abs(unpack_R(slate.M) - complex_space_form_R(Jab, c=4.0))))
    ok = worst < 1e-8 and flat_max < 1e-12 and cp2_err < 1e-7
    _line(1, ok, f"sphere sec err {worst:.2e} (<1e-8), flat |R| {flat_max:.2e} "
                 f"(<1e-12), cp2 oracle err {cp2_err:.2e} (<1e-7)")


def test_criterion_2_weitzenboeck():
    results = {}
    for name, chart in [("flat_t4", presets.flat_t4()),
                        ("round_s4", presets.round_s4(1.0)),
                        ("product_s2s2", presets.product_s2s2(1.0, 1.0)),
                        ("cp2_fubini_study", presets.cp2_fubini_study())]:
        fld = TwoFormField(chart, presets.form_preset("random_analytic", chart,
                                                      seed=17))
        rep = verify.verify_weitzenboeck(chart, fld,
                                         sample_box(chart.domain, 30, seed=5))
        results[name] = rep.max_rel_residual
    worst = max(results.values())
    _line(2, worst < 1e-7,
          "Eq 2.1 max rel residual " + ", ".join(
              f"{k}={v:.1e}" for k, v in results.items()) + " (<1e-7)")


def test_criterion_3_component_bochner():
    results = {}
    gates = {}
    for label, chart, preset in [
            ("flat_constant", presets.flat_t4(), "constant"),
            ("product_volumes", presets.product_s2s2(1.0, 1.0), "factor_volumes"),
            ("cp2_kaehler", presets.cp2_fubini_study(), "kaehler")]:
        fld = TwoFormField(chart, presets.form_preset(preset, chart))
        rep = verify.verify_component_bochner(
            chart, fld, sample_box(chart.domain, 10, seed=7), scenario=label)
        results[label] = rep.max_rel_residual
        gates[label] = rep.extra["normal_gamma_max"]
    ok = max(results.values()) < 1e-7 and max(gates.values()) < 1e-9
    _line(3, ok, "Eq 2.2 residual " + ", ".join(
        f"{k}={v:.1e}" for k, v in results.items())
        + f" (<1e-7), Gamma' gate max {max(gates.values()):.1e} (<1e-9)")


def test_criterion_4_canonical_frame():
    cp2 = presets.cp2_fubini_study()
    pts = sample_box(cp2.domain, 20, seed=11)
    slate = curvature_at(cp2, pts)
    fld = TwoFormField(cp2, presets.form_preset("kaehler", cp2))
    f6 = forms.frame_components(slate.frame,
                                fld.component_jets(pts)[0])
    kk = canonical.curvature_term_K(slate, canonical.canonicalize(f6))
    cp2_err = max(float(np.max(np.abs(kk["K"] - 2.0))),
                  float(np.max(np.abs(kk["R1234"] - 2.0))))

    prod = presets.product_s2s2(1.0, 1.0)
    ptsp = sample_box(prod.domain, 20, seed=13)
    slp = curvature_at(prod, ptsp)
    fldp = TwoFormField(prod, presets.form_preset("factor_volumes", prod))
    f6p = forms.frame_components(slp.frame,
                                 fldp.component_jets(ptsp)[0])
    kkp = canonical.curvature_term_K(slp, canonical.canonicalize(f6p))
    prod_err = max(float(np.max(np.abs(kkp["K"]))),
                   float(np.max(np.abs(kkp["R1234"]))))

    from scipy.stats import special_ortho_group

    rng = np.random.default_rng(3)
    raw1 = rng.uniform(0.2, 3.0, 1000)
    raw2 = rng.uniform(-2.0, 2.0, 1000)
    a, b = np.abs(raw1 + raw2), np.abs(raw1 - raw2)
    lam = np.stack([(a + b) / 2.0, (a - b) / 2.0], -1)
    B = np.zeros((1000, 4, 4))
    B[:, 0, 1], B[:, 1, 0] = lam[:, 0], -lam[:, 0]
    B[:, 2, 3], B[:, 3, 2] = lam[:, 1], -lam[:, 1]
    Q = special_ortho_group.rvs(4, size=1000, random_state=4)
    A = np.einsum("nai,nab,nbj->nij", Q, B, Q, optimize=True)
    ad = canonical.canonicalize(forms.pair_components_values(A))
    rt_err = max(float(np.max(np.abs(ad.lam1 - lam[:, 0]))),
                 float(np.max(np.abs(ad.lam2 - lam[:, 1]))))
    ok = cp2_err < 1e-7 and prod_err < 1e-8 and rt_err < 1e-10
    _line(4, ok, f"cp2 (K,R1234)-(2,2) err {cp2_err:.1e} (<1e-7), product err "
                 f"{prod_err:.1e} (<1e-8), lambda round-trip {rt_err:.1e} (<1e-10)")


def test_criterion_5_prop23_thm21(conformal_scenario):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 30, seed=7)
    r23 = verify.verify_prop23(chart, fld, pts)
    r21 = verify.verify_theorem21(chart, fld, pts)
    conf_worst = max(r23.max_rel_residual, r21.max_rel_residual)
    nondeg = r23.extra["degenerate_points"] == 0

    par_worst = 0.0
    for chart_p, preset in [(presets.flat_t4(), "constant"),
                            (presets.product_s2s2(1.0, 1.0), "factor_volumes"),
                            (presets.cp2_fubini_study(), "kaehler")]:
        fld_p = TwoFormField(chart_p, presets.form_preset(preset, chart_p))
        pts_p = sample_box(chart_p.domain, 20, seed=8)
        par_worst = max(par_worst,
                        verify.verify_prop23(chart_p, fld_p, pts_p).max_rel_residual,
                        verify.verify_theorem21(chart_p, fld_p, pts_p).max_rel_residual)
    ok = conf_worst < 1e-6 and nondeg and par_worst < 1e-7
    _line(5, ok, f"Eqs 2.8/2.9/2.3 conformal residual {conf_worst:.1e} (<1e-6, "
                 f"30 non-degenerate points), parallel presets {par_worst:.1e} (<1e-7)")


def test_criterion_6_kato_suite(conformal_scenario):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 10_000, seed=13)
    scan = verify.kato_scan(chart, fld, pts)
    classical = scan["classical_kato_ok"] and scan["min_rho"] >= 1.0 - 1e-9
    lemma41 = scan["min_rho"] >= 1.5 - 1e-6

    # parallel scenarios: every valid point satisfies classical Kato vacuously
    prod = presets.product_s2s2(1.0, 1.0)
    fldp = TwoFormField(prod, presets.form_preset("factor_volumes", prod))
    empty = verify.kato_scan(prod, fldp, sample_box(prod.domain, 100, seed=1))
    classical_everywhere = classical and empty["min_rho"] is None

    pts30 = sample_box(chart.domain, 30, seed=14)
    res49 = {}
    res42 = res46 = 0.0
    for k in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        rep = verify.verify_conformal_chain(chart, fld, pts30, k=k)
        res49[k] = rep.extra["max_residual_eq49"]
        res42 = max(res42, rep.extra["max_residual_eq42"])
        res46 = max(res46, rep.extra["max_residual_eq46"])
    ok = (classical_everywhere and lemma41 and max(res49.values()) < 1e-5
          and res42 < 1e-6 and res46 < 1e-6)
    _line(6, ok,
          f"min rho {scan['min_rho']:.8f} (>=1.5-1e-6 over 10^4 pts), classical ok, "
          f"Eq4.9 residual {max(res49.values()):.1e} (<1e-5, k in 0..8), "
          f"Eq4.2 {res42:.1e} / Eq4.6 {res46:.1e} (<1e-6); "
          f"rho>=2 fraction below 2: {scan['fraction_rho_below_2']:.3f} "
          f"(reported, not asserted)")


def test_criterion_7_discrete_hodge():
    flat = presets.flat_t4()
    oks, details = [], []
    for n in (4, 6):
        gc = grid.assemble(flat, n)
        rep = grid.definiteness_report(grid.harmonic_kernel(gc))
        oks.append(rep["kernel_dim"] == 6 and rep["b2_plus"] == 3
                   and rep["b2_minus"] == 3 and rep["signature"] == 0
                   and rep["definite"] is False)
        details.append(f"flat n={n} dim={rep['kernel_dim']} "
                       f"b2=({rep['b2_plus']},{rep['b2_minus']})")
    pert = charts.chart_from_strings(PERTURBED, [(0.0, 2 * np.pi)] * 4,
                                     "perturbed_t4")
    gc8 = grid.assemble(pert, 8)
    rep8 = grid.definiteness_report(grid.harmonic_kernel(gc8))
    oks.append(rep8["kernel_dim"] == 6 and rep8["b2_plus"] == 3
               and rep8["b2_minus"] == 3)
    details.append(f"perturbed n=8 dim={rep8['kernel_dim']} "
                   f"b2=({rep8['b2_plus']},{rep8['b2_minus']})")

    rng = np.random.default_rng(2)
    adj_worst = 0.0
    for k in (1, 2, 3):
        a = rng.standard_normal(gc8.dim(k - 1))
        b = rng.standard_normal(gc8.dim(k))
        lhs = gc8.inner(k, gc8.d[k - 1] @ a, b)
        rhs = gc8.inner(k - 1, a, gc8.delta(k, b))
        adj_worst = max(adj_worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    u = rng.standard_normal(gc8.dim(0))
    gs0 = abs(np.sum(gc8.M[0] * gc8.delta(1, gc8.d[0] @ u))) / np.linalg.norm(u)
    gc4 = grid.assemble(flat, 4)
    # d2 = 0 exactly: on every identity column at n=4, on integer cochains at n=8
    ints = np.random.default_rng(3)
    d2 = max(max(np.max(np.abs(gc4.d[k + 1] @ (gc4.d[k] @ np.eye(gc4.dim(k), dtype=np.int64)))),
                  np.max(np.abs(gc8.d[k + 1] @ (gc8.d[k] @ ints.integers(-50, 51, (gc8.dim(k), 6))))))
             for k in range(3))
    x = rng.standard_normal(gc4.dim(2))
    gs2 = abs(np.sum(gc4.M[2] * gc4.laplacian2(x))) / np.linalg.norm(x)
    oks.append(adj_worst < 1e-13 and d2 == 0 and gs0 < 1e-10 and gs2 < 1e-10)
    details.append(f"adjoint {adj_worst:.1e} (<1e-13), d2=0 exact, "
                   f"Green-Stokes {max(gs0, gs2):.1e} (<1e-10)")
    _line(7, all(oks), "; ".join(details))


def test_criterion_8_integral_mechanism(perturbed_reports):
    r8, r16 = perturbed_reports[8], perturbed_reports[16]
    # the h^2 mechanism: the observed order log2(r8 / r16) of both quantities
    # (measured 1.69 and 1.68; nominal 2) must be at least 1.5
    order_int = np.log2(abs(r8["integral_delta_FG"])
                        / max(abs(r16["integral_delta_FG"]), 1e-300))
    order_bal = np.log2(r8["balance_residual"] / max(r16["balance_residual"], 1e-300))
    ok = order_int >= 1.5 and order_bal >= 1.5
    _line(8, ok,
          f"|int Delta(FG)| n=8: {abs(r8['integral_delta_FG']):.2e}, n=16: "
          f"{abs(r16['integral_delta_FG']):.2e}; balance residual "
          f"{r8['balance_residual']:.2e} -> {r16['balance_residual']:.2e}; "
          f"observed orders {order_int:.2f}/{order_bal:.2f} (>=1.5)")


def test_criterion_9_convergence_order(perturbed_reports):
    r8, r16 = perturbed_reports[8], perturbed_reports[16]
    ratio = r8["rms_relative_residual"] / r16["rms_relative_residual"]
    ok = 3.0 <= ratio <= 5.0
    _line(9, ok, f"discrete Eq 2.3 residual n=8 {r8['rms_relative_residual']:.3e} "
                 f"-> n=16 {r16['rms_relative_residual']:.3e}, ratio {ratio:.2f} "
                 f"(in [3,5], nominal 4)")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli.main(["verify", "thm21", "--scenario",
                         str(SCENARIOS / "conformal_product.json"), "--out", str(out)])
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    same = outs[0] == outs[1]
    _line(10, same,
          f"two runs, same seed: report.json byte-identical ({len(outs[0])} bytes)")


def test_seaman_constant_documented_only():
    """The 0.1714 pinching constant is reported, never recomputed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md")
    if readme.exists():
        assert "0.1714" in readme.read_text()
