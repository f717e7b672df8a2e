import csv

import numpy as np
import pytest

from curv4 import charts, forms, presets, verify
from curv4 import expr as ex
from curv4.charts import conformal_chart, sample_box
from curv4.forms import TwoFormField
from curv4.verify import InputError


@pytest.fixture(scope="module")
def conformal_scenario():
    base = presets.product_s2s2(1.0, 1.0)
    chart = conformal_chart(base, "0.1*sin(x1)*cos(x3)")
    fld = TwoFormField(chart, presets.form_preset("factor_volume_1", chart))
    return chart, fld


def test_weitzenboeck_all_presets():
    for name, chart in [("flat_t4", presets.flat_t4()),
                        ("round_s4", presets.round_s4(1.0)),
                        ("product", presets.product_s2s2(1.0, 1.0)),
                        ("cp2", presets.cp2_fubini_study())]:
        fld = TwoFormField(chart, presets.form_preset("random_analytic", chart, seed=17))
        pts = sample_box(chart.domain, 12, seed=5)
        rep = verify.verify_weitzenboeck(chart, fld, pts, scenario=name)
        assert rep.passed and rep.max_rel_residual < 1e-7, name


def test_weitzenboeck_zero_field():
    chart = presets.round_s4(1.0)
    fld = TwoFormField(chart, {})
    rep = verify.verify_weitzenboeck(chart, fld, sample_box(chart.domain, 5, seed=1))
    assert rep.max_abs_residual == 0.0


def test_eq22_parallel_presets():
    for chart, preset in [(presets.flat_t4(), "constant"),
                          (presets.product_s2s2(1.0, 1.0), "factor_volumes"),
                          (presets.cp2_fubini_study(), "kaehler")]:
        fld = TwoFormField(chart, presets.form_preset(preset, chart))
        pts = sample_box(chart.domain, 5, seed=7)
        rep = verify.verify_component_bochner(chart, fld, pts)
        assert rep.passed and rep.max_rel_residual < 1e-7
        assert rep.extra["normal_gamma_max"] < 1e-9


def test_eq22_conformal(conformal_scenario):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 5, seed=8)
    rep = verify.verify_component_bochner(chart, fld, pts)
    assert rep.passed and rep.max_rel_residual < 1e-7


def test_eq22_rejects_nonharmonic():
    chart = presets.product_s2s2(1.0, 1.0)
    fld = TwoFormField(chart, {"12": "sin(x1)*x2", "34": "cos(x3)"})
    with pytest.raises(InputError, match="not harmonic"):
        verify.verify_component_bochner(chart, fld, sample_box(chart.domain, 4, seed=2))


def test_lemma22_and_prop23_conformal(conformal_scenario):
    chart, fld = conformal_scenario
    rep = verify.verify_lemma22(chart, fld, sample_box(chart.domain, 6, seed=9))
    assert rep.passed and rep.max_rel_residual < 1e-6
    rep23 = verify.verify_prop23(chart, fld, sample_box(chart.domain, 30, seed=10))
    assert rep23.passed and rep23.max_rel_residual < 1e-6
    assert rep23.extra["degenerate_points"] == 0


def test_prop23_parallel_degenerate_cases():
    chart = presets.product_s2s2(1.0, 1.0)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    rep = verify.verify_prop23(chart, fld, sample_box(chart.domain, 20, seed=11))
    assert rep.passed and rep.max_rel_residual < 1e-7
    assert rep.extra["degenerate_points"] == 20

    cp2 = presets.cp2_fubini_study()
    fldk = TwoFormField(cp2, presets.form_preset("kaehler", cp2))
    repk = verify.verify_prop23(cp2, fldk, sample_box(cp2.domain, 20, seed=12))
    assert repk.passed and repk.max_rel_residual < 1e-7


def test_thm21_conformal_and_consistency(conformal_scenario):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 30, seed=13)
    rep = verify.verify_theorem21(chart, fld, pts)
    assert rep.passed and rep.max_rel_residual < 1e-6
    assert rep.extra["schwarz_ok_under_premise"]


def test_thm21_one_factor_zero():
    """F or G identically zero collapses the identity; both sides must agree."""
    chart = presets.product_s2s2(1.0, 1.0)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    rep = verify.verify_theorem21(chart, fld, sample_box(chart.domain, 15, seed=14))
    assert rep.passed and rep.max_rel_residual < 1e-8


def test_kato_scan_conformal(conformal_scenario):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 400, seed=15)
    scan = verify.kato_scan(chart, fld, pts)
    assert scan["valid_points"] > 0
    assert scan["classical_kato_ok"]
    assert scan["lemma41_floor_ok"]
    assert scan["min_rho"] >= 1.5 - 1e-6
    # the open question field is reported, never asserted
    assert "open_question_rho_ge_2" in scan


def test_kato_scan_parallel_empty():
    chart = presets.product_s2s2(1.0, 1.0)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    scan = verify.kato_scan(chart, fld, sample_box(chart.domain, 50, seed=16))
    assert scan["min_rho"] is None
    assert "parallel-degenerate" in scan["empty_scan"]


def test_kato_scan_excludes_a_zero_of_phi(tmp_path):
    """A point on an exact zero of phi is excluded with an empty rho cell, and
    the other points read as in a scan without it."""
    from curv4 import cli

    chart = presets.flat_t4()
    # closed and coclosed on the flat chart, vanishing where x1 = x4 = 3
    fld = TwoFormField(chart, {"12": "3 - x4", "24": "x1 - 3"})
    pts = np.array([[1.0, 2.0, 2.5, 1.5], [3.0, 1.0, 2.0, 3.0],
                    [4.5, 0.5, 3.0, 2.0], [2.0, 5.0, 1.0, 3.5]])
    scan = verify.kato_scan(chart, fld, pts)
    rest = verify.kato_scan(chart, fld, pts[[0, 2, 3]])
    assert (scan["valid_points"], scan["excluded_points"]) == (3, 1)
    assert scan["min_rho"] == rest["min_rho"] == pytest.approx(2.0, rel=1e-14)
    assert np.isnan(scan["samples"]["rho"][1])
    for col in ("rho", "grad_sq", "dnorm_sq", "norm"):
        np.testing.assert_array_equal(scan["samples"][col][[0, 2, 3]], rest["samples"][col])
    cli._write_csv(tmp_path / "samples.csv", scan["samples"])
    with open(tmp_path / "samples.csv", newline="") as fh:
        rho_cells = [row["rho"] for row in csv.DictReader(fh)]
    assert rho_cells[1] == "" and all(rho_cells[i] for i in (0, 2, 3))


def test_conformal_chain_k0_identity(conformal_scenario):
    chart, fld = conformal_scenario
    rep = verify.verify_conformal_chain(chart, fld,
                                        sample_box(chart.domain, 10, seed=17), k=0.0)
    assert rep.extra["max_residual_eq49"] < 1e-14
    assert rep.passed


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_conformal_chain_residuals(conformal_scenario, k):
    chart, fld = conformal_scenario
    rep = verify.verify_conformal_chain(chart, fld,
                                        sample_box(chart.domain, 15, seed=18), k=k)
    assert rep.passed
    for eq in ("eq42", "eq43", "eq46", "eq49"):
        assert rep.extra[f"max_residual_{eq}"] < 1e-6
    assert rep.extra["primed_harmonicity_ok"]
    if k == 1.0:
        # Lemma 4.1 reproduced: the k=1 left side is nonnegative
        assert rep.extra["min_lhs49_over_dnorm"] >= -1e-6


def test_conformal_chain_k_growth(conformal_scenario):
    """Normalized Eq 4.9 RHS grows consistently with the (1-k)^2 mechanism."""
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 10, seed=19)
    ratios = []
    for k in (1.0, 2.0, 4.0, 8.0):
        rep = verify.verify_conformal_chain(chart, fld, pts, k=k)
        ratios.append(rep.extra["min_lhs49_over_dnorm"])
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_residual_scaling_with_sample_size(conformal_scenario):
    """Max residual over a 10x larger sample grows by far less than 10x."""
    chart, fld = conformal_scenario
    r_small = verify.verify_theorem21(chart, fld, sample_box(chart.domain, 20, seed=20))
    r_big = verify.verify_theorem21(chart, fld, sample_box(chart.domain, 200, seed=20))
    assert r_big.max_rel_residual <= 10.0 * max(r_small.max_rel_residual, 1e-14)


def test_flat_constant_residuals_pure_roundoff():
    chart = presets.flat_t4()
    fld = TwoFormField(chart, presets.form_preset("constant", chart))
    pts = sample_box(chart.domain, 10, seed=21)
    assert verify.verify_weitzenboeck(chart, fld, pts).max_abs_residual <= 1e-12
    assert verify.verify_prop23(chart, fld, pts).max_abs_residual <= 1e-12
    assert verify.verify_theorem21(chart, fld, pts).max_abs_residual <= 1e-12


def test_integral_analytic_product_K_zero():
    chart = presets.product_s2s2(1.0, 1.0)
    fld = TwoFormField(chart, presets.form_preset("factor_volumes", chart))
    rep = verify.integral_identity_analytic(chart, fld, n_per_axis=6)
    assert abs(rep["integral_8KFG"]) < 1e-8
    assert rep["balance_residual"] < 1e-8
    assert not rep["closed_manifold"]


def test_integral_analytic_flat_constant_zero():
    chart = presets.flat_t4()
    fld = TwoFormField(chart, presets.form_preset("constant", chart))
    rep = verify.integral_identity_analytic(chart, fld, n_per_axis=4)
    assert rep["closed_manifold"]
    assert abs(rep["integral_delta_FG"]) < 1e-12
    assert abs(rep["integral_8KFG"]) < 1e-12
    assert abs(rep["integral_remainder"]) < 1e-12


def test_integral_analytic_nonperiodic_torus_box_not_closed():
    """A metric on (0, 2pi)^4 that is not 2pi-periodic is a box, not a manifold."""
    chart = charts.chart_from_strings(
        [["1 + 0.1*x1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [(0.0, 2.0 * np.pi)] * 4, "x1_ramp")
    assert not charts.chart_is_periodic(chart)
    fld = TwoFormField(chart, {"34": "1"})  # harmonic: g depends on x1 only
    rep = verify.integral_identity_analytic(chart, fld, n_per_axis=4)
    assert rep["closed_manifold"] is False


def test_report_serialization_roundtrip(conformal_scenario):
    import json

    chart, fld = conformal_scenario
    rep = verify.verify_prop23(chart, fld, sample_box(chart.domain, 5, seed=22))
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert json.loads(blob)["identity"] == "prop23_eq28_eq29"


def test_kato_scan_chunk_invariant(conformal_scenario, monkeypatch):
    """Point chunks only bound the working set: the scan in chunks of 64
    points is the scan in one chunk, bit for bit."""
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 300, seed=23)
    scan1 = verify.kato_scan(chart, fld, pts)
    monkeypatch.setattr(charts, "CHUNK", 64)
    scan2 = verify.kato_scan(chart, fld, pts)
    samples1, samples2 = scan1.pop("samples"), scan2.pop("samples")
    assert scan1 == scan2
    for name, col in samples1.items():
        assert np.array_equal(col, samples2[name], equal_nan=True), name


def test_integral_chunk_invariant(conformal_scenario, monkeypatch):
    """The analytic integrals sum every point's contribution once, so chunks
    of 64 points give the report of one chunk, bit for bit."""
    chart, fld = conformal_scenario
    rep1 = verify.integral_identity_analytic(chart, fld, n_per_axis=4)
    monkeypatch.setattr(charts, "CHUNK", 64)
    assert verify.integral_identity_analytic(chart, fld, n_per_axis=4) == rep1


def test_kato_scan_memory_bounded_by_chunk(conformal_scenario):
    """Peak memory stops growing with the sample: the tracemalloc peak of a
    scan of 4 CHUNK points is at most 1.5 times that of CHUNK points."""
    import tracemalloc

    chart, fld = conformal_scenario
    verify.kato_scan(chart, fld, sample_box(chart.domain, 8, seed=24))  # warm caches

    def peak(count):
        pts = sample_box(chart.domain, count, seed=24)
        tracemalloc.start()
        try:
            verify.kato_scan(chart, fld, pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(charts.CHUNK), peak(4 * charts.CHUNK)
    assert four <= 1.5 * one, (one, four)


# the six verifiers as fn(chart, fld, pts)
VERIFIERS = {"weitzenboeck": verify.verify_weitzenboeck, "eq22": verify.verify_component_bochner,
             "lemma22": verify.verify_lemma22, "prop23": verify.verify_prop23,
             "thm21": verify.verify_theorem21,
             "conformal": lambda c, f, p: verify.verify_conformal_chain(c, f, p, 2.0)}


@pytest.mark.parametrize("name", list(VERIFIERS))
def test_verifier_chunk_invariant(conformal_scenario, monkeypatch, name):
    """Every verifier runs its points in chunks: chunks of 64 points give the
    report and the sample columns of one chunk, bit for bit."""
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 300, seed=23)
    rep1 = VERIFIERS[name](chart, fld, pts)
    monkeypatch.setattr(charts, "CHUNK", 64)
    rep2 = VERIFIERS[name](chart, fld, pts)
    assert rep1.to_dict() == rep2.to_dict()
    assert list(rep1.samples) == list(rep2.samples)
    for col, values in rep1.samples.items():
        assert np.array_equal(values, rep2.samples[col], equal_nan=True), col


@pytest.mark.parametrize("name", ["thm21", "lemma22", "conformal"])
def test_verifier_memory_bounded_by_chunk(conformal_scenario, name):
    """A verifier's tracemalloc peak over 4 CHUNK points is at most 1.5 times
    that over CHUNK points."""
    import tracemalloc

    chart, fld = conformal_scenario
    VERIFIERS[name](chart, fld, sample_box(chart.domain, 8, seed=24))  # warm caches

    def peak(count):
        pts = sample_box(chart.domain, count, seed=24)
        tracemalloc.start()
        try:
            VERIFIERS[name](chart, fld, pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(charts.CHUNK), peak(4 * charts.CHUNK)
    assert four <= 1.5 * one, (one, four)


@pytest.mark.parametrize("run", [
    lambda c, f, p: verify.verify_conformal_chain(c, f, p, 2.0),
    verify.verify_theorem21, verify.kato_scan], ids=["conformal", "thm21", "kato_scan"])
def test_harmonicity_gate_runs_first(run):
    """The harmonicity gate stops a non-harmonic field before any other gate
    or kernel sees its data, here an exact zero of phi at a sample point,
    where log |phi|^2 would raise a JetError."""
    chart = presets.flat_t4()
    fld = TwoFormField(chart, {"12": "(x1 - 1) * x1"})  # closed, not coclosed
    pts = np.array([[1.0, 2.0, 2.5, 1.5], [3.0, 1.0, 2.0, 3.0], [4.5, 0.5, 3.0, 2.0]])
    with pytest.raises(InputError, match="field is not harmonic"):
        run(chart, fld, pts)


def test_conformal_floor_names_the_point_in_plain_floats():
    chart = presets.flat_t4()
    fld = TwoFormField(chart, {"12": "3 - x4", "24": "x1 - 3"})  # harmonic, zero at x1 = x4 = 3
    pts = np.array([[1.0, 2.0, 2.5, 1.5], [3.0, 1.0, 2.0, 3.0]])
    with pytest.raises(InputError, match=r"degeneracy floor at point \(3\.0, 1\.0, 2\.0, 3\.0\)"):
        verify.verify_conformal_chain(chart, fld, pts, 2.0)


def test_primed_harmonicity_ok_is_scale_free(conformal_scenario):
    """Delta' phi = 0 is gated on the field's own scale carried into g' =
    |phi|^k g, so scaling phi by s changes no primed_harmonicity_ok, though
    Delta' grows like |phi|^-k."""
    chart, _ = conformal_scenario
    comps = presets.form_preset("factor_volume_1", chart)
    pts = sample_box(chart.domain, 8, seed=3)
    for s in (1e-11, 1.0, 1e6):
        fld = TwoFormField(chart, {key: f"{s} * ({ex.to_string(e)})" for key, e in comps.items()})
        for k in (1.0, 2.0):
            rep = verify.verify_conformal_chain(chart, fld, pts, k)
            assert rep.extra["primed_harmonicity_ok"], (s, k, rep.extra["primed_harmonicity"])


def _reflect_x4(src):
    """The source string of an expression with x4 replaced by -x4."""
    return src.replace("x4", "(-x4)")


def test_reflected_cp2_reverses_the_frame():
    """A chart is oriented by its coordinates; reflecting x4 -> -x4 in the
    metric, the form and the domain is how a scenario reverses that.  On CP^2
    with its Kaehler form every verifier still passes, F and G trade places and
    R1234 changes sign at the same points of the manifold."""
    s = np.array([1.0, 1.0, 1.0, -1.0])
    g, comps = [["0"] * 4 for _ in range(4)], {}
    for (i, j), src in presets._CP2_ENTRIES.items():
        g[i][j] = g[j][i] = f"{s[i] * s[j]} * ({_reflect_x4(src)})"
    cp2 = presets.cp2_fubini_study()
    kaehler = presets.form_preset("kaehler", cp2)
    for key, expr in kaehler.items():
        i, j = int(key[0]) - 1, int(key[1]) - 1
        comps[key] = f"{s[i] * s[j]} * ({_reflect_x4(ex.to_string(expr))})"
    refl = charts.chart_from_strings(g, cp2.domain, "cp2_reflected")
    pts = sample_box(cp2.domain, 10, seed=31)
    fld, fld_r = TwoFormField(cp2, kaehler), TwoFormField(refl, comps)
    for fn in (verify.verify_component_bochner, verify.verify_lemma22,
               verify.verify_theorem21):
        assert fn(refl, fld_r, pts * s).passed, fn.__name__
    rep, rep_r = verify.verify_prop23(cp2, fld, pts), verify.verify_prop23(refl, fld_r, pts * s)
    assert rep.passed and rep_r.passed
    scale = np.max(np.abs(rep.samples["F"]) + np.abs(rep.samples["G"]))
    assert scale > 0.1
    assert np.max(np.abs(rep_r.samples["F"] - rep.samples["G"])) <= 1e-12 * scale
    assert np.max(np.abs(rep_r.samples["G"] - rep.samples["F"])) <= 1e-12 * scale
    assert np.max(np.abs(rep.samples["R1234"])) > 0.1
    assert np.max(np.abs(rep_r.samples["R1234"] + rep.samples["R1234"])) <= 1e-12


def test_percentile99_matches_numpy():
    """The Kato histogram's p99 is np.percentile's linear rule, bit for bit,
    on both sides of its t >= 0.5 branch."""
    rng = np.random.default_rng(29)
    for n in list(range(1, 301)) + [1024, 1025]:
        for _ in range(4):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            assert verify._percentile99(x) == float(np.percentile(x, 99))


def test_eq43_parallel_kaehler_passes():
    """On a parallel form every Eq 4.3 term is round-off; the pre-cancellation
    scale keeps that round-off from reading as a violation."""
    cp2 = presets.cp2_fubini_study()
    fld = TwoFormField(cp2, presets.form_preset("kaehler", cp2))
    rep = verify.verify_conformal_chain(cp2, fld, sample_box(cp2.domain, 8, seed=11), k=1.0)
    assert rep.extra["max_residual_eq43"] < 1e-12
    assert rep.passed


def test_eq43_bound_can_fail(conformal_scenario, monkeypatch):
    chart, fld = conformal_scenario
    pts = sample_box(chart.domain, 10, seed=24)
    assert verify.verify_conformal_chain(chart, fld, pts, k=1.0).passed
    action = forms.curvature_action_frame
    monkeypatch.setattr(forms, "curvature_action_frame",
                        lambda M, Ric, f6: -action(M, Ric, f6))
    rep = verify.verify_conformal_chain(chart, fld, pts, k=1.0)
    assert rep.extra["max_residual_eq43"] > 1e-5
    assert not rep.passed


def test_kato_histogram_keeps_three_halves_in_one_bin(conformal_scenario):
    """Every rho on the conformal product is 3/2 up to round-off; the bins put
    3/2 (and 1 and 2) at a bin centre, so one bin holds them all."""
    chart, fld = conformal_scenario
    scan = verify.kato_scan(chart, fld, sample_box(chart.domain, 256, seed=25))
    counts = scan["histogram"]["counts"]
    assert scan["valid_points"] > 200
    assert max(counts) == sum(counts) == scan["valid_points"]
    edges = np.array(scan["histogram"]["edges"])
    width = edges[1] - edges[0]
    for rho in (1.0, 1.5, 2.0):
        assert np.min(np.abs(edges - rho)) >= 0.25 * width


def test_kato_scan_builds_no_curvature(tmp_path, monkeypatch):
    """kato scan needs the frame, never the curvature tensor: with
    curvature_at made to raise it writes the same report and CSV."""
    from pathlib import Path

    from curv4 import cli

    sfile = str(Path(__file__).resolve().parents[1] / "scenarios" / "conformal_product.json")
    assert cli.main(["kato", "scan", "--scenario", sfile, "--out", str(tmp_path / "a")]) == 0

    def no_curvature(*args, **kwargs):
        raise AssertionError("kato scan built the curvature tensor")

    monkeypatch.setattr(verify, "curvature_at", no_curvature)
    assert cli.main(["kato", "scan", "--scenario", sfile, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "samples.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _shipped(name):
    """The chart and field of a shipped scenario."""
    from pathlib import Path

    from curv4 import scenario

    sc = scenario.load(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json")
    chart = sc.build_chart()
    return chart, sc.build_field(chart)


def _warm_peak(fn):
    """The tracemalloc peak of fn() after one warm call."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kato_scan_memory():
    """The tracemalloc peak of kato_scan on 512 points (two chunks) of the
    conformal_product scenario stays at or under 3.3 MB (2.76 MB measured):
    the second-order kernels hold d nabla phi (N, 4, 4, 4, 4) and a few
    derivative slices (N, 4, 4, 4) of temporaries, and the bundle keeps
    nabla phi at first order.  In one 512-point chunk it was 5.2 MB; with
    whole (N, 4, 4, 4, 4) arrays and their copies, 9.3 MB."""
    chart, fld = _shipped("conformal_product")
    pts = sample_box(chart.domain, 512, seed=7)
    peak = _warm_peak(lambda: verify.kato_scan(chart, fld, pts))
    assert peak <= 3.3e6, peak


@pytest.mark.parametrize("name, shipped, bound", [
    ("kato_scan", "conformal_product", 3.3e6), ("thm21", "conformal_product", 3.75e6),
    ("conformal", "conformal_product", 3.9e6), ("weitzenboeck", "round_s4_random", 3.4e6)],
    ids=["kato_scan", "thm21", "conformal", "weitzenboeck"])
def test_pointwise_batch_memory(name, shipped, bound):
    """The tracemalloc peak of the pointwise_batch benchmark's jobs on
    2 CHUNK points of their scenario, each bound the peak measured with
    256-point chunks plus about 20%: kato scan 2.76 MB, thm21 3.12 MB and
    weitzenboeck 2.85 MB.  verify conformal --k 2 traces 3.61 MB and is bound
    at 3.9 MB: built while the unprimed Geometry still held its Christoffel
    caches, its primed Geometry traced 4.04 MB.  In one 512-point chunk
    they were 5.23, 6.15, 7.75 and 5.60 MB."""
    chart, fld = _shipped(shipped)
    run = verify.kato_scan if name == "kato_scan" else VERIFIERS[name]
    pts = sample_box(chart.domain, 2 * charts.CHUNK, seed=7)
    peak = _warm_peak(lambda: run(chart, fld, pts))
    assert peak <= bound, peak


def test_weitzenboeck_forms_each_dgamma_slice_once(monkeypatch):
    """verify weitzenboeck feeds both Laplacians one nabla phi at first order
    (forms.nabla_two_form_jets), so each chunk forms each d Gamma slice once."""
    calls = []
    dgamma_slice = charts.Geometry.dgamma_slice
    monkeypatch.setattr(charts.Geometry, "dgamma_slice",
                        lambda geom, a: calls.append(a) or dgamma_slice(geom, a))
    chart, fld = _shipped("round_s4_random")
    verify.verify_weitzenboeck(chart, fld, sample_box(chart.domain, charts.CHUNK + 1, seed=7))
    assert calls == [0, 1, 2, 3] * 2


def test_conformal_forms_each_primed_nabla_once(monkeypatch):
    """verify conformal feeds the primed Hodge Laplacian and |nabla' phi|^2 one
    nabla' phi (forms.nabla_two_form_jets), so each chunk forms it once per k,
    on a primed Geometry of its own."""
    class Primed(charts.Geometry):
        pass

    calls = []
    for name in ("nabla_two_form_jets", "nabla_two_form_values"):
        monkeypatch.setattr(forms, name, lambda geom, c6, fn=getattr(forms, name):
                            calls.append(geom) or fn(geom, c6))
    monkeypatch.setattr(verify, "Geometry", Primed)
    chart, fld = _shipped("conformal_product")
    verify.conformal_sweep(chart, fld, sample_box(chart.domain, 2 * charts.CHUNK + 1, seed=7),
                           [0.0, 1.0, 2.0])
    primed = [geom for geom in calls if isinstance(geom, Primed)]
    assert len(primed) == 3 * 3 and len({id(geom) for geom in primed}) == 3 * 3


@pytest.mark.parametrize("name", ["eq22", "lemma22"])
def test_normal_chart_memory(name):
    """The tracemalloc peak of verify eq22 and lemma22 on 512 points (two
    chunks) of the conformal_product scenario stays at or under 6.5 MB (5.28
    and 5.38 MB measured; 10.5 and 10.7 MB in one 512-point chunk): the
    three congruences of the normal chart are graded matmuls of stacked
    (NCOEFF, N, 4, 4) jets.  Broadcast out to (NCOEFF, N, 4, 4, 4) before
    summing, they peaked at 21.4 and 21.6 MB in one 512-point chunk."""
    chart, fld = _shipped("conformal_product")
    pts = sample_box(chart.domain, 512, seed=7)
    peak = _warm_peak(lambda: VERIFIERS[name](chart, fld, pts))
    assert peak <= 6.5e6, peak
