"""Residual verification of the Bochner/Weitzenboeck/Kato identity suite.

Every verifier evaluates both sides of one identity through independent code
paths on a concrete (chart, 2-form) scenario and reports the worst residual,
relative to max(|LHS|, |RHS|, sum of term magnitudes, 1e-12).  The sign
dictionary in use is embedded in every report.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import InputError, forms, jets
from .charts import (Geometry, MetricChart, chart_is_periodic, curvature_at, map_chunks,
                     normal_chart, normal_chart_map, pullback_two_form)
from .forms import EMPTY_SCAN, SIGN_CONVENTIONS, TwoFormField
from .jets import Jet3
from .scenario import DEFAULT_TOLERANCES

RESIDUAL_FLOOR = 1e-12


class VerificationReport:
    """One verifier's verdict over its points: the worst absolute and relative
    residual, the tolerance that gates the relative one, the extra report
    fields and the per-point CSV columns (samples, led by x1..x4)."""

    def __init__(self, identity, scenario, samples, abs_res, rel_res, tol, extra):
        self.identity = identity
        self.scenario = scenario
        self.points_sampled = len(samples["x1"])
        self.max_abs_residual = float(np.max(abs_res))
        self.max_rel_residual = float(np.max(rel_res))
        self.tolerance = float(tol)
        self.passed = bool(np.all(rel_res <= tol))
        self.extra = extra
        self.samples = samples

    def to_dict(self):
        return {
            "identity": self.identity,
            "scenario": self.scenario,
            "points_sampled": self.points_sampled,
            "included": self.points_sampled,
            "excluded": [],
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "sign_conventions": dict(SIGN_CONVENTIONS),
            "extra": self.extra,
        }


def _rel(diff, *scales):
    """|diff| relative to the largest of the scales and RESIDUAL_FLOOR."""
    scale = RESIDUAL_FLOOR
    for s in scales:
        scale = np.maximum(scale, s)
    return np.abs(diff) / scale


def abs_jets(geom: Geometry, nsq: Jet3):
    """|psi|, the jet of |psi| and |d|psi||^2 from the jet nsq of |psi|^2: the
    one place |d|psi||^2 is formed.  Where |psi| = 0 the jet is that of 1 and
    |d|psi||^2 is NaN."""
    norm = np.sqrt(np.maximum(nsq.value, 0.0))
    zero = ~(norm > 0.0)
    c = nsq.c.copy()
    c[:, zero] = 1.0
    nj = jets.sqrt(Jet3(c), geom.pts)
    dnorm_sq = forms.grad_inner_values(geom, nj, nj)
    dnorm_sq[zero] = np.nan
    return norm, nj, dnorm_sq


def kato_ratio(num, norm, dnorm_sq, norm_max, frac):
    """(num / |d|psi||^2, admitted) under the one degeneracy rule: a point is
    admitted where |psi| > frac max|phi| and |d|psi||^2 > (1e-9 max|phi|)^2,
    with max|phi| over all of the run's points, so scaling the field changes no
    verdict; the ratio is NaN elsewhere."""
    admitted = (norm > frac * norm_max) & np.isfinite(dnorm_sq) \
        & (dnorm_sq > (1e-9 * norm_max)**2)
    rho = np.full(norm.shape, np.nan)
    rho[admitted] = num[admitted] / dnorm_sq[admitted]
    return rho, admitted


# -- shared scenario pipeline ---------------------------------------------------


class PointBundle(forms.PointValues):
    """The values of forms.PointValues and the jets the verifiers need at a
    batch of points, from the jets of g and of phi's components (c6) there, and
    the resolved tolerance table (scenario.DEFAULT_TOLERANCES and its
    overrides) that gates them."""

    def __init__(self, chart: MetricChart, fld: TwoFormField, pts, tols=DEFAULT_TOLERANCES):
        self.chart = chart
        self.field = fld
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))
        geom = Geometry.of_chart(chart, self.pts)
        self.c6 = fld.component_jets(self.pts)
        super().__init__(geom, self.c6[0], tols)

    @cached_property
    def hodge_values(self):
        return forms.hodge_laplacian_values(self.geom, self.c6)

    @cached_property
    def norm_sq_jet(self):
        return forms.norm_sq_jet(forms.raised_jets(self.geom, self.c6))

    @cached_property
    def grad_sq(self):
        """|nabla phi|^2, from nabla phi at first order."""
        return forms.nabla_norm_sq_values(self.geom.ginv_values,
                                          forms.nabla_two_form_values(self.geom, self.c6))

    @cached_property
    def abs_phi(self):
        """|phi|, the jet of |phi| and |d|phi||^2 (abs_jets)."""
        return abs_jets(self.geom, self.norm_sq_jet)

    @cached_property
    def fg_jets(self):
        """The jets of F = |phi|^2 + *(phi^phi) and G = |phi|^2 - *(phi^phi)."""
        wedge = forms.wedge_self_jet(self.geom, self.c6)
        return self.norm_sq_jet + wedge, self.norm_sq_jet - wedge

    @cached_property
    def phi_pm(self):
        """Coordinate components of phi+ = phi + *phi and phi- = phi - *phi."""
        star6 = forms.star_jets(self.geom, self.c6)
        return self.c6 + star6, self.c6 - star6

    @cached_property
    def nabla_pm_sq(self):
        """|nabla phi+|^2 and |nabla phi-|^2, each from its own nabla."""
        return tuple(forms.nabla_norm_sq_values(
            self.geom.ginv_values, forms.nabla_two_form_values(self.geom, c))
            for c in self.phi_pm)

    @cached_property
    def abs_phi_pm(self):
        """abs_jets of phi+ and of phi-, each |phi+-|^2 from its own raised form:
        2F and 2G cancel to round-off where phi is (anti-)self-dual."""
        return tuple(abs_jets(self.geom, forms.norm_sq_jet(forms.raised_jets(self.geom, c)))
                     for c in self.phi_pm)

    @cached_property
    def thm21_terms(self):
        """Delta(FG) and Theorem 2.1's right side term by term (forms.thm21_rhs)."""
        Fj, Gj = self.fg_jets
        F, G, _ = self.fg
        return (forms.scalar_laplacian_values(self.geom, Fj * Gj),
                forms.thm21_rhs(F, G, self.curvature_K["K"], *self.nabla_pm_sq,
                                forms.grad_inner_values(self.geom, Fj, Gj)))

    def harmonicity(self):
        """max |Delta_Hodge phi| and the scale |grad phi| + |phi| it is gated on."""
        hf = forms.frame_components(self.geom.frame, self.hodge_values)
        hmax = float(np.max(np.sqrt(np.sum(hf**2, axis=-1))))
        scale = float(np.max(np.sqrt(np.maximum(self.grad_sq, 0.0))
                             + np.sqrt(np.maximum(self.norm_sq_jet.value, 0.0))))
        return hmax, scale


def _pointwise(chart, fld, pts, tols, kernel, harmonic=True):
    """The one path of every pointwise verdict: kernel(b), a dict of per-point
    columns, on the PointBundle b of each CHUNK-point chunk of pts
    (map_chunks), concatenated after the coordinates x1..x4.  A harmonic
    verdict first passes the harmonicity gate over the whole run, max
    |Delta_Hodge phi| < tols["harmonicity"] max(|grad phi| + |phi|), or stops
    with InputError.  Returns the columns and the two maxima, as the report
    fields harmonicity_measured and harmonicity_scale.  A kernel never stops
    the run on its points' data: every other gate is the caller's, after this."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))

    def work(batch):
        b = PointBundle(chart, fld, batch, tols)
        return b.harmonicity() if harmonic else (0.0, 0.0), kernel(b)

    measured, parts = zip(*map_chunks(work, pts))
    hmax, scale = (max(m) for m in zip(*measured))
    tol = tols["harmonicity"]
    if scale > 0.0 and hmax >= tol * scale:  # the zero field is harmonic
        raise InputError(
            f"field is not harmonic: max |Delta_Hodge phi| = {hmax:.3e} "
            f">= {tol:g} * scale ({tol * scale:.3e})")
    cols = {f"x{i + 1}": pts[:, i] for i in range(4)}
    cols.update((name, np.concatenate([p[name] for p in parts])) for name in parts[0])
    return cols, {"harmonicity_measured": hmax, "harmonicity_scale": scale}


# -- Weitzenboeck (the curvature-action identity) --------------------------------


def verify_weitzenboeck(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    def kernel(b):
        nabla = forms.nabla_two_form_jets(b.geom, b.c6)
        hv_f = forms.frame_components(b.slate.frame,
                                      forms.hodge_laplacian_values(b.geom, b.c6, T=nabla))
        rough = forms.rough_laplacian_values(b.geom, b.c6, T=nabla)
        rough_f = forms.frame_components(b.slate.frame, rough)
        qR = forms.curvature_action_frame(b.slate.M, b.slate.Ric, b.frame_values)
        # Delta_Hodge phi = -trace(nabla^2 phi) + q(R) phi
        lhs = hv_f
        rhs = -rough_f + qR
        scale = (np.max(np.abs(hv_f), axis=-1) + np.max(np.abs(rough_f), axis=-1)
                 + np.max(np.abs(qR), axis=-1)
                 + (1.0 + b.rmax) * np.max(np.abs(b.frame_values), axis=-1))
        abs_res = np.max(np.abs(lhs - rhs), axis=-1)
        return {"abs_res": abs_res, "residual": _rel(abs_res, scale)}

    cols, _ = _pointwise(chart, fld, pts, tols, kernel, harmonic=False)
    return VerificationReport("weitzenboeck_eq21", scenario, cols, cols.pop("abs_res"),
                              cols["residual"], tols["weitzenboeck"],
                              {"delta_used": "hodge (= -trace nabla^2 + q(R))"})


# -- component Bochner in a radially parallel normal frame -----------------------


def parallel_frame_jets(geom_nc: Geometry):
    """Radially parallel orthonormal frame at a normal chart's origin, as
    stacked jets [..., i, k] of e_k^i.

    e_k^i(y) = delta_ik - 1/2 dGamma'^i_{ck}/dy_d |_0 y_d y_c + O(y^3); the
    O(y^3) terms cannot influence second derivatives at the origin.
    """
    dG = np.stack([geom_nc.dgamma_slice(d) for d in range(4)], axis=-4)  # [..., d, i, c, k]
    batch = dG.shape[:-4]
    return Jet3.quadratic(np.broadcast_to(np.eye(4), batch + (4, 4)),
                          np.zeros(batch + (4, 4, 4)),
                          -0.5 * np.einsum("...dick->...ikdc", dG)).c


def _parallel_frame_fields(b: PointBundle, basis):
    """Normal-chart geometry and parallel-frame components at every point.

    Returns (geom_nc, fj, gmax): fj[..., k, l] are the stacked jets of
    f_kl = phi(e_k, e_l) along the radially parallel frame e, and gmax the
    per-point max |Gamma'(0)|, for _normal_gamma_gate.
    """
    xj = normal_chart_map(b.geom, basis)
    geom_nc = normal_chart(b.chart, xj)
    gmax = np.max(np.abs(geom_nc.gamma_values), axis=(-1, -2, -3))
    fj = jets.congruence(parallel_frame_jets(geom_nc), pullback_two_form(b.field.components, xj))
    return geom_nc, fj, gmax


def _normal_gamma_gate(gmax, tols):
    """max gmax over the run, or InputError at the first point where the
    normal chart's max |Gamma'(0)| reaches tols["normal_gamma"]."""
    bad = gmax >= tols["normal_gamma"]
    if np.any(bad):
        raise InputError(f"normal-chart quality gate failed: Gamma'(0) = "
                         f"{gmax[np.argmax(bad)]:.2e}")
    return float(np.max(gmax))


def verify_component_bochner(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    def kernel(b):
        geom_nc, fj, gmax = _parallel_frame_fields(b, b.slate.frame)
        pairs = forms.pair_components_values(fj)
        lapm = forms.full_matrix_values(forms.scalar_laplacian_values(geom_nc, Jet3(pairs)))
        f6 = pairs[0]
        fmat = forms.full_matrix_values(f6)
        # sum_pq R_kplq f_pq = (M f)_(kl) by the first Bianchi identity
        Ric = b.slate.Ric
        rhs = (Ric @ fmat + fmat @ np.swapaxes(Ric, -1, -2)
               - 2.0 * forms.full_matrix_values((b.slate.M @ f6[..., None])[..., 0]))
        abss = np.max(np.abs(lapm - rhs), axis=(-1, -2))
        rels = _rel(abss, np.max(np.abs(lapm), axis=(-1, -2)),
                    np.max(np.abs(rhs), axis=(-1, -2)),
                    np.max(np.abs(Ric), axis=(-1, -2)) * np.max(np.abs(fmat), axis=(-1, -2)))
        return {"abs_res": abss, "residual": rels, "gamma": gmax}

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    gamma = _normal_gamma_gate(cols.pop("gamma"), tols)
    return VerificationReport(
        "component_bochner_eq22", scenario, cols, cols.pop("abs_res"), cols["residual"],
        tols["eq22"], {**harm, "normal_gamma_max": gamma,
                       "delta_used": "function laplacian of parallel-frame components"})


# -- Lemma 2.2 and Proposition 2.3 ------------------------------------------------


def verify_lemma22(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    """Delta f1 = 2(K f1 - R1234 f2), Delta f2 = 2(K f2 - R1234 f1) in the
    adapted, radially parallel normal frame."""
    from . import canonical

    def kernel(b):
        adapted = b.adapted
        geom_nc, fj, gmax = _parallel_frame_fields(b, b.slate.frame @ adapted.basis)
        Mn = curvature_at(geom_nc).M
        K, R1234 = canonical._k_r(Mn)
        f = Jet3(forms.pair_components_values(fj)[..., [0, 5]])  # f1 = f_12, f2 = f_34
        (v1, v2), (lap1, lap2) = f.value.T, forms.scalar_laplacian_values(geom_nc, f).T
        r1 = lap1 - 2.0 * (K * v1 - R1234 * v2)
        r2 = lap2 - 2.0 * (K * v2 - R1234 * v1)
        lap_scale = np.sum(forms.scalar_laplacian_scale(geom_nc, f), axis=-1)
        rmax = np.max(np.abs(Mn), axis=(-1, -2))
        abss = np.maximum(np.abs(r1), np.abs(r2))
        rels = _rel(abss, lap_scale,
                    (2 * np.abs(K) + 2 * np.abs(R1234) + rmax) * (np.abs(v1) + np.abs(v2)))
        return {"abs_res": abss, "residual": rels, "K": K, "R1234": R1234,
                "degenerate": adapted.degenerate, "gamma": gmax}

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    _normal_gamma_gate(cols.pop("gamma"), tols)
    return VerificationReport(
        "lemma22", scenario, cols, cols.pop("abs_res"), cols["residual"], tols["lemma22"],
        {**harm, "delta_used": "function laplacian in adapted parallel frame",
         "degenerate_points": int(cols["degenerate"].sum())})


def verify_prop23(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    """Delta F = |nabla phi+|^2 + 4(K - R1234) F and the G-side analogue.

    At SD/ASD-degenerate points the side whose curvature factor multiplies the
    vanishing scalar stays fully determined; the other side enters the report
    only at non-degenerate points (it is still recorded per point).
    """
    def kernel(b):
        Fj, Gj = b.fg_jets
        dF = forms.scalar_laplacian_values(b.geom, Fj)
        dG = forms.scalar_laplacian_values(b.geom, Gj)
        np_sq, nm_sq = b.nabla_pm_sq
        K, R1234 = b.curvature_K["K"], b.curvature_K["R1234"]
        Fv, Gv, fg_scale = b.fg
        curvF = 4.0 * (K - R1234) * Fv
        curvG = 4.0 * (K + R1234) * Gv
        curv_scale = (4.0 * (np.abs(K) + np.abs(R1234)) + b.rmax) * fg_scale
        res28 = _rel(dF - np_sq - curvF, np.abs(dF), forms.scalar_laplacian_scale(b.geom, Fj),
                     np.abs(np_sq), curv_scale)
        res29 = _rel(dG - nm_sq - curvG, np.abs(dG), forms.scalar_laplacian_scale(b.geom, Gj),
                     np.abs(nm_sq), curv_scale)
        return {"abs_res": np.abs(dF - np_sq - curvF) + np.abs(dG - nm_sq - curvG),
                "residual_eq28": res28, "residual_eq29": res29, "K": K, "R1234": R1234,
                "F": Fv, "G": Gv, "degenerate": b.adapted.degenerate}

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    res28, res29 = cols["residual_eq28"], cols["residual_eq29"]
    # Both sides stay determined at degenerate points: (K - R1234) is frame
    # invariant when phi- = 0 and multiplies F = 0 when phi+ = 0 (and dually),
    # so the ambiguous part of K never touches a nonzero factor.
    return VerificationReport(
        "prop23_eq28_eq29", scenario, cols, cols.pop("abs_res"), np.maximum(res28, res29),
        tols["prop23"],
        {**harm, "delta_used": "function laplacian (trace Hessian)",
         "degenerate_points": int(cols["degenerate"].sum()),
         "max_residual_eq28": float(np.max(res28)), "max_residual_eq29": float(np.max(res29))})


def verify_theorem21(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    """Delta(FG) = 8 K F G + G|nabla phi+|^2 + F|nabla phi-|^2 + 2<dF, dG>,
    plus the Schwarz combination check at points where the Kato premise holds."""
    def kernel(b):
        Fj, Gj = b.fg_jets
        F, G, fg_scale = b.fg
        dFG, terms = b.thm21_terms
        _, g_np, f_nm, cross2 = terms
        rhs = sum(terms)
        K = b.curvature_K["K"]
        rel = _rel(dFG - rhs, np.abs(dFG), forms.scalar_laplacian_scale(b.geom, Fj * Gj),
                   (8.0 * np.abs(K) + b.rmax) * fg_scale**2,
                   np.abs(g_np), np.abs(f_nm), np.abs(cross2))
        dF_sq = forms.grad_inner_values(b.geom, Fj, Fj)
        dG_sq = forms.grad_inner_values(b.geom, Gj, Gj)
        cols = {"abs_res": np.abs(dFG - rhs), "residual": rel, "K": K, "F": F, "G": G,
                "schwarz_combo": g_np + f_nm + cross2,
                "schwarz_floor": 2.0 * np.sqrt(np.maximum(dF_sq * dG_sq, 0.0)) + cross2,
                "comb_scale": g_np + f_nm + np.abs(cross2) + RESIDUAL_FLOOR,
                "norm": b.abs_phi[0]}
        for side, (norm, _, dnorm_sq), gsq in zip("+-", b.abs_phi_pm, b.nabla_pm_sq):
            cols.update({"norm" + side: norm, "dnorm_sq" + side: dnorm_sq, "gsq" + side: gsq})
        return cols

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    # Schwarz combination: at points where the measured Kato ratios of phi+-
    # reach 2, G|nph+|^2 + F|nph-|^2 + 2<dF,dG> >= 2|dF||dG| + 2<dF,dG> >= 0.
    # A point the degeneracy rule does not admit for phi+ (or phi-) leaves
    # that side of the premise vacuous.
    norm_max = float(np.max(cols.pop("norm")))
    premise = np.ones(len(cols["x1"]), dtype=bool)
    for side in "+-":
        rho, admitted = kato_ratio(cols.pop("gsq" + side), cols.pop("norm" + side),
                                   cols.pop("dnorm_sq" + side), norm_max, tols["degeneracy_frac"])
        premise &= ~admitted | (rho >= 2.0)
    combo, floor = cols["schwarz_combo"][premise], cols["schwarz_floor"][premise]
    slack = 1e-9 * cols.pop("comb_scale")[premise]
    schwarz_ok = bool(np.all(combo >= floor - slack)) and bool(np.all(floor >= -slack))
    cols["premise_rho_ge_2"] = premise
    return VerificationReport(
        "theorem21_eq23", scenario, cols, cols.pop("abs_res"), cols["residual"], tols["thm21"],
        {**harm, "schwarz_ok_under_premise": schwarz_ok, "premise_points": int(np.sum(premise))})


# -- Kato scan --------------------------------------------------------------------


def kato_scan(chart, fld, pts, scenario="inline", tols=DEFAULT_TOLERANCES):
    def kernel(b):
        norm, _, dnorm_sq = b.abs_phi
        return {"grad_sq": b.grad_sq, "norm": norm, "dnorm_sq": dnorm_sq}

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    norm_max = float(np.max(cols["norm"]))
    rho, valid = kato_ratio(cols["grad_sq"], cols["norm"], cols["dnorm_sq"], norm_max,
                            tols["degeneracy_frac"])
    n_valid = int(valid.sum())
    result = {
        "scenario": scenario,
        "points_sampled": len(rho),
        "valid_points": n_valid,
        "excluded_points": len(rho) - n_valid,
        "norm_floor": tols["degeneracy_frac"] * norm_max,
        "harmonicity_measured": harm["harmonicity_measured"],
        "sign_conventions": dict(SIGN_CONVENTIONS),
    }
    if n_valid == 0:
        return {**result, "empty_scan": EMPTY_SCAN, "min_rho": None, "samples": {}}
    rv = rho[valid]
    hist, edges = np.histogram(rv, bins=_kato_bin_edges(_percentile99(rv)))
    return {
        **result,
        "min_rho": float(np.min(rv)),
        "classical_kato_ok": bool(np.min(rv) >= 1.0 - tols["kato_classical"]),
        "lemma41_floor_ok": bool(np.min(rv) >= 1.5 - tols["kato_lemma41"]),
        "fraction_rho_below_2": float(np.mean(rv < 2.0)),
        "open_question_rho_ge_2": bool(np.min(rv) >= 2.0),
        "histogram": {"counts": hist.tolist(), "edges": edges.tolist()},
        "samples": {**cols, "rho": rho},
    }


def _percentile99(x):
    """float(np.percentile(x, 99)) for a nonempty finite 1-d x, by numpy's
    linear rule, without the numpy.ma import that np.percentile pays for."""
    v = (len(x) - 1) * 0.99
    i, k = int(v), min(int(v) + 1, len(x) - 1)
    lo, hi = np.partition(x, [i, k])[[i, k]]
    t = v - i
    return float(hi - (hi - lo) * (1.0 - t) if t >= 0.5 else lo + (hi - lo) * t)


def _kato_bin_edges(p99, bins=24):
    """Edges of `bins` bins of width 1/(2m) from 1 - 1/(4m), so rho = 1, 3/2 and 2
    sit at bin centres and round-off never splits them; m is the largest
    integer (at least 1) for which the bins still reach max(2.5, p99).  Past
    that reach (p99 > 12.75) the last bin is widened to end at p99."""
    hi = max(2.5, p99)
    m = max(1, int((bins - 0.5) * 0.5 // (hi - 1.0)))
    width = 0.5 / m
    edges = 1.0 - 0.5 * width + width * np.arange(bins + 1)
    edges[-1] = max(edges[-1], hi)
    return edges


# -- conformal chain (Eqs. 4.2, 4.3, 4.6, 4.9) -------------------------------------


def verify_conformal_chain(chart, fld, pts, k, scenario="inline", tols=DEFAULT_TOLERANCES):
    return conformal_sweep(chart, fld, pts, [k], scenario, tols)[0]


def conformal_sweep(chart, fld, pts, ks, scenario="inline", tols=DEFAULT_TOLERANCES):
    """verify_conformal_chain at each k of ks from one PointBundle per chunk, whose
    gate, |phi| and geometry do not depend on k; each report is the one-k run's.
    A chunk runs the unprimed phase of every k, then drops the bundle's
    Christoffel caches and runs the primed phases, one primed Geometry at a
    time."""
    ks = [float(k) for k in ks]

    def kernel(b):
        unprimed = [_conformal_unprimed(b, k) for k in ks]
        b.geom.release_derivatives()
        return {(i, name): col for i, (k, part) in enumerate(zip(ks, unprimed))
                for name, col in _conformal_primed(b, k, part).items()}

    cols, harm = _pointwise(chart, fld, pts, tols, kernel)
    xs = {name: cols.pop(name) for name in ("x1", "x2", "x3", "x4")}
    return [_conformal_report({**xs, **{name: col for (j, name), col in cols.items() if j == i}},
                              harm, k, pts, scenario, tols)
            for i, k in enumerate(ks)]


def _conformal_jets(b, k):
    """(nsq, r, pw, f, u) at k on bundle b: the jet nsq of |phi|^2, r = |phi|,
    pw = |phi|^3k, and the jets of f = (k/4) log |phi|^2 (so exp(2f) = |phi|^k)
    and u = |phi|^(2 - 2k).  A point that the degeneracy floor or the |phi|^3k
    range check will reject stands in as |phi| = 1, so neither a log of 0 nor
    an overflow comes before the harmonicity gate.  Each phase of the chain
    forms them afresh, so no per-k jet waits through the other k's phases."""
    norm = b.abs_phi[0]
    with np.errstate(over="ignore", divide="ignore"):
        pw = np.power(norm, 3.0 * k)
    live = (norm > 0.0) & (pw >= 1e-280) & (pw <= 1e280)
    nsq = Jet3(np.where(live, b.norm_sq_jet.c, 1.0))
    return (nsq, np.where(live, norm, 1.0), np.where(live, pw, 1.0),
            (k / 4.0) * jets.log(nsq, b.pts), jets.powr(nsq, 1.0 - k, b.pts))


def _conformal_unprimed(b, k):
    """The residual columns of Eqs 4.2 and 4.3 and the terms t46a, t46b of Eq
    4.6's right side at k on bundle b: all of the chain that needs the
    unprimed Christoffel symbols."""
    _, phin, dphi_sq = b.abs_phi
    nsq, r, _, fj, u = _conformal_jets(b, k)
    grad_sq = b.grad_sq

    # Eq 4.2 (pure chain rule in the unprimed metric)
    lap_f = forms.scalar_laplacian_values(b.geom, fj)
    df_sq = forms.grad_inner_values(b.geom, fj, fj)
    lhs42 = 2.0 * (-lap_f - df_sq) * nsq.value
    t42a = -k * r * forms.scalar_laplacian_values(b.geom, phin)
    t42b = (k - k * k / 2.0) * dphi_sq
    rhs42 = t42a + t42b
    res42 = _rel(lhs42 - rhs42, np.abs(lhs42), np.abs(rhs42), np.abs(t42a) + np.abs(t42b))

    # Eq 4.3 (Bochner formula defining the curvature term, unprimed)
    # <phi, Delta_Hodge phi> uses the Hodge sign.  On a parallel form every
    # term is round-off, so the residual is measured against the
    # pre-cancellation scale (1 + max|R|)|phi|^2 + scale of Delta|phi|^2,
    # as in Weitzenboeck.
    lap_nsq = forms.scalar_laplacian_values(b.geom, nsq)
    hodge_inner = forms.inner_values(b.geom.ginv_values, b.c6[0], b.hodge_values)
    qR = forms.curvature_action_frame(b.slate.M, b.slate.Ric, b.frame_values)
    Fphi = np.sum(qR * b.frame_values, axis=-1)
    lhs43 = 0.5 * lap_nsq + hodge_inner
    rhs43 = grad_sq + Fphi
    res43 = _rel(lhs43 - rhs43, np.abs(lhs43), np.abs(rhs43),
                 np.abs(grad_sq) + np.abs(Fphi) + np.abs((1.0 + b.rmax) * nsq.value)
                 + np.abs(forms.scalar_laplacian_scale(b.geom, nsq)))

    # Eq 4.6's right side (the unprimed function Laplacian)
    t46a = np.power(r, -k) * forms.scalar_laplacian_values(b.geom, u)
    t46b = 2.0 * (k - k * k) * np.power(r, -3.0 * k) * dphi_sq
    return {"residual_eq42": res42, "residual_eq43": res43, "t46a": t46a, "t46b": t46b}


def _conformal_primed(b, k, unprimed):
    """The per-point columns of Eqs 4.2, 4.3, 4.6 and 4.9 at k, from the
    columns of _conformal_unprimed and the primed metric g' = |phi|^k g run
    through the full geometry pipeline; of b's geometry it reads only the
    metric jets."""
    norm, _, dphi_sq = b.abs_phi
    _, _, pw, fj, u = _conformal_jets(b, k)
    scale_jet = jets.exp(2.0 * fj)
    geomp = Geometry((Jet3(scale_jet.c[..., None, None]) * Jet3(b.geom.gc)).c, b.pts)
    # nabla' phi once, for the primed Hodge Laplacian and |nabla' phi|^2
    nabla_p = forms.nabla_two_form_jets(geomp, b.c6)
    hodge_p = forms.hodge_laplacian_values(geomp, b.c6, T=nabla_p)

    # Eq 4.6 (conformal change of the function Laplacian)
    t46a, t46b = unprimed.pop("t46a"), unprimed.pop("t46b")
    lhs46 = forms.scalar_laplacian_values(geomp, u)
    rhs46 = t46a + t46b
    res46 = _rel(lhs46 - rhs46, np.abs(lhs46), np.abs(rhs46), np.abs(t46a) + np.abs(t46b))

    # Eq 4.9 (the end identity)
    grad_sq_p = forms.nabla_norm_sq_values(geomp.ginv_values, nabla_p[0])
    lhs49_a = b.grad_sq
    lhs49_b = (1.5 * k * k - 3.0 * k) * dphi_sq
    lhs49 = lhs49_a + lhs49_b
    rhs49 = pw * grad_sq_p
    res49 = _rel(lhs49 - rhs49, np.abs(lhs49), np.abs(rhs49),
                 np.abs(lhs49_a) + np.abs(lhs49_b) + np.abs(rhs49))
    return {**unprimed, "residual_eq46": res46, "residual_eq49": res49,
            "abs_res": np.abs(lhs49 - rhs49), "lhs49": lhs49, "norm": norm, "dnorm_sq": dphi_sq,
            "primed_harmonicity": np.max(np.abs(hodge_p), axis=-1)}


def _conformal_report(cols, harm, k, pts, scenario, tols):
    """The run-wide gates and the report at k, from the columns of every chunk."""
    norm, dphi_sq = cols.pop("norm"), cols.pop("dnorm_sq")
    norm_max = float(np.max(norm))
    floor = tols["degeneracy_frac"] * norm_max
    if np.any(norm <= floor):
        raise InputError(f"|phi| below degeneracy floor at point "
                         f"{jets._first_bad(norm <= floor, pts)}")
    with np.errstate(over="raise", under="ignore"):
        try:
            pw = np.power(norm, 3.0 * k)
        except FloatingPointError:
            raise InputError(f"|phi|^{3 * k:g} overflows at sampled points") from None
    if np.any(pw < 1e-280) or np.any(pw > 1e280):
        raise InputError(f"|phi|^{3 * k:g} leaves the representable range")

    # Delta' phi = 0 is gated on the scale of the g-gate carried into g' by
    # its conformal weight |phi|^-k, so no constant fixes its units
    hp = float(np.max(cols.pop("primed_harmonicity")))
    hp_scale = harm["harmonicity_scale"] * float(np.max(np.power(norm, -k)))
    ratio, ok = kato_ratio(cols.pop("lhs49"), norm, dphi_sq, norm_max, tols["degeneracy_frac"])
    cols["lhs49_over_dnorm"] = ratio
    res = {n: cols[f"residual_eq{n}"] for n in (42, 43, 46, 49)}
    extra = {
        "k": k,
        "conformal_factor": "exp(2f) = |phi|^k",
        "harmonicity_measured": harm["harmonicity_measured"],
        "primed_harmonicity": hp,
        "primed_harmonicity_ok": bool(hp < 1e-8 * hp_scale),
        **{f"max_residual_eq{n}": float(np.max(r)) for n, r in res.items()},
        "min_lhs49_over_dnorm": float(np.nanmin(ratio)) if np.any(ok) else None,
        "delta_used": "function laplacian; <phi, Delta phi> uses the Hodge sign",
    }
    return VerificationReport("conformal_chain_eq42_43_46_49", scenario, cols, cols.pop("abs_res"),
                              np.maximum.reduce(list(res.values())), tols["conformal"], extra)


# -- analytic integral mechanism ---------------------------------------------------


def integral_identity_analytic(chart, fld, n_per_axis=10, scenario="inline",
                               margin=0.05, tols=DEFAULT_TOLERANCES):
    """Quadrature of Delta(FG), 8KFG and the remainder over the chart box.

    For periodic charts on (0, 2pi)^4 the trapezoid rule makes this the closed-
    manifold integral; otherwise the result is a box integral and flagged so.
    The balance residual passes at most tols["thm21"] times the integral of
    thm21's curvature scale (8|K| + max|R|) (|phi|^2 + |*(phi^phi)|)^2, taken
    with the same weights (balance_scale).
    """
    periodic = chart_is_periodic(chart)
    axes, weights = [], 1.0
    for (lo, hi) in chart.domain:
        if periodic:
            x = lo + (hi - lo) * np.arange(n_per_axis) / n_per_axis
        else:
            shrink = (hi - lo) * margin
            x = np.linspace(lo + shrink, hi - shrink, n_per_axis)
        axes.append(x)
        weights *= (x[1] - x[0])
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)

    def kernel(b):
        dFG, (kfg, *terms) = b.thm21_terms
        rem = sum(terms)
        scale = (8.0 * np.abs(b.curvature_K["K"]) + b.rmax) * b.fg[2]**2
        return {"dFG": dFG * b.sqrt_det, "kfg": kfg * b.sqrt_det, "rem": rem * b.sqrt_det,
                "scale": scale * b.sqrt_det, "neg": rem < -1e-12}

    # each point's contributions, summed once over all points
    cols, _ = _pointwise(chart, fld, grid, tols, kernel)
    I_dFG, I_kfg, I_rem, I_scale = (weights * np.sum(cols[name])
                                    for name in ("dFG", "kfg", "rem", "scale"))
    balance = abs(I_dFG - I_kfg - I_rem)
    return {
        "scenario": scenario,
        "closed_manifold": bool(periodic),
        "quadrature_points": int(len(grid)),
        "integral_delta_FG": float(I_dFG),
        "integral_8KFG": float(I_kfg),
        "integral_remainder": float(I_rem),
        "balance_residual": float(balance),
        "balance_scale": float(I_scale),
        "tolerance": float(tols["thm21"]),
        "passed": bool(balance <= tols["thm21"] * I_scale),
        "negative_remainder_points": int(np.sum(cols["neg"])),
        "sign_conventions": dict(SIGN_CONVENTIONS),
    }
