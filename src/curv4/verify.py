"""Residual verification of the Bochner/Weitzenboeck/Kato identity suite.

Every verifier evaluates both sides of one identity through independent code
paths on a concrete (chart, 2-form) scenario and reports the worst residual,
relative to max(|LHS|, |RHS|, sum of term magnitudes, 1e-12).  The sign
dictionary in use is embedded in every report.
"""

from __future__ import annotations

import os

import numpy as np

from . import InputError, forms, jets
from .charts import (CurvatureSlate, Geometry, MetricChart, chart_is_periodic,
                     curvature_at, normal_chart, normal_chart_map, pullback_two_form,
                     sample_box, sqrt_det_values)
from .forms import EMPTY_SCAN, PAIRS, SIGN_CONVENTIONS, TwoFormField
from .jets import Jet3
from .scenario import DEFAULT_TOLERANCES

RESIDUAL_FLOOR = 1e-12


class VerificationReport:
    def __init__(self, identity, scenario, points_sampled, included, excluded,
                 max_abs_residual, max_rel_residual, tolerance, passed,
                 sign_conventions=None, extra=None, samples=None):
        self.identity = identity
        self.scenario = scenario
        self.points_sampled = points_sampled
        self.included = included
        self.excluded = excluded
        self.max_abs_residual = max_abs_residual
        self.max_rel_residual = max_rel_residual
        self.tolerance = tolerance
        self.passed = passed
        self.sign_conventions = dict(SIGN_CONVENTIONS) if sign_conventions is None \
            else sign_conventions
        self.extra = {} if extra is None else extra
        self.samples = [] if samples is None else samples

    def to_dict(self):
        return {
            "identity": self.identity,
            "scenario": self.scenario,
            "points_sampled": self.points_sampled,
            "included": self.included,
            "excluded": self.excluded,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "sign_conventions": self.sign_conventions,
            "extra": self.extra,
        }


def thread_cap():
    try:
        return max(1, int(os.environ.get("CURV4_THREADS", "1")))
    except ValueError:
        return 1


def map_chunks(fn, pts, chunk=2048):
    """Apply fn to point chunks, optionally threaded, merged in order."""
    pts = np.asarray(pts)
    chunks = [pts[i:i + chunk] for i in range(0, len(pts), chunk)]
    cap = thread_cap()
    if cap <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(fn, chunks))


def rel_residual(lhs, rhs, *terms):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    if terms:
        scale = np.maximum(scale, sum(np.abs(np.asarray(t, dtype=float)) for t in terms))
    return np.abs(lhs - rhs) / np.maximum(scale, RESIDUAL_FLOOR)


# -- shared scenario pipeline ---------------------------------------------------


class PointBundle:
    """Everything the verifiers need at a batch of points."""

    def __init__(self, chart: MetricChart, fld: TwoFormField, pts, geom=None):
        self.chart = chart
        self.field = fld
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self.geom = geom if geom is not None else Geometry.of_chart(chart, self.pts)
        self.c6 = fld.component_jets(self.pts)
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def slate(self) -> CurvatureSlate:
        return self._get("slate", lambda: curvature_at(self.geom,
                                                       orientation=self.chart.orientation))

    @property
    def lambda2(self):
        return self._get("q", lambda: forms.lambda2_metric(self.geom.ginv))

    @property
    def coord_values(self):
        return self._get("cv", lambda: np.stack([c.value for c in self.c6], axis=-1))

    @property
    def frame_values(self):
        return self._get("fv", lambda: forms.frame_components(self.slate.frame,
                                                              self.coord_values))

    @property
    def hodge_values(self):
        return self._get("hodge", lambda: forms.hodge_laplacian_values(
            self.geom, self.c6, T=self.nabla))

    @property
    def norm_sq_jet(self):
        return self._get("nsq", lambda: forms.norm_sq_jet(self.geom, self.c6, self.lambda2))

    @property
    def nabla(self):
        return self._get("nabla", lambda: forms.nabla_two_form_jets(self.geom, self.c6))

    @property
    def grad_sq(self):
        return self._get("gradsq", lambda: forms.nabla_norm_sq_values(
            self.geom.ginv, self.nabla[0], self.lambda2))

    def harmonicity(self):
        """max |Delta_Hodge phi| and the scale |grad phi| + |phi| it is gated on."""
        hf = forms.frame_components(self.slate.frame, self.hodge_values)
        hmax = float(np.max(np.sqrt(np.sum(hf**2, axis=-1)))) if hf.size else 0.0
        scale = float(np.max(np.sqrt(np.maximum(self.grad_sq, 0.0))
                             + np.sqrt(np.maximum(self.norm_sq_jet.value, 0.0))))
        return hmax, scale

    def require_harmonic(self, tol):
        hmax, scale = self.harmonicity()
        if scale == 0.0:
            return hmax, scale  # the zero field is harmonic
        if hmax >= tol * scale:
            raise InputError(
                f"field is not harmonic: max |Delta_Hodge phi| = {hmax:.3e} "
                f">= {tol:g} * scale ({tol * scale:.3e})")
        return hmax, scale


def make_bundle(chart, fld, count, margin=0.05, seed=0):
    pts = sample_box(chart.domain, count, margin, seed)
    return PointBundle(chart, fld, pts)


# -- Weitzenboeck (the curvature-action identity) --------------------------------


def verify_weitzenboeck(chart, fld, pts, tol=None, scenario="inline"):
    tol = DEFAULT_TOLERANCES["weitzenboeck"] if tol is None else tol
    b = PointBundle(chart, fld, pts)
    hv_f = forms.frame_components(b.slate.frame, b.hodge_values)
    rough = forms.rough_laplacian_values(b.geom, b.c6, T=b.nabla)
    rough_f = forms.frame_components(b.slate.frame, rough)
    qR = forms.curvature_action_frame(b.slate.R, b.frame_values)
    # Delta_Hodge phi = -trace(nabla^2 phi) + q(R) phi
    lhs = hv_f
    rhs = -rough_f + qR
    rmax = np.max(np.abs(b.slate.R), axis=(-1, -2, -3, -4))
    scale = (np.max(np.abs(hv_f), axis=-1) + np.max(np.abs(rough_f), axis=-1)
             + np.max(np.abs(qR), axis=-1)
             + (1.0 + rmax) * np.max(np.abs(b.frame_values), axis=-1))
    abs_res = np.max(np.abs(lhs - rhs), axis=-1)
    rel = abs_res / np.maximum(scale, RESIDUAL_FLOOR)
    samples = [_row(b.pts[n], {"residual": rel[n]}) for n in range(len(b.pts))]
    return _report("weitzenboeck_eq21", scenario, b.pts, [], abs_res, rel, tol,
                   extra={"delta_used": "hodge (= -trace nabla^2 + q(R))"},
                   samples=samples)


# -- component Bochner in a radially parallel normal frame -----------------------


def parallel_frame_jets(geom_nc: Geometry):
    """Radially parallel orthonormal frame at a normal chart's origin, as
    stacked jets [..., i, k, :] of e_k^i.

    e_k^i(y) = delta_ik - 1/2 dGamma'^i_{ck}/dy_d |_0 y_d y_c + O(y^3); the
    O(y^3) terms cannot influence second derivatives at the origin.
    """
    dG = geom_nc.dgamma_values  # [..., d, i, c, k]
    batch = dG.shape[:-4]
    return Jet3.quadratic(np.broadcast_to(np.eye(4), batch + (4, 4)),
                          np.zeros(batch + (4, 4, 4)),
                          -0.5 * np.einsum("...dick->...ikdc", dG)).c


def _parallel_frame_fields(b: PointBundle, basis, gamma_tol):
    """Normal-chart geometry and parallel-frame components at every point.

    Returns (geom_nc, fj, gmax): fj[..., k, l, :] are the stacked jets of
    f_kl = phi(e_k, e_l) along the radially parallel frame e, and gmax the
    per-point max |Gamma'(0)|, gated by gamma_tol.
    """
    xj = normal_chart_map(b.geom, basis)
    geom_nc = normal_chart(b.chart, xj)
    gmax = np.max(np.abs(geom_nc.gamma_values), axis=(-1, -2, -3))
    if np.any(gmax >= gamma_tol):
        worst = gmax[np.argmax(gmax >= gamma_tol)]
        raise InputError(f"normal-chart quality gate failed: Gamma'(0) = {worst:.2e}")
    c6n = pullback_two_form(b.field.components, xj)
    fj = jets.congruence(parallel_frame_jets(geom_nc),
                         jets.antisymmetric([u.c for u in c6n], PAIRS))
    return geom_nc, fj, gmax


def verify_component_bochner(chart, fld, pts, tol=None, scenario="inline",
                             harmonicity_tol=None, gamma_tol=None):
    tol = DEFAULT_TOLERANCES["eq22"] if tol is None else tol
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    gamma_tol = DEFAULT_TOLERANCES["normal_gamma"] if gamma_tol is None else gamma_tol
    b = PointBundle(chart, fld, pts)
    hmax, hscale = b.require_harmonic(harmonicity_tol)
    geom_nc, fj, gmax = _parallel_frame_fields(b, b.slate.frame, gamma_tol)
    fmat = np.zeros(b.pts.shape[:-1] + (4, 4))
    lapm = np.zeros_like(fmat)
    for a, c in PAIRS:
        fmat[..., a, c] = fj[..., a, c, 0]
        lapm[..., a, c] = forms.scalar_laplacian_values(geom_nc, Jet3(fj[..., a, c, :]))
    fmat -= np.swapaxes(fmat, -1, -2)
    lapm -= np.swapaxes(lapm, -1, -2)
    Ric, R = b.slate.Ric, b.slate.R
    rhs = (np.einsum("...kp,...pl->...kl", Ric, fmat, optimize=True)
           + np.einsum("...lp,...kp->...kl", Ric, fmat, optimize=True)
           - 2.0 * np.einsum("...kplq,...pq->...kl", R, fmat, optimize=True))
    scale = np.maximum.reduce([
        np.max(np.abs(lapm), axis=(-1, -2)), np.max(np.abs(rhs), axis=(-1, -2)),
        np.max(np.abs(Ric), axis=(-1, -2)) * np.max(np.abs(fmat), axis=(-1, -2)),
        np.full(len(b.pts), RESIDUAL_FLOOR)])
    abss = np.max(np.abs(lapm - rhs), axis=(-1, -2))
    rels = abss / scale
    samples = [_row(b.pts[n], {"residual": rels[n]}) for n in range(len(b.pts))]
    return _report("component_bochner_eq22", scenario, b.pts, [], abss, rels, tol,
                   extra={"delta_used": "function laplacian of parallel-frame components",
                          "harmonicity_measured": hmax, "harmonicity_scale": hscale,
                          "normal_gamma_max": float(np.max(gmax))},
                   samples=samples)


# -- Lemma 2.2 and Proposition 2.3 ------------------------------------------------


def fg_jets(b: PointBundle):
    wedge = forms.wedge_self_jet(b.geom, b.c6)
    return b.norm_sq_jet + wedge, b.norm_sq_jet - wedge


def sd_nabla_norms(b: PointBundle):
    star6 = forms.star_coord(b.geom.ginv, b.geom.sqrt_det_jet, b.c6, b.lambda2)
    cplus = [b.c6[k] + star6[k] for k in range(6)]
    cminus = [b.c6[k] - star6[k] for k in range(6)]
    Tp = forms.nabla_two_form_jets(b.geom, cplus)
    Tm = forms.nabla_two_form_jets(b.geom, cminus)
    return (forms.nabla_norm_sq_values(b.geom.ginv, Tp[0], b.lambda2),
            forms.nabla_norm_sq_values(b.geom.ginv, Tm[0], b.lambda2),
            cplus, cminus)


def verify_lemma22(chart, fld, pts, tol=None, scenario="inline",
                   harmonicity_tol=None, gamma_tol=None):
    """Delta f1 = 2(K f1 - R1234 f2), Delta f2 = 2(K f2 - R1234 f1) in the
    adapted, radially parallel normal frame."""
    from . import canonical

    tol = DEFAULT_TOLERANCES["lemma22"] if tol is None else tol
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    gamma_tol = DEFAULT_TOLERANCES["normal_gamma"] if gamma_tol is None else gamma_tol
    b = PointBundle(chart, fld, pts)
    hmax, hscale = b.require_harmonic(harmonicity_tol)
    adapted = canonical.canonicalize(b.frame_values,
                                     flag_tol=DEFAULT_TOLERANCES["degeneracy_frac"])
    basis = b.slate.frame @ adapted.basis
    geom_nc, fj, _ = _parallel_frame_fields(b, basis, gamma_tol)
    Rn = curvature_at(geom_nc, orientation=chart.orientation).R
    K, R1234 = canonical._k_r(Rn)
    f1, f2 = Jet3(fj[..., 0, 1, :]), Jet3(fj[..., 2, 3, :])
    v1, v2 = f1.value, f2.value
    r1 = forms.scalar_laplacian_values(geom_nc, f1) - 2.0 * (K * v1 - R1234 * v2)
    r2 = forms.scalar_laplacian_values(geom_nc, f2) - 2.0 * (K * v2 - R1234 * v1)
    lap_scale = (forms.scalar_laplacian_scale(geom_nc, f1)
                 + forms.scalar_laplacian_scale(geom_nc, f2))
    rmax = np.max(np.abs(Rn), axis=(-1, -2, -3, -4))
    scale = np.maximum.reduce([
        lap_scale, (2 * np.abs(K) + 2 * np.abs(R1234) + rmax) * (np.abs(v1) + np.abs(v2)),
        np.full(len(b.pts), RESIDUAL_FLOOR)])
    abss = np.maximum(np.abs(r1), np.abs(r2))
    rels = abss / scale
    samples = [_row(b.pts[n], {"residual": rels[n], "K": K[n], "R1234": R1234[n],
                               "degenerate": bool(adapted.degenerate[n])})
               for n in range(len(b.pts))]
    return _report("lemma22", scenario, b.pts, [], abss, rels, tol,
                   extra={"delta_used": "function laplacian in adapted parallel frame",
                          "harmonicity_measured": hmax, "harmonicity_scale": hscale,
                          "degenerate_points": int(adapted.degenerate.sum())},
                   samples=samples)


def verify_prop23(chart, fld, pts, tol=None, scenario="inline", harmonicity_tol=None):
    """Delta F = |nabla phi+|^2 + 4(K - R1234) F and the G-side analogue.

    At SD/ASD-degenerate points the side whose curvature factor multiplies the
    vanishing scalar stays fully determined; the other side enters the report
    only at non-degenerate points (it is still recorded per point).
    """
    from . import canonical

    tol = DEFAULT_TOLERANCES["prop23"] if tol is None else tol
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    b = PointBundle(chart, fld, pts)
    hmax, hscale = b.require_harmonic(harmonicity_tol)
    Fj, Gj = fg_jets(b)
    dF = forms.scalar_laplacian_values(b.geom, Fj)
    dG = forms.scalar_laplacian_values(b.geom, Gj)
    np_sq, nm_sq, _, _ = sd_nabla_norms(b)
    adapted = canonical.canonicalize(b.frame_values,
                                     flag_tol=DEFAULT_TOLERANCES["degeneracy_frac"])
    kk = canonical.curvature_term_K(b.slate, adapted, degenerate_samples=0)
    K, R1234 = kk["K"], kk["R1234"]
    Fv, Gv = Fj.value, Gj.value
    curvF = 4.0 * (K - R1234) * Fv
    curvG = 4.0 * (K + R1234) * Gv
    rmax = np.max(np.abs(b.slate.R), axis=(-1, -2, -3, -4))
    wedge_scale = np.abs(b.norm_sq_jet.value) + np.abs((Fj - b.norm_sq_jet).value)
    curv_scale = (4.0 * (np.abs(K) + np.abs(R1234)) + rmax) * wedge_scale
    scale28 = np.maximum.reduce([np.abs(dF), forms.scalar_laplacian_scale(b.geom, Fj),
                                 np.abs(np_sq), curv_scale,
                                 np.full_like(dF, RESIDUAL_FLOOR)])
    scale29 = np.maximum.reduce([np.abs(dG), forms.scalar_laplacian_scale(b.geom, Gj),
                                 np.abs(nm_sq), curv_scale,
                                 np.full_like(dG, RESIDUAL_FLOOR)])
    res28 = np.abs(dF - np_sq - curvF) / scale28
    res29 = np.abs(dG - nm_sq - curvG) / scale29
    # Both sides stay determined at degenerate points: (K - R1234) is frame
    # invariant when phi- = 0 and multiplies F = 0 when phi+ = 0 (and dually),
    # so the ambiguous part of K never touches a nonzero factor.
    counted = np.maximum(res28, res29)
    abs_res = np.abs(dF - np_sq - curvF) + np.abs(dG - nm_sq - curvG)
    samples = [_row(b.pts[n], {"residual_eq28": res28[n], "residual_eq29": res29[n],
                               "K": K[n], "R1234": R1234[n], "F": Fv[n], "G": Gv[n],
                               "degenerate": bool(adapted.degenerate[n])})
               for n in range(len(b.pts))]
    return _report("prop23_eq28_eq29", scenario, b.pts, [], abs_res, counted, tol,
                   extra={"delta_used": "function laplacian (trace Hessian)",
                          "harmonicity_measured": hmax, "harmonicity_scale": hscale,
                          "degenerate_points": int(adapted.degenerate.sum()),
                          "max_residual_eq28": float(np.max(res28)),
                          "max_residual_eq29": float(np.max(res29))},
                   samples=samples)


def verify_theorem21(chart, fld, pts, tol=None, scenario="inline", harmonicity_tol=None):
    """Delta(FG) = 8 K F G + G|nabla phi+|^2 + F|nabla phi-|^2 + 2<dF, dG>,
    plus the Schwarz combination check at points where the Kato premise holds."""
    from . import canonical

    tol = DEFAULT_TOLERANCES["thm21"] if tol is None else tol
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    b = PointBundle(chart, fld, pts)
    hmax, hscale = b.require_harmonic(harmonicity_tol)
    Fj, Gj = fg_jets(b)
    Fv, Gv = Fj.value, Gj.value
    dFG = forms.scalar_laplacian_values(b.geom, Fj * Gj)
    cross = forms.grad_inner_values(b.geom, Fj, Gj)
    np_sq, nm_sq, cplus, cminus = sd_nabla_norms(b)
    adapted = canonical.canonicalize(b.frame_values,
                                     flag_tol=DEFAULT_TOLERANCES["degeneracy_frac"])
    kk = canonical.curvature_term_K(b.slate, adapted, degenerate_samples=0)
    K = kk["K"]
    terms = [8.0 * K * Fv * Gv, Gv * np_sq, Fv * nm_sq, 2.0 * cross]
    rhs = sum(terms)
    rmax = np.max(np.abs(b.slate.R), axis=(-1, -2, -3, -4))
    fg_scale = np.abs(b.norm_sq_jet.value) + np.abs((Fj - b.norm_sq_jet).value)
    scale = np.maximum.reduce(
        [np.abs(dFG), forms.scalar_laplacian_scale(b.geom, Fj * Gj),
         (8.0 * np.abs(K) + rmax) * fg_scale**2,
         np.abs(Gv * np_sq), np.abs(Fv * nm_sq), 2.0 * np.abs(cross),
         np.full_like(dFG, RESIDUAL_FLOOR)])
    rel = np.abs(dFG - rhs) / scale
    abs_res = np.abs(dFG - rhs)

    # Schwarz combination: at points where the measured Kato ratios of phi+-
    # reach 2, G|nph+|^2 + F|nph-|^2 + 2<dF,dG> >= 2|dF||dG| + 2<dF,dG> >= 0.
    dF_sq = forms.grad_inner_values(b.geom, Fj, Fj)
    dG_sq = forms.grad_inner_values(b.geom, Gj, Gj)
    combo = Gv * np_sq + Fv * nm_sq + 2.0 * cross
    floor = 2.0 * np.sqrt(np.maximum(dF_sq * dG_sq, 0.0)) + 2.0 * cross
    rho_p = _kato_ratio(b, cplus, np_sq)
    rho_m = _kato_ratio(b, cminus, nm_sq)
    premise = np.where(np.isnan(rho_p), np.inf, rho_p) >= 2.0
    premise &= np.where(np.isnan(rho_m), np.inf, rho_m) >= 2.0
    comb_scale = Gv * np_sq + Fv * nm_sq + 2.0 * np.abs(cross) + RESIDUAL_FLOOR
    schwarz_ok = bool(np.all(combo[premise] >= floor[premise] - 1e-9 * comb_scale[premise])) \
        and bool(np.all(floor[premise] >= -1e-9 * comb_scale[premise]))
    samples = [_row(b.pts[n], {"residual": rel[n], "K": K[n], "F": Fv[n], "G": Gv[n],
                               "schwarz_combo": combo[n], "schwarz_floor": floor[n],
                               "premise_rho_ge_2": bool(premise[n])})
               for n in range(len(b.pts))]
    return _report("theorem21_eq23", scenario, b.pts, [], abs_res, rel, tol,
                   extra={"harmonicity_measured": hmax, "harmonicity_scale": hscale,
                          "schwarz_ok_under_premise": schwarz_ok,
                          "premise_points": int(np.sum(premise))},
                   samples=samples)


def _kato_ratio(b: PointBundle, c6, gsq):
    """|nabla psi|^2 / |d|psi||^2 for a derived component list, given gsq =
    |nabla psi|^2 (from sd_nabla_norms); NaN if degenerate."""
    nsq = forms.norm_sq_jet(b.geom, c6, b.lambda2)
    out = np.full(gsq.shape, np.nan)
    ok = nsq.value > 1e-20
    if np.any(ok):
        nj_c = Jet3(nsq.c.copy())
        nj_c.c[~ok] = 1.0
        nj = jets.sqrt(Jet3(nj_c.c), b.pts)
        dn_sq = forms.grad_inner_values(b.geom, nj, nj)
        valid = ok & (dn_sq > 1e-14 * np.maximum(gsq, 1.0))
        out[valid] = gsq[valid] / dn_sq[valid]
    return out


# -- Kato scan --------------------------------------------------------------------


def kato_scan(chart, fld, pts, scenario="inline", harmonicity_tol=None,
              degeneracy_frac=None, chunk=2048):
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    degeneracy_frac = DEFAULT_TOLERANCES["degeneracy_frac"] if degeneracy_frac is None \
        else degeneracy_frac
    pts = np.atleast_2d(np.asarray(pts, dtype=float))

    def work(chunk_pts):
        b = PointBundle(chart, fld, chunk_pts)
        inv = forms.covariant_invariants(b.geom, b.c6, Q=b.lambda2, T=b.nabla,
                                         nsq=b.norm_sq_jet, grad_sq=b.grad_sq)
        hmax, hscale = b.harmonicity()
        return {"grad_sq": inv["grad_sq"], "norm": inv["norm"],
                "dnorm_sq": inv["dnorm_sq"], "hmax": hmax, "hscale": hscale}

    parts = map_chunks(work, pts, chunk)
    grad_sq = np.concatenate([p["grad_sq"] for p in parts])
    norm = np.concatenate([p["norm"] for p in parts])
    dnorm_sq = np.concatenate([p["dnorm_sq"] for p in parts])
    hmax = max(p["hmax"] for p in parts)
    hscale = max(p["hscale"] for p in parts)
    if hscale > 0 and hmax >= harmonicity_tol * hscale:
        raise InputError(f"field is not harmonic: |Delta phi| = {hmax:.3e} "
                         f"vs scale {hscale:.3e}")

    norm_floor = degeneracy_frac * float(np.max(norm)) if norm.size else 0.0
    # parallel-degenerate points: |d|phi|| below a scale-aware absolute floor
    d_floor = (1e-9 * float(np.max(norm)))**2 if norm.size else 0.0
    valid = (norm > norm_floor) & np.isfinite(dnorm_sq) & (dnorm_sq > d_floor)
    rho = np.full(norm.shape, np.nan)
    rho[valid] = grad_sq[valid] / dnorm_sq[valid]
    n_valid = int(valid.sum())
    result = {
        "scenario": scenario,
        "points_sampled": int(len(pts)),
        "valid_points": n_valid,
        "excluded_points": int(len(pts) - n_valid),
        "norm_floor": norm_floor,
        "harmonicity_measured": hmax,
        "sign_conventions": dict(SIGN_CONVENTIONS),
    }
    if n_valid == 0:
        result["empty_scan"] = EMPTY_SCAN
        result["min_rho"] = None
        result["samples"] = []
        return result
    rv = rho[valid]
    hist, edges = np.histogram(rv, bins=_kato_bin_edges(_percentile99(rv)))
    result.update({
        "min_rho": float(np.min(rv)),
        "classical_kato_ok": bool(np.min(rv) >= 1.0 - DEFAULT_TOLERANCES["kato_classical"]),
        "lemma41_floor_ok": bool(np.min(rv) >= 1.5 - DEFAULT_TOLERANCES["kato_lemma41"]),
        "fraction_rho_below_2": float(np.mean(rv < 2.0)),
        "open_question_rho_ge_2": bool(np.min(rv) >= 2.0),
        "histogram": {"counts": hist.tolist(), "edges": edges.tolist()},
    })
    result["samples"] = [
        _row(pts[n], {"grad_sq": grad_sq[n], "dnorm_sq": dnorm_sq[n],
                      "rho": rho[n], "norm": norm[n]})
        for n in range(len(pts))
    ]
    return result


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


def verify_conformal_chain(chart, fld, pts, k, tol=None, scenario="inline",
                           harmonicity_tol=None, degeneracy_frac=None):
    tol = DEFAULT_TOLERANCES["conformal"] if tol is None else tol
    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
    degeneracy_frac = DEFAULT_TOLERANCES["degeneracy_frac"] if degeneracy_frac is None \
        else degeneracy_frac
    k = float(k)
    b = PointBundle(chart, fld, pts)
    hmax, hscale = b.require_harmonic(harmonicity_tol)
    nsq = b.norm_sq_jet
    norm = np.sqrt(np.maximum(nsq.value, 0.0))
    floor = degeneracy_frac * float(np.max(norm))
    if np.any(norm <= floor):
        bad = np.argmax(norm <= floor)
        raise InputError(f"|phi| below degeneracy floor at point {tuple(b.pts[bad])}")
    with np.errstate(over="raise", under="ignore"):
        try:
            pw = np.power(norm, 3.0 * k)
        except FloatingPointError:
            raise InputError(f"|phi|^{3 * k:g} overflows at sampled points") from None
    if np.any(pw < 1e-280) or np.any(pw > 1e280):
        raise InputError(f"|phi|^{3 * k:g} leaves the representable range")

    phin = jets.sqrt(nsq, b.pts)
    dphi_sq = forms.grad_inner_values(b.geom, phin, phin)
    grad_sq = b.grad_sq

    # Eq 4.2 (pure chain rule in the unprimed metric)
    fj = (k / 4.0) * jets.log(nsq, b.pts)
    lap_f = forms.scalar_laplacian_values(b.geom, fj)
    df_sq = forms.grad_inner_values(b.geom, fj, fj)
    lhs42 = 2.0 * (-lap_f - df_sq) * nsq.value
    t42a = -k * norm * forms.scalar_laplacian_values(b.geom, phin)
    t42b = (k - k * k / 2.0) * dphi_sq
    res42 = rel_residual(lhs42, t42a + t42b, t42a, t42b)

    # Eq 4.3 (Bochner formula defining the curvature term, unprimed)
    # <phi, Delta_Hodge phi> uses the Hodge sign.  On a parallel form every term
    # is round-off, so the residual is measured against the pre-cancellation
    # scale (1 + max|R|)|phi|^2 + scale of Delta|phi|^2, as in Weitzenboeck.
    lap_nsq = forms.scalar_laplacian_values(b.geom, nsq)
    hodge_inner = forms.inner_lambda2(forms.entry_values(b.lambda2), b.coord_values.T,
                                      b.hodge_values.T)
    qR = forms.curvature_action_frame(b.slate.R, b.frame_values)
    Fphi = np.sum(qR * b.frame_values, axis=-1)
    lhs43 = 0.5 * lap_nsq + hodge_inner
    rhs43 = grad_sq + Fphi
    rmax = np.max(np.abs(b.slate.R), axis=(-1, -2, -3, -4))
    res43 = rel_residual(lhs43, rhs43, grad_sq, Fphi, (1.0 + rmax) * nsq.value,
                         forms.scalar_laplacian_scale(b.geom, nsq))

    # primed metric g' = |phi|^k g through the full geometry pipeline
    scale_jet = jets.exp(2.0 * fj)
    geomp = Geometry((Jet3(scale_jet.c[..., None, None, :]) * Jet3(b.geom.gc)).c, b.pts)
    Tp = forms.nabla_two_form_jets(geomp, b.c6)
    hodge_p = forms.hodge_laplacian_values(geomp, b.c6, T=Tp)
    hp = float(np.max(np.abs(hodge_p)))
    conf_harm = hp < 1e-8 * max(hscale, 1.0)

    # Eq 4.6 (conformal change of the function Laplacian)
    u = jets.powr(nsq, 1.0 - k, b.pts)
    lhs46 = forms.scalar_laplacian_values(geomp, u)
    t46a = np.power(norm, -k) * forms.scalar_laplacian_values(b.geom, u)
    t46b = 2.0 * (k - k * k) * np.power(norm, -3.0 * k) * dphi_sq
    res46 = rel_residual(lhs46, t46a + t46b, t46a, t46b)

    # Eq 4.9 (the end identity)
    grad_sq_p = forms.nabla_norm_sq_values(np.moveaxis(geomp.ginv_values, (-2, -1), (0, 1)),
                                           Tp[0])
    lhs49_a = grad_sq
    lhs49_b = (1.5 * k * k - 3.0 * k) * dphi_sq
    rhs49 = pw * grad_sq_p
    res49 = rel_residual(lhs49_a + lhs49_b, rhs49, lhs49_a, lhs49_b, rhs49)

    rel = np.maximum.reduce([res42, res43, res46, res49])
    ratio = np.full(norm.shape, np.nan)
    ok = dphi_sq > 1e-14 * np.maximum(grad_sq, 1.0)
    ratio[ok] = (lhs49_a + lhs49_b)[ok] / dphi_sq[ok]
    samples = [_row(b.pts[n], {"residual_eq42": res42[n], "residual_eq43": res43[n],
                               "residual_eq46": res46[n], "residual_eq49": res49[n],
                               "lhs49_over_dnorm": ratio[n]})
               for n in range(len(b.pts))]
    extra = {
        "k": k,
        "conformal_factor": "exp(2f) = |phi|^k",
        "harmonicity_measured": hmax,
        "primed_harmonicity": hp,
        "primed_harmonicity_ok": bool(conf_harm),
        "max_residual_eq42": float(np.max(res42)),
        "max_residual_eq43": float(np.max(res43)),
        "max_residual_eq46": float(np.max(res46)),
        "max_residual_eq49": float(np.max(res49)),
        "min_lhs49_over_dnorm": float(np.nanmin(ratio)) if np.any(ok) else None,
        "delta_used": "function laplacian; <phi, Delta phi> uses the Hodge sign",
    }
    abs_res = np.abs((lhs49_a + lhs49_b) - rhs49)
    return _report("conformal_chain_eq42_43_46_49", scenario, b.pts, [], abs_res,
                   rel, tol, extra=extra, samples=samples)


# -- analytic integral mechanism ---------------------------------------------------


def integral_identity_analytic(chart, fld, n_per_axis=10, scenario="inline",
                               margin=0.05, harmonicity_tol=None):
    """Quadrature of Delta(FG), 8KFG and the remainder over the chart box.

    For periodic charts on (0, 2pi)^4 the trapezoid rule makes this the closed-
    manifold integral; otherwise the result is a box integral and flagged so.
    """
    from . import canonical

    harmonicity_tol = DEFAULT_TOLERANCES["harmonicity"] if harmonicity_tol is None \
        else harmonicity_tol
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

    def work(chunk_pts):
        b = PointBundle(chart, fld, chunk_pts)
        b.require_harmonic(harmonicity_tol)
        Fj, Gj = fg_jets(b)
        dFG = forms.scalar_laplacian_values(b.geom, Fj * Gj)
        cross = forms.grad_inner_values(b.geom, Fj, Gj)
        np_sq, nm_sq, _, _ = sd_nabla_norms(b)
        adapted = canonical.canonicalize(b.frame_values)
        kk = canonical.curvature_term_K(b.slate, adapted, degenerate_samples=0)
        vol = sqrt_det_values(b.geom.g_values)
        Fv, Gv = Fj.value, Gj.value
        rem = Gv * np_sq + Fv * nm_sq + 2.0 * cross
        return {"dFG": np.sum(dFG * vol), "kfg": np.sum(8.0 * kk["K"] * Fv * Gv * vol),
                "rem": np.sum(rem * vol), "neg": np.sum((rem < -1e-12) * 1.0)}

    parts = map_chunks(work, grid, 4096)
    I_dFG = weights * sum(p["dFG"] for p in parts)
    I_kfg = weights * sum(p["kfg"] for p in parts)
    I_rem = weights * sum(p["rem"] for p in parts)
    return {
        "scenario": scenario,
        "closed_manifold": bool(periodic),
        "quadrature_points": int(len(grid)),
        "integral_delta_FG": float(I_dFG),
        "integral_8KFG": float(I_kfg),
        "integral_remainder": float(I_rem),
        "balance_residual": float(abs(I_dFG - I_kfg - I_rem)),
        "negative_remainder_points": int(sum(p["neg"] for p in parts)),
        "sign_conventions": dict(SIGN_CONVENTIONS),
    }


# -- shared report plumbing ---------------------------------------------------------


def _row(point, fields):
    row = {"x1": float(point[0]), "x2": float(point[1]),
           "x3": float(point[2]), "x4": float(point[3])}
    for k, v in fields.items():
        row[k] = (float(v) if isinstance(v, (int, float, np.floating)) else v)
    return row


def _report(identity, scenario, pts, excluded, abs_res, rel_res, tol, extra=None,
            samples=None):
    rel = np.asarray(rel_res, dtype=float)
    ab = np.asarray(abs_res, dtype=float)
    return VerificationReport(
        identity=identity,
        scenario=scenario,
        points_sampled=int(len(pts)),
        included=int(len(pts) - len(excluded)),
        excluded=list(excluded),
        max_abs_residual=float(np.max(ab)) if ab.size else 0.0,
        max_rel_residual=float(np.max(rel)) if rel.size else 0.0,
        tolerance=float(tol),
        passed=bool(np.all(rel <= tol)) if rel.size else True,
        extra=extra or {},
        samples=samples or [],
    )
