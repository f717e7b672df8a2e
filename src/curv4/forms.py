"""2-form fields: Hodge star, d, delta, covariant derivatives, Laplacians, F/G.

Component conventions: a 2-form is stored by its six ordered-pair coefficients
(12, 13, 14, 23, 24, 34), phi = sum_{i<j} c_ij dx^i ^ dx^j, and the Lambda^2
inner product makes {w^i ^ w^j}_{i<j} orthonormal in an orthonormal coframe,
so |phi|^2 = sum_{i<j} f_ij^2.  The full antisymmetric coefficients used by
the component Bochner identity are f/2; both sides of that identity are linear
in phi, so the verifier works directly with the ordered-pair components.
"""

from __future__ import annotations

import numpy as np

from . import Curv4Error, jets
from . import expr as ex
from .charts import PAIRS, Geometry, MetricChart
from .jets import Jet3

PAIR_KEYS = ("12", "13", "14", "23", "24", "34")
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# The sign dictionary embedded in every report.
SIGN_CONVENTIONS = {
    "version": 1,
    "curvature": "R(X,Y) = -DxDy + DyDx + D[x,y]; R_ijkl = <R(e_i,e_j)e_k,e_l>; sec = R_ijij >= 0 on spheres",
    "ricci": "Ric_ij = sum_k R_kikj",
    "delta_fun": "trace of covariant Hessian (Delta(h^2) = 2h Delta h + 2|dh|^2)",
    "delta_hodge": "d delta + delta d = -delta_fun on functions; nonnegative spectrum",
    "hodge_star": "*(w1^w2) = w3^w4, *(w1^w3) = -w2^w4, *(w1^w4) = w2^w3 (volume pairing)",
    "sd_split": "phi+- = phi +- *phi; F = |phi+|^2/2; G = |phi-|^2/2",
    "lambda2": "{w^i^w^j} i<j orthonormal; full-sum coefficients are half these",
    "jet_tolerance": 1e-12,
}

EMPTY_SCAN = "all points parallel-degenerate (|d|phi|| below threshold)"


# The Levi-Civita symbol eps_ijkl, a (4, 4, 4, 4) array.
EPS4 = jets.antisymmetric([np.ones(())], [(0, 1, 2, 3)])

# Hodge star on ordered-pair components, (*phi)_kl = eps_ijkl phi^ij, in an
# orthonormal frame and (star_coord) in coordinates: (12)<->(34),
# (13)<->-(24), (14)<->(23), the signs of the volume pairing
# phi ^ *psi = <phi, psi> vol.  Row q has its one entry in column 5 - q.
STAR6 = np.array([[EPS4[i, j, k, l] for (i, j) in PAIRS] for (k, l) in PAIRS])


class FormError(Curv4Error):
    pass


class TwoFormField:
    """Six coordinate-component expressions over a chart."""

    def __init__(self, chart: MetricChart, components):
        self.chart = chart
        comps = []
        for key in PAIR_KEYS:
            node = components.get(key, ex.num(0.0)) if isinstance(components, dict) \
                else components[PAIR_KEYS.index(key)]
            comps.append(ex.parse(node) if isinstance(node, str) else node)
        self.components = tuple(comps)
        self.plan = ex.Plan(self.components)

    def component_jets(self, pts):
        """Jets of the six components, from one compiled plan; an overflow is
        reported by the plan's finiteness gate, naming the point, not by a numpy
        warning."""
        pts = np.asarray(pts, dtype=float)
        env = [Jet3.variable(i, pts[..., i]) for i in range(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            return list(self.plan.jets(env, pts))


# -- value-level frame operations ---------------------------------------------


def hodge_star_frame(f6):
    """Star on orthonormal-frame ordered-pair components, shape (..., 6)."""
    return np.asarray(f6) @ STAR6.T


def frame_components(E, coord6):
    """Frame components f_ab = phi(e_a, e_b) from coordinate components.

    E: (..., 4, 4) frame columns; coord6: (..., 6) coordinate coefficients.
    """
    Phi = full_matrix_values(coord6)
    Ff = np.einsum("...ij,...ia,...jb->...ab", Phi, E, E, optimize=True)
    return pair_components_values(Ff)


def full_matrix_values(c6):
    c6 = np.asarray(c6)
    out = np.zeros(c6.shape[:-1] + (4, 4))
    for k, (i, j) in enumerate(PAIRS):
        out[..., i, j] = c6[..., k]
        out[..., j, i] = -c6[..., k]
    return out


def pair_components_values(mat):
    out = np.empty(mat.shape[:-2] + (6,))
    for k, (i, j) in enumerate(PAIRS):
        out[..., k] = mat[..., i, j]
    return out


def sd_split_frame(f6, tol=1e-10):
    """phi+- = phi +- *phi, F = |phi+|^2/2, G = |phi-|^2/2, with the wedge
    cross-check F = |phi|^2 + *(phi^phi), G = |phi|^2 - *(phi^phi)."""
    f6 = np.asarray(f6)
    star = hodge_star_frame(f6)
    fplus = f6 + star
    fminus = f6 - star
    F = 0.5 * np.sum(fplus**2, axis=-1)
    G = 0.5 * np.sum(fminus**2, axis=-1)
    norm_sq = np.sum(f6**2, axis=-1)
    wedge = 2.0 * (
        f6[..., 0] * f6[..., 5] - f6[..., 1] * f6[..., 4] + f6[..., 2] * f6[..., 3]
    )
    scale = np.maximum(norm_sq, 1e-300)
    dev = max(np.max(np.abs(F - (norm_sq + wedge)) / np.maximum(scale, 1.0)),
              np.max(np.abs(G - (norm_sq - wedge)) / np.maximum(scale, 1.0))) \
        if f6.size else 0.0
    if dev > tol:
        raise FormError(
            f"self-dual split cross-check failed ({dev:.2e} > {tol:g}): star convention bug")
    return {"plus": fplus, "minus": fminus, "F": F, "G": G}


# -- pointwise Lambda^2 algebra over the entries of g^-1 ------------------------
#
# Each function below is written once over entries indexed [i][j] (component
# axes first): nested lists of Jet3 where derivatives are needed, or arrays of
# values such as np.moveaxis(ginv_values, (-2, -1), (0, 1)).


def lambda2_metric(gi):
    """Q[(ij),(kl)] = g^ik g^jl - g^il g^jk, a 6x6 symmetric nested list."""
    Q = [[None] * 6 for _ in range(6)]
    for a, (i, j) in enumerate(PAIRS):
        for b in range(a, 6):
            k, l = PAIRS[b]
            Q[a][b] = Q[b][a] = gi[i][k] * gi[j][l] - gi[i][l] * gi[j][k]
    return Q


def inner_lambda2(Q, a6, b6):
    """<a, b> = a_p Q_pq b_q on coordinate components."""
    acc = None
    for p in range(6):
        for q in range(6):
            t = a6[p] * Q[p][q] * b6[q]
            acc = t if acc is None else acc + t
    return acc


def star_coord(gi, sqrt_det, c6, Q=None):
    """Coordinate components of *phi: (*phi)_kl = sqrt(g) eps_ijkl phi^ij, with
    phi^ij = (Q c)_(ij) and the signs of STAR6."""
    Q = Q if Q is not None else lambda2_metric(gi)
    out = []
    for q in range(6):
        p = 5 - q
        up = None
        for m in range(6):
            t = Q[p][m] * c6[m]
            up = t if up is None else up + t
        out.append(sqrt_det * up * STAR6[q, p])
    return out


def entry_values(m):
    """Values of nested jets (or arrays) as one array, component axes first."""
    if isinstance(m, np.ndarray):
        return m
    if isinstance(m, Jet3):
        return m.value
    return np.array([entry_values(x) for x in m])


def nabla_norm_sq_values(gi, T, Q=None):
    """|nabla phi|^2 = g^ab Q_pq T_ap T_bq from the values of g^-1 ([a][b]),
    T = nabla phi (batch + (4, 4, 4) indexed [a, i, j]) and Q (from gi when
    omitted)."""
    gi = entry_values(gi)
    Q = entry_values(Q if Q is not None else lambda2_metric(gi))
    T = np.moveaxis(pair_components_values(T), (-2, -1), (0, 1))
    return np.einsum("ab...,ap...,pq...,bq...->...", gi, T, Q, T, optimize=True)


def norm_sq_jet(geom: Geometry, c6, Q=None):
    return inner_lambda2(Q if Q is not None else lambda2_metric(geom.ginv), c6, c6)


def wedge_self_jet(geom: Geometry, c6):
    """*(phi ^ phi) = 2 (c12 c34 - c13 c24 + c14 c23) / sqrt(det g)."""
    w = c6[0] * c6[5] - c6[1] * c6[4] + c6[2] * c6[3]
    return (2.0 * w) / geom.sqrt_det_jet


# -- jet-level coordinate operations -------------------------------------------


def exterior_d2_jets(c6):
    """3-form components of d(phi), keyed by TRIPLES, metric-free."""
    out = {}
    full = {}
    for k, (i, j) in enumerate(PAIRS):
        full[(i, j)] = c6[k]

    def comp(i, j):
        if i == j:
            return None
        if (i, j) in full:
            return full[(i, j)]
        return -full[(j, i)]

    for (i, j, k) in TRIPLES:
        out[(i, j, k)] = (comp(j, k).partial(i) - comp(i, k).partial(j)
                          + comp(i, j).partial(k))
    return out


def exterior_d1_jets(a4):
    """2-form components of d(alpha) for a 1-form given as 4 jets."""
    return [a4[j].partial(i) - a4[i].partial(j) for (i, j) in PAIRS]


def nabla_two_form_jets(geom: Geometry, c6):
    """nabla phi to first order: (T, dT) with T[a, i, j] = (nabla_a phi)_ij,
    antisymmetric in i, j, and dT[b, a, i, j] = d_b T[a, i, j].

    T = d phi - A + A^T (in i, j) with A[a, i, j] = Gamma^l_ai phi_lj, one
    contraction for the value and the gradient together.
    """
    full = Jet3(jets.antisymmetric([u.c for u in c6], PAIRS))
    phi = full.value
    dphi = np.moveaxis(full.grad(), -1, -3)
    hphi = np.moveaxis(full.hessian(), (-2, -1), (-4, -3))
    A, dA = jets.leibniz("...lai,...lj->...aij", (geom.gamma_values, geom.dgamma_values),
                         (phi, dphi))
    return dphi - A + np.swapaxes(A, -1, -2), hphi - dA + np.swapaxes(dA, -1, -2)


def codiff_two_form_jets(geom: Geometry, c6, T=None):
    """delta phi to first order: (delta phi)_j = -g^ab (nabla_a phi)_bj as the
    pair (values [j], gradients [b, j]), one contraction with T."""
    T = T if T is not None else nabla_two_form_jets(geom, c6)
    delta, ddelta = jets.leibniz("...ab,...abj->...j", (geom.ginv_values, geom.dginv_values), T)
    return -delta, -ddelta


def codiff_three_form_values(geom: Geometry, w_triples):
    """(delta w)_{jk} values for a 3-form of jets keyed by TRIPLES."""
    gam = geom.gamma_values
    ws = [w_triples[t] for t in TRIPLES]
    W = jets.antisymmetric([w.value for w in ws], TRIPLES)  # [i, j, k]
    dW = jets.antisymmetric([w.grad() for w in ws], TRIPLES)  # [a, i, j, k]
    # (nabla_a w)_{ijk} = d_a w_ijk - G^l_ai w_ljk - G^l_aj w_ilk - G^l_ak w_ijl
    nab = dW \
        - np.einsum("...lai,...ljk->...aijk", gam, W, optimize=True) \
        - np.einsum("...laj,...ilk->...aijk", gam, W, optimize=True) \
        - np.einsum("...lak,...ijl->...aijk", gam, W, optimize=True)
    dd = -np.einsum("...ab,...abjk->...jk", geom.ginv_values, nab, optimize=True)
    return pair_components_values(dd)


def hodge_laplacian_values(geom: Geometry, c6, T=None):
    """(d delta + delta d) phi, coordinate-component values (..., 6)."""
    _, ddelta = codiff_two_form_jets(geom, c6, T)
    d_delta = pair_components_values(ddelta - np.swapaxes(ddelta, -1, -2))
    delta_d = codiff_three_form_values(geom, exterior_d2_jets(c6))
    return d_delta + delta_d


def rough_laplacian_values(geom: Geometry, c6, T=None):
    """g^{ab} (nabla^2_{ab} phi)_{ij} values (..., 6); note Delta_rough = -this
    in the positive-spectrum convention."""
    gam_v = geom.gamma_values
    T, dT = T if T is not None else nabla_two_form_jets(geom, c6)  # T[b,i,j], dT[a,b,i,j]
    nab2 = (dT
            - np.einsum("...cab,...cij->...abij", gam_v, T, optimize=True)
            - np.einsum("...lai,...blj->...abij", gam_v, T, optimize=True)
            - np.einsum("...laj,...bil->...abij", gam_v, T, optimize=True))
    tr = np.einsum("...ab,...abij->...ij", geom.ginv_values, nab2, optimize=True)
    return pair_components_values(tr)


def curvature_action_frame(M, Ric, f6):
    """q(R) phi = sum_{ij} w^i ^ i(e_j) R_{e_i e_j} phi, orthonormal frame.

    M: (..., 6, 6) frame curvature operator, Ric (..., 4, 4); f6: (..., 6)
    frame components.  q(R) phi = Ric^T phi + phi Ric - 2 M phi: by the first
    Bianchi identity sum_{jp} R_ajpb phi_pj = (M phi)_(ab).
    """
    RP = np.swapaxes(Ric, -1, -2) @ full_matrix_values(f6)
    return pair_components_values(RP - np.swapaxes(RP, -1, -2)) - 2.0 * (M @ f6[..., None])[..., 0]


# -- scalar helpers -------------------------------------------------------------


def scalar_laplacian_values(geom: Geometry, u: Jet3):
    """Delta_fun u = g^{ab} (d2_{ab} u - Gamma^c_ab d_c u), trace-Hessian sign."""
    cov = u.hessian() - np.einsum("...cab,...c->...ab", geom.gamma_values, u.grad(),
                                  optimize=True)
    return np.einsum("...ab,...ab->...", geom.ginv_values, cov, optimize=True)


def grad_inner_values(geom: Geometry, u: Jet3, v: Jet3):
    """<grad u, grad v> = g^{ab} d_a u d_b v."""
    return np.einsum("...ab,...a,...b->...", geom.ginv_values, u.grad(), v.grad(), optimize=True)


def scalar_laplacian_scale(geom: Geometry, u: Jet3):
    """Pre-cancellation magnitude of Delta_fun u: sum |g^ab|(|hess| + |Gamma d u|).

    Residuals of identities whose exact value vanishes are meaningful relative
    to this, not to the cancelled result.
    """
    cov = np.abs(u.hessian()) + np.einsum("...cab,...c->...ab", np.abs(geom.gamma_values),
                                          np.abs(u.grad()), optimize=True)
    return np.einsum("...ab,...ab->...", np.abs(geom.ginv_values), cov, optimize=True)

