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
_PI, _PJ = np.array(PAIRS).T
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
    return pair_components_values(np.swapaxes(E, -1, -2) @ full_matrix_values(coord6) @ E)


def full_matrix_values(c6):
    """The antisymmetric (..., 4, 4) matrices of ordered-pair components (..., 6)."""
    c6 = np.asarray(c6)
    out = np.zeros(c6.shape[:-1] + (4, 4))
    out[..., _PI, _PJ] = c6
    out[..., _PJ, _PI] = -c6
    return out


def pair_components_values(mat):
    """The ordered-pair components (..., 6) of matrices (..., 4, 4)."""
    return mat[..., _PI, _PJ]


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
    terms = (a6[p] * Q[p][q] * b6[q] for p in range(6) for q in range(6))
    return sum(terms, next(terms))


def star_coord(gi, sqrt_det, c6, Q=None):
    """Coordinate components of *phi: (*phi)_kl = sqrt(g) eps_ijkl phi^ij, with
    phi^ij = (Q c)_(ij) and the signs of STAR6."""
    Q = Q if Q is not None else lambda2_metric(gi)
    out = []
    for q in range(6):
        terms = (Q[5 - q][m] * c6[m] for m in range(6))
        out.append(sqrt_det * sum(terms, next(terms)) * STAR6[q, 5 - q])
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
    gi, Q = (np.moveaxis(m, (0, 1), (-2, -1)) for m in (gi, Q))
    T6 = pair_components_values(T)  # [a, p]
    return _contract(gi, T6 @ Q @ np.swapaxes(T6, -1, -2))


def norm_sq_jet(geom: Geometry, c6, Q=None):
    return inner_lambda2(Q if Q is not None else lambda2_metric(geom.ginv), c6, c6)


def wedge_self_jet(geom: Geometry, c6):
    """*(phi ^ phi) = 2 (c12 c34 - c13 c24 + c14 c23) / sqrt(det g)."""
    w = c6[0] * c6[5] - c6[1] * c6[4] + c6[2] * c6[3]
    return (2.0 * w) / geom.sqrt_det_jet


# -- jet-level coordinate operations -------------------------------------------


def exterior_d2_jets(c6):
    """3-form components of d(phi), keyed by TRIPLES, metric-free."""
    phi = dict(zip(PAIRS, c6))
    return {(i, j, k): phi[j, k].partial(i) - phi[i, k].partial(j) + phi[i, j].partial(k)
            for (i, j, k) in TRIPLES}


def _minus_antisym(x, A):
    """x - A + A^T in the last two axes: a connection term on both indices."""
    return x - A + np.swapaxes(A, -1, -2)


def nabla_two_form_values(geom: Geometry, c6):
    """nabla phi at first order, with no d Gamma: T[a, i, j] = (nabla_a phi)_ij
    = d_a phi_ij - A[a, i, j] + A[a, j, i], A[a, i, j] = Gamma^l_ai phi_lj."""
    P = np.stack([u.c for u in c6], axis=-1)
    gt = np.moveaxis(geom.gamma_values, -3, -1)  # [a, i, l] = Gamma^l_ai
    return _minus_antisym(full_matrix_values(np.moveaxis(P[1:5], 0, -2)),
                          gt @ full_matrix_values(P[0])[..., None, :, :])


def nabla_two_form_jets(geom: Geometry, c6):
    """nabla phi to first order: (T, dT) with T = nabla_two_form_values and
    dT[b, a, i, j] = d_b T[a, i, j], one derivative axis b at a time:
    d_b A[a, i, j] = d_b Gamma^l_ai phi_lj + Gamma^l_ai d_b phi_lj."""
    P = np.stack([u.c for u in c6], axis=-1)
    phi = full_matrix_values(P[0])[..., None, :, :]
    dphi = full_matrix_values(np.moveaxis(P[1:5], 0, -2))  # [b, l, j]
    gt = np.moveaxis(geom.gamma_values, -3, -1)  # [a, i, l] = Gamma^l_ai
    T = _minus_antisym(dphi, gt @ phi)
    dT = np.empty(T.shape[:-3] + (4,) + T.shape[-3:])
    for b in range(4):
        hphi = (full_matrix_values(np.moveaxis(P[jets._HESS_SLOTS[b]], 0, -2))
                * jets._HESS_FAC[b][:, None, None])  # d_b d_a phi_ij over [a, i, j]
        dA = np.moveaxis(geom.dgamma_slice(b), -3, -1) @ phi + gt @ dphi[..., b, None, :, :]
        dT[..., b, :, :, :] = _minus_antisym(hphi, dA)
    return T, dT


def codiff_two_form_jets(geom: Geometry, c6, T=None):
    """delta phi to first order: (delta phi)_j = -g^ab (nabla_a phi)_bj as the
    pair (values [j], gradients [c, j]), from T = (T, dT) (nabla_two_form_jets),
    each a product with (a, b) flattened."""
    T, dT = T if T is not None else nabla_two_form_jets(geom, c6)
    batch = T.shape[:-3]
    gi, Tf = geom.ginv_values.reshape(batch + (1, 16)), T.reshape(batch + (16, 4))
    ddelta = (geom.dginv_values.reshape(batch + (4, 1, 16)) @ Tf[..., None, :, :]
              + gi[..., None, :, :] @ dT.reshape(batch + (4, 16, 4)))
    return -(gi @ Tf)[..., 0, :], -ddelta[..., 0, :]


def _trace_nabla(geom: Geometry, X, dX):
    """sum_ab g^ab (nabla_a X)_bij (batch + (4, 4)) for X[b, i, j] antisymmetric
    in i, j and the iterable dX of its partials d_a X, one axis a at a time:
    (nabla_a X)_bij = d_a X_bij - Gamma^c_ab X_cij - Gamma^l_ai X_blj - Gamma^l_aj X_bil."""
    gt = np.moveaxis(geom.gamma_values, -3, -1)  # [a, b, c] = Gamma^c_ab
    gi = geom.ginv_values
    flat = X.reshape(X.shape[:-3] + (4, 16))
    acc = 0.0
    for a, dX_a in enumerate(dX):
        nab = _minus_antisym(dX_a - (gt[..., a, :, :] @ flat).reshape(X.shape),
                             gt[..., a, None, :, :] @ X)
        acc = acc + gi[..., a, None, :] @ nab.reshape(flat.shape)
    return acc.reshape(X.shape[:-3] + (4, 4))


def codiff_three_form_values(geom: Geometry, w_triples):
    """(delta w)_jk = -g^ab (nabla_a w)_bjk values, w a 3-form of jets keyed by TRIPLES."""
    ws = [w_triples[t] for t in TRIPLES]
    W = jets.antisymmetric([w.value for w in ws], TRIPLES)  # [i, j, k]
    dW = (jets.antisymmetric([w.c[1 + a] for w in ws], TRIPLES) for a in range(4))
    return pair_components_values(-_trace_nabla(geom, W, dW))


def hodge_laplacian_values(geom: Geometry, c6, T=None):
    """(d delta + delta d) phi, coordinate-component values (..., 6)."""
    _, ddelta = codiff_two_form_jets(geom, c6, T)
    d_delta = pair_components_values(ddelta - np.swapaxes(ddelta, -1, -2))
    delta_d = codiff_three_form_values(geom, exterior_d2_jets(c6))
    return d_delta + delta_d


def rough_laplacian_values(geom: Geometry, c6, T=None):
    """g^{ab} (nabla^2_{ab} phi)_{ij} values (..., 6); note Delta_rough = -this
    in the positive-spectrum convention."""
    T, dT = T if T is not None else nabla_two_form_jets(geom, c6)  # T[b,i,j], dT[a,b,i,j]
    return pair_components_values(_trace_nabla(geom, T, (dT[..., a, :, :, :] for a in range(4))))


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
    return _contract(geom.ginv_values, u.hessian() - _gamma_grad(geom.gamma_values, u.grad()))


def grad_inner_values(geom: Geometry, u: Jet3, v: Jet3):
    """<grad u, grad v> = g^{ab} d_a u d_b v."""
    return (u.grad()[..., None, :] @ geom.ginv_values @ v.grad()[..., None])[..., 0, 0]


def scalar_laplacian_scale(geom: Geometry, u: Jet3):
    """Pre-cancellation magnitude of Delta_fun u: sum |g^ab|(|hess| + |Gamma d u|).

    Residuals of identities whose exact value vanishes are meaningful relative
    to this, not to the cancelled result.
    """
    cov = np.abs(u.hessian()) + _gamma_grad(np.abs(geom.gamma_values), np.abs(u.grad()))
    return _contract(np.abs(geom.ginv_values), cov)


def _gamma_grad(gamma, du):
    """sum_c Gamma^c_ab d_c u, batch + (4, 4), for gamma [c, a, b] and du [c]."""
    batch = gamma.shape[:-3]
    return (du[..., None, :] @ gamma.reshape(batch + (4, 16))).reshape(batch + (4, 4))


def _contract(a, b):
    """sum_ab a_ab b_ab over the last two axes (4, 4), as one product."""
    return (a.reshape(a.shape[:-2] + (1, 16)) @ b.reshape(b.shape[:-2] + (16, 1)))[..., 0, 0]

