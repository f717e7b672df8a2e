"""2-form fields: Hodge star, d, delta, covariant derivatives, Laplacians, F/G.

Component conventions: a 2-form is stored by its six ordered-pair coefficients
(12, 13, 14, 23, 24, 34), phi = sum_{i<j} c_ij dx^i ^ dx^j, and the Lambda^2
inner product makes {w^i ^ w^j}_{i<j} orthonormal in an orthonormal coframe,
so |phi|^2 = sum_{i<j} f_ij^2.  The full antisymmetric coefficients used by
the component Bochner identity are f/2; both sides of that identity are linear
in phi, so the verifier works directly with the ordered-pair components.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from . import jets
from . import expr as ex
from .charts import (PAIRS, CurvatureSlate, Geometry, MetricChart, curvature_at,
                     sqrt_det_values)
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
EPS4 = jets.antisymmetric(np.ones(1), [(0, 1, 2, 3)])

# Hodge star on ordered-pair components, (*phi)_kl = eps_ijkl phi^ij, in an
# orthonormal frame and, times sqrt(det g), in coordinates (star_coord):
# (12)<->(34), (13)<->-(24), (14)<->(23), the signs of the volume pairing
# phi ^ *psi = <phi, psi> vol.  Row q has its one entry in column 5 - q.
STAR6 = np.array([[EPS4[i, j, k, l] for (i, j) in PAIRS] for (k, l) in PAIRS])


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
        """Stacked jets (NCOEFF,) + batch + (6,) of the six components, from one
        compiled plan; an overflow is reported by the plan's finiteness gate,
        naming the point, not by a numpy warning."""
        pts = np.asarray(pts, dtype=float)
        env = [Jet3.variable(i, pts[..., i]) for i in range(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([u.c for u in self.plan.jets(env, pts)], axis=-1)


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


# -- pointwise Lambda^2 algebra: phi with its indices raised by g^-1 ------------
#
# With Phi the antisymmetric matrix of the coordinate components, the raised
# form phi^ij = (g^-1 Phi g^-1)_ij gives the Lambda^2 inner product
# <phi, psi> = sum_{i<j} phi^ij psi_ij and the Hodge star; with A = g^-1 Phi,
# |phi|^2 = -tr(A A) / 2.  The jets and the values of |phi|^2 and *(phi^phi) take
# the same products of their value slots.

_TRACE_AB = partial(np.einsum, "...ij,...ji->...")
_DOT6 = partial(np.einsum, "...p,...p->...")


def raised_jets(geom: Geometry, c6):
    """Stacked jets of A = g^-1 Phi, (NCOEFF,) + batch + (4, 4), from the
    stacked pair jets c6, solved for one jet slot at a time (no jets of g^-1
    are formed)."""
    return jets.solve(geom.gc, full_matrix_values(c6), V=geom.ginv_values)


def norm_sq_jet(A):
    """The jet of |phi|^2 = -tr(A A) / 2 from the stacked jets A = g^-1 Phi: the
    graded product of A with itself, each pair of slots traced."""
    return Jet3(-0.5 * jets._graded(A, A, _TRACE_AB))


def fg_values(ginv, c6, sqrt_det):
    """F = |phi|^2 + *(phi^phi) = |phi+|^2/2, G = |phi|^2 - *(phi^phi) = |phi-|^2/2
    and their size |phi|^2 + |*(phi^phi)| before cancellation, from the values
    ginv of g^-1 (..., 4, 4; I in an orthonormal frame), c6 (..., 6) and sqrt_det
    (1 there): the value slots of norm_sq_jet and wedge_self_jet."""
    A = ginv @ full_matrix_values(c6)
    norm_sq = -0.5 * _TRACE_AB(A, A)
    wedge = _DOT6(c6, hodge_star_frame(c6)) * (1.0 / sqrt_det)
    return norm_sq + wedge, norm_sq - wedge, np.abs(norm_sq) + np.abs(wedge)


def raised_pairs(ginv, c6):
    """The pairs (..., 6) of phi^ij = (g^-1 Phi g^-1)_ij from values of g^-1
    (..., 4, 4) and the coordinate components c6 (..., 6) of phi."""
    return pair_components_values(ginv @ full_matrix_values(c6) @ ginv)


def inner_values(ginv, a6, b6):
    """<a, b> = sum_{i<j} a^ij b_ij of coordinate components (..., 6)."""
    return np.sum(raised_pairs(ginv, a6) * b6, axis=-1)


def star_jets(geom: Geometry, c6):
    """Stacked jets (NCOEFF,) + batch + (6,) of the coordinate components of
    *phi: sqrt(det g) times the pairs of g^-1 Phi g^-1 = g^-1 (-A^T), solved as
    A is, with the signs of STAR6 (star_coord on jets)."""
    minus_At = -np.swapaxes(raised_jets(geom, c6), -1, -2)
    up6 = pair_components_values(jets.solve(geom.gc, minus_At, V=geom.ginv_values))
    return (Jet3(geom.sqrt_det_jet.c[..., None]) * Jet3(hodge_star_frame(up6))).c


def star_coord(up6, vol):
    """Coordinate components (..., 6) of *phi, (*phi)_kl = sqrt(g) eps_ijkl
    phi^ij with the signs of STAR6, from the raised pairs up6 (raised_pairs)
    and vol = sqrt(det g) (..., 1)."""
    return vol * hodge_star_frame(up6)


def nabla_norm_sq_values(ginv, T):
    """|nabla phi|^2 = g^ab <T_a, T_b> from values of g^-1 (batch + (4, 4)) and
    T = nabla phi (batch + (4, 4, 4) indexed [a, i, j]), read from its pairs
    i < j: half the sum of T times T with all three indices raised."""
    batch = T.shape[:-3]
    T = full_matrix_values(pair_components_values(T))
    up = (ginv[..., None, :, :] @ T @ ginv[..., None, :, :]).reshape(batch + (4, 16))
    return 0.5 * (T.reshape(batch + (1, 64)) @ (ginv @ up).reshape(batch + (64, 1)))[..., 0, 0]


def wedge_self_jet(geom: Geometry, c6):
    """*(phi ^ phi) = 2 (c12 c34 - c13 c24 + c14 c23) / sqrt(det g): the graded
    product of c6 with its frame star, summed over the pairs."""
    return Jet3(jets._graded(c6, hodge_star_frame(c6), _DOT6)) / geom.sqrt_det_jet


# -- jet-level coordinate operations -------------------------------------------


def exterior_d2_jets(c6):
    """Stacked jets (NCOEFF,) + batch + (4,) of the 3-form d(phi) on TRIPLES,
    metric-free: (d phi)_ijk = d_i phi_jk - d_j phi_ik + d_k phi_ij."""
    def d(i, pair):
        return Jet3(c6[..., PAIRS.index(pair)]).partial(i)
    return np.stack([(d(i, (j, k)) - d(j, (i, k)) + d(k, (i, j))).c for i, j, k in TRIPLES], -1)


def _sub_antisym_inplace(x, A):
    """x - A + A^T in the last two axes, a connection term on both indices,
    written into x: x must be a fresh array that nothing else reads."""
    x -= A
    x += np.swapaxes(A, -1, -2)
    return x


def nabla_two_form_values(geom: Geometry, c6):
    """nabla phi at first order, with no d Gamma: T[a, i, j] = (nabla_a phi)_ij
    = d_a phi_ij - A[a, i, j] + A[a, j, i], A[a, i, j] = Gamma^l_ai phi_lj."""
    gt = np.moveaxis(geom.gamma_values, -3, -1)  # [a, i, l] = Gamma^l_ai
    return _sub_antisym_inplace(full_matrix_values(np.moveaxis(c6[1:5], 0, -2)),
                                gt @ full_matrix_values(c6[0])[..., None, :, :])


def nabla_two_form_jets(geom: Geometry, c6):
    """nabla phi to first order: (T, dT) with T = nabla_two_form_values and
    dT[b, a, i, j] = d_b T[a, i, j], one derivative axis b at a time:
    d_b A[a, i, j] = d_b Gamma^l_ai phi_lj + Gamma^l_ai d_b phi_lj."""
    phi = full_matrix_values(c6[0])[..., None, :, :]
    dphi = full_matrix_values(np.moveaxis(c6[1:5], 0, -2))  # [b, l, j]
    gt = np.moveaxis(geom.gamma_values, -3, -1)  # [a, i, l] = Gamma^l_ai
    dT = np.empty(dphi.shape[:-3] + (4,) + dphi.shape[-3:])
    for b in range(4):
        hphi = (full_matrix_values(np.moveaxis(c6[jets._HESS_SLOTS[b]], 0, -2))
                * jets._HESS_FAC[b][:, None, None])  # d_b d_a phi_ij over [a, i, j]
        dA = np.moveaxis(geom.dgamma_slice(b), -3, -1) @ phi + gt @ dphi[..., b, None, :, :]
        dT[..., b, :, :, :] = _sub_antisym_inplace(hphi, dA)
    return _sub_antisym_inplace(dphi, gt @ phi), dT  # dphi is read above, so last


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
        nab = _sub_antisym_inplace(dX_a - (gt[..., a, :, :] @ flat).reshape(X.shape),
                                   gt[..., a, None, :, :] @ X)
        acc = acc + gi[..., a, None, :] @ nab.reshape(flat.shape)
    return acc.reshape(X.shape[:-3] + (4, 4))


def codiff_three_form_values(geom: Geometry, w):
    """(delta w)_jk = -g^ab (nabla_a w)_bjk values, w the stacked jets of a
    3-form on TRIPLES."""
    W = jets.antisymmetric(w[0], TRIPLES)  # [i, j, k]
    dW = (jets.antisymmetric(w[1 + a], TRIPLES) for a in range(4))
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
    """Delta_fun u = g^{ab} (d2_{ab} u - Gamma^c_ab d_c u), trace-Hessian sign,
    for each component of u (stacked jets, component axes after the batch)."""
    gi, gamma = _per_component(geom, u, geom.ginv_values, geom.gamma_values)
    return _contract(gi, u.hessian() - _gamma_grad(gamma, u.grad()))


def grad_inner_values(geom: Geometry, u: Jet3, v: Jet3):
    """<grad u, grad v> = g^{ab} d_a u d_b v."""
    return (u.grad()[..., None, :] @ geom.ginv_values @ v.grad()[..., None])[..., 0, 0]


def green_stokes_flux(geom: Geometry, u: Jet3, sqrt_det):
    """The Green-Stokes flux sqrt(det g) g^ab d_b u (batch + (4,)), whose
    divergence is sqrt(det g) Delta_fun u."""
    return sqrt_det[..., None] * (geom.ginv_values @ u.grad()[..., None])[..., 0]


def scalar_laplacian_scale(geom: Geometry, u: Jet3):
    """Pre-cancellation magnitude of Delta_fun u: sum |g^ab|(|hess| + |Gamma d u|).

    Residuals of identities whose exact value vanishes are meaningful relative
    to this, not to the cancelled result.
    """
    gi, gamma = _per_component(geom, u, np.abs(geom.ginv_values), np.abs(geom.gamma_values))
    return _contract(gi, np.abs(u.hessian()) + _gamma_grad(gamma, np.abs(u.grad())))


def _per_component(geom: Geometry, u: Jet3, *arrays):
    """The arrays (batch + X) of geom with a unit axis after the batch for each
    component axis of u, so they broadcast over u's components."""
    nb = geom.pts.ndim - 1
    unit = (1,) * (u.c.ndim - 1 - nb)
    return [x.reshape(x.shape[:nb] + unit + x.shape[nb:]) for x in arrays]


def _gamma_grad(gamma, du):
    """sum_c Gamma^c_ab d_c u, du's batch + (4, 4), for gamma [c, a, b] and du [c]."""
    return (du[..., None, :] @ gamma.reshape(gamma.shape[:-3] + (4, 16))).reshape(
        du.shape[:-1] + (4, 4))


def _contract(a, b):
    """sum_ab a_ab b_ab over the last two axes (4, 4), as one product."""
    return (a.reshape(a.shape[:-2] + (1, 16)) @ b.reshape(b.shape[:-2] + (16, 1)))[..., 0, 0]


# -- the pointwise value layer ---------------------------------------------------


class PointValues:
    """What the verdicts read of g and of phi's values at a batch of points,
    each computed once: the curvature slate, phi's frame components, its
    adapted frame with K, R1234 and the degenerate flags, and F and G.  It
    needs phi only at the points (c6 (N, 6), coordinate components), so the
    grid builds it on cell centres (grid._CellGeometry) as verify.PointBundle
    does on sampled points, with the same tolerance table tols."""

    def __init__(self, geom: Geometry, c6, tols):
        self.geom = geom
        self.phi = c6
        self.tols = tols

    @cached_property
    def slate(self) -> CurvatureSlate:
        return curvature_at(self.geom)

    @cached_property
    def rmax(self):
        """max |R_abcd| in the slate frame, per point: max |M|."""
        return np.max(np.abs(self.slate.M), axis=(-1, -2))

    @cached_property
    def sqrt_det(self):
        return sqrt_det_values(self.geom.g_values)

    @cached_property
    def frame_values(self):
        return frame_components(self.geom.frame, self.phi)

    @cached_property
    def fg(self):
        """F = |phi+|^2/2, G = |phi-|^2/2 and the size |phi|^2 + |*(phi^phi)|
        of F and G before cancellation (fg_values)."""
        return fg_values(self.geom.ginv_values, self.phi, self.sqrt_det)

    @cached_property
    def adapted(self):
        """The adapted frame of phi in the slate frame, degenerate where |phi+|
        or |phi-| is below tols["degeneracy_frac"] |phi|."""
        from . import canonical

        return canonical.canonicalize(self.frame_values, flag_tol=self.tols["degeneracy_frac"])

    @cached_property
    def curvature_K(self):
        """K and R1234 in the adapted frame (canonical.curvature_term_K)."""
        from . import canonical

        return canonical.curvature_term_K(self.slate, self.adapted)


def thm21_rhs(F, G, K, nabla_plus_sq, nabla_minus_sq, dF_dG):
    """Theorem 2.1's right side (Eq 2.3), term by term: 8KFG, G|nabla phi+|^2,
    F|nabla phi-|^2 and 2<dF, dG>; the last three are the remainder.  The
    analytic and the grid paths differ only in how they take the derivatives."""
    return 8.0 * K * F * G, G * nabla_plus_sq, F * nabla_minus_sq, 2.0 * dF_dG
