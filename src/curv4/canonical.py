"""Point-wise canonical form of a 2-form and the curvature scalars K, R1234.

At each point an oriented orthonormal basis is chosen in which
phi = lambda1 w^1^w^2 + lambda2 w^3^w^4 with lambda1 + lambda2 >= 0 and
lambda1 >= lambda2.  K = (R1313 + R1414 + R2323 + R2424)/2 and
R1234 = <R(e1,e2)e3,e4> are read off the curvature operator in that basis.
When |phi+| or |phi-| falls under the threshold the basis is only partially
determined and the point is flagged degenerate; there K - R1234
(phi- = 0) or K + R1234 (phi+ = 0) is still frame invariant.

The extremes of sec and of the biorthogonal curvature sec-perp over all planes
at a point come in closed form from the curvature operator on Lambda^2 =
Lambda^+ + Lambda^- (`plane_minimum`): an eigenvalue problem for sec-perp and a
bisection over t in Thorpe's max_t lambda_min(R + t *) for sec.
"""

from __future__ import annotations

import numpy as np

from . import forms, jets
from .charts import CurvatureSlate, curvature_at, lambda2_matrix, sample_box


class AdaptedFrame:
    def __init__(self, basis, lam1, lam2, degenerate, block_residual):
        self.basis = basis  # (N,4,4) columns, expressed in the slate frame
        self.lam1 = lam1
        self.lam2 = lam2
        self.degenerate = degenerate  # bool mask
        self.block_residual = block_residual  # max |off-block component| in the adapted basis


def canonicalize(f6, flag_tol=1e-8):
    """Adapted basis and (lambda1, lambda2) from orthonormal-frame components.

    f6: (..., 6).  flag_tol is relative to |phi| (plus a tiny absolute floor).
    """
    f6 = np.atleast_2d(np.asarray(f6, dtype=float))
    A = forms.full_matrix_values(f6)
    star = forms.hodge_star_frame(f6)
    # |phi+-|/sqrt(2) from phi+- = phi +- *phi: 2F, 2G cancel to round-off at (A)SD phi
    a, b = (np.sqrt(np.sum((f6 + s * star)**2, axis=-1)) / np.sqrt(2.0) for s in (1.0, -1.0))
    lam1 = 0.5 * (a + b)
    lam2 = 0.5 * (a - b)
    norm = np.sqrt(np.sum(f6**2, axis=-1))
    floor = flag_tol * norm + 1e-300
    degenerate = (a < floor) | (b < floor) | (norm < 1e-14)

    A2 = A @ A  # symmetric negative semidefinite
    w, V = np.linalg.eigh(A2)  # ascending: -mu1^2 first
    plane1 = V[..., :, :2]

    e1 = _pick_in_plane(plane1)
    e2, mu1_ok = _pair(A, e1, lam1)
    # fallback when phi ~ 0: identity-ish frame
    e1 = np.where(mu1_ok[..., None], e1, _axis(A, 0))
    e2 = np.where(mu1_ok[..., None], e2, _axis(A, 1))

    P = np.eye(4) - e1[..., :, None] * e1[..., None, :] - e2[..., :, None] * e2[..., None, :]
    e3 = _pick_in_plane_projector(P)
    lam2_safe = np.where(np.abs(lam2) > 1e-13 * (lam1 + 1e-300), lam2, 1.0)
    e4_paired = -(A @ e3[..., None])[..., 0] / lam2_safe[..., None]
    e4_cross = _euclid_cross(e1, e2, e3)
    use_pair = (np.abs(lam2) > 1e-13 * (lam1 + 1e-300))[..., None]
    e4 = np.where(use_pair, e4_paired, e4_cross)
    e4 = e4 / np.linalg.norm(e4, axis=-1, keepdims=True)

    Q = np.stack([e1, e2, e3, e4], axis=-1)
    # residual of the block-diagonal form
    Aq = np.swapaxes(Q, -1, -2) @ A @ Q
    block = np.zeros(Aq.shape)
    block[..., 0, 1], block[..., 2, 3] = lam1, lam2
    block_residual = np.max(np.abs(Aq - block + np.swapaxes(block, -1, -2)), axis=(-2, -1))
    return AdaptedFrame(basis=Q, lam1=lam1, lam2=lam2, degenerate=degenerate,
                        block_residual=block_residual)


def _axis(A, k):
    out = np.zeros(A.shape[:-1])
    out[..., k] = 1.0
    return out


def _pick_in_plane(plane):
    """Deterministic unit vector in the span of two columns: the projection of
    the largest-weight standard axis (ties break to the lower index)."""
    P = plane @ np.swapaxes(plane, -1, -2)
    return _pick_in_plane_projector(P)


def _pick_in_plane_projector(P):
    diag = np.einsum("...ii->...i", P)
    best = np.argmax(np.round(diag, 12), axis=-1)
    v = np.take_along_axis(P, best[..., None, None], axis=-1)[..., 0]
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(nrm, 1e-300)


def _pair(A, e1, lam1):
    Ae = (A @ e1[..., None])[..., 0]
    mu = np.linalg.norm(Ae, axis=-1)
    ok = mu > 1e-13 * (lam1 + 1.0)
    e2 = -Ae / np.maximum(mu, 1e-300)[..., None]
    return e2, ok


def _euclid_cross(a, b, c):
    """Vector completing (a, b, c) to a positively oriented basis: entry l is
    the cofactor of x_l in det [a; b; c; x], so det [a; b; c; x] = <cross, x>."""
    m = np.stack([a, b, c], axis=-2)
    cols = [tuple(k for k in range(4) if k != l) for l in range(4)]
    return np.stack([(-1) ** (l + 1) * jets.minor(m, (0, 1, 2), cols[l]) for l in range(4)],
                    axis=-1)


def curvature_term_K(slate: CurvatureSlate, adapted: AdaptedFrame):
    """K and R1234 of the slate read in the adapted basis."""
    K, R1234 = _k_r(slate.M, adapted.basis)
    return {"K": K, "R1234": R1234}


# PAIRS indices of (13), (14), (23), (24), (12) and of (13), (14), (23), (24),
# (34): R1313, R1414, R2323, R2424 and R1234 are M[_AB, _CD].
_AB, _CD = np.array([1, 2, 3, 4, 0]), np.array([1, 2, 3, 4, 5])


def _k_r(M, Q=None):
    """K = (R1313 + R1414 + R2323 + R2424)/2 and R1234 of the curvature
    operator M (..., 6, 6) read in the basis Q (columns), or of M as given
    when Q is None.  Only these five components are formed, in a fixed order:
    R(Q_a, Q_b, Q_c, Q_d) = w_ab . M w_cd with w_ab = Q_a ^ Q_b, the columns of
    lambda2_matrix(Q)."""
    if Q is None:
        Rq = M[..., _AB, _CD]
    else:
        W = lambda2_matrix(Q)
        Rq = np.sum(W[..., _AB] * (M @ W[..., _CD]), axis=-2)
    K = 0.5 * (Rq[..., 0] + Rq[..., 1] + Rq[..., 2] + Rq[..., 3])
    return K, Rq[..., 4]


# orthonormal bases of Lambda^- and Lambda^+ (STAR6 = -1 and +1)
_SD_BASES = np.split(np.linalg.eigh(forms.STAR6)[1], 2, axis=1)
_BISECTIONS = 64


def plane_minimum(M, biortho=False):
    """Minimum over planes of sec (or of sec-perp when biortho) at each point
    of the curvature operators M (N, 6, 6), in closed form; returns an (N,)
    array.  For orthonormal u, v and w = u ^ v, sec(u, v) = w^T M w; a unit w
    in Lambda^2 is a plane iff w^T STAR6 w = 0.

    sec-perp(w) = (sec(w) + sec(*w))/2 = <M a, a> + <M b, b> for the halves
    a, b of w in Lambda^+ and Lambda^-, each of norm 1/sqrt(2), so its minimum
    is half the sum of the smallest eigenvalues of M on Lambda^+ and Lambda^-.

    min sec = max_t lambda_min(M + t STAR6) (Thorpe, "Some remarks on the
    Gauss-Bonnet integral", 1969).  lambda_min(M + t STAR6) is concave in t
    with slope v^T STAR6 v at its bottom eigenvector v, negative for
    t >= 2|M| and positive for t <= -2|M|; _BISECTIONS steps on the sign of
    that slope locate the maximum to 4|M| 2^-64.  Every t gives a lower bound.
    """
    M = np.asarray(M, dtype=float)
    if biortho:
        return 0.5 * sum(np.linalg.eigvalsh(B.T @ M @ B)[:, 0] for B in _SD_BASES)
    hi = 2.0 * np.linalg.norm(M, axis=(-2, -1))
    lo = -hi
    for _ in range(_BISECTIONS):
        t = 0.5 * (lo + hi)
        v = np.linalg.eigh(M + t[:, None, None] * forms.STAR6)[1][:, :, 0]
        rising = np.einsum("ni,ij,nj->n", v, forms.STAR6, v) > 0.0
        lo = np.where(rising, t, lo)
        hi = np.where(rising, hi, t)
    t = 0.5 * (lo + hi)
    return np.linalg.eigvalsh(M + t[:, None, None] * forms.STAR6)[:, 0]


def global_curvature_stats(chart, samples=32, seed=0):
    """Minimal sectional curvature, sec range and min sec-perp over the planes
    at `samples` points of the chart, exact at each point."""
    M = curvature_at(chart, sample_box(chart.domain, samples, seed=seed)).M
    k_lower = float(np.min(plane_minimum(M)))
    return {
        "k_lower": k_lower,
        # 0.0 - x rather than -x, so that a flat chart reports 0.0, not -0.0
        "sec_range": (k_lower, 0.0 - float(np.min(plane_minimum(-M)))),
        "secperp_min": float(np.min(plane_minimum(M, biortho=True))),
        "samples": int(samples),
    }


def __getattr__(name):
    # perfbench/child.py still wraps `canonical.minimize` by name; see the
    # FOUND: line on it in CHANGES.md.  scipy.optimize is imported only here.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
