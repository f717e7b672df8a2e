"""Point-wise canonical form of a 2-form and the curvature scalars K, R1234.

At each point an oriented orthonormal basis is chosen in which
phi = lambda1 w^1^w^2 + lambda2 w^3^w^4 with lambda1 + lambda2 >= 0 and
lambda1 >= lambda2.  K = (R1313 + R1414 + R2323 + R2424)/2 and
R1234 = <R(e1,e2)e3,e4> are read off after transforming the curvature slate
into that basis.  When |phi+| or |phi-| falls under the threshold the basis is
only partially determined; callers get a flag and, on request, a sampled range
of K over admissible frames.

The extremes of sec and of the biorthogonal curvature sec-perp over all planes
at a point come in closed form from the curvature operator on Lambda^2 =
Lambda^+ + Lambda^- (`plane_minimum`): an eigenvalue problem for sec-perp and a
bisection over t in Thorpe's max_t lambda_min(R + t *) for sec.
"""

from __future__ import annotations

import numpy as np

from . import forms
from .charts import PAIRS, CurvatureSlate, curvature_at, sample_box


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
    split = forms.sd_split_frame(f6)
    a = np.sqrt(split["F"] * 2.0) / np.sqrt(2.0)  # |phi+|/sqrt(2)
    b = np.sqrt(split["G"] * 2.0) / np.sqrt(2.0)
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
    e4_paired = -np.einsum("...ij,...j->...i", A, e3, optimize=True) / lam2_safe[..., None]
    e4_cross = _euclid_cross(e1, e2, e3)
    use_pair = (np.abs(lam2) > 1e-13 * (lam1 + 1e-300))[..., None]
    e4 = np.where(use_pair, e4_paired, e4_cross)
    e4 = e4 / np.linalg.norm(e4, axis=-1, keepdims=True)

    Q = np.stack([e1, e2, e3, e4], axis=-1)
    # residual of the block-diagonal form
    Aq = np.einsum("...ia,...ij,...jb->...ab", Q, A, Q, optimize=True)
    resid = np.abs(Aq).copy()
    resid[..., 0, 1] = np.abs(Aq[..., 0, 1] - lam1)
    resid[..., 1, 0] = np.abs(Aq[..., 1, 0] + lam1)
    resid[..., 2, 3] = np.abs(Aq[..., 2, 3] - lam2)
    resid[..., 3, 2] = np.abs(Aq[..., 3, 2] + lam2)
    block_residual = np.max(resid, axis=(-2, -1))
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
    Ae = np.einsum("...ij,...j->...i", A, e1, optimize=True)
    mu = np.linalg.norm(Ae, axis=-1)
    ok = mu > 1e-13 * (lam1 + 1.0)
    e2 = -Ae / np.maximum(mu, 1e-300)[..., None]
    return e2, ok


def _euclid_cross(a, b, c):
    """Vector completing (a, b, c) to a positively oriented basis."""
    return np.einsum("ijkl,...i,...j,...k->...l", forms.EPS4, a, b, c, optimize=True)


def curvature_term_K(slate: CurvatureSlate, adapted: AdaptedFrame,
                     degenerate_samples=8, seed=0):
    """K and R1234 in the adapted basis; degenerate points also get the sampled
    range of (K, R1234) over admissible frames."""
    K, R1234 = _k_r(slate.R, adapted.basis)
    out = {"K": K, "R1234": R1234}
    if np.any(adapted.degenerate) and degenerate_samples > 0:
        rng = np.random.default_rng(seed)
        Ks, Rs = [K], [R1234]
        f6 = _frame_f6(adapted)
        for _ in range(degenerate_samples):
            Q = _random_admissible(f6, rng)
            k2, r2 = _k_r(slate.R, Q)
            Ks.append(k2)
            Rs.append(r2)
        Ks = np.stack(Ks)
        Rs = np.stack(Rs)
        mask = adapted.degenerate
        out["K_range"] = np.where(mask, Ks.max(0) - Ks.min(0), 0.0)
        out["R1234_range"] = np.where(mask, Rs.max(0) - Rs.min(0), 0.0)
    return out


def _frame_f6(adapted: AdaptedFrame):
    lam1, lam2 = adapted.lam1, adapted.lam2
    Q = adapted.basis
    B = np.zeros(Q.shape)
    B[..., 0, 1] = lam1
    B[..., 1, 0] = -lam1
    B[..., 2, 3] = lam2
    B[..., 3, 2] = -lam2
    A = np.einsum("...ia,...ab,...jb->...ij", Q, B, Q, optimize=True)
    return forms.pair_components_values(A)


def _random_admissible(f6, rng):
    """Adapted basis built from a random starting vector (for degenerate sampling)."""
    A = forms.full_matrix_values(f6)
    n = A.shape[0]
    e1 = rng.normal(size=(n, 4))
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    # at degenerate points every unit vector lies in an invariant plane
    Ae = np.einsum("...ij,...j->...i", A, e1, optimize=True)
    mu = np.linalg.norm(Ae, axis=-1)
    e2 = -Ae / np.maximum(mu, 1e-300)[..., None]
    P = np.eye(4) - e1[..., :, None] * e1[..., None, :] - e2[..., :, None] * e2[..., None, :]
    v = rng.normal(size=(n, 4))
    v = np.einsum("...ij,...j->...i", P, v, optimize=True)
    e3 = v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)
    Ae3 = np.einsum("...ij,...j->...i", A, e3, optimize=True)
    mu2 = np.linalg.norm(Ae3, axis=-1)
    e4 = -Ae3 / np.maximum(mu2, 1e-300)[..., None]
    # fix orientation-consistent sign via the pairing used in canonicalize
    det = np.linalg.det(np.stack([e1, e2, e3, e4], axis=-1))
    e4 = np.where(det[..., None] < 0, -e4, e4)
    return np.stack([e1, e2, e3, e4], axis=-1)


def _k_r(R, Q=None):
    """K = (R1313 + R1414 + R2323 + R2424)/2 and R1234 of R read in the basis Q
    (columns), or of R as given when Q is None."""
    Rq = R if Q is None else np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd",
                                       R, Q, Q, Q, Q, optimize=True)
    K = 0.5 * (Rq[..., 0, 2, 0, 2] + Rq[..., 0, 3, 0, 3]
               + Rq[..., 1, 2, 1, 2] + Rq[..., 1, 3, 1, 3])
    return K, Rq[..., 0, 1, 2, 3]


# -- biorthogonal curvature ------------------------------------------------------


def orthonormal_plane(u, v):
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    v = np.asarray(v, dtype=float)
    v = v - np.dot(u, v) * u
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        raise ValueError("degenerate plane")
    return u, v / nv


def plane_complement(u, v):
    P = np.eye(4) - np.outer(u, u) - np.outer(v, v)
    w, V = np.linalg.eigh(P)
    return V[:, -2], V[:, -1]


def biorthogonal(slate: CurvatureSlate, u, v, index=0):
    """sec-perp(span(u,v)) = (sec(sigma) + sec(sigma-perp))/2 at one slate point."""
    u, v = orthonormal_plane(u, v)
    w1, w2 = plane_complement(u, v)
    R = slate.R[index]
    s1 = float(np.einsum("ijkl,i,j,k,l->", R, u, v, u, v, optimize=True))
    s2 = float(np.einsum("ijkl,i,j,k,l->", R, w1, w2, w1, w2, optimize=True))
    return 0.5 * (s1 + s2)


def _op6(R):
    """Curvature operator M[(ij),(kl)] = R_ijkl in PAIRS order, shape (N,6,6).

    For orthonormal u, v and w = u^v, sec(u, v) = w^T M w; a unit w in Lambda^2
    is a plane iff w^T STAR6 w = 0.
    """
    i, j = np.array(PAIRS).T
    return R[:, i[:, None], j[:, None], i[None, :], j[None, :]]


# orthonormal bases of Lambda^- and Lambda^+ (STAR6 = -1 and +1)
_SD_BASES = np.split(np.linalg.eigh(forms.STAR6)[1], 2, axis=1)
_BISECTIONS = 64


def plane_minimum(R, biortho=False):
    """Minimum over planes of sec (or of sec-perp when biortho) at each point
    of R (N,4,4,4,4), in closed form; returns an (N,) array.

    sec-perp(w) = (sec(w) + sec(*w))/2 = <M a, a> + <M b, b> for the halves
    a, b of w in Lambda^+ and Lambda^-, each of norm 1/sqrt(2), so its minimum
    is half the sum of the smallest eigenvalues of M on Lambda^+ and Lambda^-.

    min sec = max_t lambda_min(M + t STAR6) (Thorpe, "Some remarks on the
    Gauss-Bonnet integral", 1969).  lambda_min(M + t STAR6) is concave in t
    with slope v^T STAR6 v at its bottom eigenvector v, negative for
    t >= 2|M| and positive for t <= -2|M|; _BISECTIONS steps on the sign of
    that slope locate the maximum to 4|M| 2^-64.  Every t gives a lower bound.
    """
    M = _op6(np.asarray(R, dtype=float))
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
    R = curvature_at(chart, sample_box(chart.domain, samples, seed=seed)).R
    k_lower = float(np.min(plane_minimum(R)))
    return {
        "k_lower": k_lower,
        # 0.0 - x rather than -x, so that a flat chart reports 0.0, not -0.0
        "sec_range": (k_lower, 0.0 - float(np.min(plane_minimum(-R)))),
        "secperp_min": float(np.min(plane_minimum(R, biortho=True))),
        "samples": int(samples),
    }


def __getattr__(name):
    # perfbench/child.py still wraps `canonical.minimize` by name; see the
    # FOUND: line on it in CHANGES.md.  scipy.optimize is imported only here.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
