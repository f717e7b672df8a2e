"""Point-wise canonical form of a 2-form and the curvature scalars K, R1234.

At each point an oriented orthonormal basis is chosen in which
phi = lambda1 w^1^w^2 + lambda2 w^3^w^4 with lambda1 + lambda2 >= 0 and
lambda1 >= lambda2.  K = (R1313 + R1414 + R2323 + R2424)/2 and
R1234 = <R(e1,e2)e3,e4> are read off after transforming the curvature slate
into that basis.  When |phi+| or |phi-| falls under the threshold the basis is
only partially determined; callers get a flag and, on request, a sampled range
of K over admissible frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import forms
from .charts import CurvatureSlate, sectional


@dataclass
class AdaptedFrame:
    basis: np.ndarray  # (N,4,4) columns, expressed in the slate frame
    lam1: np.ndarray
    lam2: np.ndarray
    degenerate: np.ndarray  # bool mask
    block_residual: np.ndarray  # max |off-block component| in the adapted basis


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


def _plane_objective(R, biortho=True):
    def f(params):
        u, v = _params_to_plane(params)
        s1 = np.einsum("ijkl,i,j,k,l->", R, u, v, u, v, optimize=True)
        den = 1.0
        if not biortho:
            return s1 / den
        w1, w2 = plane_complement(u, v)
        s2 = np.einsum("ijkl,i,j,k,l->", R, w1, w2, w1, w2, optimize=True)
        return 0.5 * (s1 + s2)

    return f


def _params_to_plane(params):
    u = np.array([1.0, params[0], params[1], params[2]])
    v = np.array([0.0, 1.0, params[3], params[4]])
    # rotate parametrization so no plane is unreachable in practice
    u, v = orthonormal_plane(u, v)
    return u, v


def _plane_to_params(u, v):
    # best-effort inverse used only to seed refinement near a coarse sample
    basis = np.stack([u, v])
    q, _ = np.linalg.qr(basis.T)
    u, v = q[:, 0], q[:, 1]
    if abs(u[0]) < 1e-8:
        return None
    u = u / u[0]
    v = v - v[0] * u
    if abs(v[1]) < 1e-8:
        return None
    v = v / v[1]
    return np.array([u[1], u[2], u[3], v[2], v[3]])


def _coarse_planes(count, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(count, 4))
    v = rng.normal(size=(count, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v -= np.einsum("...i,...i->...", u, v, optimize=True)[..., None] * u
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return u, v


def _coarse_values(R, u, v, biortho):
    s1 = np.einsum("ijkl,mi,mj,mk,ml->m", R, u, v, u, v, optimize=True)
    if not biortho:
        return s1
    P = (np.eye(4) - np.einsum("mi,mj->mij", u, u) - np.einsum("mi,mj->mij", v, v))
    _, V = np.linalg.eigh(P)
    w1, w2 = V[:, :, -2], V[:, :, -1]
    s2 = np.einsum("ijkl,mi,mj,mk,ml->m", R, w1, w2, w1, w2, optimize=True)
    return 0.5 * (s1 + s2)


def plane_minimum(slate: CurvatureSlate, index=0, biortho=True, starts=64,
                  coarse=2048, certify=10_000, seed=0, tol=1e-4):
    """Minimize sec (or sec-perp) over the Grassmannian at one point.

    Coarse seeded sampling, multi-start local refinement, then a dense-sample
    certificate: the refined minimum must not exceed the best of `certify`
    fresh samples by more than `tol`.
    """
    R = slate.R[index]
    u, v = _coarse_planes(coarse, seed)
    vals = _coarse_values(R, u, v, biortho)
    order = np.argsort(vals)
    obj = _plane_objective(R, biortho)
    best_val = float(vals[order[0]])
    best_plane = (u[order[0]], v[order[0]])
    tried = 0
    stale = 0
    for idx in order:
        if tried >= starts or stale >= 6:
            break
        params = _plane_to_params(u[idx], v[idx])
        if params is None:
            continue
        tried += 1
        res = minimize(obj, params, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-13, "maxiter": 250})
        if res.fun < best_val - 1e-12:
            best_val = float(res.fun)
            best_plane = _params_to_plane(res.x)
            stale = 0
        else:
            stale += 1
    uc, vc = _coarse_planes(certify, seed + 104729)
    cert = float(np.min(_coarse_values(R, uc, vc, biortho)))
    if best_val > cert + tol:
        best_val = cert  # dense sampling found a lower region; keep the bound
    return {"min": best_val, "plane": best_plane, "certificate": cert}


def global_curvature_stats(chart, samples=32, seed=0, starts=16):
    """Estimated minimal sectional curvature, sec range, and min sec-perp."""
    from .charts import curvature_at, sample_box

    pts = sample_box(chart.domain, samples, seed=seed)
    slate = curvature_at(chart, pts)
    u, v = _coarse_planes(512, seed + 1)
    s1 = np.einsum("nijkl,mi,mj,mk,ml->nm", slate.R, u, v, u, v, optimize=True)
    sec_min_pt = s1.min(axis=1)
    sec_max = float(s1.max())
    worst = np.argsort(sec_min_pt)[:3]
    k_lower = float(sec_min_pt.min())
    secperp_best = np.inf
    for n in worst:
        ref = plane_minimum(slate, index=int(n), biortho=False, starts=starts,
                            seed=seed + 7)
        k_lower = min(k_lower, ref["min"])
        refp = plane_minimum(slate, index=int(n), biortho=True, starts=starts,
                             seed=seed + 11)
        secperp_best = min(secperp_best, refp["min"])
    return {
        "k_lower": k_lower,
        "sec_range": (k_lower, sec_max),
        "secperp_min": float(secperp_best),
        "samples": int(samples),
    }


def sectional_of_plane(slate, u, v, index=0):
    return float(sectional(
        CurvatureSlate(slate.points[index:index + 1], slate.frame[index:index + 1],
                       slate.R[index:index + 1], slate.Ric[index:index + 1],
                       slate.scal[index:index + 1]), u, v)[0])
