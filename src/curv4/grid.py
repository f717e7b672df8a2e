"""Discrete Hodge theory on a periodic 4-D cubical lattice.

Cochains live on k-cells (site, axis subset); incidence maps d0..d3 are signed
integer matrices, mass matrices are diagonal (lumped) with the pointwise
Lambda^k inner-product weight sqrt(det g) det([g^{ab}]_{a,b in S}) h^4 at the
cell barycenter.  delta_k = M_{k-1}^{-1} d_{k-1}^T M_k makes <d a, b> = <a, d b>
hold to roundoff by construction; Delta_2 = delta d + d delta on 2-cochains is
extracted matrix-free.  Cochain values are point samples of coordinate
components; face ordering is axis-pair lexicographic, then lattice row-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import canonical, forms
from .charts import (Geometry, MetricChart, chart_is_periodic, curvature_at, metric_values,
                     orthonormal_frame, sqrt_det_values)
from .forms import PAIRS, TRIPLES

AXSETS = (
    ((),),
    ((0,), (1,), (2,), (3,)),
    PAIRS,
    TRIPLES,
    ((0, 1, 2, 3),),
)


class GridError(Exception):
    pass


@dataclass
class GridComplex:
    n: int
    h: float
    chart: MetricChart
    d: tuple  # d[k]: C^k -> C^{k+1}, scipy sparse, integer entries
    M: tuple  # M[k]: 1-D positive arrays (diagonal mass matrices)
    sites: int = field(init=False)

    def __post_init__(self):
        self.sites = self.n**4

    def dim(self, k):
        return len(AXSETS[k]) * self.sites

    def delta(self, k, x):
        """delta_k x for x in C^k: M_{k-1}^{-1} d_{k-1}^T (M_k x)."""
        return (self.d[k - 1].T @ (self.M[k] * x)) / self.M[k - 1]

    def laplacian2(self, x):
        """Delta_2 = delta_3 d_2 + d_1 delta_2 on 2-cochains."""
        up = (self.d[2].T @ (self.M[3] * (self.d[2] @ x))) / self.M[2]
        down = self.d[1] @ self.delta(2, x)
        return up + down

    def inner(self, k, a, b):
        return float(np.dot(a, self.M[k] * b))


def _site_index_grid(n):
    return np.arange(n**4).reshape(n, n, n, n)


def _shift_perm(n, axis):
    idx = _site_index_grid(n)
    return np.roll(idx, -1, axis=axis).ravel()


def _build_d(n, k):
    """Incidence map C^k -> C^{k+1} as signed integer sparse matrix."""
    N = n**4
    eye = sp.identity(N, dtype=np.int64, format="csr")
    shifts = [sp.csr_matrix((np.ones(N, dtype=np.int64),
                             (np.arange(N), _shift_perm(n, ax))), shape=(N, N))
              for ax in range(4)]
    in_sets = AXSETS[k]
    out_sets = AXSETS[k + 1]
    in_pos = {s: i for i, s in enumerate(in_sets)}
    blocks = [[None] * len(in_sets) for _ in range(len(out_sets))]
    for r, S in enumerate(out_sets):
        for pos, a in enumerate(S):
            sub = tuple(x for x in S if x != a)
            sign = -1 if pos % 2 else 1
            blk = (shifts[a] - eye) * sign
            c = in_pos[sub]
            blocks[r][c] = blk if blocks[r][c] is None else blocks[r][c] + blk
    return sp.bmat(blocks, format="csr")


def _barycenters(n, h, S):
    coords = np.indices((n, n, n, n)).reshape(4, -1).T * h
    off = np.zeros(4)
    for a in S:
        off[a] = h / 2.0
    return coords + off


def assemble(chart: MetricChart, n: int) -> GridComplex:
    """Periodic cochain complex for an analytic metric on (0, 2pi)^4."""
    if n < 3:
        raise GridError("grid size must be at least 3")
    if not chart_is_periodic(chart):
        raise GridError(f"metric on chart {chart.name!r} is not 2pi-periodic")
    h = 2.0 * np.pi / n
    d = tuple(_build_d(n, k) for k in range(4))
    M = []
    for k in range(5):
        weights = []
        for S in AXSETS[k]:
            pts = _barycenters(n, h, S)
            g = metric_values(chart, pts)
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                bad = _first_indefinite(g)
                raise GridError(
                    f"metric not positive definite at cell barycenter {tuple(pts[bad])}"
                ) from None
            det = np.linalg.det(g)
            if len(S) == 0:
                minor = np.ones(len(pts))
            else:
                ginv = np.linalg.inv(g)
                sub = ginv[:, list(S)][:, :, list(S)]
                minor = np.linalg.det(sub) if len(S) > 1 else sub[:, 0, 0]
            weights.append(np.sqrt(det) * minor * h**4)
        M.append(np.concatenate(weights))
        if np.any(M[-1] <= 0.0):
            raise GridError(f"nonpositive mass entry in degree {k}")
    return GridComplex(n=n, h=h, chart=chart, d=d, M=tuple(M))


def _first_indefinite(g):
    for idx in range(len(g)):
        try:
            np.linalg.cholesky(g[idx])
        except np.linalg.LinAlgError:
            return idx
    return 0


# -- matrix-free symmetric operator and solvers ----------------------------------


class _Sym2:
    """B = M2^{1/2} Delta_2 M2^{-1/2}, symmetric positive semidefinite."""

    def __init__(self, complex: GridComplex):
        self.gc = complex
        self.rt = np.sqrt(complex.M[2])
        self.d1 = complex.d[1]
        self.d2 = complex.d[2]
        self.M1 = complex.M[1]
        self.M3 = complex.M[3]

    def __call__(self, y):
        squeeze = y.ndim == 1
        Y = y[:, None] if squeeze else y
        Z = Y / self.rt[:, None]
        up = self.d2.T @ (self.M3[:, None] * (self.d2 @ Z))
        down = self.d1 @ ((self.d1.T @ (self.gc.M[2][:, None] * Z)) / self.M1[:, None])
        total = up / self.rt[:, None] + self.rt[:, None] * down
        return total[:, 0] if squeeze else total

    def diag(self):
        d2sq = self.d2.power(2)
        up = np.asarray(d2sq.T @ self.M3).ravel() / self.gc.M[2]
        d1sq = self.d1.power(2)
        down = np.asarray(d1sq @ (1.0 / self.M1)).ravel() * self.gc.M[2]
        return up + down


def _power_estimate(apply_A, dim, seed, iters=30):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = apply_A(v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


def block_cg(apply_A, B, X0, tol, maxit, precond=None):
    """Solve A X = B column-wise (A SPD), vectorized over columns."""
    X = X0.copy()
    R = B - apply_A(X)
    Z = R * precond[:, None] if precond is not None else R
    P = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z, optimize=True)
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    for _ in range(maxit):
        done = np.linalg.norm(R, axis=0) <= tol * bnorm
        if np.all(done):
            break
        AP = apply_A(P)
        pap = np.einsum("ij,ij->j", P, AP, optimize=True)
        alpha = np.where(pap > 0, rz / np.maximum(pap, 1e-300), 0.0)
        alpha = np.where(done, 0.0, alpha)
        X += alpha * P
        R -= alpha * AP
        Z = R * precond[:, None] if precond is not None else R
        rz_new = np.einsum("ij,ij->j", R, Z, optimize=True)
        beta = np.where(rz > 0, rz_new / np.maximum(rz, 1e-300), 0.0)
        P = Z + beta * P
        rz = rz_new
    return X


@dataclass
class HarmonicBasis:
    complex: GridComplex
    vectors: np.ndarray  # (dim, k) cochains, M2-orthonormal
    eigenvalues: np.ndarray  # the zero cluster
    first_positive: float
    gap: float
    b2_plus: int = 0
    b2_minus: int = 0
    signature: int = 0
    star_eigenvalues: np.ndarray = None


def smallest_eigenpairs(complex: GridComplex, m, seed=0, tol=1e-10, max_outer=60):
    """Block inverse iteration with CG inner solves on the symmetrized Delta_2."""
    A = _Sym2(complex)
    dim = complex.dim(2)
    lam_max = _power_estimate(A, dim, seed + 1)
    sigma = 1e-3 * lam_max
    diag = A.diag() + sigma
    precond = 1.0 / np.maximum(diag, 1e-300)

    def shifted(Y):
        return A(Y) + sigma * Y

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, m))
    X, _ = np.linalg.qr(X)
    theta = np.full(m, sigma)
    resid = np.full(m, np.inf)
    wanted = max(m - 2, 1)  # kernel candidates plus the first positive eigenvalue
    inner_tol = 1e-2
    for outer in range(max_outer):
        X0 = X / (theta + sigma)[None, :]
        Y = block_cg(shifted, X, X0, tol=inner_tol, maxit=2000, precond=precond)
        X, _ = np.linalg.qr(Y)
        AX = A(X)
        T = X.T @ AX
        T = 0.5 * (T + T.T)
        theta, U = np.linalg.eigh(T)
        X = X @ U
        AX = AX @ U
        resid = np.linalg.norm(AX - X * theta[None, :], axis=0)
        worst = float(np.max(resid[:wanted])) / max(lam_max, 1e-300)
        if worst <= tol:
            break
        inner_tol = max(1e-12, min(1e-2, 0.05 * worst))
    return theta, X, lam_max, resid


def harmonic_kernel(complex: GridComplex, expected_dim_hint=None, seed=0,
                    gap_threshold=1e3) -> HarmonicBasis:
    m = (expected_dim_hint or 6) + 4
    theta, X, lam_max, resid = smallest_eigenpairs(complex, m, seed=seed)
    rel = theta / max(lam_max, 1e-300)
    cluster = np.where(rel < 1e-8)[0]
    if len(cluster) == 0 or len(cluster) == m:
        raise GridError(
            f"unresolved kernel: eigenvalue cluster not separated, spectrum head {theta[:m]}")
    k = cluster[-1] + 1
    gap = theta[k] / max(theta[k - 1], 1e-300 * lam_max)
    if gap < gap_threshold:
        raise GridError(
            f"unresolved kernel: relative gap {gap:.2e} < {gap_threshold:g} "
            f"between {theta[k - 1]:.3e} and {theta[k]:.3e}")
    Z = X[:, :k] / np.sqrt(complex.M[2])[:, None]
    basis = HarmonicBasis(complex=complex, vectors=Z, eigenvalues=theta[:k],
                          first_positive=float(theta[k]), gap=float(gap))
    _star_counts(basis)
    return basis


def _colocate(complex: GridComplex, z):
    """Average the four faces of each axis pair to the cell center: (6, n^4)."""
    n = complex.n
    comps = z.reshape(6, n, n, n, n)
    out = np.empty_like(comps)
    for p, (i, j) in enumerate(PAIRS):
        k, l = (a for a in range(4) if a not in (i, j))
        f = comps[p]
        out[p] = 0.25 * (f + np.roll(f, -1, axis=k) + np.roll(f, -1, axis=l)
                         + np.roll(np.roll(f, -1, axis=k), -1, axis=l))
    return out.reshape(6, -1)


def _cell_centers(complex: GridComplex):
    n, h = complex.n, complex.h
    return _barycenters(n, h, (0, 1, 2, 3))


def _star_counts(basis: HarmonicBasis, tol=0.1):
    gc = basis.complex
    g = metric_values(gc.chart, _cell_centers(gc))
    sqrt_det = sqrt_det_values(g)
    vol = sqrt_det * gc.h**4
    gi = np.moveaxis(np.linalg.inv(g), 0, -1)  # component axes first
    Q = forms.lambda2_metric(gi)
    k = basis.vectors.shape[1]
    coloc = [_colocate(gc, basis.vectors[:, m]) for m in range(k)]
    stars = [forms.star_coord(gi, sqrt_det, c, Q) for c in coloc]
    S = np.empty((k, k))
    G = np.empty((k, k))
    for a in range(k):
        for b in range(k):
            S[a, b] = np.sum(forms.inner_lambda2(Q, stars[a], coloc[b]) * vol)
            G[a, b] = np.sum(forms.inner_lambda2(Q, coloc[a], coloc[b]) * vol)
    S = 0.5 * (S + S.T)
    from scipy.linalg import eigh as generalized_eigh

    mu = generalized_eigh(S, G, eigvals_only=True)
    near_plus = np.abs(mu - 1.0) <= tol
    near_minus = np.abs(mu + 1.0) <= tol
    if not np.all(near_plus | near_minus):
        raise GridError(f"star eigenvalue not near +-1: {mu} (convention bug signal)")
    basis.star_eigenvalues = mu
    basis.b2_plus = int(np.sum(near_plus))
    basis.b2_minus = int(np.sum(near_minus))
    basis.signature = basis.b2_plus - basis.b2_minus
    return basis


def definiteness_report(basis: HarmonicBasis):
    if basis.star_eigenvalues is None:
        _star_counts(basis)
    b2 = basis.b2_plus + basis.b2_minus
    return {
        "kernel_dim": int(basis.vectors.shape[1]),
        "b2_plus": basis.b2_plus,
        "b2_minus": basis.b2_minus,
        "signature": basis.signature,
        "definite": bool(basis.b2_plus == 0 or basis.b2_minus == 0),
        "b2_equals_abs_signature": bool(b2 == abs(basis.signature)),
        "star_eigenvalues": [float(x) for x in np.sort(basis.star_eigenvalues)],
        "zero_cluster": [float(x) for x in basis.eigenvalues],
        "first_positive_eigenvalue": basis.first_positive,
        "spectral_gap": basis.gap,
    }


def harmonic_representative(complex: GridComplex, class_pair=(0, 1), seed=0,
                            tol=1e-12):
    """M2-harmonic representative of the class of the constant 2-cochain on one
    axis pair, via a CG solve of delta d alpha = -delta phi0 on 1-cochains."""
    dim2 = complex.dim(2)
    phi0 = np.zeros(dim2)
    p = PAIRS.index(tuple(class_pair))
    phi0[p * complex.sites:(p + 1) * complex.sites] = 1.0
    if np.max(np.abs(complex.d[2] @ phi0)) != 0:
        raise GridError("reference cochain is not closed")
    rt1 = np.sqrt(complex.M[1])

    def B1(y):
        z = y / rt1
        return (complex.d[1].T @ (complex.M[2] * (complex.d[1] @ z))) / rt1

    rhs = -rt1 * complex.delta(2, phi0)
    y = _cg_single(B1, rhs, tol=tol, maxit=20 * complex.n**2 + 2000)
    alpha = y / rt1
    phi = phi0 + complex.d[1] @ alpha
    res = complex.delta(2, phi)
    return phi, float(np.max(np.abs(res)))


def _cg_single(apply_A, b, tol, maxit):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    bn = max(np.sqrt(rs), 1e-300)
    for _ in range(maxit):
        if np.sqrt(rs) <= tol * bn:
            break
        Ap = apply_A(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


# -- discrete field export and verification ----------------------------------------


@dataclass
class DiscreteField:
    complex: GridComplex
    coloc6: np.ndarray  # (6, n^4) cell-center co-located coordinate components
    h: float
    accuracy_order: int = 2


def discrete_field_export(basis_or_complex, index_or_vector=0) -> DiscreteField:
    if isinstance(basis_or_complex, HarmonicBasis):
        gc = basis_or_complex.complex
        z = basis_or_complex.vectors[:, index_or_vector]
    else:
        gc = basis_or_complex
        z = index_or_vector
    return DiscreteField(complex=gc, coloc6=_colocate(gc, z), h=gc.h)


def _roll_diff(u_grid, axis, h):
    return (np.roll(u_grid, -1, axis=axis) - np.roll(u_grid, 1, axis=axis)) / (2.0 * h)


def _roll_diff2(u_grid, a, b, h):
    if a == b:
        return (np.roll(u_grid, -1, axis=a) - 2.0 * u_grid + np.roll(u_grid, 1, axis=a)) / h**2
    upp = np.roll(np.roll(u_grid, -1, axis=a), -1, axis=b)
    upm = np.roll(np.roll(u_grid, -1, axis=a), 1, axis=b)
    ump = np.roll(np.roll(u_grid, 1, axis=a), -1, axis=b)
    umm = np.roll(np.roll(u_grid, 1, axis=a), 1, axis=b)
    return (upp - upm - ump + umm) / (4.0 * h**2)


class _CellGeometry:
    """Analytic metric/curvature data at all cell centers (jets, chunked).

    gi and lambda2 are g^-1 and the Lambda^2 metric with the component axes
    first, as the forms functions take them."""

    def __init__(self, complex: GridComplex, chunk=2048):
        self.gc = complex
        pts = _cell_centers(complex)
        self.pts = pts
        gv, giv, gam, R = [], [], [], []
        for i0 in range(0, len(pts), chunk):
            geom = Geometry.of_chart(complex.chart, pts[i0:i0 + chunk])
            gv.append(geom.g_values)
            giv.append(geom.ginv_values)
            gam.append(geom.gamma_values)
            R.append(curvature_at(geom, orientation=complex.chart.orientation).R)
        self.g = np.concatenate(gv)
        self.ginv = np.concatenate(giv)
        self.gamma = np.concatenate(gam)
        self.R = np.concatenate(R)
        self.sqrt_det = sqrt_det_values(self.g)
        # drift of the scalar Laplacian: (1/sqrt g) d_i (sqrt g g^ij) = -g^ab Gamma^j_ab
        self.lap_drift = -np.einsum("...ab,...jab->...j", self.ginv, self.gamma,
                                    optimize=True)
        self.gi = np.moveaxis(self.ginv, 0, -1)
        self.lambda2 = forms.entry_values(forms.lambda2_metric(self.gi))


def discrete_eq23_report(fieldd: DiscreteField, cell_geom: _CellGeometry = None):
    """Pointwise residual of the Delta(FG) identity with discrete derivatives,
    the three integrals, and the conservative Green-Stokes check."""
    gc = fieldd.complex
    n, h = gc.n, gc.h
    cg = cell_geom if cell_geom is not None else _CellGeometry(gc)
    c6 = fieldd.coloc6
    g = cg.g

    star6 = np.array(forms.star_coord(cg.gi, cg.sqrt_det, c6, cg.lambda2))
    f6_frame = forms.frame_components(orthonormal_frame(g), np.moveaxis(c6, 0, -1))
    split = forms.sd_split_frame(f6_frame)
    F = split["F"].reshape(n, n, n, n)
    G = split["G"].reshape(n, n, n, n)

    adapted = canonical.canonicalize(f6_frame)
    K = canonical._k_r(cg.R, adapted.basis)[0].reshape(n, n, n, n)

    # covariant derivative of the discrete field (coordinate components)
    grads = _covariant_nabla_discrete(gc, cg, c6)
    grads_star = _covariant_nabla_discrete(gc, cg, star6)
    ginv = cg.ginv
    np_sq = forms.nabla_norm_sq_values(cg.gi, grads + grads_star, cg.lambda2).reshape(n, n, n, n)
    nm_sq = forms.nabla_norm_sq_values(cg.gi, grads - grads_star, cg.lambda2).reshape(n, n, n, n)

    FG = F * G
    lap_FG = _discrete_scalar_laplacian(gc, cg, FG)
    dF = np.stack([_roll_diff(F, a, h) for a in range(4)], axis=-1).reshape(-1, 4)
    dG = np.stack([_roll_diff(G, a, h) for a in range(4)], axis=-1).reshape(-1, 4)
    cross = np.einsum("...ij,...i,...j->...", ginv, dF, dG, optimize=True).reshape(n, n, n, n)

    rhs = 8.0 * K * FG + G * np_sq + F * nm_sq + 2.0 * cross
    resid = lap_FG - rhs
    scale = (np.abs(lap_FG) + 8.0 * np.abs(K) * FG + G * np_sq + F * nm_sq
             + 2.0 * np.abs(cross))
    scale_rms = float(np.sqrt(np.mean(scale**2)))
    resid_rms = float(np.sqrt(np.mean(resid**2)))
    rel = resid_rms / max(scale_rms, 1e-300)

    vol = (cg.sqrt_det * h**4).reshape(n, n, n, n)
    I_dFG = float(np.sum(lap_FG * vol))
    I_kfg = float(np.sum(8.0 * K * FG * vol))
    rem = G * np_sq + F * nm_sq + 2.0 * cross
    I_rem = float(np.sum(rem * vol))

    # conservative flux form: integral vanishes to roundoff on the periodic grid
    sqg = cg.sqrt_det.reshape(n, n, n, n)
    flux_div = np.zeros_like(FG)
    for i in range(4):
        Ki = sum(ginv.reshape(n, n, n, n, 4, 4)[..., i, j] * _roll_diff(FG, j, h)
                 for j in range(4))
        flux_div += _roll_diff(sqg * Ki, i, h)
    green_stokes = float(np.sum(flux_div) * h**4)

    return {
        "n": n,
        "h": h,
        "rms_relative_residual": rel,
        "rms_abs_residual": resid_rms,
        "max_abs_residual": float(np.max(np.abs(resid))),
        "integral_delta_FG": I_dFG,
        "integral_8KFG": I_kfg,
        "integral_remainder": I_rem,
        "balance_residual": float(abs(I_dFG - I_kfg - I_rem)),
        "green_stokes_conservative": green_stokes,
        "C_h2_estimate": float(abs(I_dFG) / h**2),
        "accuracy_order": fieldd.accuracy_order,
        "degenerate_points": int(adapted.degenerate.sum()),
    }


def _covariant_nabla_discrete(gc: GridComplex, cg: _CellGeometry, c6):
    """(nabla_a phi)_{pair} by centered differences + analytic Christoffels.

    Returns array (4, 6, N), component axes first."""
    n, h = gc.n, gc.h
    full = forms.full_matrix_values(np.moveaxis(c6, 0, -1))  # (N,4,4)
    gam = cg.gamma
    corr = (np.einsum("...lai,...lj->...aij", gam, full, optimize=True)
            + np.einsum("...laj,...il->...aij", gam, full, optimize=True))
    out = np.empty((4, 6, gc.sites))
    for p, (i, j) in enumerate(PAIRS):
        fgrid = c6[p].reshape(n, n, n, n)
        for a in range(4):
            out[a, p] = _roll_diff(fgrid, a, h).ravel() - corr[:, a, i, j]
    return out


def _discrete_scalar_laplacian(gc: GridComplex, cg: _CellGeometry, u_grid):
    n, h = gc.n, gc.h
    ginv = cg.ginv.reshape(n, n, n, n, 4, 4)
    drift = cg.lap_drift.reshape(n, n, n, n, 4)
    out = np.zeros_like(u_grid)
    for i in range(4):
        for j in range(i, 4):
            d2 = _roll_diff2(u_grid, i, j, h)
            coef = ginv[..., i, j] * (1.0 if i == j else 2.0)
            out += coef * d2
        out += drift[..., i] * _roll_diff(u_grid, i, h)
    return out


def discrete_kato_scan(fieldd: DiscreteField, cell_geom: _CellGeometry = None):
    gc = fieldd.complex
    n, h = gc.n, gc.h
    cg = cell_geom if cell_geom is not None else _CellGeometry(gc)
    c6 = fieldd.coloc6
    ginv = cg.ginv
    grad_sq = forms.nabla_norm_sq_values(cg.gi, _covariant_nabla_discrete(gc, cg, c6),
                                         cg.lambda2)
    norm = np.sqrt(np.maximum(forms.inner_lambda2(cg.lambda2, c6, c6), 0.0))
    ngrid = norm.reshape(n, n, n, n)
    dn = np.stack([_roll_diff(ngrid, a, h) for a in range(4)], axis=-1).reshape(-1, 4)
    dn_sq = np.einsum("...ij,...i,...j->...", ginv, dn, dn, optimize=True)
    floor = (1e-6 * float(np.max(norm)))**2
    valid = (norm > 1e-6 * np.max(norm)) & (dn_sq > floor)
    out = {"n": n, "h": h, "valid_points": int(valid.sum()),
           "accuracy_order": fieldd.accuracy_order}
    if not np.any(valid):
        out["empty_scan"] = "all points parallel-degenerate"
        out["min_rho"] = None
        return out
    rho = grad_sq[valid] / dn_sq[valid]
    out["min_rho"] = float(np.min(rho))
    out["fraction_rho_below_2"] = float(np.mean(rho < 2.0))
    return out
