"""Discrete Hodge theory on a periodic 4-D cubical lattice.

Cochains live on k-cells (site, axis subset); incidence maps d0..d3 are signed
forward differences along the lattice axes, applied by periodic shifts
(`Coboundary`); mass matrices are diagonal (lumped) with the pointwise
Lambda^k inner-product weight sqrt(det g) det([g^{ab}]_{a,b in S}) h^4 at the
cell barycenter.  By Jacobi's complementary-minor identity
det((g^-1)_SS) = det(g_{S^c S^c}) / det g, that weight is the closed form
det(g_{S^c S^c}) h^4 / sqrt(det g), a principal minor of the metric's entries
(no inverse).  delta_k = M_{k-1}^{-1} d_{k-1}^T M_k makes <d a, b> = <a, d b>
hold to roundoff by construction; Delta_2 = delta d + d delta on 2-cochains is
extracted matrix-free.  Cochain values are point samples of coordinate
components; face ordering is axis-pair lexicographic, then lattice row-major.

By the discrete Hodge theorem the class of each constant dx^i ^ dx^j holds one
harmonic cochain phi0 + d alpha, delta d alpha = -delta phi0: one block CG solve
gives all six, M2-orthonormalised by Cholesky in PAIRS order as ker Delta_2.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import Curv4Error, forms, jets
from .charts import (Geometry, MetricChart, chart_is_periodic, map_chunks, metric_values,
                     require_positive_definite, sqrt_det_values)
from .forms import PAIRS, TRIPLES
from .jets import Jet3
from .scenario import DEFAULT_TOLERANCES

AXSETS = (
    ((),),
    ((0,), (1,), (2,), (3,)),
    PAIRS,
    TRIPLES,
    ((0, 1, 2, 3),),
)
_PI, _PJ = np.array(PAIRS).T


class GridError(Curv4Error):
    pass


class GridComplex:
    def __init__(self, n, h, chart: MetricChart, d, M):
        self.n = n
        self.h = h
        self.chart = chart
        self.d = d  # d[k]: C^k -> C^{k+1}, a Coboundary stencil (entries +-1)
        self.M = M  # M[k]: 1-D positive arrays (diagonal mass matrices)
        self.sites = n**4

    def dim(self, k):
        return len(AXSETS[k]) * self.sites

    def _mass(self, k, x):
        """M_k, as a column when x is a (dim, m) block of cochains."""
        return self.M[k] if x.ndim == 1 else self.M[k][:, None]

    def delta(self, k, x):
        """delta_k x for x in C^k (or a column block): M_{k-1}^{-1} d_{k-1}^T (M_k x)."""
        return (self.d[k - 1].T @ (self._mass(k, x) * x)) / self._mass(k - 1, x)

    def laplacian2(self, x):
        """Delta_2 = delta_3 d_2 + d_1 delta_2 on 2-cochains (or a column block)."""
        return self.delta(3, self.d[2] @ x) + self.d[1] @ self.delta(2, x)

    def inner(self, k, a, b):
        return float(np.dot(a, self.M[k] * b))


class Coboundary:
    """The incidence map d_k: C^k -> C^{k+1} of the periodic lattice, or its
    transpose, applied as a stencil of lattice shifts.

    Each (k+1)-cell set AXSETS[k+1][r] has k+1 faces; face f is the k-cell set
    c = indices[r, f, 0] shifted along axis a = indices[r, f, 1], with sign
    s = data[r, f]: (d x)_r(i) = sum_f s (x_c(i + e_a) - x_c(i)).  d^T applies the
    same table with backward shifts.  Every matrix entry is +-1 and no two faces
    share one, so nnz counts two entries per face and site.  `@` takes cochains
    (dim,) and column blocks (dim, m)."""

    def __init__(self, n, k, transposed=False):
        self.n, self.k, self.transposed = n, k, transposed
        in_pos = {S: c for c, S in enumerate(AXSETS[k])}
        self.indices = np.array([[(in_pos[tuple(x for x in S if x != a)], a) for a in S]
                                 for S in AXSETS[k + 1]], dtype=np.intp)
        self.data = np.tile(np.array([1, -1, 1, -1], dtype=np.int8)[:k + 1],
                            (len(self.indices), 1))
        # Per face, s (x(i +- e_a) - x(i)) (+ for d, - for d^T) is `out[to] = x[hi] -
        # x[lo]`: one flat shift by the axis' stride over the (site, column) rows; then
        # the sites whose neighbour wraps round get `out[edge] = x[edge_hi] - x[edge_lo]`.
        self._plan = []
        N = n**4
        for r, (faces, signs) in enumerate(zip(self.indices.tolist(), self.data.tolist())):
            for (c, a), s in zip(faces, signs):
                stride = n ** (3 - a)
                to, frm = slice(0, N - stride), slice(stride, N)
                lead = (slice(None),) * a
                edge, far = lead + (n - 1,), lead + (0,)
                if transposed:
                    to, frm, edge, far = frm, to, far, edge
                hi, lo, edge_hi, edge_lo = (frm, to, far, edge) if s > 0 else (to, frm, edge, far)
                dst, src = (c, r) if transposed else (r, c)
                self._plan.append((dst, src, to, hi, lo, edge, edge_hi, edge_lo))

    @cached_property
    def T(self):
        return Coboundary(self.n, self.k, not self.transposed)

    @property
    def nnz(self):
        return 2 * self.data.size * self.n**4

    def __matmul__(self, x):
        n, cols = self.n, x.shape[1:]
        sets_in, sets_out = len(AXSETS[self.k]), len(AXSETS[self.k + 1])
        if self.transposed:
            sets_in, sets_out = sets_out, sets_in
        X = np.ascontiguousarray(x).reshape((sets_in, n**4, -1))
        out = np.empty((sets_out,) + X.shape[1:], dtype=np.result_type(x, self.data))
        diff = np.empty_like(out[0])
        lattice = (n, n, n, n, -1)
        filled = [False] * sets_out
        for dst, src, to, hi, lo, edge, edge_hi, edge_lo in self._plan:
            u, o = X[src], diff if filled[dst] else out[dst]
            np.subtract(u[hi], u[lo], out=o[to])
            u, o_lattice = u.reshape(lattice), o.reshape(lattice)
            np.subtract(u[edge_hi], u[edge_lo], out=o_lattice[edge])
            if filled[dst]:
                np.add(out[dst], diff, out=out[dst])
            filled[dst] = True
        return out.reshape((-1,) + cols)


def _barycenters(n, h, S):
    coords = np.indices((n, n, n, n)).reshape(4, -1).T * h
    off = np.zeros(4)
    for a in S:
        off[a] = h / 2.0
    return coords + off


def assemble(chart: MetricChart, n: int) -> GridComplex:
    """Periodic cochain complex for an analytic metric on (0, 2pi)^4."""
    if not chart_is_periodic(chart):
        raise GridError(f"metric on chart {chart.name!r} is not 2pi-periodic")
    h = 2.0 * np.pi / n
    d = tuple(Coboundary(n, k) for k in range(4))
    M = []
    for k in range(5):
        weights = []
        for S in AXSETS[k]:
            pts = _barycenters(n, h, S)
            g = metric_values(chart, pts)
            det = jets.det4(g)
            require_positive_definite(g, det, pts, "at cell barycenter", GridError)
            rest = tuple(a for a in range(4) if a not in S)
            weights.append((jets.minor(g, rest) if S else det) * h**4 / np.sqrt(det))
        M.append(np.concatenate(weights))
        if np.any(M[-1] <= 0.0):
            raise GridError(f"nonpositive mass entry in degree {k}")
    return GridComplex(n=n, h=h, chart=chart, d=d, M=tuple(M))


# -- matrix-free symmetric operator and solvers ----------------------------------


class SolverError(Curv4Error):
    """A solve stopped above its tolerance, or the grid's own algebra failed a
    consistency check (exit 1, unlike GridError's bad input)."""

    exit_code = 1


class _Sym2:
    """B = M2^{1/2} Delta_2 M2^{-1/2}, symmetric positive semidefinite."""

    def __init__(self, complex: GridComplex):
        self.gc = complex
        self.rt = np.sqrt(complex.M[2])

    def __call__(self, y):
        rt = self.rt if y.ndim == 1 else self.rt[:, None]
        return rt * self.gc.laplacian2(y / rt)

    def diag(self):
        """diag(d2^T M3 d2) / M2 + M2 diag(d1 M1^-1 d1^T): every entry of d is +-1,
        so each diagonal entry sums a mass over the two cells of every face."""
        gc, n = self.gc, self.gc.n
        M3, iM1 = (m.reshape(-1, n, n, n, n) for m in (gc.M[3], 1.0 / gc.M[1]))
        up, down = np.zeros((2, len(PAIRS), n, n, n, n))
        for r, faces in enumerate(gc.d[2].indices):  # 2-cell c is a face of 3-cell r
            for c, a in faces:
                up[c] += np.roll(M3[r], 1, axis=a) + M3[r]
        for r, faces in enumerate(gc.d[1].indices):  # 1-cell c is a face of 2-cell r
            for c, a in faces:
                down[r] += np.roll(iM1[c], -1, axis=a) + iM1[c]
        return up.ravel() / gc.M[2] + down.ravel() * gc.M[2]


def _power_estimate(apply_A, v, iters=30):
    """The largest eigenvalue of the SPD apply_A, by `iters` power steps from v."""
    v = v / np.sqrt(np.sum(v * v))  # not norm(): its BLAS dot rounds by thread count
    lam = 1.0
    for _ in range(iters):
        w = apply_A(v)
        lam = float(np.sqrt(np.sum(w * w)))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return lam


def block_cg(apply_A, B, X0, tol, maxit, precond=None):
    """Solve A X = B column-wise (A SPD), vectorized over columns.

    Returns X, the iterations taken and each column's relative (recurrence)
    residual |R| / |B|; a column above tol after maxit iterations stalled."""
    X = X0.copy()
    R = B - apply_A(X)
    Z = R * precond[:, None] if precond is not None else R
    P = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    rel = np.linalg.norm(R, axis=0) / bnorm
    its = 0
    while its < maxit and np.any(rel > tol):
        AP = apply_A(P)
        pap = np.einsum("ij,ij->j", P, AP)
        alpha = np.where(pap > 0, rz / np.maximum(pap, 1e-300), 0.0)
        alpha = np.where(rel <= tol, 0.0, alpha)
        X += alpha * P
        R -= alpha * AP
        Z = R * precond[:, None] if precond is not None else R
        rz_new = np.einsum("ij,ij->j", R, Z)
        beta = np.where(rz > 0, rz_new / np.maximum(rz, 1e-300), 0.0)
        P = Z + beta * P
        rz = rz_new
        its += 1
        rel = np.linalg.norm(R, axis=0) / bnorm
    return X, its, rel


def _class_representatives(complex: GridComplex, pairs, tol=1e-12, maxit=None):
    """Harmonic representatives phi0 + d alpha (one row per axis pair) of the
    constant 2-cochains phi0, by one block CG solve of delta d alpha = -delta phi0
    on 1-cochains, and the solve's CG fields."""
    N = complex.sites
    phi0 = np.zeros((complex.dim(2), len(pairs)))
    for c, pair in enumerate(pairs):
        p = PAIRS.index(tuple(pair))
        phi0[p * N:(p + 1) * N, c] = 1.0
    if np.max(np.abs(complex.d[2] @ phi0)) != 0:
        raise SolverError("reference cochain is not closed")
    d1, M2 = complex.d[1], complex.M[2][:, None]
    rt1 = np.sqrt(complex.M[1])[:, None]

    def B1(Y):
        return (d1.T @ (M2 * (d1 @ (Y / rt1)))) / rt1

    maxit = 20 * complex.n**2 + 2000 if maxit is None else maxit
    rhs = -(d1.T @ (M2 * phi0)) / rt1
    Y, its, rel = block_cg(B1, rhs, np.zeros_like(rhs), tol, maxit)
    for c in np.flatnonzero(rel > tol):
        i, j = pairs[c]
        raise SolverError(f"CG for the class of dx{i + 1}^dx{j + 1} stopped at its cap of "
                          f"{its} iterations with relative residual {rel[c]:.3e} above {tol:g}")
    cg = {"cg_iterations": its, "cg_relative_residual": float(np.max(rel))}
    return (phi0 + d1 @ (Y / rt1)).T, cg


class HarmonicBasis:
    def __init__(self, complex: GridComplex, vectors, kernel_residual=None, cg=None,
                 b2_plus=0, b2_minus=0, signature=0, star_eigenvalues=None):
        self.complex = complex
        self.vectors = vectors  # (dim, k) cochains, M2-orthonormal
        self.kernel_residual = kernel_residual  # max |Delta_2 z|_M / (max diag(Delta_2) |z|_M)
        self.cg = {} if cg is None else cg  # cg_iterations, cg_relative_residual
        self.b2_plus = b2_plus
        self.b2_minus = b2_minus
        self.signature = signature
        self.star_eigenvalues = star_eigenvalues


def smallest_eigenpairs(complex: GridComplex, m, seed=0, tol=1e-10, max_outer=60):
    """Block inverse iteration with CG inner solves on the symmetrized Delta_2; no
    command calls it, tests cross-check harmonic_kernel with it, perfbench wraps it."""
    A = _Sym2(complex)
    dim = complex.dim(2)
    lam_max = _power_estimate(A, np.random.default_rng(seed + 1).standard_normal(dim))
    sigma = 1e-3 * lam_max
    precond = 1.0 / np.maximum(A.diag() + sigma, 1e-300)

    def shifted(Y):
        return A(Y) + sigma * Y

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, m))
    X, _ = np.linalg.qr(X)
    theta = np.full(m, sigma)
    wanted = max(m - 2, 1)  # kernel candidates plus the first positive eigenvalue
    inner_tol = 1e-2
    for _ in range(max_outer):
        X0 = X / (theta + sigma)[None, :]
        Y, _, _ = block_cg(shifted, X, X0, tol=inner_tol, maxit=2000, precond=precond)
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


def harmonic_kernel(complex: GridComplex, tol=1e-10, maxit=None) -> HarmonicBasis:
    """M2-orthonormal basis of ker Delta_2, vector p in the class of PAIRS[p]; raises
    SolverError if the Gram rank is below 6 or |Delta_2 z|_M > tol d_max |z|_M.

    The scale d_max = max diag(Delta_2) is a closed form: Delta_2 is similar to
    the symmetric B = M2^{1/2} Delta_2 M2^{-1/2} by a diagonal matrix, so they
    share a diagonal, and a diagonal entry e_i^T B e_i of B is at most its
    largest eigenvalue (the Rayleigh-quotient bound).  So the residual against
    d_max is never below the one against lambda_max(B)."""
    phi, cg = _class_representatives(complex, PAIRS, maxit=maxit)
    gram = phi @ (complex.M[2] * phi).T
    rank = np.linalg.matrix_rank(gram, hermitian=True)
    if rank < len(PAIRS):
        raise SolverError(f"the six class representatives span only {rank} dimensions")
    Z = np.linalg.solve(np.linalg.cholesky(gram), phi).T  # (L^-1 phi)^T, M2-orthonormal
    del phi  # the blocks of the residual and of the star counts set the memory peak
    A = _Sym2(complex)
    d_max = float(np.max(A.diag()))
    Y = A.rt[:, None] * Z
    resid = float(np.max(np.linalg.norm(A(Y), axis=0)
                         / (d_max * np.linalg.norm(Y, axis=0))))
    del Y
    if resid > tol:
        raise SolverError(f"harmonic basis residual |Delta_2 z|_M / (max diag(Delta_2) "
                          f"|z|_M) = {resid:.3e} above {tol:g}")
    basis = HarmonicBasis(complex=complex, vectors=Z, kernel_residual=resid, cg=cg)
    _star_counts(basis)
    return basis


def _colocate(complex: GridComplex, z):
    """Average the four faces of each axis pair to the cell center: (6, n^4) for
    a cochain z, (6, n^4, m) for a (dim, m) block of them."""
    n = complex.n
    comps = z.reshape((6, n, n, n, n) + z.shape[1:])
    out = np.empty_like(comps)
    for p, (i, j) in enumerate(PAIRS):
        k, l = (a for a in range(4) if a not in (i, j))
        f = comps[p]
        out[p] = 0.25 * (f + np.roll(f, -1, axis=k) + np.roll(f, -1, axis=l)
                         + np.roll(np.roll(f, -1, axis=k), -1, axis=l))
    return out.reshape((6, -1) + z.shape[1:])


def _cell_centers(complex: GridComplex):
    return _barycenters(complex.n, complex.h, (0, 1, 2, 3))


def _star_gram(basis: HarmonicBasis):
    """S[a, b] = sum <*z_a, z_b> vol and G[a, b] = sum <z_a, z_b> vol over the cell
    centers for the co-located basis cochains z.  The cells run in chunks
    (map_chunks): in each, the raised pairs of every z_b and the cellwise
    pairings are one contraction each (cells last in C order, so each cell sum
    runs pairwise in one pass); the chunks' partial sums add up last."""
    gc = basis.complex
    pts = _cell_centers(gc)
    C = np.ascontiguousarray(np.moveaxis(_colocate(gc, basis.vectors), 0, -1))  # (cells, k, 6)

    def partial(idx):
        geom = Geometry.of_values(gc.chart, pts[idx])
        sqrt_det = sqrt_det_values(geom.g_values)
        vol = sqrt_det * gc.h**4
        Ci = C[idx]
        up = forms.raised_pairs(geom.ginv_values[:, None], Ci)
        star = forms.star_coord(up, sqrt_det[:, None, None])
        return [np.sum(np.einsum("nap,nbp->abn", Z, up, order="C") * vol, -1) for Z in (star, Ci)]

    return tuple(sum(x) for x in zip(*map_chunks(partial, np.arange(gc.sites))))


def _star_counts(basis: HarmonicBasis, tol=0.1):
    S, G = _star_gram(basis)
    S = 0.5 * (S + S.T)
    L = np.linalg.cholesky(G)
    C = np.linalg.solve(L, np.linalg.solve(L, S).T)  # L^-1 S L^-T: S mu = mu G
    mu = np.linalg.eigvalsh(C)
    near_plus = np.abs(mu - 1.0) <= tol
    near_minus = np.abs(mu + 1.0) <= tol
    if not np.all(near_plus | near_minus):
        raise SolverError(f"star eigenvalue not near +-1: {mu} (convention bug signal)")
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
        "kernel_residual": basis.kernel_residual,
        **basis.cg,
    }


def harmonic_representative(complex: GridComplex, class_pair=(0, 1), tol=1e-12, maxit=None):
    """The harmonic_kernel solve for one class: phi, max |delta phi|, CG fields."""
    (phi,), cg = _class_representatives(complex, [class_pair], tol=tol, maxit=maxit)
    return phi, float(np.max(np.abs(complex.delta(2, phi)))), cg


def _cg_single(apply_A, b, tol, maxit):
    """block_cg on one vector; no command calls it, perfbench/child.py wraps it by name."""
    X, _, _ = block_cg(lambda Y: apply_A(Y[:, 0])[:, None], b[:, None],
                       np.zeros((len(b), 1)), tol, maxit)
    return X[:, 0]


# -- discrete field export and verification ----------------------------------------


class DiscreteField:
    def __init__(self, complex: GridComplex, coloc6, h):
        self.complex = complex
        self.coloc6 = coloc6  # (6, n^4) cell-center co-located coordinate components
        self.h = h


def discrete_field_export(complex: GridComplex, z) -> DiscreteField:
    return DiscreteField(complex=complex, coloc6=_colocate(complex, z), h=complex.h)


def _neighbours(n, cells, order=2):
    """The flat indices (33, len(cells)) of the cells (row 0) and of their
    periodic neighbours on the n^4 lattice: +e_a and -e_a (rows 1 + a, 5 + a),
    then +e_a+e_b, +e_a-e_b, -e_a+e_b, -e_a-e_b of PAIRS[p] = (a, b) (rows
    9 + 4p to 12 + 4p).  At order 1 only the first 9 rows, all that a first
    difference reads (_difference_jets).  One table serves every field of a
    chunk."""
    stride = n ** np.arange(3, -1, -1)
    x = cells // stride[:, None] % n
    step = np.stack([(x + 1) % n - x, (x - 1) % n - x], axis=1) * stride[:, None, None]
    rows = [np.zeros((1, len(cells)), dtype=cells.dtype), np.swapaxes(step, 0, 1).reshape(8, -1)]
    if order == 2:
        pair = step[_PI, :, None] + step[_PJ, None, :]  # [p, sign of a, sign of b, cell]
        rows.append(pair.reshape(24, -1))
    return cells + np.concatenate(rows)


def _difference_jets(u, idx, h, order):
    """Stacked jets ((5,) at order 1, (NCOEFF,) at 2) of the cell field u
    (n^4, ...) at the cells of the neighbour table idx (_neighbours), by
    centred differences: the value, (u(+e_a) - u(-e_a)) / 2h, and the second
    differences (u(+e_a) - 2u + u(-e_a)) / h^2, halved as jets store it
    (jets._HESS_FAC), and for a < b
    (u(+e_a+e_b) - u(+e_a-e_b) - u(-e_a+e_b) + u(-e_a-e_b)) / 4h^2."""
    v = u[idx if order == 2 else idx[:9]]
    out = np.empty((jets.NCOEFF if order == 2 else 5,) + v.shape[1:])
    out[0] = v[0]
    out[1:5] = (v[1:5] - v[5:9]) / (2.0 * h)
    if order == 2:
        out[jets._HESS_SLOTS.diagonal()] = 0.5 * ((v[1:5] - 2.0 * v[0] + v[5:9]) / h**2)
        w = v[9:].reshape((len(PAIRS), 4) + v.shape[1:])
        out[jets._HESS_SLOTS[_PI, _PJ]] = (w[:, 0] - w[:, 1] - w[:, 2] + w[:, 3]) / (4.0 * h**2)
    return out


def _joined(fn, cells):
    """map_chunks(fn, cells) for a fn that returns a tuple of per-cell arrays,
    joined into one array per entry, one entry at a time, so that each
    entry's chunks are freed as soon as it is joined."""
    fields = [list(x) for x in zip(*map_chunks(fn, cells))]
    return [np.concatenate(fields.pop(0)) for _ in range(len(fields))]


class _CellGeometry:
    """What Theorem 2.1 (Eq 2.3) reads of a discrete field at every cell
    centre: sqrt_det, F, G, K, degenerate, nabla_plus_sq, nabla_minus_sq,
    lap_FG, dF_dG and flux_div.  The cells run in chunks (map_chunks).  A
    first pass takes sqrt(det g), F, G and *phi at every cell, from the
    forms.PointValues of g's value row (Geometry.of_values), since the
    second differences them.  The second builds each chunk's
    forms.PointValues of g's jets for K and the degenerate flags, as
    verify.PointBundle does, and feeds the verifiers' forms operators
    difference jets (_difference_jets) for exact ones: |nabla phi+-|^2,
    Delta(FG), <dF, dG> and the Green-Stokes flux, whose divergence a third
    pass takes.  g^-1 and Gamma live for their chunk only."""

    def __init__(self, fieldd: DiscreteField, tols=DEFAULT_TOLERANCES):
        gc, c6 = fieldd.complex, fieldd.coloc6
        n, h = gc.n, gc.h
        pts, cells = _cell_centers(gc), np.arange(gc.sites)

        def values(idx):
            v = forms.PointValues(Geometry.of_values(gc.chart, pts[idx]), c6[:, idx].T, tols)
            star = forms.star_coord(forms.raised_pairs(v.geom.ginv_values, v.phi),
                                    v.sqrt_det[:, None])
            return (v.sqrt_det, *v.fg[:2], star)

        self.sqrt_det, self.F, self.G, star = _joined(values, cells)
        FG = self.F * self.G

        def derivatives(geom, sqrt_det, nb):
            """|nabla phi+-|^2, Delta(FG), <dF, dG> and the flux on the cells of
            the neighbour table nb."""
            phi, star_j = (_difference_jets(u, nb, h, 1) for u in (c6.T, star))
            F, G = (Jet3(_difference_jets(u, nb, h, 1)) for u in (self.F, self.G))
            fg = Jet3(_difference_jets(FG, nb, h, 2))
            nabla_pm = (forms.nabla_norm_sq_values(  # phi + *phi, then phi - *phi
                geom.ginv_values, forms.nabla_two_form_values(geom, op(phi, star_j)))
                for op in (np.add, np.subtract))
            return (*nabla_pm, forms.scalar_laplacian_values(geom, fg),
                    forms.grad_inner_values(geom, F, G),
                    forms.green_stokes_flux(geom, fg, sqrt_det))

        def pointwise(idx):
            v = forms.PointValues(Geometry.of_chart(gc.chart, pts[idx]), c6[:, idx].T, tols)
            # the curvature once the derivatives' temporaries are freed
            return (*derivatives(v.geom, v.sqrt_det, _neighbours(n, idx)), v.curvature_K["K"],
                    v.adapted.degenerate)

        (self.nabla_plus_sq, self.nabla_minus_sq, self.lap_FG, self.dF_dG, flux, self.K,
         self.degenerate) = _joined(pointwise, cells)
        del star, FG

        def divergence(idx):
            d = _difference_jets(flux, _neighbours(n, idx, 1), h, 1)
            return sum(d[1 + a, :, a] for a in range(4))

        self.flux_div = np.concatenate(map_chunks(divergence, cells))


def discrete_eq23_report(fieldd: DiscreteField, tols=DEFAULT_TOLERANCES):
    """Theorem 2.1 (Eq 2.3) with discrete derivatives, as sums over the cells
    of _CellGeometry: the pointwise residual of Delta(FG) against
    forms.thm21_rhs, measured against |Delta(FG)| + sum |term|, the three
    integrals and the conservative Green-Stokes check."""
    h = fieldd.complex.h
    cg = _CellGeometry(fieldd, tols)
    terms = forms.thm21_rhs(cg.F, cg.G, cg.K, cg.nabla_plus_sq, cg.nabla_minus_sq, cg.dF_dG)
    resid = cg.lap_FG - sum(terms)
    scale = sum((np.abs(t) for t in terms), np.abs(cg.lap_FG))
    scale_rms = float(np.sqrt(np.mean(scale**2)))
    resid_rms = float(np.sqrt(np.mean(resid**2)))
    rel = resid_rms / max(scale_rms, 1e-300)

    vol = cg.sqrt_det * h**4
    I_dFG = float(np.sum(cg.lap_FG * vol))
    I_kfg = float(np.sum(terms[0] * vol))
    I_rem = float(np.sum(sum(terms[1:]) * vol))

    return {
        "n": fieldd.complex.n,
        "h": h,
        "rms_relative_residual": rel,
        "rms_abs_residual": resid_rms,
        "max_abs_residual": float(np.max(np.abs(resid))),
        "integral_delta_FG": I_dFG,
        "integral_8KFG": I_kfg,
        "integral_remainder": I_rem,
        "balance_residual": float(abs(I_dFG - I_kfg - I_rem)),
        # conservative flux form: its integral vanishes to round-off on the periodic grid
        "green_stokes_conservative": float(np.sum(cg.flux_div) * h**4),
        "C_h2_estimate": float(abs(I_dFG) / h**2),
        "degenerate_points": int(cg.degenerate.sum()),
    }
