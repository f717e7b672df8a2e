"""Coordinate charts with analytic metrics and curvature extraction.

Conventions (the sign dictionary every verifier refers to):
  (a) R(X,Y) = -grad_X grad_Y + grad_Y grad_X + grad_[X,Y],
      R_ijkl = <R(e_i,e_j)e_k, e_l>;
  (b) sec(e_i,e_j) = R_ijij in an orthonormal frame, positive on round spheres
      (constant curvature c: R_ijkl = c (d_ik d_jl - d_il d_jk));
  (c) Ric_ij = sum_k R_kikj, positive on spheres; scal = trace;
  (d) Delta_fun = trace of the covariant Hessian (so Delta_fun(h^2) =
      2 h Delta_fun h + 2|grad h|^2); Delta_Hodge = d delta + delta d
      = -Delta_fun on functions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import Curv4Error, jets
from . import expr as ex
from .jets import Jet3


# Coordinate index pairs (i < j) labelling 2-form components, in storage order.
PAIRS = tuple(itertools.combinations(range(4), 2))


class ChartError(Curv4Error):
    pass


class MetricChart:
    def __init__(self, g, domain, orientation=1, name="chart", product_radii=None):
        if len(g) != 4 or any(len(row) != 4 for row in g):
            raise ChartError("metric must be a 4x4 matrix of expressions")
        if len(domain) != 4 or any(hi <= lo for lo, hi in domain):
            raise ChartError("domain must be 4 nonempty open intervals")
        if orientation not in (1, -1):
            raise ChartError("orientation must be +1 or -1")
        self.g = g  # 4x4 nested tuple of expression trees, symmetric
        self.domain = domain  # 4 pairs (lo, hi)
        self.orientation = orientation
        self.name = name
        self.product_radii = product_radii  # (r1, r2) of a product_s2s2 chart


def chart_from_strings(entries, domain, orientation=1, name="chart"):
    """Build a chart from a 4x4 (or upper-triangular dict) of source strings."""
    g = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            src = entries[i][j]
            g[i][j] = ex.parse(src) if isinstance(src, str) else src
    return MetricChart(tuple(tuple(row) for row in g), tuple(tuple(d) for d in domain),
                       orientation, name)


def conformal_chart(base: MetricChart, factor, name=None):
    """Chart with metric exp(2 f) g, f given as an expression (tree or source)."""
    f = ex.parse(factor) if isinstance(factor, str) else factor
    scale = ex.Call("exp", ex.Bin("*", ex.num(2.0), f))
    g = tuple(tuple(ex.mul(scale, base.g[i][j]) for j in range(4)) for i in range(4))
    return MetricChart(g, base.domain, base.orientation,
                       name or f"conformal({base.name})", base.product_radii)


# -- sampling -----------------------------------------------------------------


def sample_box(domain, count, margin=0.05, seed=0):
    """Low-discrepancy points in the box shrunk by `margin` per side."""
    if count < 1:
        raise ChartError("sample count must be >= 1")
    return _scale_to_box(domain, margin, scrambled_halton(count, seed))


def scrambled_halton(count, seed):
    """First `count` points of the 4-D Halton sequence (bases 2, 3, 5, 7) with
    Owen's random digit permutations (Owen, "A randomized Halton algorithm in
    R", arXiv:1706.02808), shape (count, 4) in [0, 1).

    Each base b gets ceil(54 / log2 b) - 1 digit permutations, enough to fill
    a double, each a shuffle of 0..b-1 drawn in turn from
    np.random.default_rng(seed); digits are summed from the most significant
    one down.  This is the draw and the summation order of
    scipy.stats.qmc.Halton(d=4, scramble=True, seed=seed), so the points are
    the same bit for bit, without importing scipy.stats.
    """
    rng = np.random.default_rng(int(seed))
    index = np.arange(count)
    cols = []
    for base in (2, 3, 5, 7):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = index.copy()
        col = np.zeros(count)
        weight = 1.0 / base
        for perm in perms:
            col += perm[quotient % base] * weight
            quotient //= base
            weight /= base
        cols.append(col)
    return np.stack(cols, axis=-1)


def _scale_to_box(domain, margin, u):
    """Map unit-cube points u (N, 4) into the box shrunk by `margin` per side."""
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    return lo + (hi - lo) * (margin + (1.0 - 2.0 * margin) * u)


# -- metric evaluation --------------------------------------------------------


def metric_jets(chart: MetricChart, pts):
    """4x4 nested list of Jet3 for g at pts (shape (..., 4))."""
    pts = np.asarray(pts, dtype=float)
    env = [Jet3.variable(i, pts[..., i]) for i in range(4)]
    return metric_jets_env(chart, env, pts)


def metric_jets_env(chart: MetricChart, env, pts=None):
    g = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            g[i][j] = ex.eval_jet_env(chart.g[i][j], env, pts)
            if j != i:
                g[j][i] = g[i][j]
    return g


class Geometry:
    """Per-point metric pipeline shared by curvature and form operators.

    Accepts the metric's stacked jets (shape batch + (4, 4, NCOEFF)) directly
    so conformal metrics built from field data (not expressible in the DSL)
    run through the same code paths.  g^-1, Gamma, d Gamma and R come in
    closed form from V = g(p)^-1, dg and d2g (d_a g^-1 = -V d_a g V, and the
    lowered symbols Gamma_ljk and their derivatives); no Christoffel jets are
    built.
    """

    def __init__(self, gc, pts):
        self.pts = np.asarray(pts, dtype=float)
        self.gc = gc
        self._cache = {}

    @staticmethod
    def of_chart(chart: MetricChart, pts):
        return Geometry(jets.stack(metric_jets(chart, pts)), pts)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def g(self):
        """g as a 4x4 nested list of jets."""
        return self._get("g", lambda: jets.entries(self.gc))

    @property
    def ginv(self):
        """g^-1 as a 4x4 nested list of jets, exact at order 2."""
        return self._get("ginv", lambda: jets.mat_inverse(self.g, self.pts))

    @property
    def g_values(self):
        return self._get("gv", lambda: np.ascontiguousarray(self.gc[..., 0]))

    @property
    def ginv_values(self):
        return self._get("giv", lambda: jets.inverse_values(self.g_values, self.pts))

    @property
    def dg_values(self):
        """d_a g_ij, shape batch + (4, 4, 4) indexed [a, i, j]."""
        return self._get("dg", lambda: np.moveaxis(Jet3(self.gc).grad(), -1, -3))

    @property
    def dginv_values(self):
        """d_a g^ij = -(V d_a g V)^ij, shape batch + (4, 4, 4) indexed [a, i, j]."""
        return self._get("dginv", lambda: -np.einsum(
            "...ik,...akl,...lj->...aij", self.ginv_values, self.dg_values, self.ginv_values,
            optimize=True))

    @property
    def det_jet(self):
        return self._get("det", lambda: jets.det4(self.g))

    @property
    def sqrt_det_jet(self):
        return self._get("sqdet", lambda: jets.sqrt(self.det_jet, self.pts))

    @property
    def d2g_values(self):
        """d_a d_b g_ij, shape batch + (4, 4, 4, 4) indexed [a, b, i, j]."""
        return self._get("d2g", lambda: np.moveaxis(Jet3(self.gc).hessian(), (-2, -1), (-4, -3)))

    @property
    def gamma_low_values(self):
        """Gamma_ljk = (d_j g_lk + d_k g_jl - d_l g_jk) / 2, shape batch + (4, 4, 4)."""
        dg = self.dg_values
        return self._get("gamma_low", lambda: 0.5 * (
            np.einsum("...jlk->...ljk", dg) + np.einsum("...kjl->...ljk", dg) - dg))

    @property
    def gamma_values(self):
        """Gamma^i_jk = V^il Gamma_ljk, shape batch + (4, 4, 4) indexed [i, j, k]."""
        return self._get("gamma", lambda: np.einsum(
            "...il,...ljk->...ijk", self.ginv_values, self.gamma_low_values, optimize=True))

    @property
    def dgamma_values(self):
        """d_a Gamma^i_jk = d_a g^il Gamma_ljk + V^il d_a Gamma_ljk, shape
        batch + (4,4,4,4) indexed [a,i,j,k]."""

        def build():
            d2g = self.d2g_values
            dlow = 0.5 * (np.einsum("...ajlk->...aljk", d2g)
                          + np.einsum("...akjl->...aljk", d2g) - d2g)
            return (np.einsum("...ail,...ljk->...aijk", self.dginv_values,
                              self.gamma_low_values, optimize=True)
                    + np.einsum("...il,...aljk->...aijk", self.ginv_values, dlow, optimize=True))

        return self._get("dgamma", build)

    @property
    def riemann_coord(self):
        """R_ijkl in coordinates (all indices down), shape batch + (4,4,4,4):
        (d_i d_l g_jk + d_j d_k g_il - d_i d_k g_jl - d_j d_l g_ik) / 2
        + Gamma_mil Gamma^m_jk - Gamma_mjl Gamma^m_ik."""

        def build():
            d2g = self.d2g_values
            GG = np.einsum("...mil,...mjk->...ijkl", self.gamma_low_values, self.gamma_values,
                           optimize=True)
            return (0.5 * (np.einsum("...iljk->...ijkl", d2g) + np.einsum("...jkil->...ijkl", d2g)
                           - np.einsum("...ikjl->...ijkl", d2g)
                           - np.einsum("...jlik->...ijkl", d2g))
                    + GG - np.swapaxes(GG, -4, -3))

        return self._get("riemann_coord", build)

    @property
    def frame(self):
        """Orthonormal frame values (see orthonormal_frame); the orientation
        flag is handled by curvature_at."""
        return self._get("frame", lambda: orthonormal_frame(self.g_values))


def orthonormal_frame(g_values):
    """Columns E[..., :, a] orthonormal under g: the inverse transpose of the
    Cholesky factor, i.e. Gram-Schmidt on the coordinate basis in fixed order."""
    L = np.linalg.cholesky(g_values)
    eye = np.broadcast_to(np.eye(4), L.shape)
    return np.swapaxes(np.linalg.solve(L, eye), -1, -2)


# -- curvature slate ------------------------------------------------------------


class CurvatureSlate:
    def __init__(self, points, frame, R, Ric, scal, geometry: Geometry = None):
        self.points = points  # (N, 4)
        self.frame = frame  # (N, 4, 4), columns are frame vectors in coordinates
        self.R = R  # (N, 4, 4, 4, 4) in the orthonormal frame
        self.Ric = Ric  # (N, 4, 4)
        self.scal = scal  # (N,)
        self.geometry = geometry


def curvature_at(chart_or_geom, pts=None, frame=None, orientation=1):
    """Curvature tensor in an orthonormal frame (Gram-Schmidt or supplied).

    `frame`, if given, must hold orthonormal tangent vectors as columns.
    """
    if isinstance(chart_or_geom, MetricChart):
        chart = chart_or_geom
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _check_interior(chart, pts)
        geom = Geometry.of_chart(chart, pts)
        orientation = chart.orientation
    else:
        geom = chart_or_geom
        pts = geom.pts
    if frame is None:
        E = geom.frame.copy()
        if orientation < 0:
            E[..., :, 3] *= -1.0
    else:
        E = np.broadcast_to(np.asarray(frame, dtype=float), pts.shape[:-1] + (4, 4)).copy()
        gram = np.einsum("...ia,...ij,...jb->...ab", E, geom.g_values, E, optimize=True)
        dev = np.max(np.abs(gram - np.eye(4)))
        if dev > 1e-8:
            raise ChartError(f"supplied basis is not orthonormal (Gram deviation {dev:.2e})")
    R = geom.riemann_coord
    batch = R.shape[:-4]
    for _ in range(4):  # contract the leading index with E; its frame index goes last
        R = (np.moveaxis(R, -4, -1).reshape(batch + (64, 4)) @ E).reshape(batch + (4,) * 4)
    Ric = np.einsum("...kikj->...ij", R)
    scal = np.einsum("...ii->...", Ric)
    return CurvatureSlate(points=pts, frame=E, R=R, Ric=Ric, scal=scal, geometry=geom)


def _check_interior(chart, pts):
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    if np.any(pts <= lo) or np.any(pts >= hi):
        bad = np.argmax(np.any((pts <= lo) | (pts >= hi), axis=-1))
        raise ChartError(f"point {tuple(pts.reshape(-1,4)[bad])} not interior to {chart.name}")


def sectional(slate: CurvatureSlate, u, v):
    """Sectional curvature of span(u, v); u, v in frame components."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    num = np.einsum("...ijkl,...i,...j,...k,...l->...", slate.R, u, v, u, v, optimize=True)
    uu = np.einsum("...i,...i->...", u, u, optimize=True)
    vv = np.einsum("...i,...i->...", v, v, optimize=True)
    uv = np.einsum("...i,...i->...", u, v, optimize=True)
    den = uu * vv - uv**2
    if np.any(den <= 1e-14 * uu * vv):
        raise ChartError("degenerate plane in sectional curvature")
    return num / den


# -- normal charts --------------------------------------------------------------


def normal_chart_map(geom: Geometry, B):
    """Jets at y = 0 of the normal-chart maps x(y) = p + B y - 1/2 C(y, y).

    One map per point p of geom.pts (shape (N, 4)), from the geometry there;
    B has shape (N, 4, 4) (or broadcastable) with columns orthonormal under g
    at p.  C^i_ab = Gamma^i_jk(p) B_ja B_kb makes Gamma'(0) = 0 in the y
    chart, whose coordinate frame at the origin is B.  The map is quadratic,
    so its four jets are exact.
    """
    P = geom.pts
    B = np.broadcast_to(np.asarray(B, dtype=float), P.shape[:-1] + (4, 4))
    gram = np.einsum("...ia,...ij,...jb->...ab", B, geom.g_values, B, optimize=True)
    dev = np.max(np.abs(gram - np.eye(4)))
    if dev > 1e-8:
        raise ChartError(f"basis is not orthonormal at p (Gram deviation {dev:.2e})")
    C = np.einsum("...ijk,...ja,...kb->...iab", geom.gamma_values, B, B, optimize=True)
    return [Jet3.quadratic(P[..., i], B[..., i, :], -0.5 * C[..., i, :, :])
            for i in range(4)]


def normal_chart(chart: MetricChart, xj):
    """Geometry at y = 0 of the normal charts with maps xj (`normal_chart_map`).

    g'_ab = J_ia J_jb g_ij(x(y)) with J_ia = dx_i/dy_a.  Taylor propagation
    through the composition gives the exact jets of g' at the origin, where
    g' = I and Gamma' = 0.
    """
    pts = _map_points(xj)
    gp = jets.congruence(_jacobian(xj), jets.stack(metric_jets_env(chart, xj, pts)))
    upper, lower = np.triu_indices(4, 1)
    gp[..., lower, upper, :] = gp[..., upper, lower, :]
    return Geometry(gp, np.zeros_like(pts))


def pullback_two_form(components, xjets):
    """Jets at y = 0 of a coordinate 2-form pulled back through x(y).

    components: six expressions in PAIRS order; returns six jets in PAIRS
    order, phi'_ab = sum_ij J_ia phi_ij(x(y)) J_jb.
    """
    pts = _map_points(xjets)
    phi = [ex.eval_jet_env(node, xjets, pts) for node in components]
    pulled = jets.congruence(_jacobian(xjets), jets.antisymmetric([u.c for u in phi], PAIRS))
    return [Jet3(pulled[..., a, b, :]) for a, b in PAIRS]


def _map_points(xjets):
    return np.stack([x.value for x in xjets], axis=-1)


def _jacobian(xjets):
    """J[..., i, a, :] = dx_i/dy_a as stacked jets."""
    return np.stack([np.stack([x.partial(a).c for a in range(4)], axis=-2) for x in xjets],
                    axis=-3)


# -- value-level checks -----------------------------------------------------------


def metric_entries(chart: MetricChart, pts):
    """g at pts (shape (N, 4)) as a symmetric 4x4 nested list of contiguous (N,)
    arrays; an entry that overflows or is undefined at a point is a ChartError."""
    g = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            with np.errstate(over="ignore", invalid="ignore"):
                v = np.array(np.broadcast_to(ex.eval_values(chart.g[i][j], pts), len(pts)))
            try:
                jets.assert_finite(v, lambda: f"expression '{ex.to_string(chart.g[i][j])}'", pts)
            except jets.JetError as e:
                raise ChartError(f"metric entry g{i + 1}{j + 1}: {e}") from None
            g[i][j] = g[j][i] = v
    return g


def metric_values(chart: MetricChart, pts):
    """g at pts (shape (N, 4)) as plain values, shape (N, 4, 4)."""
    return np.stack([np.stack(row, axis=-1) for row in metric_entries(chart, pts)], axis=-2)


def require_positive_definite(g, det, pts, where, error=ChartError):
    """Sylvester's criterion on metric entries g[i][j] (N,) with det = det g:
    g11, the leading 2x2 and 3x3 minors and det g are all > 0, or `error` names
    the first point of pts that fails."""
    ok = (g[0][0] > 0) & (jets.minor(g, (0, 1)) > 0) & (jets.minor(g, (0, 1, 2)) > 0) & (det > 0)
    if not np.all(ok):
        raise error(f"metric not positive definite {where} {jets._first_bad(~ok, pts)}")


def sqrt_det_values(g_values):
    """sqrt(det g) of metric values (N, 4, 4) by the cofactor expansion of
    jets.det4, so it equals Geometry.sqrt_det_jet.value bit for bit
    (np.linalg.det differs from it in the last bit)."""
    return np.sqrt(jets.det4(np.moveaxis(g_values, 0, -1)))


def chart_is_periodic(chart: MetricChart, tol=1e-12):
    """True if the chart is (0, 2pi)^4 and g is 2pi-periodic along every axis."""
    if any(abs(lo) > 1e-15 or abs(hi - 2.0 * np.pi) > 1e-12 for lo, hi in chart.domain):
        return False
    base = np.random.default_rng(97).uniform(0.1, 1.0, size=(8, 4))
    shifted = np.concatenate([base + 2.0 * np.pi * e for e in np.eye(4)])
    g_base = np.tile(metric_values(chart, base), (4, 1, 1))
    return bool(np.max(np.abs(metric_values(chart, shifted) - g_base)) <= tol)


def validate_chart(chart: MetricChart, count=32, margin=0.05, seed=7):
    """Finiteness and positive-definiteness spot check at random interior points."""
    pts = _scale_to_box(chart.domain, margin, np.random.default_rng(seed).random((count, 4)))
    g = metric_entries(chart, pts)
    require_positive_definite(g, jets.det4(g), pts, f"on {chart.name} at point")
    return True
