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
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .jets import Jet3


# Coordinate index pairs (i < j) labelling 2-form components, in storage order.
PAIRS = tuple(itertools.combinations(range(4), 2))


class ChartError(Exception):
    pass


@dataclass(frozen=True)
class MetricChart:
    g: tuple  # 4x4 nested tuple of expression trees, symmetric
    domain: tuple  # 4 pairs (lo, hi)
    orientation: int = 1
    name: str = "chart"
    product_radii: tuple | None = None  # (r1, r2) of a product_s2s2 chart

    def __post_init__(self):
        if len(self.g) != 4 or any(len(row) != 4 for row in self.g):
            raise ChartError("metric must be a 4x4 matrix of expressions")
        if len(self.domain) != 4 or any(hi <= lo for lo, hi in self.domain):
            raise ChartError("domain must be 4 nonempty open intervals")
        if self.orientation not in (1, -1):
            raise ChartError("orientation must be +1 or -1")


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

    Accepts metric jets directly so conformal metrics built from field data
    (not expressible in the DSL) run through the same code paths.
    """

    def __init__(self, gjets, pts):
        self.pts = np.asarray(pts, dtype=float)
        self.g = gjets
        self._cache = {}

    @staticmethod
    def of_chart(chart: MetricChart, pts):
        return Geometry(metric_jets(chart, pts), pts)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def ginv(self):
        return self._get("ginv", lambda: jets.mat_inverse(self.g, self.pts))

    @property
    def g_values(self):
        return self._get("gv", lambda: _mat_values(self.g))

    @property
    def ginv_values(self):
        return self._get("giv", lambda: _mat_values(self.ginv))

    @property
    def det_jet(self):
        return self._get("det", lambda: jets.det4(self.g))

    @property
    def sqrt_det_jet(self):
        return self._get("sqdet", lambda: jets.sqrt(self.det_jet, self.pts))

    @property
    def gamma(self):
        """Christoffel jets: gamma[i][j][k] = Gamma^i_jk (symmetric in j,k)."""

        def build():
            g, ginv = self.g, self.ginv
            dg = [[[g[l][k].partial(a) for k in range(4)] for l in range(4)]
                  for a in range(4)]
            gam = [[[None] * 4 for _ in range(4)] for _ in range(4)]
            for i in range(4):
                for j in range(4):
                    for k in range(j, 4):
                        acc = None
                        for l in range(4):
                            term = ginv[i][l] * (dg[j][l][k] + dg[k][j][l] - dg[l][j][k])
                            acc = term if acc is None else acc + term
                        gam[i][j][k] = 0.5 * acc
                        gam[i][k][j] = gam[i][j][k]
            return gam

        return self._get("gamma", build)

    @property
    def gamma_values(self):
        def build():
            gam = self.gamma
            batch = self.pts.shape[:-1]
            out = np.empty(batch + (4, 4, 4))
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        out[..., i, j, k] = gam[i][j][k].value
            return out

        return self._get("gamma_values", build)

    @property
    def dgamma_values(self):
        """d_a Gamma^i_jk as values, shape batch + (4,4,4,4) indexed [a,i,j,k]."""

        def build():
            gam = self.gamma
            batch = self.pts.shape[:-1]
            out = np.empty(batch + (4, 4, 4, 4))
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        out[..., :, i, j, k] = gam[i][j][k].grad()
            return out

        return self._get("dgamma_values", build)

    @property
    def riemann_coord(self):
        """R_ijkl in coordinates (all indices down), shape batch + (4,4,4,4)."""

        def build():
            G = self.gamma_values
            dG = self.dgamma_values
            rup = (
                -np.einsum("...iljk->...lijk", dG)
                + np.einsum("...jlik->...lijk", dG)
                - np.einsum("...lim,...mjk->...lijk", G, G, optimize=True)
                + np.einsum("...ljm,...mik->...lijk", G, G, optimize=True)
            )
            return np.einsum("...lm,...mijk->...ijkl", self.g_values, rup, optimize=True)

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


def _mat_values(m):
    batch = m[0][0].value.shape
    out = np.empty(batch + (4, 4))
    for i in range(4):
        for j in range(4):
            out[..., i, j] = m[i][j].value
    return out


# -- curvature slate ------------------------------------------------------------


@dataclass
class CurvatureSlate:
    points: np.ndarray  # (N, 4)
    frame: np.ndarray  # (N, 4, 4), columns are frame vectors in coordinates
    R: np.ndarray  # (N, 4, 4, 4, 4) in the orthonormal frame
    Ric: np.ndarray  # (N, 4, 4)
    scal: np.ndarray  # (N,)
    geometry: Geometry = field(default=None, repr=False)


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
    Rc = geom.riemann_coord
    R = np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", Rc, E, E, E, E, optimize=True)
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


def normal_chart_map(chart: MetricChart, P, B):
    """Jets at y = 0 of the normal-chart maps x(y) = p + B y - 1/2 C(y, y).

    One map per point: P has shape (N, 4), B shape (N, 4, 4) (or broadcastable)
    with columns orthonormal under g at p.  C^i_ab = Gamma^i_jk(p) B_ja B_kb
    makes Gamma'(0) = 0 in the y chart, whose coordinate frame at the origin
    is B.  The map is quadratic, so its four jets are exact.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    B = np.broadcast_to(np.asarray(B, dtype=float), P.shape[:-1] + (4, 4))
    geom = Geometry.of_chart(chart, P)
    gram = np.einsum("...ia,...ij,...jb->...ab", B, geom.g_values, B, optimize=True)
    dev = np.max(np.abs(gram - np.eye(4)))
    if dev > 1e-8:
        raise ChartError(f"basis is not orthonormal at p (Gram deviation {dev:.2e})")
    C = np.einsum("...ijk,...ja,...kb->...iab", geom.gamma_values, B, B, optimize=True)
    return [Jet3.quadratic(P[..., i], B[..., i, :], -0.5 * C[..., i, :, :])
            for i in range(4)]


def normal_chart(chart: MetricChart, P, B):
    """Geometry at y = 0 of the normal charts of `normal_chart_map`.

    g'_ab = J_ia J_jb g_ij(x(y)) with J_ia = dx_i/dy_a.  Taylor propagation
    through the composition gives the exact jets of g' at the origin, where
    g' = I and Gamma' = 0.
    """
    xj = normal_chart_map(chart, P, B)
    pts = _map_points(xj)
    g = metric_jets_env(chart, xj, pts)
    J = _jacobian(xj)
    gJ = [[_dot([g[i][j] for j in range(4)], [J[j][b] for j in range(4)])
           for b in range(4)] for i in range(4)]
    gp = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            gp[a][b] = gp[b][a] = _dot([J[i][a] for i in range(4)],
                                       [gJ[i][b] for i in range(4)])
    return Geometry(gp, np.zeros_like(pts))


def pullback_two_form(components, xjets):
    """Jets at y = 0 of a coordinate 2-form pulled back through x(y).

    components: six expressions in PAIRS order; returns six jets in PAIRS
    order, phi'_ab = sum_{i<j} phi_ij(x(y)) (J_ia J_jb - J_ib J_ja).
    """
    pts = _map_points(xjets)
    phi = [ex.eval_jet_env(node, xjets, pts) for node in components]
    J = _jacobian(xjets)
    return [_dot(phi, [J[i][a] * J[j][b] - J[i][b] * J[j][a] for i, j in PAIRS])
            for a, b in PAIRS]


def _map_points(xjets):
    return np.stack([x.value for x in xjets], axis=-1)


def _jacobian(xjets):
    """J[i][a] = dx_i/dy_a as jets."""
    return [[x.partial(a) for a in range(4)] for x in xjets]


def _dot(us, vs):
    acc = us[0] * vs[0]
    for u, v in zip(us[1:], vs[1:]):
        acc = acc + u * v
    return acc


# -- value-level checks -----------------------------------------------------------


def metric_values(chart: MetricChart, pts):
    """g at pts (shape (N, 4)) as plain values, shape (N, 4, 4)."""
    g = np.empty((len(pts), 4, 4))
    for i in range(4):
        for j in range(i, 4):
            g[:, i, j] = ex.eval_values(chart.g[i][j], pts)
            g[:, j, i] = g[:, i, j]
    return g


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
    """Positive-definiteness spot check (Cholesky at random interior points)."""
    pts = _scale_to_box(chart.domain, margin, np.random.default_rng(seed).random((count, 4)))
    g = metric_values(chart, pts)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as e:
        raise ChartError(f"metric not positive definite on {chart.name}: {e}") from None
    if np.any(np.linalg.det(g) <= 0.0):
        raise ChartError(f"metric determinant not positive on {chart.name}")
    return True
