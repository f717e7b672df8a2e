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
_PI, _PJ = np.array(PAIRS).T
# Index arrays of the curvature operator M[(ij), (kl)]: i, j over its rows,
# k, l over its columns.
_I, _J, _K, _L = _PI[:, None], _PJ[:, None], _PI, _PJ
# Its four second-derivative terms d_i d_l g_jk, d_j d_k g_il, -d_i d_k g_jl
# and -d_j d_l g_ik, summed in that order (Geometry.curvature_operator), each
# (4, 6, 6) over [term, (ij), (kl)]: the jet slot of d_a d_b, the entry (r, s)
# of g it differentiates, and the weight +-1/2 times the slot's factor.
_D2A, _D2B, _D2R, _D2S = (np.stack([np.broadcast_to(x, (6, 6)) for x in axis]) for axis in zip(
    (_I, _L, _J, _K), (_J, _K, _I, _L), (_I, _K, _J, _L), (_J, _L, _I, _K)))
_D2G_SLOT = jets._HESS_SLOTS[_D2A, _D2B]
_D2G_ENTRY = 4 * _D2R + _D2S
_D2G_WEIGHT = 0.5 * np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * jets._HESS_FAC[_D2A, _D2B]
# The upper entries (i <= j) of the metric, in evaluation order.
UPPER = tuple(itertools.combinations_with_replacement(range(4), 2))
# Points (or grid cells) per chunk of every pointwise path (map_chunks): the
# verifiers, kato scan and the integrals.  A chunk's peak is linear in its
# points: 11-16 KB per point of conformal_product (21 KB for eq22 and
# lemma22, whose normal charts hold the most).  Warm, in-process and in one
# chunk on a 2-core x86 box, the kernels' time is linear in points from 256
# to 512 (kato scan 8.0 -> 15.3 ms, thm21 17.7 -> 32.7, verify conformal
# 14.3 -> 27.3, weitzenboeck 8.3 -> 15.9), and a chunk's fixed cost, taken as
# its time at 16 points, is 2-5 ms; so 256 points halve the peak of 512 at
# about the same time per point.
CHUNK = 256


class ChartError(Curv4Error):
    pass


class MetricChart:
    """An analytic metric on a coordinate box, oriented by its coordinates
    (dx1^dx2^dx3^dx4 > 0); reflecting x4 in the metric, a form and the domain
    reverses it.  `preset` is (name, parameters) of the preset that built the
    chart, or None."""

    def __init__(self, g, domain, name="chart", *, preset=None):
        self.g = g  # 4x4 nested tuple of expression trees, symmetric
        self.domain = domain  # 4 pairs (lo, hi)
        self.name = name
        self.preset = preset
        self.plan = ex.Plan([g[i][j] for i, j in UPPER])  # the UPPER entries of g


def chart_from_strings(entries, domain, name="chart", *, preset=None):
    """Build a chart from a 4x4 (or upper-triangular dict) of source strings."""
    g = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            src = entries[i][j]
            g[i][j] = ex.parse(src) if isinstance(src, str) else src
    return MetricChart(tuple(tuple(row) for row in g), tuple(tuple(d) for d in domain),
                       name, preset=preset)


def conformal_chart(base: MetricChart, factor, name=None):
    """Chart with metric exp(2 f) g, f given as an expression (tree or source)."""
    f = ex.parse(factor) if isinstance(factor, str) else factor
    scale = ex.Call("exp", ex.Bin("*", ex.num(2.0), f))
    g = tuple(tuple(ex.mul(scale, base.g[i][j]) for j in range(4)) for i in range(4))
    return MetricChart(g, base.domain, name or f"conformal({base.name})", preset=base.preset)


# -- sampling -----------------------------------------------------------------


# The streams of `uniforms`, one per use, so no two uses of one seed draw the
# same numbers.  No command draws from POWER any more; it keeps its index so
# that FORM's stream, and every random_analytic form, stays as it was.
HALTON, SPOT, PERIODIC, PLANES, POWER, FORM = range(6)
HALTON_BASES = (2, 3, 5, 7)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment, 2^64 / golden ratio


def _mix64(z):
    """SplitMix64's output function on a uint64 array (wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64(state, count):
    """The first `count` outputs of SplitMix64 (Steele, Lea & Flood, "Fast
    splittable pseudorandom number generators", OOPSLA 2014) from the 64-bit
    `state`: output i is mix(state + (i + 1) gamma), a fixed function of
    (state, i).  Array arithmetic only: numpy warns when a scalar wraps."""
    z = np.full(count, int(state) % 2**64, dtype=np.uint64)
    return _mix64(z + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)


def uniforms(seed, stream, shape):
    """Uniforms in [0, 1) of the given shape (filled in C order): the top 53
    bits of the SplitMix64 outputs from the state mix(mix(seed + gamma) ^
    stream).  They depend on (seed, stream, index) alone, on any numpy."""
    key = splitmix64(seed, 1) ^ np.uint64(stream)  # mix(seed + gamma) ^ stream
    bits = splitmix64(int(_mix64(key)[0]), int(np.prod(shape)))
    return ((bits >> np.uint64(11)) * 2.0**-53).reshape(shape)


def normals(seed, stream, shape):
    """Standard normals of the given shape: Box-Muller's cosine branch on
    consecutive pairs of `uniforms(seed, stream, ...)`."""
    u = uniforms(seed, stream, 2 * int(np.prod(shape)))
    return (np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])).reshape(shape)


def sample_box(domain, count, margin=0.05, seed=0):
    """Low-discrepancy points in the box shrunk by `margin` per side."""
    return _scale_to_box(domain, margin, scrambled_halton(count, digit_permutations(seed)))


def digit_permutations(seed):
    """Owen's random digit permutations for `scrambled_halton`: per base b,
    ceil(54 / log2 b) - 1 permutations of 0..b-1 (enough digits to fill a
    double), each the argsort of b uniforms of the HALTON stream, drawn in
    turn."""
    sizes = [(math.ceil(54 / math.log2(base)) - 1, base) for base in HALTON_BASES]
    u = uniforms(seed, HALTON, sum(n * base for n, base in sizes))
    perms, start = [], 0
    for n, base in sizes:
        perms.append(np.argsort(u[start:start + n * base].reshape(n, base), axis=-1,
                                kind="stable"))
        start += n * base
    return perms


def scrambled_halton(count, perms):
    """First `count` points of the 4-D Halton sequence (bases 2, 3, 5, 7) with
    Owen's random digit permutations (Owen, "A randomized Halton algorithm in
    R", arXiv:1706.02808), shape (count, 4) in [0, 1).

    perms[d][k] permutes the digit of weight b^-(k+1) in base b =
    HALTON_BASES[d] (`digit_permutations`); digits are summed from the most
    significant one down.  That is the summation of
    scipy.stats.qmc.Halton(d=4, scramble=True), so given scipy's permutations
    the points are scipy's bit for bit.
    """
    index = np.arange(count)
    cols = []
    for base, perms_b in zip(HALTON_BASES, perms):
        quotient = index.copy()
        col = np.zeros(count)
        weight = 1.0 / base
        for perm in perms_b:
            col += perm[quotient % base] * weight
            quotient //= base
            weight /= base
        cols.append(col)
    return np.stack(cols, axis=-1)


def map_chunks(fn, pts):
    """fn applied to the CHUNK-point chunks of pts, in order."""
    pts = np.asarray(pts)
    return [fn(pts[i:i + CHUNK]) for i in range(0, len(pts), CHUNK)]


def _scale_to_box(domain, margin, u):
    """Map unit-cube points u (N, 4) into the box shrunk by `margin` per side."""
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    return lo + (hi - lo) * (margin + (1.0 - 2.0 * margin) * u)


# -- metric evaluation --------------------------------------------------------


def metric_jets(chart: MetricChart, pts):
    """Stacked jets (NCOEFF,) + batch + (4, 4) of g at pts (shape batch + (4,))."""
    pts = np.asarray(pts, dtype=float)
    return metric_jets_env(chart, [Jet3.variable(i, pts[..., i]) for i in range(4)], pts)


def metric_jets_env(chart: MetricChart, env, pts=None):
    """Stacked jets of g with the jets env bound to x1..x4; a non-finite entry
    is a ChartError."""
    g = np.empty(env[0].c.shape + (4, 4))
    entries = chart.plan.jets(env, pts)
    for i, j in UPPER:
        try:
            g[..., i, j] = g[..., j, i] = next(entries).c
        except jets.JetError as e:
            raise ChartError(f"metric entry g{i + 1}{j + 1}: {e}") from None
    return g


class Geometry:
    """Per-point metric pipeline shared by curvature and form operators.

    Accepts the metric's stacked jets (shape (NCOEFF,) + batch + (4, 4)) directly
    so conformal metrics built from field data (not expressible in the DSL)
    run through the same code paths.  g^-1, Gamma, d Gamma and the curvature
    operator come in closed form from V = g(p)^-1, dg and d2g (d_a g^-1 =
    -V d_a g V, and the lowered symbols Gamma_ljk and their derivatives); no
    Christoffel jets are built.
    """

    def __init__(self, gc, pts):
        self.pts = np.asarray(pts, dtype=float)
        self.gc = gc
        self._cache = {}

    @staticmethod
    def of_chart(chart: MetricChart, pts):
        return Geometry(metric_jets(chart, pts), pts)

    @staticmethod
    def of_values(chart: MetricChart, pts):
        """The Geometry of g's value row (metric_values) alone: no derivatives."""
        return Geometry(metric_values(chart, pts)[None], pts)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def g_values(self):
        return self._get("gv", lambda: np.ascontiguousarray(self.gc[0]))

    @property
    def ginv_values(self):
        return self._get("giv", lambda: jets.inverse_values(self.g_values, self.pts))

    @property
    def dg_values(self):
        """d_a g_ij, shape batch + (4, 4, 4) indexed [a, i, j]."""
        return self._get("dg", lambda: np.moveaxis(self.gc[1:5], 0, -3))

    @property
    def dginv_values(self):
        """d_a g^ij = -(V d_a g V)^ij, shape batch + (4, 4, 4) indexed [a, i, j]."""
        return self._get("dginv", lambda: -(self.ginv_values[..., None, :, :] @ self.dg_values
                                            @ self.ginv_values[..., None, :, :]))

    @property
    def det_jet(self):
        return self._get("det", lambda: jets.det4(Jet3(self.gc)))

    @property
    def sqrt_det_jet(self):
        return self._get("sqdet", lambda: jets.sqrt(self.det_jet, self.pts))

    @property
    def gamma_low_values(self):
        """Gamma_ljk = (d_j g_lk + d_k g_jl - d_l g_jk) / 2, shape batch + (4, 4, 4)."""
        return self._get("gamma_low", lambda: _lower(self.dg_values))

    @property
    def gamma_values(self):
        """Gamma^i_jk = V^il Gamma_ljk, shape batch + (4, 4, 4) indexed [i, j, k]."""
        return self._get("gamma", lambda: (self.ginv_values @ _flat_jk(self.gamma_low_values))
                         .reshape(self.dg_values.shape))

    def dgamma_slice(self, a):
        """d_a Gamma^i_jk = d_a g^il Gamma_ljk + V^il d_a Gamma_ljk, shape
        batch + (4, 4, 4) indexed [i, j, k]: d_a Gamma_ljk lowers the slice
        [b, l, k] = d_a d_b g_lk, read from the quadratic jet slots of g."""
        d2g = np.moveaxis(self.gc[jets._HESS_SLOTS[a]], 0, -3) * jets._HESS_FAC[a][:, None, None]
        return (self.dginv_values[..., a, :, :] @ _flat_jk(self.gamma_low_values)
                + self.ginv_values @ _flat_jk(_lower(d2g))).reshape(d2g.shape)

    def release_derivatives(self):
        """Drop the cached derivative arrays d g^-1, Gamma and the lowered
        Gamma (batch + (4, 4, 4) each); a later read builds them again."""
        for key in ("dginv", "gamma_low", "gamma"):
            self._cache.pop(key, None)

    @property
    def curvature_operator(self):
        """The curvature operator M[(ij),(kl)] = R_ijkl on coordinate 2-vectors,
        PAIRS by PAIRS, shape batch + (6, 6):
        (d_i d_l g_jk + d_j d_k g_il - d_i d_k g_jl - d_j d_l g_ik) / 2
        + Gamma_mil Gamma^m_jk - Gamma_mjl Gamma^m_ik, the second derivatives
        read straight from the quadratic jet coefficients of g.  Not cached:
        curvature_at reads it once and keeps only its frame rotation."""
        quad = self.gc.reshape((jets.NCOEFF, -1, 16))
        d2 = sum(w[..., None] * quad[s, :, e] for w, s, e in zip(_D2G_WEIGHT, _D2G_SLOT,
                                                                _D2G_ENTRY))
        low, up = self.gamma_low_values, self.gamma_values
        return (np.moveaxis(d2, -1, 0).reshape(up.shape[:-3] + (6, 6))
                + sum(low[..., m, _I, _L] * up[..., m, _J, _K] for m in range(4))
                - sum(low[..., m, _J, _L] * up[..., m, _I, _K] for m in range(4)))

    @property
    def frame(self):
        """Orthonormal frame values (see orthonormal_frame)."""
        return self._get("frame", lambda: orthonormal_frame(self.g_values))


def _lower(d):
    """(d[j, l, k] + d[k, j, l] - d[l, j, k]) / 2 over [l, j, k], for d
    (..., 4, 4, 4) indexed [c, r, s] = d_c g_rs: the lowered Christoffel
    symbols of a metric derivative."""
    return 0.5 * (np.swapaxes(d, -3, -2) + np.swapaxes(d, -3, -1) - d)


def _flat_jk(T):
    """T (..., 4, 4) with its last two axes flattened: (..., 16)."""
    return T.reshape(T.shape[:-2] + (16,))


def orthonormal_frame(g_values):
    """Columns E[..., :, a] orthonormal under g: the inverse transpose of the
    Cholesky factor, i.e. Gram-Schmidt on the coordinate basis in fixed order."""
    L = np.linalg.cholesky(g_values)
    eye = np.broadcast_to(np.eye(4), L.shape)
    return np.swapaxes(np.linalg.solve(L, eye), -1, -2)


# -- curvature slate ------------------------------------------------------------


class CurvatureSlate:
    def __init__(self, points, frame, M, Ric, scal, geometry: Geometry = None):
        self.points = points  # (N, 4)
        self.frame = frame  # (N, 4, 4), columns are frame vectors in coordinates
        self.M = M  # (N, 6, 6) curvature operator in the orthonormal frame, PAIRS order
        self.Ric = Ric  # (N, 4, 4)
        self.scal = scal  # (N,)
        self.geometry = geometry


def curvature_at(chart_or_geom, pts=None, frame=None):
    """Curvature operator, Ricci and scal in an orthonormal frame (Gram-Schmidt
    or supplied): M = (L2 E)^T M_coord L2 E with L2 E = lambda2_matrix(E).

    `frame`, if given, must hold orthonormal tangent vectors as columns.
    """
    if isinstance(chart_or_geom, MetricChart):
        chart = chart_or_geom
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _check_interior(chart, pts)
        geom = Geometry.of_chart(chart, pts)
    else:
        geom = chart_or_geom
        pts = geom.pts
    E = geom.frame if frame is None else require_orthonormal(geom, frame)
    L2E = lambda2_matrix(E)
    M = np.swapaxes(L2E, -1, -2) @ geom.curvature_operator @ L2E
    Ric = np.sum(_RIC_SIGN * M[..., _RIC_P, _RIC_Q], axis=-1)
    return CurvatureSlate(points=pts, frame=E, M=M, Ric=Ric,
                          scal=np.trace(Ric, axis1=-2, axis2=-1), geometry=geom)


def wedge(u, v):
    """The 2-vector u ^ v in PAIRS coordinates, (u ^ v)_(ij) = u_i v_j - u_j v_i,
    over the last axis: shape (..., 6).  For orthonormal u, v in a frame,
    sec(u, v) = w^T M w with w = u ^ v."""
    return u[..., _PI] * v[..., _PJ] - u[..., _PJ] * v[..., _PI]


def lambda2_matrix(E):
    """The 2x2 minors of E (..., 4, 4), PAIRS by PAIRS: column (ab) is
    E_a ^ E_b for the columns E_a, so R(E_a, E_b, E_c, E_d) is entry
    ((ab), (cd)) of lambda2_matrix(E)^T M lambda2_matrix(E)."""
    Et = np.swapaxes(E, -1, -2)
    return np.swapaxes(wedge(Et[..., _PI, :], Et[..., _PJ, :]), -1, -2)


# Ric_ij = sum_k R_kikj = sum_k s(k,i) s(k,j) M[p(k,i), p(k,j)] over [i, j, k]
# (curvature_at), with p(a,b) the PAIRS index of {a, b} and s(a,b) = sign(b - a).
_PAIR_OF = np.zeros((4, 4), dtype=int)
_PAIR_OF[_PI, _PJ] = _PAIR_OF[_PJ, _PI] = np.arange(6)
_SIGN = np.sign(np.subtract.outer(np.arange(4), np.arange(4)))
_RIC_P, _RIC_Q, _RIC_SIGN = _PAIR_OF[:, None], _PAIR_OF[None], _SIGN[:, None] * _SIGN[None]


def _check_interior(chart, pts):
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    outside = np.any((pts <= lo) | (pts >= hi), axis=-1)
    if np.any(outside):
        raise ChartError(f"point {jets._first_bad(outside, pts)} not interior to {chart.name}")


def sectional(slate: CurvatureSlate, u, v):
    """Sectional curvature of span(u, v); u, v in frame components."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = wedge(u, v)
    num = np.sum(w * (slate.M @ w[..., None])[..., 0], axis=-1)
    uu, vv, uv = np.sum(u * u, axis=-1), np.sum(v * v, axis=-1), np.sum(u * v, axis=-1)
    den = uu * vv - uv**2
    if np.any(den <= 1e-14 * uu * vv):
        raise ChartError("degenerate plane in sectional curvature")
    return num / den


# -- normal charts --------------------------------------------------------------


def require_orthonormal(geom: Geometry, B):
    """B (..., 4, 4) broadcast to geom's points, its columns checked orthonormal
    under g there to 1e-8 in the Gram matrix."""
    B = np.broadcast_to(np.asarray(B, dtype=float), geom.pts.shape[:-1] + (4, 4))
    gram = np.swapaxes(B, -1, -2) @ geom.g_values @ B
    dev = np.max(np.abs(gram - np.eye(4)))
    if dev > 1e-8:
        raise ChartError(f"basis is not orthonormal (Gram deviation {dev:.2e})")
    return B


def normal_chart_map(geom: Geometry, B):
    """Jets at y = 0 of the normal-chart maps x(y) = p + B y - 1/2 C(y, y).

    One map per point p of geom.pts (shape (N, 4)), from the geometry there;
    B has shape (N, 4, 4) (or broadcastable) with columns orthonormal under g
    at p.  C^i_ab = Gamma^i_jk(p) B_ja B_kb makes Gamma'(0) = 0 in the y
    chart, whose coordinate frame at the origin is B.  The map is quadratic,
    so its four jets are exact.
    """
    P = geom.pts
    B = require_orthonormal(geom, B)
    C = np.swapaxes(B, -1, -2)[..., None, :, :] @ geom.gamma_values @ B[..., None, :, :]
    return [Jet3.quadratic(P[..., i], B[..., i, :], -0.5 * C[..., i, :, :])
            for i in range(4)]


def normal_chart(chart: MetricChart, xj):
    """Geometry at y = 0 of the normal charts with maps xj (`normal_chart_map`).

    g'_ab = J_ia J_jb g_ij(x(y)) with J_ia = dx_i/dy_a.  Taylor propagation
    through the composition gives the exact jets of g' at the origin, where
    g' = I and Gamma' = 0.
    """
    pts = _map_points(xj)
    gp = jets.congruence(_jacobian(xj), metric_jets_env(chart, xj, pts))
    upper, lower = np.triu_indices(4, 1)
    gp[..., lower, upper] = gp[..., upper, lower]
    return Geometry(gp, np.zeros_like(pts))


def pullback_two_form(components, xjets):
    """Stacked jets at y = 0 of a coordinate 2-form pulled back through x(y).

    components: six expressions in PAIRS order; returns the antisymmetric
    matrix jets phi'_ab = sum_ij J_ia phi_ij(x(y)) J_jb.
    """
    pts = _map_points(xjets)
    phi = ex.Plan(components).jets(xjets, pts)
    phi = np.stack([u.c for u in phi], axis=-1)
    return jets.congruence(_jacobian(xjets), jets.antisymmetric(phi, PAIRS))


def _map_points(xjets):
    return np.stack([x.value for x in xjets], axis=-1)


def _jacobian(xjets):
    """J[..., i, a] = dx_i/dy_a as stacked jets."""
    return np.stack([np.stack([x.partial(a).c for a in range(4)], axis=-1) for x in xjets],
                    axis=-2)


# -- value-level checks -----------------------------------------------------------


def metric_values(chart: MetricChart, pts):
    """g at pts (batch + (4,)) as values, batch + (4, 4): metric_jets_env on
    jets of one row, so metric_jets(chart, pts)[0] bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        return metric_jets_env(chart, [Jet3(pts[None, ..., i]) for i in range(4)], pts)[0]


def require_positive_definite(g, det, pts, where, error=ChartError):
    """Sylvester's criterion on metric values g (N, 4, 4) with det = det g:
    g11, the leading 2x2 and 3x3 minors and det g are all > 0, or `error` names
    the first point of pts that fails."""
    ok = (g[..., 0, 0] > 0) & (jets.minor(g, (0, 1)) > 0) & (jets.minor(g, (0, 1, 2)) > 0) \
        & (det > 0)
    if not np.all(ok):
        raise error(f"metric not positive definite {where} {jets._first_bad(~ok, pts)}")


def sqrt_det_values(g_values):
    """sqrt(det g) of metric values (N, 4, 4) by the cofactor expansion of
    jets.det4, so it equals Geometry.sqrt_det_jet.value bit for bit
    (np.linalg.det differs from it in the last bit)."""
    return np.sqrt(jets.det4(g_values))


def chart_is_periodic(chart: MetricChart, tol=1e-12):
    """True if the chart is (0, 2pi)^4 and g is 2pi-periodic along every axis:
    the entries of g move by at most tol max|g| under each period shift of
    the sampled points, so the test does not depend on the metric's units."""
    if any(abs(lo) > 1e-15 or abs(hi - 2.0 * np.pi) > 1e-12 for lo, hi in chart.domain):
        return False
    base = 0.1 + 0.9 * uniforms(97, PERIODIC, (8, 4))
    shifted = np.concatenate([base + 2.0 * np.pi * e for e in np.eye(4)])
    g_base = metric_values(chart, base)
    dev = np.max(np.abs(metric_values(chart, shifted) - np.tile(g_base, (4, 1, 1))))
    return bool(dev <= tol * np.max(np.abs(g_base)))


def validate_chart(chart: MetricChart, count=32, margin=0.05, seed=7):
    """Finiteness and positive-definiteness spot check at random interior points."""
    pts = _scale_to_box(chart.domain, margin, uniforms(seed, SPOT, (count, 4)))
    g = metric_values(chart, pts)
    require_positive_definite(g, jets.det4(g), pts, f"on {chart.name} at point")
    return True
