"""Independent oracles shared by the test modules.

The symbolic differentiator works on the expression AST and never touches the
jet code, so jet coefficients can be checked against a genuinely separate
path.  Curvature oracles are the classical closed forms.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from curv4 import expr as ex
from curv4 import forms, jets
from curv4.charts import PAIRS
from curv4.jets import Jet3

# The multi-index of each slot of a jet's coefficient axis: the value, the
# linear slots of x1..x4, then the quadratic slots (a, b), a <= b, row-major.
MULTI_INDICES = ((0, 0, 0, 0),) + tuple(
    tuple(int(k == a) for k in range(4)) for a in range(4)) + tuple(
    tuple(int(k == a) + int(k == b) for k in range(4))
    for a in range(4) for b in range(a, 4))
INDEX_OF = {alpha: k for k, alpha in enumerate(MULTI_INDICES)}


def derivative(jet, alpha):
    """d^alpha of a jet: its raw coefficient times alpha!."""
    return jet.c[INDEX_OF[tuple(alpha)]] * math.prod(math.factorial(a) for a in alpha)


def differentiate(node, axis):
    """d node / d x_axis as a new expression tree."""
    if isinstance(node, ex.Num) or isinstance(node, ex.Const):
        return ex.Num(0.0)
    if isinstance(node, ex.Var):
        return ex.Num(1.0 if node.index == axis else 0.0)
    if isinstance(node, ex.Unary):
        return ex.Unary("-", differentiate(node.arg, axis))
    if isinstance(node, ex.Bin):
        l, r = node.left, node.right
        dl, dr = differentiate(l, axis), differentiate(r, axis)
        if node.op == "+":
            return ex.Bin("+", dl, dr)
        if node.op == "-":
            return ex.Bin("-", dl, dr)
        if node.op == "*":
            return ex.Bin("+", ex.Bin("*", dl, r), ex.Bin("*", l, dr))
        if node.op == "/":
            num = ex.Bin("-", ex.Bin("*", dl, r), ex.Bin("*", l, dr))
            return ex.Bin("/", num, ex.Bin("*", r, r))
        if node.op == "^":
            c = ex.constant_value(r)
            if c is None:
                raise ValueError("oracle only handles constant exponents")
            down = ex.Bin("^", l, ex.Num(c - 1.0))
            return ex.Bin("*", ex.Num(c), ex.Bin("*", down, dl))
    if isinstance(node, ex.Call):
        da = differentiate(node.arg, axis)
        a = node.arg
        outer = {
            "sin": lambda: ex.Call("cos", a),
            "cos": lambda: ex.Unary("-", ex.Call("sin", a)),
            "exp": lambda: ex.Call("exp", a),
            "log": lambda: ex.Bin("/", ex.Num(1.0), a),
            "sqrt": lambda: ex.Bin("/", ex.Num(0.5), ex.Call("sqrt", a)),
        }[node.fn]()
        return ex.Bin("*", outer, da)
    raise TypeError(f"not a node: {node!r}")


def taylor_coefficient(node, alpha, point):
    """Raw Taylor coefficient (derivative / alpha!) by repeated symbolic d/dx.

    The derivative trees are evaluated by their values (the jets' value row
    alone, no derivative slot).  Returns NaN where a value is not finite;
    callers skip those.
    """
    tree = node
    fact = 1.0
    for axis, k in enumerate(alpha):
        for _ in range(k):
            tree = differentiate(tree, axis)
        fact *= math.factorial(k)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ex.eval_values(tree, np.asarray(point, dtype=float)[None, :])[0] / fact
    except jets.JetError:
        return math.nan


def random_expression(rng, depth=3, allow_div=True):
    """Random well-formed expression over x1..x4 for fuzz and oracle tests."""
    if depth == 0 or rng.random() < 0.25:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # literals are nonnegative, as the parser produces (minus is Unary)
            return ex.Num(round(float(rng.uniform(0.0, 2.0)), 4))
        return ex.Var(int(rng.integers(0, 4)))
    roll = float(rng.random())
    if roll < 0.55:
        ops = ["+", "-", "*"] + (["/"] if allow_div else [])
        op = ops[int(rng.integers(0, len(ops)))]
        return ex.Bin(op, random_expression(rng, depth - 1, allow_div),
                      random_expression(rng, depth - 1, allow_div))
    if roll < 0.7:
        return ex.Unary("-", random_expression(rng, depth - 1, allow_div))
    if roll < 0.85:
        return ex.Bin("^", random_expression(rng, depth - 1, allow_div),
                      ex.Num(float(rng.integers(1, 4))))
    fn = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
    return ex.Call(fn, random_expression(rng, depth - 1, allow_div))


def convolution_mul(a, b):
    """Jet product of coefficient arrays a and b ((NCOEFF,) + batch) as the
    plain truncated convolution: all pairs of slots whose multi-indices add to
    degree <= ORDER, grouped by output slot in (i, j) order and summed with
    np.add.reduceat over a coefficient-last copy."""
    pairs = sorted((INDEX_OF[tuple(x + y for x, y in zip(p, q))], i, j)
                   for i, p in enumerate(MULTI_INDICES)
                   for j, q in enumerate(MULTI_INDICES) if sum(p) + sum(q) <= jets.ORDER)
    k, i, j = np.array(pairs).T
    a, b = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in np.broadcast_arrays(a, b))
    return np.moveaxis(np.add.reduceat(a[..., i] * b[..., j],
                                       np.searchsorted(k, np.arange(jets.NCOEFF)), axis=-1),
                       -1, 0)


# -- the tree walker: the evaluator expr.Plan replaced, one recursion per node
# occurrence; the plan's jets, and its values on one-row jets, must match it
# bit for bit.

_JET_FNS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "log": jets.log,
            "sqrt": jets.sqrt}


def tree_jet_env(node, env, points=None):
    """Evaluate to a Jet3 with the jets env bound to x1..x4."""
    rows, *batch = env[0].c.shape

    def go(n):
        if isinstance(n, ex.Num):
            return Jet3.constant(n.value, batch, rows)
        if isinstance(n, ex.Const):
            return Jet3.constant(ex.CONSTANTS[n.name], batch, rows)
        if isinstance(n, ex.Var):
            return env[n.index]
        if isinstance(n, ex.Unary):
            return -go(n.arg)
        if isinstance(n, ex.Call):
            arg = go(n.arg)
            try:
                return _JET_FNS[n.fn](arg) if n.fn in ("sin", "cos", "exp") \
                    else _JET_FNS[n.fn](arg, points)
            except jets.JetError as e:
                raise ex.DomainError(str(e), n) from None
        if isinstance(n, ex.Bin):
            try:
                if n.op == "^":
                    const_exp = ex.constant_value(n.right)
                    base = go(n.left)
                    if const_exp is not None:
                        return jets.powr(base, const_exp, points)
                    jets.require_positive(base, "nonpositive base for variable exponent",
                                          points)
                    return jets.exp(go(n.right) * jets.log(base, points))
                l, r = go(n.left), go(n.right)
                if n.op == "+":
                    return l + r
                if n.op == "-":
                    return l - r
                if n.op == "*":
                    return l * r
                return l * r._reciprocal(points)
            except jets.JetError as e:
                raise ex.DomainError(str(e), n) from None
        raise TypeError(f"not an expression node: {n!r}")

    out = go(node)
    jets.assert_finite(out, lambda: f"expression '{ex.to_string(node)}'", points)
    return out


def constant_curvature_R(c):
    """R_ijkl = c (d_ik d_jl - d_il d_jk) in an orthonormal frame."""
    d = np.eye(4)
    return c * (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d))


def cp2_complex_structure():
    """The (constant) complex structure matrix J of presets.cp2_fubini_study in
    chart coordinates; column a holds the components of J(d_a)."""
    J = np.zeros((4, 4))
    J[1, 0] = 1.0
    J[0, 1] = -1.0
    J[3, 2] = 1.0
    J[2, 3] = -1.0
    return J


def sd_split_frame(f6):
    """phi+- = phi +- *phi, F = |phi+|^2/2 and G = |phi-|^2/2 from orthonormal
    frame components (..., 6), with *(phi^phi) = 2 (f12 f34 - f13 f24 + f14 f23)
    written out (the self-dual split that forms.fg_values replaced)."""
    f6 = np.asarray(f6, dtype=float)
    star = f6 @ forms.STAR6.T
    wedge = 2.0 * (f6[..., 0] * f6[..., 5] - f6[..., 1] * f6[..., 4] + f6[..., 2] * f6[..., 3])
    return {"plus": f6 + star, "minus": f6 - star, "F": 0.5 * np.sum((f6 + star)**2, axis=-1),
            "G": 0.5 * np.sum((f6 - star)**2, axis=-1), "wedge": wedge}


def complex_space_form_R(J_frame, c=4.0):
    """Curvature of a complex space form with hol sec c; J_frame[a,b] = <J e_a, e_b>."""
    d = np.eye(4)
    base = np.einsum("ac,bd->abcd", d, d) - np.einsum("ad,bc->abcd", d, d)
    base = np.broadcast_to(base, J_frame.shape[:-2] + (4, 4, 4, 4)).copy()
    base += (np.einsum("...ac,...bd->...abcd", J_frame, J_frame)
             - np.einsum("...ad,...bc->...abcd", J_frame, J_frame)
             + 2.0 * np.einsum("...ab,...cd->...abcd", J_frame, J_frame))
    return (c / 4.0) * base


# -- the 4-index curvature path that the curvature operator replaced ----------


def riemann_coord(geom):
    """R_ijkl in coordinates (all indices down), batch + (4, 4, 4, 4), from the
    full d_a d_b g_ij array: (d_i d_l g_jk + d_j d_k g_il - d_i d_k g_jl
    - d_j d_l g_ik) / 2 + Gamma_mil Gamma^m_jk - Gamma_mjl Gamma^m_ik."""
    d2g = np.moveaxis(Jet3(geom.gc).hessian(), (-2, -1), (-4, -3))  # [a, b, i, j]
    GG = np.einsum("...mil,...mjk->...ijkl", geom.gamma_low_values, geom.gamma_values,
                   optimize=True)
    return (0.5 * (np.einsum("...iljk->...ijkl", d2g) + np.einsum("...jkil->...ijkl", d2g)
                   - np.einsum("...ikjl->...ijkl", d2g) - np.einsum("...jlik->...ijkl", d2g))
            + GG - np.swapaxes(GG, -4, -3))


def rotate_R(R, E):
    """R read in the frame E (columns): four passes, each contracting the
    leading index with E and moving its frame index last."""
    batch = R.shape[:-4]
    for _ in range(4):
        R = (np.moveaxis(R, -4, -1).reshape(batch + (64, 4)) @ E).reshape(batch + (4,) * 4)
    return R


def ricci_R(R):
    """Ric_ij = sum_k R_kikj and scal = trace Ric of a 4-index R."""
    Ric = np.einsum("...kikj->...ij", R)
    return Ric, np.einsum("...ii->...", Ric)


def op6(R):
    """The curvature operator M[(ij),(kl)] = R_ijkl of a 4-index R, PAIRS order."""
    i, j = np.array(PAIRS).T
    return R[..., i[:, None], j[:, None], i[None, :], j[None, :]]


def unpack_R(M):
    """The 4-index R_ijkl = s(i,j) s(k,l) M[(ij),(kl)] of a curvature operator M
    (..., 6, 6), with s = +1 on pairs i < j, -1 on i > j and 0 on i = j."""
    P, S = np.zeros((4, 4), dtype=int), np.zeros((4, 4))
    for p, (i, j) in enumerate(PAIRS):
        P[i, j] = P[j, i] = p
        S[i, j], S[j, i] = 1.0, -1.0
    return (S[:, :, None, None] * S[None, None]) * M[..., P[:, :, None, None], P[None, None]]


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


def biorthogonal(R, u, v):
    """sec-perp(span(u,v)) = (sec(sigma) + sec(sigma-perp))/2 of one 4-index R."""
    u, v = orthonormal_plane(u, v)
    w1, w2 = plane_complement(u, v)
    s1 = float(np.einsum("ijkl,i,j,k,l->", R, u, v, u, v, optimize=True))
    s2 = float(np.einsum("ijkl,i,j,k,l->", R, w1, w2, w1, w2, optimize=True))
    return 0.5 * (s1 + s2)


# Random near-flat periodic metrics: an entry is 1 (on the diagonal) or 0 plus
# a sin|cos(f x_v), |a| <= 0.1, so g is positive definite by Gershgorin.
TRIG_TERM = st.tuples(st.floats(-0.1, 0.1), st.sampled_from(("sin", "cos")),
                      st.integers(1, 2), st.integers(1, 4))
NEAR_FLAT_TERMS = st.lists(TRIG_TERM, min_size=10, max_size=10)


def near_flat_chart(terms):
    """The periodic chart on (0, 2pi)^4 of ten TRIG_TERMs, one per upper entry."""
    from curv4 import charts

    entries = [[None] * 4 for _ in range(4)]
    upper = iter(terms)
    for i in range(4):
        for j in range(i, 4):
            a, fn, f, v = next(upper)
            entries[i][j] = entries[j][i] = f"{int(i == j)} + ({a:.6f})*{fn}({f}*x{v})"
    return charts.chart_from_strings(entries, [(0.0, 2 * np.pi)] * 4, "near_flat")


def sparse_coboundary(n, k):
    """Reference incidence map C^k -> C^{k+1} of the periodic lattice as a signed
    integer CSR matrix, assembled from shift permutation matrices."""
    import scipy.sparse as sp

    from curv4.grid import AXSETS

    N = n**4
    idx = np.arange(N).reshape(n, n, n, n)
    eye = sp.identity(N, dtype=np.int64, format="csr")
    shifts = [sp.csr_matrix((np.ones(N, dtype=np.int64),
                             (np.arange(N), np.roll(idx, -1, axis=ax).ravel())), shape=(N, N))
              for ax in range(4)]
    in_pos = {s: i for i, s in enumerate(AXSETS[k])}
    blocks = [[None] * len(AXSETS[k]) for _ in AXSETS[k + 1]]
    for r, S in enumerate(AXSETS[k + 1]):
        for pos, a in enumerate(S):
            sub = tuple(x for x in S if x != a)
            blk = (shifts[a] - eye) * (-1 if pos % 2 else 1)
            c = in_pos[sub]
            blocks[r][c] = blk if blocks[r][c] is None else blocks[r][c] + blk
    return sp.bmat(blocks, format="csr")


def lumped_masses(chart, n):
    """The lattice masses sqrt(det g) det((g^-1)_SS) h^4 per degree, from LAPACK's
    inverse and determinant at each axis set's barycenters (no Jacobi identity)."""
    from curv4 import charts, grid

    h = 2.0 * np.pi / n
    M = []
    for k in range(5):
        weights = []
        for S in grid.AXSETS[k]:
            g = charts.metric_values(chart, grid._barycenters(n, h, S))
            sub = np.linalg.inv(g)[:, list(S)][:, :, list(S)]
            minor = np.linalg.det(sub) if len(S) > 1 else (sub[:, 0, 0] if S else 1.0)
            weights.append(charts.sqrt_det_values(g) * minor * h**4)
        M.append(np.concatenate(weights))
    return M


def star_gram_loops(basis):
    """S[a, b] = sum <*z_a, z_b> vol and G[a, b] = sum <z_a, z_b> vol over the cell
    centers, one inner_lambda2 call per pair of co-located basis cochains."""
    from curv4 import charts, grid

    gc = basis.complex
    g = charts.metric_values(gc.chart, grid._cell_centers(gc))
    sqrt_det = charts.sqrt_det_values(g)
    vol = sqrt_det * gc.h**4
    gi = np.moveaxis(np.linalg.inv(g), 0, -1)
    Q = lambda2_metric(gi)
    k = basis.vectors.shape[1]
    coloc = [grid._colocate(gc, basis.vectors[:, m]) for m in range(k)]
    stars = [star_coord(gi, sqrt_det, c, Q) for c in coloc]
    S, G = np.empty((k, k)), np.empty((k, k))
    for a in range(k):
        for b in range(k):
            S[a, b] = np.sum(inner_lambda2(Q, stars[a], coloc[b]) * vol)
            G[a, b] = np.sum(inner_lambda2(Q, coloc[a], coloc[b]) * vol)
    return S, G


def euclid_cross_eps(a, b, c):
    """The vector completing (a, b, c) to a positive basis as the full
    contraction eps_ijkl a_i b_j c_k with the Levi-Civita symbol."""
    from curv4 import forms

    return np.einsum("ijkl,...i,...j,...k->...l", forms.EPS4, a, b, c, optimize=True)


def admissible_K_range(M, adapted, samples=8, seed=0):
    """max - min of K over the adapted basis and `samples` random admissible
    bases of phi = lam1 e1^e2 + lam2 e3^e4, per point.  An admissible basis
    is one canonicalize could return at a degenerate point, where every unit
    vector lies in an invariant plane of phi; there its K is measured."""
    from curv4 import canonical

    Q = adapted.basis
    B = np.zeros(Q.shape)
    B[..., 0, 1], B[..., 2, 3] = adapted.lam1, adapted.lam2
    B -= np.swapaxes(B, -1, -2)
    A = Q @ B @ np.swapaxes(Q, -1, -2)  # phi as a matrix in the slate frame
    rng = np.random.default_rng(seed)
    Ks = [canonical._k_r(M, Q)[0]]
    for _ in range(samples):
        Ks.append(canonical._k_r(M, _random_admissible(A, rng))[0])
    return np.ptp(np.stack(Ks), axis=0)


def _random_admissible(A, rng):
    """An adapted basis of the 2-form matrix A (N, 4, 4) from random starting
    vectors: e2 = -A e1 / |A e1|, e3 random in the complement, e4 = -A e3 /
    |A e3|, e4 flipped where needed so the basis is positive."""
    n = A.shape[0]
    e1 = rng.normal(size=(n, 4))
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    Ae = np.einsum("nij,nj->ni", A, e1)
    e2 = -Ae / np.maximum(np.linalg.norm(Ae, axis=-1), 1e-300)[:, None]
    P = np.eye(4) - e1[:, :, None] * e1[:, None, :] - e2[:, :, None] * e2[:, None, :]
    v = np.einsum("nij,nj->ni", P, rng.normal(size=(n, 4)))
    e3 = v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)
    Ae3 = np.einsum("nij,nj->ni", A, e3)
    e4 = -Ae3 / np.maximum(np.linalg.norm(Ae3, axis=-1), 1e-300)[:, None]
    det = np.linalg.det(np.stack([e1, e2, e3, e4], axis=-1))
    e4 = np.where(det[:, None] < 0, -e4, e4)
    return np.stack([e1, e2, e3, e4], axis=-1)


def scipy_halton_permutations(seed):
    """The digit permutations of scipy.stats.qmc.Halton(d=4, scramble=True,
    seed=seed), in the layout of charts.scrambled_halton: per base b,
    ceil(54 / log2 b) - 1 shuffles of 0..b-1 drawn in turn from
    np.random.default_rng(seed)."""
    rng = np.random.default_rng(int(seed))
    out = []
    for base in (2, 3, 5, 7):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        out.append(perms)
    return out


def splitmix64(state, count):
    """SplitMix64 in Python integers: state += gamma, then the output mix."""
    mask, out = 2**64 - 1, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# -- the einsum kernels that the slice-wise second-order kernels replaced: each
# builds whole 4-index arrays [a, b, i, j] and lets numpy's path search order
# the contractions.


def leibniz(spec, *ops):
    """np.einsum of first-order jets (value, grad) by the product rule.

    spec is an einsum over the values, each term starting with '...'; the
    gradient carries a derivative axis z after the batch axes.
    """
    terms, out = spec.split("->")
    terms = terms.split(",")
    value = np.einsum(spec, *(v for v, _ in ops), optimize=True)
    grad = 0.0
    for m in range(len(ops)):
        spec_m = ",".join(t.replace("...", "...z") if k == m else t
                          for k, t in enumerate(terms)) + "->" + out.replace("...", "...z")
        grad = grad + np.einsum(spec_m, *(d if k == m else v for k, (v, d) in enumerate(ops)),
                                optimize=True)
    return value, grad


def einsum_inverse_coeffs(c):
    """jets.mat_inverse (= solve(c, I)) from stacks of every W_a, V N_ab, W_a and W_b."""
    V = np.linalg.inv(c[0])
    W = np.einsum("...ik,a...kj->a...ij", V, c[1:5], optimize=True)
    W2 = np.einsum("...ik,q...kj->q...ij", V, c[5:], optimize=True)
    qa, qb = np.triu_indices(4)
    Wa, Wb = W[qa], W[qb]
    half = np.where(qa == qb, 0.5, 1.0).reshape((-1,) + (1,) * (c.ndim - 1))
    out = np.empty_like(c)
    out[0] = V
    out[1:5] = -W @ V
    out[5:] = ((Wa @ Wb + Wb @ Wa) * half - W2) @ V
    return out


def einsum_dgamma(geom):
    """d_a Gamma^i_jk [a, i, j, k] from the full d_a d_b g_ij array."""
    d2g = np.moveaxis(Jet3(geom.gc).hessian(), (-2, -1), (-4, -3))  # [a, b, i, j]
    dlow = 0.5 * (np.einsum("...ajlk->...aljk", d2g) + np.einsum("...akjl->...aljk", d2g) - d2g)
    low = geom.gamma_low_values.reshape(dlow.shape[:-4] + (1, 4, 16))
    return (geom.dginv_values @ low + geom.ginv_values[..., None, :, :]
            @ dlow.reshape(dlow.shape[:-2] + (16,))).reshape(dlow.shape)


def einsum_nabla_two_form_jets(geom, c6):
    """forms.nabla_two_form_jets as one leibniz contraction of (Gamma, d Gamma)
    with (phi, d phi)."""
    full = Jet3(jets.antisymmetric(c6, PAIRS))
    phi = full.value
    dphi = np.moveaxis(full.grad(), -1, -3)
    hphi = np.moveaxis(full.hessian(), (-2, -1), (-4, -3))
    A, dA = leibniz("...lai,...lj->...aij", (geom.gamma_values, einsum_dgamma(geom)),
                    (phi, dphi))
    return dphi - A + np.swapaxes(A, -1, -2), hphi - dA + np.swapaxes(dA, -1, -2)


def einsum_codiff_two_form_jets(geom, T):
    """forms.codiff_two_form_jets from T = (T, dT)."""
    delta, ddelta = leibniz("...ab,...abj->...j", (geom.ginv_values, geom.dginv_values), T)
    return -delta, -ddelta


def einsum_codiff_three_form_values(geom, w):
    """forms.codiff_three_form_values through the whole nabla w, [a, i, j, k]."""
    from curv4.forms import TRIPLES, pair_components_values

    gam = geom.gamma_values
    W = jets.antisymmetric(w[0], TRIPLES)
    dW = jets.antisymmetric(np.moveaxis(w[1:5], 0, -2), TRIPLES)
    nab = dW \
        - np.einsum("...lai,...ljk->...aijk", gam, W, optimize=True) \
        - np.einsum("...laj,...ilk->...aijk", gam, W, optimize=True) \
        - np.einsum("...lak,...ijl->...aijk", gam, W, optimize=True)
    return pair_components_values(
        -np.einsum("...ab,...abjk->...jk", geom.ginv_values, nab, optimize=True))


def einsum_rough_laplacian_values(geom, T):
    """forms.rough_laplacian_values through the whole nabla^2 phi, [a, b, i, j]."""
    from curv4.forms import pair_components_values

    gam = geom.gamma_values
    T, dT = T
    nab2 = (dT
            - np.einsum("...cab,...cij->...abij", gam, T, optimize=True)
            - np.einsum("...lai,...blj->...abij", gam, T, optimize=True)
            - np.einsum("...laj,...bil->...abij", gam, T, optimize=True))
    return pair_components_values(
        np.einsum("...ab,...abij->...ij", geom.ginv_values, nab2, optimize=True))


# -- the Hodge Laplacian as d delta + delta d with delta = -*d*, on jets: no
# Christoffel symbols and no nabla phi.  Every partial drops one order of the
# jets, and the two partials of each term leave exact values.


def _perm_sign(seq):
    return (-1) ** sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])


def exterior_d(form, k):
    """d of a k-form of jets keyed by increasing k-tuples:
    (d a)_J = sum_p (-1)^p d_{J_p} a_{J without J_p}."""
    out = {}
    for J in itertools.combinations(range(4), k + 1):
        terms = [(-1) ** p * form[J[:p] + J[p + 1:]].partial(axis) for p, axis in enumerate(J)]
        out[J] = sum(terms[1:], terms[0])
    return out


def nested_minor(m, rows, cols=None):
    """Determinant of m[rows][cols] (cols defaults to rows) for a nested matrix
    m[i][j] of jets or value arrays, by cofactor expansion along the first
    row; 1.0 for no rows."""
    cols = rows if cols is None else cols
    if len(rows) <= 1:
        return m[rows[0]][cols[0]] if rows else 1.0
    out = None
    for k, c in enumerate(cols):
        term = m[rows[0]][c] * nested_minor(m, rows[1:], cols[:k] + cols[k + 1:])
        out = term if out is None else out - term if k % 2 else out + term
    return out


def hodge_star(ginv, vol, form, k):
    """*a of a k-form a of jets: (*a)_J = sqrt(g) sign(I J) a^I, with I the
    complement of J and a^I = sum_K det(g^-1[I, K]) a_K, the Lambda^k minors."""
    out = {}
    for J in itertools.combinations(range(4), 4 - k):
        I = tuple(i for i in range(4) if i not in J)
        terms = [nested_minor(ginv, I, K) * form[K] for K in itertools.combinations(range(4), k)]
        out[J] = vol * sum(terms[1:], terms[0]) * _perm_sign(I + J)
    return out


def hodge_laplacian(g, c6):
    """(d delta + delta d) phi, coordinate values (..., 6) in PAIRS order, for
    the metric g (4x4 nested jets) and the stacked 2-form c6; g^-1 is
    the adjugate over det g."""
    det = nested_minor(g, (0, 1, 2, 3))
    inv_det = 1.0 / det
    rest = [tuple(r for r in range(4) if r != i) for i in range(4)]
    ginv = [[(-1) ** (i + j) * nested_minor(g, rest[j], rest[i]) * inv_det for j in range(4)]
            for i in range(4)]
    vol = jets.sqrt(det)

    def delta(form, k):
        star = hodge_star(ginv, vol, exterior_d(hodge_star(ginv, vol, form, k), 4 - k), 5 - k)
        return {J: -u for J, u in star.items()}

    phi = dict(zip(PAIRS, pair_jets(c6)))
    d_delta = exterior_d(delta(phi, 2), 1)
    delta_d = delta(exterior_d(phi, 2), 3)
    return np.stack([(d_delta[J] + delta_d[J]).value for J in PAIRS], axis=-1)


# -- the nested layout that the stacked coefficient arrays replaced: g and g^-1
# as 4x4 lists of entry jets, and the Lambda^2 metric Q as a 6x6 list, with
# every Lambda^2 quantity a sum over its entries.


def pair_jets(c6):
    """The six pair jets of the stacked 2-form c6 ((NCOEFF,) + batch + (6,))
    as a list of contiguous Jet3."""
    return [Jet3(np.ascontiguousarray(c6[..., q])) for q in range(6)]


def entries(c):
    """4x4 nested list of jets holding contiguous copies of the entries of the
    stacked coefficients c ((NCOEFF,) + batch + (4, 4))."""
    return [[Jet3(np.ascontiguousarray(c[..., i, j])) for j in range(4)] for i in range(4)]


def stack(m):
    """Coefficients (NCOEFF,) + batch + (4, 4) of a 4x4 nested list of jets."""
    return np.stack([np.stack([e.c for e in row], axis=-1) for row in m], axis=-2)


def lambda2_metric(gi):
    """Q[(ij),(kl)] = g^ik g^jl - g^il g^jk, a 6x6 symmetric nested list, over
    the entries gi[i][j] of g^-1 (jets or values, component axes first)."""
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
    from curv4.forms import STAR6

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
    from curv4.forms import _contract, pair_components_values

    gi = entry_values(gi)
    Q = entry_values(Q if Q is not None else lambda2_metric(gi))
    gi, Q = (np.moveaxis(m, (0, 1), (-2, -1)) for m in (gi, Q))
    T6 = pair_components_values(T)  # [a, p]
    return _contract(gi, T6 @ Q @ np.swapaxes(T6, -1, -2))


def broadcast_congruence(a, m):
    """Stacked jets of (a^T m a)_cd as two graded products broadcast out to
    (NCOEFF,) + batch + (4, 4, 4), summed over the contracted axis."""
    ma = (Jet3(m[..., :, :, None]) * Jet3(a[..., None, :, :])).c.sum(axis=-2)
    return (Jet3(a[..., :, :, None]) * Jet3(ma[..., :, None, :])).c.sum(axis=-3)


_QUAD_A, _QUAD_B = np.triu_indices(4)
_QLO, _QHI = 1 + _QUAD_A, 1 + _QUAD_B
_QOFF = np.flatnonzero(_QUAD_A != _QUAD_B)


def fancy_index_mul(a, b):
    """The graded jet product as it was written over fancy-indexed copies of
    all quadratic slots at once: quadratic slot (a, b) sums as
    a0 b_ab + ((a_a b_b [+ a_b b_a]) + a_ab b0)."""
    b0 = b[0]
    out = a[:1] * b
    out[1:5] += a[1:5] * b0
    s = a[_QLO] * b[_QHI]
    s[_QOFF] += a[_QHI[_QOFF]] * b[_QLO[_QOFF]]
    s += a[5:] * b0
    out[5:] += s
    return out


def slot_loop_inverse(c):
    """Stacked jets of m^-1 = V - V N V + V N V N V one quadratic slot at a
    time: with W_a = V N_a, the linear part -W_a V and the quadratic part
    (W_a W_b + W_b W_a - V N_ab) V (a < b), (W_a W_a - V N_aa) V."""
    V = np.linalg.inv(c[0])
    W = V @ c[1:5]
    out = np.empty_like(c)
    out[0] = V
    out[1:5] = -W @ V
    for q, (a, b) in enumerate(zip(_QUAD_A, _QUAD_B)):
        s = W[a] @ W[b]
        if a != b:
            s += W[b] @ W[a]
        s -= V @ c[5 + q]
        np.matmul(s, V, out=out[5 + q])
    return out


def cofactor_minor(m, rows, cols=None):
    """jets.minor's reference: the plain recursive cofactor expansion along the
    first row, which forms every sub-minor again wherever it recurs."""
    cols = rows if cols is None else cols
    if not rows:
        return 1.0
    if len(rows) == 1:
        r, c = rows[0], cols[0]
        return Jet3(m.c[..., r, c]) if isinstance(m, Jet3) else m[..., r, c]
    out = None
    for k, c in enumerate(cols):
        term = (cofactor_minor(m, rows[:1], (c,))
                * cofactor_minor(m, rows[1:], cols[:k] + cols[k + 1:]))
        out = term if out is None else out - term if k % 2 else out + term
    return out


# -- lattice stencils by periodic shifts of the whole (n, n, n, n) field: the
# references for grid._difference_jets and for the forms operators that
# grid._CellGeometry feeds with difference jets.


def roll_diff(u_grid, axis, h):
    """Centred first difference of a lattice field along axis."""
    return (np.roll(u_grid, -1, axis=axis) - np.roll(u_grid, 1, axis=axis)) / (2.0 * h)


def roll_diff2(u_grid, a, b, h):
    """Centred second difference d_a d_b of a lattice field."""
    if a == b:
        return (np.roll(u_grid, -1, axis=a) - 2.0 * u_grid + np.roll(u_grid, 1, axis=a)) / h**2
    upp = np.roll(np.roll(u_grid, -1, axis=a), -1, axis=b)
    upm = np.roll(np.roll(u_grid, -1, axis=a), 1, axis=b)
    ump = np.roll(np.roll(u_grid, 1, axis=a), -1, axis=b)
    umm = np.roll(np.roll(u_grid, 1, axis=a), 1, axis=b)
    return (upp - upm - ump + umm) / (4.0 * h**2)


def centered_differences(n, h, c6):
    """d_a of the six cell fields c6 (6, n^4) by centred differences, (6, n^4, 4)."""
    return np.stack([[roll_diff(c6[p].reshape(n, n, n, n), a, h).ravel() for p in range(6)]
                     for a in range(4)], axis=-1)


def covariant_nabla_discrete(gamma, c6, dc6):
    """(nabla_a phi)_ij at every cell, (n^4, 4, 4, 4) indexed [a, i, j], from the
    components c6 (6, n^4), their centred differences dc6 and the Christoffel
    symbols gamma (n^4, 4, 4, 4) indexed [l, a, i]."""
    full = forms.full_matrix_values(c6.T)
    gam = gamma.reshape(-1, 4, 16)  # [l, (a, i)]
    # Gamma^l_ai phi_lj + Gamma^l_aj phi_il, each one batched matmul
    corr = ((np.swapaxes(gam, -1, -2) @ full).reshape(-1, 4, 4, 4)
            + np.swapaxes((full @ gam).reshape(-1, 4, 4, 4), -3, -2))
    return forms.full_matrix_values(np.moveaxis(dc6, 0, -1)) - corr


def discrete_scalar_laplacian(n, h, ginv, gamma, u_grid):
    """g^ab d_a d_b u + drift^j d_j u by centred differences, the drift
    (1/sqrt g) d_i (sqrt g g^ij) = -g^ab Gamma^j_ab from g^-1 and Gamma per cell."""
    drift = -(gamma.reshape(-1, 4, 16) @ ginv.reshape(-1, 16, 1))[..., 0]
    ginv, drift = ginv.reshape(n, n, n, n, 4, 4), drift.reshape(n, n, n, n, 4)
    out = np.zeros_like(u_grid)
    for i in range(4):
        for j in range(i, 4):
            coef = ginv[..., i, j] * (1.0 if i == j else 2.0)
            out += coef * roll_diff2(u_grid, i, j, h)
        out += drift[..., i] * roll_diff(u_grid, i, h)
    return out


def discrete_eq23_fields(fieldd):
    """|nabla phi+|^2, |nabla phi-|^2, Delta(FG) and <dF, dG> of a discrete field
    at every cell by the shift stencils above, with g^-1, Gamma, F, G and *phi
    from the analytic metric at the cell centres."""
    from curv4 import charts, grid

    gc, c6 = fieldd.complex, fieldd.coloc6
    n, h = gc.n, gc.h
    geom = charts.Geometry.of_chart(gc.chart, grid._cell_centers(gc))
    ginv, gamma = geom.ginv_values, geom.gamma_values
    sqrt_det = charts.sqrt_det_values(geom.g_values)
    F, G, _ = (x.reshape(n, n, n, n) for x in forms.fg_values(ginv, c6.T, sqrt_det))
    star6 = forms.star_coord(forms.raised_pairs(ginv, c6.T), sqrt_det[:, None]).T
    T, T_star = (covariant_nabla_discrete(gamma, c, centered_differences(n, h, c))
                 for c in (c6, star6))
    dF, dG = (np.stack([roll_diff(u, a, h) for a in range(4)], axis=-1).reshape(-1, 4)
              for u in (F, G))
    return (forms.nabla_norm_sq_values(ginv, T + T_star),
            forms.nabla_norm_sq_values(ginv, T - T_star),
            discrete_scalar_laplacian(n, h, ginv, gamma, F * G).ravel(),
            ((dF[:, None, :] @ ginv) @ dG[:, :, None]).ravel())
