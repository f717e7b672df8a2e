"""Truncated Taylor arithmetic in 4 variables up to total order 2.

A jet stores the 15 raw Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a function at a point, indexed by multi-indices |alpha| <= 2.  Every
identity the lab checks needs at most second derivatives of g and phi
(curvature is dGamma + Gamma Gamma, every Laplacian the trace of a Hessian),
so order 2 is the order in use.  Products are graded: the value, linear and
quadratic slots each collect the few terms of their degree (the truncated
product, exact for polynomial inputs of total degree <= 2); elementary
functions compose through their univariate Taylor expansion in the nilpotent
part.

Jets are stored coefficient-major: `Jet3.c` has shape (NCOEFF,) + batch, one
row of the whole batch of points per coefficient, so every slot operation of
a product or a composition is a numpy operation over contiguous rows of N
points, not over rows of 4-15 coefficients.  Tensors of jets are stacked the
same way, (NCOEFF,) + batch + components, so the metric's derived tensors are
closed forms of a few contractions each, not loops of scalar jet products.
`grad` and `hessian` return values with the batch axes first, as every other
value array.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import Curv4Error

NVARS = 4
ORDER = 2
NCOEFF = 15

# Slot layout of the coefficient axis: 0 the value, 1 + a the linear slot of
# y_a, 5 + q the quadratic slot of y_a y_b for (a, b) = (_QUAD_A[q], _QUAD_B[q]),
# a <= b in row-major order, so the slots of one a are contiguous.
_QUAD_A, _QUAD_B = np.triu_indices(NVARS)
# _QROW[a]: the quadratic slots (a, b) for b = a..3, one contiguous slice
_QROW = [slice(5 + q, 5 + q + NVARS - a)
         for a, q in enumerate(np.flatnonzero(_QUAD_A == _QUAD_B).tolist())]
_HESS_SLOTS = np.zeros((NVARS, NVARS), dtype=int)
_HESS_SLOTS[_QUAD_A, _QUAD_B] = _HESS_SLOTS[_QUAD_B, _QUAD_A] = 5 + np.arange(len(_QUAD_A))
_HESS_FAC = 1.0 + np.eye(NVARS)


class JetError(Curv4Error):
    """Domain failure (division by zero, log/sqrt of nonpositive, NaN)."""

    def __init__(self, message, where=None):
        if where is not None:
            message = f"{message} at point {where}"
        super().__init__(message)
        self.where = where


def _graded(x, y, op):
    """The truncated product of the stacked jets x and y ((NCOEFF,) + ...),
    with op the product of one pair of coefficient slots (np.multiply for
    scalar jets, np.matmul for matrix jets, or a contraction such as a trace).
    Quadratic slot (a, b) sums as x0 y_ab + ((x_a y_b [+ x_b y_a]) + x_ab y0),
    the order of the plain convolution sum; the slots of one a run together,
    on views of x and y.  The value slot is op(x0, y0) on the value rows
    alone, so that it is the op of the values bit for bit (einsum sums a
    trace broadcast over all the slots in another order)."""
    if len(x) == 1:  # the value row alone (expr.Plan.values)
        return op(x, y)
    y0 = y[:1]
    out = op(x[:1], y)
    op(x[:1], y[:1], out=out[:1])
    out[1:5] += op(x[1:5], y0)
    for a, row in enumerate(_QROW):
        s = op(x[1 + a:2 + a], y[1 + a:5])
        s[1:] += op(x[2 + a:5], y[1 + a:2 + a])
        s += op(x[row], y0)
        out[row] += s
    return out


def matmul(x, y):
    """Stacked jets of the matrix product x y of stacked jet matrices
    (NCOEFF,) + batch + (n, m) and (NCOEFF,) + batch + (m, k)."""
    return _graded(x, y, np.matmul)


def _first_bad(mask, points):
    """Coordinates of the first offending batch entry, for diagnostics."""
    if points is None:
        return None
    idx = np.argmax(mask)
    p = np.asarray(points)
    if p.ndim >= 2:
        return tuple(float(v) for v in p.reshape(-1, p.shape[-1])[idx])
    return tuple(float(v) for v in p)


class Jet3:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, batch_shape=(), rows=NCOEFF):
        c = np.zeros((rows,) + tuple(batch_shape))
        c[0] = value
        return Jet3(c)

    @staticmethod
    def variable(axis, x0):
        """Jet of the coordinate function x_axis at value x0 (scalar or batch)."""
        if not 0 <= axis < NVARS:
            raise ValueError(f"axis must be in 0..3, got {axis}")
        x0 = np.asarray(x0, dtype=float)
        c = np.zeros((NCOEFF,) + x0.shape)
        c[0] = x0
        c[1 + axis] = 1.0
        return Jet3(c)

    @staticmethod
    def quadratic(value, linear, quad):
        """Jet at y = 0 of value + linear_a y_a + quad_ab y_a y_b (exact).

        value: batch shape; linear: batch + (4,); quad: batch + (4, 4), any
        symmetry (only quad + quad^T enters).
        """
        value = np.asarray(value, dtype=float)
        sym = quad + np.swapaxes(quad, -1, -2)
        c = np.zeros((NCOEFF,) + value.shape)
        c[0] = value
        c[1:5] = np.moveaxis(linear, -1, 0)
        c[5:] = np.moveaxis(np.where(_QUAD_A == _QUAD_B, 0.5, 1.0)
                            * sym[..., _QUAD_A, _QUAD_B], -1, 0)
        return Jet3(c)

    # -- views -------------------------------------------------------------

    @property
    def value(self):
        return self.c[0]

    def grad(self):
        """First derivatives, shape batch + (4,)."""
        return np.moveaxis(self.c[1:5], 0, -1)

    def hessian(self):
        """Second derivatives, shape batch + (4, 4)."""
        fac = _HESS_FAC.reshape(_HESS_FAC.shape + (1,) * (self.c.ndim - 1))
        return np.moveaxis(self.c[_HESS_SLOTS] * fac, (0, 1), (-2, -1))

    def partial(self, axis):
        """Jet of d/dx_axis; its degree-ORDER coefficients are unknown (zeroed)."""
        out = np.zeros_like(self.c)
        out[0] = self.c[1 + axis]
        out[1:5] = self.c[_HESS_SLOTS[axis]]
        out[1 + axis] *= 2.0
        return Jet3(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return Jet3(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.c)

    def __sub__(self, other):
        if isinstance(other, Jet3):
            return Jet3(self.c - other.c)
        out = self.c.copy()
        out[0] -= other
        return Jet3(out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.c * other)
        return Jet3(_graded(self.c, other.c, np.multiply))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self, points=None):
        u0 = self.value
        bad = u0 == 0.0
        if np.any(bad):
            raise JetError("division by zero", _first_bad(bad, points))
        inv = 1.0 / u0
        return self._compose(inv, -inv**2, inv**3)

    def _compose(self, c0, c1, c2):
        """Evaluate c0 + c1 w + c2 w^2 where w = self - value(self)."""
        w = Jet3(self.c.copy())
        w.c[0] = 0.0
        w2 = w * w
        out = w.c * c1 + w2.c * c2
        out[0] += c0
        return Jet3(out)


# -- elementary functions ---------------------------------------------------


def exp(u: Jet3) -> Jet3:
    e = np.exp(u.value)
    return u._compose(e, e, e / 2.0)


def require_positive(u: Jet3, what, points=None):
    """JetError `what`, naming the first point where u's value is not > 0."""
    bad = ~(u.value > 0.0)
    if np.any(bad):
        raise JetError(what, _first_bad(bad, points))


def log(u: Jet3, points=None) -> Jet3:
    require_positive(u, "log of nonpositive value", points)
    u0 = u.value
    inv = 1.0 / u0
    return u._compose(np.log(u0), inv, -inv**2 / 2.0)


def sin(u: Jet3) -> Jet3:
    s, c = np.sin(u.value), np.cos(u.value)
    return u._compose(s, c, -s / 2.0)


def cos(u: Jet3) -> Jet3:
    s, c = np.sin(u.value), np.cos(u.value)
    return u._compose(c, -s, -c / 2.0)


def sqrt(u: Jet3, points=None) -> Jet3:
    require_positive(u, "sqrt of nonpositive value", points)
    u0 = u.value
    r = np.sqrt(u0)
    return u._compose(r, 0.5 / r, -1.0 / (8.0 * u0 * r))


def powr(u: Jet3, r, points=None) -> Jet3:
    """u**r for real constant r; integer r works for any base, else base > 0."""
    r = float(r)
    if r == round(r) and abs(r) <= 64:
        n = int(round(r))
        if n == 0:
            return Jet3.constant(1.0, u.value.shape, len(u.c))
        # u^-n as (1/u)^n: 1/u^n overflows where u^n underflows
        base = u._reciprocal(points) if n < 0 else u
        acc = base
        for _ in range(abs(n) - 1):
            acc = acc * base
        return acc
    require_positive(u, f"negative base for non-integer power {r}", points)
    u0 = u.value
    p = np.power(u0, r)
    c1 = r * p / u0
    c2 = r * (r - 1.0) / 2.0 * p / u0**2
    return u._compose(p, c1, c2)


def assert_finite(u: Jet3, context, points=None):
    """NaN poisoning gate: abort the enclosing computation on any bad coefficient
    of the Jet3 u.

    `context` is a string or a callable returning one; a callable is only
    called when the gate fires, so callers can defer costly formatting.
    """
    ok = np.isfinite(u.c)
    if not np.all(ok):
        what = context() if callable(context) else context
        raise JetError(f"non-finite jet coefficients in {what}",
                       _first_bad(~np.all(ok, axis=0), points))


# -- stacked jets: a tensor of jets is one array (NCOEFF,) + batch + components;
# a first-order jet of a tensor is the pair (value, grad), grad of shape
# batch + (4,) + components (derivative axis first).


def antisymmetric(c, index_sets):
    """The antisymmetric tensor, shape X + (4,) * rank, whose components on the
    increasing index tuples index_sets are c[..., k] (c of shape X + (K,):
    stacked jet coefficients, values or gradients)."""
    idx = np.array(index_sets)
    full = np.zeros(c.shape[:-1] + (NVARS,) * idx.shape[1])
    for perm in itertools.permutations(range(idx.shape[1])):
        sign = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        full[(Ellipsis,) + tuple(idx[:, perm].T)] = sign * c
    return full


def congruence(a, m):
    """Stacked jets of (a^T m a)_cd = sum_ij a_ic m_ij a_jd, for stacked 4x4
    jet matrices a and m."""
    return matmul(np.swapaxes(a, -1, -2), matmul(m, a))


def inverse_values(m0, points=None):
    """np.linalg.inv of matrices m0 (batch + (4, 4)); a singular one raises
    JetError at its point."""
    try:
        return np.linalg.inv(m0)
    except np.linalg.LinAlgError:
        bad = np.linalg.matrix_rank(m0.reshape(-1, NVARS, NVARS)) < NVARS
        raise JetError("singular metric matrix", _first_bad(bad, points)) from None


def solve(m, b, points=None, V=None):
    """Stacked jets of m^-1 b for a stacked 4x4 jet matrix m and stacked jets b
    ((NCOEFF,) + batch + (4, k)), one slot at a time, so every temporary holds
    one slot.  With V = m(p)^-1 (given, or inverse_values(m[0])), each slot of x
    is V times that slot of b less the terms of the graded product m x that hold
    lower slots of x: x_ab = V (b_ab - m_a x_b - m_ab x_0 [- m_b x_a])."""
    V = inverse_values(m[0], points) if V is None else V
    x = np.empty(b.shape)
    x[0] = V @ b[0]
    for a in range(NVARS):
        x[1 + a] = V @ (b[1 + a] - m[1 + a] @ x[0])
    for q, (a, c) in enumerate(zip(_QUAD_A.tolist(), _QUAD_B.tolist())):
        s = b[5 + q] - m[1 + a] @ x[1 + c] - m[5 + q] @ x[0]
        if a != c:
            s -= m[1 + c] @ x[1 + a]
        x[5 + q] = V @ s
    return x


def mat_inverse(c, points=None):
    """Stacked jets of the inverse of the stacked jet matrix c: solve(c, I)."""
    eye = np.zeros_like(c)
    eye[0] = np.eye(NVARS)
    return solve(c, eye, points)


def minor(m, rows, cols=None):
    """Determinant of the submatrix m[rows, cols] (cols defaults to rows) of the
    stacked matrices m, values batch + (r, c) or a Jet3 of stacked coefficients,
    by cofactor expansion along the first row over views of its entries; 1.0
    for no rows.  The expansion is formed from the last row up, so each of its
    sub-minors (the last j rows on j of the columns) is formed once."""
    if not rows:
        return 1.0
    cols = rows if cols is None else cols
    wrap, a = (Jet3, m.c) if isinstance(m, Jet3) else (np.asarray, m)
    below = {(c,): wrap(a[..., rows[-1], c]) for c in cols}
    for j in range(2, len(rows) + 1):
        level = {}
        for sub in itertools.combinations(cols, j):
            for k, c in enumerate(sub):
                term = wrap(a[..., rows[-j], c]) * below[sub[:k] + sub[k + 1:]]
                level[sub] = term if k == 0 else level[sub] - term if k % 2 else level[sub] + term
        below = level
    return below[tuple(cols)]


def det4(m):
    """Determinant of stacked 4x4 matrices m, values or a Jet3 (see minor)."""
    return minor(m, (0, 1, 2, 3))
