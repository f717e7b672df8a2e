"""Built-in manifold charts and 2-form fields.

Coordinate ranges:
  flat_t4            (0, 2pi)^4, identity metric.
  round_s4(r)        conformally flat ball chart, g = 4 r^4/(r^2+|x|^2)^2 I.
  product_s2s2(a,b)  polar chart on each factor: (theta1, phi1, theta2, phi2).
  cp2_fubini_study   affine chart z = (x1+i x2, x3+i x4); the normalization has
                     holomorphic sectional curvature 4, so sec ranges over [1,4].
  conformal(base,f)  metric exp(2 f) g_base on the base chart's domain.
"""

from __future__ import annotations

import math

import numpy as np

from . import Curv4Error
from . import expr as ex
from .charts import MetricChart, chart_from_strings, conformal_chart
from .forms import PAIR_KEYS

TWO_PI = 2.0 * math.pi


class PresetError(Curv4Error):
    pass


def _diag(entries, domain, name):
    g = [["0"] * 4 for _ in range(4)]
    for i in range(4):
        g[i][i] = entries[i]
    return chart_from_strings(g, domain, 1, name)


def flat_t4():
    return _diag(["1", "1", "1", "1"], [(0.0, TWO_PI)] * 4, "flat_t4")


def round_s4(r=1.0):
    if r <= 0:
        raise PresetError("round_s4 radius must be positive")
    conf = f"4*{r}^4 / ({r}^2 + x1^2 + x2^2 + x3^2 + x4^2)^2"
    return _diag([conf] * 4, [(-1.0, 1.0)] * 4, f"round_s4({r})")


def product_s2s2(r1=1.0, r2=1.0):
    if r1 <= 0 or r2 <= 0:
        raise PresetError("product_s2s2 radii must be positive")
    entries = [
        f"{r1}^2",
        f"{r1}^2 * sin(x1)^2",
        f"{r2}^2",
        f"{r2}^2 * sin(x3)^2",
    ]
    domain = [(0.0, math.pi), (0.0, TWO_PI), (0.0, math.pi), (0.0, TWO_PI)]
    chart = _diag(entries, domain, f"product_s2s2({r1},{r2})")
    return MetricChart(chart.g, chart.domain, chart.orientation, chart.name,
                       (float(r1), float(r2)))


# Fubini-Study metric in the affine chart, from the potential log(1+|z|^2):
#   g = Re sum h_{j kbar} dz_j dzbar_k,  h_{j kbar} = d_jk/rho - zbar_j z_k/rho^2,
# written out in real coordinates.  rho = 1 + |z|^2.
_CP2_RHO = "(1 + x1^2 + x2^2 + x3^2 + x4^2)"
_CP2_ENTRIES = {
    (0, 0): f"(1 + x3^2 + x4^2) / {_CP2_RHO}^2",
    (1, 1): f"(1 + x3^2 + x4^2) / {_CP2_RHO}^2",
    (2, 2): f"(1 + x1^2 + x2^2) / {_CP2_RHO}^2",
    (3, 3): f"(1 + x1^2 + x2^2) / {_CP2_RHO}^2",
    (0, 1): "0",
    (2, 3): "0",
    (0, 2): f"-(x1*x3 + x2*x4) / {_CP2_RHO}^2",
    (1, 3): f"-(x1*x3 + x2*x4) / {_CP2_RHO}^2",
    (0, 3): f"-(x1*x4 - x2*x3) / {_CP2_RHO}^2",
    (1, 2): f"(x1*x4 - x2*x3) / {_CP2_RHO}^2",
}


def cp2_fubini_study():
    g = [["0"] * 4 for _ in range(4)]
    for (i, j), src in _CP2_ENTRIES.items():
        g[i][j] = src
        g[j][i] = src
    return chart_from_strings(g, [(-1.0, 1.0)] * 4, 1, "cp2_fubini_study")


def cp2_complex_structure():
    """The (constant) complex structure matrix J in chart coordinates."""
    J = np.zeros((4, 4))
    J[1, 0] = 1.0
    J[0, 1] = -1.0
    J[3, 2] = 1.0
    J[2, 3] = -1.0
    return J  # column a holds J(d_a) components


def chart_preset(spec) -> MetricChart:
    """Build a chart from a scenario 'manifold' preset description."""
    if isinstance(spec, str):
        spec = {"preset": spec}
    kind = spec.get("preset")
    if kind == "flat_t4":
        return flat_t4()
    if kind == "round_s4":
        return round_s4(float(spec.get("r", 1.0)))
    if kind == "product_s2s2":
        return product_s2s2(float(spec.get("r1", 1.0)), float(spec.get("r2", 1.0)))
    if kind == "cp2_fubini_study":
        return cp2_fubini_study()
    if kind == "conformal":
        base = chart_preset(spec["base"])
        return conformal_chart(base, spec["f"])
    raise PresetError(f"unknown manifold preset {kind!r}")


PRESET_NAMES = ("flat_t4", "round_s4", "product_s2s2", "cp2_fubini_study", "conformal")
FORM_PRESET_NAMES = ("constant", "factor_volumes", "factor_volume_1", "kaehler",
                     "random_analytic")


def form_preset(name, chart: MetricChart, seed=0):
    """Coordinate components (dict pair-key -> expr tree) of a named 2-form field."""
    zeros = {k: ex.num(0.0) for k in PAIR_KEYS}
    if name == "constant":
        comps = dict(zeros)
        comps["12"] = ex.num(1.0)
        return comps
    if name in ("factor_volumes", "factor_volume_1"):
        if chart.product_radii is None:
            raise PresetError(f"form preset {name!r} needs a product_s2s2 chart")
        r1, r2 = chart.product_radii
        comps = dict(zeros)
        comps["12"] = ex.parse(f"{r1 * r1} * sin(x1)")
        if name == "factor_volumes":
            comps["34"] = ex.parse(f"{r2 * r2} * sin(x3)")
        return comps
    if name == "kaehler":
        if "cp2" not in chart.name:
            raise PresetError("form preset 'kaehler' needs the cp2_fubini_study chart")
        # omega(X, Y) = g(JX, Y) with the constant J of the affine chart
        e = _CP2_ENTRIES
        return {
            "12": ex.parse(e[(1, 1)]),
            "13": ex.parse(e[(1, 2)]),
            "14": ex.parse(e[(1, 3)]),
            "23": ex.parse(f"-({e[(0, 2)]})"),
            "24": ex.parse(f"-({e[(0, 3)]})"),
            "34": ex.parse(e[(3, 3)]),
        }
    if name == "random_analytic":
        rng = np.random.default_rng(seed)
        comps = {}
        for key in PAIR_KEYS:
            a, b, c = rng.uniform(-0.5, 0.5, 3).round(6)
            i, j = rng.integers(1, 5), rng.integers(1, 5)
            comps[key] = ex.parse(f"{a} + {b}*sin(x{i}) * cos(x{j}) + {c}*x{rng.integers(1, 5)}")
        return comps
    raise PresetError(f"unknown form preset {name!r}")
