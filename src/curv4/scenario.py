"""Scenario files: one schema table, chart/field construction, determinism.

`_SCENARIO` is the whole schema.  One walk of it checks a parsed file and
returns its typed values, or names the JSON path of the first violation.
Unknown keys are rejected everywhere so misspelled options never silently
change a run.  A fixed (scenario, seed) pair reproduces identical reports.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType

from . import InputError
from . import expr as ex
from .charts import MetricChart, chart_from_strings, conformal_chart, sample_box, validate_chart
from .forms import PAIR_KEYS, TwoFormField

SCHEMA_VERSION = 1

# Every tolerance a command reads; a scenario's "tolerances" overlays it (the
# README's table names the command and report field each key gates).
DEFAULT_TOLERANCES = MappingProxyType({
    "weitzenboeck": 1e-7,
    "eq22": 1e-7,
    "lemma22": 1e-6,
    "prop23": 1e-6,
    "thm21": 1e-6,
    "conformal": 1e-5,
    "harmonicity": 1e-7,
    "kato_classical": 1e-9,
    "kato_lemma41": 1e-6,
    "normal_gamma": 1e-9,
    "degeneracy_frac": 1e-8,
})

# The largest sample and lattice, so no run traces more than about 1 GiB
# (README, Memory), and the deepest chain of conformal bases (README, Schema).
COUNT_MAX = 100_000
N_MAX = 21
CONFORMAL_DEPTH_MAX = 8

# A spec is (kind, default, *rest).  Kind int, float, str or ex.parse (an
# expression string, parsed): rest are bounds such as ">= 1".  list: rest are
# the specs of its items.  dict: rest is {key: spec} of the keys allowed.
# _PRESET: a preset name, or an object whose "preset" (None if absent) picks
# its {key: spec} from rest.  The default is _REQ (required), _OPT (none),
# None (none, and null means absent) or the value of an absent key.
_REQ, _OPT, _PRESET = object(), object(), "preset"
_EXPR, _NUM = (ex.parse, _REQ), (float, _REQ)
_ROW, _INTERVAL = (list, _REQ, *[_EXPR] * 4), (list, _REQ, _NUM, _NUM)
_PAIRS = {key: (ex.parse, _OPT) for key in PAIR_KEYS}
_RADIUS = (float, 1.0, "> 0")
# each preset name but conformal is the presets function that builds it
MANIFOLD_PRESETS = {"flat_t4": {}, "round_s4": {"r": _RADIUS},
                    "product_s2s2": {"r1": _RADIUS, "r2": _RADIUS}, "cp2_fubini_study": {},
                    "conformal": {"base": None, "f": _EXPR},
                    None: {"metric": (list, _REQ, *[_ROW] * 4),
                           "domain": (list, [[0.0, 2.0 * math.pi]] * 4, *[_INTERVAL] * 4)}}
MANIFOLD_PRESETS["conformal"]["base"] = _MANIFOLD = (_PRESET, _REQ, MANIFOLD_PRESETS)
FORM_PRESETS = {"constant": {}, "factor_volumes": {}, "factor_volume_1": {}, "kaehler": {},
                "random_analytic": {"seed": (int, _OPT, ">= 0")}, "zero": {},
                None: {"components": (dict, _REQ, _PAIRS)}}
_SCENARIO = (dict, _REQ, {
    "schema_version": (int, SCHEMA_VERSION, f"== {SCHEMA_VERSION}"),
    "id": (str, _REQ),
    "manifold": _MANIFOLD,
    "form": (_PRESET, None, FORM_PRESETS),
    "form_components": (dict, None, _PAIRS),
    "conformal_factor": (ex.parse, None),
    "sampling": (dict, {}, {"count": (int, 30, ">= 1", f"<= {COUNT_MAX}"),
                            "margin": (float, 0.05, ">= 0", "< 0.5"),
                            "seed": (int, 0, ">= 0")}),
    "tolerances": (dict, {}, {key: (float, value) for key, value in DEFAULT_TOLERANCES.items()}),
    "grid": (dict, None, {"n": (int, 6, ">= 3", f"<= {N_MAX}"),
                          "metric": (list, _OPT, *[_ROW] * 4)}),
})
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          ex.parse: "an expression string"}


class Scenario:
    """The typed values of one scenario file (from_dict)."""

    def __init__(self, sc):
        self.id, self.manifold, self.grid = sc["id"], sc["manifold"], sc.get("grid")
        self.form = sc.get("form", {"preset": "constant"})
        self.conformal_factor = sc.get("conformal_factor")
        self.count, self.margin, self.seed = (sc["sampling"][key]
                                              for key in ("count", "margin", "seed"))
        self.tols = MappingProxyType(sc["tolerances"])  # DEFAULT_TOLERANCES, overlaid
        self.grid_n = self.grid and self.grid["n"]

    def build_chart(self) -> MetricChart:
        chart = _build_manifold(self.manifold)
        if self.conformal_factor is not None:
            chart = conformal_chart(chart, self.conformal_factor)
        validate_chart(chart)
        return chart

    def build_field(self, chart: MetricChart) -> TwoFormField:
        if "components" in self.form:
            return TwoFormField(chart, self.form["components"])
        from . import presets

        return TwoFormField(chart, presets.form_preset(self.form["preset"], chart,
                                                       seed=self.form.get("seed", self.seed)))

    def points(self, chart: MetricChart, count=None):
        return sample_box(chart.domain, count or self.count, self.margin, self.seed)

    def grid_chart(self) -> MetricChart:
        if self.grid is None:
            raise InputError("scenario has no 'grid' section")
        if "metric" not in self.grid:
            return self.build_chart()
        chart = chart_from_strings(self.grid["metric"], [(0.0, 2.0 * math.pi)] * 4,
                                   f"{self.id}_grid_metric")
        validate_chart(chart)
        return chart


def _build_manifold(spec) -> MetricChart:
    name = spec.get("preset")
    if name is None:
        return chart_from_strings(spec["metric"], spec["domain"], "inline_metric")
    if name == "conformal":
        return conformal_chart(_build_manifold(spec["base"]), spec["f"])
    from . import presets

    return getattr(presets, name)(*(spec[key] for key in MANIFOLD_PRESETS[name]))


def _name(spec):
    """The kind of a leaf or list spec, as an error names it."""
    kind, _, *items = spec
    if kind is not list:
        return _KINDS[kind]
    noun = "rows" if items[0][0] is list else _KINDS[items[0][0]].split(" ", 1)[1] + "s"
    return f"a list of {len(items)} {noun}"


def _walk(value, spec, path):
    """value typed by spec, or InputError naming the JSON path of the first part
    of it that breaks the spec; JSON strings and booleans are not numbers."""
    kind, _, *rest = spec
    if kind is _PRESET:
        name = value if isinstance(value, str) else (
            value.get("preset") if isinstance(value, dict) else None)
        if name not in tuple(rest[0]):
            raise InputError(f"{path if isinstance(value, str) else path + '.preset'} must be "
                             f"one of {sorted(filter(None, rest[0]))}, not {name!r}")
        if name == "conformal" and path.count(".base") >= CONFORMAL_DEPTH_MAX:
            raise InputError(f"{path} nests conformal more than {CONFORMAL_DEPTH_MAX} deep")
        value = {"preset": value} if isinstance(value, str) else value
        kind, rest = dict, [{"preset": (str, None), **rest[0][name]}]
    if kind is dict:
        keys = rest[0]
        if not isinstance(value, dict):
            raise InputError(f"{path or 'scenario'} must be a JSON object, not {value!r}")
        if set(value) - set(keys):
            raise InputError(f"unknown keys {sorted(set(value) - set(keys))} in "
                             f"{path or 'scenario'} (allowed: {sorted(keys)})")
        out = {}
        for key, sub in keys.items():
            got, child = value.get(key, sub[1]), f"{path}.{key}" if path else key
            if got is _REQ:
                raise InputError(f"{child} is missing")
            if got is not _OPT and not (got is None and sub[1] is None):
                out[key] = _walk(got, sub, child)
        return out
    if kind is list:
        if not isinstance(value, list) or len(value) != len(rest):
            raise InputError(f"{path} must be {_name(spec)}, not {value!r}")
        out = [_walk(item, sub, f"{path}[{i}]") for i, (item, sub) in enumerate(zip(value, rest))]
        if spec is _INTERVAL and not out[0] < out[1]:
            raise InputError(f"{path} must have lo < hi, not {value!r}")
        return out
    try:
        ok = isinstance(value, str) if kind in (str, ex.parse) else not isinstance(value, bool) \
            and (isinstance(value, int) if kind is int else math.isfinite(value))
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        ok = False
    if not ok:
        raise InputError(f"{path} must be {_name(spec)}, not {value!r}")
    for rule in rest:
        op, bound = rule.split()
        b = float(bound)
        if not {">=": value >= b, ">": value > b, "<": value < b, "<=": value <= b,
                "==": value == b}[op]:
            raise InputError(f"{path} must be {rule}")
    try:
        return kind(value)
    except ex.ExprError as e:
        raise InputError(f"{path}: {e}") from None


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def load(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # strict JSON: json.load would read NaN, Infinity and -Infinity
            return from_dict(json.load(fh, parse_constant=_no_constant))
    except FileNotFoundError:
        raise InputError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: line {e.lineno} col {e.colno}: "
                         f"{e.msg}") from None
    except ValueError as e:  # a non-standard constant, or a file that is not UTF-8
        raise InputError(f"malformed JSON in {path}: {e}") from None
    except RecursionError:
        raise InputError(f"scenario {path} is nested too deeply") from None


def from_dict(raw) -> Scenario:
    sc = _walk(raw, _SCENARIO, "")
    if "form_components" in sc:
        if "form" in sc:
            raise InputError("give either 'form' or 'form_components', not both")
        sc["form"] = {"components": sc.pop("form_components")}
    return Scenario(sc)
