"""Scenario files: strict JSON schema, chart/field construction, determinism.

Unknown keys are rejected everywhere so misspelled options never silently
change a run.  A fixed (scenario, seed) pair reproduces identical reports.
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType

import numpy as np

from . import InputError
from . import expr as ex
from .charts import (MetricChart, chart_from_strings, conformal_chart, sample_box,
                     validate_chart)
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

_TOP_KEYS = {"schema_version", "id", "manifold", "form", "form_components",
             "conformal_factor", "sampling", "tolerances", "grid"}
_MANIFOLD_PRESET_KEYS = {"preset", "r", "r1", "r2", "base", "f"}
_MANIFOLD_INLINE_KEYS = {"metric", "domain"}
_FORM_KEYS = {"preset", "components", "seed"}
_SAMPLING_KEYS = {"count", "margin", "seed"}
_GRID_KEYS = {"n", "metric"}
# Every number or expression a scenario may set: section -> key -> (kind,
# minimum[, bound it stays below]); "" is the top level, and the manifold's
# keys also apply inside a conformal preset's "base".
_VALUES = {"": {"conformal_factor": (str, None)},
           "sampling": {"count": (int, 1), "margin": (float, 0, 0.5), "seed": (int, 0)},
           "grid": {"n": (int, None)}, "form": {"seed": (int, 0)},
           "manifold": {"r": (float, None), "r1": (float, None), "r2": (float, None),
                        "f": (str, None)}}
_KINDS = {int: "an integer", float: "a finite number", str: "an expression string"}


class Scenario:
    def __init__(self, id, manifold, form=None, conformal_factor=None, sampling=None,
                 tols=DEFAULT_TOLERANCES, grid=None):
        self.id = id
        self.manifold = manifold
        self.form = form
        self.conformal_factor = conformal_factor
        self.sampling = {} if sampling is None else sampling
        self.tols = tols  # DEFAULT_TOLERANCES overlaid with the scenario's overrides
        self.grid = grid

    @property
    def count(self):
        return int(self.sampling.get("count", 30))

    @property
    def margin(self):
        return float(self.sampling.get("margin", 0.05))

    @property
    def seed(self):
        return int(self.sampling.get("seed", 0))

    def build_chart(self) -> MetricChart:
        chart = _build_manifold(self.manifold)
        if self.conformal_factor is not None:
            chart = conformal_chart(chart, self.conformal_factor)
        validate_chart(chart)
        return chart

    def build_field(self, chart: MetricChart) -> TwoFormField:
        spec = self.form if self.form is not None else {"preset": "constant"}
        if isinstance(spec, str):
            spec = {"preset": spec}
        if "components" in spec:
            comps = dict(spec["components"])
            unknown = set(comps) - set(PAIR_KEYS)
            if unknown:
                raise InputError(f"unknown form component keys {sorted(unknown)}")
            return TwoFormField(chart, comps)
        name = spec.get("preset", "constant")
        seed = int(spec.get("seed", self.seed))
        if name == "zero":
            return TwoFormField(chart, {})
        from . import presets

        return TwoFormField(chart, presets.form_preset(name, chart, seed=seed))

    def points(self, chart: MetricChart, count=None):
        return sample_box(chart.domain, count or self.count, self.margin, self.seed)

    def grid_chart(self) -> MetricChart:
        if self.grid is None:
            raise InputError("scenario has no 'grid' section")
        if "metric" not in self.grid:
            return self.build_chart()
        chart = chart_from_strings(self.grid["metric"], [(0.0, 2.0 * np.pi)] * 4,
                                   f"{self.id}_grid_metric")
        validate_chart(chart)
        return chart

    @property
    def grid_n(self):
        if self.grid is None:
            raise InputError("scenario has no 'grid' section")
        return int(self.grid.get("n", 6))


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {where} "
                         f"(allowed: {sorted(allowed)})")


def _build_manifold(spec) -> MetricChart:
    if isinstance(spec, str):
        spec = {"preset": spec}
    if "preset" in spec:
        _check_keys(spec, _MANIFOLD_PRESET_KEYS, "manifold")
        from . import presets

        return presets.chart_preset(spec)
    _check_keys(spec, _MANIFOLD_INLINE_KEYS, "manifold")
    if "metric" not in spec:
        raise InputError("manifold needs either 'preset' or 'metric'")
    domain = spec.get("domain", [[0.0, 2.0 * np.pi]] * 4)
    try:
        return chart_from_strings(spec["metric"], domain, "inline_metric")
    except ex.ExprError as e:
        raise InputError(f"bad metric expression: {e}") from None


def _check_value(where, value, kind=float, minimum=None, below=None):
    """InputError naming `where` unless value is of the kind, int (an integer),
    float (a finite number) or str, at least minimum and less than below; JSON
    strings and booleans are not numbers."""
    try:
        ok = isinstance(value, str) if kind is str else not isinstance(value, bool) and (
            isinstance(value, int) if kind is int else math.isfinite(value))
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        ok = False
    if not ok:
        raise InputError(f"{where} must be {_KINDS[kind]}, not {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{where} must be >= {minimum}")
    if below is not None and value >= below:
        raise InputError(f"{where} must be < {below}")


def _check_metric(where, metric):
    """InputError naming `where` and the entry unless metric is a 4x4 list of
    expression strings."""
    if not isinstance(metric, list) or len(metric) != 4:
        raise InputError(f"{where} must be a list of 4 rows, not {metric!r}")
    for i, row in enumerate(metric):
        if not isinstance(row, list) or len(row) != 4:
            raise InputError(f"{where}[{i}] must be a list of 4 expression strings, not {row!r}")
        for j, entry in enumerate(row):
            if not isinstance(entry, str):
                raise InputError(f"{where}[{i}][{j}] must be an expression string, "
                                 f"not {entry!r}")


def _resolve_tolerances(overrides):
    """DEFAULT_TOLERANCES overlaid with a scenario's overrides, each a finite
    number (a negative one only makes its check stricter)."""
    _check_keys(overrides, set(DEFAULT_TOLERANCES), "tolerances")
    for key, value in overrides.items():
        _check_value(f"tolerance {key!r}", value)
    return MappingProxyType({**DEFAULT_TOLERANCES,
                             **{key: float(value) for key, value in overrides.items()}})


def _check_values(raw):
    """_check_value for every key of _VALUES that the scenario sets (a null
    conformal_factor is none)."""
    specs = [("", "", {} if raw.get("conformal_factor") is None else raw)]
    specs += [(name, name + ".", raw.get(name)) for name in ("sampling", "grid", "form")]
    manifold, path = raw["manifold"], "manifold."
    while isinstance(manifold, dict):  # a conformal preset nests its base
        specs.append(("manifold", path, manifold))
        manifold, path = manifold.get("base"), path + "base."
    for section, path, spec in specs:
        for key, rule in _VALUES[section].items():
            if isinstance(spec, dict) and key in spec:
                _check_value(path + key, spec[key], *rule)


def load(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: line {e.lineno} col {e.colno}: "
                         f"{e.msg}") from None
    return from_dict(raw)


def from_dict(raw) -> Scenario:
    _check_keys(raw, _TOP_KEYS, "scenario")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    if "id" not in raw or not isinstance(raw["id"], str):
        raise InputError("scenario needs a string 'id'")
    if "manifold" not in raw:
        raise InputError("scenario needs a 'manifold'")
    if "sampling" in raw:
        _check_keys(raw["sampling"], _SAMPLING_KEYS, "sampling")
    form = raw.get("form")
    if form is not None and not isinstance(form, str):
        _check_keys(form, _FORM_KEYS, "form")
    if raw.get("form_components") is not None:
        if form is not None:
            raise InputError("give either 'form' or 'form_components', not both")
        form = {"components": dict(raw["form_components"])}
    if "grid" in raw and raw["grid"] is not None:
        _check_keys(raw["grid"], _GRID_KEYS, "grid")
    _check_values(raw)
    for section in ("manifold", "grid"):
        if isinstance(raw.get(section), dict) and "metric" in raw[section]:
            _check_metric(f"{section}.metric", raw[section]["metric"])
    return Scenario(
        id=raw["id"],
        manifold=raw["manifold"],
        form=form,
        conformal_factor=raw.get("conformal_factor"),
        sampling=dict(raw.get("sampling", {})),
        tols=_resolve_tolerances(raw.get("tolerances", {})),
        grid=raw.get("grid"),
    )
