"""Scenario files: strict JSON schema, chart/field construction, determinism.

Unknown keys are rejected everywhere so misspelled options never silently
change a run.  A fixed (scenario, seed) pair reproduces identical reports.
"""

from __future__ import annotations

import json

import numpy as np

from . import InputError
from . import expr as ex
from .charts import (MetricChart, chart_from_strings, conformal_chart, sample_box,
                     validate_chart)
from .forms import PAIR_KEYS, TwoFormField

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "weitzenboeck": 1e-7,
    "eq22": 1e-7,
    "lemma22": 1e-6,
    "prop23": 1e-6,
    "thm21": 1e-6,
    "conformal": 1e-5,
    "eq42": 1e-6,
    "eq43": 1e-6,
    "eq46": 1e-6,
    "harmonicity": 1e-7,
    "kato_classical": 1e-9,
    "kato_lemma41": 1e-6,
    "normal_gamma": 1e-9,
    "degeneracy_frac": 1e-8,
}

_TOP_KEYS = {"schema_version", "id", "manifold", "form", "form_components",
             "conformal_factor", "sampling", "tolerances", "grid"}
_MANIFOLD_PRESET_KEYS = {"preset", "r", "r1", "r2", "base", "f"}
_MANIFOLD_INLINE_KEYS = {"metric", "domain", "orientation"}
_FORM_KEYS = {"preset", "components", "seed"}
_SAMPLING_KEYS = {"count", "margin", "seed"}
_GRID_KEYS = {"n", "metric"}


class Scenario:
    def __init__(self, id, manifold, form=None, conformal_factor=None, sampling=None,
                 tolerances=None, grid=None):
        self.id = id
        self.manifold = manifold
        self.form = form
        self.conformal_factor = conformal_factor
        self.sampling = {} if sampling is None else sampling
        self.tolerances = {} if tolerances is None else tolerances
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

    def tolerance(self, key):
        if key in self.tolerances:
            return float(self.tolerances[key])
        return DEFAULT_TOLERANCES[key]

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
        chart = chart_from_strings(self.grid["metric"], [(0.0, 2.0 * np.pi)] * 4, 1,
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
        return chart_from_strings(spec["metric"], domain,
                                  int(spec.get("orientation", 1)), "inline_metric")
    except ex.ExprError as e:
        raise InputError(f"bad metric expression: {e}") from None


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
        if int(raw["sampling"].get("count", 1)) < 1:
            raise InputError("sampling.count must be >= 1")
    form = raw.get("form")
    if form is not None and not isinstance(form, str):
        _check_keys(form, _FORM_KEYS, "form")
    if raw.get("form_components") is not None:
        if form is not None:
            raise InputError("give either 'form' or 'form_components', not both")
        form = {"components": dict(raw["form_components"])}
    if "grid" in raw and raw["grid"] is not None:
        _check_keys(raw["grid"], _GRID_KEYS, "grid")
    if "tolerances" in raw:
        unknown = set(raw["tolerances"]) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise InputError(f"unknown tolerance keys {sorted(unknown)}")
    return Scenario(
        id=raw["id"],
        manifold=raw["manifold"],
        form=form,
        conformal_factor=raw.get("conformal_factor"),
        sampling=dict(raw.get("sampling", {})),
        tolerances=dict(raw.get("tolerances", {})),
        grid=raw.get("grid"),
    )
