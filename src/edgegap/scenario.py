"""JSON-driven experiment descriptions.

A scenario bundles the field strength, the edge profile, the perturbation,
the discretization budgets and the sweep grids behind one validated object;
the command-line front end consumes nothing else.  Configs are single JSON
documents.  `SCHEMA` (printed by `schema_json`) is the one home of every
field's type, finiteness, range and default: `validate` walks the whole
document against it, verify blocks included, before any object is built,
so a field of the wrong type, a NaN or infinity, or a value out of range
is a ScenarioError naming the field.  What relates two fields (the gap
condition, lo < hi, stop <= start and at most MAX_DEPTHS depths,
j <= fiber.n/10, the kms window and the endpoint alpha < beta, polygon
simplicity and containment) is checked as the objects are built, so
downstream code never sees a half-formed scenario.  The one exception is
a gap depth: 0 < lambda < 2b - (W_+ - W_-) is checked by the commands
that count at a depth, so a narrow-gap config still runs the others.

The document `validate` returns, every default filled in and the CLI
overrides merged, is the scenario record: `Scenario.doc`.  The typed
fields are built from it alone, the verify checks read their parameters
from it, `scenario.json` is it and `source_hash` hashes it, so the hash
covers exactly what ran and no spelling of a number moves it.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass

from .errors import EdgegapError, ScenarioError
from .fiber import FiberDiscretization
from .geometry import PolygonDomain
from .operators import QuadratureSpec
from .potentials import EdgePotential, Perturbation, gap_condition

_POTENTIAL_KEYS = {
    "step": ("w_minus", "w_plus", "x0"),
    "two_step_upper": ("w_minus", "w_plus", "delta"),
    "piecewise_constant": ("breakpoints", "values"),
    "smooth_monotone": ("w_minus", "w_plus", "center", "width"),
}

_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
# a list a verdict runs over: an empty one would pass it on no data
_SAMPLES = {**_NUMBERS, "minItems": 1}
_POSITIVE = {"exclusiveMinimum": 0}
_POSITIVE_NUMBER = {**_NUMBER, **_POSITIVE}
_TOL = {"minimum": 0}
_OPEN_UNIT = {"exclusiveMinimum": 0, "exclusiveMaximum": 1}
_OPEN_HALF = {"exclusiveMinimum": 0, "exclusiveMaximum": 0.5}
_POLYGON = {"type": "array", "minItems": 3,
            "items": {**_NUMBERS, "minItems": 2, "maxItems": 2}}


def _num(default, **more):
    return {"type": "number", "default": default, **more}


def _int(default, **more):
    return {"type": "integer", "default": default, **more}


def _object(properties, **more):
    """Schema of an object that admits only the listed keys."""
    return {"type": "object", "additionalProperties": False,
            "properties": properties, **more}


# Verdict tolerances are config-owned; validate fills each check's
# defaults in under whatever the config's "verify" block provides.
_VERIFY = {
    "p21": {"k_lo": _num(-10.0), "k_hi": _num(10.0),
            "points": _int(401, minimum=2),
            "monotone_tol": _num(1e-9, **_TOL), "edge_tol": _num(1e-3, **_TOL)},
    "tep2": {"k_list": {**_SAMPLES, "default": [4.0, 5.0, 6.0]},
             "tol": _num(0.05, **_TOL), "j2_k": _num(6.0),
             "j2_tol": _num(0.10, **_TOL)},
    "teth1": {"k_near": _num(4.0), "k_far": _num(6.0),
              "far_max": _num(0.2, **_TOL)},
    "lau25": {"k_ratio": _num(5.0, **_POSITIVE), "ratio_tol": _num(0.05, **_TOL),
              "erfc_k": {**_SAMPLES, "default": [0.5, 1.0, 2.0, 3.0]},
              "erfc_tol": _num(1e-8, **_TOL)},
    "kms": {"window": {**_NUMBERS, "minItems": 2, "maxItems": 2,
                       "default": [0.25, 2.25]},
            "m_trace": _num(160, **_POSITIVE), "m_count": _num(300, **_POSITIVE),
            "trace_tol": _num(1e-10, **_TOL), "l2_tol": _num(0.02, **_TOL),
            "l3_tol": _num(0.03, **_TOL), "s": _num(0.5, **_POSITIVE),
            "count_tol": _num(0.05, **_TOL)},
    "sandwich": {"lam": _num(1e-4, **_OPEN_UNIT),
                 "eps": _num(0.3, **_OPEN_UNIT), "r": _num(1.0, **_POSITIVE),
                 "slack": _int(3, minimum=0)},
    "weylkyfan": {"trials": _int(1000, minimum=0), "dim": _int(8, minimum=1),
                  "seed": _int(20260822, minimum=0)},
    "effective": {"eps": _num(0.3, **_OPEN_UNIT), "spread_tol": _num(1, **_TOL)},
    "bs": {"j_sum": _int(6, minimum=1),
           "route_r": {**_SAMPLES, "items": _POSITIVE_NUMBER,
                       "default": [0.5, 1.0, 2.0]},
           "cross_eps": _num(0.3, **_OPEN_UNIT),
           "cross_slack": _int(2, minimum=0)},
    "scaling": {"r": _num(1.0, **_POSITIVE), "delta": _num(0.1, **_OPEN_HALF),
                "slope_lo": _num(0.35), "slope_hi": _num(0.65),
                "flat_tol": _num(0.2, **_TOL),
                "min_lnln_spread": _num(0.8, **_TOL),
                "endpoint": _object({
                    "m": _POSITIVE_NUMBER, "alpha": _POSITIVE_NUMBER,
                    "beta": _POSITIVE_NUMBER, "half_height": _POSITIVE_NUMBER,
                    "delta": {**_NUMBER, **_OPEN_HALF},
                    "tol": {**_NUMBER, **_TOL}},
                    required=["m", "alpha", "beta", "half_height", "delta",
                              "tol"],
                    description="inscribed-rectangle density check")},
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "edgegap scenario",
    **_object({
        "b": _num(1.0, **_POSITIVE, description="magnetic field strength"),
        "edge_potential": _object({
            "type": {"enum": list(_POTENTIAL_KEYS)},
            "w_minus": _NUMBER, "w_plus": _NUMBER, "x0": _NUMBER,
            "delta": _NUMBER, "center": _NUMBER,
            "width": _POSITIVE_NUMBER,
            "breakpoints": _NUMBERS, "values": _NUMBERS,
        }, type=["object", "null"], required=["type"],
            description="monotone edge profile W; null for the free case"),
        "perturbation": _object({
            "type": {"enum": ["polygon_indicator"]},
            "vertices": _POLYGON,
            "amplitude": _num(1.0, **_POSITIVE),
            "omega_minus": {**_POLYGON, "type": ["array", "null"],
                            "description": "inner sandwich polygon"},
            "omega_plus": {**_POLYGON, "type": ["array", "null"],
                           "description": "outer sandwich polygon"},
            "c0_minus": {"type": ["number", "null"], **_POSITIVE},
            "c0_plus": {"type": ["number", "null"], **_POSITIVE},
        }, type=["object", "null"], required=["type", "vertices"],
            description="compact electric perturbation V"),
        "quadrature": _object({
            "k_panels": _int(8, minimum=1), "k_nodes": _int(16, minimum=1),
            "x_nodes": _int(20, minimum=1), "x_rate": _num(40.0, **_POSITIVE),
            "y_order": _int(0, minimum=0),
        }, default={}),
        "fiber": _object({
            "n": _int(2001, description="grid points; at least 200"),
            "half_width": {"type": ["number", "null"], **_POSITIVE,
                           "default": None,
                           "description": "at least 8/sqrt(b); null for "
                                          "12/sqrt(b)"},
        }, default={}),
        "j": _int(1, minimum=1, description="band index, at most fiber.n/10"),
        "a_momentum": _num(0.0, minimum=0,
                           description="momentum cutoff A of the "
                                       "truncated kernels"),
        "envelope_delta": _num(0.1, **_OPEN_HALF),
        "precision_bits": _int(512, minimum=64,
                               description="accepted for compatibility; no "
                                           "effect, since every count runs "
                                           "in double precision"),
        "k_grid": _object({"lo": _num(-10.0), "hi": _num(10.0),
                           "points": _int(401, minimum=2)}, default={}),
        "lambda_grid": _object({
            "start": _num(1e-3, **_POSITIVE), "stop": _num(1e-8, **_POSITIVE),
            "ratio": _num(10.0, exclusiveMinimum=1),
        }, default={}, description="geometric grid of gap depths"),
        "m_grid": {**_SAMPLES, "items": _POSITIVE_NUMBER,
                   "default": [50, 100, 200, 300]},
        "out_dir": {"type": "string", "default": "out"},
        "normalize_x_plus": {"type": "boolean", "default": False,
                             "description": "persist a copy moved so x_+ "
                                            "sits at x = 0 and a_momentum "
                                            "at a - b x_+ >= 0"},
        "_normalized_shift": {**_NUMBER, "description": "shift a normalized "
                                                        "mirror was moved by"},
        "verify": _object({name: _object(props, default={})
                           for name, props in _VERIFY.items()},
                          default={}, description="per-check parameter and "
                                                  "tolerance overrides"),
    }),
}

_NOUNS = {"object": "an object", "array": "an array", "string": "a string",
          "boolean": "a boolean", "null": "null", "integer": "an integer",
          "number": "a finite number"}
_PYTYPES = {"object": dict, "array": (list, tuple), "string": str,
            "boolean": bool, "null": type(None), "integer": int}
_BOUNDS = (("minimum", operator.lt, "at least"),
           ("exclusiveMinimum", operator.le, "greater than"),
           ("maximum", operator.gt, "at most"),
           ("exclusiveMaximum", operator.ge, "less than"))


def _is(value, kind: str) -> bool:
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "number":
        return isinstance(value, int) or (isinstance(value, float)
                                          and math.isfinite(value))
    return isinstance(value, _PYTYPES[kind])


def validate(value, schema: dict = SCHEMA, path: str = "config"):
    """value checked against schema, with every absent property that has a
    default filled in (nested blocks included).

    Walks the subset of JSON Schema that SCHEMA uses: type, enum, the four
    bounds, items/minItems/maxItems and properties/required/
    additionalProperties.  Stricter than JSON Schema in two ways: a number
    must be finite, and an integer must be written as one (2, not 2.0).
    A number leaf comes back as a float, however it was written.  Raises
    ScenarioError naming the dotted path of the offending field.
    """
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_is(value, kind) for kind in kinds):
        raise ScenarioError(f"{path} must be "
                            f"{' or '.join(_NOUNS[k] for k in kinds)}, "
                            f"got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ScenarioError(f"{path} must be one of {schema['enum']}, "
                            f"got {value!r}")
    if _is(value, "number"):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                raise ScenarioError(f"{path} must be {words} {schema[key]}, "
                                    f"got {value!r}")
    if isinstance(value, (list, tuple)):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            raise ScenarioError(f"{path} must have {lo} to {hi} entries, "
                                f"got {len(value)}")
        return [validate(item, schema.get("items", {}), f"{path}[{i}]")
                for i, item in enumerate(value)]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ScenarioError(f"{path}.{key} is required")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    raise ScenarioError(f"{path}.{key} is not a known field")
        filled = {key: sub["default"] for key, sub in props.items()
                  if "default" in sub}
        filled.update(value)
        return {key: validate(item, props.get(key, {}), f"{path}.{key}")
                for key, item in filled.items()}
    if "number" in kinds and isinstance(value, int) and not isinstance(value, bool):
        # one spelling per value: 10 and 10.0 run and hash alike
        return float(value)
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform momentum grid for band sweeps."""

    lo: float = -10.0
    hi: float = 10.0
    points: int = 401

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ScenarioError("k grid needs lo < hi")

    def values(self):
        import numpy as np
        return np.linspace(self.lo, self.hi, self.points)


# most depths a lambda grid may hold: every depth is one full count of
# effective-count and bs-count, and the shipped grids hold at most 10
MAX_DEPTHS = 1000


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric grid of gap depths, start down to stop by 1/ratio."""

    start: float = 1e-3
    stop: float = 1e-8
    ratio: float = 10.0

    def __post_init__(self):
        if not self.stop <= self.start:
            raise ScenarioError("lambda grid needs stop <= start")
        # the length of values(), in closed form so no loop runs first
        depths = math.floor((math.log(self.start) - math.log(self.stop))
                            / math.log(self.ratio) + 0.5) + 1
        if depths > MAX_DEPTHS:
            raise ScenarioError(
                f"lambda grid holds {depths} depths, above {MAX_DEPTHS}: each "
                "is a full count; raise lambda_grid.ratio or narrow "
                "start/stop")

    def values(self):
        out, lam = [], self.start
        # half-step slop so stop itself survives rounding
        while lam >= self.stop / math.sqrt(self.ratio):
            out.append(lam)
            lam /= self.ratio
        return out


@dataclass
class Scenario:
    """One validated experiment description.

    doc is the validated document, with SCHEMA's defaults filled in; every
    other field is built from it.  fiber is the one fiber window
    FiberDiscretization(b, w, **doc["fiber"]) that every band, edge and
    resolvent computation of the scenario solves on.
    """

    b: float
    w: EdgePotential
    v: Perturbation
    quad: QuadratureSpec
    fiber: FiberDiscretization
    j: int
    a_momentum: float
    envelope_delta: float
    # loadable for old configs; every count runs in double precision
    precision_bits: int
    k_grid: GridSpec
    lam_grid: LambdaGrid
    m_grid: tuple
    out_dir: str
    normalize_x_plus: bool
    doc: dict

    def verify_params(self, name: str) -> dict:
        return self.doc["verify"][name]

    @property
    def source_hash(self) -> str:
        """SHA-256 of the scenario as it runs, CLI overrides included."""
        canonical = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _build_potential(spec) -> EdgePotential:
    if spec is None:
        return None
    kind = spec["type"]
    extra = set(spec) - set(_POTENTIAL_KEYS[kind]) - {"type"}
    if extra:
        raise ScenarioError(f"edge_potential has unknown keys {sorted(extra)}")
    try:
        return EdgePotential(kind=kind, **{key: spec[key] for key in
                                           _POTENTIAL_KEYS[kind] if key in spec})
    except (EdgegapError, ValueError) as exc:
        raise ScenarioError(f"invalid edge_potential: {exc}") from exc


def _polygon(vertices, label: str) -> PolygonDomain:
    if vertices is None:
        return None
    try:
        return PolygonDomain(vertices)
    except ValueError as exc:
        raise ScenarioError(f"invalid {label} polygon: {exc}") from exc


def _build_perturbation(spec) -> Perturbation:
    if spec is None:
        return None
    polygons = {key: _polygon(spec.get(key), key)
                for key in ("omega_minus", "omega_plus")}
    try:
        return Perturbation(support=_polygon(spec["vertices"], "support"),
                            amplitude=spec["amplitude"],
                            c0_minus=spec.get("c0_minus"),
                            c0_plus=spec.get("c0_plus"), **polygons)
    except ValueError as exc:
        raise ScenarioError(f"invalid perturbation: {exc}") from exc


def scenario_from_dict(doc: dict, **overrides) -> Scenario:
    """The scenario a config document describes.  overrides (the CLI's
    --j and --precision-bits) are merged into the validated document and
    validated again, so the hash covers them like any other field."""
    fields = validate(doc)
    if overrides:
        fields = validate({**fields, **overrides})
    b = fields["b"]
    w = _build_potential(fields.get("edge_potential"))
    if w is not None and not gap_condition(w, b):
        raise ScenarioError(
            f"gap condition fails: W_+ - W_- = "
            f"{w.w_plus_limit - w.w_minus_limit} >= 2b = {2 * b}")
    v = _build_perturbation(fields.get("perturbation"))

    try:
        fiber = FiberDiscretization(b=b, w=w, **fields["fiber"])
    except ValueError as exc:
        raise ScenarioError(f"invalid fiber block: {exc}") from exc
    j = fields["j"]
    if j > fiber.max_levels:
        raise ScenarioError(f"band index j must lie in [1, {fiber.max_levels}] "
                            f"for fiber.n = {fiber.n}, got {j}")

    m_grid = tuple(fields["m_grid"])
    if any(m2 <= m1 for m1, m2 in zip(m_grid, m_grid[1:])):
        raise ScenarioError("m_grid must be strictly increasing")
    verify = fields["verify"]
    lo, hi = verify["kms"]["window"]
    if not lo < hi:
        raise ScenarioError(f"config.verify.kms.window must have lo < hi, "
                            f"got {[lo, hi]}")
    endpoint = verify["scaling"].get("endpoint")
    if endpoint is not None and not endpoint["alpha"] < endpoint["beta"]:
        raise ScenarioError(
            "config.verify.scaling.endpoint must have alpha < beta, got "
            f"alpha={endpoint['alpha']}, beta={endpoint['beta']}")

    return Scenario(b=b, w=w, v=v, quad=QuadratureSpec(**fields["quadrature"]),
                    fiber=fiber, j=j, a_momentum=fields["a_momentum"],
                    envelope_delta=fields["envelope_delta"],
                    precision_bits=fields["precision_bits"],
                    k_grid=GridSpec(**fields["k_grid"]),
                    lam_grid=LambdaGrid(**fields["lambda_grid"]),
                    m_grid=m_grid, out_dir=fields["out_dir"],
                    normalize_x_plus=fields["normalize_x_plus"], doc=fields)


def load_scenario(path: str, **overrides) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, **overrides)


def normalized_scenario(sc: Scenario) -> Scenario:
    """Copy with the coordinate origin moved to x_+ (the saturation onset).

    The magnetic translation that realizes the shift moves the perturbation
    by the same amount in x and the momentum cutoff a_momentum to
    a - b x_+, and leaves every count invariant, so the copy is spectrally
    equivalent to the original.  A cutoff that would fall below 0 raises
    ScenarioError.  The shifted document is validated and built like any
    config; a step or two-step profile becomes a step at x0 = 0.
    """
    if sc.w is None:
        return sc
    shift = sc.w.x_plus
    if not math.isfinite(shift):
        raise ScenarioError(
            "cannot normalize: the profile never attains its supremum")
    if shift == 0.0:
        return sc
    a = sc.a_momentum - sc.b * shift
    if a < 0.0:
        raise ScenarioError(
            f"cannot normalize: the shift x_+ = {shift} moves a_momentum "
            f"to a - b x_+ = {a} < 0")
    doc = {**sc.doc, "_normalized_shift": shift, "a_momentum": a}
    if sc.w.kind in ("step", "two_step_upper"):
        doc["edge_potential"] = {"type": "step", "w_minus": sc.w.w_minus,
                                 "w_plus": sc.w.w_plus, "x0": 0.0}
    else:
        doc["edge_potential"] = {**doc["edge_potential"], "breakpoints": [
            bp - shift for bp in sc.w.breakpoints]}
    spec = doc.get("perturbation")
    if spec is not None:
        doc["perturbation"] = {**spec, **{
            key: [[x - shift, y] for x, y in spec[key]]
            for key in ("vertices", "omega_minus", "omega_plus")
            if spec.get(key) is not None}}
    return scenario_from_dict(doc)


def schema_json() -> str:
    return json.dumps(SCHEMA, indent=2)
