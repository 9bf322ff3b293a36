"""JSON-driven experiment descriptions.

A scenario bundles the field strength, the edge profile, the perturbation,
the discretization budgets and the sweep grids behind one validated object;
the command-line front end consumes nothing else.  Configs are single JSON
documents whose schema is emitted by `schema_json`; every load re-validates
the gap condition, polygon simplicity and grid sanity, so downstream code
never sees a half-formed scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

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

# Verdict tolerances are config-owned; these are the documented defaults
# merged under whatever the config's "verify" block provides.
VERIFY_DEFAULTS = {
    "p21": {"k_lo": -10.0, "k_hi": 10.0, "points": 401,
            "monotone_tol": 1e-9, "edge_tol": 1e-3},
    "tep2": {"k_list": [4.0, 5.0, 6.0], "tol": 0.05,
             "j2_k": 6.0, "j2_tol": 0.10},
    "teth1": {"k_near": 4.0, "k_far": 6.0, "far_max": 0.2},
    "lau25": {"k_ratio": 5.0, "ratio_tol": 0.05,
              "erfc_k": [0.5, 1.0, 2.0, 3.0], "erfc_tol": 1e-8},
    "kms": {"window": [0.25, 2.25], "m_trace": 160, "m_count": 300,
            "trace_tol": 1e-10, "l2_tol": 0.02, "l3_tol": 0.03,
            "s": 0.5, "count_tol": 0.05},
    "sandwich": {"lam": 1e-4, "eps": 0.3, "r": 1.0, "slack": 3},
    "weylkyfan": {"trials": 1000, "dim": 8, "seed": 20260822},
    "effective": {"eps": 0.3, "spread_tol": 1},
    "bs": {"j_sum": 6, "route_r": [0.5, 1.0, 2.0], "cross_eps": 0.3,
           "cross_slack": 2},
    "scaling": {"r": 1.0, "delta": 0.1, "slope_lo": 0.35, "slope_hi": 0.65,
                "flat_tol": 0.2, "min_lnln_spread": 0.8},
}


@dataclass(frozen=True)
class GridSpec:
    """Uniform momentum grid for band sweeps."""

    lo: float = -10.0
    hi: float = 10.0
    points: int = 401

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ScenarioError("k grid needs lo < hi")
        if self.points < 2:
            raise ScenarioError("k grid needs at least 2 points")

    def values(self):
        import numpy as np
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric grid of gap depths, start down to stop by 1/ratio."""

    start: float = 1e-3
    stop: float = 1e-8
    ratio: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.stop <= self.start:
            raise ScenarioError("lambda grid needs 0 < stop <= start")
        if self.ratio <= 1.0:
            raise ScenarioError("lambda grid ratio must exceed 1")

    def values(self):
        out, lam = [], self.start
        # half-step slop so stop itself survives rounding
        while lam >= self.stop / math.sqrt(self.ratio):
            out.append(lam)
            lam /= self.ratio
        return out


@dataclass
class Scenario:
    """One validated experiment description."""

    b: float = 1.0
    w: EdgePotential = None
    v: Perturbation = None
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    fiber_n: int = 2001
    fiber_half_width: float = None
    j: int = 1
    a_momentum: float = 0.0
    envelope_delta: float = 0.1
    # loadable for old configs; every count runs in double precision
    precision_bits: int = 512
    k_grid: GridSpec = field(default_factory=GridSpec)
    lam_grid: LambdaGrid = field(default_factory=LambdaGrid)
    m_grid: tuple = (50, 100, 200, 300)
    out_dir: str = "out"
    normalize_x_plus: bool = False
    verify: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def verify_params(self, name: str) -> dict:
        merged = dict(VERIFY_DEFAULTS.get(name, {}))
        merged.update(self.verify.get(name, {}))
        return merged

    @property
    def source_hash(self) -> str:
        """SHA-256 of the scenario as it runs, CLI overrides included."""
        canonical = json.dumps(scenario_to_dict(self), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _build_potential(spec) -> EdgePotential:
    if spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScenarioError("edge_potential must be an object with a 'type'")
    kind = spec["type"]
    if kind not in _POTENTIAL_KEYS:
        raise ScenarioError(f"unknown edge_potential type {kind!r}")
    kwargs = {key: spec[key] for key in _POTENTIAL_KEYS[kind] if key in spec}
    extra = set(spec) - set(_POTENTIAL_KEYS[kind]) - {"type"}
    if extra:
        raise ScenarioError(f"edge_potential has unknown keys {sorted(extra)}")
    if kind == "piecewise_constant":
        kwargs["breakpoints"] = tuple(kwargs.get("breakpoints", ()))
        kwargs["values"] = tuple(kwargs.get("values", ()))
    try:
        return EdgePotential(kind=kind, **kwargs)
    except (EdgegapError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid edge_potential: {exc}") from exc


def _polygon(vertices, label: str) -> PolygonDomain:
    try:
        return PolygonDomain([(float(x), float(y)) for x, y in vertices])
    except (EdgegapError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid {label} polygon: {exc}") from exc


def _build_perturbation(spec) -> Perturbation:
    if spec is None:
        return None
    if not isinstance(spec, dict) or spec.get("type") != "polygon_indicator":
        raise ScenarioError("perturbation must have type 'polygon_indicator'")
    if "vertices" not in spec:
        raise ScenarioError("perturbation needs a 'vertices' list")
    kwargs = {
        "support": _polygon(spec["vertices"], "support"),
        "amplitude": float(spec.get("amplitude", 1.0)),
    }
    for key in ("omega_minus", "omega_plus"):
        if spec.get(key) is not None:
            kwargs[key] = _polygon(spec[key], key)
    for key in ("c0_minus", "c0_plus"):
        if spec.get(key) is not None:
            kwargs[key] = float(spec[key])
    try:
        return Perturbation(**kwargs)
    except (EdgegapError, ValueError) as exc:
        raise ScenarioError(f"invalid perturbation: {exc}") from exc


def band_index(j: int, disc: FiberDiscretization) -> int:
    """j, once checked to be a band the fiber grid resolves: 1 <= j <= n/10."""
    if not 1 <= j <= disc.max_levels:
        raise ScenarioError(f"band index j must lie in [1, {disc.max_levels}] "
                            f"for fiber.n = {disc.n}, got {j}")
    return j


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a JSON object")
    known = {"b", "edge_potential", "perturbation", "quadrature", "fiber",
             "j", "a_momentum", "envelope_delta", "precision_bits",
             "k_grid", "lambda_grid", "m_grid", "out_dir",
             "normalize_x_plus", "verify", "_normalized_shift"}
    extra = set(doc) - known
    if extra:
        raise ScenarioError(f"unknown config keys {sorted(extra)}")

    b = float(doc.get("b", 1.0))
    if not (math.isfinite(b) and b > 0):
        raise ScenarioError("field strength b must be positive and finite")
    w = _build_potential(doc.get("edge_potential"))
    if w is not None and not gap_condition(w, b):
        raise ScenarioError(
            f"gap condition fails: W_+ - W_- = "
            f"{w.w_plus_limit - w.w_minus_limit} >= 2b = {2 * b}")
    v = _build_perturbation(doc.get("perturbation"))

    quad_doc = doc.get("quadrature", {})
    try:
        quad = QuadratureSpec(**quad_doc)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid quadrature block: {exc}") from exc

    fiber_doc = doc.get("fiber", {})
    fiber_n = int(fiber_doc.get("n", 2001))
    half_width = fiber_doc.get("half_width")
    if half_width is not None:
        half_width = float(half_width)
    try:
        # the same check FiberDiscretization makes later, as a config error
        disc = FiberDiscretization(b=b, w=w, n=fiber_n, half_width=half_width)
    except ValueError as exc:
        raise ScenarioError(f"invalid fiber block: {exc}") from exc

    j = band_index(int(doc.get("j", 1)), disc)
    envelope_delta = float(doc.get("envelope_delta", 0.1))
    if not 0.0 < envelope_delta < 0.5:
        raise ScenarioError("envelope_delta must lie in (0, 1/2)")
    precision_bits = int(doc.get("precision_bits", 512))
    if precision_bits < 64:
        raise ScenarioError("precision_bits must be at least 64")

    k_doc = doc.get("k_grid", {})
    k_grid = GridSpec(**{key: k_doc[key] for key in ("lo", "hi", "points")
                         if key in k_doc})
    lam_doc = doc.get("lambda_grid", {})
    lam_grid = LambdaGrid(**{key: float(lam_doc[key])
                             for key in ("start", "stop", "ratio")
                             if key in lam_doc})
    m_grid = tuple(float(m) for m in doc.get("m_grid", (50, 100, 200, 300)))
    if any(m <= 0 for m in m_grid):
        raise ScenarioError("m_grid entries must be positive")
    if any(m2 <= m1 for m1, m2 in zip(m_grid, m_grid[1:])):
        raise ScenarioError("m_grid must be strictly increasing")

    verify = doc.get("verify", {})
    if not isinstance(verify, dict):
        raise ScenarioError("verify block must be an object")
    unknown_checks = set(verify) - set(VERIFY_DEFAULTS)
    if unknown_checks:
        raise ScenarioError(f"unknown verify blocks {sorted(unknown_checks)}")

    return Scenario(b=b, w=w, v=v, quad=quad, fiber_n=fiber_n,
                    fiber_half_width=half_width, j=j,
                    a_momentum=float(doc.get("a_momentum", 0.0)),
                    envelope_delta=envelope_delta,
                    precision_bits=precision_bits,
                    k_grid=k_grid, lam_grid=lam_grid, m_grid=m_grid,
                    out_dir=str(doc.get("out_dir", "out")),
                    normalize_x_plus=bool(doc.get("normalize_x_plus", False)),
                    verify=verify, raw=doc)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def normalized_scenario(sc: Scenario) -> Scenario:
    """Copy with the coordinate origin moved to x_+ (the saturation onset).

    The magnetic translation that realizes the shift moves the perturbation
    by the same amount in x and leaves every count invariant, so the copy
    is spectrally equivalent to the original.
    """
    if sc.w is None:
        return sc
    shift = sc.w.x_plus
    if not math.isfinite(shift):
        raise ScenarioError(
            "cannot normalize: the profile never attains its supremum")
    if shift == 0.0:
        return sc
    if sc.w.kind in ("step", "two_step_upper"):
        w_new = EdgePotential(kind="step", w_minus=sc.w.w_minus,
                              w_plus=sc.w.w_plus, x0=0.0)
    else:
        w_new = EdgePotential(
            kind="piecewise_constant",
            breakpoints=tuple(bp - shift for bp in sc.w.breakpoints),
            values=sc.w.values)
    v_new = sc.v
    if sc.v is not None:
        def moved(poly):
            if poly is None:
                return None
            return PolygonDomain([(x - shift, y) for x, y in poly.vertices])
        v_new = Perturbation(support=moved(sc.v.support),
                             amplitude=sc.v.amplitude,
                             omega_minus=moved(sc.v.omega_minus),
                             omega_plus=moved(sc.v.omega_plus),
                             c0_minus=sc.v.c0_minus, c0_plus=sc.v.c0_plus)
    raw_new = dict(sc.raw)
    raw_new["_normalized_shift"] = shift
    return replace(sc, w=w_new, v=v_new, raw=raw_new)


def scenario_to_dict(sc: Scenario) -> dict:
    """JSON-ready mirror of the loaded (possibly normalized) scenario."""
    doc = {"b": sc.b, "j": sc.j, "a_momentum": sc.a_momentum,
           "envelope_delta": sc.envelope_delta,
           "precision_bits": sc.precision_bits,
           "out_dir": sc.out_dir,
           "normalize_x_plus": sc.normalize_x_plus,
           "fiber": {"n": sc.fiber_n, "half_width": sc.fiber_half_width},
           "quadrature": {"k_panels": sc.quad.k_panels,
                          "k_nodes": sc.quad.k_nodes,
                          "x_nodes": sc.quad.x_nodes,
                          "x_rate": sc.quad.x_rate,
                          "y_order": sc.quad.y_order},
           "k_grid": {"lo": sc.k_grid.lo, "hi": sc.k_grid.hi,
                      "points": sc.k_grid.points},
           "lambda_grid": {"start": sc.lam_grid.start,
                           "stop": sc.lam_grid.stop,
                           "ratio": sc.lam_grid.ratio},
           "m_grid": list(sc.m_grid),
           "verify": sc.verify}
    if sc.w is None:
        doc["edge_potential"] = None
    else:
        spec = {"type": sc.w.kind}
        for key in _POTENTIAL_KEYS[sc.w.kind]:
            value = getattr(sc.w, key)
            spec[key] = list(value) if isinstance(value, tuple) else value
        doc["edge_potential"] = spec
    if sc.v is None:
        doc["perturbation"] = None
    else:
        spec = {"type": "polygon_indicator",
                "vertices": [list(p) for p in sc.v.support.vertices],
                "amplitude": sc.v.amplitude}
        if sc.v.omega_minus is not None:
            spec["omega_minus"] = [list(p) for p in sc.v.omega_minus.vertices]
        if sc.v.omega_plus is not None:
            spec["omega_plus"] = [list(p) for p in sc.v.omega_plus.vertices]
        if sc.v.c0_minus is not None:
            spec["c0_minus"] = sc.v.c0_minus
        if sc.v.c0_plus is not None:
            spec["c0_plus"] = sc.v.c0_plus
        doc["perturbation"] = spec
    if "_normalized_shift" in sc.raw:
        doc["_normalized_shift"] = sc.raw["_normalized_shift"]
    return doc


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "edgegap scenario",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "b": {"type": "number", "exclusiveMinimum": 0, "default": 1.0,
              "description": "magnetic field strength"},
        "edge_potential": {
            "type": ["object", "null"],
            "description": "monotone edge profile W; null for the free case",
            "properties": {
                "type": {"enum": list(_POTENTIAL_KEYS)},
                "w_minus": {"type": "number"},
                "w_plus": {"type": "number"},
                "x0": {"type": "number"},
                "delta": {"type": "number"},
                "center": {"type": "number"},
                "width": {"type": "number"},
                "breakpoints": {"type": "array", "items": {"type": "number"}},
                "values": {"type": "array", "items": {"type": "number"}},
            },
            "required": ["type"],
        },
        "perturbation": {
            "type": ["object", "null"],
            "description": "compact electric perturbation V",
            "properties": {
                "type": {"const": "polygon_indicator"},
                "vertices": {"type": "array", "items": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number"}}},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "omega_minus": {"type": "array",
                                "description": "inner sandwich polygon"},
                "omega_plus": {"type": "array",
                               "description": "outer sandwich polygon"},
                "c0_minus": {"type": "number"},
                "c0_plus": {"type": "number"},
            },
            "required": ["type", "vertices"],
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "k_panels": {"type": "integer", "default": 8},
                "k_nodes": {"type": "integer", "default": 16},
                "x_nodes": {"type": "integer", "default": 20},
                "x_rate": {"type": "number", "default": 40.0},
                "y_order": {"type": "integer", "default": 0},
            },
        },
        "fiber": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "default": 2001},
                "half_width": {"type": ["number", "null"], "default": None},
            },
        },
        "j": {"type": "integer", "minimum": 1, "default": 1},
        "a_momentum": {"type": "number", "default": 0.0,
                       "description": "momentum cutoff A of the truncated kernels"},
        "envelope_delta": {"type": "number", "exclusiveMinimum": 0,
                           "exclusiveMaximum": 0.5, "default": 0.1},
        "precision_bits": {"type": "integer", "minimum": 64, "default": 512,
                           "description": "accepted for compatibility; no "
                                          "effect, since every count runs "
                                          "in double precision"},
        "k_grid": {
            "type": "object",
            "properties": {"lo": {"type": "number", "default": -10.0},
                           "hi": {"type": "number", "default": 10.0},
                           "points": {"type": "integer", "default": 401}},
        },
        "lambda_grid": {
            "type": "object",
            "description": "geometric grid of gap depths",
            "properties": {"start": {"type": "number", "default": 1e-3},
                           "stop": {"type": "number", "default": 1e-8},
                           "ratio": {"type": "number", "default": 10.0}},
        },
        "m_grid": {"type": "array", "items": {"type": "number"},
                   "default": [50, 100, 200, 300]},
        "out_dir": {"type": "string", "default": "out"},
        "normalize_x_plus": {"type": "boolean", "default": False,
                             "description": "persist a copy shifted so the "
                                            "saturation onset sits at x = 0"},
        "verify": {
            "type": "object",
            "description": "per-check parameter and tolerance overrides; "
                           "defaults as documented",
            "properties": {name: {"type": "object", "default": defaults}
                           for name, defaults in VERIFY_DEFAULTS.items()},
        },
    },
}


def schema_json() -> str:
    return json.dumps(SCHEMA, indent=2)
