"""Scenario-driven command-line front end.

Loads a JSON scenario, runs one subcommand, writes CSV artifacts plus a
summary.json with pass/fail verdicts, and exits 0 (success), 2 (invalid
config or unwritable output directory), 3 (convergence failure) or 4 (a
verdict failed).
Outputs are byte-deterministic for a fixed config: fixed-order loops, no
wall clock, and the only randomness is the seeded property check.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .bsham import bs_count, effective_count, full_line_gram
from .counting import count_above, n_star
from .errors import ConvergenceFailure, EdgegapError, ScenarioError
from .fiber import (FiberDiscretization, band_table, edge_comparison,
                    gap_edges, phi_squared, step_tail_asymptote,
                    verify_lau25, verify_tep2, verify_teth1)
from .geometry import (asymptotic_constants, c_minus, c_plus,
                       clip_positive_halfplane, optimal_disk)
from .modelops import (IntervalSpec, endpoint_bracket, epsilon_bounds,
                       g_sinc, gamma_diag_count, gamma_gram,
                       inscribed_rectangle_count, kms_trace_ratio,
                       sandwich_check, sinc_rule)
from .potentials import finiteness_predicate
from .scenario import (Scenario, load_scenario, normalized_scenario,
                       scenario_to_dict, schema_json)

_NAN = float("nan")
_MODELOPS_HEADER = ("m", "operator", "threshold", "count", "ratio", "target",
                    "precision_bits", "warnings")
_COUNTS_HEADER = ("lambda", "j", "route", "threshold", "count", "warnings",
                  "precision_bits")


def _verdict(name: str, ok: bool, value, target, tol) -> dict:
    # a verdict cannot pass on a value, target or tol that is not finite
    value, target, tol = float(value), float(target), float(tol)
    finite = all(math.isfinite(x) for x in (value, target, tol))
    return {"name": name, "pass": bool(ok) and finite, "value": value,
            "target": target, "tol": tol}


def _write_csv(out: Path, name: str, header, rows):
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(out: Path, subcommand: str, sc: Scenario, verdicts):
    doc = {"subcommand": subcommand, "scenario": sc.source_hash,
           "verdicts": verdicts}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class _WarningBox:
    """Capture warnings for CSV rows, echoing them to stderr."""

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._box = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._ctx.__exit__(*exc)
        for item in self._box:
            print(f"warning: {item.message}", file=sys.stderr)
        return False

    @property
    def text(self) -> str:
        return "; ".join(str(item.message) for item in self._box)


def _need(sc: Scenario, w: bool = False, v: bool = False):
    if w and sc.w is None:
        raise ScenarioError("this subcommand needs an edge_potential")
    if v and sc.v is None:
        raise ScenarioError("this subcommand needs a perturbation")


def _disc(sc: Scenario) -> FiberDiscretization:
    return FiberDiscretization(b=sc.b, w=sc.w, n=sc.fiber_n,
                               half_width=sc.fiber_half_width)


def _phi_asymptote(j: int, k: float, sc: Scenario) -> float:
    if sc.w.kind != "step" or k <= 0:
        return _NAN
    return step_tail_asymptote(j, k, sc.b, sc.w)


# ---------------------------------------------------------------- subcommands


def cmd_bands(sc: Scenario, out: Path):
    table = band_table(_disc(sc), sc.k_grid.values(), sc.j)
    rows = [(float(k), j + 1, float(table.energies[j, i]))
            for j in range(sc.j)
            for i, k in enumerate(table.k_grid)]
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    return []


def cmd_gaps(sc: Scenario, out: Path):
    rows, verdicts = [], []
    for j in range(1, sc.j + 1):
        lo, hi = gap_edges(sc.b, sc.w, j)
        rows.append((j, float(lo), float(hi)))
        verdicts.append(_verdict(f"gap_open_j{j}", hi > lo, hi - lo, 2 * sc.b,
                                 2 * sc.b))
    _write_csv(out, "gaps.csv", ("j", "lower", "upper"), rows)
    return verdicts


def cmd_phi(sc: Scenario, out: Path):
    _need(sc, w=True)
    rows = [(float(k), float(phi_squared(sc.j, float(k), sc.b, sc.w)),
             _phi_asymptote(sc.j, float(k), sc))
            for k in sc.k_grid.values()]
    _write_csv(out, "phi.csv", ("k", "phi_squared", "asymptote"), rows)
    return []


def cmd_verify_p21(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("p21")
    k_grid = np.linspace(p["k_lo"], p["k_hi"], p["points"])
    table = band_table(_disc(sc), k_grid, sc.j)
    band = table.energies[sc.j - 1]
    rows = [(float(k), sc.j, float(e)) for k, e in zip(k_grid, band)]
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    drop = float(np.maximum(0.0, -np.diff(band).min()))
    edge_hi = sc.b * (2 * sc.j - 1) + sc.w.w_plus_limit
    edge_lo = sc.b * (2 * sc.j - 1) + sc.w.w_minus_limit
    return [
        _verdict("band_monotone", drop <= p["monotone_tol"], drop, 0.0,
                 p["monotone_tol"]),
        _verdict("left_edge", abs(band[0] - edge_lo) <= p["edge_tol"],
                 band[0], edge_lo, p["edge_tol"]),
        _verdict("right_edge", abs(band[-1] - edge_hi) <= p["edge_tol"],
                 band[-1], edge_hi, p["edge_tol"]),
    ]


def cmd_verify_tep2(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("tep2")
    k_list = [float(k) for k in p["k_list"]]
    disc = _disc(sc)
    ratios = verify_tep2(sc.j, disc, k_list)
    rows = [(k, sc.j, float(edge_comparison(disc, sc.j, k).energy_w))
            for k in k_list]
    verdicts = [_verdict(f"gap_to_phi_k{k:g}", abs(ratio - 1.0) <= p["tol"],
                         ratio, 1.0, p["tol"])
                for k, ratio in zip(k_list, ratios)]
    k2 = float(p["j2_k"])
    ratio2 = verify_tep2(sc.j + 1, disc, [k2])[0]
    rows.append((k2, sc.j + 1,
                 float(edge_comparison(disc, sc.j + 1, k2).energy_w)))
    verdicts.append(_verdict(f"gap_to_phi_j{sc.j + 1}_k{k2:g}",
                             abs(ratio2 - 1.0) <= p["j2_tol"], ratio2, 1.0,
                             p["j2_tol"]))
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    return verdicts


def cmd_verify_teth1(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("teth1")
    k_near, k_far = float(p["k_near"]), float(p["k_far"])
    disc = _disc(sc)
    near, far = verify_teth1(sc.j, disc, [k_near, k_far])
    rows = [(k, sc.j, float(edge_comparison(disc, sc.j, k).energy_w))
            for k in (k_near, k_far)]
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    return [
        _verdict("scaled_distance_small", far <= p["far_max"], far, 0.0,
                 p["far_max"]),
        _verdict("scaled_distance_decreasing", far < near, far, near, 0.0),
    ]


def cmd_verify_lau25(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("lau25")
    k_ratio = float(p["k_ratio"])
    ratio = verify_lau25(sc.j, sc.b, sc.w, [k_ratio])[0]
    rows = [(k_ratio, float(phi_squared(sc.j, k_ratio, sc.b, sc.w)),
             _phi_asymptote(sc.j, k_ratio, sc))]
    # closed step form: Phi_1^2 = (W_+ - W_-) erfc(k/sqrt(b) - sqrt(b) x0)/2
    dev = 0.0
    for k in p["erfc_k"]:
        k = float(k)
        exact = (0.5 * (sc.w.w_plus_limit - sc.w.w_minus_limit)
                 * math.erfc(k / math.sqrt(sc.b) - math.sqrt(sc.b) * sc.w.x0))
        got = phi_squared(1, k, sc.b, sc.w)
        dev = np.maximum(dev, abs(got - exact))
        rows.append((k, float(got), _phi_asymptote(1, k, sc)))
    _write_csv(out, "phi.csv", ("k", "phi_squared", "asymptote"), rows)
    return [
        _verdict("tail_asymptote_ratio", abs(ratio - 1.0) <= p["ratio_tol"],
                 ratio, 1.0, p["ratio_tol"]),
        _verdict("step_closed_form", dev <= p["erfc_tol"], dev, 0.0,
                 p["erfc_tol"]),
    ]


def cmd_verify_kms(sc: Scenario, out: Path):
    p = sc.verify_params("kms")
    lo, hi = (float(x) for x in p["window"])
    iv = IntervalSpec(lo, hi)
    target = iv.length / math.pi
    rows = []
    trace_dev = 0.0
    for m in sc.m_grid:
        op = g_sinc(iv, m)
        tr = float(np.trace(op.kernel.to_dense())) / m
        trace_dev = np.maximum(trace_dev, abs(tr - target) / target)
        rows.append((float(m), "g_sinc_trace", "", op.n, tr, target, 53, ""))
    m_t = float(p["m_trace"])
    r2 = kms_trace_ratio(iv, m_t, 2)
    r3 = kms_trace_ratio(iv, m_t, 3)
    n_t = len(sinc_rule(iv, m_t)[0])
    rows.append((m_t, "g_sinc_pow2", "", n_t, r2, target, 53, ""))
    rows.append((m_t, "g_sinc_pow3", "", n_t, r3, target, 53, ""))
    m_c, s = float(p["m_count"]), float(p["s"])
    with _WarningBox() as box:
        op = g_sinc(iv, m_c)
        report = count_above(op.kernel, s)
    rows.append((m_c, "g_sinc", s, report.count, report.count / m_c, target,
                 report.precision_bits, box.text))
    _write_csv(out, "modelops.csv", _MODELOPS_HEADER, rows)
    return [
        _verdict("trace_exact", trace_dev <= p["trace_tol"], trace_dev, 0.0,
                 p["trace_tol"]),
        _verdict("trace_power2", abs(r2 / target - 1.0) <= p["l2_tol"], r2,
                 target, p["l2_tol"]),
        _verdict("trace_power3", abs(r3 / target - 1.0) <= p["l3_tol"], r3,
                 target, p["l3_tol"]),
        _verdict("count_ratio", abs(report.count / m_c / target - 1.0)
                 <= p["count_tol"], report.count / m_c, target,
                 p["count_tol"]),
    ]


def cmd_verify_sandwich(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("sandwich")
    lam, eps, r = float(p["lam"]), float(p["eps"]), float(p["r"])
    slack = p["slack"]
    with _WarningBox() as box:
        sand = sandwich_check(sc.j, lam, r, eps, sc)
        ends = endpoint_bracket(sc.j, lam, r, eps, sc)
    warn = box.text
    m = ends["m"]
    rows = [
        ("", "q_minus", sand["lower_threshold"], sand["lower"], "", "", 53, warn),
        ("", "s_gram", sand["mid_threshold"], sand["mid"], "", "", 53, ""),
        ("", "q_plus", sand["upper_threshold"], sand["upper"], "", "", 53, ""),
        (m, "gamma_minus", ends["lower_threshold"], ends["lower"], "", "", 53, ""),
        (m, "s_gram", r * r, ends["mid"], "", "", 53, ""),
        (m, "gamma_plus", ends["upper_threshold"], ends["upper"], "", "", 53, ""),
    ]
    _write_csv(out, "modelops.csv", _MODELOPS_HEADER, rows)
    return [
        _verdict("model_lower", sand["lower"] - sand["mid"] <= slack,
                 sand["lower"] - sand["mid"], 0.0, slack),
        _verdict("model_upper", sand["mid"] - sand["upper"] <= slack,
                 sand["mid"] - sand["upper"], 0.0, slack),
        _verdict("endpoint_lower", ends["lower"] - ends["mid"] <= slack,
                 ends["lower"] - ends["mid"], 0.0, slack),
        _verdict("endpoint_upper", ends["mid"] - ends["upper"] <= slack,
                 ends["mid"] - ends["upper"], 0.0, slack),
    ]


def cmd_verify_weylkyfan(sc: Scenario, out: Path):
    p = sc.verify_params("weylkyfan")
    trials, dim = p["trials"], p["dim"]
    rng = np.random.default_rng(p["seed"])

    def hermitian():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (g + g.conj().T)

    weyl_bad = kyfan_bad = 0
    for _ in range(trials):
        a, b = hermitian(), hermitian()
        s1, s2 = rng.uniform(0.05, 2.0, size=2)
        total = count_above(a + b, s1 + s2).count
        if total > count_above(a, s1).count + count_above(b, s2).count:
            weyl_bad += 1
        t1 = rng.standard_normal((dim + 3, dim)) \
            + 1j * rng.standard_normal((dim + 3, dim))
        t2 = rng.standard_normal((dim + 3, dim)) \
            + 1j * rng.standard_normal((dim + 3, dim))
        if n_star(t1 + t2, s1 + s2).count > (n_star(t1, s1).count
                                             + n_star(t2, s2).count):
            kyfan_bad += 1
    return [
        _verdict("weyl_subadditive", weyl_bad == 0, weyl_bad, 0.0, 0.0),
        _verdict("kyfan_subadditive", kyfan_bad == 0, kyfan_bad, 0.0, 0.0),
    ]


def cmd_effective_count(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("effective")
    eps = float(p["eps"])
    rows, lowers, uppers = [], [], []
    for lam in sc.lam_grid.values():
        with _WarningBox() as box:
            rep_lo, rep_hi = effective_count(sc.j, lam, eps, sc)
        for rep in (rep_lo, rep_hi):
            rows.append((lam, sc.j, rep.route, rep.threshold, rep.count,
                         "; ".join(rep.warnings) or box.text,
                         rep.precision_bits))
        lowers.append(rep_lo.count)
        uppers.append(rep_hi.count)
    _write_csv(out, "counts.csv", _COUNTS_HEADER, rows)
    verdicts = [_verdict("bracket_ordered",
                         all(l <= u for l, u in zip(lowers, uppers)),
                         max(l - u for l, u in zip(lowers, uppers)), 0.0,
                         0.0)]
    if finiteness_predicate(sc.v, sc.w):
        spread = max(uppers) - min(uppers)
        verdicts.append(_verdict("finite_spread",
                                 spread <= p["spread_tol"], spread, 0.0,
                                 p["spread_tol"]))
    return verdicts


def cmd_bs_count(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("bs")
    j_sum = p["j_sum"]
    if j_sum < sc.j:
        raise ScenarioError(
            f"verify.bs.j_sum = {j_sum} is below the band index j = {sc.j}; "
            "the resolvent expansion must include band j")
    lams = sc.lam_grid.values()
    with _WarningBox() as box:
        counts = dict(zip(lams, bs_count(sc.j, lams, sc, j_sum=j_sum)))
    rows = [(lam, sc.j, "bs_fiber", 1.0, n, box.text, 53)
            for lam, n in counts.items()]
    verdicts = []
    lam0 = sc.lam_grid.start
    slack = p["cross_slack"]
    with _WarningBox():
        lo, hi = (rep.count for rep in
                  effective_count(sc.j, lam0, float(p["cross_eps"]), sc))
    verdicts.append(_verdict("cross_route_bracket",
                             lo - slack <= counts[lam0] <= hi + slack,
                             counts[lam0], 0.5 * (lo + hi),
                             0.5 * (hi - lo) + slack))
    full = full_line_gram(sc.j, lam0, sc)
    anti = full_line_gram(sc.j, lam0, sc, y_order=sc.quad.gauss_y_order)
    for r in p["route_r"]:
        r = float(r)
        with _WarningBox() as box:
            n1 = count_above(full.kernel, r)
            n2 = count_above(anti.kernel, r)
        rows.append((lam0, sc.j, "gram_sections", r, n1.count,
                     "; ".join(n1.warnings), n1.precision_bits))
        rows.append((lam0, sc.j, "antiwick_gauss", r, n2.count,
                     "; ".join(n2.warnings), n2.precision_bits))
        verdicts.append(_verdict(f"route_agreement_r{r:g}",
                                 n1.count == n2.count, n1.count - n2.count,
                                 0.0, 0.0))
    _write_csv(out, "counts.csv", _COUNTS_HEADER, rows)
    return verdicts


def cmd_scaling(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("scaling")
    lams = sc.lam_grid.values()
    finite = finiteness_predicate(sc.v, sc.w)
    rows, counts = [], []
    if finite:
        # no positive-halfplane mass: fall back to the resolvent-route
        # bracket, whose flat upper counts carry the slope-0 statement
        eps = float(sc.verify_params("effective")["eps"])
        for lam in lams:
            m = math.sqrt(sc.b * abs(math.log(lam)))
            with _WarningBox() as box:
                lo, hi = effective_count(sc.j, lam, eps, sc)
            rows.append((lam, m, lo.count, hi.count, _NAN, _NAN,
                         hi.precision_bits, box.text))
            counts.append(hi.count)
    else:
        r2 = float(p["r"]) ** 2
        delta = float(p["delta"])
        cmi, cpl = asymptotic_constants(sc.v.omega_minus, sc.v.omega_plus,
                                        sc.b)
        xi, _, big_r = optimal_disk(clip_positive_halfplane(sc.v.omega_plus))
        eps_plus = epsilon_bounds(sc.v.omega_plus, sc.b)[1]
        for lam in lams:
            m = math.sqrt(sc.b * abs(math.log(lam)))
            with _WarningBox() as box:
                gram = gamma_gram("minus", m, delta, sc.v.omega_minus,
                                  sc.quad, sc.b)
                rep = count_above(gram.kernel, r2)
            upper = gamma_diag_count(m, xi, delta, big_r, r2 / eps_plus)[0]
            root = math.sqrt(abs(math.log(lam)))
            rows.append((lam, m, rep.count, upper, cmi * root, cpl * root,
                         rep.precision_bits,
                         "; ".join(rep.warnings) or box.text))
            counts.append(rep.count)
    _write_csv(out, "scaling.csv",
               ("lambda", "m", "lower_count", "upper_count",
                "c_minus_scaled", "c_plus_scaled", "precision_bits",
                "warnings"), rows)

    lnln = np.log([abs(math.log(lam)) for lam in lams])
    mask = np.array(counts) > 0
    slope = 0.0
    if mask.sum() >= 2:
        slope = float(np.polyfit(lnln[mask], np.log(np.array(counts)[mask]),
                                 1)[0])
    if finite:
        verdicts = [_verdict("slope_flat", abs(slope) <= p["flat_tol"], slope,
                             0.0, p["flat_tol"])]
    else:
        spread = float(lnln.max() - lnln.min())
        if spread < p["min_lnln_spread"]:
            # a slope regression over a narrow ln|ln lam| window would be
            # noise; record the spread instead of a fake slope claim
            verdicts = [_verdict("slope_grid_narrow", True, spread,
                                 p["min_lnln_spread"], 0.0)]
        else:
            verdicts = [_verdict("slope_half",
                                 p["slope_lo"] <= slope <= p["slope_hi"],
                                 slope, 0.5,
                                 0.5 * (p["slope_hi"] - p["slope_lo"]))]
        verdicts.append(_verdict("rows_ordered",
                                 all(r[2] <= r[3] for r in rows),
                                 max(r[2] - r[3] for r in rows), 0.0, 0.0))
    if "endpoint" in p:
        e = p["endpoint"]
        m_e = float(e["m"])
        alpha, beta = e["alpha"], e["beta"]
        half, d_e = e["half_height"], e["delta"]
        # the Gaussian floor is taken over the rectangle itself
        eps_minus = math.exp(-sc.b * max(alpha * alpha, beta * beta))
        with _WarningBox() as box:
            rep, s_cert = inscribed_rectangle_count(
                float(p["r"]), m_e, d_e, alpha, beta, half, eps_minus)
        target = (1.0 - 2.0 * d_e) * half * math.sqrt(sc.b) / math.pi
        ratio = rep.count / m_e / target
        _write_csv(out, "modelops.csv", _MODELOPS_HEADER,
                   [(m_e, "g_sinc_inscribed", s_cert, rep.count,
                     rep.count / m_e, target, rep.precision_bits,
                     "; ".join(rep.warnings) or box.text)])
        verdicts.append(_verdict("endpoint_density",
                                 abs(ratio - 1.0) <= e["tol"], ratio, 1.0,
                                 e["tol"]))
    return verdicts


def cmd_geometry(sc: Scenario, out: Path):
    _need(sc, v=True)
    named = [("support", sc.v.support)]
    if sc.v.omega_minus is not sc.v.support:
        named.append(("omega_minus", sc.v.omega_minus))
    if sc.v.omega_plus is not sc.v.support:
        named.append(("omega_plus", sc.v.omega_plus))
    rows, verdicts = [], []
    for name, poly in named:
        cm, cp = c_minus(poly), c_plus(poly)
        try:
            clipped = clip_positive_halfplane(poly)
            big_c_minus = math.sqrt(sc.b) * c_minus(clipped) / (2.0 * math.pi)
            big_c_plus = math.e * math.sqrt(sc.b) * c_plus(clipped)
        except EdgegapError:
            big_c_minus = big_c_plus = _NAN
        rows.append((name, cm, cp, big_c_minus, big_c_plus, poly.diameter))
        verdicts.append(_verdict(f"chord_bound_{name}",
                                 cp >= 0.5 * poly.diameter - 1e-6, cp,
                                 0.5 * poly.diameter, 1e-6))
    try:
        cmi, cpl = asymptotic_constants(sc.v.omega_minus, sc.v.omega_plus,
                                        sc.b)
        verdicts.append(_verdict("constants_ordered", cmi < cpl, cmi, cpl,
                                 0.0))
    except EdgegapError:
        pass  # finiteness-side polygons have no positive-halfplane part
    _write_csv(out, "geometry.csv",
               ("name", "c_minus", "c_plus", "C_minus", "C_plus", "diam"),
               rows)
    return verdicts


_VERIFY = {
    "p21": cmd_verify_p21,
    "tep2": cmd_verify_tep2,
    "teth1": cmd_verify_teth1,
    "lau25": cmd_verify_lau25,
    "kms": cmd_verify_kms,
    "sandwich": cmd_verify_sandwich,
    "weylkyfan": cmd_verify_weylkyfan,
}

_COMMANDS = {
    "bands": cmd_bands,
    "gaps": cmd_gaps,
    "phi": cmd_phi,
    "effective-count": cmd_effective_count,
    "bs-count": cmd_bs_count,
    "scaling": cmd_scaling,
    "geometry": cmd_geometry,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgegap",
        description="gap-edge spectral laboratory: band functions, model "
                    "operators and eigenvalue counting near Landau-type "
                    "spectral gaps")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="path to the JSON scenario")
        sp.add_argument("--out", default=None,
                        help="output directory (overrides the scenario)")
        sp.add_argument("--j", type=int, default=None,
                        help="band index override")
        sp.add_argument("--precision-bits", type=int, default=None,
                        help="accepted for compatibility; no effect, since "
                             "every count runs in double precision")

    for name in _COMMANDS:
        common(sub.add_parser(name))
    vp = sub.add_parser("verify")
    vp.add_argument("check", choices=sorted(_VERIFY))
    common(vp)
    common(sub.add_parser("schema"), config_required=False)
    return ap


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.subcommand == "schema":
        print(schema_json())
        return 0
    try:
        sc = load_scenario(args.config, **{
            key: getattr(args, key) for key in ("j", "precision_bits")
            if getattr(args, key) is not None})
        out = Path(args.out if args.out is not None else sc.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "scenario.json", "w", encoding="utf-8") as fh:
            json.dump(scenario_to_dict(sc), fh, indent=2)
            fh.write("\n")
        if sc.normalize_x_plus:
            with open(out / "scenario_normalized.json", "w",
                      encoding="utf-8") as fh:
                json.dump(scenario_to_dict(normalized_scenario(sc)), fh,
                          indent=2)
                fh.write("\n")
        if args.subcommand == "verify":
            name = f"verify-{args.check}"
            verdicts = _VERIFY[args.check](sc, out)
        else:
            name = args.subcommand
            verdicts = _COMMANDS[args.subcommand](sc, out)
        _write_summary(out, name, sc, verdicts)
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EdgegapError as exc:
        # an invalid scenario, or a config that asked for something the
        # scenario cannot supply
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_scenario turns a failed read into ScenarioError, so what
        # is left is a failed write under the output directory
        print(f"error: cannot write output directory: {exc}", file=sys.stderr)
        return 2
    for verdict in verdicts:
        status = "pass" if verdict["pass"] else "FAIL"
        print(f"{status} {verdict['name']}: value={verdict['value']:.6g} "
              f"target={verdict['target']:.6g} tol={verdict['tol']:.6g}")
    if not all(v["pass"] for v in verdicts):
        return 4
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
