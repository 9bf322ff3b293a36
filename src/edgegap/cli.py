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
from .fiber import (FiberDiscretization, band_table, edge_comparisons,
                    gap_edges, phi_squared, step_tail_asymptote)
from .geometry import (asymptotic_constants, c_minus, c_plus,
                       clip_positive_halfplane, optimal_disk)
from .modelops import (IntervalSpec, endpoint_bracket, epsilon_bounds,
                       g_sinc, g_sinc_trace, gamma_diag_count, gamma_gram,
                       inscribed_rectangle_count, kms_trace_ratio,
                       sandwich_check, sinc_rule)
from .potentials import finiteness_predicate
from .scenario import (Scenario, load_scenario, normalized_scenario,
                       schema_json)

_NAN = float("nan")
_MODELOPS_HEADER = ("m", "operator", "threshold", "count", "ratio", "target",
                    "precision_bits", "warnings")
_COUNTS_HEADER = ("lambda", "j", "route", "threshold", "count", "warnings",
                  "precision_bits")


def _verdict(name: str, ok: bool, value, target, tol, reports=()) -> dict:
    # a verdict cannot pass on a value, target or tol that is not finite,
    # nor on a count whose report carries a tie: or floor: flag; a
    # flagged verdict lists those messages under "flags", once each
    value, target, tol = float(value), float(target), float(tol)
    finite = all(math.isfinite(x) for x in (value, target, tol))
    flags = list(dict.fromkeys(msg for rep in reports for msg in rep.warnings))
    verdict = {"name": name, "pass": bool(ok) and finite and not flags,
               "value": value, "target": target, "tol": tol}
    if flags:
        verdict["flags"] = flags
    return verdict


def _write_csv(out: Path, name: str, header, rows):
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc):
    with open(path, "w", encoding="utf-8") as fh:
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

    def cell(self, *reports) -> str:
        """The warnings cell of a count row: the warnings of the row's own
        reports, then every warning raised while they were computed."""
        return "; ".join([msg for rep in reports for msg in rep.warnings]
                         + [str(item.message) for item in self._box])


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


def _gap_to_phi(disc: FiberDiscretization, j: int, ks):
    """(bands.csv rows, ratios (E_j^+ - E_j(k)) / Phi_j(k)^2) from one
    batch of twin comparisons."""
    cmps = edge_comparisons(disc, j, ks)
    return ([(c.k, j, float(c.energy_w)) for c in cmps],
            [c.gap_dist / phi_squared(j, c.k, disc.b, disc.w) for c in cmps])


def cmd_verify_tep2(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("tep2")
    k_list = [float(k) for k in p["k_list"]]
    disc = _disc(sc)
    rows, ratios = _gap_to_phi(disc, sc.j, k_list)
    verdicts = [_verdict(f"gap_to_phi_k{k:g}", abs(ratio - 1.0) <= p["tol"],
                         ratio, 1.0, p["tol"])
                for k, ratio in zip(k_list, ratios)]
    k2 = float(p["j2_k"])
    row2, (ratio2,) = _gap_to_phi(disc, sc.j + 1, [k2])
    rows += row2
    verdicts.append(_verdict(f"gap_to_phi_j{sc.j + 1}_k{k2:g}",
                             abs(ratio2 - 1.0) <= p["j2_tol"], ratio2, 1.0,
                             p["j2_tol"]))
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    return verdicts


def cmd_verify_teth1(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("teth1")
    k_near, k_far = float(p["k_near"]), float(p["k_far"])
    cmps = edge_comparisons(_disc(sc), sc.j, [k_near, k_far])
    rows = [(c.k, sc.j, float(c.energy_w)) for c in cmps]
    _write_csv(out, "bands.csv", ("k", "j", "E"), rows)
    near, far = (c.scaled_distance for c in cmps)
    return [
        _verdict("scaled_distance_small", far <= p["far_max"], far, 0.0,
                 p["far_max"]),
        _verdict("scaled_distance_decreasing", far < near, far, near, 0.0),
    ]


def cmd_verify_lau25(sc: Scenario, out: Path):
    _need(sc, w=True)
    p = sc.verify_params("lau25")
    k_ratio = float(p["k_ratio"])  # positive, by the schema
    asym = step_tail_asymptote(sc.j, k_ratio, sc.b, sc.w)
    phi2 = phi_squared(sc.j, k_ratio, sc.b, sc.w)
    ratio = phi2 / asym
    rows = [(k_ratio, phi2, asym)]
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
        n, trace = g_sinc_trace(iv, m)
        tr = trace / m
        trace_dev = np.maximum(trace_dev, abs(tr - target) / target)
        rows.append((float(m), "g_sinc_trace", "", n, tr, target, 53, ""))
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
                 report.precision_bits, box.cell(report)))
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
                 p["count_tol"], (report,)),
    ]


def cmd_verify_sandwich(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("sandwich")
    lam, eps, r = float(p["lam"]), float(p["eps"]), float(p["r"])
    slack = p["slack"]
    with _WarningBox() as box:
        q_lo, mid, q_hi = sandwich_check(sc.j, lam, r, eps, sc)
        m, g_lo, g_hi = endpoint_bracket(sc.j, lam, r, eps, sc)
    named = [("", "q_minus", q_lo), ("", "s_gram", mid), ("", "q_plus", q_hi),
             (m, "gamma_minus", g_lo), (m, "s_gram", mid),
             (m, "gamma_plus", g_hi)]
    rows = [(mm, name, rep.threshold, rep.count, "", "", rep.precision_bits,
             box.cell(rep)) for mm, name, rep in named]
    _write_csv(out, "modelops.csv", _MODELOPS_HEADER, rows)
    return [_verdict(name, lo.count - hi.count <= slack,
                     lo.count - hi.count, 0.0, slack, (lo, hi))
            for name, lo, hi in (("model_lower", q_lo, mid),
                                 ("model_upper", mid, q_hi),
                                 ("endpoint_lower", g_lo, mid),
                                 ("endpoint_upper", mid, g_hi))]


def cmd_verify_weylkyfan(sc: Scenario, out: Path):
    p = sc.verify_params("weylkyfan")
    trials, dim = p["trials"], p["dim"]
    rng = np.random.default_rng(p["seed"])

    def hermitian():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (g + g.conj().T)

    weyl_bad = kyfan_bad = 0
    weyl_flagged, kyfan_flagged = [], []
    for _ in range(trials):
        a, b = hermitian(), hermitian()
        s1, s2 = rng.uniform(0.05, 2.0, size=2)
        weyl = (count_above(a + b, s1 + s2), count_above(a, s1),
                count_above(b, s2))
        weyl_bad += weyl[0].count > weyl[1].count + weyl[2].count
        weyl_flagged += [rep for rep in weyl if rep.warnings]
        t1 = rng.standard_normal((dim + 3, dim)) \
            + 1j * rng.standard_normal((dim + 3, dim))
        t2 = rng.standard_normal((dim + 3, dim)) \
            + 1j * rng.standard_normal((dim + 3, dim))
        kyfan = (n_star(t1 + t2, s1 + s2), n_star(t1, s1), n_star(t2, s2))
        kyfan_bad += kyfan[0].count > kyfan[1].count + kyfan[2].count
        kyfan_flagged += [rep for rep in kyfan if rep.warnings]
    return [
        _verdict("weyl_subadditive", weyl_bad == 0, weyl_bad, 0.0, 0.0,
                 weyl_flagged),
        _verdict("kyfan_subadditive", kyfan_bad == 0, kyfan_bad, 0.0, 0.0,
                 kyfan_flagged),
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
                         box.cell(rep), rep.precision_bits))
        lowers.append(rep_lo)
        uppers.append(rep_hi)
    _write_csv(out, "counts.csv", _COUNTS_HEADER, rows)
    excess = [l.count - u.count for l, u in zip(lowers, uppers)]
    verdicts = [_verdict("bracket_ordered", max(excess) <= 0, max(excess),
                         0.0, 0.0, lowers + uppers)]
    if finiteness_predicate(sc.v, sc.w):
        spread = (max(u.count for u in uppers)
                  - min(u.count for u in uppers))
        verdicts.append(_verdict("finite_spread",
                                 spread <= p["spread_tol"], spread, 0.0,
                                 p["spread_tol"], uppers))
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
    rows = [(lam, sc.j, "bs_fiber", 1.0, n, box.cell(), 53)
            for lam, n in counts.items()]
    verdicts = []
    lam0 = sc.lam_grid.start
    slack = p["cross_slack"]
    with _WarningBox():
        bracket = effective_count(sc.j, lam0, float(p["cross_eps"]), sc)
    lo, hi = (rep.count for rep in bracket)
    verdicts.append(_verdict("cross_route_bracket",
                             lo - slack <= counts[lam0] <= hi + slack,
                             counts[lam0], 0.5 * (lo + hi),
                             0.5 * (hi - lo) + slack, bracket))
    full = full_line_gram(sc.j, lam0, sc)
    anti = full_line_gram(sc.j, lam0, sc, y_order=sc.quad.gauss_y_order)
    for r in p["route_r"]:
        r = float(r)
        with _WarningBox() as box:
            n1 = count_above(full.kernel, r)
            n2 = count_above(anti.kernel, r)
        rows.append((lam0, sc.j, "gram_sections", r, n1.count,
                     box.cell(n1), n1.precision_bits))
        rows.append((lam0, sc.j, "antiwick_gauss", r, n2.count,
                     box.cell(n2), n2.precision_bits))
        verdicts.append(_verdict(f"route_agreement_r{r:g}",
                                 n1.count == n2.count, n1.count - n2.count,
                                 0.0, 0.0, (n1, n2)))
    _write_csv(out, "counts.csv", _COUNTS_HEADER, rows)
    return verdicts


def cmd_scaling(sc: Scenario, out: Path):
    _need(sc, w=True, v=True)
    p = sc.verify_params("scaling")
    lams = sc.lam_grid.values()
    finite = finiteness_predicate(sc.v, sc.w)
    rows, counts, reports = [], [], []
    if finite:
        # no positive-halfplane mass: fall back to the resolvent-route
        # bracket, whose flat upper counts carry the slope-0 statement
        eps = float(sc.verify_params("effective")["eps"])
        for lam in lams:
            m = math.sqrt(sc.b * abs(math.log(lam)))
            with _WarningBox() as box:
                lo, hi = effective_count(sc.j, lam, eps, sc)
            rows.append((lam, m, lo.count, hi.count, _NAN, _NAN,
                         hi.precision_bits, box.cell(lo, hi)))
            counts.append(hi.count)
            reports += [lo, hi]
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
                         rep.precision_bits, box.cell(rep)))
            counts.append(rep.count)
            reports.append(rep)
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
                             0.0, p["flat_tol"], reports)]
    else:
        spread = float(lnln.max() - lnln.min())
        if spread < p["min_lnln_spread"]:
            # a slope regression over a narrow ln|ln lam| window would be
            # noise; record the spread instead of a fake slope claim
            verdicts = [_verdict("slope_grid_narrow", True, spread,
                                 p["min_lnln_spread"], 0.0, reports)]
        else:
            verdicts = [_verdict("slope_half",
                                 p["slope_lo"] <= slope <= p["slope_hi"],
                                 slope, 0.5,
                                 0.5 * (p["slope_hi"] - p["slope_lo"]),
                                 reports)]
        verdicts.append(_verdict("rows_ordered",
                                 all(r[2] <= r[3] for r in rows),
                                 max(r[2] - r[3] for r in rows), 0.0, 0.0,
                                 reports))
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
                     box.cell(rep))])
        verdicts.append(_verdict("endpoint_density",
                                 abs(ratio - 1.0) <= e["tol"], ratio, 1.0,
                                 e["tol"], (rep,)))
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
        _write_json(out / "scenario.json", sc.doc)
        if sc.normalize_x_plus:
            _write_json(out / "scenario_normalized.json",
                        normalized_scenario(sc).doc)
        if args.subcommand == "verify":
            name = f"verify-{args.check}"
            verdicts = _VERIFY[args.check](sc, out)
        else:
            name = args.subcommand
            verdicts = _COMMANDS[args.subcommand](sc, out)
        _write_json(out / "summary.json", {"subcommand": name,
                                           "scenario": sc.source_hash,
                                           "verdicts": verdicts})
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
        flags = "; ".join(verdict.get("flags", ()))
        print(f"{status} {verdict['name']}: value={verdict['value']:.6g} "
              f"target={verdict['target']:.6g} tol={verdict['tol']:.6g}"
              + (f" flags: {flags}" if flags else ""))
    if not all(v["pass"] for v in verdicts):
        return 4
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
