"""Scenario loading, validation, and the command-line front end."""

import csv
import dataclasses
import hashlib
import json
import math

import pytest

from edgegap.cli import run
from edgegap.errors import ScenarioError
from edgegap.fiber import FiberDiscretization, verify_tep2, verify_teth1
from edgegap.scenario import (
    GridSpec,
    LambdaGrid,
    load_scenario,
    normalized_scenario,
    scenario_from_dict,
    scenario_to_dict,
    schema_json,
)
from tests.conftest import REFERENCE_CONFIG, run_python

BOX = [[-0.25, -0.5], [0.4, -0.5], [0.4, 0.5], [-0.25, 0.5]]


def base_doc(**over):
    doc = {
        "b": 1.0,
        "edge_potential": {"type": "step", "w_minus": 0.0, "w_plus": 1.0,
                           "x0": 0.0},
        "perturbation": {"type": "polygon_indicator", "vertices": BOX,
                         "amplitude": 25.0},
    }
    doc.update(over)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_defaults():
    sc = scenario_from_dict({})
    assert sc.b == 1.0 and sc.w is None and sc.v is None
    assert sc.j == 1 and sc.m_grid == (50.0, 100.0, 200.0, 300.0)
    assert len(sc.k_grid.values()) == 401
    assert sc.lam_grid.values() == pytest.approx(
        [10.0 ** -e for e in range(3, 9)])


def test_lambda_grid_hits_stop():
    grid = LambdaGrid(start=1e-3, stop=1e-5, ratio=10.0)
    assert grid.values() == pytest.approx([1e-3, 1e-4, 1e-5])
    assert LambdaGrid(start=1e-4, stop=1e-4).values() == [1e-4]


def test_verify_params_merge_defaults_under_config():
    sc = scenario_from_dict(base_doc(verify={"kms": {"m_trace": 40}}))
    params = sc.verify_params("kms")
    assert params["m_trace"] == 40
    assert params["window"] == [0.25, 2.25]
    assert sc.verify_params("sandwich")["slack"] == 3


BAD_DOCS = [
    {"bogus": 1},
    {"b": -1.0},
    base_doc(edge_potential={"type": "step", "w_minus": 0.0, "w_plus": 2.5,
                             "x0": 0.0}),
    base_doc(edge_potential={"type": "ramp"}),
    base_doc(edge_potential={"type": "step", "w_minus": 0.0, "w_plus": 1.0,
                             "x0": 0.0, "slope": 2.0}),
    base_doc(perturbation={"type": "gaussian", "vertices": BOX}),
    base_doc(perturbation={"type": "polygon_indicator"}),
    base_doc(quadrature={"k_panels": 0}),
    base_doc(fiber={"n": 2}),
    base_doc(j=0),
    base_doc(envelope_delta=0.6),
    base_doc(precision_bits=32),
    base_doc(k_grid={"lo": 2.0, "hi": -2.0}),
    base_doc(lambda_grid={"ratio": 1.0}),
    base_doc(lambda_grid={"start": 1e-9, "stop": 1e-3}),
    base_doc(m_grid=[100, 50]),
    base_doc(verify={"bogus": {}}),
    base_doc(verify="tight"),
    [1, 2, 3],
    # a misspelt key is an error, not a silently applied default
    base_doc(fiber={"size": 2001}),
    base_doc(k_grid={"point": 11}),
    base_doc(verify={"kms": {"m_countt": 300}}),
    base_doc(verify={"scaling": {"endpoint": {"m": 300, "alpha": 0.05}}}),
    base_doc(verify={"kms": {"window": [0.25, 1.0, 2.25]}}),
]


@pytest.mark.parametrize("doc", BAD_DOCS, ids=range(len(BAD_DOCS)))
def test_invalid_configs_rejected(doc):
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_load_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


def test_source_hash_ignores_key_order():
    doc = base_doc()
    reordered = dict(reversed(list(doc.items())))
    assert scenario_from_dict(doc).source_hash == \
        scenario_from_dict(reordered).source_hash
    other = base_doc()
    other["perturbation"]["amplitude"] = 26.0
    assert scenario_from_dict(other).source_hash != \
        scenario_from_dict(doc).source_hash
    assert len(scenario_from_dict(doc).source_hash) == 64


def test_normalization_shifts_origin_to_saturation():
    doc = base_doc(edge_potential={"type": "step", "w_minus": 0.0,
                                   "w_plus": 1.0, "x0": 0.5})
    sc = scenario_from_dict(doc)
    norm = normalized_scenario(sc)
    assert norm.w.x0 == 0.0
    assert norm.v.support.vertices[0][0] == pytest.approx(BOX[0][0] - 0.5)
    assert norm.v.support.vertices[0][1] == BOX[0][1]
    assert norm.raw["_normalized_shift"] == 0.5
    assert sc.w.x0 == 0.5  # original untouched
    # the normalized mirror stays loadable
    scenario_from_dict(scenario_to_dict(norm))


def test_normalization_special_cases():
    sc = scenario_from_dict({})
    assert normalized_scenario(sc) is sc
    two = scenario_from_dict(base_doc(
        edge_potential={"type": "two_step_upper", "w_minus": 0.0,
                        "w_plus": 1.0, "delta": 0.1}))
    norm = normalized_scenario(two)
    assert norm.w.kind == "step" and norm.w.x0 == 0.0
    assert norm.v.support.vertices[0][0] == pytest.approx(BOX[0][0] + 0.1)
    smooth = scenario_from_dict(base_doc(
        edge_potential={"type": "smooth_monotone", "w_minus": 0.0,
                        "w_plus": 1.0, "center": 0.0, "width": 0.5}))
    with pytest.raises(ScenarioError):
        normalized_scenario(smooth)


def test_round_trip_preserves_content():
    sc = scenario_from_dict(base_doc(j=2, m_grid=[10, 20]))
    sc2 = scenario_from_dict(scenario_to_dict(sc))
    assert sc2.w == sc.w and sc2.v == sc.v
    assert sc2.j == 2 and sc2.m_grid == (10.0, 20.0)
    assert sc2.quad == sc.quad and sc2.lam_grid == sc.lam_grid


def test_schema_document():
    doc = json.loads(schema_json())
    assert doc["type"] == "object"
    assert doc["additionalProperties"] is False
    assert "edge_potential" in doc["properties"]
    assert "lambda_grid" in doc["properties"]


def test_cli_schema(capsys):
    assert run(["schema"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["title"]


def test_cli_gaps_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    out = tmp_path / "run1"
    assert run(["gaps", "--config", cfg, "--out", str(out), "--j", "2"]) == 0
    rows = read_csv(out / "gaps.csv")
    assert rows[0] == ["j", "lower", "upper"]
    assert [float(x) for x in rows[1]] == [1.0, 2.0, 3.0]
    assert [float(x) for x in rows[2]] == [2.0, 4.0, 5.0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["subcommand"] == "gaps"
    ran = dataclasses.replace(load_scenario(cfg), j=2)
    assert summary["scenario"] == ran.source_hash
    assert [v["name"] for v in summary["verdicts"]] == [
        "gap_open_j1", "gap_open_j2"]
    assert all(v["pass"] for v in summary["verdicts"])
    assert (out / "scenario.json").exists()


def test_cli_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path, base_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gaps", "--config", cfg, "--out", str(a)]) == 0
    assert run(["gaps", "--config", cfg, "--out", str(b)]) == 0
    for name in ("gaps.csv", "summary.json", "scenario.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_scenario_hash_covers_overrides(tmp_path):
    # the hash identifies the scenario as it ran: the persisted
    # scenario.json, with the --j override applied
    cfg = write_cfg(tmp_path, base_doc())
    hashes = []
    for j in (1, 2):
        out = tmp_path / f"j{j}"
        assert run(["gaps", "--config", cfg, "--out", str(out),
                    "--j", str(j)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        ran = json.loads((out / "scenario.json").read_text())
        canonical = json.dumps(ran, sort_keys=True, separators=(",", ":"))
        assert summary["scenario"] == \
            hashlib.sha256(canonical.encode()).hexdigest()
        hashes.append(summary["scenario"])
    assert hashes[0] == load_scenario(cfg).source_hash
    assert hashes[1] != hashes[0]


def test_cli_byte_determinism_across_processes(tmp_path):
    # each run is a fresh interpreter, so no lru_cache carries over
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_python(["-m", "edgegap", "verify", "sandwich",
                    "--config", REFERENCE_CONFIG, "--out", str(out)])
    for name in ("modelops.csv", "summary.json", "scenario.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_out_dir_from_config(tmp_path):
    target = tmp_path / "fromcfg"
    cfg = write_cfg(tmp_path, base_doc(out_dir=str(target)))
    assert run(["gaps", "--config", cfg]) == 0
    assert (target / "gaps.csv").exists()


def test_cli_phi_asymptote_column(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(
        k_grid={"lo": -2.0, "hi": 3.0, "points": 6}))
    out = tmp_path / "phi"
    assert run(["phi", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "phi.csv")[1:]
    assert len(rows) == 6
    first, last = rows[0], rows[-1]
    assert math.isnan(float(first[2]))  # no tail form at negative momentum
    assert float(last[1]) / float(last[2]) == pytest.approx(1.0, abs=0.1)


def test_cli_bands_small_grid(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(
        k_grid={"lo": -1.0, "hi": 1.0, "points": 5}))
    out = tmp_path / "bands"
    assert run(["bands", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "bands.csv")[1:]
    assert len(rows) == 5
    energies = [float(r[2]) for r in rows]
    assert all(1.0 < e < 2.0 for e in energies)
    assert energies == sorted(energies)


def test_cli_exit_codes(tmp_path):
    assert run(["gaps", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x")]) == 2
    cfg = write_cfg(tmp_path, base_doc())
    assert run(["gaps", "--config", cfg, "--out", str(tmp_path / "x"),
                "--j", "0"]) == 2
    assert run(["gaps", "--config", cfg, "--out", str(tmp_path / "x"),
                "--precision-bits", "32"]) == 2
    bad = write_cfg(tmp_path, base_doc(b=-2.0), name="bad.json")
    assert run(["gaps", "--config", bad, "--out", str(tmp_path / "x")]) == 2


def test_cli_unwritable_out_exit(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    # --out below a regular file, and --out naming the file itself
    for out in (blocker / "x", blocker):
        assert run(["gaps", "--config", REFERENCE_CONFIG,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write output directory" in err
        assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


def test_cli_convergence_failure_exit(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(
        fiber={"n": 205}, k_grid={"lo": -1.0, "hi": 1.0, "points": 3}))
    out = tmp_path / "coarse"
    assert run(["bands", "--config", cfg, "--out", str(out), "--j", "3"]) == 3


@pytest.mark.parametrize("fiber", [{"n": 150}, {"half_width": 2.0}],
                         ids=["n_below_200", "half_width_below_margin"])
def test_cli_unusable_fiber_grid_exit(tmp_path, capsys, fiber):
    cfg = write_cfg(tmp_path, base_doc(fiber=fiber))
    assert run(["gaps", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "invalid fiber block" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"b": math.inf}, {"b": math.nan},
    {"fiber": {"half_width": math.nan}}, {"fiber": {"half_width": math.inf}}],
    ids=["b_inf", "b_nan", "half_width_nan", "half_width_inf"])
@pytest.mark.parametrize("argv", [["bands"], ["verify", "tep2"],
                                  ["effective-count"]])
def test_cli_non_finite_field_or_window_exit(tmp_path, capsys, over, argv):
    cfg = write_cfg(tmp_path, base_doc(**over))
    assert run([*argv, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("points", [1, 0])
def test_cli_p21_grid_below_two_points_exit(tmp_path, capsys, points):
    cfg = write_cfg(tmp_path, base_doc(verify={"p21": {"points": points}}))
    assert run(["verify", "p21", "--config", cfg,
                "--out", str(tmp_path / "x")]) == 2
    assert "verify.p21.points must be at least 2" in capsys.readouterr().err


def test_cli_band_index_beyond_fiber_grid_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(j=250))
    assert run(["bands", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "band index" in capsys.readouterr().err


def test_cli_j_override_beyond_fiber_grid_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(
        k_grid={"lo": -1.0, "hi": 1.0, "points": 3}))
    assert run(["bands", "--config", cfg, "--out", str(tmp_path / "x"),
                "--j", "250"]) == 2
    assert "band index" in capsys.readouterr().err


def test_cli_bs_count_j_sum_below_band_index_exit(tmp_path, capsys):
    # reference j_sum is 6; a band-7 count needs band 7, whose
    # denominator is the singular one, in the resolvent expansion
    assert run(["bs-count", "--config", REFERENCE_CONFIG,
                "--out", str(tmp_path / "x"), "--j", "7"]) == 2
    err = capsys.readouterr().err
    assert "j_sum = 6" in err and "j = 7" in err


# p_j underflows a double from j = 169 and (j-1)! overflows one from
# j = 172; a failed verdict (exit 4) is an allowed outcome of a check
@pytest.mark.parametrize("argv,codes", [
    pytest.param(["effective-count"], (0, 3), id="effective-count"),
    pytest.param(["bs-count"], (0, 3), id="bs-count"),
    pytest.param(["phi"], (0, 3), id="phi"),
    pytest.param(["verify", "sandwich"], (0, 3, 4), id="verify-sandwich"),
    pytest.param(["verify", "lau25"], (0, 3, 4), id="verify-lau25"),
])
@pytest.mark.parametrize("j", [170, 200])
def test_cli_high_band_index_exit(tmp_path, capsys, argv, codes, j):
    # bs-count needs the resolvent expansion to reach band j
    cfg = write_cfg(tmp_path, base_doc(
        k_grid={"lo": -1.0, "hi": 1.0, "points": 3},
        lambda_grid={"start": 1e-3, "stop": 1e-3},
        verify={"bs": {"j_sum": j}}))
    code = run(argv + ["--config", cfg, "--out", str(tmp_path / "x"),
                       "--j", str(j)])
    assert code in codes
    assert "Traceback" not in capsys.readouterr().err


def test_cli_fiber_window_reaches_edge_verdicts(tmp_path):
    step = load_scenario(write_cfg(tmp_path, base_doc())).w
    wide = FiberDiscretization(b=1.0, w=step, half_width=14.0)
    cfg = write_cfg(tmp_path, base_doc(fiber={"half_width": 14.0}),
                    name="wide.json")
    values = {}
    for check in ("tep2", "teth1"):
        out = tmp_path / check
        assert run(["verify", check, "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        values.update((v["name"], v["value"]) for v in summary["verdicts"])
    expected = verify_tep2(1, wide, [5.0])[0]
    assert values["gap_to_phi_k5"] == expected
    assert expected != verify_tep2(1, FiberDiscretization(b=1.0, w=step),
                                   [5.0])[0]
    assert values["scaled_distance_small"] == verify_teth1(1, wide, [6.0])[0]


def test_cli_fiber_window_reaches_resolvent_path(tmp_path, monkeypatch):
    # every gap model and fiber solve behind the resolvent-path commands
    # runs on the scenario's window, not on the default one
    from edgegap import bsham
    windows = []
    solve_fiber = bsham.solve_fiber

    class RecordingGapModel(bsham.GapModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            windows.append(("gap_model", self.disc.n, self.disc.half_width))

    def recording_solve(disc, k, j_max):
        windows.append(("solve_fiber", disc.n, disc.half_width))
        return solve_fiber(disc, k, j_max)

    monkeypatch.setattr(bsham, "GapModel", RecordingGapModel)
    monkeypatch.setattr(bsham, "solve_fiber", recording_solve)
    bsham.get_gap_model.cache_clear()
    cfg = write_cfg(tmp_path, base_doc(
        fiber={"n": 2001, "half_width": 14.0},
        lambda_grid={"start": 1e-3, "stop": 1e-3}))
    for argv in (["effective-count"], ["bs-count"], ["verify", "sandwich"]):
        out = tmp_path / "-".join(argv)
        assert run(argv + ["--config", cfg, "--out", str(out)]) == 0
    bsham.get_gap_model.cache_clear()
    assert {kind for kind, _, _ in windows} == {"gap_model", "solve_fiber"}
    assert {(n, hw) for _, n, hw in windows} == {(2001, 14.0)}


def test_cli_window_missing_the_jump_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, base_doc(
        verify={"teth1": {"k_near": 16.0, "k_far": 17.0}}))
    out = tmp_path / "teth1"
    assert run(["verify", "teth1", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "half_width" in err and "Traceback" not in err


def test_cli_failed_verdict_exit(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(
        m_grid=[20, 40],
        verify={"kms": {"window": [0.25, 0.75], "m_trace": 40, "m_count": 60,
                        "l2_tol": 1e-12, "l3_tol": 1e-12}}))
    out = tmp_path / "kms"
    assert run(["verify", "kms", "--config", cfg, "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert any(not v["pass"] for v in summary["verdicts"])


def test_cli_persists_normalized_mirror(tmp_path):
    cfg = write_cfg(tmp_path, base_doc(
        normalize_x_plus=True,
        edge_potential={"type": "step", "w_minus": 0.0, "w_plus": 1.0,
                        "x0": 0.25}))
    out = tmp_path / "norm"
    assert run(["gaps", "--config", cfg, "--out", str(out)]) == 0
    mirror = json.loads((out / "scenario_normalized.json").read_text())
    assert mirror["_normalized_shift"] == 0.25
    assert mirror["edge_potential"]["x0"] == 0.0
    # the mirror loads again as the scenario it describes
    reloaded = load_scenario(str(out / "scenario_normalized.json"))
    assert reloaded.source_hash == \
        normalized_scenario(load_scenario(cfg)).source_hash


_LOADED_HEAVY = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "mpmath"))))
"""


def _loaded_heavy(body):
    out = run_python(["-c", _LOADED_HEAVY.format(body)])
    return json.loads(out.splitlines()[-1])


def test_startup_loads_neither_scipy_nor_mpmath(tmp_path):
    # scipy and mpmath load at their call sites, so a fresh process pays
    # only for what its subcommand uses; gaps is a closed form
    assert _loaded_heavy("import edgegap.cli") == []
    assert _loaded_heavy(
        f"from edgegap.cli import run\n"
        f"assert run(['gaps', '--config', {REFERENCE_CONFIG!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0") == []
    # a 150-nat graded D C D + I counts exactly, certified, in double
    assert _loaded_heavy(_GRADED_COUNT) == []
    # kappa, ln q! and erfc come from numpy and math, not scipy.special
    for argv in (["geometry"], ["scaling"], ["verify", "lau25"]):
        assert _loaded_heavy(
            f"from edgegap.cli import run\n"
            f"assert run({argv!r} + ['--config', {REFERENCE_CONFIG!r}, "
            f"'--out', {str(tmp_path / '-'.join(argv))!r}]) == 0") == []
    # the resolvent route solves fibers and splines g_j(k) with
    # scipy.linalg alone
    loaded = _loaded_heavy(
        f"from edgegap.cli import run\n"
        f"assert run(['effective-count', '--config', {REFERENCE_CONFIG!r}, "
        f"'--out', {str(tmp_path / 'effective-count')!r}]) == 0")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded
                if m.startswith(("scipy.interpolate", "mpmath"))]


_GRADED_COUNT = """
import math
import numpy as np
from edgegap.counting import LogHermitian, count_above
rng = np.random.default_rng(604)
n = 40
q = np.linalg.qr(rng.standard_normal((n, n)))[0]
beta = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
c = (q * beta) @ q.T
g = rng.uniform(0.0, 150.0, n)
core = 0.5 * (c + c.T) + np.diag(np.exp(-2.0 * g))
log_mag = g[:, None] + g[None, :] + np.log(np.abs(core))
rep = count_above(LogHermitian(log_mag, np.where(core < 0, math.pi, 0.0)), 1.0)
assert rep.count == int((beta > 0).sum()), rep
assert rep.warnings == (), rep.warnings
"""
