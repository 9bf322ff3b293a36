"""One schema validates every scenario field.

Every numeric leaf of the reference config (verify defaults merged in) is
set to NaN, +inf, -inf and a string, and the command that reads it must
exit 2 naming the field.  jsonschema serves as an independent oracle for
the schema itself.  Verdicts must not pass on a NaN.
"""

import copy
import dataclasses
import json
import math
import re

import jsonschema
import pytest

from edgegap import cli
from edgegap.cli import _verdict, run
from edgegap.counting import CountingReport
from edgegap.errors import ScenarioError
from edgegap.scenario import SCHEMA, scenario_from_dict, validate
from tests.conftest import REFERENCE_CONFIG, ROOT


def _reference():
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["verify"] = {name: {**defaults, **doc["verify"].get(name, {})}
                     for name, defaults in validate({})["verify"].items()}
    return doc


def _nodes(node, path=()):
    """Path of every node under node, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    return [path] + [sub for key, child in children
                     for sub in _nodes(child, path + (key,))]


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _dotted(path):
    return "config" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                              for key in path)


REFERENCE = _reference()
NODES = _nodes(REFERENCE)
LEAVES = [path for path in NODES
          if isinstance(_get(REFERENCE, path), (int, float))
          and not isinstance(_get(REFERENCE, path), bool)]
BAD_VALUES = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf,
              "str": "x"}

# the command that reads each top-level field; gaps for the rest
_READERS = {"quadrature": ["effective-count"], "a_momentum": ["effective-count"],
            "lambda_grid": ["effective-count"], "m_grid": ["verify", "kms"],
            "envelope_delta": ["verify", "sandwich"], "k_grid": ["bands"],
            "fiber": ["bands"], "perturbation": ["geometry"]}
_VERIFY_READERS = {"effective": ["effective-count"], "bs": ["bs-count"],
                   "scaling": ["scaling"]}


def _reader(path):
    if path[0] == "verify":
        return _VERIFY_READERS.get(path[1], ["verify", path[1]])
    return _READERS.get(path[0], ["gaps"])


def test_reference_with_defaults_is_valid():
    assert len(LEAVES) == 84
    scenario_from_dict(REFERENCE)


@pytest.mark.parametrize("label", BAD_VALUES)
@pytest.mark.parametrize("path", LEAVES, ids=_dotted)
def test_bad_numeric_field_exits_2_naming_it(tmp_path, capsys, path, label):
    doc = _with(REFERENCE, path, BAD_VALUES[label])
    if path in (("lambda_grid", "start"), ("lambda_grid", "ratio")) \
            and label == "+inf":
        # an unchecked infinite start or ratio would never end the grid
        # loop, so only the load runs
        with pytest.raises(ScenarioError, match=re.escape(_dotted(path))):
            scenario_from_dict(doc)
        return
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity
    code = run([*_reader(path), "--config", str(cfg),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {_dotted(path)} must be" in err
    assert "Traceback" not in err


def test_error_message_names_the_dotted_path():
    doc = _with(REFERENCE, ("verify", "kms", "m_count"), math.nan)
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == \
        "config.verify.kms.m_count must be a finite number, got nan"


# ------------------------------------------------------------ jsonschema


def test_schema_is_a_valid_json_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", ["reference", "growth", "finiteness"])
def test_shipped_configs_validate_under_both(name):
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    jsonschema.Draft202012Validator(SCHEMA).validate(doc)
    validate(doc)


def test_written_mirrors_validate_under_both(tmp_path):
    doc = _with(REFERENCE, ("edge_potential", "x0"), 0.25)
    doc["normalize_x_plus"] = True
    doc["a_momentum"] = 0.25  # the mirror's cutoff a - b x_+ stays >= 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["gaps", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for name in ("scenario.json", "scenario_normalized.json"):
        mirror = json.loads((tmp_path / name).read_text())
        jsonschema.Draft202012Validator(SCHEMA).validate(mirror)
        validate(mirror)


@pytest.mark.parametrize("path", NODES, ids=_dotted)
def test_wrong_type_rejected_by_both(path):
    value = 0 if isinstance(_get(REFERENCE, path), str) else "x"
    doc = _with(REFERENCE, path, value) if path else value
    assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(doc)
    with pytest.raises(ScenarioError, match=re.escape(_dotted(path))):
        validate(doc)


# --------------------------------------------------------------- verdicts


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["value", "target", "tol"])
def test_verdict_fails_on_non_finite(field, bad):
    figures = {"value": 0.0, "target": 0.0, "tol": 0.0, field: bad}
    assert _verdict("x", True, **figures)["pass"] is False


def test_verdict_fails_on_a_flagged_count():
    clean = CountingReport(threshold=1.0, count=2, route="double_eig",
                           precision_bits=53, margin=0.1)
    assert _verdict("x", True, 0.0, 0.0, 0.0, (clean,))["pass"] is True
    for flag in ("tie: 1 eigenvalue(s) within 1e-08 of threshold",
                 "floor: threshold ln s = 0.0 lies 41.4 nats below"):
        flagged = dataclasses.replace(clean, warnings=(flag,))
        assert _verdict("x", True, 0.0, 0.0, 0.0,
                        (clean, flagged))["pass"] is False


def _write(tmp_path, **over):
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        doc = {**json.load(fh), **over}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    return str(cfg)


def test_lau25_nan_closed_form_fails(tmp_path, capsys, monkeypatch):
    erfc_k = validate({})["verify"]["lau25"]["erfc_k"]
    phi_squared = cli.phi_squared
    monkeypatch.setattr(cli, "phi_squared", lambda j, k, b, w: (
        math.nan if k in erfc_k else phi_squared(j, k, b, w)))
    assert run(["verify", "lau25", "--config", REFERENCE_CONFIG,
                "--out", str(tmp_path)]) == 4
    assert "FAIL step_closed_form: value=nan" in capsys.readouterr().out


def test_p21_nan_band_fails_monotone(tmp_path, capsys, monkeypatch):
    band_table = cli.band_table

    def holed(disc, k_grid, j_max):
        energies = band_table(disc, k_grid, j_max).copy()
        energies[:, len(k_grid) // 2] = math.nan
        return energies

    monkeypatch.setattr(cli, "band_table", holed)
    cfg = _write(tmp_path, verify={"p21": {"k_lo": -1.0, "k_hi": 1.0,
                                           "points": 5}})
    assert run(["verify", "p21", "--config", cfg,
                "--out", str(tmp_path / "out")]) == 4
    assert "FAIL band_monotone: value=nan" in capsys.readouterr().out


def test_kms_nan_trace_fails(tmp_path, capsys, monkeypatch):
    g_sinc_trace = cli.g_sinc_trace

    def nan_trace(iv, m):
        n, trace = g_sinc_trace(iv, m)
        return (n, math.nan) if m == 20.0 else (n, trace)

    monkeypatch.setattr(cli, "g_sinc_trace", nan_trace)
    cfg = _write(tmp_path, m_grid=[20, 40], verify={"kms": {
        "window": [0.25, 0.75], "m_trace": 40, "m_count": 60}})
    assert run(["verify", "kms", "--config", cfg,
                "--out", str(tmp_path / "out")]) == 4
    assert "FAIL trace_exact: value=nan" in capsys.readouterr().out
