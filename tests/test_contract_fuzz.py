"""Contract fuzz: a schema-valid document never ends in a traceback.

Hypothesis draws documents from SCHEMA's ranges around
configs/reference.json: the field strength, every edge-potential type,
the band index, the k grid, a coarse fiber grid and the momenta of the
verify p21, lau25, tep2 and teth1 checks.  Each document runs the cheap
subcommands in process, and every run must exit 0, 2, 3 or 4 (the exit
codes cli.run documents); an uncaught exception fails the test.
Derandomized, so the draw is the same on every run.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgegap.cli import run
from tests.conftest import REFERENCE_CONFIG

COMMANDS = (["gaps"], ["bands"], ["phi"], ["geometry"], ["verify", "p21"],
            ["verify", "lau25"], ["verify", "tep2"], ["verify", "teth1"])


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _sorted(items, size):
    return st.lists(items, min_size=size, max_size=size).map(sorted)


_POTENTIALS = st.one_of(
    st.fixed_dictionaries({"type": st.just("step"), "w_minus": _num(-0.5, 0.5),
                           "w_plus": _num(0.0, 1.5), "x0": _num(-1.0, 1.0)}),
    st.fixed_dictionaries({"type": st.just("two_step_upper"),
                           "w_minus": _num(-0.5, 0.5),
                           "w_plus": _num(0.0, 1.5), "delta": _num(0.0, 1.0)}),
    st.integers(1, 3).flatmap(lambda cuts: st.fixed_dictionaries({
        "type": st.just("piecewise_constant"),
        "breakpoints": _sorted(_num(-2.0, 2.0), cuts),
        "values": _sorted(_num(-0.5, 1.5), cuts + 1)})),
    st.fixed_dictionaries({"type": st.just("smooth_monotone"),
                           "w_minus": _num(-0.5, 0.5),
                           "w_plus": _num(0.0, 1.5), "center": _num(-1.0, 1.0),
                           "width": _num(0.1, 2.0)}),
)

_DOCUMENTS = st.fixed_dictionaries({
    "b": _num(0.5, 2.0),
    "edge_potential": _POTENTIALS,
    "j": st.integers(1, 3),
    "k_grid": st.fixed_dictionaries({"lo": _num(-10.0, 0.0),
                                     "hi": _num(-1.0, 10.0),
                                     "points": st.integers(2, 41)}),
    "fiber": st.fixed_dictionaries({
        "n": st.integers(301, 601),
        "half_width": st.one_of(st.none(), _num(6.0, 16.0))}),
    "verify": st.fixed_dictionaries({
        "p21": st.fixed_dictionaries({"k_lo": _num(-10.0, 0.0),
                                      "k_hi": _num(-1.0, 10.0),
                                      "points": st.integers(2, 41)}),
        "lau25": st.fixed_dictionaries({
            "k_ratio": _num(0.1, 7.0),
            "erfc_k": st.lists(_num(-1.0, 4.0), min_size=1, max_size=4)}),
        "tep2": st.fixed_dictionaries({
            "k_list": st.lists(_num(2.0, 7.0), min_size=1, max_size=3),
            "j2_k": _num(2.0, 7.0)}),
        "teth1": st.fixed_dictionaries({"k_near": _num(2.0, 6.0),
                                        "k_far": _num(3.0, 7.0)}),
    }),
})


@given(fields=_DOCUMENTS)
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_schema_valid_documents_exit_with_a_documented_code(fields):
    doc = json.loads(Path(REFERENCE_CONFIG).read_text(encoding="utf-8"))
    doc.update(fields, verify={**doc["verify"], **fields["verify"]})
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        for argv in COMMANDS:
            out = Path(tmp) / "-".join(argv)
            code = run(argv + ["--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3, 4), (argv, doc)
