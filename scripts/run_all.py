"""Run the CLI battery over the shipped configs and tabulate.

One-shot reproduction driver: the reference config runs every
subcommand; the finiteness and growth configs run the subcommands they
were built to exercise.  growth's bs-count is left out because it fails
its route verdicts: its Gauss y-rule does not resolve the plane waves
over the tall slab.  It joins the battery with that fix, together with
growth's effective-count and finiteness's bs-count (ROADMAP item 3).
Each (config, subcommand) pair writes under out/<config>/<subcommand>/ and
the table reports exit codes plus the verdict tally read back from
summary.json.  Exits with the worst code seen.

Run:  python3 scripts/run_all.py [out_root]
"""

import json
import sys
from pathlib import Path

from edgegap.cli import run

BATTERY = {
    "reference": (
        ["bands"], ["gaps"], ["phi"],
        ["verify", "p21"], ["verify", "tep2"], ["verify", "teth1"],
        ["verify", "lau25"], ["verify", "kms"], ["verify", "sandwich"],
        ["verify", "weylkyfan"],
        ["effective-count"], ["bs-count"], ["scaling"], ["geometry"],
    ),
    "finiteness": (["gaps"], ["effective-count"], ["scaling"], ["geometry"]),
    "growth": (["gaps"], ["scaling"], ["geometry"]),
}


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    base = Path(__file__).resolve().parent.parent
    worst = 0
    print(f"{'config':<11} {'subcommand':<18} {'exit':>4}  verdicts")
    for cfg, battery in BATTERY.items():
        cfg_path = base / "configs" / f"{cfg}.json"
        for argv in battery:
            out = root / cfg / "-".join(argv)
            code = run(list(argv) + ["--config", str(cfg_path),
                                     "--out", str(out)])
            worst = max(worst, code)
            tally = "-"
            summary = out / "summary.json"
            if summary.exists():
                verdicts = json.loads(summary.read_text())["verdicts"]
                npass = sum(v["pass"] for v in verdicts)
                tally = f"{npass}/{len(verdicts)} pass"
                bad = [v["name"] for v in verdicts if not v["pass"]]
                if bad:
                    tally += "  FAIL: " + ", ".join(bad)
            print(f"{cfg:<11} {' '.join(argv):<18} {code:>4}  {tally}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
