"""Freeze the answers the benchmark checks into expected.json.

For every command of the resolvent and survey workloads: the verdict
names with their pass flags, and every CSV column whose header names a
count.  For the layer probes: the checked counts.  Output bytes are not
frozen, since a faster route may legitimately move trailing digits.
Run on a commit whose answers are trusted:

    python3 perfbench/freeze.py
"""

import json
import shutil
import sys
import time
from types import SimpleNamespace

import run

CHECKED_PROBES = ("gamma_m20.count", "bs_count.count")


def main() -> int:
    ctx = SimpleNamespace(env=run.child_env(),
                          deadline=time.monotonic() + 3600.0)
    work = run.OUT / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    cli = {}
    for cfg, argv in run.RESOLVENT + run.SURVEY:
        name = run.op_name(cfg, argv)
        out_dir = work / name
        out_dir.mkdir(parents=True)
        child = run.spawn(run.cli_command(cfg, argv, out_dir),
                          out_dir / "log.txt", ctx)
        if child.code != 0:
            print(f"error: {name} exited with {child.code}", file=sys.stderr)
            return 1
        cli[name] = {"verdicts": run.verdicts_of(out_dir),
                     "counts": run.count_columns(out_dir)}
        print(f"{name}: {child.wall:.2f} s")
    out = work / "probes.json"
    child = run.spawn([run.PY, str(run.WORKER), "probes", str(out)],
                      work / "probes.log", ctx)
    if child.code != 0:
        print(f"error: probes exited with {child.code}", file=sys.stderr)
        return 1
    raw = json.loads(out.read_text())
    doc = {"cli": cli, "probes": {key: raw[key] for key in CHECKED_PROBES}}
    (run.BENCH / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
