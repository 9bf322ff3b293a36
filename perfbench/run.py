"""Benchmark of edgegap: the end-to-end cost of its commands and counts,
and a traced pass that splits that cost by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json gives the reason for each):

    resolvent  reference commands that go through fiber.edge_comparison,
               GapModel and bs_count's fiber solves
    survey     the rest of the scripts/run_all.py battery, plus count_above
               on seeded graded matrices (the hp_inertia route)

The load is one closed-loop client: one operation at a time, with one
BLAS thread.  Every CLI command runs in a fresh interpreter (python -m
edgegap), so no lru_cache carries over from one command to the next; the
graded counts run in one fresh interpreter of their own.  The seed
shuffles the operation order and draws the graded matrices.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb
of one pass, as the median over the passes that fit in --seconds (at
least MIN_PASSES), and setup_s, the median time of a fresh interpreter
that imports edgegap.cli and loads the workload's inputs.
--trace 1 runs one untraced pass, one traced pass (worker.py wraps the
package's public functions) and, on survey, the fixed-size layer probes,
and reports the per-layer metrics named in BENCHMARK.json.

An operation is one CLI command or one graded count.  It fails on a
nonzero exit, a failed verdict, a count other than the one frozen in
expected.json (or the exact graded answer), or output bytes different
from an earlier pass of the same package source.  The last line of
stdout is the result; the full report, with quartiles, sample counts,
failures and machine facts, goes to .perfbench_out/<workload>/.
"""

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from worker import COUNTED, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".perfbench_out"
PY = sys.executable
NPROC = len(os.sched_getaffinity(0))
# the work is pure-Python mpmath and matrices of at most 770 rows, where
# extra OpenBLAS threads spin without speeding anything up
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESOLVENT = [("reference", argv) for argv in (
    ("effective-count",), ("verify", "sandwich"), ("verify", "tep2"),
    ("verify", "teth1"), ("bs-count",))]
SURVEY = ([("reference", argv) for argv in (
    ("bands",), ("gaps",), ("phi",), ("verify", "p21"), ("verify", "lau25"),
    ("verify", "kms"), ("verify", "weylkyfan"), ("scaling",),
    ("geometry",))]
    + [("growth", argv) for argv in (("gaps",), ("scaling",), ("geometry",))]
    + [("finiteness", argv) for argv in (("gaps",), ("geometry",))])
GRADED = "graded"
WORKLOAD_OPS = {"resolvent": RESOLVENT, "survey": SURVEY + [GRADED]}

# graded: M = D C D + s I with C = Q diag(beta) Q^T, |beta| in [0.5, 2],
# D = diag(e^g), g in [0, GRADING]; count_above(M, s) = #{beta > 0}.
# The cost of one count varies by ~20% between matrices of one size, so
# a pass counts many mid-sized matrices to keep its cost seed-independent.
GRADED_SIZES = (8,) * 2 + (16,) * 4 + (24,) * 6 + (32,) * 6 + (40,) * 4
GRADING = 150.0
THRESHOLD = 1.0
PRECISION_CAP = 2048

MIN_PASSES = {"resolvent": 1, "survey": 2}
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    op_seconds: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)

    def add(self, child: Child):
        self.wall += child.wall
        self.cpu += child.cpu
        self.rss_mb = max(self.rss_mb, child.rss_mb)


class Context:
    """What one benchmark run shares between its passes."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.ops = list(WORKLOAD_OPS[workload])
        random.Random(seed).shuffle(self.ops)
        self.inputs = self.dir / "inputs.npz"
        self.graded_answers = None
        if GRADED in self.ops:
            self.graded_answers = write_graded_inputs(seed, self.inputs)
        # output bytes seen for this package source and machine (the BLAS
        # thread count moves trailing digits), kept across runs
        self.facts = machine_facts()
        self.digest_file = OUT / f"digests-{fingerprint(self.facts)}.json"
        self.digests = {}
        if self.digest_file.exists():
            self.digests = json.loads(self.digest_file.read_text())
        self.first = {}

    def same_as_before(self, key, value) -> bool:
        """Record value under key, or compare it with the recorded one."""
        seen = self.first.setdefault(key, self.digests.get(key, value))
        return seen == value

    def save_digests(self):
        self.digests.update(self.first)
        tmp = self.digest_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        tmp.replace(self.digest_file)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def fingerprint(facts: dict) -> str:
    digest = hashlib.sha256(json.dumps(facts, sort_keys=True).encode())
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "configs").glob("*.json"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def spawn(cmd, log: Path, ctx: Context) -> Child:
    """Run cmd to completion; rusage comes from os.wait4 on the child."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ctx.env, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, ctx.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


# ------------------------------------------------------------ CLI workloads


def op_name(cfg, argv) -> str:
    return f"{cfg}.{'-'.join(argv)}"


def count_columns(out_dir: Path) -> dict:
    """Cells of every CSV column whose header names a count."""
    found = {}
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        cols = {}
        for i, name in enumerate(header):
            if "count" in name:
                cols[name] = [_int_or_text(row[i]) for row in rows]
        if cols:
            found[path.name] = cols
    return found


def _int_or_text(cell: str):
    try:
        return int(cell)
    except ValueError:
        return cell


def verdicts_of(out_dir: Path) -> list:
    doc = json.loads((out_dir / "summary.json").read_text())
    return [[v["name"], v["pass"]] for v in doc["verdicts"]]


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")) + [out_dir / "summary.json"]:
        if path.exists():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_cli(name, code, out_dir: Path, ctx: Context) -> list:
    want = ctx.expected["cli"][name]
    problems = [] if code == 0 else [f"exit code {code}"]
    if not (out_dir / "summary.json").exists():
        return problems + ["no summary.json"]
    verdicts = verdicts_of(out_dir)
    failed = [v for v, ok in verdicts if not ok]
    if failed:
        problems.append(f"failed verdicts {failed}")
    if verdicts != want["verdicts"]:
        problems.append(f"verdicts {verdicts} != expected {want['verdicts']}")
    counts = count_columns(out_dir)
    if counts != want["counts"]:
        problems.append(f"counts {counts} != expected {want['counts']}")
    if not ctx.same_as_before(name, output_digest(out_dir)):
        problems.append("output bytes differ from an earlier pass")
    return problems


def run_pass(ctx: Context, index: int, traced: bool) -> Pass:
    """Every operation of the workload once, in the seeded order."""
    result = Pass()
    for op in ctx.ops:
        out_dir = ctx.dir / f"pass{index}" / (
            op if op == GRADED else op_name(*op))
        out_dir.mkdir(parents=True)
        trace = out_dir / "trace.json" if traced else None
        if op == GRADED:
            graded_op(ctx, out_dir, trace, result)
        else:
            cli_op(ctx, *op, out_dir, trace, result)
        if traced and trace.exists():
            result.traces.append(json.loads(trace.read_text()))
    return result


def cli_op(ctx: Context, cfg, argv, out_dir: Path, trace, result: Pass):
    name = op_name(cfg, argv)
    child = spawn(cli_command(cfg, argv, out_dir, trace),
                  out_dir / "log.txt", ctx)
    result.add(child)
    result.op_seconds[name] = child.wall
    problems = check_cli(name, child.code, out_dir, ctx)
    if problems:
        result.failures[name] = problems


def cli_command(cfg, argv, out_dir: Path, trace: Path = None) -> list:
    """python -m edgegap, or the tracing worker when trace is given."""
    args = [*argv, "--config", str(ROOT / "configs" / f"{cfg}.json"),
            "--out", str(out_dir)]
    if trace is None:
        return [PY, "-m", "edgegap", *args]
    return [PY, str(WORKER), "cli", str(trace), *args]


# ---------------------------------------------------------------- graded


def write_graded_inputs(seed: int, path: Path) -> list:
    """Seeded graded matrices in LogHermitian form; returns the exact
    counts.  M = D (C + D^-2) D, so rounding each entry perturbs C by a
    relative ~1e-16 and Sylvester's law keeps #{beta > 0} exact."""
    import numpy as np
    rng = np.random.default_rng(seed)
    arrays, answers = {}, []
    for i, n in enumerate(GRADED_SIZES):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        beta = rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)
        c = (q * beta) @ q.T
        g = rng.uniform(0.0, GRADING, n)
        core = 0.5 * (c + c.T) + THRESHOLD * np.diag(np.exp(-2.0 * g))
        with np.errstate(divide="ignore"):
            arrays[f"log_mag_{i}"] = (g[:, None] + g[None, :]
                                      + np.log(np.abs(core)))
        arrays[f"phase_{i}"] = np.where(core < 0, np.pi, 0.0)
        answers.append(int((beta > 0).sum()))
    np.savez(path, size=len(GRADED_SIZES), threshold=THRESHOLD,
             precision_cap=PRECISION_CAP, **arrays)
    return answers


def graded_op(ctx: Context, out_dir: Path, trace, result: Pass):
    """All graded counts in one fresh interpreter; each count is checked
    against its exact answer and against the previous passes."""
    out = out_dir / "result.json"
    cmd = [PY, str(WORKER), "graded", str(ctx.inputs), str(out)]
    child = spawn(cmd + ([str(trace)] if trace else []),
                  out_dir / "log.txt", ctx)
    result.add(child)
    result.op_seconds[GRADED] = child.wall
    counts = json.loads(out.read_text()) if out.exists() else []
    for i, (n, answer) in enumerate(zip(GRADED_SIZES, ctx.graded_answers)):
        name = f"graded.{i}-n{n}"
        if child.code != 0 or i >= len(counts):
            result.failures[name] = [f"exit code {child.code}"]
            continue
        got = dict(counts[i])
        result.op_seconds[name] = got.pop("seconds")
        problems = []
        if got["count"] != answer:
            problems.append(f"count {got['count']} != exact {answer}")
        if not ctx.same_as_before(f"{name}.seed{ctx.seed}", got):
            problems.append("report differs from an earlier pass")
        if problems:
            result.failures[name] = problems


# ------------------------------------------------------------- measuring


def attempted_ops(ctx: Context) -> int:
    return sum(len(GRADED_SIZES) if op == GRADED else 1 for op in ctx.ops)


def measure(ctx: Context, seconds: float) -> list:
    """Untraced passes until the next one would overrun seconds."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(ctx, len(passes), traced=False))
        now = time.monotonic()
        last = passes[-1].wall
        if len(passes) >= MIN_PASSES[ctx.workload] and \
                now - start + last > seconds:
            return passes
        if now + last > ctx.deadline:
            return passes


def setup(ctx: Context) -> float:
    """Wall time of a fresh interpreter that imports edgegap.cli and
    loads the workload's scenarios and graded inputs."""
    inputs = sorted({str(ROOT / "configs" / f"{op[0]}.json")
                     for op in ctx.ops if op != GRADED})
    if GRADED in ctx.ops:
        inputs.append(str(ctx.inputs))
    child = spawn([PY, str(WORKER), "setup", *inputs], ctx.dir / "setup.log",
                  ctx)
    if child.code != 0:
        raise RuntimeError(f"setup exited with {child.code}; see "
                           f"{(ctx.dir / 'setup.log').relative_to(ROOT)}")
    return child.wall


def quartiles(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def layer_metrics(traces: list) -> dict:
    """Self time and calls per span name, over every traced child."""
    names = [f"{m}.{a}" for m, a in LAYERS if a != "count_above"] + [
        "counting.count_above.hp_inertia", "counting.count_above.double_eig"]
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names + [f"{m}.{a}" for m, a in COUNTED], 0)
    bits, top = [], 0
    for doc in traces:
        spans = doc["spans"]
        inner = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _, extra), covered in zip(spans, inner):
            self_s[name] = self_s.get(name, 0.0) + end - start - covered
            calls[name] = calls.get(name, 0) + 1
            if name == "counting.count_above.hp_inertia":
                bits.append(extra[0])
                top += extra[0] >= extra[1]
        for name, n in doc["calls"].items():
            calls[name] += n
    metrics = {f"{name}.self_s": self_s[name] for name in names}
    metrics.update({f"{name}.calls": calls[name] for name in calls})
    # precision used by the hp_inertia counts, and the share that ended
    # on the top rung their cap allowed
    hp = "counting.count_above.hp_inertia"
    metrics[f"{hp}.precision_bits"] = statistics.median(bits) if bits else 0
    metrics[f"{hp}.top_rung_share"] = top / len(bits) if bits else 0.0
    metrics["import.edgegap_s"] = statistics.median(
        doc["import_s"] for doc in traces) if traces else 0.0
    return metrics


PROBE_METRICS = ("edge_comparison_s", "solve_fiber_s", "gap_model_s",
                 "product_gram_s", "count_gamma_m20_s", "count_gamma_m60_s",
                 "gamma_m60.noise_floor_log", "bs_count_s", "c_plus_s")


def run_probes(ctx: Context):
    """(metrics, failures, raw) of the fixed-size layer probes."""
    out = ctx.dir / "probes.json"
    child = spawn([PY, str(WORKER), "probes", str(out)],
                  ctx.dir / "probes.log", ctx)
    raw = json.loads(out.read_text()) if out.exists() else {}
    failures = {}
    for key, want in ctx.expected["probes"].items():
        if raw.get(key) != want:
            failures[f"probe.{key}"] = [
                f"{raw.get(key)} != expected {want} (exit code {child.code})"]
    metrics = {f"probe.{key}": raw.get(key, 0.0) for key in PROBE_METRICS}
    return metrics, failures, raw


def traced_run(ctx: Context):
    """Per-layer metrics: an untraced and a traced pass, then probes."""
    setup(ctx)  # fills the bytecode cache before either pass
    plain = run_pass(ctx, 0, traced=False)
    traced = run_pass(ctx, 1, traced=True)
    metrics = layer_metrics(traced.traces)
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    for cfg, argv in RESOLVENT + SURVEY:
        name = op_name(cfg, argv)
        metrics[f"cli.{name}_s"] = plain.op_seconds.get(name, 0.0)
    metrics["graded.pass_s"] = plain.op_seconds.get(GRADED, 0.0)
    failures = {**{f"untraced.{k}": v for k, v in plain.failures.items()},
                **{f"traced.{k}": v for k, v in traced.failures.items()}}
    attempted = 2 * attempted_ops(ctx)
    raw = {}
    if ctx.workload == "survey":
        # resolvent's traced run is long already
        probe_metrics, probe_failures, raw = run_probes(ctx)
        failures.update(probe_failures)
        attempted += len(ctx.expected["probes"])
    else:
        probe_metrics = {f"probe.{key}": 0.0 for key in PROBE_METRICS}
    metrics.update(probe_metrics)
    missing = sorted({m for doc in traced.traces for m in doc["missing"]})
    details = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
               "probes": raw, "missing_layers": missing,
               "op_seconds": plain.op_seconds}
    return metrics, failures, attempted, details


def untraced_run(ctx: Context, seconds: float):
    setup(ctx)  # fills the bytecode cache; not timed
    setup_s = [setup(ctx) for _ in range(SETUP_REPEATS)]
    passes = measure(ctx, seconds)
    stats = {"wall_s": quartiles(p.wall for p in passes),
             "cpu_s": quartiles(p.cpu for p in passes),
             "peak_rss_mb": quartiles(p.rss_mb for p in passes),
             "setup_s": quartiles(setup_s)}
    metrics = {name: s["median"] for name, s in stats.items()}
    failures = {}
    for i, p in enumerate(passes):
        failures.update({f"pass{i}.{k}": v for k, v in p.failures.items()})
    op_seconds = {name: quartiles(p.op_seconds[name] for p in passes
                                if name in p.op_seconds)
                  for name in passes[0].op_seconds}
    details = {"stats": stats, "op_seconds": op_seconds}
    return metrics, failures, len(passes) * attempted_ops(ctx), details


# ---------------------------------------------------------------- report


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(numpy)}


def blas_threads(numpy):
    """Threads OpenBLAS runs with, asked of the library numpy loaded;
    falls back to the requested count."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOAD_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [ROOT / "src" / "edgegap" / "cli.py"] + [
        ROOT / "configs" / f"{c}.json"
        for c in ("reference", "growth", "finiteness")]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not an edgegap checkout, missing {absent}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    ctx = Context(args.workload, args.seed,
                  time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        metrics, failures, attempted, details = traced_run(ctx)
    else:
        metrics, failures, attempted, details = untraced_run(ctx,
                                                             args.seconds)
    ctx.save_digests()
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not "
              "both computed and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(failures)
    report = {"workload": args.workload, "why": why,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": ctx.facts,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "failures": failures,
              "metrics": metrics, **details}
    path = ctx.dir / f"report-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    for name, stat in details.get("stats", {}).items():
        print(f"{name}: median {stat['median']:.4g} {units[name]} "
              f"(q1 {stat['q1']:.4g}, q3 {stat['q3']:.4g}, n {stat['n']})")
    if details.get("missing_layers"):
        print(f"missing layers, reported as 0: {details['missing_layers']}")
    for name, problems in failures.items():
        print(f"FAIL {name}: {'; '.join(problems)}")
    print(f"{args.workload}: {attempted - failed}/{attempted} operations "
          f"correct, fail_ratio {failed / attempted:g}; report in "
          f"{path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
