"""Child-process side of the edgegap benchmark (see run.py).

run.py starts every operation in a fresh interpreter, so no lru_cache
of the package carries over from one operation to the next.  Modes:

    worker.py setup <input>...               import edgegap.cli, load inputs
    worker.py cli <trace.json> <argv>...     edgegap.cli.run(argv), traced
    worker.py graded <inputs.npz> <result.json> [<trace.json>]
    worker.py probes <result.json>           layers at fixed sizes

A trace file holds the spans [name, start, end, parent, extra] recorded
around each public function in LAYERS, the call counts of COUNTED, the
import time of edgegap.cli and the LAYERS entries this version of the
package lacks.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

# (module, attribute) of each traced public function; a class is traced
# through its __init__.  count_above spans are renamed by the route taken.
LAYERS = (
    ("fiber", "edge_comparison"),
    ("fiber", "GapModel"),
    ("fiber", "solve_fiber"),
    ("fiber", "phi_squared"),
    ("bsham", "bs_count"),
    ("bsham", "sjstar_sj"),
    ("operators", "product_gram"),
    ("modelops", "q_operator"),
    ("modelops", "g_sinc"),
    ("modelops", "gamma_gram"),
    ("counting", "count_above"),
    ("geometry", "c_plus"),
    ("geometry", "c_minus"),
    ("scenario", "load_scenario"),
)
# called too often for a span each; only the calls are counted
COUNTED = (("geometry", "kappa"),)


class Tracer:
    """Spans around the package's public functions, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = {}
        self.missing = []

    def _span(self, name, fn, finish=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if finish is not None:
                finish(span, result, args, kwargs)
            return result
        return traced

    def _counter(self, name, fn):
        self.calls[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap each listed function in every edgegap module that binds
        it: cli and bsham import solve_fiber and friends by name, so
        patching the defining module alone would miss their calls."""
        for module, attr in LAYERS + COUNTED:
            name = f"{module}.{attr}"
            target = getattr(importlib.import_module(f"edgegap.{module}"),
                             attr, None)
            if target is None:
                self.missing.append(name)
            elif (module, attr) in COUNTED:
                _rebind(target, self._counter(name, target))
            elif inspect.isclass(target):
                target.__init__ = self._span(name, target.__init__)
            elif attr == "count_above":
                _rebind(target, self._span(name, target,
                                           _count_finish(target)))
            else:
                _rebind(target, self._span(name, target))

    def dump(self, path, import_s):
        doc = {"import_s": import_s, "spans": self.spans,
               "calls": self.calls, "missing": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(old, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "edgegap" or mod_name.startswith("edgegap."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def _count_finish(count_above):
    signature = inspect.signature(count_above)

    def finish(span, report, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span[0] = f"counting.count_above.{report.route}"
        span[4] = [report.precision_bits,
                   bound.arguments.get("precision_cap")]
    return finish


def _import_cli():
    start = time.perf_counter()
    import edgegap.cli  # noqa: F401
    return time.perf_counter() - start


def setup(paths):
    _import_cli()
    import numpy as np
    from edgegap.scenario import load_scenario
    for path in paths:
        if path.endswith(".npz"):
            with np.load(path) as inputs:
                for key in inputs.files:
                    inputs[key]  # an NpzFile reads an array on access
        else:
            load_scenario(path)


def cli(trace_path, argv):
    import_s = _import_cli()
    tracer = Tracer()
    tracer.install()
    import edgegap.cli
    code = edgegap.cli.run(argv)
    tracer.dump(trace_path, import_s)
    return code


def graded(inputs_path, result_path, trace_path=None):
    """Count every matrix of the inputs file, in file order."""
    import_s = _import_cli()
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    import numpy as np
    import edgegap.counting as counting
    results = []
    with np.load(inputs_path) as inputs:
        threshold = float(inputs["threshold"])
        cap = int(inputs["precision_cap"])
        for i in range(int(inputs["size"])):
            logm = counting.LogHermitian(inputs[f"log_mag_{i}"],
                                         inputs[f"phase_{i}"])
            start = time.perf_counter()
            rep = counting.count_above(logm, threshold, precision_cap=cap)
            seconds = time.perf_counter() - start
            results.append({"n": logm.n, "count": rep.count,
                            "route": rep.route, "bits": rep.precision_bits,
                            "margin": repr(rep.margin),
                            "warnings": list(rep.warnings),
                            "seconds": seconds})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    if tracer is not None:
        tracer.dump(trace_path, import_s)


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def probes(result_path):
    """The layers at the fixed sizes of the baseline in ROADMAP.md.

    The twin edge comparison runs first, so its lru_cache is cold, and
    product_gram runs last, because timing it installs the tracer."""
    from pathlib import Path
    _import_cli()
    from edgegap import bsham, counting, fiber, geometry, modelops
    from edgegap.scenario import load_scenario
    root = Path(__file__).resolve().parent.parent
    sc = load_scenario(str(root / "configs" / "reference.json"))
    disc = fiber.FiberDiscretization(b=sc.b, w=sc.w, n=2001)
    rect = geometry.PolygonDomain([(0.05, -0.5), (0.6, -0.5),
                                   (0.6, 0.5), (0.05, 0.5)])
    out = {}
    out["edge_comparison_s"], _ = _median_time(
        lambda: fiber.edge_comparison(disc, 1, 5.0), 1)
    out["solve_fiber_s"], _ = _median_time(
        lambda: fiber.solve_fiber(disc, 1.0, 3), 21)
    k_hi = bsham.k_truncation(sc.j, sc.b, sc.v.support.x_extent[1],
                              sc.a_momentum)
    out["gap_model_s"], _ = _median_time(
        lambda: fiber.GapModel(sc.b, sc.w, sc.j, sc.a_momentum, k_hi), 1)
    for m in (20, 60):
        gram = modelops.gamma_gram("minus", m, 0.1, rect, sc.quad, sc.b)
        out[f"count_gamma_m{m}_s"], rep = _median_time(
            lambda: counting.count_above(gram.kernel, 1.0,
                                         precision_cap=sc.precision_bits), 1)
        out[f"gamma_m{m}.count"] = rep.count
        out[f"gamma_m{m}.route"] = rep.route
        out[f"gamma_m{m}.noise_floor_log"] = gram.meta["noise_floor_log"]
    out["bs_count_s"], out["bs_count.count"] = _median_time(
        lambda: bsham.bs_count(sc.j, 1e-3, sc,
                               j_sum=int(sc.verify_params("bs")["j_sum"])), 1)
    out["c_plus_s"], _ = _median_time(lambda: geometry.c_plus(rect), 5)

    # product_gram at n = 128: its spans inside gamma_gram("minus", 20)
    tracer = Tracer()
    tracer.install()
    for _ in range(5):
        modelops.gamma_gram("minus", 20.0, 0.1, rect, sc.quad, sc.b)
    gram_s = [end - start for name, start, end, _, _ in tracer.spans
              if name == "operators.product_gram"]
    out["product_gram_s"] = statistics.median(gram_s) if gram_s else 0.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest)
    elif mode == "cli":
        return cli(rest[0], rest[1:])
    elif mode == "graded":
        graded(*rest)
    elif mode == "probes":
        probes(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
