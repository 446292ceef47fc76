"""In-process traced CLI run, and the per-layer metrics computed from it.

Usage: python tracer.py <spans.pickle> <specfield CLI arguments...>

Wraps the public entry points of each specfield module without changing the
package: module-level functions are rebound where cli, config, synthesis and
verification look them up, and class methods are wrapped in place.  Each call
becomes a span (name, start, end, parent) kept in memory; the spans and a few
counters taken at the same boundaries are pickled when the run ends (JSON
would take long enough to skew the trace-completeness check).
A span's name is "<layer>.<entry point>", the layer being the module that
defines the entry point.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time

# (module, names) of the module-level entry points per layer
FUNCTIONS = (
    ("config", ("parse_config",)),
    ("grids", ("dyadic_frequency_grid", "uniform_spatial_grid")),
    ("spectral", ("require_admissible", "check_admissible", "check_domination",
                  "estimate_min_C", "difference_density")),
    ("rng", ("hermitian_noise",)),
    ("covariance", ("covariance_matrix",)),
    ("verification", ("verify_comparison", "verify_anderson_shift", "verify_anderson_sum",
                      "verify_coupling_law", "coupling_norm_quantiles",
                      "estimate_holder_exponent", "compare_counts")),
    ("cli", ("run",)),
)
# (module, class, methods) wrapped in place
METHODS = (
    ("synthesis", "SpectralSynthesizer", ("__init__", "sample")),
    ("synthesis", "CouplingSynthesizer", ("__init__", "sample")),
    ("norms", "SupNorm", ("__call__",)),
    ("norms", "HolderNorm", ("__call__",)),
)
CALLERS = ("cli", "config", "synthesis", "verification")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(self.counters, args, result)
            return result
        return traced


def _count_entries(key):
    """Counter of computed synthesis-matrix entries (points x nodes)."""
    def after(counters, args, result):
        synth = args[0]
        entries = synth.spatial_grid.size * synth.frequency_grid.size
        counters[key] = counters.get(key, 0) + entries
    return after


def _count_nodes(counters, args, grid):
    counters["grid_nodes"] = max(counters.get("grid_nodes", 0), grid.size)


def install(tracer: Tracer):
    """Wrap every entry point that exists; missing names are skipped."""
    modules = {name: importlib.import_module(f"specfield.{name}")
               for name in {m for m, _ in FUNCTIONS} | {m for m, _, _ in METHODS}
               | set(CALLERS)}
    for layer, names in FUNCTIONS:
        for name in names:
            original = getattr(modules[layer], name, None)
            if original is None:
                continue
            after = _count_nodes if name == "dyadic_frequency_grid" else None
            wrapped = tracer.wrap(f"{layer}.{name}", original, after)
            for caller in CALLERS:
                if getattr(modules[caller], name, None) is original:
                    setattr(modules[caller], name, wrapped)
    for layer, class_name, methods in METHODS:
        cls = getattr(modules[layer], class_name, None)
        for method in methods if cls is not None else ():
            after = None
            if class_name == "SpectralSynthesizer":
                after = _count_entries("matrix_entries" if method == "__init__"
                                       else "sample_entries")
            setattr(cls, method, tracer.wrap(f"{layer}.{class_name}.{method}",
                                             getattr(cls, method), after))


# --------------------------------------------------------------------------
# per-layer metrics from the written spans


def self_times(spans):
    """Per span name: (total self time, call count), and per layer self time."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    by_layer = {}
    for (name, start, end, _), inner in zip(spans, child):
        own = end - start - inner
        total, calls = by_name.get(name, (0.0, 0))
        by_name[name] = (total + own, calls + 1)
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return by_name, by_layer


def layer_metrics(trace: dict, traced_wall: float, import_s: float) -> dict:
    """Every per-layer metric of the traced run (0 where a layer did no work)."""
    spans, counters = trace["spans"], trace["counters"]
    by_name, by_layer = self_times(spans)

    def own(*names):
        return sum(by_name.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return by_name.get(name, (0.0, 0))[1]

    def per_call(name, layer_total):
        return layer_total / calls(name) if calls(name) else 0.0

    def inclusive(name):
        return sum(end - start for n, start, end, _ in spans if n == name)

    sample = "synthesis.SpectralSynthesizer.sample"
    sample_self = own(sample)
    norm_calls = calls("norms.SupNorm.__call__") + calls("norms.HolderNorm.__call__")
    sample_bytes = 16 * counters.get("sample_entries", 0)
    return {
        "config.parse_ms": 1e3 * own("config.parse_config"),
        "cli.import_s": import_s,
        "grids.build_ms": 1e3 * by_layer.get("grids", 0.0),
        "grids.nodes": counters.get("grid_nodes", 0),
        "spectral.admissibility_ms": 1e3 * own("spectral.require_admissible",
                                               "spectral.check_admissible"),
        "spectral.admissibility_calls": calls("spectral.require_admissible"),
        "spectral.domination_ms": 1e3 * own("spectral.check_domination",
                                            "spectral.estimate_min_C"),
        "rng.noise_us": 1e6 * per_call("rng.hermitian_noise", by_layer.get("rng", 0.0)),
        "rng.noise_calls": calls("rng.hermitian_noise"),
        "rng.share": by_layer.get("rng", 0.0) / traced_wall,
        "synthesis.build_s": own("synthesis.SpectralSynthesizer.__init__",
                                 "synthesis.CouplingSynthesizer.__init__"),
        "synthesis.matrix_mb": 16 * counters.get("matrix_entries", 0) / 1e6,
        "synthesis.sample_us": 1e6 * per_call(sample, sample_self),
        "synthesis.samples": calls(sample),
        "synthesis.share": by_layer.get("synthesis", 0.0) / traced_wall,
        # computed, not measured: a complex matvec does 8 flops per 16-byte entry
        "synthesis.flop_per_byte": 0.5 if sample_bytes else 0.0,
        "synthesis.matvec_gbps": sample_bytes / sample_self / 1e9 if sample_self else 0.0,
        "norms.eval_us": 1e6 * by_layer.get("norms", 0.0) / norm_calls if norm_calls else 0.0,
        "norms.calls": norm_calls,
        "covariance.assemble_ms": 1e3 * by_layer.get("covariance", 0.0),
        "verification.self_s": by_layer.get("verification", 0.0),
        "verification.verdict_ms": 1e3 * own("verification.compare_counts"),
        "verification.pilot_s": inclusive("verification.coupling_norm_quantiles"),
        "cli.write_ms": 1e3 * own("cli.run"),
        "trace.coverage": (sum(by_layer.values()) + import_s) / traced_wall,
    }


def main(argv):
    tracer = Tracer()
    import specfield.cli as cli
    install(tracer)
    console_main = tracer.wrap("cli.console_main", cli.console_main)
    try:
        return console_main(argv[1:])
    finally:
        with open(argv[0], "wb") as handle:
            pickle.dump({"spans": tracer.spans, "counters": tracer.counters}, handle,
                        protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
