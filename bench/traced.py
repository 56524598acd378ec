"""Run one `spt` invocation with spans around the calls into each layer.

    python bench/traced.py TRACE_FILE ARGS...

ARGS are the `spt` arguments.  Spans are (name, start, end, parent
index) in time.perf_counter() seconds, kept in memory and written with
the counters to TRACE_FILE at exit.  On Linux that clock is
CLOCK_MONOTONIC, shared by every process, so the parent can measure the
setup span (interpreter start plus `import sptqmc.cli`) from its own
spawn time to the `imported` time recorded here.

Functions are wrapped at the name their caller looks up, since modules
import by name.  Per-move and per-step functions are not wrapped: they
run hundreds of thousands of times per invocation.
"""

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(args, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    from sptqmc import cli, estimators, rqmc, rspt, spectral, symexpr, walker

    add, wrap = tracer.add, tracer.wrap

    def top_terms(args, series):
        tracer.counts["rspt.terms"] = max(tracer.counts.get("rspt.terms", 0), len(series[max(series)].epsilon.terms))

    def samples(args, result):
        add("estimators.samples", args[0].analysis_values.size)

    cli.run = wrap("cli.run", cli.run)
    cli.RunReport.to_json = wrap("cli.report", cli.RunReport.to_json)
    cli.write_series_csv = wrap("cli.series_write", cli.write_series_csv, lambda a, r: add("cli.series_rows", a[1].values.size))
    cli.read_series_csv = wrap("cli.series_read", cli.read_series_csv, lambda a, r: add("cli.series_rows", r.values.size))
    rspt.epsilon_series = wrap("rspt.epsilon_series", rspt.epsilon_series, top_terms)
    rspt.render_sum_over_states = wrap("rspt.render_sum_over_states", rspt.render_sum_over_states)
    symexpr.render_text = wrap("symexpr.render", symexpr.render_text)
    symexpr.render_json = wrap("symexpr.render", symexpr.render_json)
    # spectral binds symexpr.evaluate by name at import
    spectral.evaluate = wrap("symexpr.evaluate", spectral.evaluate, lambda a, r: add("symexpr.evaluate_calls", 1))
    spectral.g_value = wrap("spectral.g_value", spectral.g_value, lambda a, r: add("spectral.g_value_calls", 1))
    spectral.load_model = wrap("spectral.load_model", spectral.load_model)
    spectral.evaluate_epsilons = wrap("spectral.evaluate_epsilons", spectral.evaluate_epsilons)
    spectral.taylor_oracle = wrap("spectral.taylor_oracle", spectral.taylor_oracle)
    walker.sample_local_energy_series = wrap(
        "walker.sample", walker.sample_local_energy_series, lambda a, r: add("walker.steps", r.values.size)
    )
    estimators.vmc_estimate = wrap("estimators.vmc_estimate", estimators.vmc_estimate, samples)
    estimators.autocorrelation_integral = wrap(
        "estimators.autocorrelation_integral", estimators.autocorrelation_integral, samples
    )
    estimators.action_moments = wrap("estimators.action_moments", estimators.action_moments, samples)
    estimators.stochastic_epsilons = wrap("estimators.stochastic_epsilons", estimators.stochastic_epsilons)
    estimators.blocking_levels = wrap("estimators.blocking", estimators.blocking_levels)
    rqmc.run_reptation = wrap("rqmc.run_reptation", rqmc.run_reptation)
    rqmc.init_reptile = wrap("rqmc.init_reptile", rqmc.init_reptile)

    plain_sweep = rqmc.ReptationSampler.sweep

    def counted_sweep(sampler):
        proposed, accepted = sampler.moves_proposed, sampler.moves_accepted
        plain_sweep(sampler)
        add("rqmc.moves", sampler.moves_proposed - proposed)
        add("rqmc.accepted", sampler.moves_accepted - accepted)

    rqmc.ReptationSampler.sweep = wrap("rqmc.sweep", counted_sweep)


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import sptqmc.cli

    record = {"imported": time.perf_counter()}
    tracer = Tracer()
    instrument(tracer)
    record["main_start"] = time.perf_counter()
    try:
        code = sptqmc.cli.main(argv)
    finally:
        record["main_end"] = time.perf_counter()
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
