"""Command-line entry point: `spt <subcommand>`.

Subcommands: symbolic, spectral, vmc, spt-orders, rqmc.  Runs are
configured through `key = value` files (the grammar of `sptqmc.keyvalue`),
every random number flows from one master
seed, and each run can write a canonical JSON report.  Reports are
byte-identical for identical config + seed, for any `workers` and any
core count: each worker's chain draws from its own stream, wall time
goes to stderr, never into the file, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
import tempfile
import time
import warnings
from collections.abc import Callable, Collection, Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import _STARTED, errors, keyvalue
from .parallel import fork_imap

if TYPE_CHECKING:  # each runner imports the modules it runs, so that a subcommand loads only what it uses
    from . import estimators, rqmc

SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_UNEXPECTED = 1

CSV_CHUNK_ROWS = 65536  # rows formatted per write, which bounds a CSV write's memory


class ConfigError(ValueError):
    """Bad config text or invalid/missing keys."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    parameters: dict
    seed: int = 0
    output_path: str | None = None


@dataclass
class RunReport:
    """In-memory run record; `report` is the serializable payload."""

    report: dict
    human: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        # numpy arrays and scalars become plain values; np.float64 is a float and keeps its digits
        return json.dumps(self.report, sort_keys=True, indent=2, default=lambda value: value.tolist()) + "\n"


# ---------------------------------------------------------------------------
# config schema: one row per key

_NEEDED = object()  # the default of a key that the config must set


@dataclass(frozen=True)
class _Key:
    """A config key: its type, its default, and the test a value must pass.

    `ok` is a predicate, or the collection of allowed values; a value that
    fails it raises `message`, formatted with the key, the value and, for a
    collection, `hint`, its nearest member.  A `stand_in` key that is set
    (a saved series) supplies every _NEEDED key of its subcommand.
    """

    kind: type
    default: object = None
    ok: Callable | Collection | None = None
    message: str = ""
    stand_in: bool = False


_ABOVE_ZERO = (lambda value: value > 0, "key '{key}' must be positive, got {value!r}")
_NOT_BELOW_ZERO = (lambda value: value >= 0, "key '{key}' must be >= 0, got {value!r}")

# potential name -> its constructor from sptqmc.walker and the parameters; the first is the default
_POTENTIALS = {
    "harmonic": lambda walker, params: walker.HarmonicPotential(),
    "quartic": lambda walker, params: walker.QuarticPotential(params["quartic_coupling"]),
    "doublewell": lambda walker, params: walker.DoubleWellPotential(params["barrier"], params["half_separation"]),
}

_WALKER_KEYS = {
    "trial": _Key(str, "gaussian", ("gaussian",), "unknown trial '{value}'; only 'gaussian' is built in"),
    "alpha": _Key(float, _NEEDED, _ABOVE_ZERO[0], "alpha must be positive, got {value!r}"),
    "potential": _Key(str, next(iter(_POTENTIALS)), _POTENTIALS, "unknown potential '{value}'{hint}"),
    "quartic_coupling": _Key(float, 0.0, *_NOT_BELOW_ZERO),
    "barrier": _Key(float, 1.0),
    "half_separation": _Key(float, 1.0, *_ABOVE_ZERO),
    "epsilon": _Key(float, _NEEDED, *_ABOVE_ZERO),
}

_CHAIN_KEYS = {
    "series_out": _Key(str),
    "workers": _Key(int, 1, *_ABOVE_ZERO),
}

_SERIES_KEYS = {
    **_WALKER_KEYS,
    "steps": _Key(int, _NEEDED, *_ABOVE_ZERO),
    "burn_in": _Key(int, 0, *_NOT_BELOW_ZERO),
    "series": _Key(str, stand_in=True),
    **_CHAIN_KEYS,
}

_ORDER = {"order": _Key(int, _NEEDED, *_ABOVE_ZERO)}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "symbolic": {**_ORDER, "sum_over_states": _Key(bool, False)},
    "spectral": {"model": _Key(str, _NEEDED), **_ORDER, "oracle": _Key(bool, False)},
    "vmc": _SERIES_KEYS,
    "spt-orders": {
        **_SERIES_KEYS,
        "max_order": _Key(int, 3, *_ABOVE_ZERO),
        "allow_high_orders": _Key(bool, False),
        "tau_grid": _Key(list),
        "tau_min_factor": _Key(float, 10.0),
        "tau_max_factor": _Key(float, 40.0),
        "tau_points": _Key(int, 8, *_ABOVE_ZERO),
    },
    "rqmc": {
        **_WALKER_KEYS,
        "n_beads": _Key(int, _NEEDED, lambda value: value >= 2, "n_beads must be at least 2, got {value!r}"),
        "sweeps": _Key(int, _NEEDED, lambda value: value >= 2, "sweeps must be at least 2, got {value!r}"),
        "burn_in_sweeps": _Key(int, None, *_NOT_BELOW_ZERO),
        "direction_policy": _Key(
            str, "bounce", ("bounce", "random"), "direction_policy must be bounce or random, got '{value}'"
        ),
        "proposal_correction": _Key(bool, False),
        "equilibration_steps": _Key(int, 1000, *_ABOVE_ZERO),
        **_CHAIN_KEYS,
    },
}

_COMMON_KEYS = ("seed", "output", "subcommand")  # read by _config_from, for every subcommand

# keys whose presence identifies the subcommand when none is stated, tried in this order
_SIGNATURE_KEYS = {
    "rqmc": {"n_beads", "sweeps"},
    "spt-orders": {"max_order", "tau_grid", "tau_points", "tau_min_factor", "tau_max_factor", "allow_high_orders"},
    "spectral": {"model"},
    "vmc": {"steps", "alpha", "epsilon", "series"},
    "symbolic": {"order"},
}


def _infer_subcommand(keys: set) -> str:
    for name, signature in _SIGNATURE_KEYS.items():
        if keys & signature:
            return name
    raise ConfigError(
        "cannot infer the subcommand from the config keys; add 'subcommand = <name>'"
    )


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean '{close[0]}'?" if close else ""


def validate_parameters(subcommand: str, given: dict) -> dict:
    """Each of the subcommand's keys, typed, checked and defaulted, by its schema row."""
    schema = _SCHEMAS.get(str(subcommand))
    if schema is None:
        raise ConfigError(f"unknown subcommand '{subcommand}'{_suggest(str(subcommand), _SCHEMAS)}")
    for key in given:
        if key not in schema and key not in _COMMON_KEYS:
            raise ConfigError(f"unknown key '{key}' for {subcommand}{_suggest(key, [*schema, *_COMMON_KEYS])}")
    stood_in = any(row.stand_in and given.get(key) is not None for key, row in schema.items())
    params: dict = {}
    for key, row in schema.items():
        value = keyvalue.typed(key, given[key], row.kind, ConfigError) if key in given else row.default
        if value is _NEEDED:
            if not stood_in:
                raise ConfigError(f"{subcommand} config missing required key '{key}'")
            value = None
        if value is not None and row.ok is not None:
            members = () if callable(row.ok) else row.ok
            if not (value in members if members else row.ok(value)):
                raise ConfigError(row.message.format(key=key, value=value, hint=_suggest(str(value), members)))
        params[key] = value
    if "max_order" in params:
        from . import estimators
        if params["max_order"] > estimators.DEFAULT_MAX_STOCHASTIC_ORDER and not params["allow_high_orders"]:
            raise ConfigError(f"max_order {params['max_order']}: {estimators.HIGH_ORDER_WARNING}")
    # the Gaussian trial's step x' = (1 - alpha epsilon) x + noise has a stationary law only below 2
    if "alpha" in schema and not stood_in and params["alpha"] * params["epsilon"] >= 2.0:
        raise ConfigError(
            f"alpha * epsilon = {params['alpha'] * params['epsilon']!r}: the Langevin walk diverges "
            "unless alpha * epsilon < 2; reduce epsilon"
        )
    return params


def parse_config(text: str, subcommand: str | None = None) -> RunConfig:
    """Parse and validate config text into a RunConfig.

    The subcommand is taken from the argument, else from a `subcommand`
    key, else inferred from which signature keys appear.
    """
    return _config_from(keyvalue.read_entries(text, ConfigError), subcommand)


def _config_from(given: dict, subcommand: str | None) -> RunConfig:
    """Validated RunConfig from parsed keys; the one path every config takes."""
    sub = subcommand or given.get("subcommand") or _infer_subcommand(set(given))
    seed = keyvalue.typed("seed", given.get("seed", 0), int, ConfigError)
    output = given.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path string, got {output!r}")
    params = validate_parameters(sub, given)
    return RunConfig(subcommand=sub, parameters=params, seed=seed, output_path=output)


# ---------------------------------------------------------------------------
# serialization helpers


def _atomic_write(path: str, chunks: str | Iterable[str]) -> None:
    """Write text, whole or as a stream of chunks, to a temp file beside path, then rename it over path."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".spt-", suffix=".tmp", delete=False, encoding="utf-8"
    )
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _estimate_dict(est: estimators.EstimateWithError) -> dict:
    return {
        "mean": float(est.mean),
        "err": float(est.std_error),
        "autocorr_time": float(est.autocorr_time),
        "effective_samples": float(est.effective_samples),
    }


def _csv_chunks(header: str, n_rows: int, rows: Callable[[int, int], str]) -> Iterator[str]:
    """The header, then rows(start, stop) over blocks of CSV_CHUNK_ROWS rows, formatted on every usable core."""
    yield header
    yield from fork_imap(lambda start: rows(start, min(start + CSV_CHUNK_ROWS, n_rows)), range(0, n_rows, CSV_CHUNK_ROWS))


def write_series_csv(path: str, series: estimators.LocalEnergySeries) -> None:
    """Save a series as `index,value` rows under its epsilon and burn_in header."""
    values = series.values

    def rows(start: int, stop: int) -> str:
        return "".join([f"{i},{v!r}\n" for i, v in enumerate(values[start:stop].tolist(), start)])

    header = f"# epsilon = {float(series.step)!r}\n# burn_in = {series.burn_in}\nstep,W\n"
    _atomic_write(path, _csv_chunks(header, values.size, rows))


def _write_sweeps_csv(path: str, run: rqmc.RQMCRunResult) -> None:
    """Save an RQMC run's per-sweep tail and head W and total action."""
    ends, actions = run.series, run.actions

    def rows(start: int, stop: int) -> str:
        return "".join([
            f"{i},{tail!r},{head!r},{action!r}\n"
            for i, (tail, head), action in zip(
                range(start, stop), ends[start:stop].tolist(), actions[start:stop].tolist()
            )
        ])

    _atomic_write(path, _csv_chunks("sweep,w_tail,w_head,action\n", run.sweeps, rows))


def read_series_csv(path: str) -> estimators.LocalEnergySeries:
    """Load a series file: `#` header lines and `step,W`, then `index,value` rows.

    The header is read line by line and the data rows by np.loadtxt, which
    also skips blank lines and `#` comments among them.  A malformed file
    raises ConfigError naming it, and the offending line where there is one.
    """
    try:
        return _read_series_csv(path)
    except UnicodeDecodeError:
        raise ConfigError(f"series file {path} is not UTF-8 text") from None


def _read_series_csv(path: str) -> estimators.LocalEnergySeries:
    import numpy as np
    from . import estimators
    epsilon = None
    burn_in = 0
    header_lines = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if text and not text.startswith(("#", "step,")):
                break
            header_lines += 1
            if text.startswith("#"):
                key, _, value = text.lstrip("#").partition("=")
                key = key.strip()
                try:
                    if key == "epsilon":
                        epsilon = float(value)
                    elif key == "burn_in":
                        burn_in = int(value)
                except ValueError:
                    raise ConfigError(
                        f"series file {path}, line {header_lines}: bad {key} value {value.strip()!r}"
                    ) from None
    if epsilon is None:
        raise ConfigError(f"series file {path} lacks the '# epsilon = ...' header")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=header_lines, encoding="utf-8")
        except ValueError:
            rows = None
    if rows is not None and rows.size == 0:
        raise ConfigError(f"series file {path} has no data rows")
    if rows is None or rows.shape[1] != 2 or not np.isfinite(rows[:, 1]).all():
        raise ConfigError(_bad_row_message(path, header_lines))
    # Move the W column to the front of the rows' own buffer, block by block
    # (only the first block overlaps its source), so the file's values are
    # never held twice, then shrink the buffer to those n values.
    n = rows.shape[0]
    flat = rows.reshape(-1)
    for start in range(0, n, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, n)
        flat[start:stop] = rows[start:stop, 1]
    del flat
    rows.resize(n, refcheck=False)
    try:
        return estimators.LocalEnergySeries(values=rows, step=epsilon, burn_in=burn_in)
    except ValueError as exc:
        raise ConfigError(f"series file {path}: {exc}") from None


def _bad_row_message(path: str, header_lines: int) -> str:
    """Name the first data row that is not `index,value` with a finite value."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            text = line.partition("#")[0].strip()
            if lineno <= header_lines or not text:
                continue
            try:
                _, value = map(float, text.split(","))
                ok = math.isfinite(value)
            except ValueError:
                ok = False
            if not ok:
                return (
                    f"series file {path}, line {lineno}: "
                    f"expected 'index,value' with a finite value, got {text!r}"
                )
    return f"series file {path}: cannot read its data rows as 'index,value'"


# ---------------------------------------------------------------------------
# subcommand runners


def _build_trial_potential(params: dict):
    from . import walker
    return walker.GaussianTrial(alpha=params["alpha"]), _POTENTIALS[params["potential"]](walker, params)


def _run_symbolic(config: RunConfig) -> tuple[dict, list[str]]:
    from . import rspt, symexpr
    order = config.parameters["order"]
    series = rspt.epsilon_series(order)
    orders = {}
    human = []
    for n in range(1, order + 1):
        eps = series[n].epsilon
        entry = {
            "text": symexpr.render_text(eps),
            "json": symexpr.render_json(eps),
        }
        if config.parameters["sum_over_states"]:
            entry["sum_over_states"] = rspt.render_sum_over_states(eps)
        orders[str(n)] = entry
        human.append(f"epsilon_{n} = {entry['text']}")
        if "sum_over_states" in entry:
            human.append(f"          = {entry['sum_over_states']}")
    return {"orders": orders}, human


def _run_spectral(config: RunConfig) -> tuple[dict, list[str]]:
    from . import spectral
    params = config.parameters
    model = spectral.load_model(params["model"])
    order = params["order"]
    eps = [float(v) for v in spectral.evaluate_epsilons(model, order)]
    rows = []
    if params["oracle"]:
        oracle = spectral.rs_oracle(model, order)
        header = "n,epsilon_n,oracle_c_n,rel_diff"
        for n in range(1, order + 1):
            c = float(oracle[n])
            denom = max(abs(c), 1e-10)
            rows.append((n, eps[n - 1], c, abs(eps[n - 1] - c) / denom))
        human = [header] + [f"{n},{e!r},{c!r},{d!r}" for n, e, c, d in rows]
        results = {
            "orders": {
                str(n): {"epsilon": e, "oracle": c, "rel_diff": d} for n, e, c, d in rows
            },
            "oracle_self_check": oracle.self_check,
        }
    else:
        header = "n,epsilon_n"
        human = [header] + [f"{n},{eps[n - 1]!r}" for n in range(1, order + 1)]
        results = {"orders": {str(n): {"epsilon": eps[n - 1]} for n in range(1, order + 1)}}
    results["model"] = {"dim": model.dim, "gap": model.gap}
    return results, human


def _series_walk(params: dict, seed: int) -> Callable[[int], estimators.LocalEnergySeries]:
    """walk(worker): the worker's series, read from `series` or sampled."""
    from . import walker  # here, before the chains fork, so that no chain imports it

    def walk(worker: int) -> estimators.LocalEnergySeries:
        if params.get("series"):
            return read_series_csv(params["series"])
        rng = walker.derive_rng(seed, "vmc-chain", worker)
        keys = {key: params[key] for key in ("epsilon", "steps", "burn_in")}
        return walker.sample_local_energy_series(*_build_trial_potential(params), rng=rng, **keys)

    return walk


def _run_chains(params: dict, walk: Callable, analyse: Callable, write: Callable) -> list:
    """analyse(walk(worker)) for each worker, in worker order, the chains on every usable core.

    Worker 0's walk is saved to `series_out` by write(path, walked) here,
    after the chains so the writer can fork too, and before a chain's
    error is raised; no chain starts after a failed one.
    """
    workers = params["workers"] if not params.get("series") else 1
    save = params.get("series_out")

    def chain(worker: int):
        walked = result = error = None
        try:
            walked = walk(worker)
            result = analyse(walked)
        except Exception as exc:  # raised in the caller, after worker 0's walk is saved
            error = exc
        return result, error, walked if save and worker == 0 else None

    outcomes = []
    with closing(fork_imap(chain, range(workers))) as chains:
        for outcome in chains:
            outcomes.append(outcome)
            if outcome[1] is not None:
                break  # the chains after a failed one are not run, or are cancelled
    results, errors, kept = zip(*outcomes)
    if kept[0] is not None:
        write(save, kept[0])
    if errors[-1] is not None:
        raise errors[-1]
    return list(results)


def _vmc_chain(series: estimators.LocalEnergySeries):
    """The chain's estimate, and the epsilon, steps and burn_in of the series it analysed."""
    from . import estimators
    walked = {"epsilon": series.step, "steps": series.values.size - series.burn_in, "burn_in": series.burn_in}
    return estimators.vmc_estimate(series), walked


def _run_vmc(config: RunConfig) -> tuple[dict, list[str]]:
    from . import estimators
    params = config.parameters
    per_worker = _run_chains(params, _series_walk(params, config.seed), _vmc_chain, write_series_csv)
    chains = [row[0] for row in per_worker]
    merged = estimators.merge_estimates(chains)
    results = {
        "energy": _estimate_dict(merged),
        "workers": [_estimate_dict(c) for c in chains],
        **per_worker[0][1],
    }
    human = [
        f"VMC energy = {merged.mean!r} +- {merged.std_error!r}",
        f"autocorr time = {merged.autocorr_time!r}, effective samples = {merged.effective_samples!r}",
    ]
    return results, human


def _spt_orders_chain(params: dict, series: estimators.LocalEnergySeries):
    import numpy as np
    from . import estimators
    integral = estimators.autocorrelation_integral(series)
    if params["tau_grid"] is not None:
        grid, source = params["tau_grid"], "tau_grid"
    else:
        if integral.autocorr_time <= 0:
            raise estimators.WindowSelectionError(
                "series shows no autocorrelation; supply tau_grid explicitly"
            )
        grid = np.linspace(
            params["tau_min_factor"] * integral.autocorr_time,
            params["tau_max_factor"] * integral.autocorr_time,
            params["tau_points"],
        )
        source = "tau_min_factor, tau_max_factor and tau_points"
    try:
        moments = estimators.action_moments(series, grid, params["max_order"])
        orders, diag = estimators.stochastic_epsilons(
            moments,
            params["max_order"],
            allow_high_orders=params["allow_high_orders"],
            return_diagnostics=True,
        )
    except estimators.SeriesTooShortError:
        raise
    except (ValueError, OverflowError) as exc:  # max_order is checked at parse time, so the grid is at fault
        raise ConfigError(f"tau grid from {source}: {exc}") from None
    return integral, orders, diag


def _run_spt_orders(config: RunConfig) -> tuple[dict, list[str]]:
    import numpy as np
    from . import estimators
    params = config.parameters
    per_worker = _run_chains(
        params, _series_walk(params, config.seed), lambda series: _spt_orders_chain(params, series), write_series_csv
    )
    merged_integral = estimators.merge_estimates([row[0] for row in per_worker])
    merged_orders = [estimators.merge_estimates([row[1][n] for row in per_worker]) for n in range(params["max_order"])]
    first_diag = per_worker[0][2]
    results = {
        "epsilon_n": {
            str(n + 1): {"mean": est.mean, "err": est.std_error}
            for n, est in enumerate(merged_orders)
        },
        "tau_w": float(np.mean([row[0].autocorr_time for row in per_worker])),
        "autocorrelation_epsilon_2": _estimate_dict(merged_integral),
        "diagnostics": {
            "tau_grid": first_diag["tau_grid"],
            "r2": first_diag["r2"],
            "slopes": first_diag["slopes"],
            "intercepts": first_diag["intercepts"],
            "workers": len(per_worker),
        },
    }
    human = [f"tau_W = {results['tau_w']!r}"]
    for n, est in enumerate(merged_orders, start=1):
        human.append(f"epsilon_{n} = {est.mean!r} +- {est.std_error!r}")
    human.append(
        "epsilon_2 (autocorrelation integral) = "
        f"{merged_integral.mean!r} +- {merged_integral.std_error!r}"
    )
    return results, human


def _run_rqmc(config: RunConfig) -> tuple[dict, list[str]]:
    import numpy as np
    from . import estimators, rqmc, walker  # here, before the chains fork, so that no chain imports them
    params = config.parameters
    trial, potential = _build_trial_potential(params)
    run_keys = ("n_beads", "epsilon", "sweeps", "burn_in_sweeps", "direction_policy",
                "proposal_correction", "equilibration_steps")
    options = {key: params[key] for key in run_keys}

    def walk(worker: int) -> rqmc.RQMCRunResult:
        return rqmc.run_reptation(trial, potential, rng=walker.derive_rng(config.seed, "rqmc-chain", worker), **options)

    runs = _run_chains(params, walk, lambda run: run, _write_sweeps_csv)
    energy = estimators.merge_estimates([r.energy for r in runs])
    pure = {}
    for name in runs[0].pure_observables:
        pure[name] = estimators.merge_estimates([r.pure_observables[name] for r in runs])
    acceptance = float(np.mean([r.acceptance_rate for r in runs]))
    results = {
        "energy": _estimate_dict(energy),
        "acceptance_rate": acceptance,
        "pure": {name: _estimate_dict(est) for name, est in pure.items()},
        "n_beads": params["n_beads"],
        "epsilon": params["epsilon"],
        "sweeps": params["sweeps"],
        "burn_in_sweeps": [r.burn_in_sweeps for r in runs],
        "workers": params["workers"],
    }
    human = [
        f"RQMC energy = {energy.mean!r} +- {energy.std_error!r}",
        f"acceptance rate = {acceptance!r}",
    ]
    for name, est in pure.items():
        human.append(f"pure <{name}> = {est.mean!r} +- {est.std_error!r}")
    return results, human


_RUNNERS = {
    "symbolic": _run_symbolic,
    "spectral": _run_spectral,
    "vmc": _run_vmc,
    "spt-orders": _run_spt_orders,
    "rqmc": _run_rqmc,
}


def run(config: RunConfig) -> RunReport:
    """Execute a validated config and assemble the run report."""
    results, human = _RUNNERS[config.subcommand](config)
    from importlib import metadata
    try:
        version = metadata.version("sptqmc")
    except metadata.PackageNotFoundError:  # running from a source tree
        version = "unknown"
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": config.subcommand,
        "version": version,
        "seed": config.seed,
        "config": config.parameters,
        "results": results,
    }
    return RunReport(report=report, human=human)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spt",
        description="stochastic perturbation theory toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides SPT_SEED and config)")
        p.add_argument("--output", default=None, help="write the JSON report here (atomic)")

    p_sym = sub.add_parser("symbolic", help="print corrections epsilon_1..epsilon_N symbolically")
    common(p_sym)
    p_sym.add_argument("--order", type=int, default=None)
    p_sym.add_argument("--sum-over-states", action="store_true", default=None)

    p_spec = sub.add_parser("spectral", help="evaluate corrections on a model, optionally vs the oracle")
    common(p_spec)
    p_spec.add_argument("--model", default=None, help="model file path")
    p_spec.add_argument("--order", type=int, default=None)
    p_spec.add_argument("--oracle", action="store_true", default=None)

    for name in ("vmc", "spt-orders", "rqmc"):
        p = sub.add_parser(name)
        common(p)
    return parser


def _resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("SPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"SPT_SEED must be an integer, got {env!r}") from None
    return config_seed


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from CLI flags plus optional config file (flags win)."""
    text = keyvalue.read_text(args.config, "config", ConfigError) if args.config else ""
    given = keyvalue.read_entries(text, ConfigError)
    for key in ("order", "sum_over_states", "model", "oracle"):
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    config = _config_from(given, args.subcommand)
    output = args.output if args.output is not None else config.output_path
    return replace(config, seed=_resolve_seed(args.seed, config.seed), output_path=output)


# an unreadable input file (missing, a directory, not UTF-8) is a config error
_CONFIG_ERRORS = (
    ConfigError,
    errors.ModelValidationError,
    errors.OrderCapError,
    OSError,
    UnicodeDecodeError,
)
_COMPUTE_ERRORS = (
    errors.FitConditioningError,
    errors.DegeneracyError,
    errors.SeriesTooShortError,
    errors.WindowSelectionError,
    errors.NonLinearityError,
    errors.MissingOrderError,
)


def main(argv: list[str] | None = None) -> int:
    """Run `spt` on argv, or on the command line; the wall time printed for the command line counts the imports too."""
    start = _STARTED if argv is None else time.perf_counter()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        report = run(config)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _COMPUTE_ERRORS as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    for line in report.human:
        print(line)
    if config.output_path:
        try:
            _atomic_write(config.output_path, report.to_json())
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    print(f"wall time: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
