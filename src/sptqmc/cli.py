"""Command-line entry point: `spt <subcommand>`.

Subcommands: symbolic, spectral, vmc, spt-orders, rqmc.  Runs are
configured through flat `key = value` files (optional [section] headers
are organizational only), every random number flows from one master
seed, and each run can write a canonical JSON report.  Reports are
byte-identical for identical config + seed, for any `workers` and any
core count: each worker's chain draws from its own stream, wall time
goes to stderr, never into the file, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import json
import math
import os
import sys
import tempfile
import time
import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field, replace
from importlib import metadata

import numpy as np

from . import _STARTED, estimators, rqmc, rspt, spectral, symexpr, walker
from .parallel import fork_imap, fork_map

SCHEMA_VERSION = 1
SUBCOMMANDS = ("symbolic", "spectral", "vmc", "spt-orders", "rqmc")

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
    """In-memory run record; `report` is the serializable payload.

    The run's wall time is carried on the object but kept out of the
    serialized report so reruns stay byte-identical.
    """

    report: dict
    human: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps(_pyify(self.report), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# config schema

_WALKER_KEYS = {
    "trial": (str, "gaussian"),
    "alpha": (float, None),
    "potential": (str, "harmonic"),
    "quartic_coupling": (float, 0.0),
    "barrier": (float, 1.0),
    "half_separation": (float, 1.0),
    "epsilon": (float, None),
}

_SERIES_KEYS = {
    **_WALKER_KEYS,
    "steps": (int, None),
    "burn_in": (int, 0),
    "series": (str, None),
    "series_out": (str, None),
    "workers": (int, 1),
}

# key -> (type, default); None default means no default (see required sets)
_SCHEMAS: dict[str, dict] = {
    "symbolic": {
        "order": (int, None),
        "sum_over_states": (bool, False),
    },
    "spectral": {
        "model": (str, None),
        "order": (int, None),
        "oracle": (bool, False),
    },
    "vmc": dict(_SERIES_KEYS),
    "spt-orders": {
        **_SERIES_KEYS,
        "max_order": (int, 3),
        "allow_high_orders": (bool, False),
        "tau_grid": (list, None),
        "tau_min_factor": (float, 10.0),
        "tau_max_factor": (float, 40.0),
        "tau_points": (int, 8),
    },
    "rqmc": {
        **_WALKER_KEYS,
        "n_beads": (int, None),
        "sweeps": (int, None),
        "burn_in_sweeps": (int, None),
        "direction_policy": (str, "bounce"),
        "proposal_correction": (bool, False),
        "equilibration_steps": (int, 1000),
        "series_out": (str, None),
        "workers": (int, 1),
    },
}

_COMMON_KEYS = {"seed": (int, 0), "output": (str, None), "subcommand": (str, None)}

_REQUIRED: dict[str, tuple] = {
    "symbolic": ("order",),
    "spectral": ("model", "order"),
    # alpha/epsilon/steps may instead come from a saved series file
    "vmc": ("alpha", "epsilon", "steps"),
    "spt-orders": ("alpha", "epsilon", "steps"),
    "rqmc": ("alpha", "epsilon", "n_beads", "sweeps"),
}

# keys whose presence identifies the subcommand when none is stated
_INFERENCE_ORDER = ("rqmc", "spt-orders", "spectral", "vmc", "symbolic")
_SIGNATURE_KEYS = {
    "rqmc": {"n_beads", "sweeps"},
    "spt-orders": {"max_order", "tau_grid", "tau_points", "tau_min_factor", "tau_max_factor", "allow_high_orders"},
    "spectral": {"model"},
    "vmc": {"steps", "alpha", "epsilon", "series"},
    "symbolic": {"order"},
}


def _parse_value(raw: str, key: str, lineno: int):
    text = raw.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    # bare word: treat as string (paths, names)
    if text and "=" not in text:
        return text
    raise ConfigError(f"line {lineno}: cannot parse value for '{key}': {raw!r}")


def _raw_entries(text: str) -> dict[str, tuple[object, int]]:
    entries: dict[str, tuple[object, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # section headers organize, all keys share one namespace
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {entries[key][1]})"
            )
        entries[key] = (_parse_value(value, key, lineno), lineno)
    return entries


def _infer_subcommand(keys: set) -> str:
    for name in _INFERENCE_ORDER:
        if keys & _SIGNATURE_KEYS[name]:
            return name
    raise ConfigError(
        "cannot infer the subcommand from the config keys; add 'subcommand = <name>'"
    )


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean '{close[0]}'?" if close else ""


def validate_parameters(subcommand: str, given: dict) -> dict:
    """Type-check against the subcommand schema and fill defaults."""
    if subcommand not in _SCHEMAS:
        raise ConfigError(f"unknown subcommand '{subcommand}'{_suggest(subcommand, _SCHEMAS)}")
    schema = _SCHEMAS[subcommand]
    known = set(schema) | set(_COMMON_KEYS)
    params: dict = {}
    for key, value in given.items():
        if key not in known:
            raise ConfigError(f"unknown key '{key}' for {subcommand}{_suggest(key, known)}")
        if key in _COMMON_KEYS:
            continue
        expected = schema[key][0]
        params[key] = _coerce_type(key, value, expected)
    for key, (_, default) in schema.items():
        params.setdefault(key, default)
    required = _REQUIRED.get(subcommand, ())
    series_backed = subcommand in ("vmc", "spt-orders") and params.get("series") is not None
    for key in required:
        if params.get(key) is None and not series_backed:
            raise ConfigError(f"{subcommand} config missing required key '{key}'")
    if "trial" in params and params["trial"] != "gaussian":
        raise ConfigError(f"unknown trial '{params['trial']}'; only 'gaussian' is built in")
    if "potential" in params and params["potential"] not in ("harmonic", "quartic", "doublewell"):
        raise ConfigError(
            f"unknown potential '{params['potential']}'"
            f"{_suggest(str(params['potential']), ('harmonic', 'quartic', 'doublewell'))}"
        )
    if "direction_policy" in params and params["direction_policy"] not in ("bounce", "random"):
        raise ConfigError(f"direction_policy must be bounce or random, got '{params['direction_policy']}'")
    if params.get("workers") is not None and params["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    _check_ranges(subcommand, params)
    return params


_POSITIVE = ("epsilon", "steps", "order", "sweeps", "equilibration_steps", "tau_points")
_NONNEGATIVE = ("burn_in", "quartic_coupling")


def _check_ranges(subcommand: str, params: dict) -> None:
    for key in _POSITIVE:
        value = params.get(key)
        if value is not None and value <= 0:
            raise ConfigError(f"key '{key}' must be positive, got {value!r}")
    for key in _NONNEGATIVE:
        value = params.get(key)
        if value is not None and value < 0:
            raise ConfigError(f"key '{key}' must be >= 0, got {value!r}")
    n_beads = params.get("n_beads")
    if n_beads is not None and n_beads < 2:
        raise ConfigError(f"n_beads must be at least 2, got {n_beads!r}")
    alpha = params.get("alpha")
    if alpha is not None and alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha!r}")


def _coerce_type(key: str, value, expected):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' must be a number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
        return value
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key '{key}' must be true or false, got {value!r}")
        return value
    if expected is list:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"key '{key}' must be a bracketed list, got {value!r}")
        return list(value)
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"key '{key}' must be a string, got {value!r}")
        return value
    raise AssertionError(f"unhandled schema type {expected}")


def parse_config(text: str, subcommand: str | None = None) -> RunConfig:
    """Parse and validate config text into a RunConfig.

    The subcommand is taken from the argument, else from a `subcommand`
    key, else inferred from which signature keys appear.
    """
    given = {key: value for key, (value, _) in _raw_entries(text).items()}
    return _config_from(given, subcommand)


def _config_from(given: dict, subcommand: str | None) -> RunConfig:
    """Validated RunConfig from parsed keys; the one path every config takes."""
    sub = subcommand or given.get("subcommand") or _infer_subcommand(set(given))
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand '{sub}'{_suggest(str(sub), SUBCOMMANDS)}")
    seed = given.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    output = given.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path string, got {output!r}")
    params = validate_parameters(sub, given)
    return RunConfig(subcommand=sub, parameters=params, seed=seed, output_path=output)


# ---------------------------------------------------------------------------
# serialization helpers


def _pyify(obj):
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


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
    # never held twice.
    n = rows.shape[0]
    flat = rows.reshape(-1)
    for start in range(0, n, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, n)
        flat[start:stop] = rows[start:stop, 1]
    try:
        return estimators.LocalEnergySeries(values=flat[:n], step=epsilon, burn_in=burn_in)
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
    alpha = params["alpha"]
    if alpha is None:
        raise ConfigError("alpha is required to run a walker")
    trial = walker.GaussianTrial(alpha=alpha)
    name = params["potential"]
    if name == "harmonic":
        potential = walker.HarmonicPotential()
    elif name == "quartic":
        potential = walker.QuarticPotential(params["quartic_coupling"])
    else:
        potential = walker.DoubleWellPotential(params["barrier"], params["half_separation"])
    return trial, potential


def _run_symbolic(config: RunConfig) -> tuple[dict, list[str]]:
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


def _obtain_series(params: dict, seed: int, worker: int = 0) -> estimators.LocalEnergySeries:
    """Worker's series, read from `series` or sampled."""
    if params.get("series"):
        return read_series_csv(params["series"])
    rng = walker.derive_rng(seed, "vmc-chain", worker)
    keys = {key: params[key] for key in ("epsilon", "steps", "burn_in")}
    return walker.sample_local_energy_series(*_build_trial_potential(params), rng=rng, **keys)


def _run_chains(params: dict, seed: int, analyse: Callable) -> list:
    """analyse(series) for each worker's series, in worker order; worker 0's series is saved to
    `series_out` here, after the chains so the writer can fork too, and before a chain's error is raised."""
    workers = params["workers"] if not params.get("series") else 1
    save = params.get("series_out")

    def chain(worker: int):
        series = result = error = None
        try:
            series = _obtain_series(params, seed, worker)
            result = analyse(series)
        except Exception as exc:  # raised in the caller, after worker 0's series is saved
            error = exc
        return result, error, series if save and worker == 0 else None

    outcomes = []
    with closing(fork_imap(chain, range(workers))) as chains:
        for outcome in chains:
            outcomes.append(outcome)
            if outcome[1] is not None:
                break  # the chains after a failed one are not run, or are cancelled
    results, errors, kept = zip(*outcomes)
    if kept[0] is not None:
        write_series_csv(save, kept[0])
    if errors[-1] is not None:
        raise errors[-1]
    return list(results)


def _run_vmc(config: RunConfig) -> tuple[dict, list[str]]:
    params = config.parameters
    chains = _run_chains(params, config.seed, estimators.vmc_estimate)
    merged = estimators.merge_estimates(chains)
    results = {
        "energy": _estimate_dict(merged),
        "workers": [_estimate_dict(c) for c in chains],
        "epsilon": params["epsilon"],
        "steps": params["steps"],
        "burn_in": params["burn_in"],
    }
    human = [
        f"VMC energy = {merged.mean!r} +- {merged.std_error!r}",
        f"autocorr time = {merged.autocorr_time!r}, effective samples = {merged.effective_samples!r}",
    ]
    return results, human


def _spt_orders_chain(params: dict, series: estimators.LocalEnergySeries):
    integral = estimators.autocorrelation_integral(series)
    tau_w = integral.autocorr_time
    if params.get("tau_grid"):
        grid = [float(t) for t in params["tau_grid"]]
    else:
        if tau_w <= 0:
            raise estimators.WindowSelectionError(
                "series shows no autocorrelation; supply tau_grid explicitly"
            )
        grid = np.linspace(
            params["tau_min_factor"] * tau_w,
            params["tau_max_factor"] * tau_w,
            params["tau_points"],
        )
    moments = estimators.action_moments(series, grid, params["max_order"])
    orders, diag = estimators.stochastic_epsilons(
        moments,
        params["max_order"],
        allow_high_orders=params["allow_high_orders"],
        return_diagnostics=True,
    )
    return integral, tau_w, moments, orders, diag


def _run_spt_orders(config: RunConfig) -> tuple[dict, list[str]]:
    params = config.parameters
    per_worker = _run_chains(params, config.seed, lambda series: _spt_orders_chain(params, series))
    merged_integral = estimators.merge_estimates([row[0] for row in per_worker])
    merged_orders = [estimators.merge_estimates([row[3][n] for row in per_worker]) for n in range(params["max_order"])]
    first_diag = per_worker[0][4]
    results = {
        "epsilon_n": {
            str(n + 1): {"mean": est.mean, "err": est.std_error}
            for n, est in enumerate(merged_orders)
        },
        "tau_w": float(np.mean([row[1] for row in per_worker])),
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
    params = config.parameters
    trial, potential = _build_trial_potential(params)
    workers = params["workers"]
    run_keys = ("n_beads", "epsilon", "sweeps", "burn_in_sweeps", "direction_policy",
                "proposal_correction", "equilibration_steps")
    options = {key: params[key] for key in run_keys}
    runs = fork_map(
        lambda w: rqmc.run_reptation(trial, potential, rng=walker.derive_rng(config.seed, "rqmc-chain", w), **options),
        range(workers),
    )
    if params.get("series_out"):
        _write_sweeps_csv(params["series_out"], runs[0])
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
        "workers": workers,
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
    start = time.perf_counter()
    results, human = _RUNNERS[config.subcommand](config)
    wall = time.perf_counter() - start
    try:
        version = metadata.version("sptqmc")
    except metadata.PackageNotFoundError:  # running from a source tree
        version = "unknown"
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": config.subcommand,
        "version": version,
        "seed": config.seed,
        "config": _pyify(config.parameters),
        "results": _pyify(results),
    }
    return RunReport(report=report, human=human, wall_time=wall)


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
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError:
                raise ConfigError(f"config file {args.config} is not UTF-8 text") from None
    given = {key: value for key, (value, _) in _raw_entries(text).items()}
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
    spectral.ModelValidationError,
    rspt.OrderCapError,
    OSError,
    UnicodeDecodeError,
)
_COMPUTE_ERRORS = (
    spectral.FitConditioningError,
    spectral.DegeneracyError,
    estimators.SeriesTooShortError,
    estimators.WindowSelectionError,
    estimators.NonLinearityError,
    rspt.MissingOrderError,
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
