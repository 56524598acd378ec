#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `spt` command line tool.

Run from the repository root:

    python3 bench/run.py --workload exact|walk|reptation|all --seed N --seconds S --trace 0|1

A workload is a fixed sequence of `python -m sptqmc ...` invocations,
launched one at a time, each in a fresh interpreter, against the source
tree (PYTHONPATH=src).  Its inputs (config files, the random model file,
the seeds passed to `spt`) are generated from --seed.

--trace 0  repeats the workload for --seconds (at least twice) and reports
           the end-to-end metrics: set-up time as the median of several
           fresh imports, wall time as the sum over invocations of each
           invocation's best time over the repetitions.  Both are in
           quiet-host seconds: every child's wall time is divided by the
           host's slowness, measured with a fixed calibration load just
           before and after it (the host of a shared VM runs everything
           up to 1.7 times slower for minutes at a time).
--trace 1  runs `-X importtime`, one untraced pass and one pass under
           bench/traced.py, and reports the per-layer metrics (unscaled).

Every invocation's report is checked against references that do not come
from the code under test, and reports of repeated runs at one seed must be
byte-identical.  Human-readable lines come first; the last line of stdout
is one JSON object.  bench/NOTES.md says how to read a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
TRACED = ROOT / "bench" / "traced.py"

CHILD_TIMEOUT = 150.0  # seconds; one invocation never takes near this
MIN_REPS = 2  # the byte-identity check needs a second run at the same seed
SETUP_SAMPLES = 3
# calibrate() on a quiet 2-core Xeon VM; the unit of the scaled times
QUIET_CALIBRATION_S = 0.12
PULL_LIMIT = 3.0  # the acceptance gate's bound (criteria 06, 07, 09)

# Quartic oscillator H = p^2/2 + x^2/2 + g x^4: E_0 = 1/2 + sum_n c_n g^n with
# the Bender-Wu coefficients c_n, and E_0(g = 0.1) from a converged
# diagonalization in the oscillator basis.
BENDER_WU = [
    Fraction(3, 4), Fraction(-21, 8), Fraction(333, 16), Fraction(-30885, 128),
    Fraction(916731, 256), Fraction(-65518401, 1024), Fraction(2723294673, 2048),
    Fraction(-1030495099053, 32768),
]
QUARTIC_E0 = 0.5591463271835196

GOLDEN_SYMBOLIC = {
    "1": "g1",
    "2": "-g2",
    "3": "g3 + g1 g2^(1)",
    "4": "-g4 - g1 g3^(1) - g2 g2^(1) - 1/2 g1^2 g2^(2)",
}

WALK_ALPHA = 1.2


@dataclass
class Call:
    """One `spt` invocation: its subcommand, arguments and report file."""

    subcommand: str
    args: list[str]
    report: str


@dataclass
class Workload:
    files: dict[str, str]
    calls: list[Call]
    check: object  # (list of report dicts) -> list of (call index, name, ok, detail)


@dataclass
class Outcome:
    call: Call
    start: float
    end: float
    code: int
    maxrss_kb: int
    slowness: float
    report: bytes | None
    trace: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def quiet_seconds(self) -> float:
        return self.seconds / self.slowness


@dataclass
class Pass:
    """One run of a workload's whole invocation sequence."""

    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def reports(self) -> list[dict | None]:
        out = []
        for o in self.outcomes:
            try:
                out.append(json.loads(o.report) if o.code == 0 and o.report else None)
            except ValueError:
                out.append(None)
        return out


# ---------------------------------------------------------------------------
# workloads


def _random_model_text(seed: int, dim: int = 12) -> tuple[str, np.ndarray, np.ndarray]:
    """Explicit-array model in the style of spectral.random_model, drawn here."""
    rng = np.random.default_rng([seed, dim])
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 3.0, size=dim - 1))])
    raw = rng.uniform(-0.3, 0.3, size=(dim, dim))
    wmat = 0.5 * (raw + raw.T)
    rows = ",\n        ".join("[" + ", ".join(repr(float(v)) for v in row) + "]" for row in wmat)
    text = (
        "energies = [" + ", ".join(repr(float(e)) for e in energies) + "]\n"
        "wmat = [" + rows + "]\n"
    )
    return text, energies, wmat


def _low_orders(energies: np.ndarray, wmat: np.ndarray) -> list[float]:
    """epsilon_1..3 from the textbook Rayleigh-Schroedinger sums."""
    e = energies[1:]
    v = wmat[1:, 0]
    w00 = wmat[0, 0]
    u = v / e
    eps3 = float(u @ wmat[1:, 1:] @ u - w00 * np.sum(v**2 / e**2))
    return [float(w00), float(-np.sum(v**2 / e)), eps3]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def exact_workload(seed: int) -> Workload:
    model_text, energies, wmat = _random_model_text(seed)
    low = _low_orders(energies, wmat)

    def check(reports):
        out = []
        sym = reports[0]
        if sym is not None:
            orders = sym["results"]["orders"]
            ok = len(orders) == 10 and all(orders[n].get("sum_over_states") for n in orders)
            ok = ok and all(orders[n]["text"] == text for n, text in GOLDEN_SYMBOLIC.items())
            out.append((0, "symbolic orders 1-4 match RSPT, 10 orders with state sums", ok, ""))
        rnd = reports[1]
        if rnd is not None:
            orders = rnd["results"]["orders"]
            worst = max(orders[str(n)]["rel_diff"] for n in range(1, 7))
            out.append((1, "random model: oracle rel_diff <= 1e-6 for n <= 6", worst <= 1e-6, f"max {worst:.3g}"))
            worst = max(_rel(orders[str(n)]["epsilon"], low[n - 1]) for n in range(1, 4))
            out.append((1, "random model: epsilon_1..3 match the RS sums to 1e-9", worst <= 1e-9, f"max {worst:.3g}"))
        anh = reports[2]
        if anh is not None:
            orders = anh["results"]["orders"]
            worst = max(
                _rel(orders[str(n)]["epsilon"], float(c * Fraction(1, 10) ** n))
                for n, c in enumerate(BENDER_WU, start=1)
            )
            out.append((2, "anharmonic: epsilon_1..8 match Bender-Wu x 0.1^n to 1e-9", worst <= 1e-9, f"max {worst:.3g}"))
        return out

    return Workload(
        files={
            "random.model": model_text,
            "anharmonic.model": "builder = anharmonic\nbasis_size = 30\nquartic_coupling = 0.1\n",
        },
        calls=[
            Call("symbolic", ["symbolic", "--order", "10", "--sum-over-states"], "symbolic.json"),
            Call("spectral", ["spectral", "--model", "random.model", "--order", "8", "--oracle"], "random.json"),
            Call("spectral", ["spectral", "--model", "anharmonic.model", "--order", "8", "--oracle"], "anharmonic.json"),
        ],
        check=check,
    )


def _pull(mean: float, err: float, target: float) -> float:
    return (mean - target) / err if err > 0 else math.inf


def walk_workload(seed: int) -> Workload:
    alpha = WALK_ALPHA
    energy_ref = (1.0 + alpha**2) / (4.0 * alpha)
    eps2_ref = -((1.0 - alpha**2) ** 2) / (16.0 * alpha**3)

    def check(reports):
        out = []
        if reports[0] is not None:
            e = reports[0]["results"]["energy"]
            p = _pull(e["mean"], e["err"], energy_ref)
            out.append((0, "VMC energy vs (1+a^2)/(4a)", abs(p) < PULL_LIMIT, f"pull {p:+.2f}"))
        if reports[1] is not None:
            e = reports[1]["results"]["epsilon_n"]["2"]
            p = _pull(e["mean"], e["err"], eps2_ref)
            out.append((1, "cumulant-slope epsilon_2 vs -(1-a^2)^2/(16a^3)", abs(p) < PULL_LIMIT, f"pull {p:+.2f}"))
        return out

    return Workload(
        files={
            "vmc.cfg": (
                f"alpha = {alpha}\nepsilon = 0.005\nsteps = 2000000\nburn_in = 20000\n"
                "workers = 2\nseries_out = walk.csv\n"
            ),
            "orders.cfg": "max_order = 3\nseries = walk.csv\n",
        },
        calls=[
            Call("vmc", ["vmc", "--config", "vmc.cfg", "--seed", str(seed)], "vmc.json"),
            Call("spt-orders", ["spt-orders", "--config", "orders.cfg", "--seed", str(seed)], "orders.json"),
        ],
        check=check,
    )


def _rqmc_cfg(epsilon: float, n_beads: int) -> str:
    return (
        "alpha = 1.22\npotential = quartic\nquartic_coupling = 0.1\n"
        f"epsilon = {epsilon}\nn_beads = {n_beads}\nsweeps = 1000\nburn_in_sweeps = 150\n"
    )


def extrapolated_energy(reports) -> tuple[float, float]:
    """E_0 = 2 E(eps/2) - E(eps), errors combined as rqmc.extrapolate_linear does."""
    coarse = reports[0]["results"]["energy"]
    fine = reports[1]["results"]["energy"]
    return 2.0 * fine["mean"] - coarse["mean"], math.sqrt(4.0 * fine["err"] ** 2 + coarse["err"] ** 2)


def reptation_workload(seed: int) -> Workload:
    def check(reports):
        if reports[0] is None or reports[1] is None:
            return []
        mean, err = extrapolated_energy(reports)
        p = _pull(mean, err, QUARTIC_E0)
        return [(1, "extrapolated RQMC E_0 vs exact quartic E_0", abs(p) < PULL_LIMIT, f"{mean:.5f} +- {err:.5f}, pull {p:+.2f}")]

    return Workload(
        files={"coarse.cfg": _rqmc_cfg(0.05, 120), "fine.cfg": _rqmc_cfg(0.025, 240)},
        calls=[
            # distinct master seeds: one seed would give both runs the same stream
            Call("rqmc", ["rqmc", "--config", "coarse.cfg", "--seed", str(2 * seed)], "coarse.json"),
            Call("rqmc", ["rqmc", "--config", "fine.cfg", "--seed", str(2 * seed + 1)], "fine.json"),
        ],
        check=check,
    )


WORKLOADS = {"exact": exact_workload, "walk": walk_workload, "reptation": reptation_workload}


def error_bars(name: str, reports) -> dict[str, float]:
    """Squared error bar of the workload's statistical answer (0 if none)."""
    if any(r is None for r in reports):
        return {}
    if name == "walk":
        return {"eps2": reports[1]["results"]["epsilon_n"]["2"]["err"] ** 2}
    if name == "reptation":
        return {"energy": extrapolated_energy(reports)[1] ** 2}
    return {}


# ---------------------------------------------------------------------------
# launching children


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPT_SEED", None)
    return env


def calibrate() -> float:
    """Seconds taken by a fixed CPU load: a pure-Python loop and numpy sorts."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc = (acc * 31 + i) % 1_000_003
    x = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(4):
        x = np.sort(np.sin(7.0 * x))
    return time.perf_counter() - start


def launch(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int, int, float]:
    """Run one child to completion.

    Returns (start, end, exit code, max RSS in KB, host slowness), where
    host slowness is the calibration load's time just before and just
    after the child, divided by its time on a quiet host.
    """
    before = calibrate()
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    slowness = 0.5 * (before + calibrate()) / QUIET_CALIBRATION_S
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss, slowness


def run_call(call: Call, index: int, work: Path, traced: bool = False) -> Outcome:
    report = work / call.report
    report.unlink(missing_ok=True)
    args = [*call.args, "--output", call.report]
    if traced:
        trace_file = work / f"trace-{index}.json"
        trace_file.unlink(missing_ok=True)
        spawn = time.perf_counter()
        argv = [sys.executable, str(TRACED), trace_file.name, *args]
    else:
        argv = [sys.executable, "-m", "sptqmc", *args]
    start, end, code, rss, slowness = launch(argv, work, work / f"log-{index}.txt")
    outcome = Outcome(call, start, end, code, rss, slowness, report.read_bytes() if report.exists() else None)
    if traced:
        outcome.start = spawn
        try:
            outcome.trace = json.loads(trace_file.read_text())
        except (OSError, ValueError):
            outcome.trace = None
    return outcome


def run_pass(workload: Workload, work: Path) -> Pass:
    return Pass([run_call(call, i, work) for i, call in enumerate(workload.calls)])


def run_paired_passes(workload: Workload, work: Path) -> tuple[Pass, Pass]:
    """Untraced and traced pass, each call run untraced then traced, so that
    slow drifts in machine speed fall on both sides of the overhead."""
    untraced, traced = Pass(), Pass()
    for i, call in enumerate(workload.calls):
        untraced.outcomes.append(run_call(call, i, work))
        traced.outcomes.append(run_call(call, i, work, traced=True))
    return untraced, traced


def measure_setup(work: Path) -> float:
    """Fresh interpreter plus `import sptqmc.cli`, what every call pays first."""
    start, end, code, _, slowness = launch([sys.executable, "-c", "import sptqmc.cli"], work, work / "log-setup.txt")
    if code != 0:
        raise SystemExit(f"bench: `import sptqmc.cli` failed, see {work / 'log-setup.txt'}")
    return (end - start) / slowness


# ---------------------------------------------------------------------------
# checking


class Ledger:
    """Invocations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[str] = []

    def record(self, workload: Workload, run: Pass, reference: Pass | None, tag: str) -> None:
        reports = run.reports()
        failed: dict[int, list[str]] = {}
        for i, (o, report) in enumerate(zip(run.outcomes, reports)):
            if o.code != 0:
                failed.setdefault(i, []).append(f"exit code {o.code}")
            elif report is None:
                failed.setdefault(i, []).append("no JSON report written")
            elif reference is not None and reference.outcomes[i].report is not None and o.report != reference.outcomes[i].report:
                failed.setdefault(i, []).append("report differs from the first run at this seed")
        try:
            checks = workload.check(reports)
        except (KeyError, TypeError) as exc:
            checks = [(len(reports) - 1, "reports hold the fields the checks read", False, f"missing {exc}")]
        for index, name, ok, detail in checks:
            self.checks.append(f"{'PASS' if ok else 'FAIL'} [{tag}] {name} {detail}".rstrip())
            if not ok:
                failed.setdefault(index, []).append(f"{name} {detail}".rstrip())
        self.attempted += len(run.outcomes)
        for i, reasons in sorted(failed.items()):
            self.failures.append(f"[{tag}] call {i} ({workload.calls[i].subcommand}): {'; '.join(reasons)}")


# ---------------------------------------------------------------------------
# per-layer figures from the traced pass and `-X importtime`


def import_times(work: Path) -> dict[str, float]:
    """Cumulative import time of each package's outermost import, in s."""
    log = work / "log-importtime.txt"
    code = launch([sys.executable, "-X", "importtime", "-c", "import sptqmc.cli"], work, log)[2]
    if code != 0:
        raise SystemExit(f"bench: importtime run failed, see {log}")
    # lines are "import time: self | cumulative | <indent>name", children before parents
    pending: dict[int, list] = {}
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = (raw.strip(), int(cumulative) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])

    def outermost(prefix: str, nodes) -> float:
        total = 0.0
        for name, cum, children in nodes:
            if name == prefix or name.startswith(prefix + "."):
                total += cum
            else:
                total += outermost(prefix, children)
        return total

    return {
        f"import.{key}_s": outermost(prefix, roots)
        for key, prefix in (
            ("sptqmc", "sptqmc"), ("scipy", "scipy"), ("scipy_signal", "scipy.signal"),
            ("mpmath", "mpmath"), ("numpy", "numpy"),
        )
    }


# traced spans reported as "<span>_s", their inclusive time summed over calls
SPANS = (
    "cli.run", "cli.report", "cli.series_write", "cli.series_read",
    "rspt.epsilon_series", "rspt.render_sum_over_states", "symexpr.render", "symexpr.evaluate",
    "spectral.load_model", "spectral.g_value", "spectral.evaluate_epsilons", "spectral.taylor_oracle",
    "walker.sample", "estimators.vmc_estimate", "estimators.autocorrelation_integral",
    "estimators.action_moments", "estimators.stochastic_epsilons", "estimators.blocking",
    "rqmc.run_reptation", "rqmc.init_reptile", "rqmc.sweep",
)
COUNT_METRICS = (
    "cli.series_rows", "rspt.terms", "symexpr.evaluate_calls", "spectral.g_value_calls",
    "walker.steps", "estimators.samples", "rqmc.moves",
)
SUBCOMMAND_METRICS = {
    "symbolic": "spt.symbolic_s", "spectral": "spt.spectral_s", "vmc": "spt.vmc_s",
    "spt-orders": "spt.spt_orders_s", "rqmc": "spt.rqmc_s",
}


def span_tables(traced: Pass) -> tuple[dict, dict, dict, dict, float]:
    """Calls, inclusive and self time per span name, counters, top-level sum."""
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    top_level = 0.0
    for o in traced.outcomes:
        t = o.trace
        if t is None:
            continue
        spans = [
            ("setup", o.start, t["imported"], -1),
            ("trace.install", t["imported"], t["main_start"], -1),
            ("cli.main", t["main_start"], t["main_end"], -1),
            ("exit", t["main_end"], o.end, -1),
        ]
        top_level += sum(end - start for _, start, end, _ in spans)
        spans += [(name, start, end, 2 if parent < 0 else parent + 4) for name, start, end, parent in t["spans"]]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - inner
        for key, value in t["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key == "rspt.terms" else counts.get(key, 0) + value
    return calls, inclusive, self_time, counts, top_level


def layer_metrics(name: str, untraced: Pass, traced: Pass, imports: dict) -> tuple[dict, list[str]]:
    calls, inclusive, self_time, counts, top_level = span_tables(traced)
    values: dict[str, tuple[float, str]] = {key: (v, "s") for key, v in imports.items()}
    for span in SPANS:
        values[f"{span}_s"] = (inclusive.get(span, 0.0), "s")
    for metric in COUNT_METRICS:
        values[metric] = (counts.get(metric, 0), "count")
    steps, sample_s = counts.get("walker.steps", 0), inclusive.get("walker.sample", 0.0)
    values["walker.steps_per_s"] = (steps / sample_s if sample_s else 0.0, "1/s")
    moves, sweep_s = counts.get("rqmc.moves", 0), inclusive.get("rqmc.sweep", 0.0)
    values["rqmc.moves_per_s"] = (moves / sweep_s if sweep_s else 0.0, "1/s")
    values["rqmc.acceptance"] = (counts.get("rqmc.accepted", 0) / moves if moves else 0.0, "ratio")

    reports = untraced.reports()
    rel = [o["rel_diff"] for r in reports if r and r["command"] == "spectral" for o in r["results"]["orders"].values()]
    values["spectral.oracle_max_rel_diff"] = (max(rel, default=0.0), "ratio")
    taus = [r["results"]["energy"]["autocorr_time"] for r in reports if r and r["command"] == "rqmc"]
    values["rqmc.tau_int_sweeps"] = (statistics.fmean(taus) if taus else 0.0, "sweeps")

    for sub, metric in SUBCOMMAND_METRICS.items():
        values[metric] = (sum(o.seconds for o in untraced.outcomes if o.call.subcommand == sub), "s")
    err2 = error_bars(name, reports)
    values["spt.eps2_err2_s"] = (err2.get("eps2", 0.0) * untraced.wall, "s")
    values["spt.energy_err2_s"] = (err2.get("energy", 0.0) * untraced.wall, "s")
    overhead = traced.wall - untraced.wall
    values["trace.overhead_s"] = (overhead, "s")

    lines = [
        f"tracing overhead: {overhead:.3f} s (traced {traced.wall:.3f} s, untraced {untraced.wall:.3f} s)",
        f"setup + top-level spans (trace.install, cli.main, exit): {top_level:.3f} s, "
        f"{top_level / traced.wall:.2%} of the traced wall; against untraced wall_s {untraced.wall:.3f} s they are "
        f"{'within' if abs(top_level - untraced.wall) <= abs(overhead) + 0.01 else 'OUTSIDE'} the tracing overhead",
        f"{'span':34s} {'calls':>7s} {'inclusive_s':>12s} {'self_s':>10s}",
    ]
    for span in sorted(inclusive, key=lambda s: -self_time[s]):
        lines.append(f"{span:34s} {calls[span]:7d} {inclusive[span]:12.4f} {self_time[span]:10.4f}")
    return values, lines


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running a workload


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    ledger = Ledger()
    lines = [f"== workload {name}, seed {seed}, trace {int(trace)}"]
    try:
        for file_name, text in workload.files.items():
            (work / file_name).write_text(text)
        began = time.perf_counter()
        if trace:
            imports = import_times(work)
            untraced, traced = run_paired_passes(workload, work)
            ledger.record(workload, untraced, None, "untraced")
            ledger.record(workload, traced, untraced, "traced")
            values, detail = layer_metrics(name, untraced, traced, imports)
            metrics = {key: _metric(v, unit) for key, (v, unit) in values.items()}
            lines += detail
        else:
            setups, passes = [], []
            rep_time = 0.0
            # another repetition only if it should end within --seconds
            while len(passes) < MIN_REPS or time.perf_counter() - began + rep_time <= seconds:
                rep_start = time.perf_counter()
                if len(setups) < SETUP_SAMPLES:
                    setups.append(measure_setup(work))
                passes.append(run_pass(workload, work))
                ledger.record(workload, passes[-1], passes[0] if len(passes) > 1 else None, f"rep {len(passes)}")
                rep_time = time.perf_counter() - rep_start
            while len(setups) < SETUP_SAMPLES:
                setups.append(measure_setup(work))
            # best of k per invocation, in quiet-host seconds
            best = [min(p.outcomes[i].quiet_seconds for p in passes) for i in range(len(workload.calls))]
            wall = sum(best)
            raw = sum(min(p.outcomes[i].seconds for p in passes) for i in range(len(workload.calls)))
            slowness = [o.slowness for p in passes for o in p.outcomes]
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "wall_s": _metric(wall, "s"),
                "peak_rss_mb": _metric(max(o.maxrss_kb for p in passes for o in p.outcomes) / 1024.0, "MB"),
            }
            lines.append(f"repetitions: {len(passes)}; measured pass walls: {', '.join(f'{p.wall:.3f}' for p in passes)}")
            lines.append(
                f"measured wall_s (best of k, unscaled): {raw:.4f} s; host slowness "
                f"{min(slowness):.3f} to {max(slowness):.3f}"
            )
            lines.append(f"setup_s samples: {', '.join(f'{t:.3f}' for t in setups)}")
            for sub, metric in SUBCOMMAND_METRICS.items():
                if any(c.subcommand == sub for c in workload.calls):
                    per = sum(t for t, c in zip(best, workload.calls) if c.subcommand == sub)
                    lines.append(f"{metric:24s} {per:.4f} s (best of {len(passes)} per call, quiet-host s)")
            for key, err2 in error_bars(name, passes[0].reports()).items():
                lines.append(f"err({key}) = {math.sqrt(err2):.6g}; err^2 x wall_s = {err2 * wall:.6g} s")
            lines.append("tracing overhead: n/a (untraced run; see a --trace 1 run)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += ledger.checks
    lines += [f"FAILED {f}" for f in ledger.failures]
    failed = len(ledger.failures)
    lines.append(f"fail_rate: {failed}/{ledger.attempted} = {failed / ledger.attempted:.4f}")
    for key, m in metrics.items():
        lines.append(f"{key:40s} {m['value']:.6g} {m['unit']}")
    return {
        "lines": lines,
        "result": {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sptqmc" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'sptqmc'}; run from a full checkout", file=sys.stderr)
        return 2

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(outcome["lines"]), flush=True)
        results[name] = outcome["result"]
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
