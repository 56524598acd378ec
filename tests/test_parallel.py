"""fork_map, and the CLI chains giving the same bytes inline and forked."""

import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sptqmc import LocalEnergySeries, parallel, rqmc, walker
from sptqmc.cli import CSV_CHUNK_ROWS, EXIT_COMPUTE, EXIT_CONFIG, main, write_series_csv
from sptqmc.estimators import SeriesTooShortError, WindowSelectionError

SRC = str(Path(__file__).resolve().parents[1] / "src")
MULTICORE = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="forking needs at least two usable cores",
)
PATHS = ["inline", pytest.param("forked", marks=MULTICORE)]

WALKER_KEYS = "alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\nworkers = 2\n"
RQMC_KEYS = (
    "alpha = 1.22\npotential = quartic\nquartic_coupling = 0.1\nepsilon = 0.05\n"
    "n_beads = 60\nsweeps = 60\nequilibration_steps = 200\nworkers = 2\n"
)


@pytest.fixture
def on_path(monkeypatch):
    """Select the inline path (one usable core) or the forked one (the host's cores)."""

    def select(path):
        if path == "inline":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.undo()

    return select


def _warn_then_return(x):
    warnings.warn("the same warning from every item", UserWarning)
    return x


def _warn_then_raise_at_one(x):
    warnings.warn(f"item {x} warns before it fails", UserWarning)
    if x == 1:
        raise WindowSelectionError(f"no window for item {x}")
    return x


def _raise_at_two(x):
    if x == 2:
        raise WindowSelectionError(f"no window for item {x}")
    return x


class TestForkMap:
    @pytest.mark.parametrize("path", PATHS)
    def test_keeps_item_order(self, path, on_path):
        on_path(path)
        assert parallel.fork_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]

    def test_one_core_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parallel.fork_map(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    @MULTICORE
    def test_two_cores_run_in_children(self):
        assert os.getpid() not in parallel.fork_map(lambda _: os.getpid(), range(4))

    @MULTICORE
    def test_nested_map_runs_inline_in_the_child(self):
        pids = parallel.fork_map(lambda _: parallel.fork_map(lambda _: os.getpid(), range(2)), range(2))
        assert all(len(set(inner)) == 1 for inner in pids)

    @pytest.mark.parametrize("path", PATHS)
    def test_child_exception_keeps_type_and_message(self, path, on_path):
        on_path(path)
        with pytest.raises(WindowSelectionError, match="no window for item 2"):
            parallel.fork_map(_raise_at_two, range(4))

    @pytest.mark.parametrize("path", PATHS)
    def test_warnings_reach_the_caller(self, path, on_path):
        on_path(path)
        with pytest.warns(UserWarning, match="the same warning"):
            assert parallel.fork_map(_warn_then_return, range(3)) == [0, 1, 2]

    @pytest.mark.parametrize("path", PATHS)
    def test_warning_before_a_failure_reaches_the_caller(self, path, on_path):
        on_path(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(WindowSelectionError, match="no window for item 1"):
                parallel.fork_map(_warn_then_raise_at_one, range(2))
        assert [str(w.message) for w in caught] == ["item 0 warns before it fails", "item 1 warns before it fails"]

    @pytest.mark.parametrize("path", PATHS)
    def test_repeated_warning_shown_once(self, path, on_path):
        on_path(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            parallel.fork_map(_warn_then_return, range(3))
        assert len(caught) == 1


def _run_cli(tmp_path, sub, keys, capsys):
    """Run one subcommand with series_out; return its exit code, stderr, report and CSV bytes."""
    series = tmp_path / "series.csv"
    report = tmp_path / "report.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(keys + f"series_out = {series}\n")
    code = main([sub, "--config", str(cfg), "--seed", "3", "--output", str(report)])
    err = "".join(line for line in capsys.readouterr().err.splitlines(True) if "wall time" not in line)
    outputs = []
    for path in (report, series):
        outputs.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return code, err, *outputs


@MULTICORE
class TestCliInlineEqualForked:
    @pytest.mark.parametrize(
        "sub, keys",
        [("vmc", WALKER_KEYS), ("spt-orders", WALKER_KEYS + "max_order = 2\n"), ("rqmc", RQMC_KEYS)],
        ids=["vmc", "spt-orders", "rqmc"],
    )
    def test_reports_and_csvs_byte_identical(self, sub, keys, tmp_path, capsys, on_path):
        on_path("inline")
        inline = _run_cli(tmp_path, sub, keys, capsys)
        on_path("forked")
        forked = _run_cli(tmp_path, sub, keys, capsys)
        assert inline[0] == 0 and inline[3] is not None
        assert forked == inline

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="pinning to one core needs taskset")
    def test_pinned_to_one_core_gives_the_same_report(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALKER_KEYS)
        report = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": SRC}
        one_core = ["taskset", "-c", str(min(os.sched_getaffinity(0)))]
        reports = []
        for pin in (one_core, []):
            proc = subprocess.run(
                [*pin, sys.executable, "-m", "sptqmc", "vmc", "--config", str(cfg), "--seed", "3",
                 "--output", str(report)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(report.read_bytes())
            report.unlink()
        assert reports[0] == reports[1]

    def test_short_chain_is_the_same_compute_error(self, tmp_path, capsys, on_path):
        keys = WALKER_KEYS.replace("steps = 20000", "steps = 500").replace("burn_in = 500", "burn_in = 100")
        on_path("inline")
        inline = _run_cli(tmp_path, "vmc", keys, capsys)
        on_path("forked")
        forked = _run_cli(tmp_path, "vmc", keys, capsys)
        assert inline[0] == EXIT_COMPUTE
        assert forked == inline

    def test_series_out_in_a_missing_directory(self, tmp_path, capsys, on_path):
        keys = WALKER_KEYS + f"series_out = {tmp_path / 'no' / 'such.csv'}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(keys)
        for path in ("inline", "forked"):
            on_path(path)
            assert main(["vmc", "--config", str(cfg)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error:")


class TestSeriesOutOnEveryExit:
    """series_out is written in the caller, after the chains, on success and on a chain's failure alike."""

    SHORT = "alpha = 1.2\nepsilon = 0.05\nsteps = 500\nburn_in = 100\n"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sub", ["vmc", "spt-orders"])
    @pytest.mark.parametrize("path", PATHS)
    def test_short_chain_fails_and_keeps_worker_0_series(self, sub, workers, path, tmp_path, capsys, on_path):
        on_path(path)
        code, err, report, csv = _run_cli(tmp_path, sub, self.SHORT + f"workers = {workers}\n", capsys)
        failure = {"vmc": "need >= 1000 post-burn-in samples, got 500", "spt-orders": "not in the asymptotic linear regime"}
        assert (code, report) == (EXIT_COMPUTE, None)
        assert err.startswith("compute error: ") and failure[sub] in err
        expected = tmp_path / "expected.csv"
        write_series_csv(str(expected), walker.sample_local_energy_series(
            walker.GaussianTrial(1.2), walker.HarmonicPotential(), epsilon=0.05, steps=500, burn_in=100,
            rng=walker.derive_rng(3, "vmc-chain", 0),
        ))
        assert csv == expected.read_bytes()

    def test_chains_after_a_failed_one_are_not_run(self, tmp_path, capsys, on_path, monkeypatch):
        on_path("inline")
        sample, calls = walker.sample_local_energy_series, []
        monkeypatch.setattr(walker, "sample_local_energy_series", lambda *a, **k: calls.append(1) or sample(*a, **k))
        assert _run_cli(tmp_path, "vmc", self.SHORT + "workers = 3\n", capsys)[0] == EXIT_COMPUTE
        assert len(calls) == 1

    @pytest.mark.parametrize("path", PATHS)
    def test_failing_rqmc_chain_keeps_worker_0_sweeps(self, path, tmp_path, capsys, on_path, monkeypatch):
        expected = _run_cli(tmp_path, "rqmc", RQMC_KEYS.replace("workers = 2", "workers = 1"), capsys)[3]
        on_path(path)
        run, failing = rqmc.run_reptation, walker.derive_rng(3, "rqmc-chain", 1).bit_generator.state

        def fail_worker_1(*args, rng, **kwargs):
            if rng.bit_generator.state == failing:
                raise SeriesTooShortError("worker 1 fails")
            return run(*args, rng=rng, **kwargs)

        monkeypatch.setattr(rqmc, "run_reptation", fail_worker_1)
        code, err, report, csv = _run_cli(tmp_path, "rqmc", RQMC_KEYS, capsys)
        assert (code, report) == (EXIT_COMPUTE, None)
        assert err.startswith("compute error: worker 1 fails")
        assert csv is not None and csv == expected

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sub", ["vmc", "spt-orders"])
    def test_series_out_in_a_missing_directory(self, sub, workers, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALKER_KEYS.replace("workers = 2", f"workers = {workers}")
                       + f"series_out = {tmp_path / 'no' / 'such.csv'}\n")
        assert main([sub, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_one_core_and_two_write_the_same_bytes(self, tmp_path, on_path):
        values = np.random.default_rng(4).normal(size=3 * CSV_CHUNK_ROWS + 7)
        series = LocalEnergySeries(values=values, step=0.005, burn_in=11)
        files = []
        for path in ("inline", "forked"):
            on_path(path)
            files.append(tmp_path / f"{path}.csv")
            write_series_csv(str(files[-1]), series)
        assert len({f.read_bytes() for f in files}) == 1


class TestForkImap:
    @MULTICORE
    def test_abandoned_generator_resets_the_map(self):
        for _ in parallel.fork_imap(lambda x: x, range(6)):
            break
        assert parallel._FN is None
        assert os.getpid() not in parallel.fork_map(lambda _: os.getpid(), range(2))

    @MULTICORE
    def test_items_in_flight_are_bounded(self, tmp_path):
        def touch(x):
            (tmp_path / str(x)).touch()
            return x

        results = parallel.fork_imap(touch, range(40))
        assert next(results) == 0
        time.sleep(1.0)  # unbounded, every item would be done by now
        started = len(list(tmp_path.iterdir()))
        assert list(results) == list(range(1, 40))
        assert started <= 2 * len(os.sched_getaffinity(0)) + 1


@MULTICORE
class TestForkedWarnings:
    SHORT_PATH = RQMC_KEYS.replace("n_beads = 60", "n_beads = 10")

    def test_short_path_warned_once_on_stderr(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(self.SHORT_PATH)
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "sptqmc", "rqmc", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("below twice the projection time") == 1

    def test_short_path_warning_caught_by_pytest(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(self.SHORT_PATH)
        with pytest.warns(UserWarning, match="below twice the projection time"):
            assert main(["rqmc", "--config", str(cfg)]) == 0
