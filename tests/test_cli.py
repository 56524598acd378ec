"""Config parsing, subcommand dispatch, report format, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sptqmc import LocalEnergySeries, cli, rqmc
from sptqmc.cli import (
    CSV_CHUNK_ROWS,
    EXIT_COMPUTE,
    EXIT_CONFIG,
    SCHEMA_VERSION,
    ConfigError,
    RunConfig,
    _atomic_write,
    _write_sweeps_csv,
    main,
    parse_config,
    read_series_csv,
    run,
    write_series_csv,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

TWO_LEVEL_MODEL = """\
# symmetric two-level coupling
energies = [0.0, 1.0]
wmat = [[0.0, 0.1], [0.1, 0.0]]
"""

VMC_CONFIG = """\
alpha = 1.2
epsilon = 0.05
steps = 30000
burn_in = 1000
"""

RQMC_CONFIG = """\
[walker]
alpha = 1.2
epsilon = 0.05
[run]
n_beads = 50
sweeps = 40
burn_in_sweeps = 5
equilibration_steps = 200
"""


class TestParseConfig:
    def test_minimal_symbolic(self):
        config = parse_config("order = 6")
        assert config.subcommand == "symbolic"
        assert config.parameters["order"] == 6
        assert config.seed == 0
        assert config.output_path is None

    def test_infers_rqmc_from_signature_keys(self):
        config = parse_config(RQMC_CONFIG)
        assert config.subcommand == "rqmc"
        assert config.parameters["n_beads"] == 50
        assert config.parameters["direction_policy"] == "bounce"

    def test_infers_spectral_from_model_key(self):
        config = parse_config("model = two.cfg\norder = 4")
        assert config.subcommand == "spectral"

    def test_infers_vmc_from_chain_keys(self):
        config = parse_config(VMC_CONFIG)
        assert config.subcommand == "vmc"
        assert config.parameters["burn_in"] == 1000

    def test_explicit_subcommand_key(self):
        config = parse_config("subcommand = vmc\n" + VMC_CONFIG)
        assert config.subcommand == "vmc"

    def test_subcommand_argument_wins(self):
        config = parse_config("order = 4", "symbolic")
        assert config.subcommand == "symbolic"

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("epsilon = 0.01\nsteps = 1000")

    def test_typo_suggests_nearest_key(self):
        with pytest.raises(ConfigError, match="did you mean 'alpha'"):
            parse_config("alpa = 1.2\nepsilon = 0.01\nsteps = 1000")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 2.*first set on line 1"):
            parse_config("order = 3\norder = 4")

    def test_sections_share_one_namespace(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[a]\nalpha = 1.0\n[b]\nalpha = 1.2")

    def test_comments_and_blanks_skipped(self):
        config = parse_config("# a comment\n\norder = 3\n")
        assert config.parameters["order"] == 3

    def test_malformed_line_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("order = 3\nnot a key value pair")

    def test_inline_comments_and_bracketed_values_across_lines(self):
        config = parse_config(
            "trial = gaussian   # the built-in trial\nalpha = 1.2  # note\nepsilon = 0.01\nsteps = 50000\n"
            "allow_high_orders = FALSE  # the default\nseries_out = run#1.csv\n"
            "tau_grid = [1.0,  # first\n            2.0]\n"
        )
        assert config.parameters["trial"] == "gaussian"
        assert config.parameters["alpha"] == 1.2
        assert config.parameters["allow_high_orders"] is False
        assert config.parameters["series_out"] == "run#1.csv"
        assert config.parameters["tau_grid"] == [1.0, 2.0]
        with pytest.raises(ConfigError, match="line 2: the '\\[' opened in the value of 'tau_grid' is never closed"):
            parse_config("alpha = 1.2\ntau_grid = [1.0,\n2.0\n")

    def test_infinite_number_rejected(self):
        with pytest.raises(ConfigError, match="'alpha' must be a number, got inf"):
            parse_config("alpha = 1e999\nepsilon = 0.01\nsteps = 1000")

    def test_max_order_checked_at_parse_time(self):
        with pytest.raises(ConfigError, match="'max_order' must be positive"):
            parse_config(VMC_CONFIG + "max_order = 0")
        with pytest.raises(ConfigError, match="allow_high_orders"):
            parse_config(VMC_CONFIG + "max_order = 4")
        assert parse_config(VMC_CONFIG + "max_order = 4\nallow_high_orders = true").parameters["max_order"] == 4

    def test_diverging_walk_checked_at_parse_time(self):
        # x' = (1 - alpha epsilon) x + noise is stationary only for alpha epsilon < 2
        for keys in ("steps = 1000", "n_beads = 20\nsweeps = 50"):
            with pytest.raises(ConfigError, match="alpha \\* epsilon < 2"):
                parse_config(f"alpha = 1.2\nepsilon = 5.0\n{keys}")
            with pytest.raises(ConfigError, match="alpha \\* epsilon < 2"):
                parse_config(f"alpha = 1.0\nepsilon = 2.0\n{keys}")
        assert parse_config("alpha = 1.2\nepsilon = 1.6\nsteps = 1000").parameters["epsilon"] == 1.6
        assert parse_config("alpha = 1.2\nepsilon = 5.0\nseries = s.csv").parameters["series"] == "s.csv"

    def test_value_type_errors(self):
        with pytest.raises(ConfigError, match="'steps' must be an integer"):
            parse_config("alpha = 1.2\nepsilon = 0.01\nsteps = 2.5")
        with pytest.raises(ConfigError, match="'alpha' must be a number"):
            parse_config("alpha = fast\nepsilon = 0.01\nsteps = 1000")
        with pytest.raises(ConfigError, match="true or false"):
            parse_config("order = 3\nsum_over_states = yes")

    def test_int_accepted_for_float_key(self):
        config = parse_config("alpha = 1\nepsilon = 0.01\nsteps = 1000")
        assert config.parameters["alpha"] == 1.0
        assert isinstance(config.parameters["alpha"], float)

    def test_list_values(self):
        config = parse_config(
            "alpha = 1.2\nepsilon = 0.01\nsteps = 50000\ntau_grid = [1.0, 2.0]"
        )
        assert config.subcommand == "spt-orders"
        assert config.parameters["tau_grid"] == [1.0, 2.0]

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="'epsilon' must be positive"):
            parse_config("alpha = 1.2\nepsilon = -0.1\nsteps = 1000")
        with pytest.raises(ConfigError, match="n_beads"):
            parse_config("alpha = 1.2\nepsilon = 0.05\nn_beads = 1\nsweeps = 10")
        with pytest.raises(ConfigError, match="alpha must be positive"):
            parse_config("alpha = 0\nepsilon = 0.05\nsteps = 1000")
        with pytest.raises(ConfigError, match="'burn_in' must be >= 0"):
            parse_config("alpha = 1.2\nepsilon = 0.05\nsteps = 1000\nburn_in = -5")

    def test_enum_checks(self):
        with pytest.raises(ConfigError, match="did you mean 'quartic'"):
            parse_config(VMC_CONFIG + "potential = quartc")
        with pytest.raises(ConfigError, match="only 'gaussian'"):
            parse_config(VMC_CONFIG + "trial = slater")
        with pytest.raises(ConfigError, match="bounce or random"):
            parse_config(RQMC_CONFIG + "direction_policy = diagonal")

    def test_workers_validated(self):
        with pytest.raises(ConfigError, match="workers"):
            parse_config(VMC_CONFIG + "workers = 0")

    def test_unknown_subcommand_suggested(self):
        with pytest.raises(ConfigError, match="unknown subcommand 'vmcc'"):
            parse_config("subcommand = vmcc\n" + VMC_CONFIG)

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("order = 3\nseed = 1.5")

    def test_defaults_filled(self):
        config = parse_config(VMC_CONFIG)
        assert config.parameters["trial"] == "gaussian"
        assert config.parameters["potential"] == "harmonic"
        assert config.parameters["workers"] == 1
        assert config.parameters["series"] is None

    def test_empty_config_cannot_infer(self):
        with pytest.raises(ConfigError, match="infer"):
            parse_config("# nothing here\n")


class TestSeriesCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        series = LocalEnergySeries(
            values=np.array([0.5, 0.25, 1.0 / 3.0, 0.7071067811865476]),
            step=0.005,
            burn_in=2,
        )
        path = tmp_path / "series.csv"
        write_series_csv(str(path), series)
        loaded = read_series_csv(str(path))
        assert loaded.step == series.step
        assert loaded.burn_in == series.burn_in
        assert np.array_equal(loaded.values, series.values)

    def test_header_layout(self, tmp_path):
        series = LocalEnergySeries(values=np.array([0.1, 0.2]), step=0.25, burn_in=0)
        path = tmp_path / "series.csv"
        write_series_csv(str(path), series)
        lines = path.read_text().splitlines()
        assert lines[0] == "# epsilon = 0.25"
        assert lines[1] == "# burn_in = 0"
        assert lines[2] == "step,W"
        assert lines[3] == "0,0.1"

    def test_missing_epsilon_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("step,W\n0,0.5\n1,0.5\n")
        with pytest.raises(ConfigError, match="epsilon"):
            read_series_csv(str(path))


def joined_series_text(values, step, burn_in) -> str:
    """A series file as it was built before the writer streamed: one string per row, joined."""
    lines = [f"# epsilon = {float(step)!r}", f"# burn_in = {burn_in}", "step,W"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"


def joined_sweeps_text(run) -> str:
    """An RQMC series_out file as it was built before the writer streamed."""
    lines = ["sweep,w_tail,w_head,action"]
    lines.extend(
        f"{i},{float(run.series[i, 0])!r},{float(run.series[i, 1])!r},{float(run.actions[i])!r}"
        for i in range(run.sweeps)
    )
    return "\n".join(lines) + "\n"


class TestSeriesStreaming:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example(values=[-0.0, 5e-324, 1e-5, 1e16, 1e22])
    @example(values=[0.25])
    @example(values=[(-1.0) ** i * i / 7.0 for i in range(CSV_CHUNK_ROWS + 1)])
    def test_bytes_equal_the_joined_rows(self, values):
        series = LocalEnergySeries(values=np.array(values), step=0.005, burn_in=0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.csv")
            write_series_csv(path, series)
            with open(path, "rb") as handle:
                assert handle.read() == joined_series_text(values, 0.005, 0).encode("utf-8")
            loaded = read_series_csv(path)
        assert loaded.values.tobytes() == series.values.tobytes()

    @pytest.mark.parametrize(
        "text, burn_in, values",
        [
            ("# epsilon = 0.01\nstep,W\n0,0.5\n# a note\n1,-0.25\n#\n2,1e-300\n", 0, [0.5, -0.25, 1e-300]),
            ("# epsilon = 0.01\n\nstep,W\n\n0,0.5\n1,-0.25\n\n\n2,1e-300\n\n", 0, [0.5, -0.25, 1e-300]),
            ("# epsilon = 0.01\r\n# burn_in = 1\r\nstep,W\r\n0,0.5\r\n1,-0.25\r\n2,1e-300\r\n", 1, [0.5, -0.25, 1e-300]),
            ("# epsilon = 0.01\n# burn_in = 2\n0,0.5\n1,-0.25\n2,1e-300\n", 2, [0.5, -0.25, 1e-300]),
            ("# epsilon = 0.01\nstep,W\n0,0.5\n", 0, [0.5]),
        ],
        ids=["comments-between-rows", "blank-lines", "crlf", "no-step-line", "single-row"],
    )
    def test_round_trip_layouts(self, tmp_path, text, burn_in, values):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        loaded = read_series_csv(str(path))
        assert loaded.step == 0.01
        assert loaded.burn_in == burn_in
        assert loaded.values.tolist() == values
        assert loaded.values.flags.c_contiguous

    def test_memory_is_bounded(self, tmp_path):
        # 2M values are 16 MB as float64 and 43 MB as text: the writer may
        # hold one chunk of rows, the reader one (n, 2) array of them
        series = LocalEnergySeries(
            values=np.random.default_rng(2).normal(size=2_000_000), step=0.005, burn_in=0
        )
        path = str(tmp_path / "long.csv")
        tracemalloc.start()
        try:
            write_series_csv(path, series)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = read_series_csv(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, series.values)
        assert write_peak < 32e6
        assert read_peak < 40e6

    def test_read_series_owns_its_values(self, tmp_path):
        # the series keeps its n values, not the (n, 2) buffer the rows were parsed into
        path = str(tmp_path / "series.csv")
        write_series_csv(path, LocalEnergySeries(values=np.linspace(0.0, 1.0, CSV_CHUNK_ROWS + 3), step=0.01))
        values = read_series_csv(path).values
        assert values.flags.owndata
        assert values.nbytes == (CSV_CHUNK_ROWS + 3) * values.itemsize


MALFORMED_SERIES = {
    "not-a-number": ("# epsilon = 0.01\nstep,W\n0,0.5\n1,abc\n2,0.5\n", "line 4"),
    "no-data-rows": ("# epsilon = 0.01\n# burn_in = 0\nstep,W\n", "no data rows"),
    "nan-row": ("# epsilon = 0.01\nstep,W\n0,0.5\n1,nan\n", "line 4"),
    "extra-field": ("# epsilon = 0.01\nstep,W\n0,0.5\n1,2.5,extra\n", "line 4"),
    "three-columns-throughout": ("# epsilon = 0.01\nstep,W\n0,0.5,1\n1,2.5,1\n", "line 3"),
    "bad-epsilon": ("# epsilon = small\nstep,W\n0,0.5\n", "line 1"),
    "burn-in-past-the-end": ("# epsilon = 0.01\n# burn_in = 5\n0,0.5\n1,0.5\n", "burn_in"),
    "not-utf-8": ("# epsilon = 0.01\nstep,W\n0,0.5\n1,\xff\n", "not UTF-8"),
    "nan-epsilon": ("# epsilon = nan\nstep,W\n0,0.5\n1,0.5\n", "epsilon"),
    "infinite-epsilon": ("# epsilon = inf\nstep,W\n0,0.5\n1,0.5\n", "epsilon"),
}


class TestMalformedSeries:
    @pytest.mark.parametrize("name", sorted(MALFORMED_SERIES))
    def test_reader_raises_config_error(self, tmp_path, name):
        text, where = MALFORMED_SERIES[name]
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError, match=where) as info:
            read_series_csv(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("name", sorted(MALFORMED_SERIES))
    def test_spt_orders_exits_with_config_error(self, tmp_path, capsys, name):
        text, where = MALFORMED_SERIES[name]
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("latin-1"))
        cfg = tmp_path / "orders.cfg"
        cfg.write_text(f"series = {path}\nmax_order = 2\n")
        assert main(["spt-orders", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(path) in err and where in err


class TestSweepsCsv:
    def test_cli_series_out_equals_the_joined_rows(self, tmp_path, monkeypatch):
        runs = []
        real = rqmc.run_reptation

        def capture(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(rqmc, "run_reptation", capture)
        cfg = tmp_path / "ho.cfg"
        series_path = tmp_path / "sweeps.csv"
        cfg.write_text(RQMC_CONFIG + f"series_out = {series_path}\n")
        assert main(["rqmc", "--config", str(cfg)]) == 0
        assert series_path.read_bytes() == joined_sweeps_text(runs[0]).encode("utf-8")

    def test_rows_past_one_chunk(self, tmp_path):
        n = CSV_CHUNK_ROWS + 1
        rng = np.random.default_rng(9)
        series = rng.normal(size=(n, 2))
        series[:3, 0] = [-0.0, 5e-324, 1e22]
        run = types.SimpleNamespace(series=series, actions=rng.normal(size=n), sweeps=n)
        path = tmp_path / "sweeps.csv"
        _write_sweeps_csv(str(path), run)
        assert path.read_bytes() == joined_sweeps_text(run).encode("utf-8")


class TestAtomicWrite:
    def test_writes_exact_text(self, tmp_path):
        path = tmp_path / "out.json"
        _atomic_write(str(path), '{"a": 1}\n')
        assert path.read_text() == '{"a": 1}\n'

    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.csv"
        _atomic_write(str(path), (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_failing_chunk_leaves_no_file(self, tmp_path):
        def chunks():
            yield "partial\n"
            raise RuntimeError("simulated formatting failure")

        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="simulated"):
            _atomic_write(str(path), chunks())
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated"):
            _atomic_write(str(path), "data")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestSymbolicCommand:
    def test_prints_first_orders(self, capsys):
        assert main(["symbolic", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "epsilon_1 = g1" in out
        assert "epsilon_2 = -g2" in out
        assert "schema_version" not in out

    def test_sum_over_states_lines(self, capsys):
        assert main(["symbolic", "--order", "2", "--sum-over-states"]) == 0
        out = capsys.readouterr().out
        assert "W_{00}" in out
        assert "Σ'_k W_{0k} W_{k0} / E_k" in out

    def test_report_schema(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["symbolic", "--order", "3", "--output", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["command"] == "symbolic"
        assert report["seed"] == 0
        assert isinstance(report["version"], str)
        assert set(report["results"]["orders"]) == {"1", "2", "3"}
        assert report["results"]["orders"]["3"]["text"] == "g3 + g1 g2^(1)"

    def test_order_cap_is_config_error(self, capsys):
        assert main(["symbolic", "--order", "12"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_wall_time_goes_to_stderr(self, capsys):
        main(["symbolic", "--order", "1"])
        captured = capsys.readouterr()
        assert "wall time" not in captured.out
        assert "wall time" in captured.err


class TestSpectralCommand:
    def test_oracle_columns_small(self, tmp_path, capsys):
        model = tmp_path / "twolevel.cfg"
        model.write_text(TWO_LEVEL_MODEL)
        out_path = tmp_path / "report.json"
        code = main([
            "spectral", "--model", str(model), "--order", "4", "--oracle",
            "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,epsilon_n,oracle_c_n,rel_diff"
        report = json.loads(out_path.read_text())
        orders = report["results"]["orders"]
        assert set(orders) == {"1", "2", "3", "4"}
        for entry in orders.values():
            assert entry["rel_diff"] < 1e-6
        assert orders["2"]["epsilon"] == pytest.approx(-0.01, rel=1e-10)

    def test_oracle_exact_at_order_8_on_anharmonic_30(self, tmp_path, capsys):
        model = tmp_path / "anharmonic.cfg"
        model.write_text("builder = anharmonic\nbasis_size = 30\nquartic_coupling = 0.1\n")
        out_path = tmp_path / "report.json"
        args = ["spectral", "--model", str(model), "--order", "8", "--oracle", "--output", str(out_path)]
        assert main(args) == 0
        results = json.loads(out_path.read_text())["results"]
        assert [results["orders"][str(n)]["rel_diff"] <= 1e-9 for n in range(1, 9)] == [True] * 8
        assert results["orders"]["8"]["oracle"] == pytest.approx(-0.31448215, rel=1e-8)
        assert results["oracle_self_check"] <= 1e-30
        assert "oracle_fit_residual" not in results

    def test_plain_table(self, tmp_path, capsys):
        model = tmp_path / "twolevel.cfg"
        model.write_text(TWO_LEVEL_MODEL)
        assert main(["spectral", "--model", str(model), "--order", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,epsilon_n"
        assert len(lines) == 3

    def test_missing_model_file(self, capsys):
        assert main(["spectral", "--model", "/no/such/model.cfg", "--order", "2"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("builder = anharmonic\nbasis_size = 10\nquartic_coupling = 0.1", "basis_size"),
            ('builder = anharmonic\nbasis_size = 30\nquartic_coupling = "x"', "quartic_coupling"),
            ("energies = [0.0, 1.0]\nwmat = [[0.1, 0.2], [0.2]]", "wmat"),
            ("builder = anharmonic\nbasis_size = 30.7\nquartic_coupling = 0.1", "basis_size"),
            ("builder = anharmonic\nbasis_size = 30\nquartic_coupling = 1e999", "quartic_coupling"),
            ("energies = [0.0, None]\nwmat = [[0.0, 0.1], [0.1, 0.0]]", "energies"),
            ("builder = anharmonic  # note\nbasis_size = 30\nquartic_coupling = 0.1", None),
        ],
        ids=[
            "basis-too-small", "coupling-not-a-number", "ragged-wmat", "basis-not-an-integer",
            "coupling-infinite", "energies-not-finite", "inline-comment",
        ],
    )
    def test_malformed_model_file_exits_2(self, text, key, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text(text + "\n")
        code = main(["spectral", "--model", str(model), "--order", "2"])
        err = capsys.readouterr().err
        if key is None:
            assert code == 0
        else:
            assert code == EXIT_CONFIG
            assert err.startswith("config error: ")
            assert key in err


class TestVmcCommand:
    def test_small_run_report(self, tmp_path, capsys):
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text(VMC_CONFIG)
        out_path = tmp_path / "report.json"
        assert main(["vmc", "--config", str(cfg), "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "VMC energy" in out
        report = json.loads(out_path.read_text())
        energy = report["results"]["energy"]
        assert set(energy) == {"mean", "err", "autocorr_time", "effective_samples"}
        assert 0.4 < energy["mean"] < 0.6

    def test_workers_merge(self, tmp_path):
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text("alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\nworkers = 3\n")
        out_path = tmp_path / "report.json"
        assert main(["vmc", "--config", str(cfg), "--output", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        chains = report["results"]["workers"]
        assert len(chains) == 3
        merged = report["results"]["energy"]
        assert merged["err"] == pytest.approx(math.sqrt(sum(c["err"] ** 2 for c in chains)) / 3, rel=1e-12)
        assert merged["effective_samples"] == pytest.approx(
            sum(c["effective_samples"] for c in chains), rel=1e-9
        )

    def test_series_out_then_reuse(self, tmp_path, capsys):
        cfg = tmp_path / "vmc.cfg"
        series_path = tmp_path / "chain.csv"
        cfg.write_text(
            "alpha = 1.2\nepsilon = 0.01\nsteps = 200000\nburn_in = 2000\n"
            f"series_out = {series_path}\n"
        )
        assert main(["vmc", "--config", str(cfg)]) == 0
        assert series_path.exists()
        capsys.readouterr()

        orders_cfg = tmp_path / "orders.cfg"
        orders_cfg.write_text(f"series = {series_path}\nmax_order = 2\n")
        out_path = tmp_path / "orders.json"
        assert main(["spt-orders", "--config", str(orders_cfg), "--output", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        results = report["results"]
        assert set(results["epsilon_n"]) == {"1", "2"}
        assert results["tau_w"] > 0
        assert all(v > 0.9 for v in results["diagnostics"]["r2"])
        assert "autocorrelation_epsilon_2" in results
        out = capsys.readouterr().out
        assert "epsilon_2" in out

    def test_spt_orders_writes_the_same_series_out(self, tmp_path):
        walker_keys = "alpha = 1.2\nepsilon = 0.05\nsteps = 50000\nburn_in = 500\nworkers = 2\n"
        extra = {"vmc": "", "spt-orders": "max_order = 2\n"}
        written = {}
        for sub in ("vmc", "spt-orders"):
            written[sub] = tmp_path / f"{sub}.csv"
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text(walker_keys + extra[sub] + f"series_out = {written[sub]}\n")
            assert main([sub, "--config", str(cfg), "--seed", "5"]) == 0
        assert written["vmc"].read_bytes() == written["spt-orders"].read_bytes()

    def test_report_echoes_the_analysed_series(self, tmp_path):
        series_path = tmp_path / "chain.csv"
        values = np.random.default_rng(6).normal(0.5, 0.1, size=3500)
        write_series_csv(str(series_path), LocalEnergySeries(values=values, step=0.02, burn_in=500))
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text(f"series = {series_path}\n")
        out_path = tmp_path / "vmc.json"
        assert main(["vmc", "--config", str(cfg), "--output", str(out_path)]) == 0
        results = json.loads(out_path.read_text())["results"]
        assert (results["epsilon"], results["steps"], results["burn_in"]) == (0.02, 3000, 500)

    def test_short_series_is_compute_error(self, tmp_path, capsys):
        series_path = tmp_path / "short.csv"
        series = LocalEnergySeries(values=np.full(500, 0.51), step=0.01, burn_in=0)
        write_series_csv(str(series_path), series)
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text(f"subcommand = vmc\nseries = {series_path}\n")
        assert main(["vmc", "--config", str(cfg)]) == EXIT_COMPUTE
        assert "compute error" in capsys.readouterr().err


# sha256 of the series file and the `results` of `spt vmc` (the installed-script
# CI config: 200,000 steps, 2 workers, seed 1) and of `spt spt-orders` reading
# that file, with the two vmc chains merged by equal weights
WALK_DIGEST = "e63fc21ebf50fd97c9dfd98cb4f78754825baa9e419b7c257811b9ff675c1cb2"


def test_walk_reports_match_digest(tmp_path):
    series = tmp_path / "walk.csv"
    (tmp_path / "vmc.cfg").write_text(
        f"alpha = 1.2\nepsilon = 0.005\nsteps = 200000\nburn_in = 2000\nworkers = 2\nseries_out = {series}\n"
    )
    (tmp_path / "orders.cfg").write_text(f"max_order = 2\nseries = {series}\n")
    assert main(["vmc", "--config", str(tmp_path / "vmc.cfg"), "--seed", "1", "--output", str(tmp_path / "vmc.json")]) == 0
    assert main(["spt-orders", "--config", str(tmp_path / "orders.cfg"), "--output", str(tmp_path / "orders.json")]) == 0
    record = {
        "series": hashlib.sha256(series.read_bytes()).hexdigest(),
        "vmc": json.loads((tmp_path / "vmc.json").read_text())["results"],
        "spt-orders": json.loads((tmp_path / "orders.json").read_text())["results"],
    }
    assert hashlib.sha256(json.dumps(record, sort_keys=True).encode("ascii")).hexdigest() == WALK_DIGEST


def test_noisy_linear_gamma_3_keeps_every_order(tmp_path):
    # gamma_3 of this chain grows linearly but fits below R^2 0.99 at 400,000 steps on most seeds;
    # its scatter about the line stays within the noise, so no order is refused
    (tmp_path / "orders.cfg").write_text(
        "alpha = 1.2\nepsilon = 0.005\nsteps = 400000\nburn_in = 4000\nmax_order = 3\nworkers = 2\n"
    )
    out_path = tmp_path / "orders.json"
    assert main(["spt-orders", "--config", str(tmp_path / "orders.cfg"), "--seed", "1", "--output", str(out_path)]) == 0
    assert set(json.loads(out_path.read_text())["results"]["epsilon_n"]) == {"1", "2", "3"}


class TestSeedPrecedence:
    def _seed_of(self, tmp_path, capsys, argv_extra=()):
        out_path = tmp_path / "seed-probe.json"
        code = main(["symbolic", "--order", "1", "--output", str(out_path), *argv_extra])
        capsys.readouterr()
        assert code == 0
        return json.loads(out_path.read_text())["seed"]

    def test_flag_beats_env_and_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPT_SEED", "7")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("order = 1\nseed = 5\n")
        seed = self._seed_of(tmp_path, capsys, ("--config", str(cfg), "--seed", "9"))
        assert seed == 9

    def test_env_beats_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPT_SEED", "7")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("order = 1\nseed = 5\n")
        assert self._seed_of(tmp_path, capsys, ("--config", str(cfg))) == 7

    def test_config_seed_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SPT_SEED", raising=False)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("order = 1\nseed = 5\n")
        assert self._seed_of(tmp_path, capsys, ("--config", str(cfg))) == 5

    def test_default_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SPT_SEED", raising=False)
        assert self._seed_of(tmp_path, capsys) == 0

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPT_SEED", "lots")
        assert main(["symbolic", "--order", "1"]) == EXIT_CONFIG
        assert "SPT_SEED" in capsys.readouterr().err


class TestDeterminism:
    def _run_twice(self, argv, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"report-{tag}.json"
            assert main([*argv, "--output", str(out_path)]) == 0
            capsys.readouterr()
            paths.append(out_path)
        return paths[0].read_bytes(), paths[1].read_bytes()

    def test_vmc_reports_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text("alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\n")
        a, b = self._run_twice(["vmc", "--config", str(cfg), "--seed", "42"], tmp_path, capsys)
        assert a == b

    def test_rqmc_reports_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "ho.cfg"
        cfg.write_text(RQMC_CONFIG)
        a, b = self._run_twice(["rqmc", "--config", str(cfg), "--seed", "42"], tmp_path, capsys)
        assert a == b

    def test_seed_changes_the_report(self, tmp_path, capsys):
        cfg = tmp_path / "vmc.cfg"
        cfg.write_text("alpha = 1.2\nepsilon = 0.05\nsteps = 20000\nburn_in = 500\n")
        a, _ = self._run_twice(["vmc", "--config", str(cfg), "--seed", "1"], tmp_path, capsys)
        b, _ = self._run_twice(["vmc", "--config", str(cfg), "--seed", "2"], tmp_path, capsys)
        assert a != b


class TestRqmcCommand:
    def test_report_contents(self, tmp_path, capsys):
        cfg = tmp_path / "ho.cfg"
        series_path = tmp_path / "sweeps.csv"
        cfg.write_text(RQMC_CONFIG + f"series_out = {series_path}\n")
        out_path = tmp_path / "report.json"
        assert main(["rqmc", "--config", str(cfg), "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "RQMC energy" in out
        assert "acceptance rate" in out
        report = json.loads(out_path.read_text())
        results = report["results"]
        assert 0.0 < results["acceptance_rate"] <= 1.0
        assert "x2" in results["pure"]
        assert results["burn_in_sweeps"] == [5]
        lines = series_path.read_text().splitlines()
        assert lines[0] == "sweep,w_tail,w_head,action"
        assert len(lines) == 1 + 40


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["vmc", "--config", "/no/such/file.cfg"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_required_keys_without_config(self, capsys):
        assert main(["vmc"]) == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        assert main([
            "symbolic", "--order", "1",
            "--output", str(tmp_path / "missing-dir" / "report.json"),
        ]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output error" in err
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize(
        "case", ["config-not-utf-8", "model-not-utf-8", "series-is-a-directory", "model-is-a-directory"]
    )
    def test_unreadable_input_is_config_error(self, case, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("order = 2\n# café\n".encode("latin-1"))
        directory = tmp_path / "adir"
        directory.mkdir()
        orders_cfg = tmp_path / "orders.cfg"
        orders_cfg.write_text(f'series = "{directory}"\nmax_order = 2\n')
        argv, path = {
            "config-not-utf-8": (["symbolic", "--config", str(latin1)], latin1),
            "model-not-utf-8": (["spectral", "--model", str(latin1), "--order", "2"], latin1),
            "series-is-a-directory": (["spt-orders", "--config", str(orders_cfg)], directory),
            "model-is-a-directory": (["spectral", "--model", str(directory), "--order", "2"], directory),
        }[case]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(path) in err

    @pytest.mark.parametrize(
        "line, key",
        [
            ('tau_grid = [1.0, "a"]', "tau_grid"),
            ("tau_grid = [0.4, 0.3, 0.2, 0.1]", "tau_grid"),
            ("tau_grid = [0.0001, 0.2, 0.3, 0.4]", "tau_grid"),
            ("tau_grid = [0.1, 0.2]", "tau_grid"),
            ("tau_points = 2", "tau_points"),
            ("tau_min_factor = 50.0", "tau_min_factor"),
            ("tau_grid = []", "tau_grid"),
        ],
        ids=[
            "not-a-number", "decreasing", "below-one-step", "two-points", "two-points-from-factors", "min-above-max",
            "empty",
        ],
    )
    def test_tau_grid_mistakes_are_config_errors(self, line, key, tmp_path, capsys):
        cfg = tmp_path / "orders.cfg"
        cfg.write_text(f"alpha = 1.2\nepsilon = 0.01\nsteps = 20000\n{line}\n")
        assert main(["spt-orders", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key in err

    @pytest.mark.parametrize("line", ["tau_grid = [0.4, 0.3, 0.2, 0.1]", "tau_min_factor = 50.0"])
    def test_decreasing_grid_is_called_decreasing(self, line, tmp_path, capsys):
        cfg = tmp_path / "orders.cfg"
        cfg.write_text(f"alpha = 1.2\nepsilon = 0.01\nsteps = 20000\n{line}\n")
        assert main(["spt-orders", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "increasing" in err and "collapses" not in err

    @pytest.mark.parametrize(
        "sub, keys", [("vmc", "steps = 20000\n"), ("rqmc", "n_beads = 20\nsweeps = 50\nburn_in_sweeps = 5\n")]
    )
    def test_diverging_walk_is_config_error(self, sub, keys, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.2\nepsilon = 5.0\n" + keys)
        out_path = tmp_path / "report.json"
        assert main([sub, "--config", str(cfg), "--output", str(out_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: alpha * epsilon = ")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "sub, keys, message",
        [
            ("rqmc", "n_beads = 20\nsweeps = 1\n", "sweeps must be at least 2"),
            ("vmc", "steps = 2000\npotential = doublewell\nhalf_separation = 0\n",
             "'half_separation' must be positive"),
            ("rqmc", "n_beads = 20\nsweeps = 10\nburn_in_sweeps = -5\n", "'burn_in_sweeps' must be >= 0"),
        ],
        ids=["one-sweep", "zero-half-separation", "negative-burn-in-sweeps"],
    )
    def test_values_that_cannot_run_are_config_errors(self, sub, keys, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.2\nepsilon = 0.05\n" + keys)
        out_path = tmp_path / "report.json"
        assert main([sub, "--config", str(cfg), "--output", str(out_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("case", ["small-model", "order-above-cap", "short-series"])
    def test_exit_codes_in_a_fresh_process(self, case, tmp_path):
        # the raising module is loaded only by the subcommand that runs it, which this process has done already
        (tmp_path / "small.model").write_text("builder = anharmonic\nbasis_size = 10\nquartic_coupling = 0.1\n")
        (tmp_path / "short.csv").write_text("# epsilon = 0.01\nstep,W\n" + "".join(f"{i},0.5\n" for i in range(10)))
        (tmp_path / "vmc.cfg").write_text("series = short.csv\n")
        argv, code, prefix = {
            "small-model": (["spectral", "--model", "small.model", "--order", "4"], EXIT_CONFIG, "config error: basis_size"),
            "order-above-cap": (["symbolic", "--order", "11"], EXIT_CONFIG, "config error: order 11 exceeds the cap"),
            "short-series": (["vmc", "--config", "vmc.cfg"], EXIT_COMPUTE, "compute error: need >= 1000"),
        }[case]
        proc = subprocess.run([sys.executable, "-m", "sptqmc", *argv], capture_output=True, text=True, timeout=120,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(prefix)

    def test_non_string_output_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "symbolic.cfg"
        cfg.write_text("order = 2\noutput = 5\n")
        assert main(["symbolic", "--config", str(cfg)]) == EXIT_CONFIG
        assert "output must be a path string" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunDirect:
    def test_symbolic_inline(self):
        report = run(parse_config("order = 1"))
        assert report.human == ["epsilon_1 = g1"]
        assert report.report["results"]["orders"]["1"]["text"] == "g1"
        assert report.to_json().endswith("\n")

    def test_to_json_stable(self):
        report = run(parse_config("order = 2"))
        again = run(parse_config("order = 2"))
        assert report.to_json() == again.to_json()

    def test_adaptive_burn_in_engaged(self):
        config = RunConfig(
            subcommand="rqmc",
            parameters=parse_config(
                "alpha = 1.2\nepsilon = 0.05\nn_beads = 30\nsweeps = 10\n"
                "equilibration_steps = 100\n"
            ).parameters,
            seed=3,
        )
        with pytest.warns(UserWarning, match="projection"):
            report = run(config)
        burned = report.report["results"]["burn_in_sweeps"]
        assert len(burned) == 1
        assert burned[0] >= 50


class TestInstalledEntryPoints:
    def test_wall_time_counts_the_imports(self):
        code = (
            "import sys, time\n"
            "start = time.perf_counter()\n"
            "import sptqmc.cli\n"
            "print(time.perf_counter() - start)\n"
            "sys.argv = ['spt', 'symbolic', '--order', '1']\n"
            "sys.exit(sptqmc.cli.main())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        imported = float(proc.stdout.splitlines()[0])
        printed = float(proc.stderr.split("wall time:")[1].split()[0])
        assert printed >= imported - 0.0005  # printed to the millisecond

    def test_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only: a Gaussian walk and its series file need none of it
        (tmp_path / "run.cfg").write_text(
            "alpha = 1.2\nepsilon = 0.01\nsteps = 150000\nburn_in = 1000\nworkers = 2\nseries_out = s.csv\n"
        )
        outputs = []
        for block in ("sys.modules['scipy'] = None", "pass"):
            code = (
                f"import sys\n{block}\nfrom sptqmc.cli import main\n"
                "sys.exit(main(['vmc', '--config', 'run.cfg', '--seed', '2', '--output', 'r.json']))\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                                  cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
            assert proc.returncode == 0, proc.stderr
            outputs.append([proc.stdout] + [(tmp_path / name).read_bytes() for name in ("r.json", "s.csv")])
        assert outputs[0] == outputs[1]

    def test_source_tree_reports_unknown_without_importlib_metadata(self, tmp_path):
        # no sys.path entry holds sptqmc metadata, so importlib.metadata (about 20 ms) is never imported
        code = (
            "import json, sys\nfrom sptqmc.cli import main\n"
            "assert main(['symbolic', '--order', '1', '--output', 'r.json']) == 0\n"
            "print(json.dumps([json.load(open('r.json'))['version'], 'importlib.metadata' in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == ["unknown", False]

    @pytest.mark.parametrize("layout", ["dist-info", "egg-info", "zip"])
    def test_installed_metadata_gives_the_version(self, tmp_path, monkeypatch, layout):
        site = tmp_path / "site"
        if layout == "dist-info":
            (site / "sptqmc-9.9.dist-info").mkdir(parents=True)
            (site / "sptqmc-9.9.dist-info" / "METADATA").write_text("Metadata-Version: 2.1\nName: sptqmc\nVersion: 9.9\n")
        elif layout == "egg-info":  # a development install's metadata, beside the package
            (site / "sptqmc.egg-info").mkdir(parents=True)
            (site / "sptqmc.egg-info" / "PKG-INFO").write_text("Metadata-Version: 2.1\nName: sptqmc\nVersion: 9.9\n")
        else:
            site = tmp_path / "site.zip"
            with zipfile.ZipFile(site, "w") as archive:
                archive.writestr("sptqmc-9.9.dist-info/METADATA", "Metadata-Version: 2.1\nName: sptqmc\nVersion: 9.9\n")
        monkeypatch.syspath_prepend(str(site))
        assert run(parse_config("order = 1")).report["version"] == "9.9"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sptqmc", "symbolic", "--order", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "epsilon_2 = -g2" in proc.stdout
