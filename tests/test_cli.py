"""Tests for the command-line interface and file outputs."""
import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulishift import analytics, cli, harness, invariants
from paulishift.cli import (canonical_json, config_digest, load_config, main,
                            parse_float_list, parse_int_grid)
from paulishift.estimators import DiagHessian, Gradient, OffDiagHessian
from dense_oracle import seed_sequence_streams

def _fresh_process(code: str, **env: str) -> str:
    """stdout of ``python -c code`` on this checkout's src, with no BLAS
    thread variable set but those given."""
    src = Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": str(src), **env}, capture_output=True,
        text=True, check=True).stdout


GOOD_CONFIG = """\
[circuit]
n = 2
L = 2

[noise]
kind = global_depolarizing
rate = 0.3

[experiment]
nt_grid = 48,96
parameter_sets = 4
experiments_per_set = 6
master_seed = 11
schemes = ps,nsps
targets = gradient
"""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.fixture(autouse=True)
def strict_json_outputs(tmp_path):
    """Every manifest and report a test writes is strict JSON: no NaN or
    infinity, which json.loads would otherwise accept."""
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestParsing:

    def test_int_grid_forms(self):
        assert parse_int_grid("96,960") == [96, 960]
        assert parse_int_grid("48:96:24") == [48, 72, 96]
        assert parse_int_grid("5:8") == [5, 6, 7, 8]

    def test_int_grid_rejects_garbage(self):
        for text in ("", "96:48", "1:10:0", "1:2:3:4", "abc"):
            with pytest.raises(ValueError):
                parse_int_grid(text)

    def test_float_list(self):
        assert parse_float_list("0.1, 0.2") == [0.1, 0.2]
        with pytest.raises(ValueError):
            parse_float_list(" ")

    def test_canonical_json_is_order_free(self):
        a = canonical_json({"b": 1, "a": [2, 3]})
        b = canonical_json({"a": [2, 3], "b": 1})
        assert a == b == '{"a":[2,3],"b":1}'
        assert config_digest({"b": 1, "a": [2, 3]}) == config_digest(
            {"a": [2, 3], "b": 1})


class TestLoadConfig:

    def test_good_file_round_trips(self, config_file):
        config, errors = load_config(config_file)
        assert errors == []
        assert config.n == 2 and config.L == 2
        assert config.nt_grid == (48, 96)
        assert config.schemes == ("ps", "nsps")

    def test_missing_required_key_is_reported_with_path(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[circuit]\nn = 2\nL = 2\n")
        config, errors = load_config(str(path))
        assert config is None
        assert any(e.startswith("experiment.nt_grid") for e in errors)
        assert any(e.startswith("experiment.master_seed") for e in errors)

    def test_bad_grid_entry_is_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("nt_grid = 48,96",
                                            "nt_grid = 50"))
        config, errors = load_config(str(path))
        assert config is None
        assert any("multiple" in e for e in errors)

    def test_unknown_target_is_reported(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("targets = gradient",
                                            "targets = laplacian"))
        config, errors = load_config(str(path))
        assert config is None
        assert any("laplacian" in e for e in errors)

    def test_unreadable_file(self, tmp_path):
        config, errors = load_config(str(tmp_path / "missing.cfg"))
        assert config is None and errors

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("yes", True), ("true", True), ("on", True),
        ("0", False), ("no", False), ("false", False), ("off", False),
        ("TRUE", True), ("Off", False)])
    def test_redraw_weights_takes_boolean_words(self, word, value, tmp_path):
        path = tmp_path / "pauli.cfg"
        path.write_text(GOOD_CONFIG.replace(
            "kind = global_depolarizing\nrate = 0.3",
            f"kind = cnot_pauli\nrate = 0.1\nredraw_weights = {word}"))
        config, errors = load_config(str(path))
        assert errors == []
        assert config.noise.redraw_weights is value

    def test_misspelt_redraw_weights_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pauli.cfg"
        path.write_text(GOOD_CONFIG.replace(
            "kind = global_depolarizing\nrate = 0.3",
            "kind = cnot_pauli\nrate = 0.1\nredraw_weights = ture"))
        assert main(["mse-curves", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise.redraw_weights: 'ture'")
        assert err.count("\n") == 1

    def test_axis_pattern_is_an_unknown_key(self, tmp_path, capsys):
        """zyz is the only pattern and no key selects it; the manifest
        still records it, since the config hash covers it."""
        path = tmp_path / "axes.cfg"
        path.write_text(GOOD_CONFIG)
        assert main(["mse-curves", str(path), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "axes.manifest.json").read_text())
        assert manifest["config"]["axis_pattern"] == "zyz"
        for value in ("zyz", "xyx"):
            path.write_text(GOOD_CONFIG.replace(
                "L = 2", f"L = 2\naxis_pattern = {value}"))
            capsys.readouterr()
            assert main(["mse-curves", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "config error: circuit.axis_pattern: unknown key\n"

    def test_config_to_dict_spells_every_field(self):
        """The resolved config equals the hand-built dict it replaced, for a
        config whose every field differs from its default."""
        config = harness.ExperimentConfig(
            n=3, L=4, noise=harness.NoiseSpec("cnot_pauli", 0.07, True),
            nt_grid=(96, 48), parameter_sets=5, experiments_per_set=7,
            master_seed=123, schemes=("hfd", "ps"),
            targets=(OffDiagHessian(), Gradient()))
        want = {
            "n": 3, "L": 4, "axis_pattern": "zyz",
            "noise": {"kind": "cnot_pauli", "rate": 0.07,
                      "redraw_weights": True},
            "nt_grid": [96, 48], "parameter_sets": 5,
            "experiments_per_set": 7, "master_seed": 123,
            "schemes": ["hfd", "ps"], "targets": ["offdiag", "gradient"],
            "observable": "XYZ"}
        got = cli.config_to_dict(config)
        assert canonical_json(got) == canonical_json(want)
        assert config_digest(got) == config_digest(want)
        defaults = harness.ExperimentConfig(
            n=2, L=2, noise=harness.NoiseSpec(), nt_grid=(48,),
            parameter_sets=1, experiments_per_set=1, master_seed=0)
        assert all(getattr(config, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(config))

    # sha256 config_hash of each bundled config; the resolved config must
    # keep hashing the same, so manifests stay comparable across versions.
    BUNDLED_HASHES = {
        "crossing_n4":
            "09970b062323fa41d497d49fd92be26987662cf41069c985cc4e8f3ec635890e",
        "fig2_n4_L1":
            "82549899113125cef1229dd1c33d3fa8a96056dc76f1ceb728115f08ba585e4b",
        "fig2_n4_L5":
            "eb97a6b65089ab3bb2c68d753ca72c0e7d649d641f49330efba5e90dfb43fb60",
        "fig5_n4":
            "de77cd5f30d43d00a4a6d0767dd3e1d8d9879e716875448687727379dae0185b",
        "pauli_redraw_n4":
            "706c36e730b25ed379989c0840869bfa62a00cae5c3c5fb33b9722849c93afba",
    }

    def test_bundled_config_hashes_are_pinned(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert sorted(p.stem for p in configs.glob("*.cfg")) == sorted(
            self.BUNDLED_HASHES)
        for stem, digest in self.BUNDLED_HASHES.items():
            config, errors = load_config(str(configs / f"{stem}.cfg"))
            assert errors == []
            assert config_digest(cli.config_to_dict(config)) == digest


class TestAnalyticCommand:

    def test_mse_table_to_stdout(self, capsys):
        assert main(["analytic", "--d", "4", "--eta", "0.1",
                     "--nt", "96"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["target", "d", "eta", "n_total", "scheme", "param",
                          "mse_finite", "mse_approx", "mse_total"]
        assert len(lines) == 1 + 3 * 5  # 3 targets x 5 schemes

    def test_rows_reproduce_closed_forms(self, capsys):
        main(["analytic", "--targets", "gradient", "--d", "16", "--eta",
              "0.226", "--nt", "960"])
        rows = list(csv.DictReader(
            capsys.readouterr().out.strip().splitlines()))
        ps = next(r for r in rows if r["scheme"] == "ps")
        pred = analytics.mse_sps("gradient", 16, 1.0, 0.226, 0.0, 960)
        np.testing.assert_allclose(float(ps["mse_total"]), pred.total,
                                   rtol=1e-15)
        np.testing.assert_allclose(float(ps["param"]), 1.0)

    def test_nstar_table(self, capsys):
        assert main(["analytic", "--nstar", "--targets", "gradient",
                     "--d", "16", "--eta", "0.226"]) == 0
        rows = list(csv.DictReader(
            capsys.readouterr().out.strip().splitlines()))
        assert len(rows) == 1
        np.testing.assert_allclose(float(rows[0]["n_star_sps_exact"]),
                                   analytics.n_star_sps_exact("gradient", 16,
                                                              0.226))

    def test_qubit_count_option(self, capsys):
        main(["analytic", "--nstar", "--targets", "gradient", "--n", "2,4",
              "--eta", "0.1"])
        rows = list(csv.DictReader(
            capsys.readouterr().out.strip().splitlines()))
        assert [r["d"] for r in rows] == ["4", "16"]

    def test_usage_errors_exit_2(self):
        assert main(["analytic", "--eta", "0.1", "--nt", "96"]) == 2
        assert main(["analytic", "--d", "4", "--n", "2", "--eta", "0.1",
                     "--nt", "96"]) == 2
        assert main(["analytic", "--d", "4", "--eta", "1.5",
                     "--nt", "96"]) == 2
        assert main(["analytic", "--d", "4", "--eta", "0.1"]) == 2
        assert main(["analytic", "--d", "4", "--eta", "0.1",
                     "--nt", "0:2"]) == 2
        assert main(["analytic", "--d", "4", "--eta", "0.1",
                     "--nt", "-5"]) == 2
        assert main(["analytic", "--n", "201", "--eta", "0.1",
                     "--nt", "96"]) == 2
        assert main(["analytic", "--d", "4", "--eta", "0.1",
                     "--nt", "1" + "0" * 400]) == 2

    def test_duplicate_target_exits_2(self, capsys):
        assert main(["analytic", "--nstar", "--targets", "gradient,gradient",
                     "--d", "4", "--eta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate target 'gradient'\n"

    def test_target_lists_take_spaces(self, tmp_path, capsys):
        """``--targets`` and a config's targets and schemes are one stripped
        comma list, as ``--eta`` and ``--nt`` are; an unknown name is one
        line from one place."""
        argv = ["analytic", "--nstar", "--d", "4", "--eta", "0.1, 0.2"]
        assert main(argv + ["--targets", "gradient,diag"]) == 0
        tight = capsys.readouterr().out
        assert main(argv + ["--targets", "gradient, diag"]) == 0
        assert capsys.readouterr().out == tight
        assert main(argv + ["--targets", "gradient, dag"]) == 2
        assert capsys.readouterr().err == "error: unknown target 'dag'\n"
        path = tmp_path / "spaced.cfg"
        path.write_text(GOOD_CONFIG.replace(
            "schemes = ps,nsps", "schemes = ps , nsps").replace(
            "targets = gradient", "targets = gradient, diag"))
        config, errors = load_config(str(path))
        assert errors == []
        assert config.schemes == ("ps", "nsps")
        assert config.targets == (Gradient(), DiagHessian())

    def test_zero_rate_nstar_row(self, capsys):
        """At eta = 0 only the finite-difference crossing exists."""
        assert main(["analytic", "--nstar", "--targets", "gradient",
                     "--d", "4", "--eta", "0"]) == 0
        rows = list(csv.DictReader(
            capsys.readouterr().out.strip().splitlines()))
        assert rows[0]["n_star_sps_exact"] == ""
        assert rows[0]["n_star_sps_small_eta"] == ""
        np.testing.assert_allclose(float(rows[0]["n_star_fd"]), 46.58,
                                   rtol=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(targets=st.sampled_from(["gradient", "diag", "offdiag",
                                    "gradient,offdiag", "all"]),
           dims=st.lists(st.integers(-1, 1100), min_size=1, max_size=2),
           rates=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310,
                                                     1e-300, -0.1, 1.0]),
                                    st.floats(0.0, 1.0, exclude_max=True)),
                          min_size=1, max_size=2),
           budgets=st.lists(st.one_of(st.integers(-3, 10 ** 6),
                                      st.sampled_from([10 ** 300,
                                                       10 ** 300 + 12,
                                                       10 ** 400])),
                            min_size=1, max_size=3),
           nstar=st.booleans())
    # d^k N_star overflows in lambda_opt below the 2^200 dimension cap
    @example(targets="offdiag", dims=[7], rates=[1e-300], budgets=[48],
             nstar=True)
    @example(targets="all", dims=[180], rates=[1e-100], budgets=[48],
             nstar=True)
    def test_analytic_never_raises(self, targets, dims, rates, budgets,
                                   nstar):
        """Any grid of targets, qubit counts, rates and budgets exits 0 or 2."""
        argv = ["analytic", f"--targets={targets}",
                "--n=" + ",".join(map(str, dims)),
                "--eta=" + ",".join(map(repr, rates))]
        if nstar:
            argv.append("--nstar")
        else:
            argv.append("--nt=" + ",".join(map(str, budgets)))
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects with exit code 2
                code = exc.code
        assert code in (0, 2)

    def test_csv_output_with_manifest(self, tmp_path, capsys):
        assert main(["analytic", "--d", "4", "--eta", "0.1", "--nt", "96",
                     "--csv", "table.csv", "--out", str(tmp_path)]) == 0
        table = tmp_path / "table.csv"
        assert table.exists()
        manifest = json.loads((tmp_path / "table.csv.manifest.json")
                              .read_text())
        assert manifest["outputs"] == ["table.csv"]
        assert manifest["master_seed"] is None

    # sha256 of two analytic tables over every target, a zero rate (whose
    # shift-rule crossings are empty cells), d from 2 to 2^12 and budgets
    # that are not round: each finite-difference step and crossing is
    # pinned to the bit. A change that moves these bytes on purpose
    # updates the digests and says why.
    ANALYTIC_GOLDEN = {
        "nstar": (["--nstar", "--d", "2,3,64,4096", "--eta", "0,0.013,0.37"],
                  "638cae5e2a2ad68044002766b9386c1ea0ab9b9572d93d8beab9caae"
                  "8cd5f280"),
        "mse": (["--d", "2,4096", "--eta", "0,0.07,0.5", "--nt",
                 "13:1600:397"],
                "8e27835f0990335efe9185c297f8fcef717734d0994c0ad2550dfad00a"
                "321742"),
    }

    @pytest.mark.parametrize("stem", sorted(ANALYTIC_GOLDEN))
    def test_analytic_golden_bytes(self, stem, tmp_path, capsys):
        """Analytic CSV bytes match the pinned reference exactly."""
        argv, digest = self.ANALYTIC_GOLDEN[stem]
        assert main(["analytic", "--targets", "all", *argv,
                     "--csv", f"{stem}.csv", "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / f"{stem}.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == digest


class TestMseCurvesCommand:

    def test_end_to_end(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["mse-curves", config_file, "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "run_mse.csv").open()))
        assert len(rows) == 1 * 2 * 2  # 1 target x 2 schemes x 2 budgets
        assert {r["scheme"] for r in rows} == {"ps", "nsps"}
        manifest = json.loads((out / "run.manifest.json").read_text())
        assert manifest["master_seed"] == 11
        assert manifest["config"]["nt_grid"] == [48, 96]
        assert manifest["eta_total"] == 0.3

    def test_worker_count_does_not_change_bytes(self, config_file, tmp_path,
                                                capsys):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["mse-curves", config_file, "--workers", "1", "--out", str(out1)])
        main(["mse-curves", config_file, "--workers", "2", "--out", str(out2)])
        assert ((out1 / "run_mse.csv").read_bytes()
                == (out2 / "run_mse.csv").read_bytes())

    def test_batch_size_does_not_change_bytes(self, tmp_path, monkeypatch,
                                              capsys):
        """Sets run in batches of 1, 7 or 64, on one worker or two, with
        redrawn Pauli channels, every scheme and every target: one CSV."""
        path = tmp_path / "batch.cfg"
        path.write_text(GOOD_CONFIG
                        .replace("n = 2", "n = 3")
                        .replace("kind = global_depolarizing",
                                 "kind = cnot_pauli\nredraw_weights = true")
                        .replace("rate = 0.3", "rate = 0.1")
                        .replace("parameter_sets = 4", "parameter_sets = 20")
                        .replace("schemes = ps,nsps", "schemes = "
                                 + ",".join(analytics.SCHEMES))
                        .replace("targets = gradient",
                                 "targets = gradient,diag,offdiag"))
        payloads = set()
        for size in (1, 7, 64):
            monkeypatch.setattr(harness, "_batch_size", lambda *a: size)
            for workers in ("1", "2"):
                out = tmp_path / f"b{size}w{workers}"
                assert main(["mse-curves", str(path), "--workers", workers,
                             "--out", str(out)]) == 0
                payloads.add((out / "batch_mse.csv").read_bytes())
        assert len(payloads) == 1

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[circuit]\nn = 2\n")
        assert main(["mse-curves", str(path)]) == 2
        # Targets at layer 2 do not fit one layer; the off-diagonal
        # target's second angle sits on qubit 2.
        for old, new in (("L = 2", "L = 1"),
                         ("n = 2\nL = 2", "n = 1\nL = 2")):
            path.write_text(GOOD_CONFIG.replace(old, new).replace(
                "targets = gradient", "targets = offdiag"))
            capsys.readouterr()
            assert main(["mse-curves", str(path), "--out",
                         str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: offdiag target outside")
            assert err.count("\n") == 1
        # A misspelt key or section, and a budget past numpy's int64 shots.
        for old, new, message in (
                ("rate = 0.3", "rate = 0.3\nredraw_weigths = true",
                 "noise.redraw_weigths: unknown key"),
                ("schemes = ps", "schemse = ps",
                 "experiment.schemse: unknown key"),
                ("[noise]", "[nosie]", "nosie.kind: unknown key"),
                ("nt_grid = 48,96", "nt_grid = 120000000000000000000",
                 "nt_grid entries must be multiples of 12 in [48, 2^63 - 1]"),
                ("targets = gradient", "targets = gradient,gradient",
                 "config: duplicate target"),
                ("nt_grid = 48,96", "nt_grid = 96,96,960",
                 "config: duplicate copy budget"),
                # no NaN or infinity reaches a manifest, for any noise kind
                ("rate = 0.3", "rate = nan",
                 "noise: noise rate nan is not finite"),
                ("kind = global_depolarizing\nrate = 0.3",
                 "kind = none\nrate = inf",
                 "noise: noise rate inf is not finite")):
            path.write_text(GOOD_CONFIG.replace(old, new))
            capsys.readouterr()
            assert main(["mse-curves", str(path), "--out",
                         str(tmp_path)]) == 2
            assert message in capsys.readouterr().err
        # Files configparser cannot parse: one line naming file and line.
        # Values are literal, so a % is only a bad integer. A byte that is
        # not UTF-8 is one line too.
        for text, message in (
                (GOOD_CONFIG + "[circuit]\nn = 3\n",
                 f"{str(path)!r} [line 16]: section 'circuit' already "
                 "exists"),
                (GOOD_CONFIG.replace("n = 2", "n = 2\nn = 3"),
                 f"{str(path)!r} [line 3]: option 'n' in section 'circuit' "
                 "already exists"),
                ("seed = 1\n" + GOOD_CONFIG,
                 "File contains no section headers. file: "
                 f"{str(path)!r}, line: 1"),
                (GOOD_CONFIG.replace("schemes = ps", "schemes ps"),
                 f"Source contains parsing errors: {str(path)!r} [line 14]"),
                (GOOD_CONFIG.replace("master_seed = 11", "master_seed = 5%"),
                 "experiment.master_seed: invalid literal for int() with "
                 "base 10: '5%'"),
                (GOOD_CONFIG.replace("n = 2", "n = 2 \udcff"),
                 "can't decode byte 0xff")):
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            capsys.readouterr()
            for command in ("mse-curves", "dist"):
                assert main([command, str(path), "--out",
                             str(tmp_path)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and message in err
                assert err.count("\n") == 1

    def test_unwritable_outputs_exit_2_before_running(self, config_file,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        """An --out that is a file, a --csv or --json in a missing
        directory, or a --csv or --json that names a directory, ends in one
        error line before any run, closed form or criterion."""
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        class NoCriteria:
            def __iter__(self):
                raise AssertionError("a criterion ran")

        monkeypatch.setattr(harness, "monte_carlo_mse", no_run)
        monkeypatch.setattr(harness, "distribution_study", no_run)
        monkeypatch.setattr(analytics, "n_star_fd", no_run)
        monkeypatch.setattr(invariants, "CRITERIA", NoCriteria())
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "dir").mkdir()
        nstar = ["analytic", "--nstar", "--d", "4", "--eta", "0.1"]
        for argv in (["mse-curves", config_file, "--out", str(blocker)],
                     ["dist", config_file, "--out", str(blocker)],
                     ["analytic", "--d", "4", "--eta", "0.1", "--nt", "96",
                      "--csv", "sub/x.csv", "--out", str(tmp_path)],
                     ["verify", "--quick", "--json", "sub/v.json",
                      "--out", str(tmp_path)],
                     ["verify", "--json", "v.json", "--out", str(blocker)],
                     nstar + ["--csv", "dir", "--out", str(tmp_path)],
                     nstar + ["--csv", ".", "--out", str(tmp_path)],
                     ["verify", "--json", "dir/", "--out", str(tmp_path)],
                     ["verify", "--quick", "--json", ".",
                      "--out", str(tmp_path)]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv
            assert captured.err.count("\n") == 1, argv
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dir", "file", "run.cfg"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_qubit_cap_exits_2_before_allocating(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_circuits(*args):
            raise AssertionError("a circuit ran past the qubit cap")

        monkeypatch.setattr(harness, "evolve", no_circuits)
        n = harness.MAX_QUBITS + 1
        path = tmp_path / "big.cfg"
        path.write_text(GOOD_CONFIG.replace("n = 2", f"n = {n}"))
        for command in ("mse-curves", "dist"):
            capsys.readouterr()
            tracemalloc.start()
            try:
                code = main([command, str(path), "--out", str(tmp_path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert peak < 2 ** 20  # one state at the cap + 1 is 512 MiB
            err = capsys.readouterr().err
            assert err.startswith(f"config error: config: n = {n} is above")
            assert "(8 * 4^n bytes per state)" in err
            assert err.count("\n") == 1

    def test_oversized_ranges_exit_2_before_building(self, tmp_path, capsys):
        """A range is counted, not built: 10^20 entries exit 2 with one
        line, allocating almost nothing."""
        huge = "100000000000000000000"
        path = tmp_path / "range.cfg"
        path.write_text(GOOD_CONFIG.replace("nt_grid = 48,96",
                                            f"nt_grid = 48:{huge}:12"))
        for argv in (["dist", str(path), "--out", str(tmp_path)],
                     ["analytic", "--d", "4", "--eta", "0.1",
                      "--nt", f"12:{huge}:12"],
                     ["analytic", "--nstar", "--n", f"2:{huge}",
                      "--eta", "0.1"]):
            capsys.readouterr()
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2, argv
            assert peak < 2 ** 20, argv
            err = capsys.readouterr().err
            assert "above the cap of 10000" in err, argv
            assert err.count("\n") == 1, argv
        assert len(parse_int_grid("1:10000")) == 10000
        with pytest.raises(ValueError):
            parse_int_grid("1:10001")

    def test_negative_seed_exits_2_before_making_the_out_dir(self, tmp_path,
                                                              capsys):
        """A negative master_seed is a config error naming the key, before
        the output directory is made."""
        path = tmp_path / "seed.cfg"
        path.write_text(GOOD_CONFIG.replace("master_seed = 11",
                                            "master_seed = -5"))
        out = tmp_path / "out"
        for command in ("mse-curves", "dist"):
            capsys.readouterr()
            assert main([command, str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: config: master_seed = -5 is below 0\n")
            assert not out.exists()

    def test_allocation_failure_exits_2(self, tmp_path, capsys):
        """A run too large for memory ends in one line, not a traceback."""
        path = tmp_path / "huge.cfg"
        # 10^15 experiments need a 7 PiB shot array; 10^15 sets 7 PiB of
        # samples in dist.
        for command, old in (("mse-curves", "experiments_per_set = 6"),
                             ("dist", "parameter_sets = 4")):
            path.write_text(GOOD_CONFIG.replace(
                old, old[:-1] + str(10 ** 15)))
            capsys.readouterr()
            assert main([command, str(path), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_worker_counts_outside_the_cap_exit_2(self, config_file,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        """Rejected before any process starts: a pool here is a failure."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for workers in (0, -1, harness.MAX_WORKERS + 1):
            capsys.readouterr()
            assert main(["mse-curves", config_file, "--workers",
                         str(workers), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err == (f"error: workers = {workers} is outside "
                           f"[1, {harness.MAX_WORKERS}]\n")

    def test_pool_never_exceeds_the_set_count(self, config_file, tmp_path,
                                              monkeypatch, capsys):
        """The pool runs in-process here; only its size is recorded."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        for workers in (3, harness.MAX_WORKERS):
            assert main(["mse-curves", config_file, "--workers",
                         str(workers), "--out", str(tmp_path)]) == 0
        assert sizes == [3, 4]  # the config has four parameter sets

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        """Only a run with more than one worker imports the process pool
        (and with it multiprocessing), so start-up does not pay for it."""
        assert _fresh_process(
            "import sys; import paulishift.cli; "
            "print('concurrent.futures.process' in sys.modules)") == "False\n"

    # sha256 of the CSVs of two small seeded runs: a noiseless PS/NFD/HFD
    # run, where NFD and HFD share one step but draw their own shots, and a
    # Pauli run with schemes and targets out of order. A change that moves
    # these bytes on purpose updates the digests and says why.
    GOLDEN = {
        "clean": ("""\
[circuit]
n = 2
L = 2

[noise]
kind = none

[experiment]
nt_grid = 48,96,480
parameter_sets = 3
experiments_per_set = 5
master_seed = 101
schemes = ps,nfd,hfd
""", "0a29dc576b7b13ee54d07e4765bb3ed3d6419fb6e0f31153b7e7202693f23464"),
        "pauli": ("""\
[circuit]
n = 3
L = 2

[noise]
kind = cnot_pauli
rate = 0.1

[experiment]
nt_grid = 48,480
parameter_sets = 3
experiments_per_set = 5
master_seed = 103
schemes = hfd,ps,nfd,hsps
targets = offdiag,gradient,diag
""", "4a259d632c9bba6378901bb0d07cb0166d2f1bdfec99f13b362a45eeafca1410"),
    }

    @pytest.mark.parametrize("stem", sorted(GOLDEN))
    def test_golden_bytes(self, stem, tmp_path, capsys):
        """Seeded CSV bytes match the pinned reference exactly."""
        text, digest = self.GOLDEN[stem]
        path = tmp_path / f"{stem}.cfg"
        path.write_text(text)
        assert main(["mse-curves", str(path), "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / f"{stem}_mse.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == digest


class TestDistCommand:

    def test_end_to_end_with_pauli_weights(self, tmp_path, capsys):
        cfg = tmp_path / "pauli.cfg"
        cfg.write_text(GOOD_CONFIG
                       .replace("kind = global_depolarizing",
                                "kind = cnot_pauli")
                       .replace("rate = 0.3", "rate = 0.1"))
        out = tmp_path / "results"
        assert main(["dist", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "pauli_dist.csv").open()))
        assert len(rows) == 4
        hist = list(csv.DictReader((out / "pauli_hist.csv").open()))
        assert len(hist) == 40
        assert sum(int(r["count_f"]) for r in hist) == 4
        manifest = json.loads((out / "pauli.manifest.json").read_text())
        assert "weights_hash" in manifest
        assert manifest["r_var"] is None or manifest["r_var"] > 0

    def test_each_redrawn_channel_is_drawn_once(self, tmp_path, monkeypatch,
                                                capsys):
        """The manifest hashes the channels the study drew: one draw per set,
        and the hashes of independent draws."""
        cfg = tmp_path / "redraw.cfg"
        cfg.write_text(GOOD_CONFIG
                       .replace("kind = global_depolarizing",
                                "kind = cnot_pauli\nredraw_weights = true")
                       .replace("rate = 0.3", "rate = 0.1"))
        config, errors = load_config(str(cfg))
        assert not errors
        want = [cli._weights_hash(config.noise_for_set(s).weights)
                for s in range(config.parameter_sets)]
        draw = harness.ExperimentConfig.noise_for_set
        drawn = []

        def counting(self, set_index, rng=None):
            drawn.append(set_index)
            return draw(self, set_index, rng)

        monkeypatch.setattr(harness.ExperimentConfig, "noise_for_set",
                            counting)
        out = tmp_path / "results"
        assert main(["dist", str(cfg), "--out", str(out)]) == 0
        assert drawn == list(range(config.parameter_sets))
        manifest = json.loads((out / "redraw.manifest.json").read_text())
        assert manifest["weights_hashes"] == want

    def test_global_noise_r_var_is_null(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["dist", config_file, "--out", str(out)]) == 0
        manifest = json.loads((out / "run.manifest.json").read_text())
        assert manifest["r_var"] is None
        assert manifest["eta_total"] == 0.3

    def test_noiseless_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text(GOOD_CONFIG.replace("kind = global_depolarizing",
                                           "kind = none"))
        assert main(["dist", str(cfg)]) == 2


class TestStreamOracle:
    """Every keyed stream is numpy's SeedSequence stream: CSV bytes with the
    batched derivation equal those with one SeedSequence per key."""

    # A master seed of three words, and budgets of one and two words
    # (51539607552 = 12 * 2^32) in the shot keys of one batch.
    CONFIG = """\
[circuit]
n = 2
L = 2

[noise]
kind = cnot_pauli
rate = 0.1
redraw_weights = true

[experiment]
nt_grid = 96,51539607552
parameter_sets = 3
experiments_per_set = 5
master_seed = 18446744073709563961
"""

    @pytest.mark.parametrize("command", ["mse-curves", "dist"])
    def test_csv_bytes_match_numpy_streams(self, command, tmp_path,
                                           monkeypatch, capsys):
        cfg = tmp_path / "words.cfg"
        cfg.write_text(self.CONFIG)
        assert main([command, str(cfg), "--out", str(tmp_path / "fast")]) == 0
        monkeypatch.setattr(harness, "substreams", seed_sequence_streams)
        assert main([command, str(cfg), "--out", str(tmp_path / "numpy")]) == 0
        names = sorted(p.name for p in (tmp_path / "fast").glob("*.csv"))
        assert names == sorted(p.name
                               for p in (tmp_path / "numpy").glob("*.csv"))
        assert names
        for name in names:
            assert ((tmp_path / "fast" / name).read_bytes()
                    == (tmp_path / "numpy" / name).read_bytes())


class TestVerifyCommand:

    def test_quick_suite_passes_and_writes_report(self, tmp_path, capsys):
        assert main(["verify", "--quick", "--json", "report.json",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["quick"] is True
        names = [inv["name"] for inv in report["invariants"]]
        assert names == ["stationarity", "nstar_roots",
                         "epsilon_asymptotic", "noise_floors"]
        assert all(inv["passed"] for inv in report["invariants"])

    def test_broken_optimum_is_caught(self, monkeypatch, capsys):
        """Negative control: a detuned lambda* must fail the suite."""
        true_fn = analytics.lambda_opt

        def detuned(target, d, n_total):
            return 0.7 * true_fn(target, d, n_total)

        monkeypatch.setattr(analytics, "lambda_opt", detuned)
        row = next(r for r in invariants.CRITERIA if r.name == "stationarity")
        ok, detail = row.check(row.verify, np.random.default_rng(0))
        assert not ok

    def test_crashing_invariant_fails_the_run(self, monkeypatch, tmp_path,
                                              capsys):
        def boom(rng, size):
            raise RuntimeError("synthetic failure")

        row = invariants.CRITERIA[0]._replace(name="boom", measure=boom)
        monkeypatch.setattr(invariants, "CRITERIA", (row,))
        assert main(["verify", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "FAIL boom" in out and "synthetic failure" in out

    def test_full_suite_passes_in_table_order(self, tmp_path, capsys):
        assert main(["verify", "--json", "full.json",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "full.json").read_text())
        assert report["passed"] is True
        assert report["quick"] is False
        assert [inv["name"] for inv in report["invariants"]] == [
            "stationarity", "nstar_roots", "epsilon_asymptotic",
            "noise_floors", "two_design_moments", "estimator_exactness",
            "mc_oracle"]

    def test_format_docs_name_every_verify_row(self):
        """The verify table in docs/formats.md lists exactly verify's rows,
        each with the numbers of its verify size in order."""
        text = (Path(__file__).resolve().parent.parent / "docs"
                / "formats.md").read_text()
        section = text.split("## Verify report", 1)[1].split("\n## ", 1)[0]
        documented = {cells[1].strip().strip("`"): cells[2]
                      for cells in (line.split("|")
                                    for line in section.splitlines()
                                    if line.startswith("| `"))}

        def numbers(size):
            if isinstance(size, dict):
                size = tuple(size.values())
            if isinstance(size, tuple):
                return [x for item in size for x in numbers(item)]
            return [size] if isinstance(size, (int, float)) else []

        rows = {row.name: row for row in invariants.CRITERIA
                if row.verify is not None}
        assert documented.keys() == rows.keys()
        for name, cell in documented.items():
            assert [float(x) for x in re.findall(r"\d+(?:\.\d+)?", cell)
                    ] == numbers(rows[name].verify), name


class TestOutputFormatting:

    def test_floats_survive_round_trips(self, tmp_path):
        values = [1.0 / 3.0, 1e-17, math.pi, 0.1 + 0.2]
        cli._write_csv(str(tmp_path / "x.csv"), ["v"],
                       [[v] for v in values])
        rows = list(csv.DictReader((tmp_path / "x.csv").open()))
        for v, row in zip(values, rows):
            assert float(row["v"]) == v

    def test_outdir_environment_fallback(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("PAULISHIFT_OUTDIR", str(tmp_path))
        assert main(["analytic", "--d", "4", "--eta", "0.1", "--nt", "96",
                     "--csv", "env.csv"]) == 0
        assert (tmp_path / "env.csv").exists()

    def test_out_dir_is_created_when_missing(self, tmp_path, capsys):
        fresh = tmp_path / "not" / "yet" / "there"
        assert main(["analytic", "--d", "4", "--eta", "0.1", "--nt", "96",
                     "--csv", "t.csv", "--out", str(fresh)]) == 0
        assert (fresh / "t.csv").exists()
        fresh2 = tmp_path / "also_missing"
        assert main(["verify", "--quick", "--json", "r.json",
                     "--out", str(fresh2)]) == 0
        report = json.loads((fresh2 / "r.json").read_text())
        assert report["passed"] is True


class TestStartUp:
    """What a fresh process loads and which BLAS threads it starts."""

    def test_package_import_loads_no_submodule_or_numpy(self):
        assert _fresh_process(
            "import sys, paulishift; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('paulishift')))"
        ) == "['paulishift']\n"

    def test_every_exported_name_resolves_to_its_own_module(self):
        """Each lazy name is the object its defining module holds under
        that name; an unknown name raises AttributeError."""
        out = _fresh_process("""
import sys, paulishift
names = paulishift.__all__
assert len(set(names)) == len(names) and names[0] == "__version__"
for name in names[1:]:
    obj = getattr(paulishift, name)
    assert obj.__module__.startswith("paulishift."), name
    assert vars(sys.modules[obj.__module__])[name] is obj, name
try:
    paulishift.no_such_name
except AttributeError as exc:
    print(len(names), exc)
""")
        assert out == ("42 module 'paulishift' has no attribute "
                       "'no_such_name'\n")

    @pytest.mark.parametrize("prelude, env, expected", [
        ("", {}, "1 None"),
        ("", {"OPENBLAS_NUM_THREADS": "2"}, "2 None"),
        ("", {"OMP_NUM_THREADS": "2"}, "None 2"),
        ("import numpy; ", {}, "None None"),
    ])
    def test_cli_starts_one_blas_thread_unless_told(self, prelude, env,
                                                    expected):
        """The CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads, unless a
        thread variable is set or numpy is already loaded."""
        out = _fresh_process(
            prelude + "import os, paulishift.cli; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
            "os.environ.get('OMP_NUM_THREADS'))", **env)
        assert out == expected + "\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux /proc")
    def test_cli_import_starts_no_blas_thread(self):
        assert _fresh_process(
            "import os, paulishift.cli; "
            "print(len(os.listdir('/proc/self/task')))") == "1\n"

    def test_config_load_leaves_numpy_random_to_the_first_stream(
            self, tmp_path):
        """Set-up loads no numpy.random: it loads with the first keyed
        stream, so its import is paid by a run, not by every start."""
        (tmp_path / "good.cfg").write_text(GOOD_CONFIG)
        assert _fresh_process(
            "import sys; from paulishift import cli, harness; "
            f"cli.load_config({str(tmp_path / 'good.cfg')!r}); "
            "print('numpy.random' in sys.modules, end=' '); "
            "harness.substream(1, 0); print('numpy.random' in sys.modules)"
        ) == "False True\n"

    @pytest.mark.parametrize("argv, absent", [
        (["analytic", "--nstar", "--n", "2:4", "--eta", "0.1", "--csv",
          "t.csv"], {"harness", "circuits", "noise", "invariants"}),
        (["dist", "good.cfg"], {"invariants"}),
    ])
    def test_commands_import_only_what_they_run(self, tmp_path, argv,
                                                absent):
        (tmp_path / "good.cfg").write_text(GOOD_CONFIG)
        out = _fresh_process(
            f"import os, sys; os.chdir({str(tmp_path)!r}); "
            f"from paulishift import cli; code = cli.main({argv!r}); "
            "print(code, *sorted(m for m in sys.modules "
            "if m.startswith('paulishift.')))")
        code, *loaded = out.splitlines()[-1].split()
        assert code == "0" and "paulishift.cli" in loaded
        assert not absent & {m.split(".")[1] for m in loaded}, loaded
