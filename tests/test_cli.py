import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qlvsim
from qlvsim.cli import _build_parser, cli_main
from qlvsim.config import parse_config
from qlvsim.seriesio import read_series, serialize_series, write_series
from qlvsim.protocols import Series

CONFIGS = Path(__file__).parents[1] / "configs"
SRC = str(Path(qlvsim.__file__).parents[1])

RELAX_CFG = CONFIGS / "qlv_relaxation.yaml"
CYCLIC_CFG = CONFIGS / "fung_cyclic_sweep.yaml"
CHAIN_CFG = CONFIGS / "chain_simulate.yaml"

TENSILE_TEXT = """
model:
  elastic: {kind: exponential, B: 10.0, C: 2.0}
  kernel: {kind: prony, K: 0.5, amplitudes: [0.5], frequencies: [1.0]}
protocol:
  kind: tensile
  stretch_rate: 0.1
  duration: 2.0
  dt: 0.01
"""

CREEP_TEXT = """
model:
  elastic: {kind: exponential, B: 2.0, C: 1.0}
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol:
  kind: creep
  hold_stress: 0.3
  duration: 5.0
  dt: 0.01
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["validate", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_collects_errors(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "model:\n  elastic: {kind: exponential,"
                         " B: -1.0, C: 0.0}\n  kernel: {kind: maxwell,"
                         " mu: -1.0, eta: 1.0}\n"
                         "protocol: {kind: tensile, duration: -1.0, dt: 0.1}\n")
        code = cli_main(["validate", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") >= 3

    def test_unknown_flag_is_usage_error(self, capsys):
        code = cli_main(["validate", "--config", str(RELAX_CFG),
                         "--bogus-flag"])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unwritable_output_is_runtime_error(self, capsys):
        code = cli_main(["relax", "--config", str(RELAX_CFG),
                         "--out", "/nonexistent-dir/out.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_protocol_kind_mismatch(self, tmp_path, capsys):
        path = write_cfg(tmp_path, CREEP_TEXT)
        assert cli_main(["tensile", "--config", str(path)]) == 2

    def test_simulate_requires_network(self, tmp_path, capsys):
        assert cli_main(["simulate", "--config", str(RELAX_CFG)]) == 2

    def test_protocol_command_rejects_network(self, capsys):
        assert cli_main(["relax", "--config", str(CHAIN_CFG)]) == 2

    def test_invalid_yaml_reports_its_line(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "model:\n  kernel: [unclosed\nx: 1\n")
        assert cli_main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid YAML:")
        assert "line 3" in err

    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys):
        depth = 3000
        path = write_cfg(tmp_path, "model: " + "[" * depth + "]" * depth)
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: invalid YAML: nesting too deep\n"

    def test_nesting_beyond_the_c_stack(self, tmp_path):
        # deep enough to overflow the stack of libyaml's recursive
        # composer; in a child process, so a crash fails only this test
        depth = 200_000
        path = write_cfg(tmp_path, "model: " + "[" * depth + "]" * depth)
        proc = subprocess.run(
            [sys.executable, "-c", "from qlvsim.cli import main; main()",
             "validate", "--config", str(path)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "error: invalid YAML: nesting too deep\n"


FUNG_CREEP_TEXT = """
model:
  elastic: {kind: exponential, B: 2.0, C: 1.0}
  kernel: {kind: fung, c: 0.5, q1: 0.01, q2: 100.0}
protocol: {kind: creep, hold_stress: 0.3, duration: 5.0, dt: 0.01}
"""

# runs one command, then prints as the last line of stdout its exit code
# and the scipy packages loaded
SCIPY_AT_EXIT = (
    "import sys\n"
    "from qlvsim.cli import cli_main\n"
    "code = cli_main(sys.argv[1:])\n"
    "print(code, *sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
    "                     if m.split('.')[0] == 'scipy'}))\n")


def scipy_at_exit(argv):
    proc = subprocess.run([sys.executable, "-c", SCIPY_AT_EXIT, *argv],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(loaded)


class TestStartup:
    def test_cli_import_skips_scipy_signal_and_optimize(self):
        code = ("import sys, qlvsim.cli; print(sorted(m for m in "
                "('scipy.signal', 'scipy.optimize') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", ["sweep", "cyclic", "creep",
                                         "validate"])
    def test_command_loads_no_scipy(self, tmp_path, command):
        config = write_cfg(tmp_path, FUNG_CREEP_TEXT) \
            if command == "creep" else CYCLIC_CFG
        argv = [command, "--config", str(config)]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert scipy_at_exit(argv) == set()

    def test_simulate_loads_neither_special_nor_signal(self, tmp_path):
        loaded = scipy_at_exit(["simulate", "--config", str(CHAIN_CFG),
                                "--out", str(tmp_path / "sim.csv")])
        assert not loaded & {"scipy.special", "scipy.signal"}

    @pytest.mark.parametrize("command", ["tensile", "relax", "kernels",
                                         "fit"])
    def test_command_loads_no_scipy_signal(self, tmp_path, capsys,
                                           command):
        relaxation = str(tmp_path / "relax.csv")
        argv = {"tensile": ["tensile", "--config",
                            str(write_cfg(tmp_path, TENSILE_TEXT)),
                            "--out", str(tmp_path / "out.csv")],
                "relax": ["relax", "--config", str(RELAX_CFG),
                          "--out", relaxation],
                "kernels": ["kernels", "--kind", "fung", "--c", "0.5",
                            "--q1", "0.01", "--q2", "100"],
                "fit": ["fit", "spectrum", relaxation]}[command]
        if command == "fit":
            assert cli_main(["relax", "--config", str(RELAX_CFG),
                             "--out", relaxation]) == 0
        assert "scipy.signal" not in scipy_at_exit(argv)

    def test_parser_is_built_once_per_process(self):
        assert _build_parser() is _build_parser()


class TestValidate:
    def test_echoes_effective_config(self, capsys):
        assert cli_main(["validate", "--config", str(RELAX_CFG)]) == 0
        out = capsys.readouterr().out
        # echoed text must itself parse and round-trip unchanged
        cfg = parse_config(out)
        assert cfg.effective_text() == out
        assert "kelvin" in out

    @pytest.mark.parametrize("key", ["kernels", "aero_kernels", "springs"])
    @pytest.mark.parametrize("value", ["1", "2.5", "true", '"x"', "{i: 0}"])
    def test_network_list_that_is_not_a_list(self, tmp_path, capsys, key,
                                             value):
        path = write_cfg(tmp_path, TestNonFinite.CHAIN + f"  {key}: {value}\n")
        assert cli_main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: network.{key}: must be a list\n"


class TestValidateAgreesWithTheRun:
    """A config that validate accepts runs; one the run would reject fails
    validation, under validate and the run command alike, with exit 2 and
    the key to change."""

    CASES = [
        ("relax", RELAX_CFG.read_text().replace("hold_strain: 0.1",
                                                "hold_strain: -1.0"),
         "protocol.hold_strain: must be >= -0.5 (a Green strain) for a "
         "model specimen, got -1.0"),
        ("tensile", TENSILE_TEXT.replace("stretch_rate: 0.1",
                                         "stretch_rate: 0.0"),
         "protocol: tensile test needs stretch_rate > 0"),
        ("tensile", TENSILE_TEXT.replace("  stretch_rate: 0.1\n", ""),
         "protocol: tensile test needs stretch_rate > 0"),
        ("sweep", CYCLIC_CFG.read_text().replace(
            "prony_terms: 64", "prony_terms: 1" + "0" * 400),
         "model.kernel.prony_terms: must be <= 10000000"),
        ("sweep", CYCLIC_CFG.read_text().replace(
            "prony_terms: 64", "prony_terms: 1"),
         "model.kernel.prony_terms: must be >= 2, got 1"),
        ("sweep", CYCLIC_CFG.read_text().replace(
            "count: 9", "count: 1" + "0" * 400),
         "sweep.count: must be <= 10000000"),
        ("cyclic", CYCLIC_CFG.read_text().replace(
            "cycles: 5", "cycles: 1" + "0" * 400),
         "protocol: cycles*samples_per_cycle must be <= 10000000"),
        ("creep", CREEP_TEXT.replace("dt: 0.01", "dt: 1.0e-300"),
         "protocol: duration/dt must be <= 10000000"),
        ("relax", RELAX_CFG.read_text().replace("duration: 10.0",
                                                "duration: 0.004"),
         "protocol: duration and dt produce an empty series"),
        ("creep", CREEP_TEXT.replace("duration: 5.0", "duration: -1.0e+300")
         .replace("dt: 0.01", "dt: 1.0e-10"),
         "protocol: protocol needs duration > 0"),
        ("simulate", CHAIN_CFG.read_text().replace("duration: 50.0",
                                                   "duration: 1.0e+300"),
         "network.duration: duration/dt must be <= 10000000"),
        ("simulate", CHAIN_CFG.read_text().replace("dt: 0.01",
                                                   "dt: 1.0e-300"),
         "network.duration: duration/dt must be <= 10000000"),
        ("cyclic", CYCLIC_CFG.read_text().replace(
            "samples_per_cycle: 256", "samples_per_cycle: 200000"),
         "protocol.samples_per_cycle: samples x Prony terms must be <= "
         "10000000, got 200000 x 64"),
        ("simulate", CHAIN_CFG.read_text().replace(
            "duration: 50.0", "duration: 10000.0").replace("stride: 10",
                                                           "stride: 1"),
         "output.stride: records x columns must be <= 10000000, got "
         "1000001 x 11"),
        ("simulate", CHAIN_CFG.read_text().replace("dt: 0.01", "dt: 1.9"),
         "network.dt: dt = 1.9 violates the explicit stability bound "
         "2/omega_max = 1.0987851636338393"),
    ]
    IDS = ["hold_strain", "stretch_rate", "no-stretch_rate", "prony_terms",
           "one-prony_term", "sweep_count", "cycles", "dt", "empty-grid",
           "negative-duration", "network-duration", "network-dt",
           "filter-states", "record-table", "unstable-network-dt"]

    @pytest.mark.parametrize("command, text, error", CASES, ids=IDS)
    @pytest.mark.parametrize("validate", [True, False],
                             ids=["validate", "run"])
    def test_rejected_at_its_key(self, tmp_path, capsys, alarm, command, text,
                                 error, validate):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        argv = ["validate" if validate else command, "--config", str(cfg)]
        with alarm(20):     # a run that is not rejected fails, not hangs
            assert cli_main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_bare_element_holds_any_strain(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model:\n  kernel: {kind: maxwell, mu: 1.0,"
                        " eta: 1.0}\nprotocol: {kind: relaxation, hold_strain:"
                        " -1.0, duration: 1.0, dt: 0.5}\n")
        out = tmp_path / "out.csv"
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        assert cli_main(["relax", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_series(out).columns["stress"][0] == -1.0

    @pytest.mark.parametrize("flags, error", [
        (["--dt", "1e-300"], "duration/dt must be <= 10000000"),
        (["--duration", "1e300"], "duration/dt must be <= 10000000"),
        (["--dt", "-0.1"], "dt must be > 0, got -0.1"),
        (["--duration", "0.004"], "duration and dt produce an empty series"),
        (["--duration=-1e300", "--dt", "1e-10"],
         "protocol needs duration > 0"),
    ], ids=["dt", "duration", "negative-dt", "empty-grid", "negative-duration"])
    def test_overrides_are_checked_as_usage(self, tmp_path, capsys, flags,
                                            error):
        cfg = write_cfg(tmp_path, CREEP_TEXT)
        out = tmp_path / "out.csv"
        assert cli_main(["creep", "--config", str(cfg), "--out", str(out),
                         *flags]) == 2
        assert capsys.readouterr().err == f"error: --dt/--duration: {error}\n"
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["kernels", "--kind", "maxwell", "--mu", "1", "--eta", "1",
         "--dt", "1e-300"],
        ["simulate", "--config", str(CHAIN_CFG), "--dt", "1e-300"],
        ["simulate", "--config", str(CHAIN_CFG), "--duration", "1e300"],
    ], ids=["kernels", "simulate-dt", "simulate-duration"])
    def test_grid_flags_over_the_budget(self, tmp_path, capsys, alarm, argv):
        out = tmp_path / "out.csv"
        with alarm(20):     # a grid that is built or stepped fails, not hangs
            assert cli_main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --dt/--duration: duration/dt must be <= 10000000\n"
        assert not out.exists()


    def test_unstable_dt_override(self, tmp_path, capsys, alarm):
        out = tmp_path / "out.csv"
        with alarm(20):
            assert cli_main(["simulate", "--config", str(CHAIN_CFG), "--out",
                             str(out), "--dt", "1.9"]) == 2
        assert capsys.readouterr().err == (
            "error: --dt/--duration: dt = 1.9 violates the explicit stability "
            "bound 2/omega_max = 1.0987851636338393\n")
        assert not out.exists()

    def test_record_table_override_over_the_budget(self, tmp_path, capsys,
                                                   alarm):
        cfg = write_cfg(tmp_path, CHAIN_CFG.read_text().replace(
            "stride: 10", "stride: 1"))
        out = tmp_path / "out.csv"
        with alarm(5):      # checked before the run, which would take ~50 s
            assert cli_main(["simulate", "--config", str(cfg), "--out",
                             str(out), "--duration", "10000"]) == 2
        assert capsys.readouterr().err == (
            "error: --dt/--duration: records x columns must be <= 10000000, "
            "got 1000001 x 11\n")
        assert not out.exists()


class TestProtocols:
    def test_relax_first_row_normalized(self, tmp_path, capsys):
        out = tmp_path / "relax.csv"
        code = cli_main(["relax", "--config", str(RELAX_CFG),
                         "--out", str(out)])
        assert code == 0
        series = read_series(out)
        assert series.columns["normalized_stress"][0] == pytest.approx(1.0)
        assert np.all(np.diff(series.columns["normalized_stress"]) <= 1e-12)

    def test_tensile_reports_metrics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TENSILE_TEXT)
        out = tmp_path / "tensile.csv"
        code = cli_main(["tensile", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "youngs_modulus" in err and "uts" in err
        series = read_series(out)
        assert "stress" in series.columns
        assert "green_strain" in series.columns

    def test_creep_holds_stress(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CREEP_TEXT)
        out = tmp_path / "creep.csv"
        assert cli_main(["creep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        series = read_series(out)
        # strain grows toward the long-time compliance limit
        green = series.columns["green_strain"]
        assert np.all(np.diff(green) >= -1e-12)
        assert green[-1] > green[0] > 0.0

    def test_duration_and_dt_overrides(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CREEP_TEXT)
        out = tmp_path / "creep.csv"
        assert cli_main(["creep", "--config", str(cfg), "--out", str(out),
                         "--duration", "1.0", "--dt", "0.5"]) == 0
        series = read_series(out)
        assert series.times[-1] == pytest.approx(1.0)
        assert series.times.size == 3


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_cfg(tmp_path, CREEP_TEXT)
        assert cli_main(["creep", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main(["creep", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_chain_config(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", "--config", str(CHAIN_CFG),
                         "--out", str(out), "--duration", "5.0"])
        assert code == 0
        series = read_series(out)
        for col in ("q0", "q1", "q2", "v0", "kinetic", "elastic",
                    "external_work", "dissipation"):
            assert col in series.columns
        # forced, undamped-but-kernel-damped system: the books must balance
        bal = (series.columns["kinetic"] + series.columns["elastic"]
               + series.columns["dissipation"]
               - series.columns["external_work"])
        assert np.max(np.abs(bal - bal[0])) <= 1e-3


    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("matrix", ["stiffness", "damping"])
    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_non_finite_matrix_entry(self, tmp_path, capsys, command, matrix,
                                     value):
        last = {"stiffness": "2.0", "damping": "0.1", matrix: value}
        entries = {"stiffness": f"[[2.0, -1.0], [-1.0, {last['stiffness']}]]",
                   "damping": f"[[0.1, 0.0], [0.0, {last['damping']}]]"}
        path = write_cfg(tmp_path, "network:\n  masses: [1.0, 1.0]\n"
                         f"  stiffness: {entries['stiffness']}\n"
                         f"  damping: {entries['damping']}\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        code = cli_main([command, "--config", str(path),
                         "--out", str(tmp_path / "sim.csv")])
        assert code == 2
        assert f"network: {matrix} entries must be finite" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("matrix", ["stiffness", "damping"])
    def test_matrix_integer_too_large_for_a_float(self, tmp_path, capsys,
                                                  command, matrix):
        entries = {"stiffness": "[[2.0, -1.0], [-1.0, 2.0]]",
                   "damping": "[[0.1, 0.0], [0.0, 0.1]]"}
        entries[matrix] = f"[[1{'0' * 400}, 0.0], [0.0, 1.0]]"
        path = write_cfg(tmp_path, "network:\n  masses: [1.0, 1.0]\n"
                         f"  stiffness: {entries['stiffness']}\n"
                         f"  damping: {entries['damping']}\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        out = tmp_path / "sim.csv"
        assert cli_main([command, "--config", str(path), "--out",
                         str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: network.{matrix}: entries must be finite\n"
        assert not out.exists()

    def test_tiny_mass_fails_the_stability_check(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "network:\n  masses: [1.0e-300, 1.0]\n"
                         "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: network.dt: dt = 0.01 violates the explicit stability "
            "bound")
        assert not out.exists()

    PAIR = "{i: 0, j: 1, B: 2.0, C: 0.5}"
    STIFF = "{i: 1, B: 400.0, C: 0.5}"

    @pytest.mark.parametrize("springs, q, message", [
        (f"{PAIR}, {STIFF}", "-1.5, 0.0", "stretch must be > 0, got min -0.5"),
        (f"{PAIR}, {STIFF}", "2.0, 2.0",
         "exponent B*(lambda-1) = 800.0 overflows; offending stretch 3.0"),
        (f"{PAIR}, {STIFF}", "0.5, 2.0", "stretch must be > 0, got min -0.5"),
        (f"{STIFF}, {PAIR}", "0.5, 2.0",
         "exponent B*(lambda-1) = 800.0 overflows; offending stretch 3.0"),
        ("{i: 1, B: 1.0, C: 1.0e+300}", "0.0, 600.0",
         "overflow encountered in scalar multiply"),
    ], ids=["compressed", "overflowing", "compressed-first",
            "overflowing-first", "force-overflows"])
    def test_spring_out_of_its_domain(self, tmp_path, capsys, springs, q,
                                      message):
        # the first faulty spring's own error, as one call per spring gives
        path = write_cfg(tmp_path, "network:\n  masses: [1.0, 1.0]\n"
                         "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
                         "  damping: [[0.1, 0.0], [0.0, 0.1]]\n"
                         f"  springs: [{springs}]\n  initial: {{q: [{q}]}}\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--config", str(path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSweep:
    def test_sweep_writes_frequency_table(self, tmp_path, capsys):
        # a small Kelvin sweep (the shipped Fung config is slow by design)
        text = """
model:
  elastic: {kind: linear, k: 1.0}
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol:
  kind: cyclic
  amplitude: 0.1
  angular_frequency: 1.0
  cycles: 4
  samples_per_cycle: 128
sweep: {start: 0.5, stop: 2.0, count: 3}
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frequency,H"
        assert len(lines) == 4
        freqs = [float(line.split(",")[0]) for line in lines[1:]]
        assert freqs[0] == pytest.approx(0.5)
        assert freqs[-1] == pytest.approx(2.0)
        hs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(h > 0 for h in hs)


KELVIN_CYCLIC_TEXT = """
model:
  elastic: {kind: linear, k: 1.0}
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol:
  kind: cyclic
  amplitude: 0.1
  angular_frequency: 1.0
  cycles: 4
  samples_per_cycle: 128
sweep: {start: 0.5, stop: 2.0, count: 3}
"""


class TestCyclic:
    def test_writes_the_requested_steady_periods(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KELVIN_CYCLIC_TEXT)
        out = tmp_path / "cyclic.csv"
        assert cli_main(["cyclic", "--config", str(cfg),
                         "--out", str(out)]) == 0
        series = read_series(out)
        assert series.times.size == 4 * 128 + 1
        assert series.times[-1] == pytest.approx(8 * math.pi)
        assert "hysteresis_H = " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cyclic", "sweep"])
    @pytest.mark.parametrize("flags", [["--dt", "0.5"], ["--duration", "3"]])
    def test_rejects_dt_and_duration(self, tmp_path, capsys, command, flags):
        cfg = write_cfg(tmp_path, KELVIN_CYCLIC_TEXT)
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]
                        + flags) == 2
        assert "error: --dt/--duration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cyclic", "sweep"])
    def test_deprecated_keys_warn(self, tmp_path, capsys, command):
        text = KELVIN_CYCLIC_TEXT.replace(
            "  cycles: 4\n", "  cycles: 4\n  max_cycles: 4000\n"
            "  settle_time: 1000.0\n")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: protocol.max_cycles/settle_time are "
                         "ignored") == 1
        plain = tmp_path / "plain.csv"
        assert cli_main([command, "--config",
                         str(write_cfg(tmp_path, KELVIN_CYCLIC_TEXT,
                                       "plain.yaml")),
                         "--out", str(plain)]) == 0
        assert "warning" not in capsys.readouterr().err
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("nps", [0, 1])
    def test_too_few_samples_per_cycle(self, tmp_path, capsys, nps):
        text = KELVIN_CYCLIC_TEXT.replace("samples_per_cycle: 128",
                                          f"samples_per_cycle: {nps}")
        cfg = write_cfg(tmp_path, text)
        assert cli_main(["cyclic", "--config", str(cfg),
                         "--out", str(tmp_path / "out.csv")]) == 2
        assert "samples_per_cycle >= 2" in capsys.readouterr().err

    def test_deprecated_key_is_still_type_checked(self, tmp_path, capsys):
        text = KELVIN_CYCLIC_TEXT.replace("  cycles: 4\n",
                                          "  cycles: 4\n  settle_time: x\n")
        cfg = write_cfg(tmp_path, text)
        assert cli_main(["cyclic", "--config", str(cfg),
                         "--out", str(tmp_path / "out.csv")]) == 2
        assert "protocol.settle_time" in capsys.readouterr().err


class TestFit:
    def test_fit_exponential_round_trip(self, tmp_path, capsys):
        lam = np.linspace(1.0, 1.3, 200)
        stress = (2.0 / 10.0) * np.expm1(10.0 * (lam - 1.0))
        series = Series(times=np.linspace(0, 1, 200),
                        columns={"stretch": lam, "stress": stress})
        path = tmp_path / "tensile.csv"
        write_series(path, series)
        assert cli_main(["fit", "exponential", str(path)]) == 0
        out = capsys.readouterr().out
        params = dict(line.split(" = ") for line in out.strip().splitlines()
                      if " = " in line)
        assert float(params["B"]) == pytest.approx(10.0, rel=1e-3)
        assert float(params["C"]) == pytest.approx(2.0, rel=1e-3)

    def test_fit_spectrum_round_trip(self, tmp_path, capsys):
        t = np.linspace(0.0, 20.0, 400)
        g = 0.4 + 0.35 * np.exp(-0.5 * t) + 0.25 * np.exp(-3.0 * t)
        path = tmp_path / "relax.csv"
        write_series(path, Series(times=t,
                                  columns={"normalized_stress": g}))
        out = tmp_path / "fit.txt"
        assert cli_main(["fit", "spectrum", str(path), "--terms", "12",
                         "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("K = ")
        k = float(text.splitlines()[0].split(" = ")[1])
        assert k == pytest.approx(0.4, abs=1e-3)

    @pytest.mark.parametrize("content, message", [
        (b'time,G\n0,1\n1,"' + b"9" * 140_000 + b'"\n',
         "line 3: field larger than field limit"),
        (b"time,G\n0,1\n\xff\xfe,1\n", "not utf-8 text"),
    ], ids=["oversized-field", "not-utf-8"])
    def test_fit_unreadable_csv(self, tmp_path, capsys, content, message):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        assert cli_main(["fit", "spectrum", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("terms", ["-1", "0"])
    def test_fit_spectrum_needs_a_term(self, tmp_path, capsys, terms):
        path = tmp_path / "relax.csv"
        path.write_text("time,G\n0,1\n1,0.8\n2,0.7\n")
        assert cli_main(["fit", "spectrum", str(path), "--terms", terms]) == 2
        assert capsys.readouterr().err == \
            f"error: --terms: term count must be >= 1, got {terms}\n"

    def test_fit_spectrum_design_matrix_over_the_budget(self, tmp_path,
                                                        capsys, alarm):
        t = np.linspace(0.0, 10.0, 1001)
        path = tmp_path / "relax.csv"
        write_series(path, Series(times=t,
                                  columns={"G": 0.5 + 0.5 * np.exp(-t)}))
        with alarm(5):      # rejected before a 1001 x 10001 matrix is built
            assert cli_main(["fit", "spectrum", str(path),
                             "--terms", "10000"]) == 2
        assert capsys.readouterr().err == ("error: --terms: rows x (terms + "
                                           "1) must be <= 10000000, got "
                                           "1001 x 10001\n")

    @pytest.mark.parametrize("terms", ["-1", "8"])
    def test_fit_exponential_takes_no_terms(self, tmp_path, capsys, terms):
        path = tmp_path / "tensile.csv"
        path.write_bytes(fit_csv())
        assert cli_main(["fit", "exponential", str(path),
                         "--terms", terms]) == 2
        assert capsys.readouterr().err == \
            "error: --terms: only fit spectrum takes --terms\n"

    def test_fit_spectrum_defaults_to_eight_terms(self, tmp_path, capsys):
        path = tmp_path / "relax.csv"
        path.write_bytes(fit_csv())
        assert cli_main(["fit", "spectrum", str(path)]) == 0
        assert capsys.readouterr().out.count("term frequency=") == 8

    def test_fit_missing_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_series(path, Series(times=np.array([0.0, 1.0]),
                                  columns={"x": np.array([1.0, 2.0])}))
        assert cli_main(["fit", "exponential", str(path)]) == 2


class TestKernels:
    def test_kelvin_tabulation_stdout(self, capsys):
        code = cli_main(["kernels", "--kind", "kelvin", "--E-R", "1.0",
                         "--tau-eps", "0.5", "--tau-sigma", "1.5",
                         "--duration", "2.0", "--dt", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "time,G"
        g0 = float(lines[1].split(",")[1])
        assert g0 == pytest.approx(1.0)
        g_end = float(lines[-1].split(",")[1])
        # g(0+)=tau_sigma/tau_eps normalized to 1; decays toward 1/3
        assert 1.0 / 3.0 < g_end < 1.0

    def test_prony_kernel_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = cli_main(["kernels", "--kind", "prony", "--K", "0.5",
                         "--amplitudes", "0.5", "--frequencies", "2.0",
                         "--duration", "3.0", "--dt", "0.01",
                         "--out", str(out)])
        assert code == 0
        series = read_series(out)
        ref = 0.5 + 0.5 * np.exp(-2.0 * series.times)
        assert np.max(np.abs(series.columns["G"] - ref)) <= 1e-12

    def test_missing_required_parameter(self, capsys):
        assert cli_main(["kernels", "--kind", "maxwell", "--mu", "1.0"]) == 2
        assert "--eta" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, error", [
        (["--kind", "maxwell", "--mu", "-1", "--eta", "1"],
         "mu must be > 0, got -1.0"),
        (["--kind", "kelvin", "--E-R", "1", "--tau-eps", "0.5",
          "--tau-sigma", "0.2"],
         "need 0 < tau_eps <= tau_sigma, got tau_eps=0.5, tau_sigma=0.2"),
        (["--kind", "prony", "--K", "0.5", "--amplitudes", "0.3,0.2",
          "--frequencies", "2,1"], "frequencies must be strictly increasing"),
    ], ids=["mu", "tau_sigma", "frequencies"])
    def test_parameter_out_of_its_domain_is_a_usage_error(self, capsys, flags,
                                                          error):
        # exit 2, as the same value in a config
        assert cli_main(["kernels", *flags]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_fung_tabulation(self, capsys):
        code = cli_main(["kernels", "--kind", "fung", "--c", "0.5",
                         "--q1", "0.1", "--q2", "10.0",
                         "--duration", "1.0", "--dt", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        g = [float(line.split(",")[1]) for line in lines[1:]]
        assert g[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(g, g[1:]))


def leaf_paths(node, path=()):
    """Key paths of the scalars of a parsed YAML document, list items
    included."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


SHIPPED = {"relax": RELAX_CFG, "sweep": CYCLIC_CFG, "simulate": CHAIN_CFG}
LEAVES = [(command, path) for command, cfg in SHIPPED.items()
          for path in leaf_paths(yaml.safe_load(cfg.read_text()))]
LEAF_VALUES = [-1, 0, 1e300, -1e300, 1e-300, 2**63, "x", None, True, [], {}]
KERNEL_FLAGS = {"maxwell": {"mu": "1", "eta": "1"},
                "voigt": {"mu": "1", "eta": "1"},
                "kelvin": {"E-R": "1", "tau-eps": "0.5", "tau-sigma": "1.5"},
                "prony": {"K": "0.5", "amplitudes": "0.3,0.2",
                          "frequencies": "1,10"},
                "fung": {"c": "0.5", "q1": "0.01", "q2": "100"}}
KERNEL_CASES = [(kind, name) for kind, flags in KERNEL_FLAGS.items()
                for name in (*flags, "duration", "dt")]
FLAG_VALUES = ["-1", "0", "1e300", "-1e300", "1e-300", str(2**63), "x", "",
               "nan", "inf", "2,1", "1,x"]
TERMS = ["-1", "0", "1", "2", "8", "64", str(2**63), str(-2**63), "x", "",
         "1.5"]


def fit_csv() -> bytes:
    """A small series that both fits accept: time, stretch, stress and a
    normalized relaxation."""
    t = np.linspace(0.0, 1.0, 16)
    stretch = 1.0 + 0.3 * t
    return serialize_series(Series(times=t, columns={
        "stretch": stretch, "stress": 0.2 * np.expm1(10.0 * (stretch - 1.0)),
        "normalized_stress": 0.5 + 0.5 * np.exp(-3.0 * t)})).encode()


def mutated(data: bytes, edits) -> bytes:
    """``data`` with each (op, position, byte) edit applied in turn: flip a
    bit of, insert before or delete the byte at the position."""
    out = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            out.insert(pos % (len(out) + 1), byte)
        elif out and op == "flip":
            out[pos % len(out)] ^= 1 << byte % 8
        elif out:
            del out[pos % len(out)]
    return bytes(out)


NOT_A_MATRIX = ("error: network.stiffness: must be a non-empty rectangular "
                "list of number lists")
NOT_FINITE = "error: network: stiffness entries must be finite"
UNSTABLE = ("error: network.dt: dt = 0.01 violates the explicit stability "
            "bound 2/omega_max = 0.00241")
# one stiffness entry of the chain config in an odd YAML 1.1 form: the
# (exit code, error line prefix) of validate and of simulate
ODD_STIFFNESS = {
    "1e5": ((2, NOT_A_MATRIX), (2, NOT_A_MATRIX)),        # text
    "1.0e+999": ((2, NOT_FINITE), (2, NOT_FINITE)),       # inf
    "1_0.5": ((0, None), (0, None)),                      # 10.5
    "190:20:30.15": ((2, UNSTABLE), (2, UNSTABLE)),      # 685230.15
    ".nan": ((2, NOT_FINITE), (2, NOT_FINITE)),
    "-0.0": ((0, None), (0, None)),
    "0x1F": ((0, None), (0, None)),                       # 31
}


# scalars that PyYAML's constructors fail to build with an exception that
# is not a yaml.YAMLError: ValueError, IndexError, KeyError, AttributeError
UNBUILDABLE = ["!!float x", "!!int x", "!!timestamp 2001-13-45", "!!float",
          "!!int", "!!bool x", "!!timestamp x", "2001-13-45"]


class TestExitCodeContract:
    """Whatever one leaf of a shipped config, one kernels flag, or a fit's
    CSV bytes and --terms hold, cli_main exits 0, 1 or 2, raises nothing,
    and a non-zero exit says why on an error line.  Each call runs under an
    alarm, so a hang fails."""

    @staticmethod
    def check(argv, capsys, alarm):
        with alarm(20):
            code = cli_main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert code == 0 or "error:" in err, err

    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(LEAF_VALUES))
    @example(leaf=("simulate", ("network", "duration")), value=1e300)
    @example(leaf=("simulate", ("network", "dt")), value=1e-300)
    def test_config_leaf(self, tmp_path, capsys, alarm, leaf, value):
        command, path = leaf
        doc = yaml.safe_load(SHIPPED[command].read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        for run in (command, "validate"):
            self.check([run, "--config", str(cfg),
                        "--out", str(tmp_path / "out.csv")], capsys, alarm)

    @pytest.mark.parametrize("value", list(ODD_STIFFNESS))
    def test_odd_stiffness_entry(self, tmp_path, capsys, alarm, value):
        cfg = write_cfg(tmp_path, CHAIN_CFG.read_text().replace(
            "- [ 2.0, -1.0,  0.0]", f"- [ {value}, -1.0,  0.0]"))
        for command, (code, error) in zip(["validate", "simulate"],
                                          ODD_STIFFNESS[value]):
            with alarm(20):
                assert cli_main([command, "--config", str(cfg), "--out",
                                 str(tmp_path / "out.csv")]) == code
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == (error is not None), errors
            assert error is None or errors[0].startswith(error)

    @pytest.mark.parametrize("value", UNBUILDABLE)
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_unbuildable_scalar(self, tmp_path, capsys, alarm, command,
                                value):
        # yaml.safe_dump never writes a tag, so test_config_leaf cannot
        cfg = write_cfg(tmp_path, CHAIN_CFG.read_text().replace(
            "K: 1.0  ", f"K: {value}  "))
        with alarm(20):
            assert cli_main([command, "--config", str(cfg), "--out",
                             str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid YAML: cannot build a value (")
        assert not (tmp_path / "out.csv").exists()

    @settings(max_examples=100, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["exponential", "spectrum"]),
           terms=st.sampled_from(TERMS),
           edits=st.lists(st.tuples(
               st.sampled_from(["flip", "insert", "delete"]),
               st.integers(0, 2**16), st.integers(0, 255)), max_size=4))
    @example(kind="spectrum", terms="-1", edits=[])
    @example(kind="spectrum", terms="0", edits=[])
    @example(kind="exponential", terms="-1", edits=[])
    def test_fit(self, tmp_path, capsys, alarm, kind, terms, edits):
        path = tmp_path / "in.csv"
        path.write_bytes(mutated(fit_csv(), edits))
        self.check(["fit", kind, str(path), "--terms", terms], capsys, alarm)

    @settings(max_examples=100, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(flag=st.sampled_from(KERNEL_CASES),
           value=st.sampled_from(FLAG_VALUES))
    @example(flag=("maxwell", "dt"), value="1e-300")
    def test_kernels_flag(self, capsys, alarm, flag, value):
        kind, name = flag
        flags = {**KERNEL_FLAGS[kind], "duration": "10", "dt": "0.01",
                 name: value}
        self.check(["kernels", "--kind", kind,
                    *(f"--{key}={v}" for key, v in flags.items())],
                   capsys, alarm)


class TestStride:
    @pytest.mark.parametrize("stride", [1, 2, 3, 7, 250, 499, 500, 501,
                                        2**63])
    def test_first_every_stride_th_and_last_row(self, tmp_path, capsys,
                                                stride):
        full, out = tmp_path / "full.csv", tmp_path / "strided.csv"
        assert cli_main(["creep", "--config",
                         str(write_cfg(tmp_path, CREEP_TEXT, "full.yaml")),
                         "--out", str(full)]) == 0
        cfg = write_cfg(tmp_path,
                        CREEP_TEXT + f"output: {{stride: {stride}}}\n")
        assert cli_main(["creep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, *rows = full.read_text().splitlines()
        want = rows[::stride]
        if (len(rows) - 1) % stride:
            want.append(rows[-1])
        assert out.read_text().splitlines() == [header, *want]

    def test_stride_beyond_int64_writes_first_and_last_rows(self, tmp_path,
                                                            capsys):
        cfg = write_cfg(tmp_path, CREEP_TEXT
                        + "output: {stride: 9223372036854775808}\n")
        out = tmp_path / "creep.csv"
        assert cli_main(["creep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        series = read_series(out)
        assert series.times.tolist() == [0.0, pytest.approx(5.0)]


class TestNonFinite:
    @pytest.mark.parametrize("flag", ["--dt", "--duration"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["creep", "kernels"])
    def test_flag_is_a_usage_error(self, tmp_path, capsys, command, flag,
                                   value):
        argv = (["creep", "--config", str(write_cfg(tmp_path, CREEP_TEXT)),
                 "--out", str(tmp_path / "out.csv")]
                if command == "creep" else
                ["kernels", "--kind", "maxwell", "--mu", "1", "--eta", "1"])
        assert cli_main(argv + [f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite, got '{value}'" in err
        assert not (tmp_path / "out.csv").exists()

    def test_non_number_flag_message_is_unchanged(self, capsys):
        assert cli_main(["kernels", "--kind", "maxwell", "--mu", "1",
                         "--eta", "1", "--dt", "abc"]) == 2
        assert "argument --dt: invalid float value: 'abc'" in \
            capsys.readouterr().err

    CHAIN = ("network:\n  masses: [1.0, 1.0]\n"
             "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
             "  duration: 1.0\n  dt: 0.01\n")

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan",
                                       "1" + "0" * 400],
                             ids=["inf", "-inf", "nan", "int-1e400"])
    @pytest.mark.parametrize("command, text, key", [
        ("creep", CREEP_TEXT.replace("duration: 5.0", "duration: VALUE"),
         "protocol.duration"),
        ("creep", CREEP_TEXT.replace("hold_stress: 0.3", "hold_stress: VALUE"),
         "protocol.hold_stress"),
        ("simulate", CHAIN + "  force: {kind: sinusoid, amplitudes: [0, 1],"
         " angular_frequency: VALUE}\n", "network.force.angular_frequency"),
        ("simulate", CHAIN + "  force: {kind: sinusoid, amplitudes:"
         " [0, VALUE], angular_frequency: 1.0}\n", "network.force.amplitudes"),
        ("simulate", CHAIN + "  initial: {q: [VALUE, 0.0]}\n",
         "network.initial.q"),
        ("simulate", CHAIN + "  kernels: [{i: 0, j: 0, K: VALUE,"
         " amplitudes: [0.5], frequencies: [1.0]}]\n", "network.kernels[0].K"),
    ], ids=["duration", "hold_stress", "angular_frequency", "amplitudes",
            "initial_q", "kernel_K"])
    def test_config_number_is_a_config_error(self, tmp_path, capsys, command,
                                             text, key, value):
        cfg = write_cfg(tmp_path, text.replace("VALUE", value))
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and "finite" in err, err
        assert not out.exists()
