import math
from pathlib import Path

import numpy as np
import pytest

from qlvsim.cli import cli_main
from qlvsim.config import parse_config
from qlvsim.seriesio import read_series, write_series
from qlvsim.protocols import Series

CONFIGS = Path(__file__).parents[1] / "configs"

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


class TestValidate:
    def test_echoes_effective_config(self, capsys):
        assert cli_main(["validate", "--config", str(RELAX_CFG)]) == 0
        out = capsys.readouterr().out
        # echoed text must itself parse and round-trip unchanged
        cfg = parse_config(out)
        assert cfg.effective_text() == out
        assert "kelvin" in out


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

    def test_fung_tabulation(self, capsys):
        code = cli_main(["kernels", "--kind", "fung", "--c", "0.5",
                         "--q1", "0.1", "--q2", "10.0",
                         "--duration", "1.0", "--dt", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        g = [float(line.split(",")[1]) for line in lines[1:]]
        assert g[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(g, g[1:]))
