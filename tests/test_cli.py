import argparse
import gc
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qlvsim
from qlvsim.cli import _build_parser, cli_main
from qlvsim.config import parse_config
from qlvsim.constitutive import ELASTIC_TYPES
from qlvsim.errors import DomainError
from qlvsim.kernels import KERNEL_TYPES, grid_steps
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


def config_argv(command, cfg, out):
    """``command`` on ``cfg``, writing to ``out`` unless it is validate,
    which takes no --out."""
    argv = [command, "--config", str(cfg)]
    return argv if command == "validate" else argv + ["--out", str(out)]


class TestExitCodes:
    @pytest.mark.parametrize("masses, stiffness, damping, row", [
        ("[1.0]", "[[1.0]]", "[[-200.0]]", 0),
        ("[1.0, 1.0]", "[[1.0, 0.0], [0.0, 1.0]]",
         "[[-200.0, 0.0], [100.0, 0.0]]", 1)], ids=["diagonal", "dense"])
    def test_singular_damped_update(self, tmp_path, capsys, masses,
                                    stiffness, damping, row):
        path = write_cfg(tmp_path, f"network:\n  masses: {masses}\n"
                         f"  stiffness: {stiffness}\n  damping: {damping}\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        out = tmp_path / "out.csv"
        for command in ("validate", "simulate"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli_main(config_argv(command, path, out)) == 2
            assert capsys.readouterr().err == (
                "error: network.dt: M + dt/2 beta is singular: zero "
                f"pivot in row {row}\n")
        assert not out.exists()

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

    def test_module_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qlvsim.cli", "validate", "--config",
             str(CHAIN_CFG)], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == \
            parse_config(CHAIN_CFG.read_text()).effective_text()

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


CHAIN3 = ("network:\n  masses: [1.0, 1.0, 1.0]\n  stiffness: "
          "[[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]\n")
BARE_ELEMENT = "model:\n  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}\n"
RELAX_PROTOCOL = ("protocol: {kind: relaxation, hold_strain: 0.1, "
                  "duration: 1.0, dt: 0.1}\n")


class TestRejectedWithExitTwo:
    """Each rejection exits 2 with its one message, under validate and
    under the run command where validate sees it, and writes nothing."""

    CASES = [
        (["validate", "relax"], RELAX_CFG.read_text().replace(
            "precision: 17", "precision: 0"),
         "output.precision: must be >= 1, got 0"),
        (["validate", "simulate"], CHAIN3 + "  force: {kind: sinusoid, "
         "amplitudes: [0.0, 0.0, 0.1], angular_frequency: 0.0}\n"
         "  duration: 1.0\n  dt: 0.01\n",
         "network.force.angular_frequency: must be > 0, got 0.0"),
        (["validate", "simulate"], CHAIN3 + "  force: {kind: impulse}\n"
         "  duration: 1.0\n  dt: 0.01\n",
         "network.force.kind: must be one of ['constant', 'sinusoid'], "
         "got 'impulse'"),
        (["validate", "simulate"], CHAIN3 + "  initial: {q: [0.1, 0.0]}\n"
         "  duration: 1.0\n  dt: 0.01\n",
         "network.initial.q: expected 3 entries, got 2"),
        (["validate", "relax"], "- model\n- protocol\n",
         "top level must be a mapping, got list"),
        (["validate", "relax"], "model:\n  elastic: {kind: linear, k: 1.0}\n"
         + RELAX_PROTOCOL, "model.kernel: required key missing"),
        (["validate", "relax"], "model:\n  kernel: {kind: prony, K: 0.5, "
         "amplitudes: [0.5], frequencies: [1.0]}\n" + RELAX_PROTOCOL,
         "model.elastic: required key missing (only classical elements may "
         "be used without an elastic law)"),
        (["tensile"], BARE_ELEMENT + "protocol: {kind: tensile, "
         "stretch_rate: 0.1, duration: 1.0, dt: 0.1}\n",
         "model.elastic: the tensile command needs a model with an elastic "
         "law"),
        (["relax"], BARE_ELEMENT,
         "protocol: section required for the relaxation command"),
        (["sweep"], BARE_ELEMENT + "protocol: {kind: cyclic, amplitude: 0.1, "
         "angular_frequency: 1.0, cycles: 1}\n",
         "sweep: section required for the sweep command"),
        (["simulate"], CHAIN3 + "  dt: 0.01\n",
         "network.duration: simulate needs positive duration and dt "
         "(network.duration/network.dt or --duration/--dt)"),
    ]
    IDS = ["precision", "force-angular-frequency", "force-kind",
           "initial-q", "top-level-list", "no-kernel", "no-elastic",
           "tensile-bare-element", "no-protocol", "no-sweep",
           "no-duration"]

    @pytest.mark.parametrize("commands, text, error", CASES, ids=IDS)
    def test_config_rejection(self, tmp_path, capsys, commands, text, error):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        for command in commands:
            assert cli_main(config_argv(command, cfg, out)) == 2, command
            assert capsys.readouterr().err == f"error: {error}\n", command
        assert not out.exists()

    def test_fit_spectrum_without_its_column(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("time,stress\n0,1\n1,0.5\n")
        out = tmp_path / "fit.txt"
        assert cli_main(["fit", "spectrum", str(series), "--out",
                         str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {series}: missing column 'normalized_stress' (or 'G')\n")
        assert not out.exists()

    def test_run_with_no_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, BARE_ELEMENT + RELAX_PROTOCOL)
        assert cli_main(["relax", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ("error: output.path: no output "
                                           "path given (set output.path or "
                                           "pass --out)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


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
        assert scipy_at_exit(config_argv(command, config,
                                         tmp_path / "out.csv")) == set()

    def test_simulate_loads_neither_special_nor_signal(self, tmp_path):
        # nor anything of scipy: chain_simulate.yaml has no damping
        assert scipy_at_exit(["simulate", "--config", str(CHAIN_CFG),
                              "--out", str(tmp_path / "sim.csv")]) == set()

    @pytest.mark.parametrize("damping, dense", [
        ("[[0.1, 0.0], [0.0, 0.2]]", False),
        ("[[0.1, 0.02], [0.02, 0.2]]", True)], ids=["diagonal", "dense"])
    def test_damped_simulate_loads_scipy_linalg_only_when_dense(
            self, tmp_path, damping, dense):
        # validate checks the damped update as the run does
        config = write_cfg(tmp_path, TestNonFinite.CHAIN
                           + f"  damping: {damping}\n")
        for command in ("validate", "simulate"):
            loaded = scipy_at_exit(config_argv(command, config,
                                               tmp_path / "sim.csv"))
            assert "scipy.linalg" in loaded if dense else loaded == set()

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

    def test_the_process_entry_freezes_the_heap_before_exit(self, tmp_path):
        # an atexit hook of the child's own reads the freeze count; the
        # output is the bytes cli_main writes in this process
        hooks = tmp_path / "hooks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
            " file=sys.stderr))\n")
        out = tmp_path / "main.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qlvsim.cli", "simulate", "--config",
             str(CHAIN_CFG), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(hooks),
                                                              SRC])},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        frozen = [line.split() for line in proc.stderr.splitlines()
                  if line.startswith("frozen ")]
        assert len(frozen) == 1 and int(frozen[0][1]) > 0, proc.stderr
        assert cli_main(["simulate", "--config", str(CHAIN_CFG), "--out",
                         str(tmp_path / "cli_main.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "cli_main.csv").read_bytes()

    def test_cli_main_freezes_nothing(self, tmp_path):
        # it runs in its caller's process, whose objects stay collectable
        before = gc.get_freeze_count()
        assert cli_main(["simulate", "--config", str(CHAIN_CFG), "--out",
                         str(tmp_path / "sim.csv")]) == 0
        assert gc.get_freeze_count() == before


RUN_OPTIONS = {"--config", "--out", "--seed"}
GRID_OPTIONS = RUN_OPTIONS | {"--dt", "--duration"}
# each subcommand's options, --help aside
OPTIONS = {**dict.fromkeys(["tensile", "creep", "relax", "simulate"],
                           GRID_OPTIONS),
           "cyclic": RUN_OPTIONS, "sweep": RUN_OPTIONS,
           "validate": {"--config", "--seed"},
           "fit": {"--terms", "--out", "--seed"},
           "kernels": {"--kind", "--dt", "--duration", "--out", "--seed",
                       *("--" + f.name.replace("_", "-")
                         for cls in KERNEL_TYPES.values()
                         for f in fields(cls))}}


class TestOptions:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_option_set(self, command):
        sub, = (action.choices[command] for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
        assert {option for action in sub._actions
                for option in action.option_strings
                } - {"-h", "--help"} == OPTIONS[command]

    @pytest.mark.parametrize("flags", [["--out", "x.csv"], ["--dt", "1"],
                                       ["--duration", "1"]])
    def test_validate_takes_only_config(self, capsys, flags):
        assert cli_main(["validate", "--config", str(RELAX_CFG),
                         *flags]) == 2
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: " + " ".join(flags) in \
            captured.err
        assert captured.out == ""


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
         "protocol: stretch_rate must be > 0, got 0.0"),
        ("tensile", TENSILE_TEXT.replace("  stretch_rate: 0.1\n", ""),
         "protocol: stretch_rate must be > 0, got 0.0"),
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
        ("simulate", CHAIN_CFG.read_text().replace("duration: 50.0",
                                                   "duration: 0.004"),
         "network.duration: duration and dt produce an empty series"),
        ("creep", CREEP_TEXT.replace("duration: 5.0", "duration: -1.0e+300")
         .replace("dt: 0.01", "dt: 1.0e-10"),
         "protocol: duration must be > 0, got -1e+300"),
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
        # the bound holds each spring's tangent at rest and the damping
        # rate of the explicit first half-step
        ("simulate", "network:\n  masses: [1.0]\n  stiffness: [[1.0e-6]]\n"
         "  springs: [{i: 0, B: 1.0, C: 10000.0}]\n  initial: {q: [1.0e-3]}\n"
         "  duration: 1.0\n  dt: 0.1\n",
         "network.dt: dt = 0.1 violates the explicit stability bound "
         "2/omega_max = 0.019999999998999998"),
        ("simulate", "network:\n  masses: [1.0]\n  stiffness: [[1.0]]\n"
         "  damping: [[800000.0]]\n  initial: {v: [0.01]}\n"
         "  duration: 2.0\n  dt: 0.5\n",
         "network.dt: dt = 0.5 violates the explicit stability bound "
         "2/lambda_d = 2.5e-06"),
        ("simulate", "network:\n  masses: [1.0]\n  stiffness: [[0.0]]\n"
         "  damping: [[-1.0e+308]]\n  duration: 10.0\n  dt: 10.0\n",
         "network.dt: M + dt/2 beta must be finite"),
        # a spring that the initial state puts out of its domain
        ("simulate", "network:\n  masses: [1.0, 1.0]\n"
         "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
         "  springs: [{i: 1, B: 1.0, C: 2.0e+4}]\n"
         "  initial: {q: [0.0, 700.0]}\n  duration: 1.0\n  dt: 0.01\n",
         "network.initial.q: spring (1, ground) at t = 0: overflow "
         "encountered in scalar multiply"),
        # periods 2*pi/w that overflow: the sweep's longest, and the last
        # time of a cyclic run, which one period or cycles of them overflow
        ("sweep", CYCLIC_CFG.read_text().replace("start: 0.1 ",
                                                 "start: 1.0e-310 "),
         "sweep.start: 1 x period 2*pi/w overflows, got w = 1e-310"),
        ("cyclic", CYCLIC_CFG.read_text().replace(
            "angular_frequency: 1.0 ", "angular_frequency: 1.0e-310 "),
         "protocol: 5 x period 2*pi/w overflows, got w = 1e-310"),
        ("cyclic", CYCLIC_CFG.read_text().replace(
            "angular_frequency: 1.0 ", "angular_frequency: 4.0e-308 "),
         "protocol: 5 x period 2*pi/w overflows, got w = 4e-308"),
    ]
    IDS = ["hold_strain", "stretch_rate", "no-stretch_rate", "prony_terms",
           "one-prony_term", "sweep_count", "cycles", "dt", "empty-grid",
           "simulate-empty-grid", "negative-duration", "network-duration",
           "network-dt", "filter-states", "record-table",
           "unstable-network-dt", "stiff-spring", "strong-damping",
           "overflowing-damped-update", "spring-at-initial-q",
           "subnormal-frequency",
           "subnormal-angular-frequency", "cycles-overflow"]

    @pytest.mark.parametrize("command, text, error", CASES, ids=IDS)
    @pytest.mark.parametrize("validate", [True, False],
                             ids=["validate", "run"])
    def test_rejected_at_its_key(self, tmp_path, capsys, alarm, command, text,
                                 error, validate):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out.csv"
        with alarm(20):     # a run that is not rejected fails, not hangs
            assert cli_main(config_argv("validate" if validate else command,
                                        cfg, out)) == 2
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

    # a grid fault given by a flag of the run command, each as the same
    # value written into the config at the flag's key
    FLAG_CASES = [
        ("creep", CREEP_TEXT, {"dt": "1e-300"},
         "protocol: duration/dt must be <= 10000000"),
        ("creep", CREEP_TEXT, {"duration": "1e300"},
         "protocol: duration/dt must be <= 10000000"),
        ("creep", CREEP_TEXT, {"dt": "-0.1"},
         "protocol: dt must be > 0, got -0.1"),
        ("creep", CREEP_TEXT, {"duration": "0.004"},
         "protocol: duration and dt produce an empty series"),
        ("simulate", CHAIN_CFG.read_text(), {"duration": "0.004"},
         "network.duration: duration and dt produce an empty series"),
        ("creep", CREEP_TEXT, {"duration": "-1e300", "dt": "1e-10"},
         "protocol: duration must be > 0, got -1e+300"),
        ("simulate", CHAIN_CFG.read_text(), {"dt": "1e-300"},
         "network.duration: duration/dt must be <= 10000000"),
        ("simulate", CHAIN_CFG.read_text(), {"duration": "1e300"},
         "network.duration: duration/dt must be <= 10000000"),
        ("simulate", CHAIN_CFG.read_text().replace("stride: 10", "stride: 1"),
         {"duration": "10000"}, "output.stride: records x columns must be "
         "<= 10000000, got 1000001 x 11"),
        ("simulate", CHAIN_CFG.read_text(), {"dt": "1.9"},
         "network.dt: dt = 1.9 violates the explicit stability bound "
         "2/omega_max = 1.0987851636338393"),
    ]
    FLAG_IDS = ["dt", "duration", "negative-dt", "empty-grid",
                "simulate-empty-grid", "negative-duration", "simulate-dt",
                "simulate-duration", "record-table", "unstable-network-dt"]

    @staticmethod
    def written(tmp_path, command, text, flags):
        """The config ``text`` with the flags' values written in at their
        keys."""
        doc = yaml.safe_load(text)
        doc["network" if command == "simulate" else "protocol"].update(
            {key: float(value) for key, value in flags.items()})
        return write_cfg(tmp_path, yaml.safe_dump(doc), "written.yaml")

    @pytest.mark.parametrize("command, text, flags, error", FLAG_CASES,
                             ids=FLAG_IDS)
    def test_overrides_are_checked_as_usage(self, tmp_path, capsys, alarm,
                                            command, text, flags, error):
        out = tmp_path / "out.csv"
        written = self.written(tmp_path, command, text, flags)
        for argv in ([command, "--config", str(write_cfg(tmp_path, text)),
                      "--out", str(out),
                      *(f"--{key}={value}" for key, value in flags.items())],
                     [command, "--config", str(written), "--out", str(out)],
                     ["validate", "--config", str(written)]):
            with alarm(20):     # checked before a grid is built or stepped
                assert cli_main(argv) == 2
            assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, flags", [
        ("creep", CREEP_TEXT, {"duration": "1.0", "dt": "0.5"}),
        ("simulate", CHAIN_CFG.read_text(), {"duration": "7.5", "dt": "0.02"}),
    ], ids=["creep", "simulate"])
    def test_flags_run_as_their_values_in_the_config(self, tmp_path, capsys,
                                                     command, text, flags):
        out = tmp_path / "out.csv"
        runs = []
        for argv in ([f"--{key}={value}" for key, value in flags.items()
                      ] + ["--config", str(write_cfg(tmp_path, text))],
                     ["--config", str(self.written(tmp_path, command, text,
                                                   flags))]):
            assert cli_main([command, "--out", str(out), *argv]) == 0
            runs.append((out.read_bytes(), capsys.readouterr()))
        assert runs[0] == runs[1]

    # kernels reads no config: its grid flags are keys of a kernels section
    @pytest.mark.parametrize("argv", [
        ["kernels", "--kind", "maxwell", "--mu", "1", "--eta", "1",
         "--dt", "1e-300"]], ids=["kernels"])
    def test_grid_flags_over_the_budget(self, tmp_path, capsys, alarm, argv):
        out = tmp_path / "out.csv"
        with alarm(20):     # a grid that is built fails, not hangs
            assert cli_main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: kernels.duration: duration/dt must be <= 10000000\n"
        assert not out.exists()

    @settings(max_examples=40, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(duration=st.floats(-1.0, 1.0) | st.sampled_from(
               [1e300, -1e300, 5e-324, sys.float_info.max]),
           dt=st.floats(1e-3, 1.0) | st.floats(-1.0, 0.0) | st.sampled_from(
               [1e-300, 5e-324, -sys.float_info.max]))
    @example(duration=0.004, dt=0.01)
    @example(duration=0.006, dt=0.01)
    @example(duration=3.698998296699463e-297, dt=1e-300)   # dt**2 underflows
    def test_one_grid_rule(self, tmp_path, capsys, alarm, duration, dt):
        # relax, simulate and kernels write grid_steps + 1 rows, or all
        # exit 2 with grid_steps' message at their grid key, and validate
        # agrees with relax and simulate; valid grids hold <= 1001 rows
        try:
            rows, error = grid_steps(duration, dt) + 1, None
        except DomainError as exc:
            rows, error = None, str(exc)
        out, flags = tmp_path / "out.csv", {"duration": duration, "dt": dt}
        grid = ["--out", str(out), f"--duration={duration!r}", f"--dt={dt!r}"]

        def check(argv, key):
            out.unlink(missing_ok=True)
            with alarm(20):
                code = cli_main(argv)
            err = capsys.readouterr().err
            if error is not None:
                assert (code, err) == (2, f"error: {key}: {error}\n"), argv
                assert not out.exists()
            else:
                assert code == 0, (argv, err)
                assert argv[0] == "validate" or \
                    read_series(out).times.size == rows

        check(["kernels", "--kind", "maxwell", "--mu", "1", "--eta", "1",
               *grid], "kernels.duration")
        chain = CHAIN_CFG.read_text().replace("stride: 10", "stride: 1")
        for command, text, key in (("relax", RELAX_CFG.read_text(),
                                    "protocol"),
                                   ("simulate", chain, "network.duration")):
            check([command, "--config", str(write_cfg(tmp_path, text)),
                   *grid], key)
            check(["validate", "--config", str(self.written(
                tmp_path, command, text, flags))], key)

    def test_unstable_dt_override(self, tmp_path, capsys):
        # a stable --dt runs a config whose own dt is unstable
        cfg = write_cfg(tmp_path, CHAIN_CFG.read_text().replace("dt: 0.01",
                                                                "dt: 1.9"))
        out, shipped = tmp_path / "out.csv", tmp_path / "shipped.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--dt", "0.01"]) == 0
        assert cli_main(["simulate", "--config", str(CHAIN_CFG), "--out",
                         str(shipped)]) == 0
        assert out.read_bytes() == shipped.read_bytes()


# a valid section of each elastic and kernel kind
ELASTIC_SECTIONS = {"exponential": {"B": 2.0, "C": 1.0}, "linear": {"k": 1.0},
                    "fung": {"c": 1.0, "a1": 1.0}}
KERNEL_SECTIONS = {"maxwell": {"mu": 1.0, "eta": 1.0},
                   "voigt": {"mu": 1.0, "eta": 1.0},
                   "kelvin": {"E_R": 1.0, "tau_eps": 0.5, "tau_sigma": 1.5},
                   "prony": {"K": 0.5, "amplitudes": [0.5],
                             "frequencies": [1.0]},
                   "fung": {"c": 0.5, "q1": 0.01, "q2": 100.0}}


def relax_doc(elastic="linear", kernel="maxwell"):
    """A valid relax config of one elastic and one kernel kind; a Voigt
    kernel is a bare element."""
    model = {"kernel": {"kind": kernel, **KERNEL_SECTIONS[kernel]}}
    if kernel != "voigt":
        model["elastic"] = {"kind": elastic, **ELASTIC_SECTIONS[elastic]}
    return {"model": model, "protocol": {"kind": "relaxation",
                                         "hold_strain": 0.1, "duration": 1.0,
                                         "dt": 0.1}}


def own_keys(section, kind):
    """The keys a section of this kind takes: its type's fields and kind;
    a Fung kernel alone takes prony_terms, the only one discretized."""
    types = ELASTIC_TYPES if section == "elastic" else KERNEL_TYPES
    extra = {"prony_terms"} if (section, kind) == ("kernel", "fung") else set()
    return {"kind", *extra, *(f.name for f in fields(types[kind]))}


FOREIGN = [(section, kind, key) for section, kinds in (
               ("elastic", ELASTIC_TYPES), ("kernel", KERNEL_TYPES))
           for kind in kinds
           for key in sorted(set().union(*(own_keys(section, other)
                                           for other in kinds))
                             - own_keys(section, kind))]


def set_in(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


class TestForeignKeys:
    """A typed section takes only its own kind's keys: a key of another
    kind exits 2 at that key, listing the kind's own keys, under validate
    and the run command alike."""

    @pytest.mark.parametrize("elastic, kernel", [
        *((kind, "maxwell") for kind in ELASTIC_SECTIONS),
        *(("linear", kind) for kind in KERNEL_SECTIONS)])
    def test_own_keys_run(self, tmp_path, elastic, kernel):
        cfg = write_cfg(tmp_path, yaml.safe_dump(relax_doc(elastic, kernel)))
        assert cli_main(["relax", "--config", str(cfg), "--out",
                         str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("section, kind, key", FOREIGN)
    @pytest.mark.parametrize("command", ["validate", "relax"])
    def test_key_of_another_kind(self, tmp_path, capsys, section, kind, key,
                                 command):
        doc = relax_doc(kind if section == "elastic" else "linear",
                        kind if section == "kernel" else "maxwell")
        doc["model"][section][key] = 1.0
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        out = tmp_path / "out.csv"
        assert cli_main(config_argv(command, cfg, out)) == 2
        # a bare Voigt element with a faulty kernel also misses its law
        assert capsys.readouterr().err.splitlines()[0] == (
            f"error: model.{section}.{key}: unknown key (allowed: "
            f"{sorted(own_keys(section, kind))})")
        assert not out.exists()

    @pytest.mark.parametrize("keys, value, error", [
        (["force"], {"kind": "constant", "values": [0.0, 0.0, 0.1],
                     "angular_frequency": 0.8},
         "network.force.angular_frequency: unknown key (allowed: "
         "['kind', 'values'])"),
        (["force", "values"], [0.0, 0.0, 0.1],
         "network.force.values: unknown key (allowed: "
         "['amplitudes', 'angular_frequency', 'kind'])"),
        (["kernels", 0, "rest_length"], 1.0,
         "network.kernels[0].rest_length: unknown key (allowed: "
         "['K', 'amplitudes', 'frequencies', 'i', 'j'])"),
        (["aero_kernels"], [{"i": 0, "j": 0, "K": 0.0, "amplitudes": [0.1],
                             "frequencies": [1.0], "kind": "prony"}],
         "network.aero_kernels[0].kind: unknown key (allowed: "
         "['K', 'amplitudes', 'frequencies', 'i', 'j'])"),
        (["springs"], [{"i": 0, "B": 1.0, "C": 1.0, "amplitudes": [0.5]}],
         "network.springs[0].amplitudes: unknown key (allowed: "
         "['B', 'C', 'i', 'j', 'kernel', 'rest_length'])"),
        (["springs"], [{"i": 0, "B": 1.0, "C": 1.0, "kernel": {
            "K": 1.0, "amplitudes": [0.5], "frequencies": [1.0], "i": 0}}],
         "network.springs[0].kernel.i: unknown key (allowed: "
         "['K', 'amplitudes', 'frequencies'])"),
    ], ids=["constant-force", "sinusoid-force", "kernel-entry",
            "aero-entry", "spring", "spring-kernel"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_network_key_of_another_kind(self, tmp_path, capsys, keys, value,
                                         error, command):
        doc = yaml.safe_load(CHAIN_CFG.read_text())
        set_in(doc["network"], keys, value)
        cfg = write_cfg(tmp_path, yaml.safe_dump(doc))
        out = tmp_path / "out.csv"
        assert cli_main(config_argv(command, cfg, out)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
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

    def test_key_of_another_kind_is_unknown(self, tmp_path, capsys):
        # a typo of hold_strain would run and write an all-zero stress
        cfg = write_cfg(tmp_path, RELAX_CFG.read_text().replace(
            "hold_strain:", "hold_stress:"))
        out = tmp_path / "relax.csv"
        assert cli_main(["relax", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: protocol.hold_stress: unknown key (allowed: ")
        assert not out.exists()

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

    def test_dense_damped_update_is_factored_once(self, tmp_path, capsys,
                                                  monkeypatch):
        # the config's pivot check and the run share one factorization
        import scipy.linalg
        calls = []

        def spy(*args, lapack=scipy.linalg.get_lapack_funcs):
            calls.append(args)
            return lapack(*args)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spy)
        config = write_cfg(tmp_path, TestNonFinite.CHAIN
                           + "  damping: [[0.1, 0.02], [0.02, 0.2]]\n")
        assert cli_main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / "sim.csv")]) == 0
        assert len(calls) == 1


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
        code = cli_main(config_argv(command, path, tmp_path / "sim.csv"))
        assert code == 2
        assert f"network: {matrix} must be finite, got {value[1:]}" in \
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
        assert cli_main(config_argv(command, path, out)) == 2
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

    COMPRESSED = "spring (0, 1) at t = 0: stretch must be > 0, got min -0.5"
    OVERFLOWING = ("spring (1, ground) at t = 0: exponent B*(lambda-1) = "
                   "800.0 overflows; offending stretch 3.0")

    @pytest.mark.parametrize("springs, q, message", [
        (f"{PAIR}, {STIFF}", "-1.5, 0.0", COMPRESSED),
        (f"{PAIR}, {STIFF}", "2.0, 2.0", OVERFLOWING),
        (f"{PAIR}, {STIFF}", "0.5, 2.0", COMPRESSED),
        (f"{STIFF}, {PAIR}", "0.5, 2.0", OVERFLOWING),
        ("{i: 1, B: 1.0, C: 2.0e+4}", "0.0, 700.0",
         "spring (1, ground) at t = 0: overflow encountered in scalar "
         "multiply"),
    ], ids=["compressed", "overflowing", "compressed-first",
            "overflowing-first", "force-overflows"])
    def test_spring_out_of_its_domain(self, tmp_path, capsys, springs, q,
                                      message):
        # the first faulty spring's own error, as one call per spring gives,
        # named by the spring's ends and the time of the step; at t = 0 the
        # config rejects it at the initial state, as the run would
        path = write_cfg(tmp_path, "network:\n  masses: [1.0, 1.0]\n"
                         "  stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
                         "  damping: [[0.1, 0.0], [0.0, 0.1]]\n"
                         f"  springs: [{springs}]\n  initial: {{q: [{q}]}}\n"
                         "  duration: 1.0\n  dt: 0.01\n")
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--config", str(path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: network.initial.q: {message}\n"
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


SWEEP_FAULT_TEXT = """
model:
  elastic: {kind: exponential, B: 10.0, C: 2.0}
  kernel: {kind: fung, c: 0.5, q1: 0.01, q2: 100.0, prony_terms: 16}
protocol:
  kind: cyclic
  mean: 0.25
  amplitude: 50.0
  angular_frequency: 1.0
  cycles: 5
  samples_per_cycle: 64
sweep: {start: 0.1, stop: 10.0, count: 9}
"""

# each line as a sweep of one run_cyclic per frequency printed it; the
# domain faults name the time index and t of the first frequency (0.1)
SWEEP_FAULTS = {
    "exponential-domain": (
        {"amplitude: 50.0": "amplitude: 5000.0"},
        "error: strain outside elastic domain at time index 17 "
        "(t = 16.689710972195776): exponent B*(lambda-1) = 731.0523396932098 "
        "overflows; offending stretch 74.10523396932098"),
    "fung-domain": (
        {"amplitude: 50.0": "amplitude: 5000.0",
         "{kind: exponential, B: 10.0, C: 2.0}":
             "{kind: fung, a1: 1.0, c: 1.0}"},
        "error: strain outside elastic domain at time index 2 "
        "(t = 1.9634954084936207): energy exponent Q = 2331.6149568864653 "
        "overflows"),
    "loop-of-one-strain": (
        {"amplitude: 50.0": "amplitude: 1.0e-300"},
        "error: loading and unloading branches need >= 2 samples"),
    "stress-overflow": (
        {"C: 2.0": "C: 1.0e+307"}, "error: overflow encountered in multiply"),
    "strain-overflow": (
        {"mean: 0.25": "mean: 1.0e+308",
         "amplitude: 50.0": "amplitude: 1.0e+308"},
        "error: overflow encountered in add"),
}


class TestSweepFaults:
    """A sweep that fails prints the line and exit code that one run_cyclic
    per frequency, in order, gave: the first failing frequency's."""

    @pytest.mark.parametrize("fault", list(SWEEP_FAULTS))
    def test_error_line(self, tmp_path, capsys, fault):
        edits, line = SWEEP_FAULTS[fault]
        text = SWEEP_FAULT_TEXT
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        out = tmp_path / "h.csv"
        assert cli_main(["sweep", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_unfaulted_base_runs(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert cli_main(["sweep", "--config",
                         str(write_cfg(tmp_path, SWEEP_FAULT_TEXT)),
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 10


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
        # sampled by protocol.samples_per_cycle and cycles, they take neither
        cfg = write_cfg(tmp_path, KELVIN_CYCLIC_TEXT)
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]
                        + flags) == 2
        assert "error: unrecognized arguments: " + " ".join(flags) in \
            capsys.readouterr().err
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
        assert f"samples_per_cycle must be >= 2, got {nps}" in \
            capsys.readouterr().err

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
        assert capsys.readouterr().err == \
            "error: kernels.eta: required key missing\n"

    def test_parameter_of_another_kind_is_an_unknown_key(self, capsys):
        # as a key of another kind in a config's model.kernel is
        assert cli_main(["kernels", "--kind", "maxwell", "--mu", "1",
                         "--eta", "1", "--c", "5", "--tau-eps", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: kernels.tau_eps: unknown key (allowed: ['eta', 'mu'])\n"
            "error: kernels.c: unknown key (allowed: ['eta', 'mu'])\n")

    @pytest.mark.parametrize("value", ["1,x", "", "1,,2"])
    def test_list_flag_that_is_no_float_list(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["kernels", "--kind", "prony",
                                        "--amplitudes", value])
        assert exc.value.code == 2
        assert "--amplitudes: invalid float list value" in \
            capsys.readouterr().err

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
        assert capsys.readouterr().err == f"error: kernels: {error}\n"

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
# each kind with every kind's flags, its own and foreign ones, and the grid's
KERNEL_CASES = [(kind, name) for kind in KERNEL_FLAGS for name in (
    *dict.fromkeys(n for flags in KERNEL_FLAGS.values() for n in flags),
    "duration", "dt")]
FLAG_VALUES = ["-1", "0", "1e300", "-1e300", "1e-300", str(2**63), "x", "",
               "nan", "inf", "2,1", "1,x"]
# finite --dt/--duration values: zero, negative, tiny, moderate and huge
GRID_VALUES = [0.0, -0.0, -1.0, -1e300, -sys.float_info.max, 5e-324, 1e-300,
               1e-10, 0.5, 2.0, 1e300, sys.float_info.max]
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


TEXT_ENTRY = ("error: network.stiffness: entry [0][0] must be a number, got "
              "'1e5' (YAML reads an exponent with no dot or no sign as text; "
              "write 1.0e+5)")
NOT_FINITE = "error: network: stiffness must be finite, got "
UNSTABLE = ("error: network.dt: dt = 0.01 violates the explicit stability "
            "bound 2/omega_max = 0.00241")
# one stiffness entry of the chain config in an odd YAML 1.1 form: the
# (exit code, error line prefix) of validate and of simulate
ODD_STIFFNESS = {
    "1e5": ((2, TEXT_ENTRY), (2, TEXT_ENTRY)),            # text
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
        assert "Traceback" not in err, err
        return code

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
            self.check(config_argv(run, cfg, tmp_path / "out.csv"), capsys,
                       alarm)

    @pytest.mark.parametrize("value", list(ODD_STIFFNESS))
    def test_odd_stiffness_entry(self, tmp_path, capsys, alarm, value):
        cfg = write_cfg(tmp_path, CHAIN_CFG.read_text().replace(
            "- [ 2.0, -1.0,  0.0]", f"- [ {value}, -1.0,  0.0]"))
        for command, (code, error) in zip(["validate", "simulate"],
                                          ODD_STIFFNESS[value]):
            with alarm(20):
                assert cli_main(config_argv(command, cfg,
                                            tmp_path / "out.csv")) == code
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
            assert cli_main(config_argv(command, cfg,
                                        tmp_path / "out.csv")) == 2
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
    @example(flag=("maxwell", "tau-eps"), value="1")
    def test_kernels_flag(self, capsys, alarm, flag, value):
        kind, name = flag
        flags = {**KERNEL_FLAGS[kind], "duration": "10", "dt": "0.01",
                 name: value}
        code = self.check(["kernels", "--kind", kind,
                           *(f"--{key}={v}" for key, v in flags.items())],
                          capsys, alarm)
        if name not in ("duration", "dt"):
            assert code == 2 or name in KERNEL_FLAGS[kind]
            return
        try:    # a grid flag exits 2 exactly when grid_steps rejects it
            grid_steps(float(flags["duration"]), float(flags["dt"]))
        except (ValueError, DomainError):   # not a float, or not a grid
            assert code == 2
        else:
            assert code == 0


    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["creep", "simulate"]),
           flags=st.dictionaries(st.sampled_from(["dt", "duration"]),
                                 st.sampled_from(GRID_VALUES), min_size=1))
    @example(command="simulate", flags={"dt": 5e-324, "duration": 5e-324})
    @example(command="creep", flags={"dt": 1e300, "duration": 1e300})
    def test_grid_flags(self, tmp_path, capsys, alarm, command, flags):
        cfg = CHAIN_CFG if command == "simulate" else \
            write_cfg(tmp_path, CREEP_TEXT)
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        code = self.check([command, "--config", str(cfg), "--out", str(out),
                           *(f"--{key}={value!r}"
                             for key, value in flags.items())], capsys, alarm)
        assert code == 0 or not out.exists()


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
        # reported at its key, where every other bad value is
        key = flag[2:]
        assert err == (f"error: protocol.{key}: must be finite, got {value}\n"
                       if command == "creep" else
                       f"error: kernels.duration: {key} must be finite, "
                       f"got {value}\n")
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
