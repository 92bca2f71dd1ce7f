"""Command-line interface.

Subcommands: tensile, creep, relax, cyclic, sweep, simulate, fit, kernels,
validate.  Data goes to files (or stdout for validate/fit summaries);
diagnostics go to stderr.  Exit codes: 0 success, 2 validation/usage
errors, 1 runtime or numerical errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, QlvError
from .kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                      PronySpectrum, VoigtParams, reduced_relaxation)
from .network import SystemState, simulate
from .protocols import (ProtocolSpec, Series, fit_exponential_law,
                        fit_relaxation_spectrum, frequency_sweep, run_creep,
                        run_cyclic, run_relaxation, run_tensile)
from .seriesio import (read_series, serialize_series, write_series,
                       write_table)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlvsim",
        description="Quasi-linear viscoelastic virtual tests and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the YAML run configuration")
        p.add_argument("--out", help="output CSV path "
                       "(overrides output.path from the config)")
        p.add_argument("--dt", type=float, help="override protocol dt")
        p.add_argument("--duration", type=float,
                       help="override protocol duration")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized harnesses")

    for name, doc in (("tensile", "constant-rate stretch test"),
                      ("creep", "constant-load creep test"),
                      ("relax", "step-strain relaxation test"),
                      ("cyclic", "sinusoidal cycling with hysteresis"),
                      ("sweep", "hysteresis vs frequency sweep"),
                      ("simulate", "spring-mass network simulation"),
                      ("validate", "check a config and print it")):
        common(sub.add_parser(name, help=doc))

    fit = sub.add_parser("fit", help="fit model parameters to a CSV series")
    fit.add_argument("kind", choices=["exponential", "spectrum"],
                     help="exponential tensile law or relaxation spectrum")
    fit.add_argument("series", help="input CSV: time plus stretch,stress "
                     "(exponential) or normalized_stress (spectrum)")
    fit.add_argument("--terms", type=int, default=8,
                     help="Prony term count for spectrum fits")
    fit.add_argument("--out", help="write the fit summary here instead of "
                     "stdout")
    fit.add_argument("--seed", type=int, default=0)

    kern = sub.add_parser("kernels",
                          help="tabulate a reduced relaxation function")
    kern.add_argument("--kind", required=True,
                      choices=["maxwell", "voigt", "kelvin", "prony", "fung"])
    kern.add_argument("--mu", type=float)
    kern.add_argument("--eta", type=float)
    kern.add_argument("--E-R", dest="E_R", type=float)
    kern.add_argument("--tau-eps", dest="tau_eps", type=float)
    kern.add_argument("--tau-sigma", dest="tau_sigma", type=float)
    kern.add_argument("--K", type=float)
    kern.add_argument("--amplitudes", help="comma-separated list")
    kern.add_argument("--frequencies", help="comma-separated list")
    kern.add_argument("--c", type=float)
    kern.add_argument("--q1", type=float)
    kern.add_argument("--q2", type=float)
    kern.add_argument("--duration", type=float, default=10.0)
    kern.add_argument("--dt", type=float, default=0.01)
    kern.add_argument("--out", help="output CSV path")
    kern.add_argument("--seed", type=int, default=0)
    return parser


def _require(args, names):
    missing = [f"--{n.replace('_', '-')}" for n in names
               if getattr(args, n) is None]
    if missing:
        raise ConfigError([f"kernel kind {args.kind!r} requires "
                           f"{', '.join(missing)}"])


def _parse_list(text: str, flag: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError([f"{flag}: {exc}"]) from exc


def _kernel_from_args(args):
    if args.kind == "maxwell":
        _require(args, ("mu", "eta"))
        return MaxwellParams(mu=args.mu, eta=args.eta)
    if args.kind == "voigt":
        _require(args, ("mu", "eta"))
        return VoigtParams(mu=args.mu, eta=args.eta)
    if args.kind == "kelvin":
        _require(args, ("E_R", "tau_eps", "tau_sigma"))
        return KelvinParams(E_R=args.E_R, tau_eps=args.tau_eps,
                            tau_sigma=args.tau_sigma)
    if args.kind == "prony":
        _require(args, ("K", "amplitudes", "frequencies"))
        return PronySpectrum(K=args.K,
                             amplitudes=_parse_list(args.amplitudes,
                                                    "--amplitudes"),
                             frequencies=_parse_list(args.frequencies,
                                                     "--frequencies"))
    _require(args, ("c", "q1", "q2"))
    return FungSpectrum(c=args.c, q1=args.q1, q2=args.q2)


def _protocol_with_overrides(cfg: RunConfig, args,
                             expected_kind: str) -> ProtocolSpec:
    spec = cfg.protocol
    if spec is None:
        raise ConfigError([f"protocol: section required for the "
                           f"{expected_kind} command"])
    if spec.kind != expected_kind:
        raise ConfigError([f"protocol.kind: expected {expected_kind!r}, "
                           f"got {spec.kind!r}"])
    overrides = {name: getattr(args, name) for name in ("dt", "duration")
                 if getattr(args, name) is not None}
    if expected_kind == "cyclic":
        if overrides:
            raise ConfigError(["--dt/--duration: cyclic runs are sampled by "
                               "protocol.samples_per_cycle and "
                               "protocol.cycles"])
        if {"max_cycles", "settle_time"} & set(cfg.raw["protocol"]):
            print("warning: protocol.max_cycles/settle_time are ignored; "
                  "cyclic runs use the exact periodic steady state",
                  file=sys.stderr)
    return replace(spec, **overrides)


def _specimen(cfg: RunConfig, command: str):
    if cfg.network is not None:
        raise ConfigError([f"network: the {command} command needs a model "
                           "specimen, not a network"])
    if cfg.model is not None:
        return cfg.model
    return cfg.element


def _out_path(cfg_or_none, args):
    if args.out:
        return args.out
    if cfg_or_none is not None and cfg_or_none.output_path:
        return cfg_or_none.output_path
    raise ConfigError(["output.path: no output path given "
                       "(set output.path or pass --out)"])


def _emit(series: Series, cfg: RunConfig, args) -> None:
    path = _out_path(cfg, args)
    stride = cfg.output_stride
    if stride > 1:
        idx = np.arange(0, series.times.size, stride)
        if idx[-1] != series.times.size - 1:
            idx = np.append(idx, series.times.size - 1)
        series = Series(times=series.times[idx],
                        columns={k: v[idx] for k, v in series.columns.items()})
    write_series(path, series, precision=cfg.output_precision)
    print(f"wrote {path}", file=sys.stderr)


def _report_metrics(report, stream) -> None:
    for name in ("youngs_modulus", "yield_stress", "uts", "fracture_energy",
                 "relaxation_asymptote", "hysteresis_H"):
        value = getattr(report, name)
        if value is not None:
            print(f"{name} = {value}", file=stream)


def _cmd_protocol(args, kind: str) -> int:
    cfg = load_config(args.config)
    specimen = _specimen(cfg, kind)
    runner = {"tensile": run_tensile, "creep": run_creep,
              "relaxation": run_relaxation, "cyclic": run_cyclic}[kind]
    if kind == "tensile" and cfg.model is None:
        raise ConfigError(["model.elastic: the tensile command needs a "
                           "model with an elastic law"])
    spec = _protocol_with_overrides(cfg, args, kind)
    series, report = runner(spec, specimen)
    _emit(series, cfg, args)
    _report_metrics(report, sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep_frequencies is None:
        raise ConfigError(["sweep: section required for the sweep command"])
    specimen = _specimen(cfg, "sweep")
    spec = _protocol_with_overrides(cfg, args, "cyclic")
    freqs, hs = frequency_sweep(spec, specimen, cfg.sweep_frequencies)
    path = _out_path(cfg, args)
    write_table(path, ["frequency", "H"], [freqs, hs],
                precision=cfg.output_precision)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if cfg.network is None:
        raise ConfigError(["network: section required for the simulate "
                           "command"])
    duration = args.duration if args.duration is not None else cfg.sim_duration
    dt = args.dt if args.dt is not None else cfg.sim_dt
    if not duration or not dt or duration <= 0 or dt <= 0:
        raise ConfigError(["network.duration: simulate needs positive "
                           "duration and dt (network.duration/network.dt "
                           "or --duration/--dt)"])
    state = SystemState.initial(cfg.network, q=cfg.initial_q,
                                v=cfg.initial_v)
    result = simulate(cfg.network, state, duration=duration, dt=dt,
                      record_stride=cfg.output_stride)
    columns = {}
    for i in range(cfg.network.n):
        columns[f"q{i}"] = result.q[:, i]
    for i in range(cfg.network.n):
        columns[f"v{i}"] = result.v[:, i]
    columns["kinetic"] = result.kinetic
    columns["elastic"] = result.elastic
    columns["external_work"] = result.external_work
    columns["dissipation"] = result.dissipation
    series = Series(times=result.times, columns=columns)
    path = _out_path(cfg, args)
    write_series(path, series, precision=cfg.output_precision)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(cfg.effective_text())
    return 0


def _cmd_fit(args) -> int:
    series = read_series(args.series)
    lines = []
    if args.kind == "exponential":
        for col in ("stretch", "stress"):
            if col not in series.columns:
                raise ConfigError([f"{args.series}: missing column {col!r}"])
        law, diag = fit_exponential_law(series.columns["stretch"],
                                        series.columns["stress"])
        lines.append(f"B = {law.B!r}")
        lines.append(f"C = {law.C!r}")
    else:
        col = "normalized_stress" if "normalized_stress" in series.columns \
            else "G"
        if col not in series.columns:
            raise ConfigError([f"{args.series}: missing column "
                               "'normalized_stress' (or 'G')"])
        spectrum, diag = fit_relaxation_spectrum(series.times,
                                                 series.columns[col],
                                                 n_terms=args.terms)
        lines.append(f"K = {spectrum.K!r}")
        for a, f in zip(spectrum.amplitudes, spectrum.frequencies):
            lines.append(f"term frequency={f!r} amplitude={a!r}")
    lines.append(f"iterations = {diag.get('iterations', 0)}")
    lines.append(f"residual = {diag.get('residual_norm', diag.get('max_error'))!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_kernels(args) -> int:
    kernel = _kernel_from_args(args)
    relax = reduced_relaxation(kernel)
    if args.dt <= 0 or args.duration <= 0:
        raise ConfigError(["--dt/--duration must be > 0"])
    n = max(1, int(round(args.duration / args.dt)))
    t = np.linspace(0.0, n * args.dt, n + 1)
    g = relax.value(t)
    series = Series(times=t, columns={"G": np.asarray(g, dtype=float)})
    if args.out:
        write_series(args.out, series)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(serialize_series(series))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command in ("tensile", "creep", "cyclic"):
            kind = args.command
            return _cmd_protocol(args, kind)
        if args.command == "relax":
            return _cmd_protocol(args, "relaxation")
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "kernels":
            return _cmd_kernels(args)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except ConfigError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except QlvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
