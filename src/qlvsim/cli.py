"""Command line: each command returns its output (a series, a ``(names,
columns)`` table or text) and its stderr lines; one writer sends the output
to ``--out``, else ``output.path``, else stdout, and the lines follow.
A run's ``--dt``/``--duration`` set its config's ``protocol`` (or, for
simulate, ``network``) keys before validation, which checks them there;
``kernels`` reads them as keys of a ``kernels`` section, as its other flags.
Exit codes: 0 success, 2 validation/usage errors, 1 runtime or numerical
errors, a float overflow or invalid operation among them."""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from dataclasses import fields

import numpy as np

from . import protocols
from .config import RunConfig, _Validator, load_config
from .errors import ConfigError, DomainError, QlvError
from .kernels import KERNEL_TYPES, reduced_relaxation, time_grid
from .network import SystemState, simulate
from .protocols import (Series, check_fit_terms, fit_exponential_law,
                        fit_relaxation_spectrum, frequency_sweep)
from .seriesio import (read_series, serialize_series, write_series,
                       write_table)

# protocol command -> kind.  The runner, protocols.run_<kind>, is looked up
# when the command runs, so a wrapper set on the module later is called.
_PROTOCOLS = {"tensile": "tensile", "creep": "creep", "relax": "relaxation",
              "cyclic": "cyclic"}
# command -> the config section its --dt and --duration set
_GRID_SECTION = {"tensile": "protocol", "creep": "protocol",
                 "relax": "protocol", "simulate": "network"}
_METRICS = ("youngs_modulus", "yield_stress", "uts", "fracture_energy",
            "relaxation_asymptote", "hysteresis_H")


def _floats(text: str) -> list:
    """argparse type of a kernel's list flag: comma-separated floats."""
    return [float(x) for x in text.split(",")]


_floats.__name__ = "float list"
# each kernel kind's parameters, and whether one takes a list
_KERNEL_FLAGS = {f.name: f.type.startswith("tuple")
                 for cls in KERNEL_TYPES.values() for f in fields(cls)}


@functools.cache    # built once per process: nothing it reads changes
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlvsim",
        description="Quasi-linear viscoelastic virtual tests and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("tensile", "constant-rate stretch test"),
                      ("creep", "constant-load creep test"),
                      ("relax", "step-strain relaxation test"),
                      ("cyclic", "sinusoidal cycling with hysteresis"),
                      ("sweep", "hysteresis vs frequency sweep"),
                      ("simulate", "spring-mass network simulation"),
                      ("validate", "check a config and print it")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True,
                       help="path to the YAML run configuration")
        if name != "validate":      # which always prints
            p.add_argument("--out", help="output CSV path "
                           "(overrides output.path from the config)")
        for key in ("dt", "duration") if name in _GRID_SECTION else ():
            p.add_argument(f"--{key}", type=float, help=f"set "
                           f"{_GRID_SECTION[name]}.{key} in the config")

    fit = sub.add_parser("fit", help="fit model parameters to a CSV series")
    fit.add_argument("kind", choices=["exponential", "spectrum"],
                     help="exponential tensile law or relaxation spectrum")
    fit.add_argument("series", help="input CSV: time plus stretch,stress "
                     "(exponential) or normalized_stress (spectrum)")
    fit.add_argument("--terms", type=int,
                     help="Prony term count of a spectrum fit (default 8)")
    fit.add_argument("--out", help="write the fit summary here instead of "
                     "stdout")

    kern = sub.add_parser("kernels",
                          help="tabulate a reduced relaxation function")
    kern.add_argument("--kind", required=True, choices=KERNEL_TYPES)
    for name, listed in _KERNEL_FLAGS.items():
        kern.add_argument("--" + name.replace("_", "-"), dest=name,
                          type=_floats if listed else float,
                          help="comma-separated list" if listed else None)
    kern.add_argument("--duration", type=float, default=10.0)
    kern.add_argument("--dt", type=float, default=0.01)
    kern.add_argument("--out", help="output CSV path")

    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: no command is randomized")
    return parser


def _relaxation_from_args(args):
    """The --kind kernel's reduced relaxation and its time grid.  Its flags
    are read as the keys of a config section ``kernels``, so a bad, missing
    or foreign parameter exits 2 with the message the same key in a config
    gives; --duration and --dt are its grid keys, checked at
    ``kernels.duration`` as a network's are at ``network.duration``."""
    v = _Validator()
    kernel = v.build({name: getattr(args, name) for name in _KERNEL_FLAGS
                      if getattr(args, name) is not None}, "kernels",
                     KERNEL_TYPES[args.kind], require_all=True)
    relax = kernel and v.construct("kernels", reduced_relaxation, kernel)
    t = v.construct("kernels.duration", time_grid, args.duration, args.dt)
    if v.errors:
        raise ConfigError(v.errors)
    return relax, t


def _protocol_and_specimen(cfg: RunConfig, expected_kind: str,
                           command: str):
    """The protocol spec and the model (or bare element) specimen."""
    if cfg.network is not None:
        raise ConfigError([f"network: the {command} command needs a model "
                           "specimen, not a network"])
    if command == "tensile" and cfg.model is None:
        raise ConfigError(["model.elastic: the tensile command needs a "
                           "model with an elastic law"])
    if cfg.protocol is None:
        raise ConfigError([f"protocol: section required for the "
                           f"{expected_kind} command"])
    if cfg.protocol.kind != expected_kind:
        raise ConfigError([f"protocol.kind: expected {expected_kind!r}, "
                           f"got {cfg.protocol.kind!r}"])
    if expected_kind == "cyclic" and \
            {"max_cycles", "settle_time"} & set(cfg.raw["protocol"]):
        print("warning: protocol.max_cycles/settle_time are ignored; "
              "cyclic runs use the exact periodic steady state",
              file=sys.stderr)
    return cfg.protocol, cfg.model if cfg.model is not None else cfg.element


def _strided(series: Series, stride: int) -> Series:
    """Rows 0, stride, 2*stride, ... and the last row, chosen by slicing;
    the series itself at stride 1."""
    if stride == 1:
        return series
    n = series.times.size
    # a[tail:] is the last row, or nothing when a[::stride] ends on it
    tail = n - 1 if (n - 1) % stride else n
    times, *cols = (np.concatenate([a[::stride], a[tail:]])
                    for a in (series.times, *series.columns.values()))
    return Series(times=times, columns=dict(zip(series.columns, cols)))


def _cmd_protocol(args, cfg: RunConfig):
    kind = _PROTOCOLS[args.command]
    spec, specimen = _protocol_and_specimen(cfg, kind, kind)
    series, report = getattr(protocols, f"run_{kind}")(spec, specimen)
    lines = [f"{name} = {getattr(report, name)}" for name in _METRICS
             if getattr(report, name) is not None]
    return _strided(series, cfg.output_stride), lines


def _cmd_sweep(args, cfg: RunConfig):
    if cfg.sweep_frequencies is None:
        raise ConfigError(["sweep: section required for the sweep command"])
    spec, specimen = _protocol_and_specimen(cfg, "cyclic", "sweep")
    freqs, hs = frequency_sweep(spec, specimen, cfg.sweep_frequencies)
    return (["frequency", "H"], [freqs, hs]), []


def _cmd_simulate(args, cfg: RunConfig):
    if cfg.network is None:
        raise ConfigError(["network: section required for the simulate "
                           "command"])
    if None in (cfg.sim_duration, cfg.sim_dt):  # given ones were checked
        raise ConfigError(["network.duration: simulate needs positive "
                           "duration and dt (network.duration/network.dt "
                           "or --duration/--dt)"])
    state = SystemState.initial(cfg.network, q=cfg.initial_q, v=cfg.initial_v)
    result = simulate(cfg.network, state, duration=cfg.sim_duration,
                      dt=cfg.sim_dt, record_stride=cfg.output_stride)
    columns = {**{f"q{i}": q for i, q in enumerate(result.q.T)},
               **{f"v{i}": v for i, v in enumerate(result.v.T)},
               "kinetic": result.kinetic, "elastic": result.elastic,
               "external_work": result.external_work,
               "dissipation": result.dissipation}
    return Series(times=result.times, columns=columns), []


def _cmd_fit(args, cfg):
    if args.kind == "exponential" and args.terms is not None:
        raise ConfigError(["--terms: only fit spectrum takes --terms"])
    series = read_series(args.series)
    cols = series.columns
    if args.kind == "exponential":
        for col in ("stretch", "stress"):
            if col not in cols:
                raise ConfigError([f"{args.series}: missing column {col!r}"])
        law, diag = fit_exponential_law(cols["stretch"], cols["stress"])
        lines = [f"B = {law.B!r}", f"C = {law.C!r}"]
    else:
        g = cols.get("normalized_stress", cols.get("G"))
        if g is None:
            raise ConfigError([f"{args.series}: missing column "
                               "'normalized_stress' (or 'G')"])
        terms = 8 if args.terms is None else args.terms
        try:
            check_fit_terms(g.size, terms)
        except DomainError as exc:
            raise ConfigError([f"--terms: {exc}"]) from exc
        spectrum, diag = fit_relaxation_spectrum(series.times, g,
                                                 n_terms=terms)
        lines = [f"K = {spectrum.K!r}"] + [
            f"term frequency={f!r} amplitude={a!r}"
            for a, f in zip(spectrum.amplitudes, spectrum.frequencies)]
    lines += [f"iterations = {diag.get('iterations', 0)}",
              f"residual = {diag.get('residual_norm', diag.get('max_error'))!r}"]
    return "\n".join(lines) + "\n", []


def _cmd_kernels(args, cfg):
    relax, t = _relaxation_from_args(args)
    return Series(times=t, columns={"G": relax.value(t)}), []


_COMMANDS = {**dict.fromkeys(_PROTOCOLS, _cmd_protocol), "fit": _cmd_fit,
             "sweep": _cmd_sweep, "simulate": _cmd_simulate,
             "kernels": _cmd_kernels,
             "validate": lambda args, cfg: (cfg.effective_text(), [])}


def _write(output, args, cfg: RunConfig | None) -> None:
    """Deliver a command's output to --out, else output.path, else stdout;
    validate always prints, and the other config commands need a file."""
    path = getattr(args, "out", None) or (cfg.output_path if cfg else None)
    if args.command == "validate" or not (path or cfg):
        sys.stdout.write(output if isinstance(output, str)
                         else serialize_series(output))
        return
    if not path:
        raise ConfigError(["output.path: no output path given "
                           "(set output.path or pass --out)"])
    precision = cfg.output_precision if cfg else 17
    if isinstance(output, str):
        with open(path, "w", newline="") as fh:
            fh.write(output)
    elif isinstance(output, Series):
        write_series(path, output, precision=precision)
    else:
        write_table(path, *output, precision=precision)
    print(f"wrote {path}", file=sys.stderr)


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise"):
            section = _GRID_SECTION.get(args.command)
            grid = {key: getattr(args, key) for key in ("dt", "duration")
                    if section and getattr(args, key) is not None}
            # no flag, no second argument: bench/run.py wraps load_config(path)
            sets = [{section: grid}] if grid else []
            cfg = load_config(args.config, *sets) if "config" in args else None
            output, lines = _COMMANDS[args.command](args, cfg)
        _write(output, args, cfg)
        sys.stderr.writelines(f"{line}\n" for line in lines)
        return 0
    except ConfigError as exc:
        sys.stderr.writelines(f"error: {message}\n" for message in exc.errors)
        return 2
    except (QlvError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = cli_main()
    gc.freeze()     # the process ends here: exit without collecting its heap
    sys.exit(code)


if __name__ == "__main__":
    main()
