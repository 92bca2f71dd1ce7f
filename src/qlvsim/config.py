"""Run configuration: YAML schema, validation, and construction.

A run config is a YAML document with exactly one specimen section
(``model`` or ``network``), an optional ``protocol`` section, an optional
``sweep`` section for frequency sweeps, and an optional ``output`` section.
Validation collects *all* errors (with dotted key paths) instead of
stopping at the first; unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .constitutive import (ExponentialTensileLaw, FungBiaxialParams,
                           FungUniaxialLaw, LinearElasticLaw)
from .errors import ConfigError, DomainError, StabilityError
from .kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                      PronySpectrum, VoigtParams)
from .network import KernelEntry, NonlinearSpring, SpringMassSystem
from .protocols import ProtocolSpec
from .qlv import QlvModel


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus the constructed objects it describes."""

    raw: dict
    model: QlvModel | None = None
    element: object = None          # classical element specimen, if any
    network: SpringMassSystem | None = None
    initial_q: np.ndarray | None = None
    initial_v: np.ndarray | None = None
    protocol: ProtocolSpec | None = None
    sim_duration: float | None = None
    sim_dt: float | None = None
    sweep_frequencies: np.ndarray | None = None
    output_path: str | None = None
    output_stride: int = 1
    output_precision: int = 17

    def effective_text(self) -> str:
        """Canonical YAML rendering of the effective (defaults-filled)
        configuration; re-parsing it reproduces the same effective text."""
        return yaml.safe_dump(self.raw, sort_keys=True,
                              default_flow_style=False)


class _Validator:
    """Collects dotted-key-path error messages across the whole document."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def section(self, data, path: str, allowed: set[str]) -> dict:
        if data is None:
            return {}
        if not isinstance(data, dict):
            self.fail(path, f"must be a mapping, got {type(data).__name__}")
            return {}
        for key in data:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key),
                          f"unknown key (allowed: {sorted(allowed)})")
        return data

    def number(self, section: dict, path: str, key: str, default=None,
               required: bool = False):
        if key not in section or section[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return default
        v = section[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}.{key}", f"must be a number, got {v!r}")
            return default
        return float(v)

    def integer(self, section: dict, path: str, key: str, default=None,
                required: bool = False):
        if key not in section or section[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return default
        v = section[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}.{key}", f"must be an integer, got {v!r}")
            return default
        return v

    def string(self, section: dict, path: str, key: str, default=None,
               required: bool = False, choices=None):
        if key not in section or section[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return default
        v = section[key]
        if not isinstance(v, str):
            self.fail(f"{path}.{key}", f"must be a string, got {v!r}")
            return default
        if choices is not None and v not in choices:
            self.fail(f"{path}.{key}",
                      f"must be one of {sorted(choices)}, got {v!r}")
            return default
        return v

    def boolean(self, section: dict, path: str, key: str, default=None):
        if key not in section or section[key] is None:
            return default
        v = section[key]
        if not isinstance(v, bool):
            self.fail(f"{path}.{key}", f"must be true or false, got {v!r}")
            return default
        return v

    def vector(self, section: dict, path: str, key: str, required=False):
        if key not in section or section[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return None
        v = section[key]
        if (not isinstance(v, list) or not v
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in v)):
            self.fail(f"{path}.{key}", "must be a non-empty list of numbers")
            return None
        return np.asarray(v, dtype=float)

    def matrix(self, section: dict, path: str, key: str, required=False):
        if key not in section or section[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return None
        v = section[key]
        ok = isinstance(v, list) and v and all(
            isinstance(row, list) and row and all(
                not isinstance(x, bool) and isinstance(x, (int, float))
                for x in row) for row in v)
        if ok and len({len(row) for row in v}) != 1:
            ok = False
        if not ok:
            self.fail(f"{path}.{key}",
                      "must be a non-empty rectangular list of number lists")
            return None
        return np.asarray(v, dtype=float)

    def construct(self, path: str, factory, *args, **kwargs):
        """Run a module constructor, converting domain errors to config
        errors at the given key path."""
        try:
            return factory(*args, **kwargs)
        except (DomainError, StabilityError) as exc:
            self.fail(path, str(exc))
            return None


_ELASTIC_KEYS = {"kind", "B", "C", "k", "c", "a1", "a2", "a3", "a4",
                 "alpha1", "alpha2", "alpha3", "alpha4",
                 "gamma1", "gamma2", "gamma3", "gamma4", "gamma5",
                 "include_quadratic_group", "include_third_order"}
_KERNEL_KEYS = {"kind", "mu", "eta", "E_R", "tau_eps", "tau_sigma",
                "K", "amplitudes", "frequencies", "c", "q1", "q2",
                "prony_terms"}


def _build_elastic(v: _Validator, section: dict, path: str):
    sec = v.section(section, path, _ELASTIC_KEYS)
    kind = v.string(sec, path, "kind", required=True,
                    choices={"exponential", "linear", "fung"})
    if kind == "exponential":
        B = v.number(sec, path, "B", required=True)
        C = v.number(sec, path, "C", required=True)
        if B is None or C is None:
            return None
        return v.construct(path, ExponentialTensileLaw, B=B, C=C)
    if kind == "linear":
        k = v.number(sec, path, "k", required=True)
        if k is None:
            return None
        return v.construct(path, LinearElasticLaw, k=k)
    if kind == "fung":
        kwargs = {}
        for name in ("c", "a1", "a2", "a3", "a4",
                     "alpha1", "alpha2", "alpha3", "alpha4",
                     "gamma1", "gamma2", "gamma3", "gamma4", "gamma5"):
            kwargs[name] = v.number(sec, path, name, default=0.0)
        kwargs["include_quadratic_group"] = v.boolean(
            sec, path, "include_quadratic_group", default=True)
        kwargs["include_third_order"] = v.boolean(
            sec, path, "include_third_order", default=False)
        params = v.construct(path, FungBiaxialParams, **kwargs)
        return None if params is None else FungUniaxialLaw(params)
    return None


def _build_kernel(v: _Validator, section: dict, path: str):
    """Returns (kernel object, prony_terms) or (None, n)."""
    sec = v.section(section, path, _KERNEL_KEYS)
    kind = v.string(sec, path, "kind", required=True,
                    choices={"maxwell", "voigt", "kelvin", "prony", "fung"})
    n_terms = v.integer(sec, path, "prony_terms", default=64)
    if n_terms is not None and n_terms < 1:
        v.fail(f"{path}.prony_terms", f"must be >= 1, got {n_terms}")
        n_terms = 64
    if kind in ("maxwell", "voigt"):
        mu = v.number(sec, path, "mu", required=True)
        eta = v.number(sec, path, "eta", required=True)
        if mu is None or eta is None:
            return None, n_terms
        cls = MaxwellParams if kind == "maxwell" else VoigtParams
        return v.construct(path, cls, mu=mu, eta=eta), n_terms
    if kind == "kelvin":
        er = v.number(sec, path, "E_R", required=True)
        te = v.number(sec, path, "tau_eps", required=True)
        ts = v.number(sec, path, "tau_sigma", required=True)
        if None in (er, te, ts):
            return None, n_terms
        return v.construct(path, KelvinParams, E_R=er, tau_eps=te,
                           tau_sigma=ts), n_terms
    if kind == "prony":
        K = v.number(sec, path, "K", required=True)
        amps = v.vector(sec, path, "amplitudes", required=True)
        freqs = v.vector(sec, path, "frequencies", required=True)
        if K is None or amps is None or freqs is None:
            return None, n_terms
        return v.construct(path, PronySpectrum, K=K,
                           amplitudes=tuple(amps),
                           frequencies=tuple(freqs)), n_terms
    if kind == "fung":
        c = v.number(sec, path, "c", required=True)
        q1 = v.number(sec, path, "q1", required=True)
        q2 = v.number(sec, path, "q2", required=True)
        if None in (c, q1, q2):
            return None, n_terms
        return v.construct(path, FungSpectrum, c=c, q1=q1, q2=q2), n_terms
    return None, n_terms


def _build_model(v: _Validator, section: dict):
    sec = v.section(section, "model", {"elastic", "kernel"})
    if "kernel" not in sec:
        v.fail("model.kernel", "required key missing")
        return None, None
    kernel, n_terms = _build_kernel(v, sec.get("kernel"), "model.kernel")
    # a classical element with no elastic law is a specimen by itself
    if "elastic" not in sec:
        if isinstance(kernel, (MaxwellParams, VoigtParams, KelvinParams)):
            return None, kernel
        v.fail("model.elastic", "required key missing (only classical "
               "elements may be used without an elastic law)")
        return None, None
    elastic = _build_elastic(v, sec.get("elastic"), "model.elastic")
    if elastic is None or kernel is None:
        return None, None
    if isinstance(kernel, VoigtParams):
        v.fail("model.kernel.kind", "the Voigt element has an impulsive "
               "relaxation and cannot drive the hereditary integral; use it "
               "as a bare element without model.elastic")
        return None, None
    model = v.construct("model", QlvModel.from_kernel, elastic, kernel,
                        n_prony=n_terms)
    return model, None


_KERNEL_ENTRY_KEYS = {"i", "j", "K", "amplitudes", "frequencies"}
_SPRING_KEYS = {"i", "j", "B", "C", "rest_length", "kernel"}
_NETWORK_KEYS = {"masses", "stiffness", "damping", "kernels", "aero_kernels",
                 "springs", "kernels_replace_damping", "initial", "force",
                 "duration", "dt"}


def _build_kernel_entry(v: _Validator, item, path: str, n: int):
    sec = v.section(item, path, _KERNEL_ENTRY_KEYS)
    i = v.integer(sec, path, "i", required=True)
    j = v.integer(sec, path, "j", required=True)
    K = v.number(sec, path, "K", required=True)
    amps = v.vector(sec, path, "amplitudes", required=True)
    freqs = v.vector(sec, path, "frequencies", required=True)
    if None in (i, j, K) or amps is None or freqs is None:
        return None
    for name, idx in (("i", i), ("j", j)):
        if not 0 <= idx < n:
            v.fail(f"{path}.{name}", f"index out of range [0, {n})")
            return None
    spectrum = v.construct(path, PronySpectrum, K=K, amplitudes=tuple(amps),
                           frequencies=tuple(freqs))
    if spectrum is None:
        return None
    return KernelEntry(i=i, j=j, spectrum=spectrum)


def _build_spring(v: _Validator, item, path: str, n: int):
    sec = v.section(item, path, _SPRING_KEYS)
    i = v.integer(sec, path, "i", required=True)
    j = v.integer(sec, path, "j")
    B = v.number(sec, path, "B", required=True)
    C = v.number(sec, path, "C", required=True)
    rest = v.number(sec, path, "rest_length", default=1.0)
    if None in (i, B, C, rest):
        return None
    for name, idx in (("i", i), ("j", j)):
        if idx is not None and not 0 <= idx < n:
            v.fail(f"{path}.{name}", f"index out of range [0, {n})")
            return None
    law = v.construct(path, ExponentialTensileLaw, B=B, C=C)
    kernel = None
    if sec.get("kernel") is not None:
        ksec = v.section(sec["kernel"], f"{path}.kernel",
                         {"K", "amplitudes", "frequencies"})
        K = v.number(ksec, f"{path}.kernel", "K", required=True)
        amps = v.vector(ksec, f"{path}.kernel", "amplitudes", required=True)
        freqs = v.vector(ksec, f"{path}.kernel", "frequencies", required=True)
        if K is None or amps is None or freqs is None:
            return None
        kernel = v.construct(f"{path}.kernel", PronySpectrum, K=K,
                             amplitudes=tuple(amps), frequencies=tuple(freqs))
        if kernel is None:
            return None
    if law is None:
        return None
    return v.construct(path, NonlinearSpring, i=i, j=j, law=law,
                       rest_length=rest, kernel=kernel)


def _build_force(v: _Validator, section: dict, n: int):
    sec = v.section(section, "network.force",
                    {"kind", "values", "amplitudes", "angular_frequency"})
    kind = v.string(sec, "network.force", "kind", required=True,
                    choices={"constant", "sinusoid"})
    if kind == "constant":
        values = v.vector(sec, "network.force", "values", required=True)
        if values is None:
            return None
        if values.size != n:
            v.fail("network.force.values", f"expected {n} entries, "
                   f"got {values.size}")
            return None
        const = values.copy()
        return lambda t: const
    if kind == "sinusoid":
        amps = v.vector(sec, "network.force", "amplitudes", required=True)
        w = v.number(sec, "network.force", "angular_frequency", required=True)
        if amps is None or w is None:
            return None
        if amps.size != n:
            v.fail("network.force.amplitudes", f"expected {n} entries, "
                   f"got {amps.size}")
            return None
        if w <= 0:
            v.fail("network.force.angular_frequency", f"must be > 0, got {w}")
            return None
        amps = amps.copy()
        return lambda t: amps * math.sin(w * t)
    return None


def _build_network(v: _Validator, section: dict):
    sec = v.section(section, "network", _NETWORK_KEYS)
    masses = v.vector(sec, "network", "masses", required=True)
    stiffness = v.matrix(sec, "network", "stiffness", required=True)
    duration = v.number(sec, "network", "duration")
    dt = v.number(sec, "network", "dt")
    for name, val in (("duration", duration), ("dt", dt)):
        if val is not None and val <= 0:
            v.fail(f"network.{name}", f"must be > 0, got {val}")
    if masses is None or stiffness is None:
        return None, None, None, duration, dt
    n = masses.size
    damping = v.matrix(sec, "network", "damping")
    kernels = []
    for idx, item in enumerate(sec.get("kernels") or []):
        entry = _build_kernel_entry(v, item, f"network.kernels[{idx}]", n)
        if entry is not None:
            kernels.append(entry)
    aero = []
    for idx, item in enumerate(sec.get("aero_kernels") or []):
        entry = _build_kernel_entry(v, item, f"network.aero_kernels[{idx}]", n)
        if entry is not None:
            aero.append(entry)
    springs = []
    for idx, item in enumerate(sec.get("springs") or []):
        spring = _build_spring(v, item, f"network.springs[{idx}]", n)
        if spring is not None:
            springs.append(spring)
    replace = v.boolean(sec, "network", "kernels_replace_damping",
                        default=True)
    force = None
    if sec.get("force") is not None:
        force = _build_force(v, sec["force"], n)

    init = v.section(sec.get("initial"), "network.initial", {"q", "v"})
    q0 = v.vector(init, "network.initial", "q")
    v0 = v.vector(init, "network.initial", "v")
    for name, vec in (("q", q0), ("v", v0)):
        if vec is not None and vec.size != n:
            v.fail(f"network.initial.{name}", f"expected {n} entries, "
                   f"got {vec.size}")

    if v.errors:
        return None, None, None, duration, dt
    system = v.construct("network", SpringMassSystem, masses=masses,
                         stiffness=stiffness, damping=damping,
                         memory_kernels=tuple(kernels),
                         aero_kernels=tuple(aero),
                         nonlinear_springs=tuple(springs),
                         external_force=force,
                         kernels_replace_damping=replace)
    return system, q0, v0, duration, dt


_PROTOCOL_KEYS = {"kind", "duration", "dt", "stretch_rate", "hold_stress",
                  "hold_strain", "amplitude", "mean", "angular_frequency",
                  "cycles", "samples_per_cycle", "max_cycles", "settle_time"}


def _build_protocol(v: _Validator, section: dict):
    sec = v.section(section, "protocol", _PROTOCOL_KEYS)
    kwargs = {}
    kind = v.string(sec, "protocol", "kind", required=True,
                    choices={"tensile", "creep", "relaxation", "cyclic"})
    if kind is None:
        return None
    kwargs["kind"] = kind
    for key in ("duration", "dt", "stretch_rate", "hold_stress",
                "hold_strain", "amplitude", "mean", "angular_frequency"):
        val = v.number(sec, "protocol", key)
        if val is not None:
            kwargs[key] = val
    for key in ("cycles", "samples_per_cycle"):
        val = v.integer(sec, "protocol", key)
        if val is not None:
            kwargs[key] = val
    # no-ops since cyclic runs solve the steady state; still type-checked
    v.number(sec, "protocol", "settle_time")
    v.integer(sec, "protocol", "max_cycles")
    return v.construct("protocol", ProtocolSpec, **kwargs)


def _build_sweep(v: _Validator, section: dict):
    sec = v.section(section, "sweep", {"start", "stop", "count"})
    start = v.number(sec, "sweep", "start", required=True)
    stop = v.number(sec, "sweep", "stop", required=True)
    count = v.integer(sec, "sweep", "count", required=True)
    if None in (start, stop) or count is None:
        return None
    if start <= 0 or stop <= start:
        v.fail("sweep.start", "need 0 < start < stop for a log-spaced sweep")
        return None
    if count < 2:
        v.fail("sweep.count", f"must be >= 2, got {count}")
        return None
    return np.logspace(math.log10(start), math.log10(stop), count)


_TOP_KEYS = {"model", "network", "protocol", "sweep", "output"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate YAML config text into a RunConfig.

    Raises ConfigError carrying the full list of validation messages.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    if data is None:
        raise ConfigError(["empty config"])
    if not isinstance(data, dict):
        raise ConfigError([f"top level must be a mapping, "
                           f"got {type(data).__name__}"])

    v = _Validator()
    v.section(data, "", _TOP_KEYS)
    has_model = "model" in data
    has_network = "network" in data
    if has_model and has_network:
        v.fail("model", "exactly one of 'model' and 'network' is allowed; "
               "both are present")
    if not has_model and not has_network:
        v.fail("model", "exactly one of 'model' and 'network' is required; "
               "neither is present")

    model = element = network = None
    q0 = v0 = sim_duration = sim_dt = None
    if has_model and not has_network:
        model, element = _build_model(v, data["model"])
    if has_network and not has_model:
        network, q0, v0, sim_duration, sim_dt = _build_network(
            v, data["network"])

    protocol = None
    if data.get("protocol") is not None:
        protocol = _build_protocol(v, data["protocol"])

    sweep = None
    if data.get("sweep") is not None:
        sweep = _build_sweep(v, data["sweep"])

    out = v.section(data.get("output"), "output",
                    {"path", "stride", "precision"})
    out_path = v.string(out, "output", "path")
    stride = v.integer(out, "output", "stride", default=1)
    precision = v.integer(out, "output", "precision", default=17)
    if stride is not None and stride < 1:
        v.fail("output.stride", f"must be >= 1, got {stride}")
    if precision is not None and not 1 <= precision <= 17:
        v.fail("output.precision", f"must be in [1, 17], got {precision}")

    if v.errors:
        raise ConfigError(v.errors)

    effective = _effective_dict(data, stride, precision)
    return RunConfig(raw=effective, model=model, element=element,
                     network=network, initial_q=q0, initial_v=v0,
                     protocol=protocol, sim_duration=sim_duration,
                     sim_dt=sim_dt, sweep_frequencies=sweep,
                     output_path=out_path, output_stride=stride,
                     output_precision=precision)


def _effective_dict(data: dict, stride: int, precision: int) -> dict:
    """The parsed document with output defaults made explicit."""
    effective = {k: data[k] for k in data}
    out = dict(effective.get("output") or {})
    out.setdefault("stride", stride)
    out.setdefault("precision", precision)
    effective["output"] = out
    return effective


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return parse_config(text)
