"""Run configuration: YAML schema, validation, and construction.

A run config is a YAML document with exactly one specimen section
(``model`` or ``network``), an optional ``protocol`` section, an optional
``sweep`` section for frequency sweeps, and an optional ``output`` section.
Validation collects *all* errors (with dotted key paths) instead of
stopping at the first; unknown keys are rejected.
"""

from __future__ import annotations

import contextlib
import gc
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from .constitutive import (ELASTIC_TYPES, ExponentialTensileLaw,
                           FungBiaxialParams, FungUniaxialLaw)
from .errors import ConfigError, DomainError, StabilityError
from .kernels import (KERNEL_TYPES, SIZE_BUDGET, KelvinParams, MaxwellParams,
                      PronySpectrum, VoigtParams, check_filter_size,
                      grid_steps)
from .network import (KernelEntry, NonlinearSpring, SpringMassSystem,
                      steps_and_records)
from .protocols import PROTOCOL_FIELDS, ProtocolSpec, check_period
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
        return yaml.dump(self.raw, Dumper=_DUMPER, sort_keys=True,
                         default_flow_style=False)


def _finite(x) -> bool:
    """Whether a YAML number is a finite float: not inf, not nan, and not an
    integer too large for a float."""
    return abs(x) <= sys.float_info.max


def _numbers(v, index="") -> bool:
    """Whether a YAML value is a non-empty list of numbers; if not, its first
    text entry raises _number's fault, named by its index after ``index``."""
    if isinstance(v, list) and v and set(map(type, v)) <= {int, float}:
        return True
    for i, x in enumerate(v if isinstance(v, list) else ()):
        if isinstance(x, str):
            _number(x, f"entry {index}[{i}] ")
    return False


# a number that YAML 1.1 reads as text: an exponent but no dot or no sign
_TEXT_EXPONENT = re.compile(r"(?![-+]?[0-9]*\.[0-9]*[eE][-+])"
                            r"([-+]?)(?=\.?[0-9])([0-9]*)\.?([0-9]*)"
                            r"[eE]([-+]?)([0-9]+)\Z").match


# each check converts a non-null YAML value or raises its fault as ValueError
def _number(v, entry="", low=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        m = isinstance(v, str) and _TEXT_EXPONENT(v)
        raise ValueError(f"{entry}must be a number, got {v!r}" + (
            " (YAML reads an exponent with no dot or no sign as text; "
            f"write {m[1]}{m[2] or 0}.{m[3] or 0}e{m[4] or '+'}{m[5]})"
            if m else ""))
    if not _finite(v):
        raise ValueError(f"must be finite, got {v!r}")
    if low is not None and not v > low:
        raise ValueError(f"must be > {low}, got {float(v)}")
    return float(v)


def _integer(v, low=None, high=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"must be an integer, got {v!r}")
    if low is not None and v < low:
        raise ValueError(f"must be >= {low}, got {v}")
    if high is not None and v > high:
        raise ValueError(f"must be <= {high}")
    return v


def _index(v, n):
    if not 0 <= _integer(v) < n:
        raise ValueError(f"index out of range [0, {n})")
    return v


def _string(v, choices=None):
    if not isinstance(v, str):
        raise ValueError(f"must be a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ValueError(f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _boolean(v):
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _vector(v, size=None):
    if not _numbers(v):
        raise ValueError("must be a non-empty list of numbers")
    if not all(map(_finite, v)):
        raise ValueError("entries must be finite")
    if size is not None and len(v) != size:
        raise ValueError(f"expected {size} entries, got {len(v)}")
    return np.asarray(v, dtype=float)


def _matrix(v):
    if not (isinstance(v, list) and v
            and all(_numbers(row, f"[{i}]") for i, row in enumerate(v))
            and len({len(row) for row in v}) == 1):
        raise ValueError("must be a non-empty rectangular list of number "
                         "lists")
    # inf and nan pass here: the network reports them by entry
    try:
        return np.asarray(v, dtype=float)
    except OverflowError:       # an integer too large for a float
        raise ValueError("entries must be finite") from None


class _Validator:
    """Collects dotted-key-path error messages across the whole document;
    a section that is not a mapping is reported alone, and the faults of its
    keys (under a ``not_mappings`` prefix) only count in ``faults``."""

    def __init__(self):
        self.errors: list[str] = []
        self.faults = 0
        self.not_mappings: tuple = ()

    def fail(self, path: str, message: str) -> None:
        self.faults += 1
        if not path.startswith(self.not_mappings):
            self.errors.append(f"{path}: {message}")

    def section(self, data, path: str, allowed: set | None = None) -> dict:
        if data is None:
            return {}
        if not isinstance(data, dict):
            self.fail(path, f"must be a mapping, got {type(data).__name__}")
            self.not_mappings += (f"{path}.",)
            return {}
        for key in data if allowed is not None else ():
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key),
                          f"unknown key (allowed: {sorted(allowed)})")
        return data

    def read(self, section: dict, path: str, key: str, check, default=None,
             required: bool = False, **limits):
        """The value at ``key`` converted by ``check``; ``default`` if it is
        missing or null (an error if required), None if it fails the check."""
        v = section.get(key)
        if v is None:
            if required:
                self.fail(f"{path}.{key}", "required key missing")
            return default
        try:
            return check(v, **limits)
        except ValueError as exc:
            self.fail(f"{path}.{key}", str(exc))
            return None

    def construct(self, path: str, factory, *args, **kwargs):
        """Run a module constructor, converting domain errors to config
        errors at the given key path."""
        try:
            return factory(*args, **kwargs)
        except (DomainError, StabilityError, FloatingPointError) as exc:
            self.fail(path, str(exc))
            return None

    def build(self, section, path: str, cls, *extra, require_all=False,
              **given):
        """A ``cls`` from the keys of ``section`` named after its fields,
        except the fields ``given``; any other key that is not ``extra`` is
        an error.  Each field is read by its annotation's check, required
        if it has no default or with ``require_all``.  None if a field failed
        to read, a ``given`` one is None or the constructor rejected them."""
        section = self.section(section, path, {*extra, *(
            f.name for f in fields(cls) if f.name not in given)})
        errors = self.faults
        for f in fields(cls):
            if f.name not in given:
                value = self.read(section, path, f.name, _READERS[f.type],
                                  required=require_all or f.default is MISSING)
                if value is not None:
                    given[f.name] = value
        if self.faults > errors or any(x is None for x in given.values()):
            return None
        return self.construct(path, cls, **given)


# the check of each field annotation; a section's keys are its type's fields
_READERS = {"float": _number, "int": _integer, "bool": _boolean,
            "tuple[float, ...]": _vector}


def _build_elastic(v: _Validator, section: dict, path: str):
    sec = v.section(section, path)
    kind = v.read(sec, path, "kind", _string, required=True,
                  choices=ELASTIC_TYPES)
    law = None if kind is None else \
        v.build(sec, path, ELASTIC_TYPES[kind], "kind")
    # a QLV specimen is uniaxial: the biaxial energy acts through E11 alone
    return FungUniaxialLaw(law) if isinstance(law, FungBiaxialParams) else law


def _build_kernel(v: _Validator, section: dict, path: str):
    """Returns (kernel object or None, prony_terms or None if it failed)."""
    sec = v.section(section, path)
    kind = v.read(sec, path, "kind", _string, required=True,
                  choices=KERNEL_TYPES)
    # only a Fung spectrum is discretized, so only it takes prony_terms
    fung = ("prony_terms",) if kind == "fung" else ()
    n_terms = v.read(sec if fung else {}, path, "prony_terms", _integer,
                     default=64, low=2, high=SIZE_BUDGET)
    kernel = None if kind is None else \
        v.build(sec, path, KERNEL_TYPES[kind], "kind", *fung, require_all=True)
    return kernel, n_terms


def _build_model(v: _Validator, section: dict) -> dict:
    """The RunConfig fields of a model specimen."""
    sec = v.section(section, "model", {"elastic", "kernel"})
    if "kernel" not in sec:
        v.fail("model.kernel", "required key missing")
        return {}
    kernel, n_terms = _build_kernel(v, sec.get("kernel"), "model.kernel")
    # a classical element with no elastic law is a specimen by itself
    if "elastic" not in sec:
        if isinstance(kernel, (MaxwellParams, VoigtParams, KelvinParams)):
            return {"element": kernel}
        v.fail("model.elastic", "required key missing (only classical "
               "elements may be used without an elastic law)")
        return {}
    elastic = _build_elastic(v, sec.get("elastic"), "model.elastic")
    if None in (elastic, kernel, n_terms):
        return {}
    return {"model": v.construct("model.kernel", QlvModel.from_kernel,
                                 elastic, kernel, n_prony=n_terms)}


_NETWORK_KEYS = {"masses", "stiffness", "damping", "kernels", "aero_kernels",
                 "springs", "kernels_replace_damping", "initial", "force",
                 "duration", "dt"}


def _build_kernel_entry(v: _Validator, item, path: str, n: int):
    sec = v.section(item, path)
    i = v.read(sec, path, "i", _index, required=True, n=n)
    j = v.read(sec, path, "j", _index, required=True, n=n)
    spectrum = v.build(sec, path, PronySpectrum, "i", "j", require_all=True)
    if None in (i, j, spectrum):
        return None
    return KernelEntry(i=i, j=j, spectrum=spectrum)


def _build_spring(v: _Validator, item, path: str, n: int):
    sec = v.section(item, path)
    errors = v.faults
    i = v.read(sec, path, "i", _index, required=True, n=n)
    j = v.read(sec, path, "j", _index, n=n)
    law = v.build(sec, path, ExponentialTensileLaw, "i", "j", "rest_length",
                  "kernel")
    rest = v.read(sec, path, "rest_length", _number, default=1.0)
    kernel = None
    if sec.get("kernel") is not None:
        kernel = v.build(sec["kernel"], f"{path}.kernel", PronySpectrum,
                         require_all=True)
    if v.faults > errors:
        return None
    return v.construct(path, NonlinearSpring, i=i, j=j, law=law,
                       rest_length=rest, kernel=kernel)


def _build_force(v: _Validator, section: dict, n: int):
    path = "network.force"
    sec = v.section(section, path)
    kind = v.read(sec, path, "kind", _string, required=True,
                  choices={"constant", "sinusoid"})
    if kind == "constant":
        v.section(sec, path, {"kind", "values"})
        values = v.read(sec, path, "values", _vector, required=True,
                        size=n)
        return None if values is None else lambda t: values
    if kind == "sinusoid":
        v.section(sec, path, {"kind", "amplitudes", "angular_frequency"})
        amps = v.read(sec, path, "amplitudes", _vector, required=True,
                      size=n)
        w = v.read(sec, path, "angular_frequency", _number, required=True,
                   low=0)
        if amps is None or w is None:
            return None
        return lambda t: amps * math.sin(w * t)
    return None


def _build_network(v: _Validator, section: dict) -> dict:
    """The RunConfig fields of a network specimen."""
    sec = v.section(section, "network", _NETWORK_KEYS)
    masses = v.read(sec, "network", "masses", _vector, required=True)
    stiffness = v.read(sec, "network", "stiffness", _matrix, required=True)
    duration = v.read(sec, "network", "duration", _number)
    dt = v.read(sec, "network", "dt", _number)
    if None not in (duration, dt):
        v.construct("network.duration", grid_steps, duration, dt)
    if masses is None or stiffness is None:
        return {}
    n = masses.size
    damping = v.read(sec, "network", "damping", _matrix)

    def build_list(key, build):
        items = sec.get(key)
        if items is not None and not isinstance(items, list):
            v.fail(f"network.{key}", "must be a list")
            return ()
        # an entry is None only after an error, and then nothing is built
        return tuple(build(v, item, f"network.{key}[{idx}]", n)
                     for idx, item in enumerate(items or []))

    kernels = build_list("kernels", _build_kernel_entry)
    aero = build_list("aero_kernels", _build_kernel_entry)
    springs = build_list("springs", _build_spring)
    replace = v.read(sec, "network", "kernels_replace_damping", _boolean,
                     default=True)
    force = (None if sec.get("force") is None
             else _build_force(v, sec["force"], n))

    init = v.section(sec.get("initial"), "network.initial", {"q", "v"})
    q0 = v.read(init, "network.initial", "q", _vector, size=n)
    v0 = v.read(init, "network.initial", "v", _vector, size=n)

    if v.errors:
        return {}
    system = v.construct("network", SpringMassSystem, masses=masses,
                         stiffness=stiffness, damping=damping,
                         memory_kernels=kernels, aero_kernels=aero,
                         nonlinear_springs=springs,
                         external_force=force,
                         kernels_replace_damping=replace)
    if system is not None and dt is not None:
        v.construct("network.dt", system.check_time_step, dt)
    if system is not None and q0 is not None:
        with np.errstate(over="raise", invalid="raise"):    # as a run's
            v.construct("network.initial.q", system._stack.drives, q0, 0.0)
    return dict(network=system, initial_q=q0, initial_v=v0,
                sim_duration=duration, sim_dt=dt)


def _build_protocol(v: _Validator, section: dict):
    sec = v.section(section, "protocol")
    kind = v.read(sec, "protocol", "kind", _string, required=True,
                  choices=PROTOCOL_FIELDS)
    # a kind takes its own fields, the others keep their defaults; with no
    # valid kind, every key of every kind is checked
    unread = {f.name: f.default for f in fields(ProtocolSpec)
              if kind and f.name not in ("kind", *PROTOCOL_FIELDS[kind])}
    # cyclic's ignored keys (its runs solve the steady state), type-checked
    ignored = ("settle_time", "max_cycles") if kind in ("cyclic", None) else ()
    spec = v.build(sec, "protocol", ProtocolSpec, "kind", *ignored,
                   kind=kind, **unread)
    for key, check in zip(ignored, (_number, _integer)):
        v.read(sec, "protocol", key, check)
    return spec


def _build_sweep(v: _Validator, section: dict):
    sec = v.section(section, "sweep", {"start", "stop", "count"})
    start = v.read(sec, "sweep", "start", _number, required=True)
    stop = v.read(sec, "sweep", "stop", _number, required=True)
    count = v.read(sec, "sweep", "count", _integer, required=True, low=2,
                   high=SIZE_BUDGET)
    if None in (start, stop) or count is None:
        return None
    if start <= 0 or stop <= start:
        v.fail("sweep.start", "need 0 < start < stop for a log-spaced sweep")
        return None
    freqs = np.logspace(math.log10(start), math.log10(stop), count)
    v.construct("sweep.start", check_period, float(freqs[0]))  # longest period
    return freqs


_TOP_KEYS = {"model", "network", "protocol", "sweep", "output"}
_DECIMAL = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?\Z").match

# libyaml's loader and emitter if PyYAML has them
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# libyaml composes nested collections by C recursion, which overflows the
# stack (a crash, not an exception) some 20k levels deep.  No valid config
# nests deeper than 6.
_MAX_DEPTH = 1000


def _load_yaml(text: str):
    """The parsed document, built from the loader's events one at a time (a
    plain _DECIMAL as float(value), PyYAML's float bit for bit), or by
    yaml.load at an anchor, an alias, a tagged collection, a collection key,
    a second document or a scalar PyYAML cannot build (a ``<<`` or ``=``
    key).  ConfigError if it is not valid YAML or nests past _MAX_DEPTH."""
    enabled = gc.isenabled()
    gc.disable()    # while it is built: its many objects form no cycles
    try:    # the open collections as lists, under one for the documents
        loader, stack = _LOADER(text), [[]]
        for event in iter(loader.get_event, None):
            kind = type(event)
            try:
                if kind is yaml.ScalarEvent and event.anchor is None:
                    if event.implicit[0] and _DECIMAL(event.value):
                        stack[-1].append(float(event.value))
                    else:   # !!seq 1 raises in construct_document alone
                        tag = event.tag or loader.resolve(
                            yaml.ScalarNode, event.value, event.implicit)
                        stack[-1].append(loader.construct_document(
                            yaml.ScalarNode(tag, event.value)))
                elif (issubclass(kind, yaml.CollectionStartEvent)
                      and event.anchor is event.tag is None
                      and len(stack) <= _MAX_DEPTH):
                    stack.append([])
                elif issubclass(kind, yaml.CollectionEndEvent):
                    items = stack.pop()     # a mapping's: key, value, key, ...
                    stack[-1].append(items if kind is yaml.SequenceEndEvent
                                     else dict(zip(items[::2], items[1::2])))
                elif issubclass(kind, yaml.NodeEvent) or (
                        kind is yaml.DocumentStartEvent and stack[0]):
                    break
            except Exception:   # a collection key's TypeError among them:
                break           # yaml.load raises it, with its marks
        else:
            return stack[0][0] if stack[0] else None
        depth = len(stack) - 1 + issubclass(kind, yaml.CollectionStartEvent)
        # yaml.load composes it all: read the rest for its depth only
        with contextlib.suppress(yaml.YAMLError):   # yaml.load reports it
            while depth <= _MAX_DEPTH and (event := loader.get_event()):
                depth += (isinstance(event, yaml.CollectionStartEvent)
                          - isinstance(event, yaml.CollectionEndEvent))
        if depth <= _MAX_DEPTH:
            return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    except (ValueError, IndexError, KeyError, AttributeError) as exc:
        # PyYAML's constructors raise these on a scalar they cannot build
        # (!!float x, !!int with no value, !!bool x, !!timestamp x, 2001-13-45)
        raise ConfigError([f"invalid YAML: cannot build a value "
                           f"({type(exc).__name__}: {exc})"]) from exc
    except RecursionError:
        pass    # the pure-Python composer recurses once per level
    finally:
        if enabled:
            gc.enable()
    raise ConfigError(["invalid YAML: nesting too deep"])


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate YAML config text into a RunConfig, first setting
    in each section named in ``overrides``, where it is a mapping, the keys
    it maps to.  Raises ConfigError carrying the full list of messages.
    """
    data = _load_yaml(text)
    if data is None:
        raise ConfigError(["empty config"])
    if not isinstance(data, dict):
        raise ConfigError([f"top level must be a mapping, "
                           f"got {type(data).__name__}"])
    for section, values in (overrides or {}).items():
        if isinstance(data.get(section), dict):
            data[section].update(values)

    v = _Validator()
    v.section(data, "", _TOP_KEYS)
    has_model, has_network = "model" in data, "network" in data
    if has_model == has_network:
        v.fail("model", "exactly one of 'model' and 'network' is " + (
            "allowed; both are present" if has_model
            else "required; neither is present"))

    specimen = {}
    if has_model and not has_network:
        specimen = _build_model(v, data["model"])
    if has_network and not has_model:
        specimen = _build_network(v, data["network"])

    protocol = (None if data.get("protocol") is None
                else _build_protocol(v, data["protocol"]))

    # an elastic law needs a Green strain; a bare element holds any strain
    if protocol and specimen.get("model") and protocol.hold_strain < -0.5:
        v.fail("protocol.hold_strain", "must be >= -0.5 (a Green strain) "
               f"for a model specimen, got {protocol.hold_strain}")
    # a model's periodic steady state filters one period through its terms
    if protocol and protocol.kind == "cyclic" and specimen.get("model"):
        v.construct("protocol.samples_per_cycle", check_filter_size,
                    protocol.samples_per_cycle,
                    len(specimen["model"].prony.amplitudes))

    sweep = (None if data.get("sweep") is None
             else _build_sweep(v, data["sweep"]))

    out = v.section(data.get("output"), "output",
                    {"path", "stride", "precision"})
    out_path = v.read(out, "output", "path", _string)
    stride = v.read(out, "output", "stride", _integer, default=1, low=1)
    if (stride is not None and specimen.get("network") is not None
            and None not in (specimen["sim_duration"], specimen["sim_dt"])):
        v.construct("output.stride", steps_and_records,
                    specimen["network"].n, specimen["sim_duration"],
                    specimen["sim_dt"], stride)
    precision = v.read(out, "output", "precision", _integer, default=17,
                       low=1, high=17)

    if v.errors:
        raise ConfigError(v.errors)

    # the parsed document with its output defaults made explicit
    effective = {**data, "output": {"stride": stride, "precision": precision,
                                    **(data.get("output") or {})}}
    return RunConfig(raw=effective, **specimen, protocol=protocol,
                     sweep_frequencies=sweep, output_path=out_path,
                     output_stride=stride, output_precision=precision)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    return parse_config(text, overrides)
