"""Span tracer that times qlvsim's layers from outside the program.

``install`` wraps the public functions and methods of each module and
replaces every reference to them in the loaded ``qlvsim`` modules,
including names that another module imported by value (``from .qlv import
qlv_stress_fast``).  Spans record name, start, end and parent; they stay in
memory until ``write`` and ``op_metrics`` derives inclusive and self times
from them.  The layer of a span is the prefix of its name.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "constitutive", "kernels", "qlv", "protocols",
          "network", "seriesio")


def _size(path) -> int:
    return os.path.getsize(path)


def _series_values(series) -> int:
    return int(series.times.size * (1 + len(series.columns)))


# (span name, module, attribute, attrs(args, result) -> dict or None)
FUNCTIONS = [
    ("config.load_config", "qlvsim.config", "load_config",
     lambda a, r: {"bytes": _size(a[0])}),
    ("kernels.kernel_to_prony", "qlvsim.kernels", "kernel_to_prony", None),
    ("kernels.prony_relaxation", "qlvsim.kernels", "prony_relaxation", None),
    ("kernels.exp_integral_e1", "qlvsim.kernels", "exp_integral_e1",
     lambda a, r: {"points": int(np.size(a[0]))}),
    ("qlv.qlv_stress_fast", "qlvsim.qlv", "qlv_stress_fast",
     lambda a, r: {"n": int(a[1].times.size),
                   "terms": len(a[0].prony.amplitudes)}),
    ("qlv.hysteresis_ratio", "qlvsim.qlv", "hysteresis_ratio", None),
    ("protocols.run_cyclic", "qlvsim.protocols", "run_cyclic",
     lambda a, r: {"nps": int(a[0].samples_per_cycle)}),
    ("protocols.run_creep", "qlvsim.protocols", "run_creep", None),
    ("protocols.run_relaxation", "qlvsim.protocols", "run_relaxation", None),
    ("protocols.frequency_sweep", "qlvsim.protocols", "frequency_sweep",
     None),
    ("protocols.fit_relaxation_spectrum", "qlvsim.protocols",
     "fit_relaxation_spectrum", None),
    ("network.simulate", "qlvsim.network", "simulate", None),
    ("network.step", "qlvsim.network", "step", None),
    ("seriesio.write", "qlvsim.seriesio", "write_series",
     lambda a, r: {"bytes": _size(a[0]), "values": _series_values(a[1])}),
    ("seriesio.read", "qlvsim.seriesio", "read_series",
     lambda a, r: {"bytes": _size(a[0]), "values": _series_values(r)}),
]

# (span name, module, class, method); classmethods are rewrapped as such
METHODS = [
    ("constitutive.stress_green", "qlvsim.constitutive",
     "ExponentialTensileLaw", "stress_green"),
    ("constitutive.spring_force", "qlvsim.network", "NonlinearSpring",
     "elastic_force"),
    ("kernels.relaxation_value", "qlvsim.kernels", "ReducedRelaxation",
     "value"),
    ("qlv.from_kernel", "qlvsim.qlv", "QlvModel", "from_kernel"),
]


class Tracer:
    """In-memory spans: [op, name, start, end, parent index, attrs, raised]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.patched: list = []          # (owner, attribute, original)

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [tracer.op, name, 0.0, 0.0,
                   tracer.stack[-1] if tracer.stack else -1, None, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[3] = perf_counter()
                tracer.stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every wrapped function and method by its traced form."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "qlvsim" or n.startswith("qlvsim.")]
        for name, modname, attr, attrs in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, attrs)
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name,
                                                             raw.__func__)))
            else:
                self._patch(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        """Put the originals back, so that untraced ops run unwrapped."""
        while self.patched:
            owner, attr, orig = self.patched.pop()
            setattr(owner, attr, orig)

    def op_metrics(self, first: int, wall: float) -> dict:
        """Per-layer metrics of the op whose spans start at ``first``."""
        self.op += 1
        return op_metrics(self.spans, first, len(self.spans), wall)

    def write(self, path: str) -> None:
        """Spans as JSON rows [op, name, start_us, end_us, parent, attrs,
        raised], times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round((s[2] - t0) * 1e6, 3),
                 round((s[3] - t0) * 1e6, 3), s[4], s[5], s[6]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "start_us", "end_us",
                                  "parent", "attrs", "raised"],
                       "spans": rows}, fh, separators=(",", ":"))


def op_metrics(spans: list, first: int, last: int, wall: float) -> dict:
    """Per-layer metrics of one op from spans[first:last] (its whole tree);
    ``wall`` is the op's wall time."""
    own = spans[first:last]
    incl: dict = {}
    calls: dict = {}
    child: dict = {}
    for s in own:
        dur = s[3] - s[2]
        incl[s[1]] = incl.get(s[1], 0.0) + dur
        calls[s[1]] = calls.get(s[1], 0) + 1
        if s[4] >= 0:
            child[s[4]] = child.get(s[4], 0.0) + dur
    self_by_name: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    for k, s in enumerate(own, start=first):
        layer = s[1].split(".", 1)[0]
        self_t = (s[3] - s[2]) - child.get(k, 0.0)
        self_by_name[s[1]] = self_by_name.get(s[1], 0.0) + self_t
        layer_self[layer] += self_t
        parent_layer = spans[s[4]][1].split(".", 1)[0] if s[4] >= 0 else None
        if s[6] and parent_layer != layer:
            errors[layer] += 1

    def attr_sum(name, key):
        return sum(s[5][key] for s in own if s[1] == name and s[5])

    cycles = 0.0
    term_samples = 0
    for s in own:
        if s[1] == "qlv.qlv_stress_fast" and s[5]:
            term_samples += s[5]["n"] * s[5]["terms"]
            parent = spans[s[4]] if s[4] >= 0 else None
            if parent is not None and parent[1] == "protocols.run_cyclic" \
                    and parent[5]:
                cycles += (s[5]["n"] - 1) / parent[5]["nps"]
    steps = calls.get("network.step", 0)
    w_vals = attr_sum("seriesio.write", "values")
    r_vals = attr_sum("seriesio.read", "values")
    m = {
        "config.load_config_s": incl.get("config.load_config", 0.0),
        "config.yaml_bytes": attr_sum("config.load_config", "bytes"),
        "kernels.kernel_to_prony_s": incl.get("kernels.kernel_to_prony", 0.0),
        "kernels.prony_relaxation_s":
            incl.get("kernels.prony_relaxation", 0.0),
        "kernels.prony_relaxation.calls":
            calls.get("kernels.prony_relaxation", 0),
        "kernels.relaxation_value_s":
            incl.get("kernels.relaxation_value", 0.0),
        "kernels.exp_integral_e1_s": incl.get("kernels.exp_integral_e1", 0.0),
        "kernels.exp_integral_e1.points":
            attr_sum("kernels.exp_integral_e1", "points"),
        "constitutive.stress_green_s":
            incl.get("constitutive.stress_green", 0.0),
        "constitutive.stress_green.calls":
            calls.get("constitutive.stress_green", 0),
        "constitutive.spring_force_s":
            incl.get("constitutive.spring_force", 0.0),
        "constitutive.spring_force.calls":
            calls.get("constitutive.spring_force", 0),
        "qlv.qlv_stress_fast_s": incl.get("qlv.qlv_stress_fast", 0.0),
        "qlv.qlv_stress_fast.calls": calls.get("qlv.qlv_stress_fast", 0),
        "qlv.term_samples": term_samples,
        "qlv.hysteresis_ratio_s": incl.get("qlv.hysteresis_ratio", 0.0),
        "qlv.hysteresis_ratio.calls": calls.get("qlv.hysteresis_ratio", 0),
        "protocols.run_cyclic.self_s":
            self_by_name.get("protocols.run_cyclic", 0.0),
        "protocols.cycles_simulated": cycles,
        "protocols.run_creep.self_s":
            self_by_name.get("protocols.run_creep", 0.0),
        "protocols.run_relaxation.self_s":
            self_by_name.get("protocols.run_relaxation", 0.0),
        "protocols.fit_relaxation_spectrum_s":
            incl.get("protocols.fit_relaxation_spectrum", 0.0),
        "network.simulate_s": incl.get("network.simulate", 0.0),
        "network.steps": steps,
        "network.step_us": (incl.get("network.step", 0.0) / steps * 1e6
                            if steps else 0.0),
        "seriesio.write_s": incl.get("seriesio.write", 0.0),
        "seriesio.bytes_written": attr_sum("seriesio.write", "bytes"),
        "seriesio.write_us_per_value":
            incl.get("seriesio.write", 0.0) / w_vals * 1e6 if w_vals else 0.0,
        "seriesio.read_s": incl.get("seriesio.read", 0.0),
        "seriesio.bytes_read": attr_sum("seriesio.read", "bytes"),
        "seriesio.read_us_per_value":
            incl.get("seriesio.read", 0.0) / r_vals * 1e6 if r_vals else 0.0,
        "cli.self_s": layer_self["cli"],
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
        m[f"{layer}.share"] = layer_self[layer] / wall
    return m
