"""Workload inputs and output checks.

Each workload has a fixed shape (sizes, grids, step counts); the seed draws
only material and load parameters, so the work an op does repeats across
seeds.  ``make(name, seed, workdir)`` writes the config files into
``workdir`` and returns the argv lists of one op plus the check of its
outputs.  Checks raise ``CheckFailed`` and use only numpy and the
benchmark's own oracles, except where a check is defined as a round trip
through the library.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An op's output did not pass its correctness check."""


@dataclass
class Workload:
    ops: list            # argv lists passed to cli_main, run in order
    config: str          # the config file that setup loads
    outputs: list        # files an op writes; removed before each op
    check: Callable[[], dict]   # raises CheckFailed; returns margins
    sizes: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """Six-decimal literal that PyYAML reads as a float (it needs a dot)."""
    return f"{x:.6f}"


def _draw(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    """Header and values, parsed with Python's correctly rounded float()."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    values = np.fromiter(map(float, body.replace("\n", ",").split(",")[:-1]),
                         dtype=float)
    return header, values.reshape(-1, len(header))


def _law_yaml(B: float, C: float) -> str:
    return f"{{kind: exponential, B: {_num(B)}, C: {_num(C)}}}"


def _fung_yaml(c: float, q1: float, q2: float, terms: int = 64) -> str:
    return (f"{{kind: fung, c: {_num(c)}, q1: {_num(q1)}, q2: {_num(q2)}, "
            f"prony_terms: {terms}}}")


def _fung_prony(c: float, q1: float, q2: float, n: int):
    """Normalized midpoint-in-log-q discretization of the c/q spectrum:
    equal weights c*du on n log-spaced cells of [q1, q2]."""
    du = (math.log(q2) - math.log(q1)) / n
    q = np.exp(math.log(q1) + (np.arange(n) + 0.5) * du)
    denom = 1.0 + n * c * du
    return 1.0 / denom, np.full(n, c * du / denom), 1.0 / q


def _exp_stress(B: float, C: float, green: np.ndarray) -> np.ndarray:
    return (C / B) * np.expm1(B * (np.sqrt(2.0 * green + 1.0) - 1.0))


# ---------------------------------------------------------------- sweep

SWEEP_W = np.logspace(-1.0, 1.0, 9)
SWEEP_NPS = 256


def sweep_oracle_h(B, C, c, q1, q2, mean, amp, w, nps=SWEEP_NPS):
    """Periodic steady-state hysteresis ratio by FFT.

    One period of the elastic stress is transformed, multiplied by the
    complex modulus K + sum a*iw/(f + iw) of the 64-term Prony kernel at
    each harmonic, and transformed back; the loop is measured like the
    library does (shoelace loop area over the loading-branch area).
    """
    K, a, f = _fung_prony(c, q1, q2, 64)
    t = np.arange(nps) * (2.0 * math.pi / w) / nps
    green = mean + 0.5 * amp * (1.0 - np.cos(w * t))
    te = _exp_stress(B, C, green)
    wk = w * np.arange(nps // 2 + 1)
    modulus = K + np.sum(a[:, None] * 1j * wk / (f[:, None] + 1j * wk), axis=0)
    stress = np.fft.irfft(np.fft.rfft(te) * modulus, n=nps)
    top = nps // 2
    x = np.concatenate([green[:top + 1], green[top:], green[:1]])
    y = np.concatenate([stress[:top + 1], stress[top:], stress[:1]])
    loop = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    load_y = np.maximum(stress[:top + 1], 0.0)
    load_x = green[:top + 1]
    loading = float(np.sum(0.5 * (load_y[1:] + load_y[:-1]) * np.diff(load_x)))
    return loop / loading


def _sweep(rng, d: str) -> Workload:
    B, C = _draw(rng, 8.0, 12.0), _draw(rng, 1.5, 2.5)
    c, q1, q2 = _draw(rng, 0.3, 0.7), _draw(rng, 0.005, 0.02), \
        _draw(rng, 50.0, 100.0)
    mean, amp = _draw(rng, 0.2, 0.3), _draw(rng, 0.04, 0.06)
    cfg, out = os.path.join(d, "sweep.yaml"), os.path.join(d, "h.csv")
    with open(cfg, "w") as fh:
        fh.write(f"""model:
  elastic: {_law_yaml(B, C)}
  kernel: {_fung_yaml(c, q1, q2)}
protocol:
  kind: cyclic
  mean: {_num(mean)}
  amplitude: {_num(amp)}
  angular_frequency: 1.0
  cycles: 5
  samples_per_cycle: {SWEEP_NPS}
  max_cycles: 4000
  settle_time: 1000.0
sweep: {{start: 0.1, stop: 10.0, count: {SWEEP_W.size}}}
output: {{path: {out}, stride: 1, precision: 17}}
""")
    oracle = np.array([sweep_oracle_h(B, C, c, q1, q2, mean, amp, w)
                       for w in SWEEP_W])

    def check():
        header, data = _read_csv(out)
        if header != ["frequency", "H"] or data.shape != (SWEEP_W.size, 2):
            raise CheckFailed(f"sweep: unexpected table {header} {data.shape}")
        if not np.allclose(data[:, 0], SWEEP_W, rtol=1e-12, atol=0.0):
            raise CheckFailed("sweep: frequencies differ from the sweep grid")
        h = data[:, 1]
        if not (np.all(np.isfinite(h)) and np.all(h > 0) and np.all(h < 1)):
            raise CheckFailed(f"sweep: H outside (0, 1): {h}")
        err = float(np.max(np.abs(h - oracle) / oracle))
        if err > 1e-3:
            raise CheckFailed(f"sweep: H differs from the FFT steady state "
                              f"by {err:.3g} relative (limit 1e-3)")
        return {"sweep.h_rel_err": err}

    return Workload(ops=[["sweep", "--config", cfg, "--out", out]],
                    config=cfg, outputs=[out], check=check,
                    sizes={"frequencies": int(SWEEP_W.size),
                           "samples_per_cycle": SWEEP_NPS,
                           "settle_time": 1000.0, "prony_terms": 64})


# ---------------------------------------------------------------- creep

CREEP_DT, CREEP_STEPS = 0.01, 1000


def _creep(rng, d: str) -> Workload:
    B, C = _draw(rng, 8.0, 12.0), _draw(rng, 1.5, 2.5)
    c, q1, q2 = _draw(rng, 0.3, 0.7), _draw(rng, 0.005, 0.02), \
        _draw(rng, 50.0, 100.0)
    load = _draw(rng, 0.5, 1.5)
    cfg, out = os.path.join(d, "creep.yaml"), os.path.join(d, "creep.csv")
    with open(cfg, "w") as fh:
        fh.write(f"""model:
  elastic: {_law_yaml(B, C)}
  kernel: {_fung_yaml(c, q1, q2)}
protocol: {{kind: creep, hold_stress: {_num(load)}, duration: \
{_num(CREEP_DT * CREEP_STEPS)}, dt: {_num(CREEP_DT)}}}
output: {{path: {out}, stride: 1, precision: 17}}
""")
    from qlvsim.config import load_config
    from qlvsim.qlv import StrainHistory, qlv_stress_fast
    model = load_config(cfg).model

    def check():
        header, data = _read_csv(out)
        if header != ["time", "green_strain", "stretch"] \
                or data.shape[0] != CREEP_STEPS + 1:
            raise CheckFailed(f"creep: unexpected table {header} {data.shape}")
        history = StrainHistory(times=data[:, 0], values=data[:, 1],
                                measure="green")
        stress = qlv_stress_fast(model, history).values
        err = float(np.max(np.abs(stress - load)) / load)
        if not err <= 1e-8:
            raise CheckFailed(f"creep: strain reproduces the held stress "
                              f"only to {err:.3g} relative (limit 1e-8)")
        return {"creep.stress_rel_err": err}

    return Workload(ops=[["creep", "--config", cfg, "--out", out]],
                    config=cfg, outputs=[out], check=check,
                    sizes={"steps": CREEP_STEPS, "dt": CREEP_DT,
                           "prony_terms": 64})


# -------------------------------------------------------------- network

NET_N, NET_STEPS, NET_DT, NET_STRIDE = 100, 1000, 0.005, 10


def _matrix_yaml(m: np.ndarray) -> str:
    return "[" + ",\n    ".join(
        "[" + ", ".join(_num(x) for x in row) + "]" for row in m) + "]"


def _network(rng, d: str) -> Workload:
    n = NET_N
    masses = np.array([_draw(rng, 0.5, 2.0) for _ in range(n)])
    links = np.array([_draw(rng, 0.5, 2.0) for _ in range(n)])
    # fixed-free chain: link 0 ties mass 0 to the wall, link i ties i-1 to i
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] = links[i] + (links[i + 1] if i + 1 < n else 0.0)
        if i + 1 < n:
            K[i, i + 1] = K[i + 1, i] = -links[i + 1]
    damping = np.diag([_draw(rng, 0.01, 0.05) for _ in range(n)])
    kernel_at = sorted(rng.choice(n, size=n // 10, replace=False).tolist())
    kernels = []
    for i in kernel_at:
        amps = [_draw(rng, 0.05, 0.2), _draw(rng, 0.05, 0.2)]
        freqs = [_draw(rng, 0.5, 1.5), _draw(rng, 3.0, 6.0)]
        kernels.append(f"{{i: {i}, j: {i}, K: {_num(K[i, i])}, amplitudes: "
                       f"[{_num(amps[0])}, {_num(amps[1])}], frequencies: "
                       f"[{_num(freqs[0])}, {_num(freqs[1])}]}}")
    spring_at = sorted(rng.choice(n - 1, size=n // 20, replace=False).tolist())
    spring_bc = [(_draw(rng, 2.0, 5.0), _draw(rng, 0.01, 0.05))
                 for _ in spring_at]
    springs = [f"{{i: {i}, j: {i + 1}, B: {_num(b)}, C: {_num(c)}, "
               "rest_length: 1.0}" for i, (b, c) in zip(spring_at, spring_bc)]
    tip = [0.0] * (n - 1) + [_draw(rng, 0.05, 0.15)]
    w = _draw(rng, 0.5, 2.0)
    cfg, out = os.path.join(d, "network.yaml"), os.path.join(d, "net.csv")
    with open(cfg, "w") as fh:
        fh.write(f"""network:
  masses: [{", ".join(_num(x) for x in masses)}]
  stiffness: {_matrix_yaml(K)}
  damping: {_matrix_yaml(damping)}
  kernels: [{", ".join(kernels)}]
  springs: [{", ".join(springs)}]
  kernels_replace_damping: false
  force: {{kind: sinusoid, amplitudes: [{", ".join(_num(x) for x in tip)}], \
angular_frequency: {_num(w)}}}
  duration: {_num(NET_STEPS * NET_DT)}
  dt: {_num(NET_DT)}
output: {{path: {out}, stride: {NET_STRIDE}, precision: 17}}
""")
    rows = NET_STEPS // NET_STRIDE + 1

    def check():
        header, data = _read_csv(out)
        if data.shape != (rows, 1 + 2 * n + 4):
            raise CheckFailed(f"network: {data.shape[0]} rows x "
                              f"{data.shape[1]} columns, expected {rows} x "
                              f"{1 + 2 * n + 4}")
        col = {name: data[:, i] for i, name in enumerate(header)}
        # the library's elastic column is q.K.q/2 only; the strain energy
        # of the exponential springs, int T d(elongation), is added here
        springs = np.zeros(rows)
        for i, (b, c) in zip(spring_at, spring_bc):
            x = b * (col[f"q{i}"] - col[f"q{i + 1}"])
            springs += (c / b) * (np.expm1(x) - x) / b
        terms = [col["kinetic"], col["elastic"] + springs,
                 col["external_work"], col["dissipation"]]
        balance = terms[0] + terms[1] - terms[2] + terms[3]
        scale = max(float(np.max(np.abs(t))) for t in terms)
        drift = float(np.max(np.abs(balance - balance[0]))) / scale
        if not (scale > 0 and drift <= 1e-4):
            raise CheckFailed(f"network: energy balance drifts by {drift:.3g} "
                              "of the largest term (limit 1e-4)")
        return {"network.energy_drift": drift}

    return Workload(ops=[["simulate", "--config", cfg, "--out", out]],
                    config=cfg, outputs=[out], check=check,
                    sizes={"n": n, "steps": NET_STEPS, "stride": NET_STRIDE,
                           "matrix_entries": 2 * n * n,
                           "memory_kernels": len(kernels),
                           "springs": len(springs),
                           "yaml_bytes": os.path.getsize(cfg)})


# ------------------------------------------------------------- relax_io

RELAX_DT, RELAX_ROWS, FIT_TERMS = 0.01, 100_000, 8


def _relax_io(rng, d: str) -> Workload:
    B, C = _draw(rng, 8.0, 12.0), _draw(rng, 1.5, 2.5)
    c, q1, q2 = _draw(rng, 0.3, 0.7), _draw(rng, 0.005, 0.02), \
        _draw(rng, 80.0, 120.0)
    strain = _draw(rng, 0.05, 0.15)
    cfg = os.path.join(d, "relax.yaml")
    out, fit = os.path.join(d, "relax.csv"), os.path.join(d, "fit.txt")
    with open(cfg, "w") as fh:
        fh.write(f"""model:
  elastic: {_law_yaml(B, C)}
  kernel: {_fung_yaml(c, q1, q2)}
protocol: {{kind: relaxation, hold_strain: {_num(strain)}, duration: \
{_num(RELAX_DT * RELAX_ROWS)}, dt: {_num(RELAX_DT)}}}
output: {{path: {out}, stride: 1, precision: 17}}
""")
    from qlvsim.config import load_config
    from qlvsim.protocols import run_relaxation
    run = load_config(cfg)
    expected, _ = run_relaxation(run.protocol, run.model)
    want = np.column_stack([expected.times] + list(expected.columns.values()))
    want_header = ["time"] + list(expected.columns)

    def check():
        header, data = _read_csv(out)
        if header != want_header or data.shape != want.shape \
                or not np.array_equal(data, want):
            raise CheckFailed("relax_io: the CSV read back differs from the "
                              "in-memory series")
        with open(fit) as fh:
            lines = dict(line.split(" = ", 1) for line in fh.read().splitlines()
                         if " = " in line)
        err = float(lines["residual"])
        if not err <= 0.01:
            raise CheckFailed(f"relax_io: fit max_error {err:.3g} > 0.01")
        return {"relax_io.fit_max_error": err}

    return Workload(ops=[["relax", "--config", cfg, "--out", out],
                         ["fit", "spectrum", out, "--terms", str(FIT_TERMS),
                          "--out", fit]],
                    config=cfg, outputs=[out, fit], check=check,
                    sizes={"rows": RELAX_ROWS + 1, "columns": 3,
                           "fit_terms": FIT_TERMS})


WORKLOADS = {"sweep": _sweep, "creep": _creep, "network": _network,
             "relax_io": _relax_io}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
