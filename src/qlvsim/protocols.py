"""Virtual mechanical test protocols and parameter fitting.

Tensile, creep, relaxation and cyclic tests with metric extraction
(Young's modulus, offset yield, ultimate stress, fracture energy, creep and
relaxation rates, hysteresis ratio), plus identification of the exponential
tensile law and of discrete relaxation spectra from sampled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constitutive import ExponentialTensileLaw
from .errors import DomainError, FitError, check_bounds, check_range
from .kernels import (_BLOCK_ROWS, SIZE_BUDGET, KelvinParams, MaxwellParams,
                      PronySpectrum, VoigtParams, grid_steps, kernel_to_prony,
                      periodic_force_history, prony_step, time_grid)
from .qlv import QlvModel, StrainHistory, hysteresis_ratio, qlv_stress_fast


# the fields each protocol kind reads; the others keep their defaults
PROTOCOL_FIELDS = {"tensile": ("duration", "dt", "stretch_rate"),
                   "creep": ("duration", "dt", "hold_stress"),
                   "relaxation": ("duration", "dt", "hold_strain"),
                   "cyclic": ("amplitude", "mean", "angular_frequency",
                              "cycles", "samples_per_cycle")}


def check_period(w: float, cycles: int = 1, samples: int = 1) -> None:
    """DomainError if cycles periods of 2*pi/w, run_cyclic's grid, overflow."""
    if math.isinf(cycles * samples * (2.0 * math.pi / w / samples)):
        raise DomainError(f"{cycles} x period 2*pi/w overflows, got w = {w}")


@dataclass(frozen=True)
class ProtocolSpec:
    """Drive definition for a virtual test.

    kind: "tensile" | "creep" | "relaxation" | "cyclic".
    tensile uses ``stretch_rate``; creep holds ``hold_stress``; relaxation
    holds ``hold_strain`` (Green strain); these sample the ``dt`` grid over
    ``duration`` that :func:`qlvsim.kernels.grid_steps` checks.  cyclic
    drives the Green strain as ``mean + amplitude*(1 - cos(w t))/2``,
    samples its periodic steady state at ``samples_per_cycle`` points per
    period and writes ``cycles`` periods of it.  A positive ``mean`` keeps
    the stress positive through the whole cycle so the hysteresis
    denominator is not clipped at zero.
    """

    kind: str
    duration: float = 0.0
    dt: float = 0.0
    stretch_rate: float = 0.0
    hold_stress: float = 0.0
    hold_strain: float = 0.0
    amplitude: float = 0.0
    mean: float = 0.0
    angular_frequency: float = 0.0
    cycles: int = 0
    samples_per_cycle: int = 512

    def __post_init__(self):
        if self.kind not in PROTOCOL_FIELDS:
            raise DomainError(f"protocol kind must be one of "
                              f"{tuple(PROTOCOL_FIELDS)}, got {self.kind!r}")
        check_bounds(self, "hold_stress", "hold_strain")
        if self.kind == "cyclic":
            check_bounds(self, "amplitude", "angular_frequency", low=0)
            check_bounds(self, "mean", low=0, strict=False)
            check_bounds(self, "cycles", low=1, strict=False, integer=True)
            check_bounds(self, "samples_per_cycle", low=2, strict=False,
                         integer=True)
            check_range("cycles*samples_per_cycle",
                        self.cycles * self.samples_per_cycle, high=SIZE_BUDGET)
            check_period(self.angular_frequency, self.cycles,
                         self.samples_per_cycle)
        else:
            grid_steps(self.duration, self.dt)
            if self.kind == "tensile":
                check_bounds(self, "stretch_rate", low=0)


@dataclass(frozen=True)
class Series:
    """Named sampled channels over a common time grid."""

    times: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        cols = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        object.__setattr__(self, "columns", cols)
        for name, col in cols.items():
            if col.shape != t.shape:
                raise DomainError(f"column {name!r} length mismatch")


@dataclass(frozen=True)
class TestReport:
    """Metrics extracted from a simulated protocol; ``hysteresis_H`` is
    the hysteresis ratio of a cyclic test's periodic steady-state cycle."""

    youngs_modulus: float | None = None
    yield_stress: float | None = None
    uts: float | None = None
    fracture_energy: float | None = None
    creep_rate: np.ndarray | None = None
    relaxation_rate: np.ndarray | None = None
    relaxation_asymptote: float | None = None
    hysteresis_H: float | None = None

    def __post_init__(self):
        if (self.uts is not None and self.yield_stress is not None
                and self.uts < self.yield_stress - 1e-12 * abs(self.uts)):
            raise DomainError("ultimate stress below yield stress")
        if self.fracture_energy is not None and self.fracture_energy < -1e-15:
            raise DomainError("fracture energy must be >= 0")


def _youngs_modulus(strain: np.ndarray, stress: np.ndarray) -> float | None:
    """Least-squares slope over the initial 1% strain window."""
    window = strain <= strain[0] + 0.01
    if window.sum() < 2:
        window = np.zeros_like(strain, dtype=bool)
        window[:2] = True
    x = strain[window]
    y = stress[window]
    denom = np.sum((x - x.mean()) ** 2)
    if denom == 0:
        return None
    return float(np.sum((x - x.mean()) * (y - y.mean())) / denom)


def _offset_yield(strain: np.ndarray, stress: np.ndarray,
                  modulus: float | None, offset: float = 0.002) -> float | None:
    """Stress where the curve meets the offset line E*(strain - offset).

    Returns None when no intersection exists within the record."""
    if modulus is None or modulus <= 0:
        return None
    gap = stress - modulus * (strain - offset)
    # at the origin the line is below the curve (gap > 0); yield is the
    # first downward crossing
    crossings = np.flatnonzero((gap[1:] <= 0) & (gap[:-1] > 0))
    if not crossings.size:
        return None
    i = crossings[0] + 1
    w = gap[i - 1] / (gap[i - 1] - gap[i])
    return float(stress[i - 1] + w * (stress[i] - stress[i - 1]))


def run_tensile(spec: ProtocolSpec, model: QlvModel) -> tuple[Series, TestReport]:
    """Constant-rate stretch test with stress from the fast QLV evaluator.

    Metrics are extracted on the Green-strain axis.
    """
    if spec.kind != "tensile":
        raise DomainError(f"expected a tensile spec, got {spec.kind!r}")
    t = time_grid(spec.duration, spec.dt)
    stretch = 1.0 + spec.stretch_rate * t
    history = StrainHistory(times=t, values=stretch, measure="stretch")
    stress = qlv_stress_fast(model, history).values
    green = history.green()

    modulus = _youngs_modulus(green, stress)
    yield_stress = _offset_yield(green, stress, modulus)
    uts = float(stress.max())
    fracture_energy = float(np.trapezoid(stress, green))
    series = Series(times=t, columns={"stretch": stretch, "green_strain": green,
                                      "stress": stress})
    report = TestReport(youngs_modulus=modulus, yield_stress=yield_stress,
                        uts=uts, fracture_energy=fracture_energy)
    return series, report


def run_creep(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Hold a constant load and record the deformation.

    For QLV specimens the hereditary relation is linear in the elastic
    stress T_e, so the T_e history is solved step by step through the Prony
    recursion, with its decay and gain taken once, without reference to the
    elastic law; the Green strain then follows in one call to the law's
    ``green_at_stress``.  Classical elements (Maxwell, Voigt, Kelvin)
    integrate their force-deflection equation with the trapezoidal rule;
    their deformation channel is the element deflection.
    """
    if spec.kind != "creep":
        raise DomainError(f"expected a creep spec, got {spec.kind!r}")
    t = time_grid(spec.duration, spec.dt)
    load = spec.hold_stress

    if isinstance(model, (MaxwellParams, VoigtParams, KelvinParams)):
        u = _element_creep(model, t, load)
        series = Series(times=t, columns={"deformation": u})
        # the grid's own step: gradient's dx1*(dx1 + dx2) of t underflows
        return series, TestReport(creep_rate=np.gradient(u, t[1] - t[0]))

    if load == 0.0:
        green = np.zeros_like(t)
    else:
        prony = model.prony
        dt = t[1] - t[0]
        decay = prony_step(prony, 1.0, dt, 0.0)
        gain = prony_step(prony, 0.0, dt, 1.0)
        gsum = float(gain.sum())
        if not (stiff := prony.K + gsum):   # a float division would raise
            raise DomainError(f"creep: K + sum of step gains is 0 at dt {dt}")
        te = np.empty_like(t)
        # initial step: stress = g(0) * T_e = T_e
        te[0] = prev = load
        h = np.asarray(prony.amplitudes) * load
        gain_dx = np.empty_like(h)
        for i in range(1, t.size):
            # the step is linear in (h, increment): decay the memory in
            # place, then solve K*te_i + sum(h) + gsum*(te_i - prev) = load
            np.multiply(decay, h, out=h)
            te[i] = cur = (load - float(np.add.reduce(h)) + gsum * prev) / stiff
            h += np.multiply(gain, cur - prev, out=gain_dx)
            prev = cur
        green = model.elastic.green_at_stress(te)
    series = Series(times=t, columns={"green_strain": green,
                                      "stretch": np.sqrt(2 * green + 1.0)})
    return series, TestReport(creep_rate=np.gradient(green, t[1] - t[0]))


def _trapezoid(u0: float, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """Trapezoidal integration of du/dt = b - a*u from u(0) = u0 over the
    uniform grid ``t``; each step is implicit and linear."""
    u = np.empty_like(t)
    u[0] = u0
    dt = t[1] - t[0]
    for i in range(1, t.size):
        u[i] = ((1 - 0.5 * dt * a) * u[i - 1] + dt * b) / (1 + 0.5 * dt * a)
    return u


def _element_creep(element, t: np.ndarray, load: float) -> np.ndarray:
    """Trapezoidal integration of the element deflection under constant load."""
    if isinstance(element, MaxwellParams):
        # du/dt = F/eta after the initial elastic jump F/mu
        return _trapezoid(load / element.mu, 0.0, load / element.eta, t)
    if isinstance(element, VoigtParams):
        # du/dt = (F - mu u)/eta, u(0) = 0
        return _trapezoid(0.0, element.mu / element.eta, load / element.eta,
                          t)
    # Kelvin: E_R tau_sigma du/dt = F - E_R u (constant F), u(0) from the
    # initial condition tau_eps F = E_R tau_sigma u
    scale = element.E_R * element.tau_sigma
    return _trapezoid(element.tau_eps * load / scale, 1.0 / element.tau_sigma,
                      load / scale, t)


def _element_relaxation(element, t: np.ndarray) -> np.ndarray:
    """Trapezoidal integration of the element force under unit deflection."""
    if isinstance(element, MaxwellParams):
        # dF/dt = -mu F / eta after the elastic jump F(0) = mu, stepped as
        # F *= (1 - dt a/2)/(1 + dt a/2), which rounds unlike _trapezoid
        a, dt = element.mu / element.eta, t[1] - t[0]
        ratio = (1 - 0.5 * dt * a) / (1 + 0.5 * dt * a)
        return np.cumprod(np.r_[element.mu, np.full(t.size - 1, ratio)])
    if isinstance(element, VoigtParams):
        # regular part only; the impulsive term lives at t = 0
        return np.full_like(t, element.mu)
    # Kelvin: tau_eps dF/dt = E_R u - F, u = 1, F(0) = E_R tau_sigma/tau_eps
    return _trapezoid(element.E_R * element.tau_sigma / element.tau_eps,
                      1.0 / element.tau_eps, element.E_R / element.tau_eps, t)


def run_relaxation(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Step deformation held constant; stress recorded over time.

    QLV specimens factorize exactly: stress(t) = G(t) * T_e(E0).  Classical
    elements integrate their governing equation under unit-held deflection
    scaled by the hold strain.
    """
    if spec.kind != "relaxation":
        raise DomainError(f"expected a relaxation spec, got {spec.kind!r}")
    t = time_grid(spec.duration, spec.dt)

    if isinstance(model, (MaxwellParams, VoigtParams, KelvinParams)):
        stress = spec.hold_strain * _element_relaxation(model, t)
        asymptote = float(stress[-1]) if isinstance(model, MaxwellParams) \
            else spec.hold_strain * (model.mu if isinstance(model, VoigtParams)
                                     else model.E_R)
        normalized = stress / stress[0] if stress[0] != 0 else stress
    else:
        te0 = float(model.elastic.stress_green(spec.hold_strain))
        g = model.relaxation.value(t)
        stress = g * te0
        asymptote = model.relaxation.long_time_limit * te0
        normalized = g if te0 != 0 else stress
    series = Series(times=t, columns={"stress": stress,
                                      "normalized_stress": np.asarray(normalized)})
    report = TestReport(relaxation_rate=np.gradient(stress, t[1] - t[0]),
                        relaxation_asymptote=asymptote)
    return series, report


def _steady_cycles(spec: ProtocolSpec, model, freqs: np.ndarray):
    """(strain, stress) of the cyclic drive's steady state, one row of
    samples_per_cycle samples (closing sample excluded) per angular frequency
    in ``freqs``, in one filter pass.  Row f's times are i*dt, dt =
    period/samples_per_cycle, whatever ``cycles``: run_cyclic's grid."""
    nps = spec.samples_per_cycle
    dt = 2.0 * math.pi / freqs[:, None] / nps
    t = np.arange(nps) * dt
    strain = spec.mean + 0.5 * spec.amplitude * (
        1.0 - np.cos(freqs[:, None] * t))
    if isinstance(model, VoigtParams):
        rate = (np.roll(strain, -1, 1) - np.roll(strain, 1, 1)) / (2.0 * dt)
        return strain, model.mu * strain + model.eta * rate
    if isinstance(model, (MaxwellParams, KelvinParams)):
        prony = kernel_to_prony(model)
        scale = (model.mu if isinstance(model, MaxwellParams)
                 else model.E_R * model.tau_sigma / model.tau_eps)
        raw = PronySpectrum(K=prony.K * scale,
                            amplitudes=tuple(a * scale for a in prony.amplitudes),
                            frequencies=prony.frequencies)
        return strain, periodic_force_history(raw, dt, strain)
    try:
        te = model.elastic.stress_green(strain)
    except DomainError:     # the bisection names the first failing sample
        model.elastic_stress(StrainHistory(times=t[0], values=strain[0]))
        raise
    return strain, periodic_force_history(model.prony, dt, te)


def run_cyclic(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Sinusoidal strain cycling in the periodic steady state.

    The Green strain is driven as mean + amplitude*(1 - cos(w t))/2.  The
    stress is the exact periodic steady state of that drive (see
    :func:`qlvsim.kernels.periodic_force_history`), computed over one
    period of ``samples_per_cycle`` samples; the hysteresis ratio is taken
    from that cycle.  The series tiles the steady cycle for ``cycles``
    periods plus the closing sample: ``cycles*samples_per_cycle + 1`` rows
    at times i*dt, dt = period/samples_per_cycle, starting at the strain
    minimum.
    """
    if spec.kind != "cyclic":
        raise DomainError(f"expected a cyclic spec, got {spec.kind!r}")
    w, nps, cycles = spec.angular_frequency, spec.samples_per_cycle, \
        spec.cycles
    (strain,), (stress,) = _steady_cycles(spec, model, np.array([w]))
    t = np.arange(cycles * nps + 1) * (2.0 * math.pi / w / nps)
    strain, stress = (np.append(np.tile(a, cycles), a[0])
                      for a in (strain, stress))
    report = TestReport(hysteresis_H=_loop_hysteresis(strain[:nps + 1],
                                                      stress[:nps + 1]))
    series = Series(times=t, columns={"green_strain": strain,
                                      "stress": stress})
    return series, report


def _loop_hysteresis(strain: np.ndarray, stress: np.ndarray) -> float:
    """Hysteresis ratio of one cycle, closing sample included.  The cycle
    must start at its strain minimum, as run_cyclic's drive does: it loads
    up to its strain maximum and unloads back."""
    top = int(np.argmax(strain[:-1]))
    return hysteresis_ratio(strain[:top + 1], stress[:top + 1],
                            strain[top:], stress[top:])


def frequency_sweep(spec: ProtocolSpec, model,
                    angular_frequencies) -> tuple[np.ndarray, np.ndarray]:
    """Run the cyclic protocol at each frequency; returns (frequencies, H).

    Each pass builds one period for a block of frequencies, at most
    4*_BLOCK_ROWS samples and SIZE_BUDGET filter states, whatever ``cycles``
    and the count.  A failing pass runs again one frequency at a time, so
    the first failing frequency raises its own error."""
    freqs = check_range("angular frequencies", angular_frequencies, low=0)
    check_period(float(freqs.min(initial=np.inf)))    # the longest period
    terms = len(model.prony.amplitudes) if isinstance(model, QlvModel) else 1
    block = max(1, min(4 * _BLOCK_ROWS, SIZE_BUDGET // max(terms, 1))
                // spec.samples_per_cycle)

    def pass_h(ws):
        try:
            rows = zip(*_steady_cycles(spec, model, ws))
        except (DomainError, FloatingPointError):
            rows = (row for i in range(ws.size) for row in
                    zip(*_steady_cycles(spec, model, ws[i:i + 1])))
        return [_loop_hysteresis(np.append(x, x[0]), np.append(y, y[0]))
                for x, y in rows]

    return freqs, np.array([h for start in range(0, freqs.size, block)
                            for h in pass_h(freqs[start:start + block])])


def fit_exponential_law(stretch, stress) -> tuple[ExponentialTensileLaw, dict]:
    """Identify (B, C) of the exponential tensile law from samples.

    Finite-difference slopes are regressed linearly against the stress to
    seed (B, C), then refined by Gauss-Newton on the closed-form law (at
    most 100 iterations, stopping when the relative parameter change drops
    below 1e-10).  Returns the law and fit diagnostics.
    """
    if (n := np.size(stretch)) < 3:
        raise DomainError(f"need at least 3 samples, got {n}")
    lam = check_range("stretch", stretch, increasing=True)
    T = check_range("stress", stress)
    if T.shape != lam.shape:
        raise DomainError("stretch and stress must have equal lengths, "
                          f"got {lam.size} and {T.size}")
    if np.allclose(T, T[0]):
        raise FitError("stress samples are constant; the slope regression "
                       "is singular")

    slopes = np.gradient(T, lam)
    tm, sm = T.mean(), slopes.mean()
    denom = np.sum((T - tm) ** 2)
    b0 = float(np.sum((T - tm) * (slopes - sm)) / denom)
    c0 = float(sm - b0 * tm)
    if c0 <= 0:
        c0 = max(abs(sm), 1e-12)

    def model_and_jac(b, c):
        x = lam - 1.0
        if abs(b) < 1e-12:
            t_hat = c * x * (1.0 + 0.5 * b * x)
            d_db = c * x * x / 2.0
            d_dc = x * (1.0 + 0.5 * b * x)
            return t_hat, d_db, d_dc
        e = np.expm1(b * x)
        t_hat = (c / b) * e
        d_dc = e / b
        d_db = (c / b) * (x * (e + 1.0)) - (c / (b * b)) * e
        return t_hat, d_db, d_dc

    b, c = b0, c0
    n_iter = 0
    for n_iter in range(1, 101):
        t_hat, d_db, d_dc = model_and_jac(b, c)
        r = T - t_hat
        J = np.column_stack([d_db, d_dc])
        try:
            delta, *_ = np.linalg.lstsq(J, r, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"Gauss-Newton step failed: {exc}") from exc
        b_new, c_new = b + float(delta[0]), c + float(delta[1])
        change = math.hypot(b_new - b, c_new - c) / max(math.hypot(b, c), 1e-300)
        b, c = b_new, c_new
        if change < 1e-10:
            break
    t_hat, *_ = model_and_jac(b, c)
    residual = float(np.linalg.norm(T - t_hat))
    diagnostics = {"iterations": n_iter, "residual_norm": residual,
                   "initial_B": b0, "initial_C": c0}
    if c <= 0:
        raise FitError(f"fit produced non-positive C = {c}")
    law = ExponentialTensileLaw(B=max(b, 1e-12), C=c)
    diagnostics["B"] = b
    diagnostics["C"] = c
    return law, diagnostics


def check_fit_terms(rows: int, n_terms: int) -> None:
    """Check a spectrum fit's term count, and its rows x (n_terms + 1)
    design matrix against SIZE_BUDGET, before anything is allocated."""
    check_range("term count", n_terms, low=1, strict=False, integer=True)
    check_range("rows x (terms + 1)", rows * (n_terms + 1), high=SIZE_BUDGET)


def fit_relaxation_spectrum(times, values, n_terms: int,
                            frequencies=None) -> tuple[PronySpectrum, dict]:
    """Non-negative least squares fit of a Prony series to normalized
    relaxation data.

    The series must start at (0, 1) and be non-increasing.  Candidate
    frequencies default to ``n_terms`` log-spaced values spanning the
    observed time range; explicit frequencies may be supplied instead.
    The equilibrium coefficient K is fitted as the zero-frequency column.
    """
    t = check_range("times", times, increasing=True)
    g = check_range("values", values)
    if t.size < 2 or g.shape != t.shape:
        raise DomainError("need matching time and value arrays with >= 2 samples")
    check_fit_terms(t.size, n_terms)
    if t[0] != 0.0 or abs(g[0] - 1.0) > 1e-9:
        raise DomainError("relaxation series must start at (0, 1); "
                          "normalize before fitting")
    if np.any(np.diff(g) > 1e-9):
        raise DomainError("relaxation series must be non-increasing")

    if frequencies is None:
        t_pos = t[t > 0]
        freqs = np.logspace(np.log10(1.0 / t_pos.max()),
                            np.log10(1.0 / t_pos.min()), n_terms)
    else:
        freqs = check_range("frequencies", frequencies)
        if freqs.size != n_terms:
            raise DomainError("frequencies length must equal n_terms")
    freqs = np.sort(freqs)

    from scipy.optimize import nnls     # lazy: importing it costs ~0.6 s
    A = np.multiply.outer(t, np.append(-0.0, -freqs))   # [1, exp(-t f)]
    for block in np.split(A, range(_BLOCK_ROWS, len(A), _BLOCK_ROWS)):
        np.putmask(block, block < -746.0, -np.inf)  # +0.0 either way, but fast
    np.exp(A, out=A)
    coeffs, _ = nnls(A, g)
    max_err = float(np.max(np.abs(A @ coeffs - g)))
    return PronySpectrum(K=float(coeffs[0]), amplitudes=tuple(coeffs[1:]),
                         frequencies=tuple(freqs)), {"max_error": max_err}
