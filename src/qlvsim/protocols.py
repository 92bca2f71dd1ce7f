"""Virtual mechanical test protocols and parameter fitting.

Tensile, creep, relaxation and cyclic tests with metric extraction
(Young's modulus, offset yield, ultimate stress, fracture energy, creep and
relaxation rates, hysteresis ratio), plus identification of the exponential
tensile law and of discrete relaxation spectra from sampled data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import nnls

from .constitutive import ExponentialTensileLaw
from .errors import DomainError, FitError
from .kernels import (KelvinParams, MaxwellParams, PronySpectrum, VoigtParams,
                      kernel_to_prony, periodic_force_history, prony_step)
from .qlv import QlvModel, StrainHistory, hysteresis_ratio, qlv_stress_fast


@dataclass(frozen=True)
class ProtocolSpec:
    """Drive definition for a virtual test.

    kind: "tensile" | "creep" | "relaxation" | "cyclic".
    tensile uses ``stretch_rate``; creep holds ``hold_stress``; relaxation
    holds ``hold_strain`` (Green strain); cyclic drives the Green strain as
    ``mean + amplitude*(1 - cos(w t))/2`` and samples its periodic steady
    state at ``samples_per_cycle`` points per period; ``cycles`` is the
    number of steady-state periods written out (cyclic ignores ``duration``
    and ``dt``).  A positive ``mean`` keeps the stress positive through the
    whole cycle so the hysteresis denominator is not clipped at zero.
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
        kinds = ("tensile", "creep", "relaxation", "cyclic")
        if self.kind not in kinds:
            raise DomainError(f"protocol kind must be one of {kinds}, "
                              f"got {self.kind!r}")
        if self.kind == "cyclic":
            if self.amplitude <= 0 or self.angular_frequency <= 0:
                raise DomainError("cyclic drive needs amplitude > 0 and "
                                  "angular_frequency > 0")
            if self.cycles < 1 or self.samples_per_cycle < 2:
                raise DomainError("cyclic drive needs cycles >= 1 and "
                                  "samples_per_cycle >= 2")
            if self.mean < 0:
                raise DomainError("cyclic mean strain must be >= 0")
        else:
            if self.dt <= 0:
                raise DomainError(f"dt must be > 0, got {self.dt}")
            if self.duration <= 0:
                raise DomainError("protocol needs duration > 0")


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
    creep_rate_times: np.ndarray | None = None
    creep_rate: np.ndarray | None = None
    relaxation_rate_times: np.ndarray | None = None
    relaxation_rate: np.ndarray | None = None
    relaxation_asymptote: float | None = None
    hysteresis_H: float | None = None
    strain_convention: str = "green"

    def __post_init__(self):
        if (self.uts is not None and self.yield_stress is not None
                and self.uts < self.yield_stress - 1e-12 * abs(self.uts)):
            raise DomainError("ultimate stress below yield stress")
        if self.fracture_energy is not None and self.fracture_energy < -1e-15:
            raise DomainError("fracture energy must be >= 0")


def _time_grid(duration: float, dt: float) -> np.ndarray:
    n = int(round(duration / dt))
    if n < 1:
        raise DomainError("duration and dt produce an empty series")
    return np.linspace(0.0, n * dt, n + 1)


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
    for i in range(1, strain.size):
        if gap[i] <= 0 < gap[i - 1]:
            w = gap[i - 1] / (gap[i - 1] - gap[i])
            return float(stress[i - 1] + w * (stress[i] - stress[i - 1]))
    return None


def run_tensile(spec: ProtocolSpec, model: QlvModel) -> tuple[Series, TestReport]:
    """Constant-rate stretch test with stress from the fast QLV evaluator.

    Metrics are extracted on the Green-strain axis.
    """
    if spec.kind != "tensile":
        raise DomainError(f"expected a tensile spec, got {spec.kind!r}")
    if spec.stretch_rate <= 0:
        raise DomainError("tensile test needs stretch_rate > 0")
    t = _time_grid(spec.duration, spec.dt)
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
                        uts=uts, fracture_energy=fracture_energy,
                        strain_convention="green")
    return series, report


def _centered_rates(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.gradient(y, t)


def run_creep(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Hold a constant load and record the deformation.

    For QLV specimens the hereditary relation is linear in the elastic
    stress T_e, so the T_e history is solved step by step through the Prony
    recursion without reference to the elastic law; the Green strain then
    follows in one call to the law's ``green_at_stress``.  Classical
    elements (Maxwell, Voigt, Kelvin) integrate their governing
    force-deflection equation with the trapezoidal rule; their deformation
    channel is the element deflection.
    """
    if spec.kind != "creep":
        raise DomainError(f"expected a creep spec, got {spec.kind!r}")
    t = _time_grid(spec.duration, spec.dt)
    load = spec.hold_stress

    if isinstance(model, (MaxwellParams, VoigtParams, KelvinParams)):
        u = _element_creep(model, t, load)
        series = Series(times=t, columns={"deformation": u})
        rates = _centered_rates(t, u)
        report = TestReport(creep_rate_times=t, creep_rate=rates)
        return series, report

    if load == 0.0:
        green = np.zeros_like(t)
    else:
        prony = model.prony
        dt = t[1] - t[0]
        gain = prony_step(prony, 0.0, dt, 1.0)
        gsum = float(gain.sum())
        te = np.empty_like(t)
        # initial step: stress = g(0) * T_e = T_e
        te[0] = load
        h = np.asarray(prony.amplitudes) * load
        for i in range(1, t.size):
            # the step is linear in (h, increment): decay the memory, then
            # solve K*te_i + sum(free) + gsum*(te_i - te[i-1]) = load
            free = prony_step(prony, h, dt, 0.0)
            te[i] = (load - free.sum() + gsum * te[i - 1]) / (prony.K + gsum)
            h = free + gain * (te[i] - te[i - 1])
        green = model.elastic.green_at_stress(te)
    rates = _centered_rates(t, green)
    series = Series(times=t, columns={"green_strain": green,
                                      "stretch": np.sqrt(2 * green + 1.0)})
    report = TestReport(creep_rate_times=t, creep_rate=rates)
    return series, report


def _element_creep(element, t: np.ndarray, load: float) -> np.ndarray:
    """Trapezoidal integration of the element deflection under constant load."""
    u = np.empty_like(t)
    dt = t[1] - t[0]
    if isinstance(element, MaxwellParams):
        # du/dt = F/eta after the initial elastic jump F/mu
        u[0] = load / element.mu
        rate = load / element.eta
        for i in range(1, t.size):
            u[i] = u[i - 1] + dt * rate
        return u
    if isinstance(element, VoigtParams):
        # du/dt = (F - mu u)/eta, u(0) = 0
        u[0] = 0.0
        a, b = element.mu / element.eta, load / element.eta
        for i in range(1, t.size):
            # trapezoidal: u' averaged over the step, implicit and linear
            u[i] = ((1 - 0.5 * dt * a) * u[i - 1] + dt * b) / (1 + 0.5 * dt * a)
        return u
    if isinstance(element, KelvinParams):
        # E_R tau_sigma du/dt = F - E_R u (constant F), u(0) from the
        # initial condition tau_eps F = E_R tau_sigma u
        u[0] = element.tau_eps * load / (element.E_R * element.tau_sigma)
        a = 1.0 / element.tau_sigma
        b = load / (element.E_R * element.tau_sigma)
        for i in range(1, t.size):
            u[i] = ((1 - 0.5 * dt * a) * u[i - 1] + dt * b) / (1 + 0.5 * dt * a)
        return u
    raise DomainError(f"unsupported element type {type(element).__name__}")


def _element_relaxation(element, t: np.ndarray) -> np.ndarray:
    """Trapezoidal integration of the element force under unit deflection."""
    f = np.empty_like(t)
    dt = t[1] - t[0]
    if isinstance(element, MaxwellParams):
        # dF/dt = -mu F / eta after the elastic jump F(0) = mu
        f[0] = element.mu
        a = element.mu / element.eta
        for i in range(1, t.size):
            f[i] = (1 - 0.5 * dt * a) / (1 + 0.5 * dt * a) * f[i - 1]
        return f
    if isinstance(element, VoigtParams):
        # regular part only; the impulsive term lives at t = 0
        f[:] = element.mu
        return f
    if isinstance(element, KelvinParams):
        # tau_eps dF/dt = E_R u - F with u = 1, F(0) = E_R tau_sigma/tau_eps
        f[0] = element.E_R * element.tau_sigma / element.tau_eps
        a = 1.0 / element.tau_eps
        b = element.E_R / element.tau_eps
        for i in range(1, t.size):
            f[i] = ((1 - 0.5 * dt * a) * f[i - 1] + dt * b) / (1 + 0.5 * dt * a)
        return f
    raise DomainError(f"unsupported element type {type(element).__name__}")


def run_relaxation(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Step deformation held constant; stress recorded over time.

    QLV specimens factorize exactly: stress(t) = G(t) * T_e(E0).  Classical
    elements integrate their governing equation under unit-held deflection
    scaled by the hold strain.
    """
    if spec.kind != "relaxation":
        raise DomainError(f"expected a relaxation spec, got {spec.kind!r}")
    t = _time_grid(spec.duration, spec.dt)

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
    rates = _centered_rates(t, stress)
    series = Series(times=t, columns={"stress": stress,
                                      "normalized_stress": np.asarray(normalized)})
    report = TestReport(relaxation_rate_times=t, relaxation_rate=rates,
                        relaxation_asymptote=asymptote)
    return series, report


def _cycle_stress(model, t: np.ndarray, strain: np.ndarray) -> np.ndarray:
    """Periodic steady-state stress under a Green-strain drive sampled at
    the uniform times ``t`` of one period, closing sample excluded."""
    dt = t[1] - t[0]
    if isinstance(model, VoigtParams):
        rate = (np.roll(strain, -1) - np.roll(strain, 1)) / (2.0 * dt)
        return model.mu * strain + model.eta * rate
    if isinstance(model, (MaxwellParams, KelvinParams)):
        prony = kernel_to_prony(model)
        scale = (model.mu if isinstance(model, MaxwellParams)
                 else model.E_R * model.tau_sigma / model.tau_eps)
        raw = PronySpectrum(K=prony.K * scale,
                            amplitudes=tuple(a * scale for a in prony.amplitudes),
                            frequencies=prony.frequencies)
        return periodic_force_history(raw, dt, strain)
    history = StrainHistory(times=t, values=strain, measure="green")
    return periodic_force_history(model.prony, dt,
                                  model.elastic_stress(history))


def run_cyclic(spec: ProtocolSpec, model) -> tuple[Series, TestReport]:
    """Sinusoidal strain cycling in the periodic steady state.

    The Green strain is driven as mean + amplitude*(1 - cos(w t))/2.  The
    stress is the exact periodic steady state of that drive (see
    :func:`qlvsim.kernels.periodic_force_history`), computed over one
    period of ``samples_per_cycle`` samples; the hysteresis ratio is taken
    from that cycle.  The series holds the steady cycle repeated for
    ``cycles`` periods plus the closing sample: ``cycles*samples_per_cycle
    + 1`` rows, starting at the strain minimum.
    """
    if spec.kind != "cyclic":
        raise DomainError(f"expected a cyclic spec, got {spec.kind!r}")
    w = spec.angular_frequency
    nps = spec.samples_per_cycle
    t = np.linspace(0.0, spec.cycles * 2.0 * math.pi / w,
                    spec.cycles * nps + 1)
    strain = spec.mean + 0.5 * spec.amplitude * (1.0 - np.cos(w * t[:nps]))
    stress = _cycle_stress(model, t[:nps], strain)
    strain = np.append(np.tile(strain, spec.cycles), strain[0])
    stress = np.append(np.tile(stress, spec.cycles), stress[0])
    report = TestReport(hysteresis_H=_loop_hysteresis(strain[:nps + 1],
                                                      stress[:nps + 1]))
    series = Series(times=t, columns={"green_strain": strain,
                                      "stress": stress})
    return series, report


def _loop_hysteresis(strain: np.ndarray, stress: np.ndarray) -> float:
    """Hysteresis ratio of one cycle; the cycle is rotated to start at the
    strain minimum so loading and unloading branches are well defined."""
    # drop the duplicated closing sample before rotating
    s = strain[:-1]
    y = stress[:-1]
    k = int(np.argmin(s))
    s = np.roll(s, -k)
    y = np.roll(y, -k)
    top = int(np.argmax(s))
    loading_strain, loading_stress = s[:top + 1], y[:top + 1]
    unloading_strain = np.concatenate([s[top:], s[:1]])
    unloading_stress = np.concatenate([y[top:], y[:1]])
    return hysteresis_ratio(loading_strain, loading_stress,
                            unloading_strain, unloading_stress)


def frequency_sweep(spec: ProtocolSpec, model,
                    angular_frequencies) -> tuple[np.ndarray, np.ndarray]:
    """Run the cyclic protocol at each frequency; returns (frequencies, H)."""
    freqs = np.asarray(angular_frequencies, dtype=float)
    if np.any(freqs <= 0):
        raise DomainError("angular frequencies must be > 0")
    hs = np.empty(freqs.size)
    for i, w in enumerate(freqs):
        _, report = run_cyclic(replace(spec, angular_frequency=float(w)),
                               model)
        hs[i] = report.hysteresis_H
    return freqs, hs


def fit_exponential_law(stretch, stress) -> tuple[ExponentialTensileLaw, dict]:
    """Identify (B, C) of the exponential tensile law from samples.

    Finite-difference slopes are regressed linearly against the stress to
    seed (B, C), then refined by Gauss-Newton on the closed-form law (at
    most 100 iterations, stopping when the relative parameter change drops
    below 1e-10).  Returns the law and fit diagnostics.
    """
    lam = np.asarray(stretch, dtype=float)
    T = np.asarray(stress, dtype=float)
    if lam.size < 3:
        raise DomainError(f"need at least 3 samples, got {lam.size}")
    if np.any(np.diff(lam) <= 0):
        raise DomainError("stretch samples must be strictly increasing")
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


def fit_relaxation_spectrum(times, values, n_terms: int,
                            frequencies=None) -> tuple[PronySpectrum, dict]:
    """Non-negative least squares fit of a Prony series to normalized
    relaxation data.

    The series must start at (0, 1) and be non-increasing.  Candidate
    frequencies default to ``n_terms`` log-spaced values spanning the
    observed time range; explicit frequencies may be supplied instead.
    The equilibrium coefficient K is fitted as the zero-frequency column.
    """
    t = np.asarray(times, dtype=float)
    g = np.asarray(values, dtype=float)
    if t.size < 2 or g.shape != t.shape:
        raise DomainError("need matching time and value arrays with >= 2 samples")
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
        freqs = np.asarray(frequencies, dtype=float)
        if freqs.size != n_terms:
            raise DomainError("frequencies length must equal n_terms")
    freqs = np.sort(freqs)

    A = np.column_stack([np.ones_like(t)] +
                        [np.exp(-f * t) for f in freqs])
    coeffs, _ = nnls(A, g)
    fitted = A @ coeffs
    max_err = float(np.max(np.abs(fitted - g)))
    spectrum = PronySpectrum(K=float(coeffs[0]),
                             amplitudes=tuple(coeffs[1:]),
                             frequencies=tuple(freqs))
    return spectrum, {"max_error": max_err}
