"""Classical viscoelastic elements and relaxation spectra.

Maxwell, Voigt and Kelvin (standard linear solid) elements with their
creep/relaxation functions, discrete exponential (Prony) spectra, and the
continuous 1/q spectrum whose reduced relaxation function involves the
exponential integral E1.  All causal functions follow the half-at-zero
step convention: value 1 for t > 0, 1/2 at t = 0, 0 for t < 0.

The exact exponential recursion of a Prony kernel's internal variables has
one form, h <- decay*h + gain*dx per term, with the decay and gain of a
step size taken once from :func:`prony_step`.  :func:`kernel_force_history`
runs it over a sampled history and :func:`periodic_force_history` gives its
exact periodic steady state, both through one numpy filter vectorized
across terms.  scipy is imported only by :func:`exp_integral_e1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_bounds, check_range

_BLOCK_ROWS = 1024      # filter block: 512 KB of states at 64 terms

# The most samples a grid, Prony terms a kernel and frequencies a sweep may
# ask for, and values a filter's states or a network's records may hold,
# checked before any allocation: 100 times a 1e5-row record.
SIZE_BUDGET = 10_000_000


def unit_step(t):
    """Step function: 1 for t > 0, 1/2 at t = 0, 0 for t < 0."""
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0, 1.0, np.where(t == 0, 0.5, 0.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class _SpringDashpot:
    """A spring (mu) and a dashpot (eta): the Maxwell and Voigt elements."""

    mu: float
    eta: float

    def __post_init__(self):
        check_bounds(self, "mu", "eta", low=0)


@dataclass(frozen=True)
class MaxwellParams(_SpringDashpot):
    """Spring (mu) and dashpot (eta) in series."""


@dataclass(frozen=True)
class VoigtParams(_SpringDashpot):
    """Spring (mu) and dashpot (eta) in parallel."""


@dataclass(frozen=True)
class KelvinParams:
    """Standard linear solid with relaxed modulus E_R, load-relaxation
    time tau_eps and deflection-relaxation time tau_sigma."""

    E_R: float
    tau_eps: float
    tau_sigma: float

    def __post_init__(self):
        check_bounds(self, "E_R", "tau_eps", low=0)
        if not (np.isfinite(self.tau_sigma) and self.tau_sigma >= self.tau_eps):
            raise DomainError(
                f"need 0 < tau_eps <= tau_sigma, got tau_eps={self.tau_eps}, "
                f"tau_sigma={self.tau_sigma}")


@dataclass(frozen=True)
class PronySpectrum:
    """Discrete relaxation spectrum g(t) = K + sum_n amp_n * exp(-t*freq_n).

    ``K`` is the equilibrium (zero-frequency) coefficient.  Frequencies must
    be strictly increasing so equal spectra compare equal.
    """

    K: float
    amplitudes: tuple[float, ...] = ()
    frequencies: tuple[float, ...] = ()

    def __post_init__(self):
        amps = tuple(float(a) for a in self.amplitudes)
        freqs = tuple(float(f) for f in self.frequencies)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "frequencies", freqs)
        if len(amps) != len(freqs):
            raise DomainError("amplitudes and frequencies must have equal length")
        check_range("amplitudes", amps, low=0, strict=False)
        check_range("frequencies", freqs, low=0)
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise DomainError("frequencies must be strictly increasing")
        check_bounds(self, "K")

    @property
    def at_zero(self) -> float:
        return self.K + sum(self.amplitudes)

    def normalized(self) -> "PronySpectrum":
        g0 = self.at_zero
        if g0 <= 0:
            raise DomainError(f"cannot normalize spectrum with g(0) = {g0}")
        return PronySpectrum(self.K / g0,
                             tuple(a / g0 for a in self.amplitudes),
                             self.frequencies)


@dataclass(frozen=True)
class FungSpectrum:
    """Continuous spectrum S(q) = c/q on [q1, q2], zero elsewhere."""

    c: float
    q1: float
    q2: float

    def __post_init__(self):
        check_bounds(self, "c", "q1", low=0)
        if not (np.isfinite(self.q2) and self.q2 > self.q1):
            raise DomainError(f"need 0 < q1 < q2, got q1={self.q1}, q2={self.q2}")


# each kernel type by its name in configs and on the command line; the
# fields of a type are its parameters
KERNEL_TYPES = {"maxwell": MaxwellParams, "voigt": VoigtParams,
                "kelvin": KelvinParams, "prony": PronySpectrum,
                "fung": FungSpectrum}

def maxwell_creep(p: MaxwellParams, t):
    """Creep function (1/mu + t/eta) * step(t)."""
    t = np.asarray(t, dtype=float)
    out = (1.0 / p.mu + t / p.eta) * unit_step(t)
    return float(out) if out.ndim == 0 else out


def maxwell_relaxation(p: MaxwellParams, t):
    """Relaxation function mu * exp(-mu*t/eta) * step(t)."""
    t = np.asarray(t, dtype=float)
    out = p.mu * np.exp(-p.mu * np.where(t > 0, t, 0.0) / p.eta) * unit_step(t)
    return float(out) if out.ndim == 0 else out


def voigt_creep(p: VoigtParams, t):
    """Creep function (1/mu) * (1 - exp(-mu*t/eta)) * step(t)."""
    t = np.asarray(t, dtype=float)
    out = -(1.0 / p.mu) * np.expm1(-p.mu * np.where(t > 0, t, 0.0) / p.eta)
    out = out * unit_step(t)
    return float(out) if out.ndim == 0 else out


def voigt_relaxation(p: VoigtParams, t) -> tuple[float, float]:
    """Relaxation of the parallel element: eta*delta(t) + mu*step(t).

    The Dirac part cannot be a pointwise value, so the result is the pair
    (impulse weight at t = 0, regular part at t).
    """
    return (p.eta, p.mu * unit_step(t))


def kelvin_creep(p: KelvinParams, t):
    """Creep function of the standard linear solid."""
    t = np.asarray(t, dtype=float)
    decay = np.exp(-np.where(t > 0, t, 0.0) / p.tau_sigma)
    out = (1.0 / p.E_R) * (1.0 - (1.0 - p.tau_eps / p.tau_sigma) * decay)
    out = out * unit_step(t)
    return float(out) if out.ndim == 0 else out


def kelvin_relaxation(p: KelvinParams, t):
    """Relaxation function of the standard linear solid."""
    t = np.asarray(t, dtype=float)
    decay = np.exp(-np.where(t > 0, t, 0.0) / p.tau_eps)
    out = p.E_R * (1.0 - (1.0 - p.tau_sigma / p.tau_eps) * decay)
    out = out * unit_step(t)
    return float(out) if out.ndim == 0 else out


def prony_relaxation(s: PronySpectrum, t):
    """g(t) = K + sum_n amp_n * exp(-freq_n * t), for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError(f"t must be >= 0, got min {t.min()}")
    out = np.full(t.shape, s.K, dtype=float)
    for a, f in zip(s.amplitudes, s.frequencies):
        out = out + a * np.exp(-f * t)
    return float(out) if out.ndim == 0 else out


def prony_step(spectrum: PronySpectrum, h, dt, dx):
    """Advance the internal variables of a Prony kernel over one step.

    Exact exponential recursion for an input that is linear in time over
    the step: h <- exp(-f*dt)*h + a*phi(f*dt)*dx per term, with
    phi(x) = (1 - exp(-x))/x.  The step is linear in (h, dx), so
    ``prony_step(s, 1.0, dt, 0.0)`` and ``prony_step(s, 0.0, dt, 1.0)`` are
    its per-term decay and gain.
    """
    amps = np.asarray(spectrum.amplitudes)
    x = np.asarray(spectrum.frequencies) * dt
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    phi = np.where(small, 1.0 - x / 2.0, -np.expm1(-safe) / safe)
    return np.exp(-x) * h + amps * phi * dx


def is_uniform_grid(times) -> bool:
    """Whether sample times are equally spaced, to a relative 1e-9."""
    dts = np.diff(np.asarray(times, dtype=float))
    return dts.size == 0 or bool(np.allclose(dts, dts[0], rtol=1e-9, atol=0.0))


def grid_steps(duration: float, dt: float) -> int:
    """round(duration/dt), the steps of a ``dt`` grid over ``duration``: the
    one check of every command's grid.  dt and duration must be finite and
    > 0, and the steps in [1, SIZE_BUDGET], before any allocation."""
    check_range("dt", dt, low=0)
    check_range("duration", duration, low=0)
    if not duration / dt <= SIZE_BUDGET:
        raise DomainError(f"duration/dt must be <= {SIZE_BUDGET}")
    if (n := round(duration / dt)) < 1:
        raise DomainError("duration and dt produce an empty series")
    return n


def time_grid(duration: float, dt: float) -> np.ndarray:
    """The grid_steps(duration, dt) + 1 times of a ``dt`` grid from 0."""
    n = grid_steps(duration, dt)
    return np.linspace(0.0, n * dt, n + 1)


def check_filter_size(samples: int, terms: int) -> None:
    """Check the samples x terms states of one filter pass against
    SIZE_BUDGET before they are allocated."""
    if samples * terms > SIZE_BUDGET:
        raise DomainError(f"samples x Prony terms must be <= {SIZE_BUDGET}, "
                          f"got {samples} x {terms}")


def _prony_filter(decay, gain, dx, carry) -> np.ndarray:
    """Internal variables h[i] = decay[i]*h[i-1] + gain[i]*dx[i], one column
    per term, from h[-1] = carry; decay/gain broadcast to one row per sample.
    A ``dx`` of shape (samples, F) runs F filters, row i holding (F, terms).

    Each step rounds as fl(fl(decay*h) + fl(gain*dx)), as the transposed
    direct form of the first-order filter gain / (1 - decay*z^-1) does.
    """
    h = dx[..., None] * gain
    prev = carry
    for row, d in zip(h, np.broadcast_to(decay, h.shape)):
        row += d * prev
        prev = row
    return h


def _term_sum(states) -> np.ndarray:
    """Each row summed over its terms (last axis) in term order from 0.0,
    never pairwise, by running sums; -0.0 terms or none sum to 0.0."""
    return np.add.accumulate(states, -1, out=states)[..., -1:].sum(-1) + 0.0


def kernel_force_history(spectrum: PronySpectrum, times,
                         displacement) -> np.ndarray:
    """Response K*x(t) + sum of internal variables of a Prony kernel to a
    sampled input x, taken linear in time between samples.

    The input is treated as applied at t = 0 (quiescent before that), so a
    nonzero first sample acts as an initial step.  One filter runs the terms
    ``_BLOCK_ROWS`` samples at a time, fewer when that many rows of states
    would exceed SIZE_BUDGET values; a non-uniform block, which also holds
    its steps' decay, gain and their temporaries, takes a quarter of the
    rows.  A uniform grid takes its decay and gain once, from its first step.
    """
    times = np.asarray(times, dtype=float)
    xs = np.asarray(displacement, dtype=float)
    if times.shape != xs.shape or times.ndim != 1:
        raise DomainError("times and displacement must be 1-D of equal length")
    dts = np.diff(times)
    if np.any(dts <= 0):
        idx = int(np.argmax(dts <= 0))
        raise DomainError(f"times must be strictly increasing (index {idx + 1})")
    if not spectrum.amplitudes:     # no internal variables
        return spectrum.K * xs + 0.0
    dxs = np.diff(xs)
    h = np.asarray(spectrum.amplitudes) * xs[0]
    h_sum = np.full(times.size, h.sum())
    uniform = is_uniform_grid(times)
    block = max(1, min(_BLOCK_ROWS,
                       SIZE_BUDGET // (h.size if uniform else 4 * h.size)))

    def decay_gain(dt):
        return (prony_step(spectrum, 1.0, dt, 0.0),
                prony_step(spectrum, 0.0, dt, 1.0))
    once = decay_gain(dts[0]) if uniform and dts.size else None
    for start in range(0, dxs.size, block):
        stop = start + block
        states = _prony_filter(*(once or decay_gain(dts[start:stop, None])),
                               dxs[start:stop], h)
        h = states[-1].copy()
        h_sum[1 + start:1 + stop] = _term_sum(states)
        del states                  # free the block before the next one
    return spectrum.K * xs + h_sum


def periodic_force_history(spectrum: PronySpectrum, dt,
                           x_period) -> np.ndarray:
    """Periodic steady-state response K*x + sum of internal variables of a
    Prony kernel to a periodic input, linear in time between samples.

    ``x_period`` is one period of N samples ``dt`` apart (the sample after
    the last is the first), or F such rows with F values of ``dt``, each
    row given as its own 1-D call gives it.  With per-term decay d and gain
    g the internal variable repeats after N steps only from
    h* = (sum_i d^(N-1-i) * g * dx_i) / (1 - d^N); one filter pass from rest
    over all rows gives the numerator, and the state at sample i is that
    pass + d^i * h*.  The pass holds F x N x terms values, at most
    SIZE_BUDGET, and d^i * h* one _BLOCK_ROWS x terms block more.
    """
    xs = np.asarray(x_period, dtype=float)
    rows, dts = np.atleast_2d(xs), np.asarray(dt, dtype=float).reshape(-1, 1)
    if rows.ndim > 2 or rows.shape[1] < 2 or len(rows) != len(dts) \
            or not np.all(dts > 0):
        raise DomainError("a period needs dt > 0 and >= 2 samples per row")
    check_filter_size(xs.size, len(spectrum.amplitudes))
    n = rows.shape[1]
    dxs = np.diff(rows, append=rows[:, :1]).T.copy()    # (N, F), row-major
    decay = prony_step(spectrum, 1.0, dts, 0.0)
    gain = prony_step(spectrum, 0.0, dts, 1.0)
    # 1 - d^N without cancellation for terms with f*N*dt << 1
    closure = -np.expm1(-np.asarray(spectrum.frequencies) * (n * dts))
    states = _prony_filter(decay, gain, dxs, np.zeros(decay.shape))
    h_star = np.divide(states[-1], closure, out=states[-1])     # sample 0
    for f in range(len(dts)):
        for start in range(1, n, _BLOCK_ROWS):  # row i-1 + d^i*h*: sample i
            stop = min(start + _BLOCK_ROWS, n)
            correction = decay[f] ** np.arange(start, stop)[:, None]
            correction *= h_star[f]
            states[start - 1:stop - 1, f] += correction
            del correction          # free the block before the next one
    h_sum = np.roll(_term_sum(states), 1, axis=0).T
    return (spectrum.K * rows + h_sum).reshape(xs.shape)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-u)/u du, for x > 0."""
    x = np.asarray(x, dtype=float)
    check_range("x", x, low=0)
    from scipy.special import exp1    # lazy: only E1 needs scipy.special
    out = exp1(x)
    return float(out) if out.ndim == 0 else out


def fung_reduced_relaxation(s: FungSpectrum, t):
    """Reduced relaxation of the continuous c/q spectrum.

    G(t) = [1 + c*(E1(t/q2) - E1(t/q1))] / [1 + c*ln(q2/q1)], with
    G(0) = 1 and long-time limit 1/(1 + c*ln(q2/q1)).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    check_range("t", t, low=0, strict=False)
    denom = 1.0 + s.c * math.log(s.q2 / s.q1)
    out = np.ones_like(t)
    pos = t > 0
    if np.any(pos):
        tp = t[pos]
        diff = exp_integral_e1(tp / s.q2) - exp_integral_e1(tp / s.q1)
        out[pos] = (1.0 + s.c * diff) / denom
    return float(out[0]) if scalar else out


def fung_long_time_limit(s: FungSpectrum) -> float:
    return 1.0 / (1.0 + s.c * math.log(s.q2 / s.q1))


def fung_to_prony(s: FungSpectrum, n_terms: int) -> PronySpectrum:
    """Discretize the continuous spectrum into a normalized Prony series.

    Midpoint quadrature in log q: the 1/q density is flat in log q, so each
    of the ``n_terms`` log-spaced cells contributes the same amplitude.  The
    result is normalized so g(0) = 1 exactly.
    """
    check_range("n_terms", n_terms, low=2, strict=False, integer=True)
    log_q1, log_q2 = math.log(s.q1), math.log(s.q2)
    du = (log_q2 - log_q1) / n_terms
    mids = log_q1 + (np.arange(n_terms) + 0.5) * du
    q = np.exp(mids)
    weights = np.full(n_terms, s.c * du)
    denom = 1.0 + weights.sum()
    freqs = 1.0 / q[::-1]          # ascending frequency
    amps = weights[::-1] / denom
    return PronySpectrum(K=1.0 / denom,
                         amplitudes=tuple(amps),
                         frequencies=tuple(freqs))


@dataclass(frozen=True)
class ReducedRelaxation:
    """Normalized relaxation function: value(0) = 1, non-increasing.

    ``kernel`` is one of the KERNEL_TYPES.  A Prony spectrum is rescaled so
    g(0) = 1; the Voigt element contributes only its regular (step) part,
    whose normalized form is constant 1.
    """

    kernel: object

    def __post_init__(self):
        if isinstance(self.kernel, PronySpectrum):
            object.__setattr__(self, "kernel", self.kernel.normalized())
        elif not isinstance(self.kernel, tuple(KERNEL_TYPES.values())):
            raise DomainError(
                f"unsupported kernel type {type(self.kernel).__name__}")

    def value(self, t):
        """G(t) for t >= 0; at t = 0 the one-sided limit 1 is returned."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("reduced relaxation requires t >= 0")
        k = self.kernel
        if isinstance(k, PronySpectrum):
            return prony_relaxation(k, t)
        if isinstance(k, FungSpectrum):
            return fung_reduced_relaxation(k, t)
        if isinstance(k, MaxwellParams):
            out = np.exp(-k.mu * t / k.eta)
        elif isinstance(k, KelvinParams):
            # single Kelvin body: G = (1 + S exp(-t/q)) / (1 + S)
            # with q = tau_eps, S = tau_sigma/tau_eps - 1
            big_s = k.tau_sigma / k.tau_eps - 1.0
            out = (1.0 + big_s * np.exp(-t / k.tau_eps)) / (1.0 + big_s)
        else:   # Voigt: regular part only; the impulsive term is excluded
            out = np.ones_like(t)
        return float(out) if out.ndim == 0 else out

    @property
    def long_time_limit(self) -> float:
        k = self.kernel
        if isinstance(k, PronySpectrum):
            return k.K
        if isinstance(k, FungSpectrum):
            return fung_long_time_limit(k)
        if isinstance(k, MaxwellParams):
            return 0.0
        if isinstance(k, KelvinParams):
            return k.tau_eps / k.tau_sigma
        return 1.0      # Voigt


reduced_relaxation = ReducedRelaxation     # the name callers use


def kernel_to_prony(kernel, n_terms: int = 64) -> PronySpectrum:
    """Normalized Prony form of a kernel's reduced relaxation function."""
    if isinstance(kernel, PronySpectrum):
        return kernel.normalized()
    if isinstance(kernel, FungSpectrum):
        return fung_to_prony(kernel, n_terms)
    if isinstance(kernel, MaxwellParams):
        return PronySpectrum(K=0.0, amplitudes=(1.0,),
                             frequencies=(kernel.mu / kernel.eta,))
    if isinstance(kernel, KelvinParams):
        ratio = kernel.tau_eps / kernel.tau_sigma
        if ratio == 1.0:
            return PronySpectrum(K=1.0)
        return PronySpectrum(K=ratio, amplitudes=(1.0 - ratio,),
                             frequencies=(1.0 / kernel.tau_eps,))
    if isinstance(kernel, VoigtParams):
        raise DomainError(
            "the Voigt relaxation has an impulsive part and no normalized "
            "Prony form; use the element equations directly")
    raise DomainError(f"unsupported kernel type {type(kernel).__name__}")
