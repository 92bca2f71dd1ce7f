"""Quasi-linear viscoelastic stress evaluation.

The stress at time t is the hereditary integral of a normalized relaxation
function G against the rate of the instantaneous elastic stress.  Two
evaluators are provided: an O(N^2) reference sum with midpoint evaluation
of G over each past interval, and an O(N * n_terms) internal-variable
scheme based on the exact exponential recursion of a Prony kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_range
from .kernels import (PronySpectrum, ReducedRelaxation, kernel_force_history,
                      kernel_to_prony, prony_relaxation, reduced_relaxation)


@dataclass(frozen=True)
class StrainHistory:
    """Sampled strain history on a strictly increasing grid starting at 0.

    ``measure`` is "green" (Green strain) or "stretch" (extension ratio).
    The material is taken to be in the zero-stress state for t < 0.
    """

    times: np.ndarray
    values: np.ndarray
    measure: str = "green"

    def __post_init__(self):
        times = check_range("times", self.times, increasing=True)
        values = check_range("strain values", self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.shape != times.shape:
            raise DomainError("times and values must be 1-D arrays of equal length")
        if times.size == 0:
            raise DomainError("history must contain at least one sample")
        if times[0] != 0.0:
            raise DomainError(f"first sample time must be 0, got {times[0]}")
        if self.measure not in ("green", "stretch"):
            raise DomainError(f"unknown strain measure {self.measure!r}")

    def green(self) -> np.ndarray:
        if self.measure == "green":
            return self.values
        return 0.5 * (self.values ** 2 - 1.0)


@dataclass(frozen=True)
class StressHistory:
    """Stress samples on the same grid as the driving strain history."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class QlvModel:
    """Elastic law paired with a normalized relaxation function.

    ``prony`` is the Prony form used by the fast evaluator; it approximates
    ``relaxation`` to within ``prony_tolerance``, computed when read.
    """

    elastic: object
    relaxation: ReducedRelaxation
    prony: PronySpectrum

    def __post_init__(self):
        if abs(self.prony.at_zero - 1.0) > 1e-9:
            raise DomainError(
                f"Prony kernel must be normalized, g(0) = {self.prony.at_zero}")

    @classmethod
    def from_kernel(cls, elastic, kernel, n_prony: int = 64) -> "QlvModel":
        return cls(elastic=elastic, relaxation=reduced_relaxation(kernel),
                   prony=kernel_to_prony(kernel, n_terms=n_prony))

    @property
    def prony_tolerance(self) -> float:
        """Largest |prony - relaxation| on a log-spaced grid spanning the
        Prony time scales (a Fung kernel needs E1 on 200 points)."""
        freqs = np.asarray(self.prony.frequencies)
        if freqs.size:
            grid = np.logspace(np.log10(0.1 / freqs.max()),
                               np.log10(10.0 / freqs.min()), 200)
        else:
            grid = np.logspace(-3, 3, 50)
        return float(np.max(np.abs(prony_relaxation(self.prony, grid)
                                   - self.relaxation.value(grid))))

    def elastic_stress(self, history: StrainHistory) -> np.ndarray:
        try:
            return np.asarray(self.elastic.stress_green(history.green()),
                              dtype=float)
        except DomainError:
            # re-raise with the first offending time index for diagnostics:
            # a prefix fails exactly when it holds a failing sample, so
            # bisect on prefixes, green[:lo] passing and green[:hi] failing
            green = history.green()
            lo, hi = 0, green.size
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    self.elastic.stress_green(green[:mid])
                    lo = mid
                except DomainError:
                    hi = mid
            try:
                self.elastic.stress_green(green[hi - 1])
            except DomainError as exc:
                raise DomainError(
                    f"strain outside elastic domain at time index {hi - 1} "
                    f"(t = {history.times[hi - 1]}): {exc}") from exc
            raise


def qlv_stress_direct(model: QlvModel, history: StrainHistory,
                      kernel: str = "relaxation") -> StressHistory:
    """O(N^2) reference evaluation of the hereditary integral.

    T(t_i) = G(t_i) * T_e(0) + sum over past intervals of
    G(t_i - midpoint) * (elastic stress increment over the interval).
    The kernel is re-evaluated for every (time, interval) pair.
    """
    t = history.times
    s = model.prony
    amps, rates = np.asarray(s.amplitudes), -np.asarray(s.frequencies)
    buffer = np.empty(max(32768, t.size))

    def prony(lags):
        # K + amps @ exp(-outer(freqs, lags)) over chunks of terms of at most
        # 32768 exponentials (256 KB) in one buffer, which stays in cache
        shape = np.shape(lags)
        step = max(1, 32768 // np.size(lags))
        out = np.full(shape, s.K)
        for c in range(0, amps.size, step):
            a = amps[c:c + step]
            x = buffer[:a.size * np.size(lags)].reshape(a.shape + shape)
            np.exp(np.multiply.outer(rates[c:c + step], lags, out=x), out=x)
            out += a @ x
        return out

    g = {"relaxation": model.relaxation.value, "prony": prony}.get(kernel)
    if g is None:
        raise DomainError(
            f"kernel must be 'relaxation' or 'prony', got {kernel!r}")
    te = model.elastic_stress(history)
    n = t.size
    out = np.empty(n)
    out[0] = te[0]
    if n == 1:
        return StressHistory(times=t, values=out)
    dte = np.diff(te)
    mids = 0.5 * (t[:-1] + t[1:])
    for i in range(1, n):
        out[i] = g(t[i]) * te[0] + np.dot(np.asarray(g(t[i] - mids[:i])),
                                          dte[:i])
    return StressHistory(times=t, values=out)


def qlv_stress_fast(model: QlvModel, history: StrainHistory) -> StressHistory:
    """O(N * n_terms) evaluation via per-term internal variables.

    The model's Prony kernel is applied to the elastic stress history by
    :func:`qlvsim.kernels.kernel_force_history`, with the elastic stress
    taken linear in time over each step.
    """
    te = model.elastic_stress(history)
    return StressHistory(times=history.times,
                         values=kernel_force_history(model.prony,
                                                     history.times, te))


def hysteresis_ratio(loading_strain, loading_stress,
                     unloading_strain, unloading_stress) -> float:
    """Loop area divided by the area under the loading branch.

    The loop area is the shoelace area of the loading+unloading polygon,
    closed from its last vertex to its first; the loading area integrates
    the positive part of the stress over the loading branch.  Loading must
    traverse increasing strain, unloading decreasing strain, over one range.
    """
    ls, lt, us, ut = (np.asarray(a, dtype=float) for a in (
        loading_strain, loading_stress, unloading_strain, unloading_stress))
    if ls.size < 2 or us.size < 2:
        raise DomainError("loading and unloading branches need >= 2 samples")
    if ls.shape != lt.shape or us.shape != ut.shape:
        raise DomainError("strain and stress must have equal lengths, got "
                          f"{ls.size} and {lt.size} loading, {us.size} and "
                          f"{ut.size} unloading")
    x = check_range("strain", np.concatenate([ls, us]))
    y = check_range("stress", np.concatenate([lt, ut]))
    if (ls[1:] < ls[:-1]).any():
        raise DomainError("loading strain must be non-decreasing")
    if (us[1:] > us[:-1]).any():
        raise DomainError("unloading strain must be non-increasing")

    loop_area = 0.5 * abs(np.dot(x, np.concatenate([lt[1:], ut, lt[:1]]))
                          - np.dot(y, np.concatenate([ls[1:], us, ls[:1]])))
    loading_area = float(np.trapezoid(np.maximum(lt, 0.0), ls))
    if loading_area <= 0.0:
        raise DomainError("loading branch has zero area; hysteresis undefined")
    return loop_area / loading_area
