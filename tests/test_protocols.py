import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim.constitutive import (ExponentialTensileLaw, FungBiaxialParams,
                                 FungUniaxialLaw, LinearElasticLaw)
from qlvsim.errors import DomainError, FitError
from qlvsim.kernels import (_BLOCK_ROWS, FungSpectrum, KelvinParams,
                            MaxwellParams, PronySpectrum, VoigtParams,
                            fung_reduced_relaxation, kelvin_creep,
                            kelvin_relaxation, kernel_to_prony,
                            kernel_force_history, maxwell_relaxation,
                            periodic_force_history, prony_relaxation,
                            prony_step, voigt_creep)
from qlvsim import protocols
from qlvsim.protocols import (ProtocolSpec, _element_relaxation,
                              _loop_hysteresis, _offset_yield,
                              fit_exponential_law, fit_relaxation_spectrum,
                              frequency_sweep, run_creep, run_cyclic,
                              run_relaxation, run_tensile)
from qlvsim.qlv import QlvModel, StrainHistory, qlv_stress_fast


def elastic_qlv(law):
    return QlvModel.from_kernel(law, PronySpectrum(K=1.0))


class TestProtocolSpec:
    def test_invalid_kind(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="bogus", duration=1.0, dt=0.1)

    def test_zero_duration_rejected(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="tensile", duration=0.0, dt=0.1)

    def test_cyclic_requirements(self):
        with pytest.raises(DomainError):
            ProtocolSpec(kind="cyclic", amplitude=0.0, angular_frequency=1.0,
                         cycles=3)
        with pytest.raises(DomainError):
            ProtocolSpec(kind="cyclic", amplitude=0.1, angular_frequency=1.0,
                         cycles=0)

    def test_period_that_overflows(self):
        # one rule for a cyclic run's cycles periods and a sweep's longest
        # period, raised before any grid is built, with no warning
        spec = sweep_spec(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^3 x period 2\*pi/w "
                               r"overflows, got w = 1e-310$"):
                replace(spec, angular_frequency=1e-310)
            with pytest.raises(DomainError, match=r"^1 x period 2\*pi/w "
                               r"overflows, got w = 1e-310$"):
                frequency_sweep(spec, SWEEP_SPECIMENS["kelvin"], [1e-310, 1.0])


class TestTensile:
    def test_linear_elastic_metrics(self):
        k = 3.0
        model = elastic_qlv(LinearElasticLaw(k=k))
        spec = ProtocolSpec(kind="tensile", duration=1.0, dt=1e-3,
                            stretch_rate=0.2)
        series, report = run_tensile(spec, model)
        assert report.youngs_modulus == pytest.approx(k, rel=1e-3)
        assert report.yield_stress is None
        e_max = series.columns["green_strain"][-1]
        assert report.fracture_energy == pytest.approx(0.5 * k * e_max ** 2,
                                                       rel=1e-4)
        assert report.uts == pytest.approx(k * e_max, rel=1e-12)

    def test_exponential_law_convex_uts_at_end(self):
        model = elastic_qlv(ExponentialTensileLaw(B=1.0, C=1.0))
        spec = ProtocolSpec(kind="tensile", duration=1.0, dt=1e-3,
                            stretch_rate=0.5)
        series, report = run_tensile(spec, model)
        stress = series.columns["stress"]
        assert report.uts == stress[-1]
        assert np.all(np.diff(stress, 2) > -1e-12)  # convex

    def test_grid_independence_linear(self):
        model = elastic_qlv(LinearElasticLaw(k=2.0))
        for dt in (1e-2, 1e-3):
            spec = ProtocolSpec(kind="tensile", duration=1.0, dt=dt,
                                stretch_rate=0.2)
            _, report = run_tensile(spec, model)
            assert report.youngs_modulus == pytest.approx(2.0, rel=1e-3)


def offset_yield_loop(strain, stress, modulus, offset=0.002):
    """The per-sample search that _offset_yield replaced, kept as its
    reference."""
    if modulus is None or modulus <= 0:
        return None
    gap = stress - modulus * (strain - offset)
    for i in range(1, strain.size):
        if gap[i] <= 0 < gap[i - 1]:
            w = gap[i - 1] / (gap[i - 1] - gap[i])
            return float(stress[i - 1] + w * (stress[i] - stress[i - 1]))
    return None


class TestOffsetYieldAgainstTheLoop:
    """The first downward crossing found by one array expression is the
    loop's, with the same interpolation, bit for bit."""

    # at zero strain, modulus 1 and offset 0.002 the gap is stress + 0.002
    # exactly, so these stresses fix the sign pattern of the gap
    @pytest.mark.parametrize("stress, crossing", [
        ([0.5, 0.4, 0.3, 0.2], None),
        ([0.5], None),
        ([-0.5, -0.4, 0.3, 0.2], None),
        ([0.5, -0.4, 0.3, -0.2], 1),
        ([0.5, -0.002, 0.3], 1),
        ([0.5, 0.4, 0.3, -0.2], 3),
        ([-0.5, 0.4, 0.3, 0.2, -0.1], 4),
    ], ids=["none", "one-sample", "only-upward", "first", "zero-gap", "last",
            "last-after-upward"])
    def test_crossing_cases(self, stress, crossing):
        stress = np.array(stress)
        strain = np.zeros_like(stress)
        got = _offset_yield(strain, stress, 1.0)
        assert got == offset_yield_loop(strain, stress, 1.0)
        if crossing is None:
            assert got is None
        else:
            gap = stress + 0.002
            w = gap[crossing - 1] / (gap[crossing - 1] - gap[crossing])
            assert got == stress[crossing - 1] + w * (stress[crossing]
                                                      - stress[crossing - 1])

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.tuples(st.floats(0.0, 1.0),
                                     st.floats(-1.0, 1.0)),
                           min_size=1, max_size=40),
           modulus=st.one_of(st.none(), st.floats(-1.0, 10.0)))
    def test_property(self, values, modulus):
        strain, stress = np.array(values).T
        strain = np.cumsum(strain)
        assert _offset_yield(strain, stress, modulus) == \
            offset_yield_loop(strain, stress, modulus)


def maxwell_relaxation_loop(element, t):
    """The per-sample Maxwell step that np.cumprod replaced, kept as its
    reference."""
    f = np.empty_like(t)
    f[0] = element.mu
    a, dt = element.mu / element.eta, t[1] - t[0]
    for i in range(1, t.size):
        f[i] = (1 - 0.5 * dt * a) / (1 + 0.5 * dt * a) * f[i - 1]
    return f


class TestMaxwellRelaxationAgainstTheLoop:
    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(1e-3, 1e3), eta=st.floats(1e-3, 1e3),
           dt=st.floats(1e-4, 10.0), n=st.integers(1, 3000))
    def test_property(self, mu, eta, dt, n):
        element = MaxwellParams(mu=mu, eta=eta)
        t = np.linspace(0.0, n * dt, n + 1)
        assert np.array_equal(_element_relaxation(element, t),
                              maxwell_relaxation_loop(element, t))


class TestCreep:
    def test_voigt_tracks_closed_form(self):
        p = VoigtParams(mu=2.0, eta=3.0)
        spec = ProtocolSpec(kind="creep", duration=5.0, dt=1e-3,
                            hold_stress=1.0)
        series, _ = run_creep(spec, p)
        ref = voigt_creep(p, np.maximum(series.times, 1e-300))
        err = np.max(np.abs(series.columns["deformation"] - ref)) / ref[-1]
        assert err <= 1e-4

    def test_kelvin_tracks_closed_form(self):
        p = KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5)
        spec = ProtocolSpec(kind="creep", duration=5.0, dt=1e-3,
                            hold_stress=1.0)
        series, _ = run_creep(spec, p)
        ref = kelvin_creep(p, np.maximum(series.times, 1e-300))
        err = np.max(np.abs(series.columns["deformation"] - ref)) / ref[-1]
        assert err <= 1e-7

    def test_maxwell_late_rate(self):
        p = MaxwellParams(mu=2.0, eta=4.0)
        spec = ProtocolSpec(kind="creep", duration=5.0, dt=1e-3,
                            hold_stress=1.0)
        _, report = run_creep(spec, p)
        assert report.creep_rate[-1] == pytest.approx(1.0 / p.eta, rel=1e-6)

    def test_zero_hold_stress(self):
        model = QlvModel.from_kernel(
            ExponentialTensileLaw(B=1.0, C=1.0),
            PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(1.0,)))
        spec = ProtocolSpec(kind="creep", duration=1.0, dt=1e-2,
                            hold_stress=0.0)
        series, _ = run_creep(spec, model)
        assert np.all(series.columns["green_strain"] == 0.0)

    def test_qlv_creep_holds_the_stress(self):
        from qlvsim.qlv import StrainHistory, qlv_stress_fast
        model = QlvModel.from_kernel(
            ExponentialTensileLaw(B=10.0, C=2.0),
            FungSpectrum(c=0.3, q1=0.1, q2=10.0))
        spec = ProtocolSpec(kind="creep", duration=2.0, dt=2e-3,
                            hold_stress=1.0)
        series, _ = run_creep(spec, model)
        hist = StrainHistory(times=series.times,
                             values=series.columns["green_strain"])
        recovered = qlv_stress_fast(model, hist).values
        assert np.max(np.abs(recovered - 1.0)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(law=st.sampled_from([
               LinearElasticLaw(k=3.0),
               FungUniaxialLaw(FungBiaxialParams(c=0.2, a1=4.0, alpha1=1.0)),
               FungUniaxialLaw(FungBiaxialParams(
                   c=0.5, a1=2.0, gamma1=0.5, include_third_order=True))]),
           kernel=st.sampled_from([
               FungSpectrum(c=0.3, q1=0.1, q2=10.0),
               KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5),
               PronySpectrum(K=0.4, amplitudes=(0.3, 0.3),
                             frequencies=(1.0, 10.0))]),
           load=st.floats(0.1, 2.0))
    def test_qlv_creep_holds_the_stress_for_every_law(self, law, kernel,
                                                      load):
        from qlvsim.qlv import StrainHistory, qlv_stress_fast
        model = QlvModel.from_kernel(law, kernel)
        spec = ProtocolSpec(kind="creep", duration=2.0, dt=2e-3,
                            hold_stress=load)
        series, _ = run_creep(spec, model)
        hist = StrainHistory(times=series.times,
                             values=series.columns["green_strain"])
        recovered = qlv_stress_fast(model, hist).values
        assert np.max(np.abs(recovered - load)) <= 1e-10 * load

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), terms=st.integers(1, 64),
           exponential=st.booleans(), sign=st.sampled_from([-1.0, 1.0]),
           size=st.floats(0.01, 1.0), dt=st.floats(1e-3, 0.1),
           n=st.integers(1, 2000))
    def test_green_strain_is_the_step_loop_bit_for_bit(
            self, seed, terms, exponential, sign, size, dt, n):
        # the memory decays by the decay computed once, which is the
        # per-step prony_step(prony, h, dt, 0.0) up to the sign of a zero
        rng = np.random.default_rng(seed)
        law = (ExponentialTensileLaw(B=rng.uniform(1.0, 10.0),
                                     C=rng.uniform(0.5, 5.0)) if exponential
               else LinearElasticLaw(k=rng.uniform(0.5, 5.0)))
        freqs = np.unique(10.0 ** rng.uniform(-3.0, 3.0, terms))
        model = QlvModel.from_kernel(law, PronySpectrum(
            K=rng.uniform(0.05, 1.0), amplitudes=rng.uniform(0.0, 1.0,
                                                             freqs.size),
            frequencies=freqs))
        prony = model.prony
        # |T_e| stays below |load|/K, inside either law's domain
        scale = law.C / law.B if exponential else law.k
        load = sign * size * 0.4 * prony.K * scale
        spec = ProtocolSpec(kind="creep", duration=n * dt, dt=dt,
                            hold_stress=load)
        series, _ = run_creep(spec, model)
        t = series.times
        step = t[1] - t[0]
        gain = prony_step(prony, 0.0, step, 1.0)
        gsum = float(gain.sum())
        te = np.empty_like(t)
        te[0] = load
        h = np.asarray(prony.amplitudes) * load
        for i in range(1, t.size):
            free = prony_step(prony, h, step, 0.0)
            te[i] = (load - free.sum() + gsum * te[i - 1]) / (prony.K + gsum)
            h = free + gain * (te[i] - te[i - 1])
        assert np.array_equal(series.columns["green_strain"],
                              law.green_at_stress(te))

    def test_a_step_of_zero_stiffness_is_a_domain_error(self):
        # K + the step gains is exactly 0 at this dt, so no T_e solves the
        # step; a Python float division would raise ZeroDivisionError
        model = QlvModel.from_kernel(ExponentialTensileLaw(B=10.0, C=2.0),
                                     PronySpectrum(K=-1.0, amplitudes=(2.0,),
                                                   frequencies=(1.0,)))
        dt = 1.59362426004004
        gain = prony_step(model.prony, 0.0, dt, 1.0)
        assert model.prony.K + float(gain.sum()) == 0.0
        spec = ProtocolSpec(kind="creep", duration=4 * dt, dt=dt,
                            hold_stress=0.5)
        with pytest.raises(DomainError, match="^creep: K \\+ sum of step "
                           f"gains is 0 at dt {dt}$"):
            run_creep(spec, model)

    def test_second_order_dt_convergence(self):
        p = VoigtParams(mu=2.0, eta=3.0)
        def err(dt):
            spec = ProtocolSpec(kind="creep", duration=3.0, dt=dt,
                                hold_stress=1.0)
            series, _ = run_creep(spec, p)
            ref = voigt_creep(p, np.maximum(series.times, 1e-300))
            return np.max(np.abs(series.columns["deformation"] - ref))
        assert err(0.01) / err(0.005) > 3.0

    def test_kelvin_second_order_dt_convergence(self):
        p = KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5)
        def err(dt):
            spec = ProtocolSpec(kind="creep", duration=3.0, dt=dt,
                                hold_stress=1.0)
            series, _ = run_creep(spec, p)
            ref = kelvin_creep(p, np.maximum(series.times, 1e-300))
            return np.max(np.abs(series.columns["deformation"] - ref))
        assert err(0.01) / err(0.005) > 3.0


class TestRelaxation:
    def test_qlv_step_response_is_exact(self):
        law = ExponentialTensileLaw(B=2.0, C=1.0)
        fung = FungSpectrum(c=0.5, q1=0.1, q2=10.0)
        model = QlvModel.from_kernel(law, fung)
        spec = ProtocolSpec(kind="relaxation", duration=5.0, dt=1e-2,
                            hold_strain=0.2)
        series, report = run_relaxation(spec, model)
        te0 = law.stress_green(0.2)
        ref = fung_reduced_relaxation(fung, series.times) * te0
        assert np.max(np.abs(series.columns["stress"] - ref)) <= 1e-10 * te0
        assert series.columns["normalized_stress"][0] == 1.0
        assert np.all(np.diff(series.columns["stress"]) <= 1e-15)

    def test_fung_asymptote_half(self):
        law = LinearElasticLaw(k=1.0)
        model = QlvModel.from_kernel(law, FungSpectrum(c=1.0, q1=1.0,
                                                       q2=math.e))
        spec = ProtocolSpec(kind="relaxation", duration=2.0, dt=1e-2,
                            hold_strain=0.3)
        _, report = run_relaxation(spec, model)
        assert report.relaxation_asymptote == pytest.approx(0.5 * 0.3,
                                                            rel=1e-12)

    def test_maxwell_element_matches_closed_form(self):
        p = MaxwellParams(mu=3.0, eta=6.0)
        spec = ProtocolSpec(kind="relaxation", duration=5.0, dt=1e-3,
                            hold_strain=1.0)
        series, _ = run_relaxation(spec, p)
        ref = maxwell_relaxation(p, np.maximum(series.times, 1e-300))
        assert np.max(np.abs(series.columns["stress"] - ref)) / p.mu <= 1e-4

    def test_kelvin_element_matches_closed_form(self):
        p = KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5)
        spec = ProtocolSpec(kind="relaxation", duration=4.0, dt=1e-3,
                            hold_strain=1.0)
        series, _ = run_relaxation(spec, p)
        ref = kelvin_relaxation(p, np.maximum(series.times, 1e-300))
        scale = ref[0]
        assert np.max(np.abs(series.columns["stress"] - ref)) / scale <= 1e-4


class TestCyclic:
    def test_elastic_model_zero_hysteresis(self):
        model = elastic_qlv(LinearElasticLaw(k=1.0))
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1,
                            angular_frequency=1.0, cycles=4)
        _, report = run_cyclic(spec, model)
        assert report.hysteresis_H == pytest.approx(0.0, abs=1e-10)

    def test_kelvin_bell_shape(self):
        p = KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=2.0)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1,
                            angular_frequency=1.0, cycles=5)
        freqs, hs = frequency_sweep(spec, p, np.logspace(-1, 1, 9))
        peak = int(np.argmax(hs))
        assert 0 < peak < hs.size - 1
        # peak near 1/sqrt(tau_eps * tau_sigma) = 1
        assert freqs[peak] == pytest.approx(1.0, rel=0.8)

    def test_fung_flat_inside_spectrum(self):
        model = QlvModel.from_kernel(
            ExponentialTensileLaw(B=10.0, C=2.0),
            FungSpectrum(c=0.5, q1=1e-2, q2=1e2))
        spec = ProtocolSpec(kind="cyclic", amplitude=0.05, mean=0.25,
                            angular_frequency=1.0, cycles=5,
                            samples_per_cycle=256)
        _, hs = frequency_sweep(spec, model, np.logspace(-1, 1, 5))
        assert hs.max() / hs.min() <= 1.10

    def test_steady_state_is_periodic(self):
        # with a linear law and one term, stress = K*x + h; one more exact
        # recursion step from the last sample of the period must land on
        # the first sample again
        prony = PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(1.0,))
        model = QlvModel.from_kernel(LinearElasticLaw(k=1.0), prony)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1,
                            angular_frequency=1.0, cycles=6)
        series, _ = run_cyclic(spec, model)
        nps = spec.samples_per_cycle
        x = series.columns["green_strain"][:nps]
        y = series.columns["stress"][:nps]
        dt = series.times[1] - series.times[0]
        h_end = prony_step(prony, y[-1] - prony.K * x[-1], dt, x[0] - x[-1])
        assert prony.K * x[0] + h_end.sum() == pytest.approx(y[0], rel=1e-12)

    def test_series_repeats_the_steady_cycle(self):
        p = KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1,
                            angular_frequency=2.0, cycles=3,
                            samples_per_cycle=64)
        series, _ = run_cyclic(spec, p)
        assert series.times.size == 3 * 64 + 1
        assert series.times[-1] == pytest.approx(3 * math.pi, rel=1e-15)
        stress = series.columns["stress"]
        assert np.array_equal(stress[:64], stress[64:128])
        assert stress[-1] == stress[0]

    def test_maxwell_high_frequency_matches_settled_transient(self):
        # stopping once H changes by < 0.1% per cycle is 2.7e-4 off here
        p = MaxwellParams(mu=1.0, eta=1.0)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1,
                            angular_frequency=10.0, cycles=5,
                            samples_per_cycle=256)
        _, report = run_cyclic(spec, p)
        h_ref, _ = settled_transient(spec, element_spectrum(p), 1.0)
        assert report.hysteresis_H == pytest.approx(h_ref, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(specimen=st.sampled_from(["qlv", "maxwell", "kelvin"]),
           freqs=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4,
                          unique=True),
           amps=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
           K=st.floats(0.0, 1.0), w=st.floats(0.1, 10.0),
           nps=st.integers(16, 128), mean=st.floats(0.0, 0.2))
    def test_matches_settled_transient(self, specimen, freqs, amps, K, w,
                                       nps, mean):
        freqs = sorted(freqs)
        if specimen == "maxwell":
            model = MaxwellParams(mu=amps[0], eta=amps[0] / freqs[0])
            spectrum = element_spectrum(model)
        elif specimen == "kelvin":
            model = KelvinParams(E_R=amps[0], tau_eps=1.0 / freqs[0],
                                 tau_sigma=(1.0 + amps[1]) / freqs[0])
            spectrum = element_spectrum(model)
        else:
            spectrum = PronySpectrum(K=K, amplitudes=amps[:len(freqs)],
                                     frequencies=freqs)
            model = QlvModel.from_kernel(
                ExponentialTensileLaw(B=2.0, C=1.0), spectrum)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1, mean=mean,
                            angular_frequency=w, cycles=2,
                            samples_per_cycle=nps)
        series, report = run_cyclic(spec, model)
        h_ref, y_ref = settled_transient(
            spec, model if specimen == "qlv" else spectrum, freqs[0])
        y = series.columns["stress"][-(nps + 1):]
        assert np.max(np.abs(y - y_ref)) <= 1e-9 * np.max(np.abs(y_ref))
        assert report.hysteresis_H == pytest.approx(h_ref, rel=1e-9)

    def test_voigt_matches_transient(self):
        # the dashpot rate is a central difference that wraps around the
        # period; compare an interior period of a plain transient
        p = VoigtParams(mu=1.0, eta=0.5)
        spec = ProtocolSpec(kind="cyclic", amplitude=0.1, mean=0.05,
                            angular_frequency=2.0, cycles=1,
                            samples_per_cycle=128)
        series, report = run_cyclic(spec, p)
        t = np.linspace(0.0, 3 * math.pi, 3 * 128 + 1)
        x = 0.05 + 0.05 * (1.0 - np.cos(2.0 * t))
        y = p.mu * x + p.eta * np.gradient(x, t)
        mid = slice(128, 2 * 128 + 1)
        y_ref = y[mid]
        scale = np.max(np.abs(y_ref))
        assert np.max(np.abs(series.columns["stress"] - y_ref)) <= 1e-9 * scale
        assert report.hysteresis_H == pytest.approx(
            _loop_hysteresis(x[mid], y_ref), rel=1e-9)

    def test_periodic_force_history_needs_a_period(self):
        with pytest.raises(DomainError):
            periodic_force_history(PronySpectrum(K=1.0), 0.1, [1.0])
        with pytest.raises(DomainError):
            periodic_force_history(PronySpectrum(K=1.0), 0.0, [1.0, 2.0])


def element_spectrum(element):
    """Force relaxation function of a Maxwell or Kelvin element as a Prony
    series, read off its closed form."""
    if isinstance(element, MaxwellParams):
        return PronySpectrum(K=0.0, amplitudes=(element.mu,),
                             frequencies=(element.mu / element.eta,))
    amp = element.E_R * (element.tau_sigma / element.tau_eps - 1.0)
    return PronySpectrum(K=element.E_R, amplitudes=(amp,),
                         frequencies=(1.0 / element.tau_eps,))


def settled_transient(spec, specimen, f_min):
    """Cycle from rest for at least 40/f_min and return (H, stress) of the
    last period; ``specimen`` is a QlvModel or a force Prony spectrum."""
    w, nps = spec.angular_frequency, spec.samples_per_cycle
    period = 2.0 * math.pi / w
    n = int(math.ceil(40.0 / (f_min * period))) + 1
    t = np.linspace(0.0, n * period, n * nps + 1)
    x = spec.mean + 0.5 * spec.amplitude * (1.0 - np.cos(w * t))
    if isinstance(specimen, QlvModel):
        y = qlv_stress_fast(specimen, StrainHistory(times=t, values=x,
                                                    measure="green")).values
    else:
        y = kernel_force_history(specimen, t, x)
    last = slice(-(nps + 1), None)
    return _loop_hysteresis(x[last], y[last]), y[last]


def linspace_cycle_h(spec, model, w):
    """H of one frequency's steady cycle, a reference for the sweep's
    passes: one period's np.linspace grid, whose times are i*step with
    step = period/samples_per_cycle, one 1-D filter call, the elastic
    stress through a StrainHistory."""
    nps = spec.samples_per_cycle
    t = np.linspace(0.0, 2.0 * math.pi / w, nps + 1)[:nps]
    x = spec.mean + 0.5 * spec.amplitude * (1.0 - np.cos(w * t))
    dt = t[1] - t[0]
    if isinstance(model, VoigtParams):
        y = model.mu * x + model.eta * (
            (np.roll(x, -1) - np.roll(x, 1)) / (2.0 * dt))
    elif isinstance(model, QlvModel):
        y = periodic_force_history(model.prony, dt, model.elastic_stress(
            StrainHistory(times=t, values=x)))
    else:
        prony = kernel_to_prony(model)
        scale = (model.mu if isinstance(model, MaxwellParams)
                 else model.E_R * model.tau_sigma / model.tau_eps)
        raw = PronySpectrum(K=prony.K * scale,
                            amplitudes=[a * scale for a in prony.amplitudes],
                            frequencies=prony.frequencies)
        y = periodic_force_history(raw, dt, x)
    return _loop_hysteresis(np.append(x, x[0]), np.append(y, y[0]))


SWEEP_SPECIMENS = {
    "qlv": QlvModel.from_kernel(ExponentialTensileLaw(B=10.0, C=2.0),
                                FungSpectrum(c=0.5, q1=1e-2, q2=1e2)),
    "qlv-linear": QlvModel.from_kernel(
        LinearElasticLaw(k=2.0),
        PronySpectrum(K=0.4, amplitudes=(0.35, 0.25), frequencies=(0.5, 8.0))),
    "maxwell": MaxwellParams(mu=1.3, eta=0.7),
    "voigt": VoigtParams(mu=1.0, eta=0.5),
    "kelvin": KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5),
}


def sweep_spec(nps, cycles=3):
    return ProtocolSpec(kind="cyclic", amplitude=0.05, mean=0.25,
                        angular_frequency=1.0, cycles=cycles,
                        samples_per_cycle=nps)


def traced_sweep(spec, model, freqs):
    """(H, tracemalloc peak) of one sweep, after an untraced one."""
    frequency_sweep(spec, model, freqs)
    tracemalloc.start()
    try:
        _, hs = frequency_sweep(spec, model, freqs)
        return hs, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepPasses:
    """A sweep solves a block of frequencies per filter pass, one period
    each, and gives each frequency's run_cyclic H bit for bit."""

    # passes of 16, 64, 1 and 1 frequencies; no count fills its last pass
    @pytest.mark.parametrize("nps, count", [
        (256, 23), (64, 70), (4 * _BLOCK_ROWS, 3), (4 * _BLOCK_ROWS + 3, 2)])
    @pytest.mark.parametrize("specimen", list(SWEEP_SPECIMENS))
    def test_h_is_each_run_cyclic_h(self, specimen, nps, count):
        model, spec = SWEEP_SPECIMENS[specimen], sweep_spec(nps)
        freqs = np.logspace(-1.5, 1.5, count)
        got, hs = frequency_sweep(spec, model, freqs)
        assert got.tobytes() == freqs.tobytes()
        want = [run_cyclic(replace(spec, angular_frequency=float(w)),
                           model)[1].hysteresis_H for w in freqs]
        assert hs.tobytes() == np.array(want).tobytes()
        assert hs.tobytes() == np.array(
            [linspace_cycle_h(spec, model, w) for w in freqs]).tobytes()

    def test_cycles_do_not_change_cost(self):
        # the period's step is period/samples_per_cycle whatever cycles, so
        # H is the same bit for bit for every cycle count, and equal to the
        # one-period linspace reference, and the sweep's memory is the same;
        # run_cyclic's cycle is the drive at its own time column (at w = 0.1
        # a step of cycles*period/(cycles*32) rounds otherwise; a zero mean
        # keeps the drive's last bits)
        model, freqs = SWEEP_SPECIMENS["qlv"], np.logspace(-1, 1, 9)
        hs, peaks = {}, {}
        for cycles in (1, 5, 40_000):
            spec = sweep_spec(32, cycles)
            hs[cycles], peaks[cycles] = traced_sweep(spec, model, freqs)
            assert hs[cycles].tobytes() == hs[1].tobytes()
            series, _ = run_cyclic(replace(spec, angular_frequency=0.1,
                                           mean=0.0), model)
            assert series.columns["green_strain"][:32].tobytes() == (
                0.5 * spec.amplitude * (
                    1.0 - np.cos(0.1 * series.times[:32]))).tobytes()
        assert hs[1].tobytes() == np.array(
            [linspace_cycle_h(spec, model, w) for w in freqs]).tobytes()
        assert abs(peaks[40_000] - peaks[5]) <= 1024

    def test_count_does_not_change_peak(self):
        # 256 samples: 16 frequencies per pass
        model, spec = SWEEP_SPECIMENS["qlv"], sweep_spec(256)
        _, one_pass = traced_sweep(spec, model, np.logspace(-1, 1, 16))
        _, many = traced_sweep(spec, model, np.logspace(-1, 1, 200))
        assert many <= one_pass + 16 * 1024

    def test_first_failing_frequency_raises(self, monkeypatch):
        # frequency 2's stress fails and frequency 1's loop does: one
        # run_cyclic per frequency, in order, raised frequency 1's error, so
        # the failing pass of all nine runs again one frequency at a time
        model, spec = SWEEP_SPECIMENS["kelvin"], sweep_spec(64)
        freqs = np.logspace(-1, 1, 9)
        steady, loop = protocols._steady_cycles, protocols._loop_hysteresis
        (_,), (bad_loop,) = steady(spec, model, freqs[1:2])

        def steady_cycles(spec, model, ws):
            if freqs[2] in ws:
                raise FloatingPointError("overflow encountered in multiply")
            return steady(spec, model, ws)

        def loop_hysteresis(strain, stress):
            if np.array_equal(stress[:-1], bad_loop):
                raise DomainError("frequency 1's loop")
            return loop(strain, stress)

        monkeypatch.setattr(protocols, "_steady_cycles", steady_cycles)
        monkeypatch.setattr(protocols, "_loop_hysteresis", loop_hysteresis)
        with pytest.raises(DomainError, match="frequency 1's loop"):
            frequency_sweep(spec, model, freqs)
        with pytest.raises(FloatingPointError):
            frequency_sweep(spec, model, freqs[2:])

    def test_passes_fit_the_budget(self, monkeypatch):
        # 256 samples x 64 terms of states per frequency: with a budget of
        # 3.5 frequencies' states a pass takes 3, and H keeps its bits
        model, spec = SWEEP_SPECIMENS["qlv"], sweep_spec(256)
        freqs = np.logspace(-1, 1, 9)
        _, want = frequency_sweep(spec, model, freqs)
        sizes = []

        def counted(spec, model, ws):
            sizes.append(ws.size)
            return steady_cycles(spec, model, ws)

        steady_cycles = protocols._steady_cycles
        monkeypatch.setattr(protocols, "_steady_cycles", counted)
        frequency_sweep(spec, model, freqs)
        assert sizes == [9]
        budget = 256 * 64 * 7 // 2
        monkeypatch.setattr(protocols, "SIZE_BUDGET", budget)
        monkeypatch.setattr("qlvsim.kernels.SIZE_BUDGET", budget)
        sizes.clear()
        _, hs = frequency_sweep(spec, model, freqs)
        assert sizes == [3, 3, 3]
        assert hs.tobytes() == want.tobytes()


class TestFitExponential:
    def test_noiseless_round_trip(self):
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        lam = np.linspace(1.0, 2.0, 50)
        fitted, diag = fit_exponential_law(lam, law.stress(lam))
        assert fitted.B == pytest.approx(2.0, rel=1e-3)
        assert fitted.C == pytest.approx(3.0, rel=1e-3)

    def test_linear_limit(self):
        k = 4.0
        lam = np.linspace(1.0, 2.0, 50)
        fitted, diag = fit_exponential_law(lam, k * (lam - 1.0))
        assert fitted.B <= 1e-3 * k
        assert fitted.C == pytest.approx(k, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            fit_exponential_law([1.0, 1.1], [0.0, 0.2])

    def test_constant_stress_is_singular(self):
        lam = np.linspace(1.0, 2.0, 10)
        with pytest.raises(FitError):
            fit_exponential_law(lam, np.ones_like(lam))

    def test_noisy_recovery(self):
        rng = np.random.default_rng(99)
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        lam = np.linspace(1.0, 2.0, 200)
        noisy = law.stress(lam) * (1.0 + 0.01 * rng.standard_normal(lam.size))
        fitted, _ = fit_exponential_law(lam, noisy)
        assert fitted.B == pytest.approx(2.0, rel=0.05)
        assert fitted.C == pytest.approx(3.0, rel=0.05)


class TestFitSpectrum:
    def test_known_prony_round_trip(self):
        true = PronySpectrum(K=0.4, amplitudes=(0.2, 0.25, 0.15),
                             frequencies=(0.3, 2.0, 9.0))
        t = np.linspace(0.0, 30.0, 600)
        g = prony_relaxation(true, t)
        fitted, diag = fit_relaxation_spectrum(
            t, g, 3, frequencies=true.frequencies)
        assert fitted.K == pytest.approx(0.4, abs=1e-6)
        for a, b in zip(fitted.amplitudes, true.amplitudes):
            assert a == pytest.approx(b, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 50)
        fitted, _ = fit_relaxation_spectrum(t, np.ones_like(t), 4)
        assert fitted.K == pytest.approx(1.0, abs=1e-9)
        assert all(a == pytest.approx(0.0, abs=1e-9)
                   for a in fitted.amplitudes)

    def test_fung_data_fit(self):
        s = FungSpectrum(c=0.5, q1=0.05, q2=20.0)
        t = np.concatenate([[0.0], np.logspace(-3, 2.5, 300)])
        g = fung_reduced_relaxation(s, t)
        fitted, diag = fit_relaxation_spectrum(t, g, 64)
        assert diag["max_error"] <= 1e-3

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 400), terms=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_design_matrix_is_the_column_by_column_one(self, n, terms, seed):
        # the reference builds one exp(-f*t) column per frequency
        from scipy.optimize import nnls
        rng = np.random.default_rng(seed)
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
        g = np.exp(-t / t[-1] * rng.uniform(0.1, 5.0))
        fitted, diag = fit_relaxation_spectrum(t, g, terms)
        freqs = np.array(fitted.frequencies)
        A = np.column_stack([np.ones_like(t)] +
                            [np.exp(-f * t) for f in freqs])
        coeffs, _ = nnls(A, g)
        assert np.array_equal([fitted.K, *fitted.amplitudes], coeffs)
        assert diag["max_error"] == float(np.max(np.abs(A @ coeffs - g)))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 400), terms=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), span=st.floats(1e-6, 1e6))
    def test_design_matrix_is_the_stacked_one_byte_for_byte(self, n, terms,
                                                            seed, span):
        # the matrix nnls gets equals the form that stacked a column of
        # ones and exp(-outer(t, f)), and so does the fit
        import scipy.optimize
        rng = np.random.default_rng(seed)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, span, n - 1))])
        t = np.unique(t)
        g = np.exp(-t / t[-1] * rng.uniform(0.1, 5.0))
        seen, nnls = [], scipy.optimize.nnls
        with mock.patch.object(scipy.optimize, "nnls", lambda A, b: (
                seen.append(A.copy()) or nnls(A, b))):
            fitted, diag = fit_relaxation_spectrum(t, g, terms)
        freqs = np.array(fitted.frequencies)
        stacked = np.column_stack([np.ones_like(t),
                                   np.exp(-np.outer(t, freqs))])
        assert seen[0].tobytes() == stacked.tobytes()
        coeffs, _ = nnls(stacked, g)
        assert np.array_equal([fitted.K, *fitted.amplitudes], coeffs)
        assert diag["max_error"] == float(np.max(np.abs(stacked @ coeffs
                                                        - g)))

    def test_design_matrix_is_its_one_full_size_array(self):
        # rows x (terms + 1) doubles: the stacked form held its exp block
        # (rows x terms) beside it, about twice the peak at nnls's call
        import scipy.optimize
        t = np.linspace(0.0, 10.0, 20000)
        g, terms = np.exp(-t), 8
        full = t.size * (terms + 1) * 8
        peaks, nnls = [], scipy.optimize.nnls
        with mock.patch.object(scipy.optimize, "nnls", lambda A, b: (
                peaks.append(tracemalloc.get_traced_memory()[1])
                or nnls(A, b))):
            tracemalloc.start()
            try:
                fit_relaxation_spectrum(t, g, terms)
            finally:
                tracemalloc.stop()
        assert full <= peaks[0] < 1.5 * full

    @pytest.mark.parametrize("terms", [-1, 0])
    def test_needs_a_term(self, terms):
        t = np.linspace(0.0, 5.0, 20)
        with pytest.raises(DomainError,
                           match=f"term count must be >= 1, got {terms}"):
            fit_relaxation_spectrum(t, np.exp(-t), terms)

    def test_design_matrix_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(protocols, "SIZE_BUDGET", 100)
        t = np.linspace(0.0, 5.0, 20)
        fit_relaxation_spectrum(t, np.exp(-t), 4)      # 20 x 5 values
        with pytest.raises(DomainError, match="rows x \\(terms \\+ 1\\) "
                           "must be <= 100, got 20 x 6"):
            fit_relaxation_spectrum(t, np.exp(-t), 5)

    def test_unnormalized_rejected(self):
        t = np.linspace(0.0, 5.0, 20)
        with pytest.raises(DomainError):
            fit_relaxation_spectrum(t, 2.0 * np.exp(-t), 3)
        with pytest.raises(DomainError):
            fit_relaxation_spectrum(t + 1.0, np.exp(-t), 3)
