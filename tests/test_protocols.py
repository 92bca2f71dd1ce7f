import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim.constitutive import (ExponentialTensileLaw, FungBiaxialParams,
                                 FungUniaxialLaw, LinearElasticLaw)
from qlvsim.errors import DomainError, FitError
from qlvsim.kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                            PronySpectrum, VoigtParams,
                            fung_reduced_relaxation, kelvin_relaxation,
                            kernel_force_history, maxwell_relaxation,
                            periodic_force_history, prony_relaxation,
                            prony_step, voigt_creep)
from qlvsim.protocols import (ProtocolSpec, _loop_hysteresis,
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


class TestCreep:
    def test_voigt_tracks_closed_form(self):
        p = VoigtParams(mu=2.0, eta=3.0)
        spec = ProtocolSpec(kind="creep", duration=5.0, dt=1e-3,
                            hold_stress=1.0)
        series, _ = run_creep(spec, p)
        ref = voigt_creep(p, np.maximum(series.times, 1e-300))
        err = np.max(np.abs(series.columns["deformation"] - ref)) / ref[-1]
        assert err <= 1e-4

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

    def test_second_order_dt_convergence(self):
        p = VoigtParams(mu=2.0, eta=3.0)
        def err(dt):
            spec = ProtocolSpec(kind="creep", duration=3.0, dt=dt,
                                hold_stress=1.0)
            series, _ = run_creep(spec, p)
            ref = voigt_creep(p, np.maximum(series.times, 1e-300))
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

    def test_unnormalized_rejected(self):
        t = np.linspace(0.0, 5.0, 20)
        with pytest.raises(DomainError):
            fit_relaxation_spectrum(t, 2.0 * np.exp(-t), 3)
        with pytest.raises(DomainError):
            fit_relaxation_spectrum(t + 1.0, np.exp(-t), 3)
