import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.special import exp1

from qlvsim.errors import DomainError
from qlvsim import kernels
from qlvsim.kernels import (_BLOCK_ROWS, SIZE_BUDGET, FungSpectrum,
                            KelvinParams, MaxwellParams, PronySpectrum,
                            VoigtParams, exp_integral_e1, fung_long_time_limit,
                            fung_reduced_relaxation, fung_to_prony,
                            grid_steps, is_uniform_grid, kelvin_creep, kelvin_relaxation,
                            kernel_force_history, kernel_to_prony,
                            maxwell_creep,
                            maxwell_relaxation, periodic_force_history,
                            prony_relaxation, prony_step, ReducedRelaxation,
                            reduced_relaxation, unit_step, voigt_creep,
                            voigt_relaxation)


class TestUnitStep:
    def test_convention(self):
        assert unit_step(5.0) == 1.0
        assert unit_step(0.0) == 0.5
        assert unit_step(-1.0) == 0.0

    def test_vectorized(self):
        out = unit_step(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.5, 1.0])


class TestMaxwell:
    def test_creep_values(self):
        p = MaxwellParams(mu=2.0, eta=4.0)
        assert maxwell_creep(p, 1e-12) == pytest.approx(0.5, rel=1e-9)
        assert maxwell_creep(p, 4.0) == pytest.approx(1.5, rel=1e-12)
        assert maxwell_creep(p, -1.0) == 0.0

    def test_relaxation_values(self):
        p = MaxwellParams(mu=3.0, eta=6.0)
        assert maxwell_relaxation(p, 1e-15) == pytest.approx(3.0, rel=1e-12)
        assert maxwell_relaxation(p, 2.0) == pytest.approx(3.0 / math.e,
                                                           rel=1e-12)
        assert maxwell_relaxation(p, 1e6) == pytest.approx(0.0, abs=1e-12)

    def test_relaxation_time_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = MaxwellParams(mu=rng.uniform(0.1, 10),
                              eta=rng.uniform(0.1, 10))
            tau = p.eta / p.mu
            assert maxwell_relaxation(p, tau) == pytest.approx(
                p.mu / math.e, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(DomainError):
            MaxwellParams(mu=0.0, eta=1.0)
        with pytest.raises(DomainError):
            MaxwellParams(mu=1.0, eta=-1.0)


class TestVoigt:
    def test_creep_values(self):
        p = VoigtParams(mu=2.0, eta=2.0)
        assert voigt_creep(p, 1e-15) == pytest.approx(0.0, abs=1e-12)
        assert voigt_creep(p, 1.0) == pytest.approx((1 - math.exp(-1)) / 2,
                                                    rel=1e-12)
        assert voigt_creep(p, 1e6) == pytest.approx(0.5, rel=1e-12)

    def test_relaxation_pair(self):
        p = VoigtParams(mu=2.0, eta=3.0)
        impulse, regular = voigt_relaxation(p, 1.0)
        assert impulse == 3.0 and regular == 2.0
        impulse, regular = voigt_relaxation(p, -1.0)
        assert regular == 0.0

    def test_degenerate_spring_limit(self):
        p = VoigtParams(mu=1e-12, eta=3.0)
        _, regular = voigt_relaxation(p, 1.0)
        assert regular == pytest.approx(0.0, abs=1e-9)


class TestKelvin:
    def test_creep_values(self):
        p = KelvinParams(E_R=2.0, tau_eps=1.0, tau_sigma=2.0)
        assert kelvin_creep(p, 1e-15) == pytest.approx(0.25, rel=1e-9)
        assert kelvin_creep(p, 1e9) == pytest.approx(0.5, rel=1e-12)

    def test_relaxation_values(self):
        p = KelvinParams(E_R=2.0, tau_eps=1.0, tau_sigma=2.0)
        assert kelvin_relaxation(p, 1e-15) == pytest.approx(4.0, rel=1e-9)
        assert kelvin_relaxation(p, 1e9) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_elastic(self):
        p = KelvinParams(E_R=2.0, tau_eps=1.5, tau_sigma=1.5)
        t = np.linspace(0.01, 10, 20)
        assert np.allclose(kelvin_relaxation(p, t), 2.0, rtol=1e-12)
        assert np.allclose(kelvin_creep(p, t), 0.5, rtol=1e-12)

    def test_reciprocity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            te = rng.uniform(0.01, 10.0)
            p = KelvinParams(E_R=rng.uniform(0.01, 100.0), tau_eps=te,
                             tau_sigma=te * rng.uniform(1.0, 100.0))
            g0 = p.E_R * p.tau_sigma / p.tau_eps
            c0 = p.tau_eps / (p.tau_sigma * p.E_R)
            assert g0 * c0 == pytest.approx(1.0, abs=1e-12)
            ginf, cinf = p.E_R, 1.0 / p.E_R
            assert ginf * cinf == pytest.approx(1.0, abs=1e-12)

    def test_invalid_times(self):
        with pytest.raises(DomainError):
            KelvinParams(E_R=1.0, tau_eps=2.0, tau_sigma=1.0)
        with pytest.raises(DomainError):
            KelvinParams(E_R=1.0, tau_eps=0.0, tau_sigma=1.0)


class TestProny:
    def test_pure_elastic(self):
        s = PronySpectrum(K=1.0)
        t = np.array([0.0, 1.0, 5.0])
        assert np.allclose(prony_relaxation(s, t), 1.0)

    def test_single_term(self):
        s = PronySpectrum(K=0.0, amplitudes=(2.0,), frequencies=(1.0,))
        assert prony_relaxation(s, 1.0) == pytest.approx(2.0 / math.e,
                                                         rel=1e-12)

    def test_sum_at_zero(self):
        s = PronySpectrum(K=1.0, amplitudes=(1.0, 1.0), frequencies=(1.0, 10.0))
        assert prony_relaxation(s, 0.0) == 3.0
        assert s.at_zero == 3.0

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            PronySpectrum(K=0.0, amplitudes=(1.0, 1.0), frequencies=(2.0, 1.0))
        with pytest.raises(DomainError):
            PronySpectrum(K=0.0, amplitudes=(1.0,), frequencies=(-1.0,))
        with pytest.raises(DomainError):
            PronySpectrum(K=0.0, amplitudes=(-1.0,), frequencies=(1.0,))

    def test_normalized(self):
        s = PronySpectrum(K=1.0, amplitudes=(1.0, 2.0), frequencies=(1.0, 3.0))
        n = s.normalized()
        assert n.at_zero == pytest.approx(1.0, abs=1e-15)

    def test_negative_time_rejected(self):
        s = PronySpectrum(K=1.0)
        with pytest.raises(DomainError):
            prony_relaxation(s, -1.0)


class TestExpIntegral:
    def test_against_scipy(self):
        x = np.logspace(-6, 2.5, 400)
        got = exp_integral_e1(x)
        ref = exp1(x)
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    def test_against_quadrature(self):
        for x in (0.01, 0.5, 1.0, 2.0, 10.0):
            ref, _ = quad(lambda u: math.exp(-u) / u, x, np.inf)
            assert exp_integral_e1(x) == pytest.approx(ref, rel=1e-10)

    def test_invalid(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of(
        st.floats(700.0, 800.0),                    # across the cut at 746
        st.sampled_from([746.0, np.nextafter(746.0, np.inf), 745.13]),
        st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)), max_size=64))
    def test_is_scipys_exp1_byte_for_byte(self, x):
        x = np.array(x, dtype=float)
        assert exp_integral_e1(x).tobytes() == exp1(x).tobytes()
        for one in x[:3]:       # a Python float and a 0-d array: a float
            for arg in (float(one), np.array(one)):
                got = exp_integral_e1(arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == exp1(one).tobytes()

    def test_scipys_exp1_is_plus_zero_past_746(self):
        # the premise of skipping exp1 past 746: E1(x) < exp(-x)/x, which
        # is below half the least subnormal there; scipy's exp1 agrees
        x = np.concatenate([np.linspace(746.0, 800.0, 100_001),
                            np.geomspace(800.0, 1e6, 100_001)])
        assert exp1(x).tobytes() == np.zeros(x.size).tobytes()


class TestFungSpectrum:
    def test_normalization_at_zero(self):
        s = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
        assert fung_reduced_relaxation(s, 0.0) == 1.0

    def test_long_time_limit_half(self):
        s = FungSpectrum(c=1.0, q1=1.0, q2=math.e)
        assert fung_long_time_limit(s) == pytest.approx(0.5, rel=1e-12)
        assert fung_reduced_relaxation(s, 1e7) == pytest.approx(0.5, rel=1e-4)

    def test_closed_form_vs_quadrature(self):
        s = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
        t = 1.0
        num, _ = quad(lambda q: (s.c / q) * math.exp(-t / q), s.q1, s.q2,
                      limit=200)
        expected = (1.0 + num) / (1.0 + s.c * math.log(s.q2 / s.q1))
        assert fung_reduced_relaxation(s, t) == pytest.approx(expected,
                                                              rel=1e-8)

    def test_is_the_exp1_formula_byte_for_byte(self):
        # on a 1000 s grid t/q1 passes 746 at t = 7.46 s, where E1(t/q1)
        # is skipped as +0.0
        s = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
        t = np.arange(100_001) * 0.01
        tp = t[1:]
        want = np.append(1.0, (1.0 + s.c * (exp1(tp / s.q2) - exp1(tp / s.q1)))
                         / (1.0 + s.c * math.log(s.q2 / s.q1)))
        assert fung_reduced_relaxation(s, t).tobytes() == want.tobytes()

    def test_invalid(self):
        with pytest.raises(DomainError):
            FungSpectrum(c=0.0, q1=1.0, q2=2.0)
        with pytest.raises(DomainError):
            FungSpectrum(c=1.0, q1=2.0, q2=1.0)
        s = FungSpectrum(c=1.0, q1=1.0, q2=2.0)
        with pytest.raises(DomainError):
            fung_reduced_relaxation(s, -0.1)


class TestFungToProny:
    def test_normalization(self):
        s = FungSpectrum(c=1.0, q1=1.0, q2=math.e)
        p = fung_to_prony(s, 64)
        assert p.K + sum(p.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_accuracy(self):
        s = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
        p = fung_to_prony(s, 64)
        t = np.logspace(math.log10(s.q1 / 10), math.log10(10 * s.q2), 200)
        err = np.max(np.abs(prony_relaxation(p, t)
                            - fung_reduced_relaxation(s, t)))
        assert err <= 1e-3

    def test_refinement(self):
        s = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
        t = np.logspace(math.log10(s.q1 / 10), math.log10(10 * s.q2), 200)
        def err(n):
            p = fung_to_prony(s, n)
            return np.max(np.abs(prony_relaxation(p, t)
                                 - fung_reduced_relaxation(s, t)))
        assert err(128) < err(2)

    def test_too_few_terms(self):
        with pytest.raises(DomainError):
            fung_to_prony(FungSpectrum(c=1.0, q1=1.0, q2=2.0), 1)


class TestReducedRelaxation:
    def test_factory_normalizes_all_kernels(self):
        kernels = [MaxwellParams(mu=2.0, eta=3.0),
                   VoigtParams(mu=2.0, eta=3.0),
                   KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5),
                   PronySpectrum(K=1.0, amplitudes=(2.0,), frequencies=(1.0,)),
                   FungSpectrum(c=0.5, q1=0.1, q2=10.0)]
        for k in kernels:
            g = reduced_relaxation(k)
            assert g.value(0.0) == pytest.approx(1.0, abs=1e-12)
            t = np.logspace(-3, 3, 100)
            vals = np.asarray(g.value(t))
            assert np.all(np.diff(vals) <= 1e-15)

    def test_kelvin_mapping_matches_element(self):
        # the (q, S) single-body form must reproduce the normalized element
        p = KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5)
        g = reduced_relaxation(p)
        t = np.linspace(0.0, 5.0, 50)
        ref = kelvin_relaxation(p, np.maximum(t, 1e-300)) / (
            p.E_R * p.tau_sigma / p.tau_eps)
        assert np.allclose(np.asarray(g.value(t)), ref, rtol=1e-12)

    def test_long_time_limits(self):
        assert reduced_relaxation(
            MaxwellParams(mu=1.0, eta=1.0)).long_time_limit == 0.0
        assert reduced_relaxation(
            KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=2.0)
        ).long_time_limit == pytest.approx(0.25)
        # a spectrum is normalized to g(0) = 1, so K/(K + sum of amplitudes)
        assert reduced_relaxation(
            PronySpectrum(K=1.0, amplitudes=(2.0, 1.0), frequencies=(1.0, 5.0))
        ).long_time_limit == pytest.approx(0.25)
        # the Voigt element's regular part is the unit step
        assert reduced_relaxation(
            VoigtParams(mu=2.0, eta=3.0)).long_time_limit == 1.0

    def test_kernel_to_prony_equivalence(self):
        m = MaxwellParams(mu=2.0, eta=3.0)
        pm = kernel_to_prony(m)
        t = np.linspace(0.0, 5.0, 40)
        assert np.allclose(prony_relaxation(pm, t),
                           np.asarray(reduced_relaxation(m).value(t)),
                           rtol=1e-12)
        k = KelvinParams(E_R=2.0, tau_eps=0.5, tau_sigma=1.5)
        pk = kernel_to_prony(k)
        assert np.allclose(prony_relaxation(pk, t),
                           np.asarray(reduced_relaxation(k).value(t)),
                           rtol=1e-12)

    def test_voigt_has_no_prony_form(self):
        with pytest.raises(DomainError):
            kernel_to_prony(VoigtParams(mu=1.0, eta=1.0))

    @settings(max_examples=100, deadline=None)
    @given(K=st.floats(0.0, 10.0),
           terms=st.lists(st.tuples(st.floats(0.0, 10.0),
                                    st.floats(0.01, 100.0)),
                          max_size=4, unique_by=lambda x: x[1]))
    def test_constructor_normalizes_a_spectrum(self, K, terms):
        # one normalization: the constructor's bits are the spectrum's own
        terms.sort(key=lambda x: x[1])
        p = PronySpectrum(K, tuple(a for a, _ in terms),
                          tuple(f for _, f in terms))
        if p.at_zero <= 0:
            with pytest.raises(DomainError, match="cannot normalize"):
                ReducedRelaxation(p)
            return
        t = np.linspace(0.0, 5.0, 11)
        g = ReducedRelaxation(p)
        assert g == reduced_relaxation(p)
        assert g.kernel == p.normalized()
        assert g.value(t).tobytes() == \
            prony_relaxation(p.normalized(), t).tobytes()
        assert g.long_time_limit == p.normalized().K

    def test_unsupported_type_raises_at_construction(self):
        with pytest.raises(DomainError, match="unsupported kernel type dict"):
            ReducedRelaxation({"mu": 1.0, "eta": 1.0})


class TestKernelForceHistory:
    def test_rejects_non_increasing_times(self):
        s = PronySpectrum(K=1.0, amplitudes=(1.0,), frequencies=(1.0,))
        with pytest.raises(DomainError, match="index 2"):
            kernel_force_history(s, [0.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("times", [0.5 * np.arange(6.0),
                                       [0.0, 0.1, 0.5, 0.6, 2.0, 3.5]],
                             ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("spectrum", [
        kernel_to_prony(KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=0.5)),
        PronySpectrum(K=0.7)], ids=["kelvin", "K-only"])
    def test_no_terms_is_the_elastic_part(self, monkeypatch, spectrum, times):
        def unused(*args):
            raise AssertionError("a spectrum with no terms has no filter")

        monkeypatch.setattr("qlvsim.kernels._prony_filter", unused)
        monkeypatch.setattr("qlvsim.kernels.prony_step", unused)
        xs = np.array([-0.0, 1.0, -2.0, 0.5, -0.0, 3.0])
        got = kernel_force_history(spectrum, times, xs)
        want = spectrum.K * xs + 0.0
        assert spectrum.amplitudes == ()
        assert np.array_equal(got, want)
        assert not np.signbit(got[[0, 4]]).any()


def lfilter_force_history(spectrum, times, xs):
    """Uniform-grid kernel_force_history as one scipy lfilter per term."""
    dxs = np.diff(xs)
    h0 = np.asarray(spectrum.amplitudes) * xs[0]
    decay = prony_step(spectrum, 1.0, np.diff(times)[0], 0.0)
    gain = prony_step(spectrum, 0.0, np.diff(times)[0], 1.0)
    acc = np.zeros(dxs.size)
    for k in range(h0.size):
        hk, _ = lfilter([gain[k]], [1.0, -decay[k]], dxs,
                        zi=[decay[k] * h0[k]])
        acc += hk
    return spectrum.K * xs + np.concatenate(([h0.sum()], acc))


def lfilter_periodic_force_history(spectrum, dt, xs):
    """periodic_force_history as one scipy lfilter pass per term."""
    n = xs.size
    dxs = np.diff(xs, append=xs[0])
    decay = prony_step(spectrum, 1.0, dt, 0.0)
    gain = prony_step(spectrum, 0.0, dt, 1.0)
    closure = -np.expm1(-np.asarray(spectrum.frequencies) * (n * dt))
    steps = np.arange(n)
    h_sum = np.zeros(n)
    for k in range(decay.size):
        rest = lfilter([gain[k]], [1.0, -decay[k]], dxs)
        h_star = rest[-1] / closure[k]
        h_sum[0] += h_star
        h_sum[1:] += rest[:-1] + decay[k] ** steps[1:] * h_star
    return spectrum.K * xs + h_sum


@st.composite
def spectra(draw):
    """1-64 Prony terms with frequencies in [1e-4, 1e3]."""
    lo = draw(st.floats(-4.0, 3.0))
    hi = draw(st.floats(lo, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = np.unique(10.0 ** rng.uniform(lo, hi, draw(st.integers(1, 64))))
    return PronySpectrum(K=draw(st.floats(0.0, 1.0)),
                         amplitudes=rng.uniform(0.0, 1.0, freqs.size),
                         frequencies=freqs)


def signal(seed, n):
    """A random input whose first sample is far from zero."""
    xs = np.random.default_rng(seed).standard_normal(n)
    xs[0] = 1.0 + abs(xs[0])
    return xs


class TestNumpyFilterAgainstLfilter:
    """The numpy filter gives scipy lfilter's floats bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra(), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-3, 1.0),
           n=st.one_of(st.integers(2, 40),
                       st.sampled_from([_BLOCK_ROWS, _BLOCK_ROWS + 1,
                                        _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 1,
                                        2 * _BLOCK_ROWS + 7]),
                       st.integers(2, 2 * _BLOCK_ROWS + 3)))
    def test_kernel_force_history(self, spectrum, seed, dt, n):
        times = dt * np.arange(n)
        xs = signal(seed, n)
        assert np.array_equal(kernel_force_history(spectrum, times, xs),
                              lfilter_force_history(spectrum, times, xs))

    @settings(max_examples=200, deadline=None)
    @given(spectrum=spectra(), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-3, 1.0), n=st.integers(2, 600))
    def test_periodic_force_history(self, spectrum, seed, dt, n):
        xs = signal(seed, n)
        assert np.array_equal(
            periodic_force_history(spectrum, dt, xs),
            lfilter_periodic_force_history(spectrum, dt, xs))


def step_loop_force_history(spectrum, times, xs):
    """kernel_force_history as one prony_step call per sample, summing the
    terms with ``h.sum()``: the form it took on non-uniform grids before
    every grid ran through the filter."""
    h = np.asarray(spectrum.amplitudes) * xs[0]
    h_sum = [h.sum()]
    for dt, dx in zip(np.diff(times), np.diff(xs)):
        h = prony_step(spectrum, h, dt, dx)
        h_sum.append(h.sum())
    return spectrum.K * xs + np.array(h_sum)


def non_uniform_times(seed, dt, n):
    steps = dt * np.random.default_rng(seed).uniform(0.2, 1.8, n - 1)
    return np.concatenate(([0.0], np.cumsum(steps)))


class TestNonUniformGridAgainstTheStepLoop:
    """A non-uniform grid runs through the filter with each block's decay
    and gain; its states are those of the step loop, and only the order of
    the sum over terms differs."""

    @settings(max_examples=100, deadline=None)
    @given(spectrum=spectra(), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(1e-3, 1.0),
           n=st.one_of(st.integers(3, 40),
                       st.sampled_from([_BLOCK_ROWS, _BLOCK_ROWS + 1,
                                        _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 1,
                                        2 * _BLOCK_ROWS + 2,
                                        3 * _BLOCK_ROWS + 1]),
                       st.integers(3, 3 * _BLOCK_ROWS + 1)))
    def test_kernel_force_history(self, spectrum, seed, dt, n):
        times = non_uniform_times(seed, dt, n)
        xs = signal(seed, n)
        assert not is_uniform_grid(times)
        want = step_loop_force_history(spectrum, times, xs)
        got = kernel_force_history(spectrum, times, xs)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    def test_decay_and_gain_at_most_once_per_block(self, monkeypatch,
                                                   uniform):
        calls = []

        def counted(spectrum, h, dt, dx):
            calls.append((h, dx))
            return prony_step(spectrum, h, dt, dx)

        monkeypatch.setattr("qlvsim.kernels.prony_step", counted)
        n = 2 * _BLOCK_ROWS + 2         # three blocks of steps
        times = (0.01 * np.arange(n) if uniform
                 else non_uniform_times(1, 0.01, n))
        spectrum = PronySpectrum(K=0.2, amplitudes=(0.5, 0.3),
                                 frequencies=(1.0, 30.0))
        kernel_force_history(spectrum, times, signal(1, n))
        # decay/gain pairs only, never a step of the internal variables:
        # a uniform grid's once per run, a non-uniform grid's once per block
        assert calls == [(1.0, 0.0), (0.0, 1.0)] * (1 if uniform else 3)


class TestFilterBudget:
    """A filter's states are bounded by SIZE_BUDGET values: the periodic
    pass is rejected before it is allocated, and kernel_force_history
    takes fewer rows per block when a block of _BLOCK_ROWS would exceed it."""

    @staticmethod
    def spectrum(terms):
        return PronySpectrum(K=0.5,
                             amplitudes=tuple(np.full(terms, 0.5 / terms)),
                             frequencies=tuple(np.logspace(-2, 2, terms)))

    def test_periodic_pass_over_the_budget(self):
        xs = np.sin(np.linspace(0.0, 2 * np.pi, 200_000, endpoint=False))
        with pytest.raises(DomainError, match="samples x Prony terms must be "
                                              "<= 10000000, got 200000 x 64"):
            periodic_force_history(self.spectrum(64), 1e-4, xs)

    def test_block_states_within_the_budget(self):
        # 1024 steps of 20 000 terms: blocks of 500 rows (80 MB of states)
        # instead of one of 1024 rows (164 MB)
        spectrum = self.spectrum(20_000)
        times = np.linspace(0.0, 1.0, _BLOCK_ROWS + 1)
        tracemalloc.start()
        try:
            kernel_force_history(spectrum, times, np.sin(times))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * SIZE_BUDGET

    def test_non_uniform_blocks_within_twice_the_budget(self, monkeypatch):
        # a non-uniform block also holds rows of decay, gain and their
        # temporaries: blocks sized by the states alone peaked at 6.2x
        spectrum = self.spectrum(20_000)
        times = non_uniform_times(1, 0.01, 256)
        xs = signal(1, 256)
        want = kernel_force_history(spectrum, times, xs)
        monkeypatch.setattr(kernels, "SIZE_BUDGET", 1_000_000)
        tracemalloc.start()
        try:
            got = kernel_force_history(spectrum, times, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 1_000_000
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    def test_smaller_blocks_give_the_same_bits(self, monkeypatch, uniform):
        n = 2 * _BLOCK_ROWS + 3
        times = (0.01 * np.arange(n) if uniform
                 else non_uniform_times(2, 0.01, n))
        spectrum, xs = self.spectrum(64), signal(2, n)
        want = kernel_force_history(spectrum, times, xs)
        monkeypatch.setattr(kernels, "SIZE_BUDGET", 64 * 100)   # 100 rows
        assert np.array_equal(kernel_force_history(spectrum, times, xs), want)


def column_loop_force_history(spectrum, times, xs):
    """kernel_force_history with one numpy add per term and block, in term
    order from 0.0: the form it took before the in-place term-order sum."""
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if not spectrum.amplitudes:
        return spectrum.K * xs + 0.0
    dts, dxs = np.diff(times), np.diff(xs)
    h = np.asarray(spectrum.amplitudes) * xs[0]
    h_sum = np.zeros(times.size)
    h_sum[0] = h.sum()
    uniform = is_uniform_grid(times)
    block = max(1, min(_BLOCK_ROWS,
                       SIZE_BUDGET // (h.size if uniform else 4 * h.size)))
    for start in range(0, dxs.size, block):
        stop = start + block
        dt = dts[0] if uniform else dts[start:stop, None]
        states = kernels._prony_filter(prony_step(spectrum, 1.0, dt, 0.0),
                                       prony_step(spectrum, 0.0, dt, 1.0),
                                       dxs[start:stop], h)
        acc = h_sum[1 + start:1 + stop]
        for column in states.T:
            acc += column
        h = states[-1].copy()
        del states, column
    return spectrum.K * xs + h_sum


def column_loop_periodic_force_history(spectrum, dt, xs):
    """periodic_force_history with one pass of numpy operations per term, in
    term order from 0.0: the form it took before the in-place term-order
    sum."""
    n = xs.size
    dxs = np.diff(xs, append=xs[0])
    decay = prony_step(spectrum, 1.0, dt, 0.0)
    gain = prony_step(spectrum, 0.0, dt, 1.0)
    closure = -np.expm1(-np.asarray(spectrum.frequencies) * (n * dt))
    steps = np.arange(n)
    h_sum = np.zeros(n)
    states = kernels._prony_filter(decay, gain, dxs, np.zeros(decay.size))
    for k, rest in enumerate(states.T):
        h_star = rest[-1] / closure[k]
        h_sum[0] += h_star
        h_sum[1:] += rest[:-1] + decay[k] ** steps[1:] * h_star
    return spectrum.K * xs + h_sum


@st.composite
def scaled_spectra(draw):
    """0-80 Prony terms with amplitudes near 1, 1e-300 or 1e300, none, some
    or all of them 0 (whose states can be -0.0), and K 0 or in (0, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = np.unique(10.0 ** rng.uniform(-4.0, 3.0, draw(st.integers(0, 80))))
    amps = draw(st.sampled_from([1.0, 1e-300, 1e300])) * \
        rng.uniform(0.0, 1.0, freqs.size)
    amps[rng.uniform(size=freqs.size) < draw(st.sampled_from([0.0, 0.5,
                                                              1.0]))] = 0.0
    return PronySpectrum(K=draw(st.sampled_from([0.0, 0.5])),
                         amplitudes=amps, frequencies=freqs)


@st.composite
def signed_zero_signals(draw, n):
    """A random input of n samples, none, some or all of them -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal(n)
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    xs[rng.uniform(size=n) < share] = -0.0
    return xs


BLOCK_EDGES = st.one_of(st.integers(2, 40),
                        st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS,
                                         _BLOCK_ROWS + 1, _BLOCK_ROWS + 2,
                                         2 * _BLOCK_ROWS + 1]),
                        st.integers(2, 2 * _BLOCK_ROWS + 3))


class TestTermOrderSum:
    """Both filter passes sum their terms in place, in term order from 0.0,
    and give the per-term loops' floats bit for bit, -0.0 included."""

    @settings(max_examples=150, deadline=None)
    @given(spectrum=scaled_spectra(), data=st.data(), seed=st.integers(0, 99),
           dt=st.floats(1e-3, 1.0), uniform=st.booleans(), n=BLOCK_EDGES)
    def test_kernel_force_history(self, spectrum, data, seed, dt, uniform, n):
        times = (dt * np.arange(n) if uniform or n < 3
                 else non_uniform_times(seed, dt, n))
        xs = data.draw(signed_zero_signals(n))
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernel_force_history(spectrum, times, xs)
            want = column_loop_force_history(spectrum, times, xs)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(spectrum=scaled_spectra(), data=st.data(), dt=st.floats(1e-3, 1.0),
           n=BLOCK_EDGES)
    def test_periodic_force_history(self, spectrum, data, dt, n):
        xs = data.draw(signed_zero_signals(n))
        with np.errstate(over="ignore", invalid="ignore"):
            got = periodic_force_history(spectrum, dt, xs)
            want = column_loop_periodic_force_history(spectrum, dt, xs)
        assert got.tobytes() == want.tobytes()

    def test_zero_amplitudes_sum_to_zero(self):
        # their states are -0.0 under a falling input, and K*x is -0.0
        spectrum = PronySpectrum(K=0.0, amplitudes=(0.0, 0.0),
                                 frequencies=(1.0, 2.0))
        xs = -np.arange(1.0, 6.0)
        got = kernel_force_history(spectrum, 0.1 * np.arange(5), xs)
        assert got.tobytes() == column_loop_force_history(
            spectrum, 0.1 * np.arange(5), xs).tobytes() == bytes(40)
        got = periodic_force_history(spectrum, 0.1, xs)
        assert got.tobytes() == column_loop_periodic_force_history(
            spectrum, 0.1, xs).tobytes() == bytes(40)

    def test_no_terms_sum_to_zero(self):
        assert kernels._term_sum(np.zeros((3, 0))).tobytes() == \
            np.zeros(3).tobytes()
        assert kernels._term_sum(np.full((2, 4), -0.0)).tobytes() == \
            np.zeros(2).tobytes()


@st.composite
def term_count_spectra(draw):
    """0, 1, 64 or 200 Prony terms with frequencies in [1e-4, 1e3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = np.unique(10.0 ** rng.uniform(
        -4.0, 3.0, draw(st.sampled_from([0, 1, 64, 200]))))
    return PronySpectrum(K=draw(st.floats(0.0, 1.0)),
                         amplitudes=rng.uniform(0.0, 1.0, freqs.size),
                         frequencies=freqs)


class TestBatchedPeriodicFilter:
    """F periods in one (F, N) call give the floats of F 1-D calls."""

    @settings(max_examples=60, deadline=None)
    @given(spectrum=term_count_spectra(), seed=st.integers(0, 2**32 - 1),
           rows=st.integers(1, 20),
           n=st.one_of(st.integers(2, 40),
                       st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS,
                                        _BLOCK_ROWS + 1, _BLOCK_ROWS + 2])))
    def test_each_row_is_its_1d_call(self, spectrum, seed, rows, n):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((rows, n))
        xs[rng.uniform(size=xs.shape) < 0.2] = -0.0
        dts = 10.0 ** rng.uniform(-3.0, 0.0, rows)
        got = periodic_force_history(spectrum, dts, xs)
        assert got.shape == xs.shape
        for row, x, dt in zip(got, xs, dts):
            assert row.tobytes() == \
                periodic_force_history(spectrum, float(dt), x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(spectrum=term_count_spectra(), seed=st.integers(0, 2**32 - 1),
           rows=st.integers(1, 12), n=st.integers(2, 300))
    def test_input_layout_gives_the_same_bytes(self, spectrum, seed, rows, n):
        # C order, Fortran order and a strided view of one array
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((rows, n))
        xs[rng.uniform(size=xs.shape) < 0.2] = -0.0
        dts = 10.0 ** rng.uniform(-3.0, 0.0, rows)
        wide = np.zeros((2 * rows, 3 * n))
        wide[::2, 1::3] = xs
        want = periodic_force_history(spectrum, dts, xs).tobytes()
        for layout in (np.asfortranarray(xs), wide[::2, 1::3]):
            assert periodic_force_history(spectrum, dts, layout).tobytes() \
                == want

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_filter_input_is_row_major(self, monkeypatch, rows, order):
        # the filter's states take dx's layout: (samples, rows, terms) in
        # row-major order, one contiguous block per sample step
        seen, run = [], kernels._prony_filter

        def spy(decay, gain, dx, carry):
            seen.append(dx.flags.c_contiguous)
            states = run(decay, gain, dx, carry)
            seen.append(states.flags.c_contiguous)
            return states
        monkeypatch.setattr(kernels, "_prony_filter", spy)
        xs = np.asarray(signal(3, rows * 256).reshape(rows, 256), order=order)
        periodic_force_history(TestFilterBudget.spectrum(64),
                               np.full(rows, 0.01), xs)
        assert seen == [True, True]

    @pytest.mark.parametrize("dt, xs", [
        ([0.1, 0.2], np.ones((3, 4))), (0.1, np.ones((2, 4))),
        ([0.1, 0.0], np.ones((2, 4))), ([0.1, np.nan], np.ones((2, 4))),
        ([0.1], np.ones((1, 2, 4))), ([0.1, 0.2], np.ones((2, 1)))],
        ids=["dt-count", "one-dt", "zero-dt", "nan-dt", "3-d", "one-sample"])
    def test_rejects_a_bad_batch(self, dt, xs):
        with pytest.raises(DomainError, match="a period needs dt > 0"):
            periodic_force_history(TestFilterBudget.spectrum(3), dt, xs)

    def test_batch_over_the_budget(self, monkeypatch):
        # each row fits the budget, the batch's F x N x terms states do not
        monkeypatch.setattr(kernels, "SIZE_BUDGET", 100)
        spectrum, xs = TestFilterBudget.spectrum(4), np.ones((3, 10))
        periodic_force_history(spectrum, 0.1, xs[0])
        with pytest.raises(DomainError, match="samples x Prony terms must be "
                                              "<= 100, got 30 x 4"):
            periodic_force_history(spectrum, np.full(3, 0.1), xs)


class TestTermOrderSumMemory:
    """The in-place sum holds no copy of the states: kernel_force_history
    holds what the per-term loop held, and a periodic pass, of one row or
    many, at most one block of rows x terms more (its correction d^i * h*)."""

    SLACK = 16 * 1024               # far below one block of 200 terms

    @staticmethod
    def peak(fn, *args):
        fn(*args)                   # once untraced, to warm any cache
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [256, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "non-uniform"])
    def test_kernel_force_history(self, n, uniform):
        spectrum = TestFilterBudget.spectrum(200)
        times = (0.01 * np.arange(n) if uniform
                 else non_uniform_times(3, 0.01, n))
        xs = signal(3, n)
        assert self.peak(kernel_force_history, spectrum, times, xs) <= \
            self.peak(column_loop_force_history, spectrum, times, xs) + \
            self.SLACK

    @pytest.mark.parametrize("n", [256, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7])
    def test_periodic_force_history(self, n):
        spectrum = TestFilterBudget.spectrum(200)
        xs = signal(3, n)
        block = 8 * min(n - 1, _BLOCK_ROWS) * 200
        assert self.peak(periodic_force_history, spectrum, 0.01, xs) <= \
            self.peak(column_loop_periodic_force_history, spectrum, 0.01,
                      xs) + block + self.SLACK

    @pytest.mark.parametrize("n", [256, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("rows", [2, 5])
    def test_batched_periodic_force_history(self, rows, n):
        # F rows in one pass hold what F one-row passes held, and still only
        # one block more: the correction runs one row's block at a time
        spectrum = TestFilterBudget.spectrum(200)
        xs = np.stack([signal(seed, n) for seed in range(rows)])
        block = 8 * min(n - 1, _BLOCK_ROWS) * 200
        assert self.peak(periodic_force_history, spectrum,
                         0.01 * np.arange(1, rows + 1), xs) <= \
            rows * self.peak(column_loop_periodic_force_history, spectrum,
                             0.01, xs[0]) + block + self.SLACK


class TestGridSteps:
    def test_rounds_the_step_count(self):
        assert grid_steps(1.0, 0.3) == 3
        assert grid_steps(0.006, 0.01) == 1
        assert grid_steps(float(SIZE_BUDGET), 1.0) == SIZE_BUDGET
        # below half a step the grid is empty, and no caller takes it
        with pytest.raises(DomainError, match="^duration and dt produce an "
                                              "empty series$"):
            grid_steps(0.004, 0.01)

    @pytest.mark.parametrize("duration, dt", [
        (float(SIZE_BUDGET + 1), 1.0), (1.0, 1e-300), (1e300, 1.0),
        (1e300, 1e-300)], ids=["budget+1", "tiny-dt", "long", "overflow"])
    def test_over_the_budget(self, duration, dt):
        with pytest.raises(DomainError,
                           match=f"duration/dt must be <= {SIZE_BUDGET}"):
            grid_steps(duration, dt)

    # checked before the budget, so a negative or nan duration is named
    @pytest.mark.parametrize("duration, dt, message", [
        (-1e300, 1e-10, "duration must be > 0, got -1e+300"),
        (float("nan"), 1.0, "duration must be finite, got nan"),
        (0.0, 1.0, "duration must be > 0, got 0.0"),
        (1.0, 0.0, "dt must be > 0, got 0.0"),
        (1e300, -1e-300, "dt must be > 0, got -1e-300"),
        (1.0, float("nan"), "dt must be finite, got nan")],
        ids=["negative-overflow", "nan", "zero-duration", "zero-dt",
             "negative-dt", "nan-dt"])
    def test_not_positive(self, duration, dt, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            grid_steps(duration, dt)
