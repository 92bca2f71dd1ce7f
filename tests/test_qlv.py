import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim.constitutive import (ExponentialTensileLaw, FungBiaxialParams,
                                 FungUniaxialLaw, LinearElasticLaw)
from qlvsim.errors import DomainError
from qlvsim.kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                            PronySpectrum, is_uniform_grid,
                            kernel_force_history, prony_relaxation)
from qlvsim.qlv import (QlvModel, StrainHistory, hysteresis_ratio,
                        qlv_stress_direct, qlv_stress_fast)


def elastic_model(law=None):
    """QLV model with G identically 1."""
    law = law or LinearElasticLaw(k=2.0)
    return QlvModel.from_kernel(law, PronySpectrum(K=1.0))


class TestStrainHistory:
    def test_validation(self):
        with pytest.raises(DomainError):
            StrainHistory(times=[1.0, 2.0], values=[0.0, 0.1])  # t0 != 0
        with pytest.raises(DomainError):
            StrainHistory(times=[0.0, 1.0, 1.0], values=[0.0, 0.1, 0.2])
        with pytest.raises(DomainError):
            StrainHistory(times=[0.0, 1.0], values=[0.0, math.nan])
        with pytest.raises(DomainError):
            StrainHistory(times=[0.0, 1.0], values=[0.0, 0.1], measure="x")

    @pytest.mark.parametrize("times", [[0.0, math.nan], [0.0, math.inf]],
                             ids=["nan", "inf"])
    def test_times_must_be_finite(self, times):
        with pytest.raises(DomainError, match=(
                f"^times must be finite, got {times[1]}$")):
            StrainHistory(times=times, values=[0.0, 0.1])

    def test_stress_at_infinite_time_is_rejected(self):
        model = QlvModel.from_kernel(LinearElasticLaw(k=2.0),
                                     MaxwellParams(mu=1.0, eta=1.0))
        with pytest.raises(DomainError, match="^times must be finite"):
            qlv_stress_fast(model, StrainHistory(times=[0.0, 1.0, math.inf],
                                                 values=[0.0, 0.1, 0.2]))

    def test_green_conversion(self):
        h = StrainHistory(times=[0.0, 1.0], values=[1.0, 1.2],
                          measure="stretch")
        assert h.green() == pytest.approx([0.0, 0.22])

    def test_uniformity_detection(self):
        # a history's grid is read by kernels.is_uniform_grid
        assert is_uniform_grid(np.linspace(0, 1, 100))
        assert not is_uniform_grid([0.0, 0.1, 0.5])


class TestElasticLimit:
    def test_both_evaluators_reduce_to_elastic(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 2.0, 200)
        green = 0.3 * np.abs(np.sin(1.3 * t)) + 0.01 * rng.standard_normal(200).cumsum() * 0.01
        hist = StrainHistory(times=t, values=green, measure="green")
        model = elastic_model()
        te = 2.0 * green
        for evaluator in (qlv_stress_direct, qlv_stress_fast):
            out = evaluator(model, hist)
            assert np.allclose(out.values, te, rtol=1e-12, atol=1e-14)


def test_direct_evaluator_names_its_kernels():
    hist = StrainHistory(times=[0.0, 1.0], values=[0.0, 0.1])
    with pytest.raises(DomainError, match="kernel must be 'relaxation' or "
                                          "'prony', got 'fung'"):
        qlv_stress_direct(elastic_model(), hist, kernel="fung")


class TestStepResponse:
    def test_step_factorization_fast(self):
        law = ExponentialTensileLaw(B=2.0, C=1.0)
        prony = PronySpectrum(K=0.3, amplitudes=(0.3, 0.4),
                              frequencies=(0.5, 5.0))
        model = QlvModel.from_kernel(law, prony)
        t = np.linspace(0.0, 5.0, 300)
        e0 = 0.2
        hist = StrainHistory(times=t, values=np.full_like(t, e0))
        te0 = law.stress_green(e0)
        out = qlv_stress_fast(model, hist)
        ref = prony_relaxation(prony, t) * te0
        assert np.max(np.abs(out.values - ref)) <= 1e-10 * abs(te0)

    def test_step_factorization_direct(self):
        law = LinearElasticLaw(k=1.5)
        prony = PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(2.0,))
        model = QlvModel.from_kernel(law, prony)
        t = np.linspace(0.0, 3.0, 100)
        hist = StrainHistory(times=t, values=np.full_like(t, 0.1))
        out = qlv_stress_direct(model, hist, kernel="prony")
        ref = prony_relaxation(prony, t) * 0.15
        assert np.max(np.abs(out.values - ref)) <= 1e-12


class TestRampAnalytic:
    def test_single_term_prony_ramp(self):
        # linear elastic T_e = k*r*t under constant strain rate r;
        # T(t) = K*k*r*t + alpha*k*r*(1 - exp(-nu t))/nu by direct integration
        k, r = 2.0, 0.3
        K, alpha, nu = 0.4, 0.6, 1.5
        prony = PronySpectrum(K=K, amplitudes=(alpha,), frequencies=(nu,))
        model = QlvModel.from_kernel(LinearElasticLaw(k=k), prony)
        t = np.linspace(0.0, 4.0, 4001)
        hist = StrainHistory(times=t, values=r * t)
        ref = K * k * r * t + alpha * k * r * (1 - np.exp(-nu * t)) / nu
        fast = qlv_stress_fast(model, hist).values
        direct = qlv_stress_direct(model, hist, kernel="prony").values
        assert np.max(np.abs(fast - ref)) <= 1e-6
        assert np.max(np.abs(direct - ref)) <= 1e-6

    def test_direct_second_order_convergence(self):
        k, r = 2.0, 0.3
        prony = PronySpectrum(K=0.4, amplitudes=(0.6,), frequencies=(1.5,))
        model = QlvModel.from_kernel(LinearElasticLaw(k=k), prony)

        def max_err(n):
            t = np.linspace(0.0, 2.0, n + 1)
            hist = StrainHistory(times=t, values=r * t)
            ref = (0.4 * k * r * t
                   + 0.6 * k * r * (1 - np.exp(-1.5 * t)) / 1.5)
            return np.max(np.abs(
                qlv_stress_direct(model, hist, kernel="prony").values - ref))

        e1, e2 = max_err(200), max_err(400)
        assert e1 / e2 > 3.0  # ~4x for a second-order scheme


class TestFastVsDirect:
    def test_oracle_equivalence_fung(self):
        rng = np.random.default_rng(42)
        law = ExponentialTensileLaw(B=5.0, C=1.0)
        model = QlvModel.from_kernel(law, FungSpectrum(c=0.5, q1=0.5, q2=50.0))
        t = np.linspace(0.0, 2.0, 2048)
        phases = rng.uniform(0, 2 * np.pi, 3)
        green = 0.1 + 0.05 * (np.sin(2.1 * t + phases[0])
                              + np.sin(0.7 * t + phases[1])
                              + np.sin(4.3 * t + phases[2])) / 3.0
        hist = StrainHistory(times=t, values=green)
        fast = qlv_stress_fast(model, hist).values
        direct = qlv_stress_direct(model, hist, kernel="prony").values
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) / scale <= 1e-6

    def test_nonuniform_grid(self):
        rng = np.random.default_rng(8)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 2.0, 300))])
        green = 0.1 * np.sin(t)
        hist = StrainHistory(times=t, values=green)
        model = QlvModel.from_kernel(
            LinearElasticLaw(k=1.0),
            PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(1.0,)))
        fast = qlv_stress_fast(model, hist).values
        direct = qlv_stress_direct(model, hist, kernel="prony").values
        assert np.max(np.abs(fast - direct)) <= 1e-4 * max(
            1e-12, np.max(np.abs(direct)))

    def test_domain_error_reports_time_index(self):
        model = QlvModel.from_kernel(ExponentialTensileLaw(B=1.0, C=1.0),
                                     PronySpectrum(K=1.0))
        hist = StrainHistory(times=[0.0, 1.0, 2.0],
                             values=[0.0, 0.1, -0.6])
        with pytest.raises(DomainError, match="index 2"):
            qlv_stress_fast(model, hist)


class TestModelConstruction:
    def test_unnormalized_prony_rejected(self):
        with pytest.raises(DomainError):
            QlvModel(elastic=LinearElasticLaw(k=1.0),
                     relaxation=None,
                     prony=PronySpectrum(K=2.0))

    def test_from_kernel_records_tolerance(self):
        model = QlvModel.from_kernel(LinearElasticLaw(k=1.0),
                                     FungSpectrum(c=0.5, q1=0.1, q2=10.0),
                                     n_prony=64)
        assert 0.0 < model.prony_tolerance < 1e-3

    def test_kelvin_kernel(self):
        model = QlvModel.from_kernel(LinearElasticLaw(k=1.0),
                                     KelvinParams(E_R=1.0, tau_eps=0.5,
                                                  tau_sigma=1.5))
        assert model.prony.K == pytest.approx(1.0 / 3.0)

    def test_maxwell_kernel(self):
        model = QlvModel.from_kernel(LinearElasticLaw(k=1.0),
                                     MaxwellParams(mu=2.0, eta=4.0))
        assert model.prony.frequencies == (0.5,)


def domain_error_loop(model, history):
    """The per-sample search for the first failing sample that the
    bisection replaced, kept as its reference: the message it raises."""
    for i, e in enumerate(history.green()):
        try:
            model.elastic.stress_green(e)
        except DomainError as exc:
            return (f"strain outside elastic domain at time index {i} "
                    f"(t = {history.times[i]}): {exc}")
    return None


class TestElasticDomainError:
    """A history outside the elastic domain names its first failing sample,
    found by bisecting on prefixes with the vectorized law."""

    LAWS = [ExponentialTensileLaw(B=10.0, C=2.0),
            FungUniaxialLaw(FungBiaxialParams(c=0.2, a1=4.0, gamma1=1.0))]

    @settings(max_examples=100, deadline=None)
    @given(law=st.sampled_from(LAWS),
           values=st.lists(st.sampled_from([0.1, 0.0, 0.3, -0.6, 1e4]),
                           min_size=1, max_size=70))
    def test_message_is_the_loops(self, law, values):
        model = QlvModel.from_kernel(law, PronySpectrum(K=1.0))
        history = StrainHistory(times=0.5 * np.arange(len(values)),
                                values=values)
        want = domain_error_loop(model, history)
        if want is None:
            model.elastic_stress(history)
            return
        with pytest.raises(DomainError) as info:
            model.elastic_stress(history)
        assert str(info.value) == want

    def test_a_long_history_failing_near_its_end(self, alarm):
        # a per-sample search takes some 20 s at this size (2-vCPU VM)
        n, first = 10**6, 10**6 - 10
        green = np.full(n, 0.1)
        green[first:] = 1e4
        model = QlvModel.from_kernel(ExponentialTensileLaw(B=10.0, C=2.0),
                                     PronySpectrum(K=1.0))
        history = StrainHistory(times=0.01 * np.arange(n), values=green)
        with pytest.raises(DomainError) as scalar:
            model.elastic.stress_green(green[first])
        with alarm(2), pytest.raises(DomainError) as info:
            model.elastic_stress(history)
        assert str(info.value) == (
            f"strain outside elastic domain at time index {first} "
            f"(t = {history.times[first]}): {scalar.value}")


E = np.linspace(0.0, 1.0, 10)


def rolled_hysteresis_ratio(loading_strain, loading_stress,
                            unloading_strain, unloading_stress):
    """hysteresis_ratio as it was written with np.roll and np.diff."""
    ls = np.asarray(loading_strain, dtype=float)
    lt = np.asarray(loading_stress, dtype=float)
    us = np.asarray(unloading_strain, dtype=float)
    ut = np.asarray(unloading_stress, dtype=float)
    if ls.size < 2 or us.size < 2:
        raise DomainError("loading and unloading branches need >= 2 samples")
    if np.any(np.diff(ls) < 0):
        raise DomainError("loading strain must be non-decreasing")
    if np.any(np.diff(us) > 0):
        raise DomainError("unloading strain must be non-increasing")
    x = np.concatenate([ls, us])
    y = np.concatenate([lt, ut])
    loop_area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    loading_area = float(np.trapezoid(np.maximum(lt, 0.0), ls))
    if loading_area <= 0.0:
        raise DomainError("loading branch has zero area; hysteresis undefined")
    return loop_area / loading_area


@st.composite
def loops(draw):
    """Loading and unloading branches of 1-300 samples, the unloading one
    a reversed view: strains with plateaus, zeros of either sign and
    sometimes one step the wrong way; stresses with plateaus, -0.0 and
    either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def branch(n, rising):
        steps = rng.uniform(0.0, 1.0, n - 1)
        steps[rng.uniform(size=n - 1) < draw(st.sampled_from([0.0, 0.5]))] = 0
        if draw(st.booleans()) and n > 1:
            steps[rng.integers(n - 1)] = -draw(st.sampled_from([1e-300, 0.5]))
        strain = np.concatenate([[0.0], np.cumsum(steps)]) + draw(
            st.sampled_from([0.0, rng.uniform(-1.0, 1.0)]))
        strain[(strain == 0) & (rng.uniform(size=n) < 0.5)] = -0.0
        stress = rng.standard_normal(n) + draw(st.sampled_from([0.0, 2.0]))
        stress[rng.uniform(size=n) < 0.2] = -0.0
        stress[1:][rng.uniform(size=n - 1) < 0.2] = stress[0]
        if not rising:
            return strain[::-1], stress[::-1]
        return strain, stress

    lengths = st.one_of(st.integers(1, 12), st.integers(2, 300))
    (ls, lt), (us, ut) = branch(draw(lengths), True), \
        branch(draw(lengths), False)
    return ls, lt, us, ut


class TestHysteresisRatio:
    def test_elastic_loop_is_zero(self):
        e = np.linspace(0.0, 0.2, 50)
        s = 2.0 * e
        h = hysteresis_ratio(e, s, e[::-1], s[::-1])
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_rectangle_loop(self):
        # loading at stress 2, unloading at stress 1 over strain [0, 1]
        e = np.linspace(0.0, 1.0, 20)
        h = hysteresis_ratio(e, np.full_like(e, 2.0),
                             e[::-1], np.full_like(e, 1.0))
        assert h == pytest.approx(0.5, rel=1e-12)

    def test_preconditions(self):
        e = np.linspace(0.0, 1.0, 10)
        with pytest.raises(DomainError,
                           match="^loading strain must be non-decreasing$"):
            hysteresis_ratio(e[::-1], e, e[::-1], e)
        with pytest.raises(DomainError, match="^loading branch has zero "
                                              "area; hysteresis undefined$"):
            hysteresis_ratio(e, np.zeros_like(e), e[::-1], np.zeros_like(e))

    @pytest.mark.parametrize("args, message", [
        ((E[:1], E[:1], E[::-1], E), "loading and unloading branches need "
                                     ">= 2 samples"),
        ((E, E, E[:1], E[:1]), "loading and unloading branches need "
                               ">= 2 samples"),
        ((E, E, E, E), "unloading strain must be non-increasing")],
        ids=["short-loading", "short-unloading", "unloading"])
    def test_messages(self, args, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            hysteresis_ratio(*args)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(loop=loops())
    def test_same_bits_as_the_rolled_form(self, loop):
        try:
            want = rolled_hysteresis_ratio(*loop)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                hysteresis_ratio(*loop)
            return
        assert np.float64(hysteresis_ratio(*loop)).tobytes() == \
            np.float64(want).tobytes()



@st.composite
def prony_spectra(draw):
    n = draw(st.integers(0, 6))
    freqs = sorted(draw(st.lists(st.floats(1e-2, 1e2), min_size=n,
                                 max_size=n, unique=True)))
    amps = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return PronySpectrum(K=draw(st.floats(0.05, 1.0)), amplitudes=amps,
                         frequencies=freqs)


class TestUniformAndSteppedEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(spectrum=prony_spectra(), n=st.integers(3, 200),
           dt=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_collinear_midpoint_changes_nothing(self, spectrum, n, dt, seed,
                                                data):
        # uniform grids run a recursive filter, others the step loop; the
        # recursion is exact for piecewise-linear input, so inserting a
        # collinear midpoint leaves the original samples unchanged
        t = dt * np.arange(n)
        x = 0.1 * np.cumsum(np.random.default_rng(seed).standard_normal(n))
        k = data.draw(st.integers(0, n - 2))
        t2 = np.insert(t, k + 1, 0.5 * (t[k] + t[k + 1]))
        x2 = np.insert(x, k + 1, 0.5 * (x[k] + x[k + 1]))
        assert not is_uniform_grid(t2)
        model = QlvModel.from_kernel(LinearElasticLaw(k=1.5), spectrum)
        for evaluate in (
                lambda t, x: kernel_force_history(spectrum, t, x),
                lambda t, x: qlv_stress_fast(
                    model, StrainHistory(times=t, values=x)).values):
            uniform = evaluate(t, x)
            stepped = np.delete(evaluate(t2, x2), k + 1)
            scale = max(np.max(np.abs(uniform)), 1e-300)
            assert np.max(np.abs(stepped - uniform)) <= 1e-12 * scale
