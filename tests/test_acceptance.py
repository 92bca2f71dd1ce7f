"""End-to-end acceptance checks.

Each test is one pass/fail line for one advertised guarantee of the
library, at the stated tolerance.  Run with ``pytest -v`` to see the
per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qlvsim.cli import cli_main
from qlvsim.constitutive import (BiaxialStrainState, ExponentialTensileLaw,
                                 FungBiaxialParams, fung_energy, fung_stress)
from qlvsim.kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                            PronySpectrum, VoigtParams,
                            fung_reduced_relaxation, kelvin_creep,
                            kelvin_relaxation, maxwell_relaxation,
                            prony_relaxation, reduced_relaxation, voigt_creep)
from qlvsim.network import SpringMassSystem, SystemState, simulate, stability_check
from qlvsim.protocols import (ProtocolSpec, fit_exponential_law,
                              fit_relaxation_spectrum, frequency_sweep,
                              run_creep, run_relaxation)
from qlvsim.qlv import (QlvModel, StrainHistory, qlv_stress_direct,
                        qlv_stress_fast)


def draw_kernels(rng):
    """One random valid kernel per family, with its (tau_min, tau_max)."""
    mu = 10.0 ** rng.uniform(-1, 1)
    eta = 10.0 ** rng.uniform(-1, 1)
    tau = eta / mu
    yield MaxwellParams(mu=mu, eta=eta), tau, tau
    yield VoigtParams(mu=mu, eta=eta), tau, tau

    tau_eps = 10.0 ** rng.uniform(-2, 1)
    tau_sigma = tau_eps * rng.uniform(1.0, 100.0)
    yield KelvinParams(E_R=10.0 ** rng.uniform(-1, 1), tau_eps=tau_eps,
                       tau_sigma=tau_sigma), tau_eps, tau_sigma

    n = int(rng.integers(1, 5))
    freqs = np.sort(10.0 ** rng.uniform(-2, 2, n))
    amps = rng.uniform(0.1, 1.0, n)
    prony = PronySpectrum(K=rng.uniform(0.01, 1.0),
                          amplitudes=tuple(amps),
                          frequencies=tuple(freqs)).normalized()
    yield prony, 1.0 / freqs[-1], 1.0 / freqs[0]

    q1 = 10.0 ** rng.uniform(-3, 0)
    q2 = q1 * 10.0 ** rng.uniform(1, 4)
    yield FungSpectrum(c=10.0 ** rng.uniform(-2, 0.7), q1=q1, q2=q2), q1, q2


def test_criterion_01_normalization_and_monotone_relaxation():
    """G(0) = 1 within 1e-12 and G non-increasing, 1000 draws per family."""
    rng = np.random.default_rng(1)
    for _ in range(1000):
        for kernel, tau_min, tau_max in draw_kernels(rng):
            relax = reduced_relaxation(kernel)
            assert abs(relax.value(0.0) - 1.0) <= 1e-12
            lo = math.log10(1e-3 * tau_min)
            hi = math.log10(1e3 * tau_max)
            n = max(2, int(round(200 * (hi - lo))))
            grid = np.logspace(lo, hi, n)
            g = relax.value(grid)
            assert np.all(np.diff(g) <= 1e-12)


def test_criterion_02_fung_closed_form_matches_quadrature():
    """Exponential-integral form vs adaptive quadrature, rel err <= 1e-8."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        q1 = 10.0 ** rng.uniform(-2, 0)
        q2 = q1 * 10.0 ** rng.uniform(1, 3)
        c = 10.0 ** rng.uniform(-1, 0.5)
        s = FungSpectrum(c=c, q1=q1, q2=q2)
        denom = 1.0 + c * math.log(q2 / q1)
        times = np.logspace(math.log10(q1) - 1, math.log10(q2) + 1, 50)
        for t in times:
            # integrate the c/q spectrum against exp(-t/q) in log-q
            integral, _ = quad(lambda u: math.exp(-t * math.exp(-u)),
                               math.log(q1), math.log(q2),
                               epsabs=1e-13, epsrel=1e-12, limit=400)
            ref = (1.0 + c * integral) / denom
            val = fung_reduced_relaxation(s, t)
            assert abs(val - ref) / ref <= 1e-8


def smooth_history(rng, t, mean=0.15, amp=0.05):
    freqs = rng.uniform(0.5, 5.0, 3)
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    green = mean + amp * sum(
        np.sin(f * t + p) for f, p in zip(freqs, phases)) / 3.0
    return StrainHistory(times=t, values=green)


def test_criterion_03_fast_matches_direct_and_is_20x_faster():
    """Fast vs direct <= 1e-6 on 100 random histories; >= 20x at N=16384."""
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2.0, 2048)
    for _ in range(100):
        q1 = 10.0 ** rng.uniform(-1.5, -0.5)
        q2 = q1 * 10.0 ** rng.uniform(2, 3)
        model = QlvModel.from_kernel(
            ExponentialTensileLaw(B=rng.uniform(2.0, 8.0), C=1.0),
            FungSpectrum(c=rng.uniform(0.1, 1.0), q1=q1, q2=q2), n_prony=64)
        hist = smooth_history(rng, t)
        fast = qlv_stress_fast(model, hist).values
        direct = qlv_stress_direct(model, hist, kernel="prony").values
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) / scale <= 1e-6

    big_t = np.linspace(0.0, 2.0, 16384)
    model = QlvModel.from_kernel(ExponentialTensileLaw(B=5.0, C=1.0),
                                 FungSpectrum(c=0.5, q1=0.05, q2=20.0),
                                 n_prony=64)
    hist = smooth_history(rng, big_t)
    start = time.perf_counter()
    qlv_stress_direct(model, hist, kernel="prony")
    direct_time = time.perf_counter() - start
    fast_time = math.inf
    for _ in range(5):
        start = time.perf_counter()
        qlv_stress_fast(model, hist)
        fast_time = min(fast_time, time.perf_counter() - start)
    assert direct_time / fast_time >= 20.0


def test_criterion_04_step_response_factorization():
    """Step-strain stress equals G(t) * instantaneous stress to 1e-10."""
    law = ExponentialTensileLaw(B=2.0, C=1.0)
    e0 = 0.2
    te0 = law.stress_green(e0)
    t = np.linspace(0.0, 5.0, 400)
    hist = StrainHistory(times=t, values=np.full_like(t, e0))

    kernels = (MaxwellParams(mu=2.0, eta=1.0),
               KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5),
               PronySpectrum(K=0.3, amplitudes=(0.3, 0.4),
                             frequencies=(0.5, 5.0)))
    for kernel in kernels:
        model = QlvModel.from_kernel(law, kernel)
        g_ref = prony_relaxation(model.prony, t)
        for out in (qlv_stress_fast(model, hist).values,
                    qlv_stress_direct(model, hist, kernel="prony").values):
            assert np.max(np.abs(out / te0 - g_ref)) <= 1e-10

    # Fung kernel against its closed form, via the exact-kernel evaluator
    fung = FungSpectrum(c=0.5, q1=0.05, q2=20.0)
    model = QlvModel.from_kernel(law, fung)
    out = qlv_stress_direct(model, hist, kernel="relaxation").values
    assert np.max(np.abs(out / te0 - fung_reduced_relaxation(fung, t))) <= 1e-10

    # Voigt regular part: held deflection gives the constant regular force
    voigt = VoigtParams(mu=2.0, eta=1.0)
    spec = ProtocolSpec(kind="relaxation", hold_strain=e0, duration=5.0,
                        dt=0.05)
    series, _ = run_relaxation(spec, voigt)
    g_voigt = reduced_relaxation(voigt).value(series.times)
    ratio = series.columns["stress"] / (e0 * voigt.mu)
    assert np.max(np.abs(ratio - g_voigt)) <= 1e-10


def test_criterion_05_hysteresis_shapes_across_frequency():
    """Maxwell H decreasing, Voigt increasing, Kelvin bell, Fung flat <= 1.10."""
    freqs = np.logspace(-1, 1, 7)
    spec = ProtocolSpec(kind="cyclic", amplitude=0.1, angular_frequency=1.0,
                        cycles=5, samples_per_cycle=256)

    _, h_max = frequency_sweep(spec, MaxwellParams(mu=1.0, eta=1.0), freqs)
    assert np.all(np.diff(h_max) < 0)

    _, h_voigt = frequency_sweep(spec, VoigtParams(mu=1.0, eta=1.0), freqs)
    assert np.all(np.diff(h_voigt) > 0)

    _, h_kelvin = frequency_sweep(
        spec, KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=2.0), freqs)
    peak = int(np.argmax(h_kelvin))
    assert 0 < peak < h_kelvin.size - 1

    model = QlvModel.from_kernel(ExponentialTensileLaw(B=10.0, C=2.0),
                                 FungSpectrum(c=0.5, q1=1e-2, q2=1e2))
    fung_spec = ProtocolSpec(kind="cyclic", amplitude=0.05, mean=0.25,
                             angular_frequency=1.0, cycles=5,
                             samples_per_cycle=256)
    _, h_fung = frequency_sweep(fung_spec, model, np.logspace(-1, 1, 9))
    assert h_fung.max() / h_fung.min() <= 1.10


def test_criterion_06_kelvin_reciprocity():
    """g(0+)*c(0+) = 1 and g(inf)*c(inf) = 1 within 1e-12, 1000 draws."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        tau_eps = 10.0 ** rng.uniform(-3, 2)
        p = KelvinParams(E_R=10.0 ** rng.uniform(-2, 2), tau_eps=tau_eps,
                         tau_sigma=tau_eps * rng.uniform(1.0, 1000.0))
        t0 = 1e-300
        t_inf = 1e5 * p.tau_sigma
        assert abs(kelvin_relaxation(p, t0) * kelvin_creep(p, t0) - 1.0) <= 1e-12
        assert abs(kelvin_relaxation(p, t_inf) * kelvin_creep(p, t_inf) - 1.0) <= 1e-12


def test_criterion_07_creep_and_relaxation_closed_forms():
    """Voigt creep and Maxwell relaxation match closed forms to 1e-4,
    with second-order improvement under dt halving."""
    voigt = VoigtParams(mu=2.0, eta=1.0)
    maxwell = MaxwellParams(mu=1.5, eta=3.0)
    load, strain = 0.4, 0.2

    def creep_err(dt):
        spec = ProtocolSpec(kind="creep", hold_stress=load, duration=4.0,
                            dt=dt)
        series, _ = run_creep(spec, voigt)
        ref = load * voigt_creep(voigt, np.maximum(series.times, 1e-300))
        return np.max(np.abs(series.columns["deformation"] - ref)) / np.max(np.abs(ref))

    def relax_err(dt):
        spec = ProtocolSpec(kind="relaxation", hold_strain=strain,
                            duration=6.0, dt=dt)
        series, _ = run_relaxation(spec, maxwell)
        ref = strain * maxwell_relaxation(maxwell,
                                          np.maximum(series.times, 1e-300))
        return np.max(np.abs(series.columns["stress"] - ref)) / np.max(np.abs(ref))

    assert creep_err(0.01) <= 1e-4
    assert relax_err(0.01) <= 1e-4
    assert creep_err(0.01) / creep_err(0.005) > 3.0
    assert relax_err(0.01) / relax_err(0.005) > 3.0


def test_criterion_08_network_energy():
    """Conservative chain drift <= 1e-5 over 1e5 steps; damped chain
    energy non-increasing."""
    # fixed-free chain with spring constants (1, 1, 400): well separated
    # mode frequencies
    K = np.array([[2.0, -1.0, 0.0],
                  [-1.0, 401.0, -400.0],
                  [0.0, -400.0, 400.0]])
    system = SpringMassSystem(masses=[1.0, 1.0, 1.0], stiffness=K)
    evals, evecs = np.linalg.eigh(K)
    t_min = 2.0 * math.pi / math.sqrt(evals[-1])
    dt = t_min / 100.0
    q0 = 0.1 * evecs[:, 0]
    state = SystemState.initial(system, q=q0)
    result = simulate(system, state, duration=100000 * dt, dt=dt,
                      record_stride=200)
    total = result.kinetic + result.elastic
    assert np.max(np.abs(total - total[0])) / total[0] <= 1e-5

    damped = SpringMassSystem(masses=[1.0, 1.0, 1.0], stiffness=K,
                              damping=0.2 * np.eye(3))
    result = simulate(damped, SystemState.initial(damped, q=q0),
                      duration=2000 * dt, dt=dt, record_stride=20)
    total = result.kinetic + result.elastic
    assert np.all(np.diff(total) <= 1e-14)


def test_criterion_09_stability_screening():
    """100 random SPD matrices accepted; 100 planted failures rejected
    with the correct first failing minor."""
    rng = np.random.default_rng(9)

    def spd(n):
        A = rng.standard_normal((n, n))
        return A @ A.T + n * np.eye(n)

    for _ in range(100):
        n = int(rng.integers(2, 9))
        assert stability_check(spd(n)).passed
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        L = np.linalg.cholesky(spd(n))
        scale = np.ones(n)
        scale[k - 1] = -1.0
        planted = L @ np.diag(scale) @ L.T
        result = stability_check(planted)
        assert not result.passed
        assert result.first_failing_minor == k


def test_criterion_10_fit_round_trips():
    """Exponential law to 0.1% noiseless / 5% at 1% noise; 3-term Prony
    amplitudes to 1e-6."""
    law = ExponentialTensileLaw(B=2.0, C=3.0)
    lam = np.linspace(1.0, 2.0, 200)
    clean = law.stress(lam)

    fitted, _ = fit_exponential_law(lam, clean)
    assert abs(fitted.B - 2.0) / 2.0 <= 1e-3
    assert abs(fitted.C - 3.0) / 3.0 <= 1e-3

    rng = np.random.default_rng(10)
    noisy = clean * (1.0 + 0.01 * rng.standard_normal(lam.size))
    fitted, _ = fit_exponential_law(lam, noisy)
    assert abs(fitted.B - 2.0) / 2.0 <= 0.05
    assert abs(fitted.C - 3.0) / 3.0 <= 0.05

    true = PronySpectrum(K=0.4, amplitudes=(0.2, 0.25, 0.15),
                         frequencies=(0.3, 2.0, 9.0))
    t = np.linspace(0.0, 30.0, 600)
    spectrum, _ = fit_relaxation_spectrum(t, prony_relaxation(true, t), 3,
                                          frequencies=true.frequencies)
    assert abs(spectrum.K - true.K) <= 1e-6
    for a, b in zip(spectrum.amplitudes, true.amplitudes):
        assert abs(a - b) <= 1e-6


def test_criterion_11_biaxial_stress_is_energy_gradient():
    """fung_stress vs centered differences of fung_energy, 1000 draws,
    relative error <= 1e-6."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a1, a2 = rng.uniform(0.0, 3.0, 2)
        a4 = rng.uniform(-1.0, 1.0) * math.sqrt(a1 * a2)
        third = bool(rng.integers(0, 2))
        params = FungBiaxialParams(
            alpha1=rng.uniform(0.0, 2.0), alpha2=rng.uniform(0.0, 2.0),
            alpha3=rng.uniform(0.0, 2.0), alpha4=rng.uniform(-1.0, 1.0),
            a1=a1, a2=a2, a3=rng.uniform(0.0, 3.0), a4=a4,
            gamma1=rng.uniform(-0.5, 0.5), gamma2=rng.uniform(-0.5, 0.5),
            gamma4=rng.uniform(-0.5, 0.5), gamma5=rng.uniform(-0.5, 0.5),
            c=10.0 ** rng.uniform(-1, 0.5), include_third_order=third)
        e = rng.uniform(-0.2, 0.3, 3)
        strain = BiaxialStrainState(E11=e[0], E22=e[1], E12=e[2])
        stress = fung_stress(params, strain)

        h = 1e-5
        fd = []
        for name in ("E11", "E22", "E12"):
            kw = {"E11": e[0], "E22": e[1], "E12": e[2]}
            kw[name] = kw[name] + h
            plus = fung_energy(params, BiaxialStrainState(**kw))
            kw[name] = kw[name] - 2 * h
            minus = fung_energy(params, BiaxialStrainState(**kw))
            fd.append((plus - minus) / (2 * h))
        scale = max(abs(fd[0]), abs(fd[1]), abs(fd[2]), 1.0)
        assert abs(stress.S11 - fd[0]) / scale <= 1e-6
        assert abs(stress.S22 - fd[1]) / scale <= 1e-6
        assert abs(stress.S12 - fd[2]) / scale <= 1e-6


def test_criterion_12_cli_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV output."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("""
model:
  elastic: {kind: exponential, B: 2.0, C: 1.0}
  kernel: {kind: kelvin, E_R: 1.0, tau_eps: 0.5, tau_sigma: 1.5}
protocol:
  kind: creep
  hold_stress: 0.3
  duration: 5.0
  dt: 0.01
""")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["creep", "--config", str(cfg), "--seed", "0",
                     "--out", str(a)]) == 0
    assert cli_main(["creep", "--config", str(cfg), "--seed", "0",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
