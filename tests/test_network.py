import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim.constitutive import ExponentialTensileLaw
from qlvsim.errors import DomainError, StabilityError
from qlvsim import network
from qlvsim.kernels import (MaxwellParams, PronySpectrum, kernel_force_history,
                            maxwell_relaxation, prony_step)
from qlvsim.network import (KernelEntry, NonlinearSpring, SpringMassSystem,
                            SystemState, elastic_energy,
                            flexibility_from_stiffness, simulate,
                            stability_check, step, steps_and_records)


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestStabilityCheck:
    def test_identity_passes(self):
        assert stability_check(np.eye(2)).passed

    def test_indefinite_fails_at_minor_2(self):
        result = stability_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not result.passed
        assert result.first_failing_minor == 2
        assert result.minor_value == pytest.approx(-3.0, rel=1e-15)

    def test_negative_scalar_fails_at_minor_1(self):
        result = stability_check(np.array([[-1.0]]))
        assert not result.passed
        assert result.first_failing_minor == 1

    def test_spd_with_large_minors_passes(self):
        # all eigenvalues >= 1, but the leading minors reach 1e35: a
        # threshold growing like scale**k wrongly rejected minor 132
        A = np.random.default_rng(0).standard_normal((200, 200))
        assert stability_check(A @ A.T / 200 + np.eye(200)).passed

    def test_large_matrices_neither_raise_nor_warn(self):
        A = np.random.default_rng(0).standard_normal((200, 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stability_check(A @ A.T + 200 * np.eye(200)).passed
            result = stability_check(np.diag([1e200, 1e200, -1.0]))
        assert result.first_failing_minor == 3
        assert result.minor_value == -math.inf

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            stability_check(np.ones((2, 3)))

    def test_random_spd_and_planted_failures(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            assert stability_check(random_spd(rng, n)).passed
        for _ in range(100):
            n = int(rng.integers(2, 8))
            K = random_spd(rng, n)
            k = int(rng.integers(1, n + 1))
            # make the k-th leading minor the first non-positive one by
            # flipping the sign of the k-th pivot in the LDL sense
            d = np.linalg.cholesky(K)
            scale = np.ones(n)
            scale[k - 1] = -1.0
            planted = d @ np.diag(scale) @ d.T
            result = stability_check(planted)
            assert not result.passed
            assert result.first_failing_minor == k


class TestFlexibility:
    def test_identity(self):
        assert np.allclose(flexibility_from_stiffness(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        C = flexibility_from_stiffness(np.diag([2.0, 4.0]))
        assert np.allclose(C, np.diag([0.5, 0.25]))

    def test_random_spd_residual(self):
        rng = np.random.default_rng(5)
        K = random_spd(rng, 5)
        C = flexibility_from_stiffness(K)
        assert np.max(np.abs(K @ C - np.eye(5))) <= 1e-10
        assert np.allclose(C, C.T, atol=1e-12)

    def test_reciprocity(self):
        rng = np.random.default_rng(6)
        K = random_spd(rng, 6)
        C = flexibility_from_stiffness(K)
        for i in range(6):
            for j in range(6):
                assert C[i, j] == pytest.approx(C[j, i], abs=1e-10)

    def test_indefinite_raises_stability_error(self):
        with pytest.raises(StabilityError) as exc:
            flexibility_from_stiffness(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.minor_index == 2


class TestElasticEnergy:
    def test_zero_displacement(self):
        assert elastic_energy(np.diag([2.0]), np.zeros(1)) == 0.0

    def test_scalar_value(self):
        assert elastic_energy(np.diag([2.0]), np.array([3.0])) == \
            pytest.approx(9.0)

    def test_primal_equals_dual(self):
        rng = np.random.default_rng(9)
        K = random_spd(rng, 4)
        q = rng.standard_normal(4)
        # check_dual verifies 0.5 q'Kq == 0.5 Q'CQ internally to 1e-10
        elastic_energy(K, q, check_dual=True)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            elastic_energy(np.eye(2), np.zeros(3))


def harmonic_system(k=1.0, m=1.0):
    return SpringMassSystem(masses=[m], stiffness=[[k]])


class TestStep:
    def test_harmonic_oscillator_tracking(self):
        # analytic solution cos(w t); velocity-Verlet's phase error over
        # 10 periods at dt = T/1000 is w*t*(w*dt)^2/24 ~ 1.03e-4, so the
        # tracking tolerance is set just above that bound
        k = m = 1.0
        system = harmonic_system(k, m)
        w = math.sqrt(k / m)
        period = 2 * math.pi / w
        dt = period / 1000
        state = SystemState.initial(system, q=[1.0])
        worst = 0.0
        for _ in range(10 * 1000):
            state = step(system, state, dt)
            worst = max(worst, abs(state.q[0] - math.cos(w * state.time)))
        assert worst <= 1.1e-4

    def test_zero_state_fixed_point(self):
        system = harmonic_system()
        state = SystemState.initial(system)
        for _ in range(100):
            state = step(system, state, 0.01)
        assert np.all(state.q == 0.0) and np.all(state.v == 0.0)

    def test_dt_stability_bound_enforced(self):
        system = harmonic_system(k=100.0)
        state = SystemState.initial(system, q=[1.0])
        bound = system.stability_bound()
        with pytest.raises(DomainError):
            step(system, state, bound * 1.01)

    def test_check_time_step_is_the_run_check(self):
        system = harmonic_system(k=100.0)
        bound = system.stability_bound()
        system.check_time_step(0.99 * bound)
        message = (f"dt = {bound} violates the explicit stability bound "
                   f"2/omega_max = {bound}")
        with pytest.raises(DomainError) as raised:
            system.check_time_step(bound)
        assert str(raised.value) == message
        with pytest.raises(DomainError) as raised:
            simulate(system, SystemState.initial(system), 1.0, bound)
        assert str(raised.value) == message

    def test_tiny_mass_keeps_the_stability_check(self):
        # sqrt(m_i * m_j) underflows to 0 for m = 1e-300; the scaling
        # sqrt(m_i) * sqrt(m_j) does not, so the bound is finite and tiny
        system = SpringMassSystem(masses=[1e-300, 1.0],
                                  stiffness=[[2.0, -1.0], [-1.0, 1.0]])
        assert 0.0 < system.stability_bound() < 1e-149
        with pytest.raises(DomainError, match="stability bound"):
            simulate(system, SystemState.initial(system), 1.0, 0.01)

    def test_bound_that_overflows_is_rejected(self):
        with pytest.raises(DomainError, match="ill-scaled"):
            SpringMassSystem(masses=[1e-300, 1.0],
                             stiffness=[[1e10, -1.0], [-1.0, 1.0]])
        with pytest.raises(DomainError, match="damping are too ill-scaled"):
            SpringMassSystem(masses=[1e-300, 1.0], stiffness=np.eye(2),
                             damping=[[1e10, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [0.1, 30.0])
    @pytest.mark.parametrize("replace", [False, True])
    def test_bound_holds_every_force_at_rest(self, scale, replace):
        """2/max(omega_max, damping rate), the stiffness at t = 0+ built
        here entry by entry: K, memory amplitudes (+), aero K and
        amplitudes (-), and each spring's tangent C/L at rest, whose
        relaxing kernel is normalized; damping counts only if it acts."""
        m = np.array([1.0, 2.0, 0.5])
        K = np.array([[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
        beta = scale * np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.0],
                                 [0.0, -0.3, 0.7]])
        system = SpringMassSystem(
            masses=m, stiffness=K, damping=beta,
            kernels_replace_damping=replace,
            memory_kernels=(KernelEntry(0, 1, PronySpectrum(
                K=-1.0, amplitudes=(0.3, 0.2), frequencies=(1.0, 4.0))),),
            aero_kernels=(KernelEntry(1, 2, PronySpectrum(
                K=0.4, amplitudes=(0.5,), frequencies=(2.0,))),),
            nonlinear_springs=(
                NonlinearSpring(0, 2, ExponentialTensileLaw(B=3.0, C=2.0),
                                rest_length=0.5, kernel=PronySpectrum(
                                    K=0.5, amplitudes=(0.3, 0.2),
                                    frequencies=(1.0, 2.0))),
                NonlinearSpring(1, None,
                                ExponentialTensileLaw(B=1.0, C=0.7))))
        K0 = K.copy()
        K0[0, 1] += 0.3 + 0.2
        K0[1, 2] -= 0.4 + 0.5
        K0[np.ix_([0, 2], [0, 2])] += 4.0 * np.array([[1.0, -1.0],
                                                      [-1.0, 1.0]])
        K0[1, 1] += 0.7
        scaled = np.diag(m ** -0.5)
        rate = math.sqrt(np.linalg.eigvalsh(
            scaled @ (0.5 * (K0 + K0.T)) @ scaled).max())
        if not replace:
            rate = max(rate, np.linalg.eigvalsh(
                scaled @ (0.5 * (beta + beta.T)) @ scaled).max())
        assert system.stability_bound() == pytest.approx(2.0 / rate,
                                                         rel=1e-12)

    def test_second_order_convergence(self):
        system = harmonic_system()
        def max_err(dt):
            state = SystemState.initial(system, q=[1.0])
            worst = 0.0
            n = int(round(2 * math.pi / dt))
            for _ in range(n):
                state = step(system, state, dt)
                worst = max(worst, abs(state.q[0] - math.cos(state.time)))
            return worst
        assert max_err(0.01) / max_err(0.005) > 3.0


class TestKernelStep:
    def test_maxwell_kernel_reaction_tracks_relaxation(self):
        # prescribed unit step displacement; reaction force of a
        # Maxwell-type kernel must track mu*exp(-mu t/eta)
        p = MaxwellParams(mu=2.0, eta=1.0)
        spectrum = PronySpectrum(K=0.0, amplitudes=(p.mu,),
                                 frequencies=(p.mu / p.eta,))
        t = np.linspace(0.0, 3.0, 2000)
        force = kernel_force_history(spectrum, t, np.ones_like(t))
        ref = maxwell_relaxation(p, np.maximum(t, 1e-300))
        assert np.max(np.abs(force - ref)) / p.mu <= 1e-4

    def test_kernel_equilibrium_must_match_stiffness(self):
        with pytest.raises(DomainError):
            SpringMassSystem(
                masses=[1.0], stiffness=[[2.0]],
                memory_kernels=(KernelEntry(0, 0, PronySpectrum(
                    K=1.0, amplitudes=(0.5,), frequencies=(1.0,))),))

    @pytest.mark.parametrize("extra", [
        {},
        {"memory_kernels": (KernelEntry(1, 1, PronySpectrum(
            K=2.0, amplitudes=(0.3, 0.2), frequencies=(1.0, 4.0))),)},
        {"aero_kernels": (KernelEntry(0, 1, PronySpectrum(
            K=0.1, amplitudes=(0.05, 0.02), frequencies=(3.0, 8.0))),)},
        {"nonlinear_springs": (
            NonlinearSpring(0, 1, ExponentialTensileLaw(B=2.0, C=0.5),
                            kernel=PronySpectrum(K=0.5, amplitudes=(0.3, 0.2),
                                                 frequencies=(2.0, 6.0))),
            NonlinearSpring(1, None, ExponentialTensileLaw(B=1.0, C=0.3)))},
        {"damping": np.array([[0.1, 0.04], [-0.02, 0.2]])},
    ], ids=["diagonal-damping", "memory", "aero", "relaxing-spring",
            "dense-damping"])
    def test_kernel_free_step_reduces_to_explicit_matrices(self, extra):
        # three velocity-Verlet steps against a hand-rolled reference that
        # keeps one internal-variable array per kernel entry
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        kwargs = {"damping": 0.1 * np.eye(2), **extra}
        system = SpringMassSystem(masses=[1.0, 2.0], stiffness=K,
                                  external_force=lambda t: [0.0, math.sin(t)],
                                  **kwargs)
        q0 = np.array([0.3, -0.2])
        v0 = np.array([0.1, 0.4])
        dt = 0.01
        state = SystemState.initial(system, q=q0, v=v0)
        for _ in range(3):
            state = step(system, state, dt)
        m = np.array([1.0, 2.0])
        beta = system.damping if system.damping_active else np.zeros((2, 2))
        mem = system.memory_kernels
        aero = system.aero_kernels
        springs = system.nonlinear_springs

        def force(t, q, v, hs):
            f = np.array([0.0, math.sin(t)]) - K @ q - beta @ v
            for e, h in zip(mem, hs[0]):
                f[e.i] -= h.sum()
            for e, h in zip(aero, hs[1]):
                f[e.i] += e.spectrum.K * q[e.j] + h.sum()
            for s, h in zip(springs, hs[2]):
                tension = s.elastic_force(q) if s.kernel is None else \
                    s.kernel.K * s.elastic_force(q) + h.sum()
                f[s.i] -= tension
                if s.j is not None:
                    f[s.j] += tension
            return f

        q, v, t = q0, v0, 0.0
        hs = ([np.zeros(len(e.spectrum.amplitudes)) for e in mem],
              [np.zeros(len(e.spectrum.amplitudes)) for e in aero],
              [np.zeros(len(s.kernel.amplitudes) if s.kernel else 0)
               for s in springs])
        for _ in range(3):
            v_half = v + 0.5 * dt * force(t, q, v, hs) / m
            q1 = q + dt * v_half
            dq = q1 - q
            hs = ([prony_step(e.spectrum, h, dt, dq[e.j])
                   for e, h in zip(mem, hs[0])],
                  [prony_step(e.spectrum, h, dt, dq[e.j])
                   for e, h in zip(aero, hs[1])],
                  [h if s.kernel is None else prony_step(
                      s.kernel, h, dt, s.elastic_force(q1) - s.elastic_force(q))
                   for s, h in zip(springs, hs[2])])
            f1 = force(t + dt, q1, np.zeros(2), hs)
            A = np.diag(m) + 0.5 * dt * beta
            v = np.linalg.solve(A, m * v_half + 0.5 * dt * f1)
            q, t = q1, t + dt
        assert np.allclose(state.q, q, rtol=1e-12, atol=1e-15)
        assert np.allclose(state.v, v, rtol=1e-12, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           k=st.integers(1, 6))
    def test_simulate_equals_successive_steps(self, seed, n, k):
        # the force that ends one step starts the next; a fresh step must
        # reproduce it bit for bit
        rng = np.random.default_rng(seed)
        K = random_spd(rng, n)
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        law = ExponentialTensileLaw(B=float(rng.uniform(0.5, 3.0)),
                                    C=float(rng.uniform(0.1, 1.0)))
        a, b = rng.uniform(0.05, 0.5, size=2)
        system = SpringMassSystem(
            masses=rng.uniform(0.5, 2.0, size=n), stiffness=K,
            damping=rng.uniform(-0.05, 0.2, size=(n, n)) + 0.3 * np.eye(n),
            memory_kernels=(KernelEntry(i, j, PronySpectrum(
                K=K[i, j], amplitudes=(a, b), frequencies=(1.0, 5.0))),),
            aero_kernels=(KernelEntry(j, i, PronySpectrum(
                K=-0.1, amplitudes=(b,), frequencies=(2.0,))),),
            nonlinear_springs=(NonlinearSpring(
                i, None if i == j else j, law,
                kernel=PronySpectrum(K=1.0 - a, amplitudes=(a,),
                                     frequencies=(3.0,))),),
            external_force=lambda t: np.full(n, 0.1 * math.cos(t)),
            kernels_replace_damping=bool(rng.integers(2)))
        dt = 0.2 * system.stability_bound()
        state = SystemState.initial(system, q=rng.uniform(-0.1, 0.1, size=n),
                                    v=rng.uniform(-0.1, 0.1, size=n))
        final = simulate(system, state, k * dt, dt).final_state
        for _ in range(k):
            state = step(system, state, dt)
        for name in ("time", "q", "v", "h"):
            assert np.array_equal(getattr(final, name), getattr(state, name))


class TestSimulate:
    def chain(self):
        K = np.array([[2.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 1.0]])
        return SpringMassSystem(masses=[1.0, 1.0, 1.0], stiffness=K)

    EMPTY_GRIDS = pytest.mark.parametrize("duration, message", [
        (0.0, "duration must be > 0, got 0.0"),
        (0.004, "duration and dt produce an empty series")],
        ids=["zero", "below-half-a-step"])

    @EMPTY_GRIDS
    def test_empty_grid_is_rejected(self, duration, message):
        # grid_steps' rule: no run of no step, nor of one past the duration
        system = self.chain()
        state = SystemState.initial(system, q=[0.1, 0.0, 0.0])
        with pytest.raises(DomainError, match=f"^{message}$"):
            simulate(system, state, duration=duration, dt=0.01)

    def test_step_count_over_the_budget(self, alarm):
        # checked before the first step; the alarm fails a run that steps
        system = self.chain()
        state = SystemState.initial(system, q=[0.1, 0.0, 0.0])
        with alarm(20), pytest.raises(
                DomainError, match="duration/dt must be <= 10000000, "
                                   "got 1e\\+302$"):
            simulate(system, state, duration=1e300, dt=0.01)

    def test_record_table_over_the_budget(self, alarm):
        # 1e6 steps at stride 1 is 1000001 records of 11 values; checked
        # before the first step, and the alarm fails a run that steps
        system = self.chain()
        state = SystemState.initial(system, q=[0.1, 0.0, 0.0])
        with alarm(2), pytest.raises(
                DomainError, match="records x columns must be <= 10000000, "
                                   "got 11000011$"):
            simulate(system, state, duration=1e4, dt=0.01)

    @pytest.mark.parametrize("n, n_steps, stride, rows", [
        (3, 1, 1, 2), (3, 100, 7, 16), (3, 105, 7, 16),
        (3, 10**6, 2, 500001), (1, 10, 2**63, 2), (3, 909089, 1, 909090)])
    def test_steps_and_records(self, n, n_steps, stride, rows):
        assert steps_and_records(n, float(n_steps), 1.0, stride) == \
            (n_steps, rows)

    @EMPTY_GRIDS
    def test_steps_and_records_of_an_empty_grid(self, duration, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            steps_and_records(3, duration, 0.01, 1)

    def test_records_one_over_the_budget(self):
        with pytest.raises(DomainError, match="got 10000001$"):
            steps_and_records(3, 909090.0, 1.0, 1)

    def kernel_chain(self):
        """Damping, a memory kernel, a relaxing spring, an aero entry and a
        driving force: every column of the record moves."""
        K = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        amp = np.array([0.0, 0.0, 0.1])
        return SpringMassSystem(
            masses=[1.0, 2.0, 0.5], stiffness=K, damping=0.05 * np.eye(3),
            kernels_replace_damping=False,
            memory_kernels=(KernelEntry(2, 2, PronySpectrum(
                K=1.0, amplitudes=(0.5,), frequencies=(2.0,))),),
            aero_kernels=(KernelEntry(1, 0, PronySpectrum(
                K=0.1, amplitudes=(0.2,), frequencies=(3.0,))),),
            nonlinear_springs=(NonlinearSpring(
                0, 1, ExponentialTensileLaw(B=1.0, C=1.0),
                kernel=PronySpectrum(K=0.5, amplitudes=(0.5,),
                                     frequencies=(2.0,))),),
            external_force=lambda t: amp * math.sin(0.7 * t))

    @pytest.mark.parametrize("n_steps", [100, 105], ids=["tail", "no-tail"])
    @pytest.mark.parametrize("stride", [3, 7])
    def test_strided_records_are_rows_of_the_stride_one_run(self, stride,
                                                            n_steps):
        system = self.kernel_chain()
        state = SystemState.initial(system, q=[0.1, -0.05, 0.02])
        full = simulate(system, state, duration=n_steps * 0.01, dt=0.01)
        strided = simulate(system, state, duration=n_steps * 0.01, dt=0.01,
                           record_stride=stride)
        rows = sorted({*range(0, n_steps + 1, stride), n_steps})
        assert full.times.size == n_steps + 1
        assert strided.times.size == len(rows)
        for name in ("times", "q", "v", "kinetic", "elastic",
                     "external_work", "dissipation"):
            assert np.array_equal(getattr(strided, name),
                                  getattr(full, name)[rows]), name
        for name in ("time", "q", "v", "h"):
            assert np.array_equal(getattr(strided.final_state, name),
                                  getattr(full.final_state, name)), name

    def test_records_at_stride_one_take_no_memory_per_record(self):
        # 5001 records of 11 floats are 0.44 MB in one table; a tuple of
        # arrays and floats per record peaked at 3.2 MB.  The run is short
        # because tracing every allocation makes each step about 10x slower.
        system = self.chain()
        state = SystemState.initial(system, q=[0.1, 0.0, 0.0])
        tracemalloc.start()
        try:
            result = simulate(system, state, duration=50.0, dt=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.times.size == 5001
        assert peak <= 1e6

    def test_conservative_energy_drift(self):
        system = self.chain()
        state = SystemState.initial(system, q=[0.1, 0.2, 0.3])
        result = simulate(system, state, duration=50.0, dt=0.005,
                          record_stride=100)
        total = result.kinetic + result.elastic
        drift = np.max(np.abs(total - total[0])) / total[0]
        assert drift <= 1e-5

    def test_damped_energy_non_increasing(self):
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        system = SpringMassSystem(masses=[1.0, 1.0], stiffness=K,
                                  damping=0.3 * np.eye(2))
        state = SystemState.initial(system, q=[0.5, -0.2])
        result = simulate(system, state, duration=20.0, dt=0.01,
                          record_stride=10)
        total = result.kinetic + result.elastic
        assert np.all(np.diff(total) <= 1e-12)

    @pytest.mark.parametrize("kernels", [
        {"memory_kernels": (KernelEntry(1, 1, PronySpectrum(
            K=1.0, amplitudes=(0.5,), frequencies=(2.0,))),)},
        {"nonlinear_springs": (NonlinearSpring(
            0, 1, ExponentialTensileLaw(B=1.0, C=1.0), kernel=PronySpectrum(
                K=0.5, amplitudes=(0.5,), frequencies=(2.0,))),)},
        {"aero_kernels": (KernelEntry(1, 0, PronySpectrum(
            K=0.1, amplitudes=(0.2,), frequencies=(3.0,))),)},
    ], ids=["memory", "relaxing-spring", "aero"])
    def test_energy_balance_with_kernels(self, kernels):
        # mechanical energy + dissipation - external work constant to 1e-4;
        # mechanical energy includes the springs' equilibrium strain energy
        K = np.array([[2.0, -1.0], [-1.0, 1.0]])
        amp = np.array([0.0, 0.05])
        system = SpringMassSystem(
            masses=[1.0, 1.0], stiffness=K,
            external_force=lambda t: amp * math.sin(0.7 * t), **kernels)
        state = SystemState.initial(system)
        result = simulate(system, state, duration=30.0, dt=0.002,
                          record_stride=50)
        mechanical = result.kinetic + result.elastic
        for s in system.nonlinear_springs:
            x = s.law.B * (result.q[:, s.i] - result.q[:, s.j])
            mechanical += (s.kernel.K * s.law.C / s.law.B**2
                           * (np.expm1(x) - x))
        balance = mechanical + result.dissipation - result.external_work
        scale = max(np.max(mechanical), 1e-12)
        assert np.max(np.abs(balance - balance[0])) / scale <= 1e-4

    def test_dt_violation_raises(self):
        system = self.chain()
        state = SystemState.initial(system)
        with pytest.raises(DomainError):
            simulate(system, state, duration=1.0, dt=10.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_dt_must_be_finite_and_positive(self, dt):
        system = self.chain()
        with pytest.raises(DomainError, match="dt"):
            simulate(system, SystemState.initial(system), duration=1.0, dt=dt)


SPEC = PronySpectrum(K=0.0, amplitudes=(0.5,), frequencies=(2.0,))
LAW = ExponentialTensileLaw(B=2.0, C=0.5)
PAIR = dict(masses=[1.0, 2.0], stiffness=[[2.0, -1.0], [-1.0, 2.0]])


class TestIndices:
    """A KernelEntry's or NonlinearSpring's indices are ints in [0, n):
    each checked by its owner, then all against n in one place."""

    @pytest.mark.parametrize("x", [0.7, 1.0, True],
                             ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("make, name", [
        (lambda x: KernelEntry(x, 0, SPEC), "i"),
        (lambda x: KernelEntry(0, x, SPEC), "j"),
        (lambda x: NonlinearSpring(x, None, LAW), "i"),
        (lambda x: NonlinearSpring(0, x, LAW), "j")],
        ids=["entry.i", "entry.j", "spring.i", "spring.j"])
    def test_not_an_int_is_rejected_not_truncated(self, make, name, x):
        # 0.7 was taken as 0: NonlinearSpring(0.7, None, law) simulated
        # exactly as NonlinearSpring(0, None, law)
        with pytest.raises(DomainError,
                           match=f"^{name} must be an int, got {x!r}$"):
            make(x)

    def test_a_numpy_int_is_the_int(self):
        def final(k):
            system = SpringMassSystem(
                **PAIR, aero_kernels=(KernelEntry(k(1), k(0), SPEC),),
                nonlinear_springs=(NonlinearSpring(k(0), k(1), LAW),
                                   NonlinearSpring(k(1), None, LAW)))
            state = SystemState.initial(system, q=[0.01, -0.02])
            return simulate(system, state, 0.5, 0.01).final_state
        ints, numpy_ints = final(int), final(np.int64)
        assert ints.q.tobytes() == numpy_ints.q.tobytes()
        assert ints.h.tobytes() == numpy_ints.h.tobytes()

    @pytest.mark.parametrize("extra, top", [
        ({"memory_kernels": (KernelEntry(0, 2, SPEC),)}, 2),
        ({"aero_kernels": (KernelEntry(5, 1, SPEC),)}, 5),
        ({"nonlinear_springs": (NonlinearSpring(0, 3, LAW),)}, 3),
        ({"nonlinear_springs": (NonlinearSpring(2, None, LAW),)}, 2),
        ({"aero_kernels": (KernelEntry(1, 4, SPEC),),
          "nonlinear_springs": (NonlinearSpring(1, 0, LAW),
                                NonlinearSpring(7, None, LAW))}, 7)],
        ids=["memory", "aero", "spring", "ground-spring", "largest"])
    def test_an_index_past_n(self, extra, top):
        with pytest.raises(DomainError, match=(
                f"^network index {top} out of range for n=2$")):
            SpringMassSystem(**PAIR, **extra)

    def test_every_index_below_n_is_taken(self):
        system = SpringMassSystem(
            **PAIR, aero_kernels=(KernelEntry(1, 1, SPEC),),
            nonlinear_springs=(NonlinearSpring(1, None, LAW),
                               NonlinearSpring(1, 0, LAW)))
        assert system._stack.spring_ends.tolist() == [[1, 4], [1, 0]]


class TestNonlinearSpring:
    def test_static_tension(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        spring = NonlinearSpring(i=0, j=None, law=law, rest_length=1.0)
        q = np.array([0.2])
        assert spring.elastic_force(q) == pytest.approx(law.stress(1.2))

    def test_relaxing_spring_force_decays(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        kernel = PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(5.0,))
        spring = NonlinearSpring(i=0, j=None, law=law, kernel=kernel)
        system = SpringMassSystem(masses=[1.0], stiffness=[[0.0]],
                                  nonlinear_springs=(spring,))
        # hold the mass fixed by a large opposing mass approximation:
        # instead, verify via the spring's own hereditary response
        t = np.linspace(0.0, 2.0, 500)
        te = np.full_like(t, law.stress(1.2))
        force = kernel_force_history(kernel, t, te)
        assert force[0] == pytest.approx(law.stress(1.2))
        assert force[-1] == pytest.approx(0.5 * law.stress(1.2), rel=1e-3)

    def test_unnormalized_kernel_rejected(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        with pytest.raises(DomainError):
            NonlinearSpring(i=0, j=None, law=law,
                            kernel=PronySpectrum(K=2.0))


def _scatter_copy(ends, values, n):
    signed = np.multiply.outer(values, (1.0, -1.0))
    return np.bincount(ends.ravel(), signed.ravel(), minlength=n + 1)[:n]


def reference_simulate(system, state, duration, dt, record_stride=1):
    """The step loop of :func:`simulate` with one ``elastic_force`` call per
    spring and force evaluation, every force group scattered even when it
    is empty, and ``scipy.linalg.lu_solve`` for the damped update.  Returns
    the record table in CSV column order and the final (t, q, v, h)."""
    from scipy.linalg import lu_factor, lu_solve
    st_, springs = system._stack, system.nonlinear_springs
    n, m, K, k = system.n, system.masses, system.stiffness, st_.n_internal
    n_steps, _ = steps_and_records(n, duration, dt, record_stride)
    decay = prony_step(st_, 1.0, dt, 0.0)
    gain = prony_step(st_, 0.0, dt, 1.0)
    beta = system.damping if system.damping_active else None
    if beta is not None:
        lu = lu_factor(np.diag(m) + 0.5 * dt * beta)

    def inputs(q):
        return np.concatenate((q, [s.elastic_force(q) for s in springs]))

    def forces(t, z, h):
        q = z[:n]
        owned = np.bincount(st_.owner, h, minlength=len(st_.ends))
        memory = _scatter_copy(st_.ends[:k], owned[:k], n)
        aero = _scatter_copy(st_.ends[k:],
                             st_.aero_K * q[st_.aero_j] + owned[k:], n)
        pull = _scatter_copy(st_.spring_ends, st_.spring_scale * z[n:], n)
        f_ext = system.external_force_at(t)
        return f_ext, aero, memory, (f_ext + aero) - (K @ q + memory + pull)

    t, q, v, h = state.time, state.q, state.v, state.h
    z = inputs(q)
    f_ext, aero, memory, f = forces(t, z, h)
    damp = 0.0 if beta is None else beta @ v
    work = diss = 0.0
    rows = []

    def record():
        rows.append(np.concatenate(([t], q, v, [
            0.5 * float(np.dot(m, v * v)), 0.5 * float(q @ K @ q),
            work, diss])))

    record()
    for i in range(n_steps):
        v_half = v + 0.5 * dt * ((f - damp) / m)
        q_new = q + dt * v_half
        z_new = inputs(q_new)
        h = decay * h + gain * (z_new - z)[st_.source]
        f_ext1, aero1, memory1, f1 = forces(t + dt, z_new, h)
        if beta is None:
            v_new = v_half + 0.5 * dt * f1 / m
            damp1 = 0.0
        else:
            v_new = lu_solve(lu, m * v_half + 0.5 * dt * f1)
            damp1 = beta @ v_new
        dq = q_new - q
        work += float(np.dot(0.5 * (f_ext + f_ext1) + 0.5 * (aero + aero1),
                             dq))
        diss += float(np.dot(0.5 * ((memory + damp) + (memory1 + damp1)),
                             dq))
        t, q, v, z = t + dt, q_new, v_new, z_new
        f_ext, aero, memory, f, damp = f_ext1, aero1, memory1, f1, damp1
        if (i + 1) % record_stride == 0 or i == n_steps - 1:
            record()
    return np.array(rows), (t, q, v, h)


class TestReferenceLoop:
    """simulate against the per-spring reference loop, bit for bit: every
    record column (so every CSV byte) and the final state."""

    GROUPS = ["damping", "memory", "aero", "springs", "force"]

    def system(self, without=()):
        K = np.array([[3.0, -1.0, 0.0, 0.0], [-1.0, 3.0, -1.0, 0.0],
                      [0.0, -1.0, 3.0, -1.0], [0.0, 0.0, -1.0, 2.0]])
        amp = np.array([0.0, 0.05, 0.0, 0.1])
        groups = {
            "damping": {"damping": 0.05 * np.eye(4)
                        + 0.01 * np.eye(4, k=1)},
            "memory": {"memory_kernels": (
                KernelEntry(3, 3, PronySpectrum(
                    K=2.0, amplitudes=(0.5, 0.2), frequencies=(2.0, 7.0))),
                KernelEntry(1, 2, PronySpectrum(
                    K=-1.0, amplitudes=(0.1,), frequencies=(1.0,))))},
            "aero": {"aero_kernels": (KernelEntry(2, 0, PronySpectrum(
                K=0.1, amplitudes=(0.2,), frequencies=(3.0,))),)},
            "springs": {"nonlinear_springs": (
                NonlinearSpring(0, 1, ExponentialTensileLaw(B=3.0, C=0.2),
                                kernel=PronySpectrum(
                                    K=0.5, amplitudes=(0.3, 0.2),
                                    frequencies=(2.0, 6.0))),
                NonlinearSpring(2, 3, ExponentialTensileLaw(B=2.0, C=0.5),
                                rest_length=0.8),
                NonlinearSpring(3, None, ExponentialTensileLaw(B=1.0,
                                                               C=0.3)))},
            "force": {"external_force":
                      lambda t: amp * math.sin(0.7 * t)},
        }
        kwargs = {key: value for name, group in groups.items()
                  if name not in without for key, value in group.items()}
        return SpringMassSystem(masses=[1.0, 2.0, 0.5, 1.5], stiffness=K,
                                kernels_replace_damping=False, **kwargs)

    def check(self, system, duration=2.0, dt=0.01, stride=3, state=None):
        state = state or SystemState.initial(
            system, q=[0.1, -0.05, 0.02, 0.08], v=[0.0, 0.3, -0.2, 0.1])
        got = simulate(system, state, duration, dt, record_stride=stride)
        table, final = reference_simulate(system, state, duration, dt,
                                          stride)
        columns = [got.times, *got.q.T, *got.v.T, got.kinetic, got.elastic,
                   got.external_work, got.dissipation]
        assert len(columns) == table.shape[1]
        for column, want in zip(columns, table.T):
            assert np.array_equal(column, want)
            assert column.tobytes() == np.ascontiguousarray(want).tobytes()
        for name, want in zip(("time", "q", "v", "h"), final):
            assert np.asarray(getattr(got.final_state, name)).tobytes() == \
                np.asarray(want).tobytes(), name

    def test_every_force_group(self):
        self.check(self.system())

    @pytest.mark.parametrize("group", GROUPS + ["all"])
    def test_each_group_empty_in_turn(self, group):
        self.check(self.system(self.GROUPS if group == "all" else (group,)))

    def test_memory_replacing_damping(self):
        system = self.system()
        self.check(SpringMassSystem(
            masses=system.masses, stiffness=system.stiffness,
            damping=system.damping, memory_kernels=system.memory_kernels,
            nonlinear_springs=system.nonlinear_springs))

    # the "damping" group is bidiagonal, so it takes the LU path; a
    # diagonal matrix takes the division path
    @pytest.mark.parametrize("damping", [
        np.diag([0.05, 0.2, 0.0, 0.1]),
        0.05 * np.eye(4) + 0.01 * np.eye(4, k=1) + 0.02 * np.eye(4, k=-2)],
        ids=["diagonal", "dense"])
    @pytest.mark.parametrize("others", ["none", "every"])
    def test_damping_form(self, damping, others):
        without = self.GROUPS[1:] if others == "none" else ()
        self.check(dataclasses.replace(self.system(without),
                                       damping=damping))

    def test_benchmark_network_shape(self):
        """The benchmark's network op in small: a chain of 100 masses with
        10 two-term diagonal memory kernels, 5 interior springs, diagonal
        damping kept beside the kernels and a sinusoidal tip force."""
        rng = np.random.default_rng(22)
        n = 100
        links = rng.uniform(0.5, 2.0, n)
        K = np.diag(links + np.append(links[1:], 0.0)) \
            - np.diag(links[1:], 1) - np.diag(links[1:], -1)
        memory = tuple(KernelEntry(i, i, PronySpectrum(
            K=K[i, i], amplitudes=tuple(rng.uniform(0.05, 0.2, 2)),
            frequencies=(rng.uniform(0.5, 1.5), rng.uniform(3.0, 6.0))))
            for i in sorted(rng.choice(n, 10, replace=False).tolist()))
        springs = tuple(NonlinearSpring(i, i + 1, ExponentialTensileLaw(
            B=rng.uniform(2.0, 5.0), C=rng.uniform(0.01, 0.05)))
            for i in sorted(rng.choice(n - 1, 5, replace=False).tolist()))
        tip = np.append(np.zeros(n - 1), rng.uniform(0.05, 0.15))
        w = rng.uniform(0.5, 2.0)
        system = SpringMassSystem(
            masses=rng.uniform(0.5, 2.0, n), stiffness=K,
            damping=np.diag(rng.uniform(0.01, 0.05, n)),
            memory_kernels=memory, nonlinear_springs=springs,
            kernels_replace_damping=False,
            external_force=lambda t: tip * math.sin(w * t))
        state = SystemState.initial(system, q=rng.uniform(-0.01, 0.01, n),
                                    v=rng.uniform(-0.01, 0.01, n))
        self.check(system, duration=0.15, dt=0.005, stride=3, state=state)

    def test_diagonal_damping_through_underflow(self, monkeypatch):
        """Velocities that underflow put -0.0 into the right-hand side of
        the damped update, where getrs may return the opposite zero from a
        division by the diagonal; the run still matches getrs."""
        negative_zeros = []

        def spy(A, solve=network._damped_solve):
            inner = solve(A)

            def recorded(b):
                negative_zeros.append(((b == 0) & np.signbit(b)).any())
                return inner(b)
            return recorded

        monkeypatch.setattr(network, "_damped_solve", spy)
        system = SpringMassSystem(
            masses=[1.3, 1.45], stiffness=[[2.5, -1.0], [-1.0, 1.0]],
            damping=np.diag([0.5, 2.75]))
        state = SystemState.initial(system, q=[0.0, 6e-306],
                                    v=[0.0, -3e-307])
        self.check(system, duration=600.0, dt=0.6, stride=1, state=state)
        assert any(negative_zeros)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 130), steps=st.integers(1, 30),
           groups=st.sets(st.sampled_from(GROUPS[1:])))
    def test_random_diagonal_damping(self, data, n, steps, groups):
        """Diagonal damping of every size across getrs' 64-row blocks,
        masses and damping over twelve decades, zero damping entries and
        signed zeros in the initial state, with any mix of the other force
        groups."""
        def draw(elements, size=n):
            return np.array(data.draw(st.lists(elements, min_size=size,
                                               max_size=size)))

        decades = st.floats(-6.0, 6.0)
        small = st.floats(-0.01, 0.01) | st.sampled_from([0.0, -0.0])
        masses = 10.0 ** draw(decades)
        links = masses * 10.0 ** draw(st.floats(-1.0, 1.0))
        K = np.diag(links + np.append(links[1:], 0.0)) \
            - np.diag(links[1:], 1) - np.diag(links[1:], -1)
        damping = np.diag(masses * 10.0 ** draw(decades)
                          * draw(st.sampled_from([0.0, 1.0])))
        i, j, k = draw(st.integers(0, n - 1), 3)
        # the aero entry and the spring are at most a tenth as stiff as
        # the softer row they join, so the run stays stable
        scale = min(K[j, j], K[k, k])
        kwargs = {
            "memory": {"memory_kernels": (KernelEntry(i, i, PronySpectrum(
                K=K[i, i], amplitudes=(0.3 * K[i, i],),
                frequencies=(2.0,))),)},
            "aero": {"aero_kernels": (KernelEntry(j, k, PronySpectrum(
                K=0.01 * scale, amplitudes=(0.02 * scale,),
                frequencies=(3.0,))),)},
            "springs": {"nonlinear_springs": (NonlinearSpring(
                j, None if j == k else k,
                ExponentialTensileLaw(B=2.0, C=0.05 * scale)),)},
            "force": {"external_force":
                      lambda t: np.full(n, 0.01) * links * math.sin(t)},
        }
        system = SpringMassSystem(
            masses=masses, stiffness=K, damping=damping,
            kernels_replace_damping=False,
            **{key: value for group in groups
               for key, value in kwargs[group].items()})
        dt = 0.5 * system.stability_bound()
        state = SystemState.initial(system, q=draw(small), v=draw(small))
        self.check(system, duration=steps * dt, dt=dt,
                   stride=data.draw(st.integers(1, 4)), state=state)


class TestStackedSprings:
    """``_Stack.drives``, the springs' elastic forces evaluated all at
    once, against one ``elastic_force`` call per spring, bit for bit."""

    @staticmethod
    def system(n, springs):
        return SpringMassSystem(masses=np.ones(n), stiffness=np.zeros((n, n)),
                                nonlinear_springs=tuple(springs))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), data=st.data(),
           springs=st.lists(st.tuples(
               st.integers(0, 4), st.none() | st.integers(0, 4),
               st.floats(0.1, 50.0), st.floats(1e-3, 10.0),
               st.floats(0.5, 10.0)), min_size=1, max_size=40))
    def test_forces_equal_one_call_per_spring(self, n, data, springs):
        springs = [NonlinearSpring(i % n, None if j is None else j % n,
                                   ExponentialTensileLaw(B=B, C=C),
                                   rest_length=length)
                   for i, j, B, C, length in springs]
        q = np.array(data.draw(st.lists(st.floats(-0.2, 0.2), min_size=n,
                                        max_size=n)))
        z = self.system(n, springs)._stack.drives(q, 0.0)
        assert z[:n].tobytes() == q.tobytes()
        want = np.array([s.elastic_force(q) for s in springs])
        assert z[n:].tobytes() == want.tobytes()
        # the vector expm1 of every length up to 40 is the 0-d one
        args = np.array([s.law.B * (1.0 + s.elongation(q) / s.rest_length
                                    - 1.0) for s in springs])
        assert np.expm1(args).tobytes() == \
            np.array([np.expm1(np.asarray(a)) for a in args]).tobytes()

    COMPRESSED = NonlinearSpring(0, None, ExponentialTensileLaw(B=2.0, C=0.5))
    OVERFLOWING = NonlinearSpring(1, None,
                                  ExponentialTensileLaw(B=400.0, C=0.5))
    HEALTHY = NonlinearSpring(1, None, ExponentialTensileLaw(B=1.0, C=0.3))
    # exponent 704: over the law's cap, but the force is still finite
    JUST_OVER = NonlinearSpring(1, None, ExponentialTensileLaw(B=352.0, C=0.5))

    @pytest.mark.parametrize("faulty, message", [
        ((COMPRESSED, OVERFLOWING),
         "spring (0, ground) at t = 0: stretch must be > 0, got -0.5"),
        ((OVERFLOWING, COMPRESSED),
         "spring (1, ground) at t = 0: exponent B*(lambda-1) must be <= "
         "700.0, got 800.0"),
        ((JUST_OVER,),
         "spring (1, ground) at t = 0: exponent B*(lambda-1) must be <= "
         "700.0, got 704.0"),
    ], ids=["compressed-first", "overflowing-first", "finite-over-the-cap"])
    def test_first_faulty_spring_raises_its_own_error(self, faulty, message):
        # the first faulty spring's own error, named by its ends and time
        springs = (self.HEALTHY, *faulty, self.HEALTHY)
        q = np.array([-1.5, 2.0])   # stretches 1 + q[0] and 1 + q[1]
        with pytest.raises(DomainError) as scalar:
            for s in springs:
                s.elastic_force(q)
        assert message.endswith(f": {scalar.value}")
        system = self.system(2, springs)
        with pytest.raises(DomainError) as stacked:
            system._stack.drives(q, 0.0)
        assert str(stacked.value) == message
        with pytest.raises(DomainError) as run:
            simulate(system, SystemState.initial(system, q=q), 1.0, 0.5)
        assert str(run.value) == message

    def test_fault_in_a_run_matches_the_reference_loop(self):
        # a spring compressed past a stretch of 0 a few steps into the run
        system = SpringMassSystem(
            masses=[1.0, 1.0], stiffness=[[2.0, -1.0], [-1.0, 1.0]],
            damping=0.1 * np.eye(2), nonlinear_springs=(
                NonlinearSpring(1, None, ExponentialTensileLaw(B=1.0, C=0.1)),
                NonlinearSpring(0, 1, ExponentialTensileLaw(B=2.0, C=0.5),
                                rest_length=0.5)))
        state = SystemState.initial(system, v=[-20.0, 5.0])
        with pytest.raises(DomainError) as want:
            reference_simulate(system, state, 1.0, 0.01)
        with pytest.raises(DomainError) as got:
            simulate(system, state, 1.0, 0.01)
        assert "stretch must be > 0" in str(want.value)
        assert str(got.value) == f"spring (0, 1) at t = 0.03: {want.value}"


class TestDampedSolve:
    def test_non_finite_right_hand_side_raises(self):
        # the external force turns infinite after the first step; the
        # damped update rejects the right-hand side before solving
        system = SpringMassSystem(
            masses=[1.0, 1.0], stiffness=[[2.0, -1.0], [-1.0, 1.0]],
            damping=0.1 * np.eye(2),
            external_force=lambda t: [0.0, math.inf if t > 0 else 0.0])
        with pytest.raises(ValueError,
                           match="^array must not contain infs or NaNs$"):
            simulate(system, SystemState.initial(system), 1.0, 0.01)

    def test_non_finite_right_hand_side_raises_dense(self):
        system = SpringMassSystem(
            masses=[1.0, 1.0], stiffness=[[2.0, -1.0], [-1.0, 1.0]],
            damping=[[0.1, 0.02], [0.02, 0.1]],
            external_force=lambda t: [0.0, math.inf if t > 0 else 0.0])
        with pytest.raises(ValueError,
                           match="^array must not contain infs or NaNs$"):
            simulate(system, SystemState.initial(system), 1.0, 0.01)

    @pytest.mark.parametrize("masses, damping, row", [
        ([1.0], [[-200.0]], 0),
        ([1.0, 2.0, 1.0], np.diag([0.5, -400.0, 0.5]), 1),
        # getrf swaps the rows; U's second pivot is 0
        ([1.0, 1.0], [[-200.0, 0.0], [100.0, 0.0]], 1)],
        ids=["one-mass", "diagonal", "dense"])
    def test_zero_pivot_names_its_row(self, masses, damping, row):
        n = len(masses)
        system = SpringMassSystem(masses=masses, stiffness=np.eye(n),
                                  damping=damping)
        state = SystemState.initial(system, q=np.full(n, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=(
                    rf"^M \+ dt/2 beta is singular: zero pivot in row "
                    rf"{row}$")):
                simulate(system, state, 1.0, 0.01)
        # the grid is checked first: a run of no steps is no run
        with pytest.raises(DomainError, match="^duration must be > 0"):
            simulate(system, state, 0.0, 0.01)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 130))
    def test_diagonal_solve_has_the_bits_of_getrs(self, data, n):
        """Over both signs and twenty-six decades of the diagonal, and
        right-hand sides with many signed zeros."""
        from scipy.linalg import lu_factor, lu_solve

        def draw(elements):
            return np.array(data.draw(st.lists(elements, min_size=n,
                                               max_size=n)))

        d = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
            st.floats(-13.0, 13.0))
        b = draw(st.sampled_from([0.0, -0.0])
                 | st.floats(-1e6, 1e6, allow_subnormal=False))
        want = lu_solve(lu_factor(np.diag(d)), b)
        assert network._damped_solve(np.diag(d))(b).tobytes() == \
            want.tobytes()
