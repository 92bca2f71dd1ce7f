"""Viscoelastic spring-mass network.

Dense stiffness/flexibility formulation with leading-minor stability
screening, and velocity-Verlet time integration of the equations of motion
with optional viscous damping, per-entry fading-memory kernels, per-entry
aerodynamic influence kernels, and per-connection nonlinear springs.

Convolution terms use quiescent initial conditions at t = 0 (internal
variables start at zero) and advance with :func:`qlvsim.kernels.prony_step`,
exact for displacements linear in time over each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .constitutive import ExponentialTensileLaw
from .errors import DomainError, NumericalError, StabilityError
# kernel_force_history is re-exported for callers of the network API
from .kernels import PronySpectrum, kernel_force_history, prony_step


@dataclass(frozen=True)
class StabilityResult:
    passed: bool
    first_failing_minor: int | None = None
    minor_value: float | None = None

    def __bool__(self) -> bool:
        return self.passed


def stability_check(K: np.ndarray, tol: float = 1e-12) -> StabilityResult:
    """Check that all leading principal minors are positive.

    Leading minor k is the product of the first k pivots of Gaussian
    elimination without pivoting, so the first pivot at or below ``tol``
    times the largest entry (at least 1) is the first failing minor.  Its
    ``minor_value`` is that pivot product.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DomainError(f"stability check needs a square matrix, got {K.shape}")
    scale = max(1.0, float(np.max(np.abs(K)))) if K.size else 1.0
    A = K.copy()
    pivots = []
    for k in range(A.shape[0]):
        pivots.append(float(A[k, k]))
        if pivots[-1] <= tol * scale:
            return StabilityResult(False, first_failing_minor=k + 1,
                                   minor_value=math.prod(pivots))
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:]) / A[k, k]
    return StabilityResult(True)


def flexibility_from_stiffness(K: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite stiffness matrix."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DomainError(f"stiffness matrix must be square, got {K.shape}")
    if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(K).max())):
        raise DomainError("stiffness matrix must be symmetric")
    check = stability_check(K)
    if not check:
        raise StabilityError(
            f"stiffness matrix is not positive definite: leading minor "
            f"{check.first_failing_minor} is {check.minor_value}",
            minor_index=check.first_failing_minor)
    c, low = cho_factor(K)
    C = cho_solve((c, low), np.eye(K.shape[0]))
    return 0.5 * (C + C.T)


def elastic_energy(K: np.ndarray, q: np.ndarray, check_dual: bool = True) -> float:
    """Strain energy (1/2) q^T K q.

    With ``check_dual`` the flexibility form (1/2) Q^T C Q (Q = K q) is
    evaluated independently and must agree to 1e-10 relative.
    """
    K = np.asarray(K, dtype=float)
    q = np.asarray(q, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or q.shape != (K.shape[0],):
        raise DomainError(
            f"dimension mismatch: K is {K.shape}, q is {q.shape}")
    u = 0.5 * float(q @ K @ q)
    if check_dual:
        C = flexibility_from_stiffness(K)
        Q = K @ q
        u_dual = 0.5 * float(Q @ C @ Q)
        scale = max(abs(u), abs(u_dual), 1e-300)
        if abs(u - u_dual) > 1e-10 * max(scale, 1.0):
            raise NumericalError(
                f"stiffness and flexibility energy forms disagree: "
                f"{u} vs {u_dual}")
    return u


@dataclass(frozen=True)
class KernelEntry:
    """Fading-memory (or aerodynamic) kernel attached to matrix entry (i, j)."""

    i: int
    j: int
    spectrum: PronySpectrum


@dataclass(frozen=True)
class NonlinearSpring:
    """Connection whose elastic force follows the exponential tensile law.

    The connection elongation is q[i] - q[j] (or q[i] alone when j is None,
    a ground attachment); the stretch is 1 + elongation / rest_length.  An
    optional normalized relaxation spectrum superposes fading memory on the
    elastic force, as in the scalar hereditary integral.
    """

    i: int
    j: int | None
    law: ExponentialTensileLaw
    rest_length: float = 1.0
    kernel: PronySpectrum | None = None

    def __post_init__(self):
        if self.rest_length <= 0:
            raise DomainError(f"rest_length must be > 0, got {self.rest_length}")
        if self.kernel is not None and abs(self.kernel.at_zero - 1.0) > 1e-9:
            raise DomainError("nonlinear-spring kernel must be normalized")

    def elongation(self, q: np.ndarray) -> float:
        return float(q[self.i] - (0.0 if self.j is None else q[self.j]))

    def elastic_force(self, q: np.ndarray) -> float:
        lam = 1.0 + self.elongation(q) / self.rest_length
        return self.law.stress(lam)


@dataclass(frozen=True)
class SpringMassSystem:
    """Masses, stiffness/damping matrices and optional kernel attachments.

    When memory kernels are present they replace the viscous damping matrix
    by default (set ``kernels_replace_damping`` False to keep both).  Each
    memory kernel's equilibrium coefficient must equal the corresponding
    stiffness entry so the convolution's long-time limit is consistent with
    the static stiffness.
    """

    masses: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray | None = None
    memory_kernels: tuple[KernelEntry, ...] = ()
    aero_kernels: tuple[KernelEntry, ...] = ()
    nonlinear_springs: tuple[NonlinearSpring, ...] = ()
    external_force: object = None        # callable t -> array of length n
    kernels_replace_damping: bool = True

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        K = np.asarray(self.stiffness, dtype=float)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "stiffness", K)
        object.__setattr__(self, "memory_kernels", tuple(self.memory_kernels))
        object.__setattr__(self, "aero_kernels", tuple(self.aero_kernels))
        object.__setattr__(self, "nonlinear_springs",
                           tuple(self.nonlinear_springs))
        n = m.size
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise DomainError("all masses must be finite and > 0")
        if K.shape != (n, n):
            raise DomainError(f"stiffness must be {n}x{n}, got {K.shape}")
        scale = max(1.0, float(np.abs(K).max())) if K.size else 1.0
        if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * scale):
            raise DomainError("stiffness matrix must be symmetric")
        if self.damping is not None:
            beta = np.asarray(self.damping, dtype=float)
            object.__setattr__(self, "damping", beta)
            if beta.shape != (n, n):
                raise DomainError(f"damping must be {n}x{n}, got {beta.shape}")
        for entry in self.memory_kernels + self.aero_kernels:
            if not (0 <= entry.i < n and 0 <= entry.j < n):
                raise DomainError(
                    f"kernel entry ({entry.i}, {entry.j}) out of range for n={n}")
        for entry in self.memory_kernels:
            k_entry = K[entry.i, entry.j]
            if abs(entry.spectrum.K - k_entry) > 1e-9 * max(1.0, abs(k_entry)):
                raise DomainError(
                    f"memory kernel at ({entry.i}, {entry.j}) has equilibrium "
                    f"{entry.spectrum.K}, stiffness entry is {k_entry}")
        for spring in self.nonlinear_springs:
            if not (0 <= spring.i < n and (spring.j is None or 0 <= spring.j < n)):
                raise DomainError("nonlinear spring endpoint out of range")

    @property
    def n(self) -> int:
        return self.masses.size

    @property
    def damping_active(self) -> bool:
        if self.damping is None:
            return False
        return not (self.memory_kernels and self.kernels_replace_damping)

    def instantaneous_stiffness(self) -> np.ndarray:
        """Stiffness at t = 0+: equilibrium entries plus kernel amplitudes."""
        K0 = self.stiffness.copy()
        for entry in self.memory_kernels:
            K0[entry.i, entry.j] += sum(entry.spectrum.amplitudes)
        return K0

    def max_natural_frequency(self) -> float:
        K0 = self.instantaneous_stiffness()
        K0 = 0.5 * (K0 + K0.T)
        m = self.masses
        A = K0 / np.sqrt(np.outer(m, m))
        w2 = np.linalg.eigvalsh(A)
        return float(np.sqrt(max(w2.max(), 0.0)))

    def stability_bound(self) -> float:
        """Largest stable explicit time step, 2 / omega_max."""
        wmax = self.max_natural_frequency()
        return np.inf if wmax == 0.0 else 2.0 / wmax

    def external_force_at(self, t: float) -> np.ndarray:
        if self.external_force is None:
            return np.zeros(self.n)
        return np.asarray(self.external_force(t), dtype=float)


@dataclass(frozen=True)
class SystemState:
    """Time, displacements, velocities and per-kernel internal variables."""

    time: float
    q: np.ndarray
    v: np.ndarray
    mem_h: tuple[np.ndarray, ...] = ()
    aero_h: tuple[np.ndarray, ...] = ()
    spring_h: tuple[np.ndarray, ...] = ()

    @classmethod
    def initial(cls, system: SpringMassSystem,
                q: np.ndarray | None = None,
                v: np.ndarray | None = None) -> "SystemState":
        n = system.n
        q = np.zeros(n) if q is None else np.asarray(q, dtype=float)
        v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
        if q.shape != (n,) or v.shape != (n,):
            raise DomainError("initial state dimensions do not match the system")
        mem = tuple(np.zeros(len(e.spectrum.amplitudes))
                    for e in system.memory_kernels)
        aero = tuple(np.zeros(len(e.spectrum.amplitudes))
                     for e in system.aero_kernels)
        spr = tuple(np.zeros(len(s.kernel.amplitudes) if s.kernel else 0)
                    for s in system.nonlinear_springs)
        return cls(time=0.0, q=q, v=v, mem_h=mem, aero_h=aero, spring_h=spr)


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    elastic: float
    external_work: float
    dissipation: float

    @property
    def mechanical(self) -> float:
        return self.kinetic + self.elastic


def _kernel_force(system, entries, h_list, q):
    """Force vector from kernel entries: equilibrium part plus internal
    variables (the equilibrium part uses the entry's own K coefficient)."""
    n = system.n
    f = np.zeros(n)
    for entry, h in zip(entries, h_list):
        f[entry.i] += entry.spectrum.K * q[entry.j] + h.sum()
    return f


def _spring_forces(system, state, q):
    """Generalized forces of the nonlinear springs (restoring sign)."""
    f = np.zeros(system.n)
    for spring, h in zip(system.nonlinear_springs, state.spring_h):
        if spring.kernel is None:
            tension = spring.elastic_force(q)
        else:
            tension = spring.kernel.K * spring.elastic_force(q) + h.sum()
        f[spring.i] += tension
        if spring.j is not None:
            f[spring.j] -= tension
    return f


def _internal_force(system, state, q):
    """Total configuration-dependent internal force (opposing motion)."""
    f = system.stiffness @ q
    if system.memory_kernels:
        # the equilibrium part of every kernel entry is already in K @ q;
        # add only the exponential internal variables
        for entry, h in zip(system.memory_kernels, state.mem_h):
            f[entry.i] += h.sum()
    f += _spring_forces(system, state, q)
    return f


def _aero_force(system, state, q):
    if not system.aero_kernels:
        return np.zeros(system.n)
    return _kernel_force(system, system.aero_kernels, state.aero_h, q)


def step(system: SpringMassSystem, state: SystemState, dt: float,
         check_dt: bool = True) -> SystemState:
    """Advance one velocity-Verlet step.

    Internal variables of all kernels are updated with the exact exponential
    recursion over the step.  Velocity-proportional damping is handled
    implicitly in the velocity update so the dissipative case stays stable.
    """
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if check_dt:
        bound = system.stability_bound()
        if dt >= bound:
            raise DomainError(
                f"dt = {dt} violates the explicit stability bound "
                f"2/omega_max = {bound}")
    m = system.masses
    t = state.time
    q, v = state.q, state.v

    f0 = (system.external_force_at(t) + _aero_force(system, state, q)
          - _internal_force(system, state, q))
    if system.damping_active:
        f0 = f0 - system.damping @ v
    a0 = f0 / m

    v_half = v + 0.5 * dt * a0
    q_new = q + dt * v_half
    dq = q_new - q

    mem_h = tuple(prony_step(e.spectrum, h, dt, dq[e.j])
                  for e, h in zip(system.memory_kernels, state.mem_h))
    aero_h = tuple(prony_step(e.spectrum, h, dt, dq[e.j])
                   for e, h in zip(system.aero_kernels, state.aero_h))
    spring_h = tuple(
        h if s.kernel is None else prony_step(
            s.kernel, h, dt, s.elastic_force(q_new) - s.elastic_force(q))
        for s, h in zip(system.nonlinear_springs, state.spring_h))
    mid = replace(state, mem_h=mem_h, aero_h=aero_h, spring_h=spring_h)

    f1 = (system.external_force_at(t + dt) + _aero_force(system, mid, q_new)
          - _internal_force(system, mid, q_new))
    if system.damping_active:
        # (M + dt/2 beta) v_new = M v_half + dt/2 f1
        A = np.diag(m) + 0.5 * dt * system.damping
        v_new = np.linalg.solve(A, m * v_half + 0.5 * dt * f1)
    else:
        v_new = v_half + 0.5 * dt * f1 / m

    return SystemState(time=t + dt, q=q_new, v=v_new,
                       mem_h=mem_h, aero_h=aero_h, spring_h=spring_h)


@dataclass(frozen=True)
class SimulationResult:
    """Recorded samples: states and energy bookkeeping per record."""

    times: np.ndarray
    q: np.ndarray                 # (n_records, n)
    v: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    external_work: np.ndarray
    dissipation: np.ndarray
    final_state: SystemState

    def energy_report(self, index: int = -1) -> EnergyReport:
        return EnergyReport(kinetic=float(self.kinetic[index]),
                            elastic=float(self.elastic[index]),
                            external_work=float(self.external_work[index]),
                            dissipation=float(self.dissipation[index]))


def simulate(system: SpringMassSystem, state: SystemState,
             duration: float, dt: float,
             record_stride: int = 1) -> SimulationResult:
    """Fixed-step loop over :func:`step` with energy accounting.

    External work and dissipation are accumulated per step with midpoint
    (trapezoidal) force averaging.  Records are taken every
    ``record_stride`` steps, always including the initial and final states.
    """
    if duration < 0:
        raise DomainError(f"duration must be >= 0, got {duration}")
    if record_stride < 1:
        raise DomainError(f"record_stride must be >= 1, got {record_stride}")
    n_steps = int(round(duration / dt)) if duration > 0 else 0
    if duration > 0 and n_steps == 0:
        n_steps = 1
    if n_steps > 0:
        bound = system.stability_bound()
        if dt >= bound:
            raise DomainError(
                f"dt = {dt} violates the explicit stability bound "
                f"2/omega_max = {bound}")

    m = system.masses
    K = system.stiffness

    def kinetic(v):
        return 0.5 * float(np.dot(m, v * v))

    def elastic(q):
        return 0.5 * float(q @ K @ q)

    def noncons_force(st):
        """Forces that do not derive from the quadratic elastic energy."""
        f = np.zeros(system.n)
        for entry, h in zip(system.memory_kernels, st.mem_h):
            f[entry.i] += h.sum()
        if system.damping_active:
            f += system.damping @ st.v
        return f

    rec_t, rec_q, rec_v = [], [], []
    rec_k, rec_u, rec_w, rec_d = [], [], [], []
    work = 0.0
    diss = 0.0

    def record(st):
        rec_t.append(st.time)
        rec_q.append(st.q.copy())
        rec_v.append(st.v.copy())
        rec_k.append(kinetic(st.v))
        rec_u.append(elastic(st.q))
        rec_w.append(work)
        rec_d.append(diss)

    record(state)
    current = state
    for i in range(n_steps):
        f_ext0 = system.external_force_at(current.time)
        nc0 = noncons_force(current)
        nxt = step(system, current, dt, check_dt=False)
        dq = nxt.q - current.q
        f_ext1 = system.external_force_at(nxt.time)
        nc1 = noncons_force(nxt)
        aero0 = _aero_force(system, current, current.q)
        aero1 = _aero_force(system, nxt, nxt.q)
        work += float(np.dot(0.5 * (f_ext0 + f_ext1) + 0.5 * (aero0 + aero1), dq))
        diss += float(np.dot(0.5 * (nc0 + nc1), dq))
        current = nxt
        if (i + 1) % record_stride == 0 or i == n_steps - 1:
            record(current)

    return SimulationResult(times=np.asarray(rec_t),
                            q=np.asarray(rec_q), v=np.asarray(rec_v),
                            kinetic=np.asarray(rec_k),
                            elastic=np.asarray(rec_u),
                            external_work=np.asarray(rec_w),
                            dissipation=np.asarray(rec_d),
                            final_state=current)
