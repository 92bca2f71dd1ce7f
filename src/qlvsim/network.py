"""Viscoelastic spring-mass network.

Dense stiffness/flexibility formulation with leading-minor stability
screening, and velocity-Verlet time integration of the equations of motion
with optional viscous damping, per-entry fading-memory kernels, per-entry
aerodynamic influence kernels, and per-connection nonlinear springs.

The Prony terms of all kernels are stacked into one spectrum whose
internal variables start at zero (quiescent at t = 0) and advance with the
decay and gain of :func:`qlvsim.kernels.prony_step`, exact for inputs
linear in time over each step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import _EXP_ARG_MAX, ExponentialTensileLaw
from .errors import (DomainError, NumericalError, StabilityError, check_bounds,
                     check_range)
from .kernels import SIZE_BUDGET, PronySpectrum, grid_steps, prony_step


@dataclass(frozen=True)
class StabilityResult:
    passed: bool
    first_failing_minor: int | None = None
    minor_value: float | None = None


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
    if not check.passed:
        raise StabilityError(
            f"stiffness matrix is not positive definite: leading minor "
            f"{check.first_failing_minor} is {check.minor_value}",
            minor_index=check.first_failing_minor)
    from scipy.linalg import cho_factor, cho_solve  # lazy: 0.2-0.3 s to import
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

    def __post_init__(self):
        check_bounds(self, "i", "j", low=0, strict=False, integer=True)


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
        ends = ("i",) if self.j is None else ("i", "j")
        check_bounds(self, *ends, low=0, strict=False, integer=True)
        check_bounds(self, "rest_length", low=0)
        if self.kernel is not None and abs(self.kernel.at_zero - 1.0) > 1e-9:
            raise DomainError("nonlinear-spring kernel must be normalized")

    def elongation(self, q: np.ndarray) -> float:
        return float(q[self.i] - (0.0 if self.j is None else q[self.j]))

    def elastic_force(self, q: np.ndarray) -> float:
        lam = 1.0 + self.elongation(q) / self.rest_length
        return self.law.stress(lam)


@dataclass(frozen=True)
class _Stack:
    """Every Prony term of a system in one flat spectrum, the maps from
    terms and springs to force rows, and the springs' laws.

    The owners of the terms are the memory entries, the relaxing springs
    and the aero entries, in that order.  Term k belongs to owner
    ``owner[k]`` and is driven by the increment of z[source[k]], where z
    is q followed by the springs' elastic forces (:meth:`drives`).  An
    owner's force is the sum of its terms' internal variables (plus K q[j]
    for aero entries), applied at its ``ends`` row pair, and a spring's,
    times its scale, at ``spring_ends``; a ground end is the slot after z,
    which holds 0.  ``rows`` are the bins of one bincount of them all: a
    block of n + 1 each for memory, aero and springs, n the ground's.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    owner: np.ndarray
    source: np.ndarray
    ends: np.ndarray             # (owners, 2)
    n_internal: int              # owners before the aero entries
    aero_K: np.ndarray
    aero_j: np.ndarray
    springs: tuple
    spring_ends: np.ndarray      # (springs, 2)
    spring_columns: tuple        # arrays: i, j, rest length, B, C/B
    spring_scale: np.ndarray     # equilibrium fraction of each spring's force
    rows: np.ndarray             # ends, then spring_ends, as bincount bins

    @classmethod
    def of(cls, system: "SpringMassSystem") -> "_Stack":
        n, K = system.n, system.stiffness
        mem, aero = system.memory_kernels, system.aero_kernels
        springs = system.nonlinear_springs
        index = np.array([(e.i, e.j) for e in mem + aero] + [
            (s.i, -1 if s.j is None else s.j) for s in springs],
            dtype=int).reshape(-1, 2)           # -1: a spring's ground end
        if (top := index.max(initial=-1)) >= n:
            raise DomainError(f"network index {top} out of range for n={n}")
        ij, spring_ends = np.split(index, [len(mem) + len(aero)])
        spring_ends[spring_ends < 0] = n + len(springs)     # the ground slot
        k_mem = K[ij[:len(mem), 0], ij[:len(mem), 1]]
        equilibrium = np.array([e.spectrum.K for e in mem])
        bad = np.flatnonzero(np.abs(equilibrium - k_mem)
                             > 1e-9 * np.maximum(1.0, np.abs(k_mem)))
        if bad.size:
            e = mem[bad[0]]
            raise DomainError(
                f"memory kernel at ({e.i}, {e.j}) has equilibrium "
                f"{e.spectrum.K}, stiffness entry is {k_mem[bad[0]]}")
        relaxing = [k for k, s in enumerate(springs) if s.kernel is not None]
        spectra = ([e.spectrum for e in mem]
                   + [springs[k].kernel for k in relaxing]
                   + [e.spectrum for e in aero])
        sources = ([e.j for e in mem] + [n + k for k in relaxing]
                   + [e.j for e in aero])
        ends = np.array([(e.i, n) for e in mem]
                        + [spring_ends[k] for k in relaxing]
                        + [(e.i, n) for e in aero], dtype=int).reshape(-1, 2)
        sizes = [len(s.amplitudes) for s in spectra]
        k = len(mem) + len(relaxing)
        blocks = enumerate((ends[:k], ends[k:], spring_ends))
        return cls(
            amplitudes=np.array([a for s in spectra for a in s.amplitudes]),
            frequencies=np.array([f for s in spectra for f in s.frequencies]),
            owner=np.repeat(np.arange(len(spectra)), sizes),
            source=np.repeat(np.array(sources, dtype=int), sizes),
            ends=ends,
            n_internal=k,
            aero_K=np.array([e.spectrum.K for e in aero]),
            aero_j=ij[len(mem):, 1],
            springs=springs,
            spring_ends=spring_ends,
            spring_columns=(*spring_ends.T.copy(), *np.array(
                [(s.rest_length, s.law.B, s.law.C / s.law.B)
                 for s in springs]).reshape(-1, 3).T.copy()),
            spring_scale=np.array([1.0 if s.kernel is None else s.kernel.K
                                   for s in springs]),
            rows=np.concatenate([np.minimum(e, n).ravel() + b * (n + 1)
                                 for b, e in blocks]))

    def drives(self, q: np.ndarray, t: float) -> np.ndarray:
        """z at ``t``: q, then every spring's elastic force in one expression,
        in a fresh array; the first faulty spring raises, named with ``t``."""
        if not self.springs:
            return q
        n = q.size
        z = np.empty(n + len(self.springs) + 1)
        z[:n], z[-1] = q, 0.0
        i, j, length, B, c = self.spring_columns
        with np.errstate(over="ignore", invalid="ignore"):
            lam = 1.0 + (z[i] - z[j]) / length
            arg = B * (lam - 1.0)
            force = np.multiply(c, np.expm1(arg), out=z[n:-1])
        if not (lam.min() > 0 and arg.max() <= _EXP_ARG_MAX
                and np.isfinite(force).all()):
            for k, s in enumerate(self.springs):
                try:
                    force[k] = s.elastic_force(q)
                except (DomainError, FloatingPointError) as exc:
                    end = "ground" if s.j is None else s.j
                    raise type(exc)(f"spring ({s.i}, {end}) at t = {t:g}: "
                                    f"{exc}") from exc
        return z[:-1]


def _top_eig(X: np.ndarray, root_m: np.ndarray, name: str) -> float:
    """lambda_max of M^-1/2 X_sym M^-1/2, X_sym the symmetric part of X,
    or 0 if it is negative."""
    with np.errstate(over="ignore"):
        A = (0.5 * X + 0.5 * X.T) / np.outer(root_m, root_m)
    if not np.all(np.isfinite(A)):
        raise DomainError(f"masses and {name} are too ill-scaled for a "
                          "finite stability bound")
    return max(float(np.linalg.eigvalsh(A).max()), 0.0)


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
    _stack: _Stack = field(init=False, repr=False, compare=False)
    _dt_bound: float = field(init=False, repr=False, compare=False)
    _dt_rate: str = field(init=False, repr=False, compare=False)
    _solves: dict = field(init=False, repr=False, compare=False,
                          default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        K = np.asarray(self.stiffness, dtype=float)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "stiffness", K)
        for name in ("memory_kernels", "aero_kernels", "nonlinear_springs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = m.size
        check_range("masses", m, low=0)
        if K.shape != (n, n):
            raise DomainError(f"stiffness must be {n}x{n}, got {K.shape}")
        check_range("stiffness", K)
        scale = max(1.0, float(np.abs(K).max())) if K.size else 1.0
        if not np.allclose(K, K.T, rtol=0.0, atol=1e-12 * scale):
            raise DomainError("stiffness matrix must be symmetric")
        if self.damping is not None:
            beta = np.asarray(self.damping, dtype=float)
            object.__setattr__(self, "damping", beta)
            if beta.shape != (n, n):
                raise DomainError(f"damping must be {n}x{n}, got {beta.shape}")
            check_range("damping", beta)
        st = _Stack.of(self)
        object.__setattr__(self, "_stack", st)
        # the stiffness at t = 0+: equilibrium entries, memory amplitudes,
        # each spring's tangent C/L at rest and the aero entries, with the
        # sign each has in the force; row and column n take ground ends
        K0 = np.zeros((n + 1, n + 1))
        K0[:n, :n] = K
        for terms, sign in ((st.owner < len(self.memory_kernels), 1.0),
                            (st.owner >= st.n_internal, -1.0)):
            np.add.at(K0, (st.ends[st.owner[terms], 0], st.source[terms]),
                      sign * st.amplitudes[terms])
        np.add.at(K0, (st.ends[st.n_internal:, 0], st.aero_j), -st.aero_K)
        e = np.minimum(st.spring_ends, n)
        np.add.at(K0, (e[:, [0, 1, 0, 1]], e[:, [0, 1, 1, 0]]), np.outer(
            [s.law.C / s.rest_length for s in self.nonlinear_springs],
            [1.0, 1.0, -1.0, -1.0]))
        # omega_max and lambda_d, the explicit first half-step's damping rate
        root_m = np.sqrt(m)
        damp = (_top_eig(self.damping, root_m, "damping")
                if self.damping_active else 0.0)
        omega = math.sqrt(_top_eig(K0[:n, :n], root_m, "stiffness"))
        rate, name = max((omega, "omega_max"), (damp, "lambda_d"))
        object.__setattr__(self, "_dt_bound",
                           np.inf if rate == 0.0 else 2.0 / rate)
        object.__setattr__(self, "_dt_rate", name)

    @property
    def n(self) -> int:
        return self.masses.size

    @property
    def damping_active(self) -> bool:
        return self.damping is not None and not (
            self.memory_kernels and self.kernels_replace_damping)

    def stability_bound(self) -> float:
        """Largest stable explicit time step, 2 / max(omega_max, the damping
        rate), both of the system at rest."""
        return self._dt_bound

    def check_time_step(self, dt: float):
        """DomainError unless ``dt`` is below the stability bound; then the
        damped update's solve for ``dt``, :func:`_damped_solve` of M + dt/2
        beta made once per ``dt``, or None when no damping acts."""
        if dt >= self._dt_bound:
            raise DomainError(
                f"dt = {dt} violates the explicit stability bound "
                f"2/{self._dt_rate} = {self._dt_bound}")
        if self.damping_active and dt not in self._solves:
            with np.errstate(over="ignore"):    # _damped_solve rejects inf
                self._solves[dt] = _damped_solve(
                    np.diag(self.masses) + 0.5 * dt * self.damping)
        return self._solves.get(dt)

    def external_force_at(self, t: float) -> np.ndarray:
        return (np.zeros(self.n) if self.external_force is None
                else np.asarray(self.external_force(t), dtype=float))


@dataclass(frozen=True)
class SystemState:
    """Time, displacements, velocities and the internal variables of every
    Prony term of the system, stacked."""

    time: float
    q: np.ndarray
    v: np.ndarray
    h: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def initial(cls, system: SpringMassSystem,
                q: np.ndarray | None = None,
                v: np.ndarray | None = None) -> "SystemState":
        n = system.n
        q = np.zeros(n) if q is None else np.asarray(q, dtype=float)
        v = np.zeros(n) if v is None else np.asarray(v, dtype=float)
        if q.shape != (n,) or v.shape != (n,):
            raise DomainError("initial state dimensions do not match the system")
        return cls(time=0.0, q=q, v=v,
                   h=np.zeros(system._stack.amplitudes.size))


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


def steps_and_records(n: int, duration: float, dt: float,
                      stride: int) -> tuple[int, int]:
    """Steps and record-table rows of a :func:`simulate` run of ``n``
    masses: a record of the first state, of every ``stride``-th step and of
    the last.  The steps come from :func:`grid_steps`, and the rows times
    the 2n + 5 columns are checked against SIZE_BUDGET."""
    n_steps = grid_steps(duration, dt)
    rows = 1 + n_steps // stride + (n_steps % stride > 0)
    if rows * (2 * n + 5) > SIZE_BUDGET:
        raise DomainError(f"records x columns must be <= {SIZE_BUDGET}, "
                          f"got {rows} x {2 * n + 5}")
    return n_steps, rows


def _damped_solve(A: np.ndarray):
    """b -> A^-1 b with the bits of LAPACK getrs on getrf's factors of A.

    getrs on a diagonal A divides b by the diagonal, but it may turn a -0.0
    in b (only an underflowing run makes one) into +0.0.  So only another
    A, or such a b, imports scipy.linalg (0.2-0.3 s) and factors A, once.
    """
    @functools.cache
    def lu():
        from scipy.linalg import get_lapack_funcs
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (A,))
        factors, piv, _ = getrf(A)
        return np.diag(factors), lambda b: getrs(factors, piv, b)[0]

    if not np.isfinite(A).all():    # dt/2 beta overflowed
        raise DomainError("M + dt/2 beta must be finite")
    d = np.diag(A)
    diagonal = np.count_nonzero(A) == np.count_nonzero(d)
    pivots = d if diagonal else lu()[0]
    if not pivots.all():
        raise DomainError(f"M + dt/2 beta is singular: zero pivot in row "
                          f"{np.argmin(pivots != 0)}")
    if not diagonal:
        return lu()[1]
    return lambda b: (b / d if b.all() or not np.signbit(b[b == 0]).any()
                      else lu()[1](b))


def simulate(system: SpringMassSystem, state: SystemState,
             duration: float, dt: float,
             record_stride: int = 1) -> SimulationResult:
    """Fixed-step velocity-Verlet integration with energy accounting.

    Each step evaluates the configuration-dependent force once, with one
    bincount over ``_Stack.rows``; the next step starts from it.  Damping
    is implicit in the velocity update, (M + dt/2 beta) v_new = M v_half +
    dt/2 f (see :func:`_damped_solve`).  External and aero work, and the
    dissipation of damping, memory kernels and relaxing springs, accumulate
    with trapezoidal force averaging.  Records are taken every
    ``record_stride`` steps, always including the initial and final states,
    into one preallocated table of :func:`steps_and_records` rows; the
    result's arrays are views of its columns.
    """
    check_range("record_stride", record_stride, low=1, strict=False,
                integer=True)
    n_steps, rows = steps_and_records(system.n, duration, dt, record_stride)
    solve = system.check_time_step(dt)
    st = system._stack
    if state.h.shape != st.amplitudes.shape:
        raise DomainError("state internal variables do not match the system")

    n, m, K = system.n, system.masses, system.stiffness
    k, owners, aero_j = st.n_internal, len(st.ends), st.aero_j
    decay, gain = prony_step(st, 1.0, dt, 0.0), prony_step(st, 0.0, dt, 1.0)
    beta = None if solve is None else system.damping
    external = system.external_force_at
    # +- each owner's value, then each spring's force times its scale
    signs = np.multiply.outer(np.append(np.ones(owners), st.spring_scale),
                              (1.0, -1.0)).ravel()
    blocks = [slice(b * (n + 1), b * (n + 1) + n) for b in range(3)]

    def forces(t, z, h):
        """External, aero and memory forces, and the net force without
        damping.  Memory is the internal variables' share of the restoring
        force: that of memory kernels and relaxing springs."""
        q = z[:n]
        owned = np.bincount(st.owner, h, minlength=owners)
        if aero_j.size:
            owned = np.append(owned[:k], st.aero_K * q[aero_j] + owned[k:])
        memory, aero, springs = map(np.bincount(
            st.rows, np.concatenate((owned, z[n:])).repeat(2) * signs,
            minlength=3 * (n + 1)).__getitem__, blocks)
        f_ext = external(t)
        return f_ext, aero, memory, (f_ext + aero) - (K @ q + memory + springs)

    t, q, v, h = state.time, state.q, state.v, state.h
    z = st.drives(q, t)
    f_ext, aero, memory, f = forces(t, z, h)
    damp = 0.0 if beta is None else beta @ v
    work = diss = 0.0
    table = np.empty((rows, 2 * n + 5))   # one row per record, CSV order
    free = iter(table)                      # its rows, filled in turn

    def record():
        energies = [0.5 * float(np.dot(m, v * v)), 0.5 * float(q @ K @ q),
                    work, diss]
        next(free)[:] = np.concatenate(([t], q, v, energies))

    record()
    for i in range(n_steps):
        v_half = v + 0.5 * dt * ((f - damp) / m)
        q_new = q + dt * v_half
        z_new = st.drives(q_new, t + dt)
        h = decay * h + gain * (z_new - z)[st.source]
        f_ext1, aero1, memory1, f1 = forces(t + dt, z_new, h)
        if beta is None:
            v_new = v_half + 0.5 * dt * f1 / m
            damp1 = 0.0
        else:
            v_new = solve(np.asarray_chkfinite(m * v_half + 0.5 * dt * f1))
            damp1 = beta @ v_new
        dq = q_new - q
        work += float(np.dot(0.5 * (f_ext + f_ext1) + (
            0.5 * (aero + aero1) if aero_j.size else 0.0), dq))
        diss += float(np.dot(0.5 * ((memory + damp) + (memory1 + damp1)), dq))
        t, q, v, z = t + dt, q_new, v_new, z_new
        f_ext, aero, memory, f, damp = f_ext1, aero1, memory1, f1, damp1
        if (i + 1) % record_stride == 0 or i == n_steps - 1:
            record()

    return SimulationResult(table[:, 0], table[:, 1:n + 1],
                            table[:, n + 1:2 * n + 1], *table[:, 2 * n + 1:].T,
                            final_state=SystemState(time=t, q=q, v=v, h=h))


def step(system: SpringMassSystem, state: SystemState,
         dt: float) -> SystemState:
    """Advance one velocity-Verlet step: :func:`simulate` over one ``dt``,
    which pays a whole run's setup; loops belong in :func:`simulate`."""
    return simulate(system, state, dt, dt).final_state
