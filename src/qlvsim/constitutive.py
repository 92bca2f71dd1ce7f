"""Nonlinear elastic stress-strain laws for soft tissue.

Two families are provided: the exponential uniaxial law (stiffening slope
proportional to stress) and exponential strain-energy functions for the
biaxial membrane case, together with the second Piola-Kirchhoff stresses
obtained by differentiating the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# exp() overflows float64 near 709.78; reject a bit earlier
_EXP_ARG_MAX = 700.0


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ExponentialTensileLaw:
    """Uniaxial law with stress slope dT/dstretch = B*T + C.

    ``B`` is dimensionless, ``C`` carries stress units. Both must be
    positive.
    """

    B: float
    C: float

    def __post_init__(self):
        _check_finite("B", self.B)
        _check_finite("C", self.C)
        if self.B <= 0:
            raise DomainError(f"B must be > 0, got {self.B}")
        if self.C <= 0:
            raise DomainError(f"C must be > 0, got {self.C}")

    def stress(self, lam):
        return tensile_stress(self, lam)

    def stress_green(self, E):
        """Nominal stress as a function of uniaxial Green strain."""
        E = np.asarray(E, dtype=float)
        _check_finite("green strain", E)
        if np.any(E < -0.5):
            raise DomainError(f"Green strain must be >= -0.5, got min {E.min()}")
        lam = np.sqrt(2.0 * E + 1.0)
        return tensile_stress(self, lam)

    def stretch_at_stress(self, T):
        """Inverse of :meth:`stress`; valid for T > -C/B."""
        T = np.asarray(T, dtype=float)
        if np.any(T <= -self.C / self.B):
            raise DomainError(f"stress {float(T.min())} outside the range "
                              f"of the law")
        out = 1.0 + np.log(self.B * T / self.C + 1.0) / self.B
        return float(out) if out.ndim == 0 else out

    def green_at_stress(self, T):
        """Inverse of :meth:`stress_green`, in closed form."""
        return green_strain(self.stretch_at_stress(T))


@dataclass(frozen=True)
class LinearElasticLaw:
    """Stress proportional to Green strain, T = k * E."""

    k: float

    def __post_init__(self):
        _check_finite("k", self.k)
        if self.k <= 0:
            raise DomainError(f"k must be > 0, got {self.k}")

    def stress_green(self, E):
        E = np.asarray(E, dtype=float)
        _check_finite("green strain", E)
        return self.k * E

    def green_at_stress(self, T):
        T = np.asarray(T, dtype=float)
        _check_finite("stress", T)
        return T / self.k


@dataclass(frozen=True)
class GreenStrainUniaxial:
    """Uniaxial Green strain; bounded below by -1/2 (stretch -> 0)."""

    value: float

    def __post_init__(self):
        _check_finite("green strain", self.value)
        if self.value < -0.5:
            raise DomainError(f"Green strain must be >= -0.5, got {self.value}")


@dataclass(frozen=True)
class BiaxialStrainState:
    """Biaxial Green strain components; the shear slots are symmetric,
    so a single E12 value stands for both off-diagonal components."""

    E11: float
    E22: float
    E12: float = 0.0

    def __post_init__(self):
        for name in ("E11", "E22", "E12"):
            _check_finite(name, getattr(self, name))

    @property
    def E21(self) -> float:
        return self.E12


@dataclass(frozen=True)
class BiaxialStressState:
    """Second Piola-Kirchhoff stress components of a biaxial state."""

    S11: float
    S22: float
    S12: float


@dataclass(frozen=True)
class FungBiaxialParams:
    """Parameters of the biaxial exponential strain-energy density.

    The energy is the sum of an optional quadratic group
    ``(alpha1*E11^2 + alpha2*E22^2 + 2*alpha3*E12^2 + 2*alpha4*E11*E22)/2``
    and an exponential group ``(c/2)*exp(Q)`` where Q is a quadratic
    (optionally cubic) form of the strain with coefficients a1..a4 and
    gamma1..gamma5.

    The exponent's quadratic form must be positive semidefinite
    (a1, a2, a3 >= 0 and a1*a2 - a4^2 >= 0) so the energy stays bounded
    on the working strain range.  When ``include_third_order`` is false
    the gamma coefficients are stored as zero.
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0
    gamma4: float = 0.0
    gamma5: float = 0.0
    c: float = 0.0
    include_quadratic_group: bool = True
    include_third_order: bool = False

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4",
                     "a1", "a2", "a3", "a4",
                     "gamma1", "gamma2", "gamma3", "gamma4", "gamma5", "c"):
            _check_finite(name, getattr(self, name))
        if self.c < 0:
            raise DomainError(f"c must be >= 0, got {self.c}")
        if self.a1 < 0 or self.a2 < 0 or self.a3 < 0:
            raise DomainError("exponent coefficients a1, a2, a3 must be >= 0")
        if self.a1 * self.a2 - self.a4 ** 2 < 0:
            raise DomainError(
                "exponent quadratic form must be positive semidefinite: "
                f"a1*a2 - a4^2 = {self.a1 * self.a2 - self.a4 ** 2} < 0")
        if not self.include_third_order:
            for name in ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5"):
                object.__setattr__(self, name, 0.0)


# each elastic law by its name in configs; the fields of a type are its
# parameters, and a Fung law is given by its biaxial parameters
ELASTIC_TYPES = {"exponential": ExponentialTensileLaw,
                 "linear": LinearElasticLaw, "fung": FungBiaxialParams}


def tensile_stress(law: ExponentialTensileLaw, lam):
    """Nominal stress of the exponential law, T = (C/B)*(exp(B*(lam-1)) - 1)."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise DomainError(f"stretch must be finite, got {lam!r}")
    if np.any(lam <= 0):
        raise DomainError(f"stretch must be > 0, got min {lam.min()}")
    arg = law.B * (lam - 1.0)
    if np.any(arg > _EXP_ARG_MAX):
        raise DomainError(
            f"exponent B*(lambda-1) = {float(np.max(arg))} overflows; "
            f"offending stretch {float(lam if lam.ndim == 0 else lam.max())}")
    out = (law.C / law.B) * np.expm1(arg)
    return float(out) if out.ndim == 0 else out


def tensile_slope(law: ExponentialTensileLaw, lam):
    """Stress slope dT/dstretch = B*T + C of the exponential law."""
    T = tensile_stress(law, lam)
    return law.B * T + law.C


def green_strain(lam):
    """Uniaxial Green strain E = (lam^2 - 1)/2."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise DomainError(f"stretch must be finite, got {lam!r}")
    if np.any(lam <= 0):
        raise DomainError(f"stretch must be > 0, got min {lam.min()}")
    out = 0.5 * (lam ** 2 - 1.0)
    return float(out) if out.ndim == 0 else out


def _exponent_q(p: FungBiaxialParams, s: BiaxialStrainState) -> float:
    e11, e22, e12 = s.E11, s.E22, s.E12
    q = (p.a1 * e11 ** 2 + p.a2 * e22 ** 2 + 2.0 * p.a3 * e12 ** 2
         + 2.0 * p.a4 * e11 * e22)
    if p.include_third_order:
        q += (p.gamma1 * e11 ** 3 + p.gamma2 * e22 ** 3
              + p.gamma4 * e11 ** 2 * e22 + p.gamma5 * e11 * e22 ** 2)
    return q


def fung_energy(params: FungBiaxialParams, strain: BiaxialStrainState) -> float:
    """Strain-energy density: quadratic group plus (c/2)*exp(Q)."""
    e11, e22, e12 = strain.E11, strain.E22, strain.E12
    w = 0.0
    if params.include_quadratic_group:
        w += 0.5 * (params.alpha1 * e11 ** 2 + params.alpha2 * e22 ** 2
                    + 2.0 * params.alpha3 * e12 ** 2
                    + 2.0 * params.alpha4 * e11 * e22)
    q = _exponent_q(params, strain)
    if q > _EXP_ARG_MAX:
        raise DomainError(f"energy exponent Q = {q} overflows")
    w += 0.5 * params.c * math.exp(q)
    return w


def fung_stress(params: FungBiaxialParams,
                strain: BiaxialStrainState) -> BiaxialStressState:
    """Second Piola-Kirchhoff stresses, the gradient of :func:`fung_energy`.

    The two symmetric shear slots are tied (E21 = E12), so S12 is the
    derivative with respect to the single stored E12 value and aggregates
    both slots.
    """
    e11, e22, e12 = strain.E11, strain.E22, strain.E12
    q = _exponent_q(params, strain)
    if q > _EXP_ARG_MAX:
        raise DomainError(f"energy exponent Q = {q} overflows")
    x = math.exp(q)

    dq11 = 2.0 * params.a1 * e11 + 2.0 * params.a4 * e22
    dq22 = 2.0 * params.a2 * e22 + 2.0 * params.a4 * e11
    dq12 = 4.0 * params.a3 * e12
    if params.include_third_order:
        dq11 += (3.0 * params.gamma1 * e11 ** 2
                 + 2.0 * params.gamma4 * e11 * e22 + params.gamma5 * e22 ** 2)
        dq22 += (3.0 * params.gamma2 * e22 ** 2
                 + params.gamma4 * e11 ** 2 + 2.0 * params.gamma5 * e11 * e22)

    s11 = 0.5 * params.c * x * dq11
    s22 = 0.5 * params.c * x * dq22
    s12 = 0.5 * params.c * x * dq12
    if params.include_quadratic_group:
        s11 += params.alpha1 * e11 + params.alpha4 * e22
        s22 += params.alpha4 * e11 + params.alpha2 * e22
        s12 += 2.0 * params.alpha3 * e12
    return BiaxialStressState(S11=s11, S22=s22, S12=s12)


@dataclass(frozen=True)
class FungUniaxialLaw:
    """Biaxial energy specialized to uniaxial stretch (E22 = E12 = 0)."""

    params: FungBiaxialParams

    def stress_green(self, E):
        E = np.asarray(E, dtype=float)
        _check_finite("green strain", E)
        out = self._stress_and_slope(E)[0]
        return float(out) if out.ndim == 0 else out

    def _stress_and_slope(self, E: np.ndarray):
        """S11 of :func:`fung_stress` and dS11/dE11 at E22 = E12 = 0."""
        p = self.params
        q = p.a1 * E ** 2 + p.gamma1 * E ** 3
        if np.any(q > _EXP_ARG_MAX):
            raise DomainError(f"energy exponent Q = {float(q.max())} overflows")
        half_cx = 0.5 * p.c * np.exp(q)
        dq = 2.0 * p.a1 * E + 3.0 * p.gamma1 * E ** 2
        s = half_cx * dq
        ds = half_cx * (dq * dq + 2.0 * p.a1 + 6.0 * p.gamma1 * E)
        if p.include_quadratic_group:
            s = s + p.alpha1 * E
            ds = ds + p.alpha1
        return s, ds

    def green_at_stress(self, T):
        """Inverse of :meth:`stress_green` on E >= -1/2.

        Each stress is bracketed between -1/2 and an upper bound doubled
        from 0.1, then solved by Newton's method with the analytic slope,
        bisecting whenever a Newton step would leave the bracket.
        """
        T = np.asarray(T, dtype=float)
        _check_finite("stress", T)
        scalar = T.ndim == 0
        T = np.atleast_1d(T)
        lo, hi = np.full(T.shape, -0.5), np.full(T.shape, 0.1)
        if np.any(self._stress_and_slope(lo)[0] > T):
            raise DomainError(f"stress {float(T.min())} is below the range "
                              f"of the law on E >= -1/2")
        for _ in range(60):
            short = self._stress_and_slope(hi)[0] < T
            if not np.any(short):
                break
            lo = np.where(short, hi, lo)
            hi = np.where(short, 2.0 * hi, hi)
        else:
            raise DomainError(f"stress {float(T.max())} is above the range "
                              f"of the law")
        E = 0.5 * (lo + hi)
        for _ in range(100):
            s, ds = self._stress_and_slope(E)
            lo = np.where(s <= T, E, lo)
            hi = np.where(s >= T, E, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = E - (s - T) / ds
            nxt = np.where((newton > lo) & (newton < hi), newton,
                           0.5 * (lo + hi))
            done = np.all(np.abs(nxt - E) <= 4e-16 * np.abs(E))
            E = nxt
            if done:
                break
        return float(E[0]) if scalar else E


def uniaxial_pk2_from_load(F: float, lam: float, A0: float) -> float:
    """Second Piola-Kirchhoff stress from load: S = F / (lam * A0)."""
    _check_finite("F", F)
    _check_finite("lam", lam)
    if A0 <= 0 or not np.isfinite(A0):
        raise DomainError(f"reference area A0 must be > 0, got {A0}")
    if lam <= 0:
        raise DomainError(f"stretch must be > 0, got {lam}")
    return F / (lam * A0)
