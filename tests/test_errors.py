"""The one bound rule: check_bounds, and every field that states its bound
through it."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from qlvsim.constitutive import (BiaxialStrainState, ExponentialTensileLaw,
                                 FungBiaxialParams, LinearElasticLaw)
from qlvsim.errors import DomainError, check_bounds
from qlvsim.kernels import (SIZE_BUDGET, FungSpectrum, KelvinParams,
                            MaxwellParams, PronySpectrum, VoigtParams)
from qlvsim.network import NonlinearSpring
from qlvsim.protocols import ProtocolSpec

LAW = ExponentialTensileLaw(B=1.0, C=1.0)
CYCLIC = ProtocolSpec(kind="cyclic", amplitude=0.05, mean=0.25,
                      angular_frequency=1.0, cycles=2, samples_per_cycle=16)
TENSILE = ProtocolSpec(kind="tensile", duration=1.0, dt=0.1,
                       stretch_rate=0.1)
CREEP = ProtocolSpec(kind="creep", duration=1.0, dt=0.1, hold_stress=1.0)
RELAXATION = ProtocolSpec(kind="relaxation", duration=1.0, dt=0.1,
                          hold_strain=0.1)

FUNG_FREE = ("alpha1", "alpha2", "alpha3", "alpha4", "a4",
             "gamma1", "gamma2", "gamma3", "gamma4", "gamma5")

# (a valid instance, a bounded field, its low bound or None, strict)
FIELDS = [
    *[(ExponentialTensileLaw(B=1.0, C=1.0), name, 0, True)
      for name in ("B", "C")],
    (LinearElasticLaw(k=1.0), "k", 0, True),
    *[(BiaxialStrainState(0.1, 0.2, 0.3), name, None, True)
      for name in ("E11", "E22", "E12")],
    *[(FungBiaxialParams(a1=1.0, a2=1.0, a3=1.0, c=1.0), name, None, True)
      for name in FUNG_FREE],
    *[(FungBiaxialParams(a1=1.0, a2=1.0, a3=1.0, c=1.0), name, 0, False)
      for name in ("c", "a1", "a2", "a3")],
    *[(element(mu=1.0, eta=1.0), name, 0, True)
      for element in (MaxwellParams, VoigtParams) for name in ("mu", "eta")],
    *[(KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5), name, 0, True)
      for name in ("E_R", "tau_eps")],
    (PronySpectrum(K=1.0), "K", None, True),
    *[(FungSpectrum(c=0.5, q1=0.01, q2=100.0), name, 0, True)
      for name in ("c", "q1")],
    (NonlinearSpring(i=0, j=None, law=LAW), "rest_length", 0, True),
    *[(CYCLIC, name, 0, True)
      for name in ("amplitude", "angular_frequency")],
    (CYCLIC, "mean", 0, False),
    (CYCLIC, "cycles", 1, False),
    (CYCLIC, "samples_per_cycle", 2, False),
    (TENSILE, "stretch_rate", 0, True),
    (CREEP, "hold_stress", None, True),
    (RELAXATION, "hold_strain", None, True),
]
IDS = [f"{type(owner).__name__}.{name}"
       + (f"-{owner.kind}" if isinstance(owner, ProtocolSpec) else "")
       for owner, name, _, _ in FIELDS]


class TestCheckBounds:
    def test_first_named_field_that_fails(self):
        owner = SimpleNamespace(x=1.0, y=math.nan, z=-1.0)
        with pytest.raises(DomainError, match="^y must be finite"):
            check_bounds(owner, "x", "y", "z", low=0)

    def test_an_int_is_compared_as_an_int(self):
        # math.isfinite(10**400) raises OverflowError
        check_bounds(SimpleNamespace(n=10 ** 400), "n", low=1, strict=False)
        with pytest.raises(DomainError, match="^n must be > 0, got -1000"):
            check_bounds(SimpleNamespace(n=-10 ** 400), "n", low=0)


class TestEveryBoundedField:
    """Each field rejects NaN, +inf and -inf, and its bound (the bound
    itself when strict, one below it when not), with a DomainError that
    names it; the bound itself is accepted when not strict."""

    @pytest.mark.parametrize("owner, name, low, strict", FIELDS, ids=IDS)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_not_finite(self, owner, name, low, strict, x):
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite, got {x!r}$"):
            replace(owner, **{name: x})

    @pytest.mark.parametrize("owner, name, low, strict",
                             [f for f in FIELDS if f[2] is not None],
                             ids=[i for i, f in zip(IDS, FIELDS)
                                  if f[2] is not None])
    def test_bound(self, owner, name, low, strict):
        x = low if strict else low - 1
        sign = ">" if strict else ">="
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be {sign} {low}, got {x}")):
            replace(owner, **{name: x})
        if not strict:
            replace(owner, **{name: low})

    def test_401_digit_cycles_fail_the_size_budget(self):
        with pytest.raises(DomainError, match=re.escape(
                f"cycles*samples_per_cycle must be <= {SIZE_BUDGET}")):
            replace(CYCLIC, cycles=10 ** 400)
