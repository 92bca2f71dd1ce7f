"""The one bound rule: check_range, check_bounds, and every field, argument
and array that states its bound through them."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

import numpy as np

from qlvsim.constitutive import (BiaxialStrainState, ExponentialTensileLaw,
                                 FungBiaxialParams, FungUniaxialLaw,
                                 GreenStrainUniaxial, LinearElasticLaw,
                                 green_strain, tensile_stress,
                                 uniaxial_pk2_from_load)
from qlvsim.errors import DomainError, check_bounds, check_range
from qlvsim.kernels import (SIZE_BUDGET, FungSpectrum, KelvinParams,
                            MaxwellParams, PronySpectrum, VoigtParams,
                            exp_integral_e1, fung_reduced_relaxation,
                            fung_to_prony, grid_steps, kernel_force_history,
                            reduced_relaxation)
from qlvsim.network import (KernelEntry, NonlinearSpring, SpringMassSystem,
                            SystemState, simulate)
from qlvsim.protocols import (ProtocolSpec, Series, check_fit_terms,
                              fit_relaxation_spectrum, frequency_sweep)
from qlvsim.qlv import QlvModel, StrainHistory
from qlvsim.seriesio import serialize_series

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

ENTRY = KernelEntry(i=0, j=0, spectrum=PronySpectrum(K=1.0))
SPRING = NonlinearSpring(i=0, j=1, law=LAW)

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
    *[(owner, name, 0, False) for owner in (ENTRY, SPRING)
      for name in ("i", "j")],
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


FUNG_LAW = FungUniaxialLaw(FungBiaxialParams(a1=1.0, c=1.0))
SPECTRUM = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
ONE_MASS = SpringMassSystem(masses=[1.0], stiffness=[[1.0]])
MODEL = QlvModel.from_kernel(LAW, MaxwellParams(mu=1.0, eta=1.0))
ONE_TERM = PronySpectrum(K=1.0, amplitudes=(1.0,), frequencies=(1.0,))

def arg(call, name, low, strict, id):
    """A call of one value x, the name its check gives, its low bound or
    None, and strict; a call whose argument is an array puts x in a
    one-entry list."""
    return pytest.param(call, name, low, strict, id=id)


ARGUMENTS = [
    arg(LAW.stress_green, "Green strain", -0.5, False, "stress_green"),
    arg(LAW.stretch_at_stress, "stress", -1.0, True,       # T > -C/B
        "stretch_at_stress"),
    arg(LAW.green_at_stress, "stress", -1.0, True, "green_at_stress"),
    arg(LinearElasticLaw(k=1.0).stress_green, "Green strain", None, True,
        "linear.stress_green"),
    arg(LinearElasticLaw(k=1.0).green_at_stress, "stress", None, True,
        "linear.green_at_stress"),
    arg(FUNG_LAW.stress_green, "Green strain", None, True,
        "fung.stress_green"),
    arg(FUNG_LAW.green_at_stress, "stress", None, True,
        "fung.green_at_stress"),
    arg(GreenStrainUniaxial, "Green strain", -0.5, False,
        "GreenStrainUniaxial"),
    arg(lambda x: tensile_stress(LAW, x), "stretch", 0, True,
        "tensile_stress"),
    arg(green_strain, "stretch", 0, True, "green_strain"),
    arg(lambda x: uniaxial_pk2_from_load(x, 1.0, 1.0), "F", None, True,
        "pk2.F"),
    arg(lambda x: uniaxial_pk2_from_load(1.0, x, 1.0), "lam", 0, True,
        "pk2.lam"),
    arg(lambda x: uniaxial_pk2_from_load(1.0, 1.0, x), "A0", 0, True,
        "pk2.A0"),
    arg(lambda x: PronySpectrum(K=1.0, amplitudes=(x,), frequencies=(1.0,)),
        "amplitudes", 0, False, "prony.amplitudes"),
    arg(lambda x: PronySpectrum(K=1.0, amplitudes=(1.0,), frequencies=(x,)),
        "frequencies", 0, True, "prony.frequencies"),
    arg(lambda x: grid_steps(1.0, x), "dt", 0, True, "grid_steps.dt"),
    arg(lambda x: grid_steps(x, 1.0), "duration", 0, True,
        "grid_steps.duration"),
    arg(exp_integral_e1, "x", 0, True, "exp_integral_e1"),
    arg(lambda x: fung_reduced_relaxation(SPECTRUM, x), "t", 0, False,
        "fung_reduced_relaxation"),
    arg(lambda x: fung_to_prony(SPECTRUM, x), "n_terms", 2, False,
        "fung_to_prony"),
    arg(lambda x: reduced_relaxation(MaxwellParams(mu=1.0, eta=1.0)).value(
        [0.5, x]), "t", 0, False, "ReducedRelaxation.value"),
    arg(lambda x: kernel_force_history(ONE_TERM, [0.0, 1.0, x],
                                       [0.0, 1.0, 2.0]), "times", None, True,
        "kernel_force_history.times"),
    arg(lambda x: SpringMassSystem(masses=[x], stiffness=[[1.0]]), "masses",
        0, True, "network.masses"),
    arg(lambda x: SpringMassSystem(masses=[1.0], stiffness=[[x]]),
        "stiffness", None, True, "network.stiffness"),
    arg(lambda x: SpringMassSystem(masses=[1.0], stiffness=[[1.0]],
                                   damping=[[x]]), "damping", None, True,
        "network.damping"),
    arg(lambda x: simulate(ONE_MASS, SystemState.initial(ONE_MASS), 1.0, 0.1,
                           record_stride=x), "record_stride", 1, False,
        "simulate.record_stride"),
    arg(lambda x: check_fit_terms(10, x), "term count", 1, False,
        "check_fit_terms"),
    arg(lambda x: frequency_sweep(CYCLIC, MODEL, [x]), "angular frequencies",
        0, True, "frequency_sweep"),
    arg(lambda x: StrainHistory(times=[0.0], values=[x]), "strain values",
        None, True, "StrainHistory.values"),
    arg(lambda x: StrainHistory(times=[0.0, x], values=[0.0, 0.0]), "times",
        None, True, "StrainHistory.times"),
    arg(lambda x: fit_relaxation_spectrum([0.0, 1.0, x], [1.0, 0.8, 0.7], 2,
                                          [0.5, 1.0]), "times", None, True,
        "fit_relaxation_spectrum.times"),
]

# (a call of one value, the name its check gives): every integer argument
SERIES = Series(times=np.array([0.0, 0.5]), columns={"x": np.array([1.0, 2.0])})
INTEGERS = [
    pytest.param(lambda x: fit_relaxation_spectrum([0, 1, 2], [1, 0.8, 0.7],
                                                   x), "term count",
                 id="fit_relaxation_spectrum"),
    pytest.param(lambda x: fung_to_prony(SPECTRUM, x), "n_terms",
                 id="fung_to_prony"),
    pytest.param(lambda x: simulate(ONE_MASS, SystemState.initial(ONE_MASS),
                                    1.0, 0.1, record_stride=x),
                 "record_stride", id="simulate.record_stride"),
    pytest.param(lambda x: serialize_series(SERIES, x), "precision",
                 id="serialize_series.precision"),
    *[pytest.param(lambda x, name=name: replace(CYCLIC, **{name: x}), name,
                   id=f"ProtocolSpec.{name}-cyclic")
      for name in ("cycles", "samples_per_cycle")],
    *[pytest.param(lambda x, owner=owner, name=name: replace(
        owner, **{name: x}), name, id=f"{type(owner).__name__}.{name}")
      for owner in (ENTRY, SPRING) for name in ("i", "j")],
]


class TestCheckRange:
    @pytest.mark.parametrize("x, message", [
        (math.nan, "must be finite, got nan"),
        (np.float64(math.inf), "must be finite, got inf"),
        (np.array([1.0, -math.inf, math.nan]), "must be finite, got -inf"),
        (np.array(-1.0), "must be > 0, got min -1.0"),
        ([2.0, -3.0, -1.0], "must be > 0, got min -3.0"),
        (np.float64(-2.5), "must be > 0, got -2.5"),
        (0, "must be > 0, got 0")],
        ids=["nan", "numpy-inf", "first-non-finite-entry", "0-d-array",
             "list", "numpy-scalar", "int"])
    def test_message(self, x, message):
        with pytest.raises(DomainError, match=f"^x {re.escape(message)}$"):
            check_range("x", x, low=0)

    def test_an_empty_array_passes(self):
        check_range("x", np.zeros(0), low=0)

    @pytest.mark.parametrize("x", [2, np.int64(2), np.uint8(2), 10 ** 400],
                             ids=["int", "int64", "uint8", "401-digits"])
    def test_an_int_is_an_integer(self, x):
        check_range("x", x, low=1, integer=True)

    @pytest.mark.parametrize("x", [
        2.5, 2.0, np.float64(2.0), True, np.bool_(True), "2", [2],
        np.array(2)], ids=["fraction", "whole-float", "float64", "bool",
                           "numpy-bool", "text", "list", "0-d-array"])
    def test_anything_else_is_not(self, x):
        with pytest.raises(DomainError, match=re.escape(
                f"x must be an int, got {x!r}")):
            check_range("x", x, low=1, integer=True)

    def test_finiteness_is_checked_first(self):
        with pytest.raises(DomainError, match="^x must be finite, got nan$"):
            check_range("x", math.nan, integer=True)

    @pytest.mark.parametrize("x, message", [
        ([0.0, 1.0, 1.0], "must be strictly increasing (index 2)"),
        ([0.0, -1.0, 2.0], "must be strictly increasing (index 1)"),
        (np.array([3.0, 2.0, 1.0]), "must be strictly increasing (index 1)"),
        ([0.0, math.nan], "must be finite, got nan")],
        ids=["stall", "fall", "array", "finiteness-first"])
    def test_increasing(self, x, message):
        with pytest.raises(DomainError, match=f"^x {re.escape(message)}$"):
            check_range("x", x, increasing=True)
        check_range("x", [-1.0, 0.0, 2.5], increasing=True)
        check_range("x", [7.0], increasing=True)

    @pytest.mark.parametrize("x, message", [
        (np.int64(-1), "must be > 0, got -1"),
        (np.int32(0), "must be > 0, got 0")], ids=["int64", "int32"])
    def test_a_numpy_int_is_compared_as_a_number(self, x, message):
        with pytest.raises(DomainError, match=f"^x {message}$"):
            check_range("x", x, low=0)


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


class TestEveryBoundedArgument:
    """Each argument or array that states its bound through check_range
    rejects NaN, +inf and -inf, and its bound (the bound itself when strict,
    one below it when not), with a DomainError that names it."""

    @pytest.mark.parametrize("call, name, low, strict", ARGUMENTS)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_not_finite(self, call, name, low, strict, x):
        with pytest.raises(DomainError,
                           match=f"^{name} must be finite, got {x!r}$"):
            call(x)

    @pytest.mark.parametrize("call, name, low, strict",
                             [a for a in ARGUMENTS if a.values[2] is not None])
    def test_bound(self, call, name, low, strict):
        x = low if strict else low - 1
        sign = ">" if strict else ">="
        # an array argument reports its minimum, as a float
        with pytest.raises(DomainError, match=(
                f"^{name} must be {sign} {re.escape(str(low))}, "
                rf"got (min )?{re.escape(str(x))}(\.0)?$")):
            call(x)
        if not strict:      # the bound itself passes, if not what follows
            try:
                call(low)
            except DomainError as exc:
                assert not str(exc).startswith(name), exc


class TestEveryIncreasingArgument:
    """Each array of times states that it strictly increases through
    check_range, naming the first index where it does not."""

    @pytest.mark.parametrize("call", [
        lambda t: StrainHistory(times=t, values=np.zeros(3)),
        lambda t: kernel_force_history(ONE_TERM, t, [0.0, 1.0, 2.0]),
        lambda t: fit_relaxation_spectrum(t, [1.0, 0.8, 0.7], 2)],
        ids=["StrainHistory", "kernel_force_history",
             "fit_relaxation_spectrum"])
    @pytest.mark.parametrize("times, index", [
        ([0.0, 1.0, 1.0], 2), ([0.0, -1.0, 2.0], 1), ([0.0, 2.0, 1.0], 2)],
        ids=["stall", "fall", "late-fall"])
    def test_not_increasing(self, call, times, index):
        # the fit once raised about its default frequency grid, which such
        # times collapse to one value, or fitted the late fall as given
        with pytest.raises(DomainError, match=re.escape(
                f"times must be strictly increasing (index {index})")):
            call(times)


class TestEveryIntegerArgument:
    """Each integer argument rejects a fractional or whole float and a bool
    with one message, and takes a numpy int as the Python int it equals."""

    @pytest.mark.parametrize("call, name", INTEGERS)
    @pytest.mark.parametrize("x", [2.5, 3.0, True],
                             ids=["fraction", "whole-float", "bool"])
    def test_not_an_int(self, call, name, x):
        with pytest.raises(DomainError,
                           match=f"^{name} must be an int, got {x!r}$"):
            call(x)

    @pytest.mark.parametrize("call, name", INTEGERS)
    def test_a_numpy_int(self, call, name):
        same = call(np.int64(3)), call(3)
        if isinstance(same[0], str):
            assert same[0] == same[1]
