"""The one bound rule: check_range, check_bounds, and every field, argument
and array that states its bound through them."""

import inspect
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from types import FunctionType, SimpleNamespace

import pytest

import numpy as np

import qlvsim
from qlvsim.cli import cli_main
from qlvsim.constitutive import (BiaxialStrainState, BiaxialStressState,
                                 ExponentialTensileLaw, FungBiaxialParams,
                                 FungUniaxialLaw, GreenStrainUniaxial,
                                 LinearElasticLaw, fung_energy, fung_stress,
                                 green_strain, tensile_slope, tensile_stress,
                                 uniaxial_pk2_from_load)
from qlvsim.errors import (ConfigError, DomainError, FitError, NumericalError,
                           QlvError, StabilityError, check_bounds,
                           check_range)
from qlvsim.kernels import (SIZE_BUDGET, FungSpectrum, KelvinParams,
                            MaxwellParams, PronySpectrum, ReducedRelaxation,
                            VoigtParams, exp_integral_e1,
                            fung_reduced_relaxation, fung_to_prony,
                            grid_steps, kelvin_creep, kelvin_relaxation,
                            kernel_force_history, kernel_to_prony,
                            maxwell_creep, maxwell_relaxation,
                            periodic_force_history, prony_relaxation,
                            unit_step, voigt_creep, voigt_relaxation)
from qlvsim.network import (KernelEntry, NonlinearSpring, SimulationResult,
                            SpringMassSystem, StabilityResult, SystemState,
                            elastic_energy, flexibility_from_stiffness,
                            simulate, stability_check, step,
                            steps_and_records)
from qlvsim.protocols import (ProtocolSpec, Series, check_fit_terms,
                              fit_exponential_law, fit_relaxation_spectrum,
                              frequency_sweep, run_creep, run_cyclic,
                              run_relaxation, run_tensile)
from qlvsim.qlv import (QlvModel, StrainHistory, StressHistory,
                        hysteresis_ratio, qlv_stress_direct, qlv_stress_fast)
from qlvsim.seriesio import serialize_series, write_series

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
      for name in ("E_R", "tau_eps", "tau_sigma")],
    (PronySpectrum(K=1.0), "K", None, True),
    *[(FungSpectrum(c=0.5, q1=0.01, q2=100.0), name, 0, True)
      for name in ("c", "q1", "q2")],
    (NonlinearSpring(i=0, j=None, law=LAW), "rest_length", 0, True),
    *[(owner, name, 0, False) for owner in (ENTRY, SPRING)
      for name in ("i", "j")],
    *[(CYCLIC, name, 0, True)
      for name in ("amplitude", "angular_frequency")],
    (CYCLIC, "mean", 0, False),
    (CYCLIC, "cycles", 1, False),
    (CYCLIC, "samples_per_cycle", 2, False),
    *[(TENSILE, name, 0, True) for name in ("duration", "dt", "stretch_rate")],
    (CREEP, "hold_stress", None, True),
    (RELAXATION, "hold_strain", None, True),
]
IDS = [f"{type(owner).__name__}.{name}"
       + (f"-{owner.kind}" if isinstance(owner, ProtocolSpec) else "")
       for owner, name, _, _ in FIELDS]


SERIES = Series(times=np.array([0.0, 0.5]), columns={"x": np.array([1.0, 2.0])})

FUNG_LAW = FungUniaxialLaw(FungBiaxialParams(a1=1.0, c=1.0))
LINEAR = LinearElasticLaw(k=1.0)
SPECTRUM = FungSpectrum(c=0.5, q1=0.01, q2=100.0)
MAXWELL = MaxwellParams(mu=1.0, eta=1.0)
VOIGT = VoigtParams(mu=1.0, eta=1.0)
KELVIN = KelvinParams(E_R=1.0, tau_eps=0.5, tau_sigma=1.5)
ONE_MASS = SpringMassSystem(masses=[1.0], stiffness=[[1.0]])
STATE = SystemState.initial(ONE_MASS)
MODEL = QlvModel.from_kernel(LAW, MAXWELL)
ONE_TERM = PronySpectrum(K=1.0, amplitudes=(1.0,), frequencies=(1.0,))
HISTORY = StrainHistory(times=[0.0, 0.5, 1.0], values=[0.0, 0.05, 0.1])
LOOP = ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [1.0, 0.5, 0.0], [2.0, 0.5, 0.0])


def arg(call, name, low, strict, id, param=None):
    """Numeric parameter ``param`` (by default ``name``) as a call of one
    value x, the name its check gives, its low bound or None, and strict; a
    call whose argument is an array puts x in one entry."""
    return param or name, pytest.param(call, name, low, strict, id=id)


def at(i, x):
    """LOOP with its i-th array's last entry x, for hysteresis_ratio."""
    return [a[:-1] + [x] if k == i else a for k, a in enumerate(LOOP)]


def row(valid, *args, every=None, **exempt):
    """A valid call, the ``arg`` rows of its numeric parameters (a
    constructor's fields may be FIELDS rows instead), and each parameter it
    exempts, or ``every`` one, with why."""
    return valid, args, every, exempt


CONTAINER = "a result container, filled by the function that returns it"

# Every public callable of qlvsim, and each public method of a public class
# as Class.method: one valid call, then each numeric parameter as a call
# that must raise "<name> must be finite, got x" for a NaN or infinite x
TABLE = {
    "BiaxialStrainState": row(lambda: BiaxialStrainState(0.1, 0.2, 0.3)),
    "BiaxialStressState": row(lambda: BiaxialStressState(1.0, 2.0, 0.5),
                              every=CONTAINER),
    "ExponentialTensileLaw": row(lambda: ExponentialTensileLaw(B=1.0, C=1.0)),
    "ExponentialTensileLaw.stress": row(
        lambda: LAW.stress(1.1),
        arg(LAW.stress, "stretch", 0, True, "stress", "lam")),
    "ExponentialTensileLaw.stress_green": row(
        lambda: LAW.stress_green([0.0, 0.1]),
        arg(LAW.stress_green, "Green strain", -0.5, False, "stress_green",
            "E")),
    "ExponentialTensileLaw.stretch_at_stress": row(
        lambda: LAW.stretch_at_stress(0.5),
        arg(LAW.stretch_at_stress, "stress", -1.0, True,    # T > -C/B
            "stretch_at_stress", "T")),
    "ExponentialTensileLaw.green_at_stress": row(
        lambda: LAW.green_at_stress(0.5),
        arg(LAW.green_at_stress, "stress", -1.0, True, "green_at_stress",
            "T")),
    "FungBiaxialParams": row(lambda: FungBiaxialParams(a1=1.0, c=1.0)),
    "FungUniaxialLaw": row(lambda: FungUniaxialLaw(FungBiaxialParams())),
    "FungUniaxialLaw.stress_green": row(
        lambda: FUNG_LAW.stress_green([0.0, 0.1]),
        arg(FUNG_LAW.stress_green, "Green strain", None, True,
            "fung.stress_green", "E")),
    "FungUniaxialLaw.green_at_stress": row(
        lambda: FUNG_LAW.green_at_stress(0.5),
        arg(FUNG_LAW.green_at_stress, "stress", None, True,
            "fung.green_at_stress", "T")),
    "GreenStrainUniaxial": row(
        lambda: GreenStrainUniaxial(0.1),
        arg(GreenStrainUniaxial, "Green strain", -0.5, False,
            "GreenStrainUniaxial", "value")),
    "LinearElasticLaw": row(lambda: LinearElasticLaw(k=1.0)),
    "LinearElasticLaw.stress_green": row(
        lambda: LINEAR.stress_green(0.1),
        arg(LINEAR.stress_green, "Green strain", None, True,
            "linear.stress_green", "E")),
    "LinearElasticLaw.green_at_stress": row(
        lambda: LINEAR.green_at_stress(0.1),
        arg(LINEAR.green_at_stress, "stress", None, True,
            "linear.green_at_stress", "T")),
    "fung_energy": row(lambda: fung_energy(FUNG_LAW.params,
                                           BiaxialStrainState(0.1, 0.0))),
    "fung_stress": row(lambda: fung_stress(FUNG_LAW.params,
                                           BiaxialStrainState(0.1, 0.0))),
    "green_strain": row(
        lambda: green_strain(1.1),
        arg(green_strain, "stretch", 0, True, "green_strain", "lam")),
    "tensile_slope": row(
        lambda: tensile_slope(LAW, 1.1),
        arg(lambda x: tensile_slope(LAW, x), "stretch", 0, True,
            "tensile_slope", "lam")),
    "tensile_stress": row(
        lambda: tensile_stress(LAW, [1.0, 1.1]),
        arg(lambda x: tensile_stress(LAW, x), "stretch", 0, True,
            "tensile_stress", "lam")),
    "uniaxial_pk2_from_load": row(
        lambda: uniaxial_pk2_from_load(1.0, 1.1, 2.0),
        arg(lambda x: uniaxial_pk2_from_load(x, 1.0, 1.0), "F", None, True,
            "pk2.F"),
        arg(lambda x: uniaxial_pk2_from_load(1.0, x, 1.0), "lam", 0, True,
            "pk2.lam"),
        arg(lambda x: uniaxial_pk2_from_load(1.0, 1.0, x), "A0", 0, True,
            "pk2.A0")),

    "ConfigError": row(lambda: ConfigError(["output.stride: must be >= 1"])),
    "DomainError": row(lambda: DomainError("x must be finite, got nan")),
    "FitError": row(lambda: FitError("stress samples are constant")),
    "NumericalError": row(lambda: NumericalError("no convergence")),
    "QlvError": row(lambda: QlvError("fault")),
    "StabilityError": row(lambda: StabilityError("minor 2 is -1.0", 2),
                          minor_index="the minor that an error names"),

    "FungSpectrum": row(lambda: FungSpectrum(c=0.5, q1=0.01, q2=100.0)),
    "KelvinParams": row(lambda: KelvinParams(E_R=1.0, tau_eps=0.5,
                                             tau_sigma=1.5)),
    "MaxwellParams": row(lambda: MaxwellParams(mu=1.0, eta=1.0)),
    "VoigtParams": row(lambda: VoigtParams(mu=1.0, eta=1.0)),
    "PronySpectrum": row(
        lambda: PronySpectrum(K=0.5, amplitudes=(0.5,), frequencies=(1.0,)),
        arg(lambda x: PronySpectrum(K=1.0, amplitudes=(x,),
                                    frequencies=(1.0,)),
            "amplitudes", 0, False, "prony.amplitudes"),
        arg(lambda x: PronySpectrum(K=1.0, amplitudes=(1.0,),
                                    frequencies=(x,)),
            "frequencies", 0, True, "prony.frequencies")),
    "PronySpectrum.normalized": row(ONE_TERM.normalized),
    "ReducedRelaxation": row(lambda: ReducedRelaxation(MAXWELL)),
    "ReducedRelaxation.value": row(
        lambda: ReducedRelaxation(MAXWELL).value([0.0, 0.5]),
        arg(lambda x: ReducedRelaxation(MAXWELL).value([0.5, x]), "t", 0,
            False, "ReducedRelaxation.value")),
    "exp_integral_e1": row(
        lambda: exp_integral_e1([0.5, 800.0]),
        arg(exp_integral_e1, "x", 0, True, "exp_integral_e1")),
    "fung_reduced_relaxation": row(
        lambda: fung_reduced_relaxation(SPECTRUM, [0.0, 1.0]),
        arg(lambda x: fung_reduced_relaxation(SPECTRUM, x), "t", 0, False,
            "fung_reduced_relaxation")),
    "fung_to_prony": row(
        lambda: fung_to_prony(SPECTRUM, 8),
        arg(lambda x: fung_to_prony(SPECTRUM, x), "n_terms", 2, False,
            "fung_to_prony")),
    **{f.__name__: row(
        lambda f=f, p=p: f(p, [-1.0, 0.0, 1.0]),
        # t may be negative: the element is at rest before 0
        arg(lambda x, f=f, p=p: f(p, [-1.0, x]), "t", None, True,
            f.__name__))
       for f, p in ((maxwell_creep, MAXWELL), (maxwell_relaxation, MAXWELL),
                    (voigt_creep, VOIGT), (voigt_relaxation, VOIGT),
                    (kelvin_creep, KELVIN), (kelvin_relaxation, KELVIN))},
    "unit_step": row(lambda: unit_step([-1.0, 0.0, 1.0]),
                     arg(lambda x: unit_step([-1.0, x]), "t", None, True,
                         "unit_step")),
    "kernel_force_history": row(
        lambda: kernel_force_history(ONE_TERM, [0.0, 1.0, 2.0],
                                     [0.0, 1.0, 0.5]),
        arg(lambda x: kernel_force_history(ONE_TERM, [0.0, 1.0, x],
                                           [0.0, 1.0, 2.0]),
            "times", None, True, "kernel_force_history.times"),
        arg(lambda x: kernel_force_history(ONE_TERM, [0.0, 1.0, 2.0],
                                           [0.0, 1.0, x]),
            "displacement", None, True, "kernel_force_history.displacement")),
    "kernel_to_prony": row(
        lambda: kernel_to_prony(SPECTRUM, 8),
        arg(lambda x: kernel_to_prony(SPECTRUM, x), "n_terms", 2, False,
            "kernel_to_prony")),
    "prony_relaxation": row(
        lambda: prony_relaxation(ONE_TERM, [0.0, 0.5]),
        # it took NaN before, and returned it
        arg(lambda x: prony_relaxation(ONE_TERM, [0.5, x]), "t", 0, False,
            "prony_relaxation")),

    "KernelEntry": row(lambda: KernelEntry(i=0, j=0, spectrum=ONE_TERM)),
    "NonlinearSpring": row(lambda: NonlinearSpring(i=0, j=1, law=LAW)),
    "NonlinearSpring.elongation": row(
        lambda: SPRING.elongation(np.array([0.1, 0.0])),
        q="a difference of two entries, whose stretch elastic_force checks"),
    "NonlinearSpring.elastic_force": row(
        lambda: SPRING.elastic_force(np.array([0.1, 0.0])),
        arg(lambda x: SPRING.elastic_force(np.array([x, 0.0])), "stretch",
            None, True, "NonlinearSpring.elastic_force", "q")),
    "SimulationResult": row(
        lambda: SimulationResult(*[np.zeros(1)] * 7, final_state=STATE),
        every=CONTAINER),
    "SpringMassSystem": row(
        lambda: SpringMassSystem(masses=[1.0], stiffness=[[1.0]],
                                 damping=[[0.1]]),
        arg(lambda x: SpringMassSystem(masses=[x], stiffness=[[1.0]]),
            "masses", 0, True, "network.masses"),
        arg(lambda x: SpringMassSystem(masses=[1.0], stiffness=[[x]]),
            "stiffness", None, True, "network.stiffness"),
        arg(lambda x: SpringMassSystem(masses=[1.0], stiffness=[[1.0]],
                                       damping=[[x]]),
            "damping", None, True, "network.damping")),
    "SpringMassSystem.stability_bound": row(ONE_MASS.stability_bound),
    "SpringMassSystem.check_time_step": row(
        lambda: ONE_MASS.check_time_step(0.1),
        arg(ONE_MASS.check_time_step, "dt", None, True,
            "SpringMassSystem.check_time_step")),
    "SpringMassSystem.external_force_at": row(
        lambda: ONE_MASS.external_force_at(0.5),
        t="handed as given to the system's own force function"),
    "StabilityResult": row(lambda: StabilityResult(False, 1, -1.0),
                           every=CONTAINER),
    "SystemState": row(lambda: SystemState(0.0, np.zeros(1), np.zeros(1)),
                       every="a state that initial checks or simulate makes"),
    "SystemState.initial": row(
        lambda: SystemState.initial(ONE_MASS, [0.1], [0.0]),
        arg(lambda x: SystemState.initial(ONE_MASS, [x]), "q", None, True,
            "SystemState.initial.q"),
        arg(lambda x: SystemState.initial(ONE_MASS, None, [x]), "v", None,
            True, "SystemState.initial.v")),
    "elastic_energy": row(
        lambda: elastic_energy(np.eye(2), [0.1, 0.2]),
        arg(lambda x: elastic_energy([[2.0, 0.0], [0.0, x]], [0.1, 0.2]),
            "K", None, True, "elastic_energy.K"),
        arg(lambda x: elastic_energy(np.eye(2), [0.1, x]), "q", None, True,
            "elastic_energy.q")),
    "flexibility_from_stiffness": row(
        lambda: flexibility_from_stiffness([[2.0, 1.0], [1.0, 2.0]]),
        # a NaN matrix was called not symmetric
        arg(lambda x: flexibility_from_stiffness([[2.0, x], [x, 2.0]]), "K",
            None, True, "flexibility_from_stiffness")),
    "simulate": row(
        lambda: simulate(ONE_MASS, STATE, 1.0, 0.1),
        arg(lambda x: simulate(ONE_MASS, STATE, x, 0.1), "duration", 0, True,
            "simulate.duration"),
        arg(lambda x: simulate(ONE_MASS, STATE, 1.0, x), "dt", 0, True,
            "simulate.dt"),
        arg(lambda x: simulate(ONE_MASS, STATE, 1.0, 0.1, record_stride=x),
            "record_stride", 1, False, "simulate.record_stride")),
    "stability_check": row(
        lambda: stability_check([[2.0, 1.0], [1.0, 2.0]]),
        # a NaN matrix passed before
        arg(lambda x: stability_check([[2.0, x], [x, 2.0]]), "K", None, True,
            "stability_check"),
        arg(lambda x: stability_check([[2.0]], x), "tol", None, True,
            "stability_check.tol")),
    "step": row(
        lambda: step(ONE_MASS, STATE, 0.1),
        arg(lambda x: step(ONE_MASS, STATE, x), "dt", 0, True, "step")),

    "ProtocolSpec": row(lambda: replace(CYCLIC)),
    "Series": row(lambda: replace(SERIES), every=CONTAINER),
    "TestReport": row(lambda: qlvsim.TestReport(uts=2.0, yield_stress=1.0),
                      every=CONTAINER),
    "fit_exponential_law": row(
        lambda: fit_exponential_law([1.0, 1.1, 1.2, 1.3],
                                    [0.0, 0.1, 0.3, 0.6]),
        # LAPACK got the NaN
        arg(lambda x: fit_exponential_law([1.0, 1.1, 1.2, x],
                                          [0.0, 0.1, 0.3, 0.6]),
            "stretch", None, True, "fit_exponential_law.stretch"),
        arg(lambda x: fit_exponential_law([1.0, 1.1, 1.2, 1.3],
                                          [0.0, 0.1, 0.3, x]),
            "stress", None, True, "fit_exponential_law.stress")),
    "fit_relaxation_spectrum": row(
        lambda: fit_relaxation_spectrum([0.0, 1.0, 2.0], [1.0, 0.8, 0.7], 2),
        arg(lambda x: fit_relaxation_spectrum([0.0, 1.0, x], [1.0, 0.8, 0.7],
                                              2, [0.5, 1.0]),
            "times", None, True, "fit_relaxation_spectrum.times"),
        arg(lambda x: fit_relaxation_spectrum([0.0, 1.0, 2.0], [1.0, 0.8, x],
                                              2, [0.5, 1.0]),
            "values", None, True, "fit_relaxation_spectrum.values"),
        arg(lambda x: fit_relaxation_spectrum([0.0, 1.0, 2.0],
                                              [1.0, 0.8, 0.7], x),
            "term count", 1, False, "fit_relaxation_spectrum.n_terms",
            "n_terms"),
        arg(lambda x: fit_relaxation_spectrum([0.0, 1.0, 2.0],
                                              [1.0, 0.8, 0.7], 2, [0.5, x]),
            "frequencies", None, True, "fit_relaxation_spectrum.frequencies")),
    "frequency_sweep": row(
        lambda: frequency_sweep(CYCLIC, MODEL, [0.5, 1.0]),
        arg(lambda x: frequency_sweep(CYCLIC, MODEL, [x]),
            "angular frequencies", 0, True, "frequency_sweep",
            "angular_frequencies")),
    "run_creep": row(lambda: run_creep(CREEP, MODEL)),
    "run_cyclic": row(lambda: run_cyclic(CYCLIC, MODEL)),
    "run_relaxation": row(lambda: run_relaxation(RELAXATION, MODEL)),
    "run_tensile": row(lambda: run_tensile(TENSILE, MODEL)),

    "QlvModel": row(lambda: QlvModel(LAW, ReducedRelaxation(MAXWELL),
                                     kernel_to_prony(MAXWELL))),
    "QlvModel.from_kernel": row(
        lambda: QlvModel.from_kernel(LAW, SPECTRUM, 8),
        arg(lambda x: QlvModel.from_kernel(LAW, SPECTRUM, x), "n_terms", 2,
            False, "QlvModel.from_kernel", "n_prony")),
    "QlvModel.elastic_stress": row(lambda: MODEL.elastic_stress(HISTORY)),
    "StrainHistory": row(
        lambda: StrainHistory(times=[0.0, 1.0], values=[0.0, 0.1]),
        arg(lambda x: StrainHistory(times=[0.0], values=[x]),
            "strain values", None, True, "StrainHistory.values", "values"),
        arg(lambda x: StrainHistory(times=[0.0, x], values=[0.0, 0.0]),
            "times", None, True, "StrainHistory.times")),
    "StrainHistory.green": row(HISTORY.green),
    "StressHistory": row(lambda: StressHistory(HISTORY.times, HISTORY.values),
                         every=CONTAINER),
    # the strains and the stresses are checked as the two arrays of the loop
    "hysteresis_ratio": row(
        lambda: hysteresis_ratio(*LOOP),
        *[arg(lambda x, i=i: hysteresis_ratio(*at(i, x)), name, None, True,
              f"hysteresis_ratio.{param}", param)
          for i, (param, name) in enumerate((
              ("loading_strain", "strain"), ("loading_stress", "stress"),
              ("unloading_strain", "strain"),
              ("unloading_stress", "stress")))]),
    "qlv_stress_direct": row(lambda: qlv_stress_direct(MODEL, HISTORY)),
    "qlv_stress_fast": row(lambda: qlv_stress_fast(MODEL, HISTORY)),
}

# the parameters of public callables that take no number
OBJECTS = {"law", "p", "s", "params", "strain", "spectrum", "kernel",
           "elastic", "relaxation", "prony", "history", "model", "spec",
           "system", "state", "measure", "kind", "include_quadratic_group",
           "include_third_order", "memory_kernels", "aero_kernels",
           "nonlinear_springs", "external_force", "kernels_replace_damping",
           "check_dual", "message", "errors"}

ARGUMENTS = [a for _, args, _, _ in TABLE.values() for _, a in args] + [
    # the grid and the fit's size, as the CLI reaches them
    arg(lambda x: grid_steps(1.0, x), "dt", 0, True, "grid_steps.dt")[1],
    arg(lambda x: grid_steps(x, 1.0), "duration", 0, True,
        "grid_steps.duration")[1],
    arg(lambda x: check_fit_terms(10, x), "term count", 1, False,
        "check_fit_terms")[1],
]


def public_callables():
    """(name, callable) of each public callable of qlvsim, once however
    many names it has, and of each public method of a public class as
    Class.method."""
    found = {}
    for obj in map(qlvsim.__dict__.get, qlvsim.__all__):
        found[obj.__name__] = obj
        for name, f in vars(obj).items() if isinstance(obj, type) else ():
            if not name.startswith("_") and isinstance(
                    f, (FunctionType, classmethod)):
                found[f"{obj.__name__}.{name}"] = getattr(obj, name)
    return sorted(found.items())


def parameters(f):
    try:
        return [p for p in inspect.signature(f).parameters if p != "self"]
    except ValueError:      # an exception type with no __init__ of its own
        return []


# (a call of one value, the name its check gives): every integer argument
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

    @pytest.mark.parametrize("x, message", [
        (3.5, "must be <= 2, got 3.5"),
        (3, "must be <= 2, got 3"),
        (np.float64(2.5), "must be <= 2, got 2.5"),
        ([1.0, 5.0, 4.0], "must be <= 2, got max 5.0"),
        (np.array(7.0), "must be <= 2, got max 7.0"),
        ([1.0, math.inf], "must be finite, got inf")],
        ids=["float", "int", "numpy-scalar", "list", "0-d-array",
             "finiteness-first"])
    def test_high(self, x, message):
        with pytest.raises(DomainError, match=f"^x {re.escape(message)}$"):
            check_range("x", x, high=2)
        for x in (2, 2.0, [-1.0, 2.0], np.zeros(0)):    # the bound passes
            check_range("x", x, low=-2, high=2)

    @pytest.mark.parametrize("x, got", [
        (10 ** 17 - 1, "99999999999999999"), (10 ** 17, "1e+17"),
        (10 ** 400 * 512, "5.12e+402"),
        (np.uint64(2 ** 64 - 1), "1.8446744073709552e+19"),
        (7 ** 6000, "3.8747178686649665e+5070")],
        ids=["17-digits", "18-digits", "403-digits", "uint64",
             "past-the-str-limit"])
    def test_a_long_int_is_shown_in_e_notation(self, x, got):
        # float() of such an int overflows, and str() stops at 4300 digits
        with pytest.raises(DomainError, match=re.escape(
                f"x must be <= 0, got {got}") + "$"):
            check_range("x", x, high=0)
        with pytest.raises(DomainError, match=re.escape(
                f"x must be > 0, got -{got}") + "$"):
            check_range("x", -int(x), low=0)


    @pytest.mark.parametrize("x", [
        2.5, 3, np.int64(3), [1.0, 2.0], (1, 2), np.arange(3), np.array(7.0),
        10 ** 300], ids=["float", "int", "int64", "list", "int-tuple",
                         "int-array", "0-d-array", "301-digits"])
    def test_it_returns_what_it_checked(self, x):
        out = check_range("x", x)
        assert out.dtype == np.float64
        assert out.tobytes() == np.asarray(x, dtype=float).tobytes()
        # an integer is returned as given
        assert check_range("n", np.int64(3), integer=True) == 3
        assert type(check_range("n", np.int64(3), integer=True)) is np.int64

    @pytest.mark.parametrize("call", [
        lambda x: check_range("F", x),
        lambda x: check_range("F", x, low=0, high=10 ** 500),
        lambda x: uniaxial_pk2_from_load(x, 1.0, 1.0)],
        ids=["check_range", "bounds-pass", "uniaxial_pk2_from_load"])
    def test_an_int_that_no_float_holds_is_not_finite(self, call):
        # once its bounds pass; the load raised OverflowError at its division
        with pytest.raises(DomainError,
                           match=r"^F must be finite, got 1e\+400$"):
            call(10 ** 400)


class TestCheckBounds:
    def test_first_named_field_that_fails(self):
        owner = SimpleNamespace(x=1.0, y=math.nan, z=-1.0)
        with pytest.raises(DomainError, match="^y must be finite"):
            check_bounds(owner, "x", "y", "z", low=0)

    def test_an_int_is_compared_as_an_int(self):
        # math.isfinite(10**400) raises OverflowError; a float field given
        # it passes its bound and then holds no float
        with pytest.raises(DomainError,
                           match=r"^n must be finite, got 1e\+400$"):
            check_bounds(SimpleNamespace(n=10 ** 400), "n", low=1,
                         strict=False)
        with pytest.raises(DomainError,
                           match=r"^n must be > 0, got -1e\+400$"):
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
                f"cycles*samples_per_cycle must be <= {SIZE_BUDGET}, "
                "got 1.6e+401")):
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


class TestEveryPublicCallable:
    """TABLE covers qlvsim's API: each public callable and public method
    has a row whose call is valid, and each of its numeric parameters is a
    row of TestEveryBoundedArgument or FIELDS, or is exempted with why."""

    def test_every_name_has_a_row(self):
        assert sorted(TABLE) == [name for name, _ in public_callables()]

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_valid_call(self, name):
        TABLE[name][0]()

    @pytest.mark.parametrize("name, f", public_callables(),
                             ids=[n for n, _ in public_callables()])
    def test_every_numeric_parameter_has_a_row(self, name, f):
        _, args, every, exempt = TABLE[name]
        numeric = set(parameters(f)) - OBJECTS
        assert set(exempt) <= numeric and all(exempt.values())
        if every:
            return
        fields = {field for owner, field, _, _ in FIELDS
                  if type(owner).__name__ == name}
        assert numeric - fields - {p for p, _ in args} - set(exempt) == set()


class TestEveryPairedArray:
    """Arrays read as pairs of samples must have equal lengths; a pair that
    does not raises a DomainError that names both."""

    @pytest.mark.parametrize("call, message", [
        (lambda: fit_exponential_law([1.0, 1.1, 1.2, 1.3], [0.0, 0.1, 0.3]),
         "stretch and stress must have equal lengths, got 4 and 3"),
        (lambda: hysteresis_ratio([0.0, 0.5, 1.0], [0.0, 1.0], [1.0, 0.0],
                                  [2.0, 0.0]),
         "strain and stress must have equal lengths, got 3 and 2 loading, "
         "2 and 2 unloading"),
        (lambda: hysteresis_ratio(*LOOP[:3], [2.0, 0.0]),
         "strain and stress must have equal lengths, got 3 and 3 loading, "
         "3 and 2 unloading")],
        ids=["fit_exponential_law", "hysteresis_ratio-loading",
             "hysteresis_ratio-unloading"])
    def test_unequal_lengths(self, call, message):
        # numpy raised its own ValueError from np.gradient or np.dot
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            call()


class TestEveryIncreasingArgument:
    """Each array that must strictly increase states it through check_range,
    naming the first index where it does not."""

    @pytest.mark.parametrize("call, name", [
        (lambda t: StrainHistory(times=t, values=np.zeros(3)), "times"),
        (lambda t: kernel_force_history(ONE_TERM, t, [0.0, 1.0, 2.0]),
         "times"),
        (lambda t: fit_relaxation_spectrum(t, [1.0, 0.8, 0.7], 2), "times"),
        # shifted, as frequencies must be > 0
        (lambda t: PronySpectrum(K=0.5, amplitudes=(0.1,) * 3,
                                 frequencies=np.add(t, 2.0)), "frequencies"),
        (lambda t: fit_exponential_law(t, [0.0, 0.1, 0.3]), "stretch")],
        ids=["StrainHistory", "kernel_force_history",
             "fit_relaxation_spectrum", "PronySpectrum",
             "fit_exponential_law"])
    @pytest.mark.parametrize("times, index", [
        ([0.0, 1.0, 1.0], 2), ([0.0, -1.0, 2.0], 1), ([0.0, 2.0, 1.0], 2)],
        ids=["stall", "fall", "late-fall"])
    def test_not_increasing(self, call, name, times, index):
        # the fit once raised about its default frequency grid, which such
        # times collapse to one value, or fitted the late fall as given
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be strictly increasing (index {index})") + "$"):
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


# every size that SIZE_BUDGET bounds, with the budget patched down to
# BUDGET: (a call of ``over`` = 0 or 1 whose size is BUDGET, or one step
# over it, the name its check gives, that one-over size)
BUDGET = 120
FOUR_TERMS = PronySpectrum(K=0.5, amplitudes=(0.125,) * 4,
                           frequencies=(0.1, 1.0, 10.0, 100.0))


def decay(rows):
    t = np.linspace(0.0, 5.0, rows)
    return t, np.exp(-t)


BUDGET_SITES = [
    pytest.param(lambda over: grid_steps(float(BUDGET + over), 1.0),
                 "duration/dt", "121.0", id="grid_steps"),
    pytest.param(lambda over: steps_and_records(5, 7.0 + over, 1.0, 1),
                 "records x columns", "135", id="steps_and_records"),
    pytest.param(lambda over: replace(CYCLIC, cycles=2,
                                      samples_per_cycle=60 + over),
                 "cycles*samples_per_cycle", "122", id="ProtocolSpec"),
    pytest.param(lambda over: fit_relaxation_spectrum(*decay(20 + over), 5),
                 "rows x (terms + 1)", "126", id="check_fit_terms"),
    pytest.param(lambda over: periodic_force_history(
        FOUR_TERMS, 0.1, np.sin(np.linspace(0.0, 3.0, 30 + over))),
                 "samples x Prony terms", "124", id="periodic_force_history"),
    pytest.param(lambda over: fung_to_prony(SPECTRUM, BUDGET + over),
                 "n_terms", "121", id="fung_to_prony"),
]

MODEL_TEXT = ("model:\n  elastic: {kind: linear, k: 1.0}\n"
              "  kernel: {kind: maxwell, mu: 1.0, eta: 1.0}\n")
FUNG_TEXT = ("model:\n  elastic: {kind: linear, k: 1.0}\n  kernel: {kind: "
             "fung, c: 0.5, q1: 0.01, q2: 100.0, prony_terms: 4}\n")
FIVE_MASSES = ("network:\n  masses: [1.0, 1.0, 1.0, 1.0, 1.0]\n  stiffness: "
               f"{(0.01 * np.eye(5)).tolist()}\n  dt: 1.0\n")


def config_run(command, text):
    """argv of ``command`` on the config ``text(size)``."""
    def argv(tmp_path, size):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text(size))
        return [command, "--config", str(cfg)]
    return argv


def fit_run(tmp_path, rows):
    path = tmp_path / "relax.csv"
    t, g = decay(rows)
    write_series(path, Series(times=t, columns={"G": g}))
    return ["fit", "spectrum", str(path), "--terms", "5"]


# (argv of one size, the size at BUDGET, the error one over it): each site
# of BUDGET_SITES at the key that states it, except fung_to_prony, whose
# n_terms a config's prony_terms reader bounds first
CLI_SITES = [
    pytest.param(config_run("creep", lambda n: MODEL_TEXT + (
        f"protocol: {{kind: creep, hold_stress: 0.1, duration: {n}.0, "
        "dt: 1.0}\n")), 120,
                 "protocol: duration/dt must be <= 120, got 121.0",
                 id="grid_steps"),
    pytest.param(config_run("simulate", lambda n: FIVE_MASSES + (
        f"  duration: {n}.0\noutput: {{stride: 1}}\n")), 7,
                 "output.stride: records x columns must be <= 120, got 135",
                 id="steps_and_records"),
    pytest.param(config_run("cyclic", lambda n: MODEL_TEXT + (
        "protocol: {kind: cyclic, amplitude: 0.01, mean: 0.05, "
        f"angular_frequency: 1.0, cycles: 2, samples_per_cycle: {n}}}\n")),
                 60, "protocol: cycles*samples_per_cycle must be <= 120, "
                 "got 122", id="ProtocolSpec"),
    pytest.param(fit_run, 20,
                 "--terms: rows x (terms + 1) must be <= 120, got 126",
                 id="check_fit_terms"),
    pytest.param(config_run("cyclic", lambda n: FUNG_TEXT + (
        "protocol: {kind: cyclic, amplitude: 0.01, mean: 0.05, "
        f"angular_frequency: 1.0, cycles: 1, samples_per_cycle: {n}}}\n")),
                 30, "protocol.samples_per_cycle: samples x Prony terms must "
                 "be <= 120, got 124", id="periodic_force_history"),
]


class TestEveryBudgetSite:
    """Every size that SIZE_BUDGET bounds states it through
    check_range(high=): at the budget the call passes, and one step over it
    fails with the rule's form, through the library and, with exit 2, at its
    key through the CLI.  The budget is patched down to BUDGET in every
    module that holds it, so each call is small."""

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        for name, module in list(sys.modules.items()):
            if name.startswith("qlvsim.") and hasattr(module, "SIZE_BUDGET"):
                monkeypatch.setattr(module, "SIZE_BUDGET", BUDGET)

    @pytest.mark.parametrize("call, name, got", BUDGET_SITES)
    def test_library(self, call, name, got):
        call(0)
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be <= {BUDGET}, got {got}") + "$"):
            call(1)

    @pytest.mark.parametrize("argv, size, error", CLI_SITES)
    def test_cli(self, tmp_path, capsys, alarm, argv, size, error):
        out = tmp_path / "out.csv"
        with alarm(20):
            assert cli_main(argv(tmp_path, size) + ["--out", str(out)]) == 0
        out.unlink()
        over = argv(tmp_path, size + 1)
        capsys.readouterr()
        for run in ([*over, "--out", str(out)],
                    ["validate", *over[1:]] if "--config" in over else None):
            if run:
                assert cli_main(run) == 2
                assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


# each exponent guard, as a call that makes its exponent x: (the call, the
# exponent's name, whether it is read as an array)
FUNG_AT = BiaxialStrainState(8.0, 0.0)      # Q = a1 * 64, exact
EXPONENTS = [
    pytest.param(lambda x: tensile_stress(ExponentialTensileLaw(B=x, C=1.0),
                                          2.0),
                 "exponent B*(lambda-1)", False, id="tensile_stress"),
    pytest.param(lambda x: tensile_stress(ExponentialTensileLaw(B=x, C=1.0),
                                          [1.5, 2.0]),
                 "exponent B*(lambda-1)", True, id="tensile_stress-array"),
    pytest.param(lambda x: fung_energy(FungBiaxialParams(a1=x / 64, c=1.0),
                                       FUNG_AT),
                 "energy exponent Q", False, id="fung_energy"),
    pytest.param(lambda x: fung_stress(FungBiaxialParams(a1=x / 64, c=1.0),
                                       FUNG_AT),
                 "energy exponent Q", False, id="fung_stress"),
    pytest.param(lambda x: FungUniaxialLaw(FungBiaxialParams(
        a1=x / 64, c=1.0)).stress_green([1.0, 8.0]),
                 "energy exponent Q", True, id="FungUniaxialLaw"),
]


class TestEveryExponentGuard:
    """Each exp of an elastic law states its guard through
    check_range(high=_EXP_ARG_MAX): an exponent of 700 passes, and one over
    it fails with the rule's form, naming the exponent."""

    @pytest.mark.parametrize("call, name, array", EXPONENTS)
    def test_guard(self, call, name, array):
        call(700.0)
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be <= 700.0, got {'max ' * array}701.0") + "$"):
            call(701.0)


def test_a_non_finite_fit_reaches_no_lapack():
    # LAPACK wrote "** On entry to DLASCL ..." to file descriptor 2, where
    # capsys cannot see it, so the call runs in a child process
    code = ("from qlvsim.errors import DomainError\n"
            "from qlvsim.protocols import fit_exponential_law\n"
            "try:\n"
            "    fit_exponential_law([1.0, 1.1, 1.2, 1.3],"
            " [0.0, 0.1, 0.3, float('nan')])\n"
            "except DomainError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(
                              os.path.dirname(qlvsim.__file__))})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "stress must be finite, got nan\n", "")
