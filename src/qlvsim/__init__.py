"""Quasi-linear viscoelastic modeling of soft tissue.

Nonlinear elastic laws, viscoelastic relaxation/creep kernels, hereditary
stress evaluation, a viscoelastic spring-mass network integrator, virtual
test protocols with parameter fitting, and a configuration-driven CLI.
"""

from .constitutive import (BiaxialStrainState, BiaxialStressState,
                           ExponentialTensileLaw, FungBiaxialParams,
                           FungUniaxialLaw, GreenStrainUniaxial,
                           LinearElasticLaw, fung_energy, fung_stress,
                           green_strain, tensile_slope, tensile_stress,
                           uniaxial_pk2_from_load)
from .errors import (ConfigError, DomainError, FitError, NumericalError,
                     QlvError, StabilityError)
from .kernels import (FungSpectrum, KelvinParams, MaxwellParams,
                      PronySpectrum, ReducedRelaxation, VoigtParams,
                      exp_integral_e1, fung_reduced_relaxation, fung_to_prony,
                      kelvin_creep, kelvin_relaxation, kernel_force_history,
                      kernel_to_prony, maxwell_creep, maxwell_relaxation,
                      prony_relaxation, reduced_relaxation, unit_step,
                      voigt_creep, voigt_relaxation)
from .network import (KernelEntry, NonlinearSpring, SimulationResult,
                      SpringMassSystem, StabilityResult, SystemState,
                      elastic_energy, flexibility_from_stiffness, simulate,
                      stability_check, step)
from .protocols import (ProtocolSpec, Series, TestReport, fit_exponential_law,
                        fit_relaxation_spectrum, frequency_sweep, run_creep,
                        run_cyclic, run_relaxation, run_tensile)
from .qlv import (QlvModel, StrainHistory, StressHistory, hysteresis_ratio,
                  qlv_stress_direct, qlv_stress_fast)

__version__ = "0.1.0"

__all__ = [
    "BiaxialStrainState", "BiaxialStressState", "ExponentialTensileLaw",
    "FungBiaxialParams", "FungUniaxialLaw", "GreenStrainUniaxial",
    "LinearElasticLaw", "fung_energy", "fung_stress", "green_strain",
    "tensile_slope", "tensile_stress", "uniaxial_pk2_from_load",
    "ConfigError", "DomainError", "FitError", "NumericalError", "QlvError",
    "StabilityError",
    "FungSpectrum", "KelvinParams", "MaxwellParams", "PronySpectrum",
    "ReducedRelaxation", "VoigtParams", "exp_integral_e1",
    "fung_reduced_relaxation", "fung_to_prony", "kelvin_creep",
    "kelvin_relaxation", "kernel_to_prony", "maxwell_creep",
    "maxwell_relaxation", "prony_relaxation", "reduced_relaxation",
    "unit_step", "voigt_creep", "voigt_relaxation",
    "KernelEntry", "NonlinearSpring", "SimulationResult", "SpringMassSystem",
    "StabilityResult", "SystemState", "elastic_energy",
    "flexibility_from_stiffness", "kernel_force_history", "simulate",
    "stability_check", "step",
    "ProtocolSpec", "Series", "TestReport", "fit_exponential_law",
    "fit_relaxation_spectrum", "frequency_sweep", "run_creep", "run_cyclic",
    "run_relaxation", "run_tensile",
    "QlvModel", "StrainHistory", "StressHistory", "hysteresis_ratio",
    "qlv_stress_direct", "qlv_stress_fast",
]
