import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlvsim.constitutive import (BiaxialStrainState, ExponentialTensileLaw,
                                 FungBiaxialParams, FungUniaxialLaw,
                                 GreenStrainUniaxial, LinearElasticLaw,
                                 fung_energy, fung_stress, green_strain,
                                 tensile_slope, tensile_stress,
                                 uniaxial_pk2_from_load)
from qlvsim.errors import DomainError


class TestExponentialTensileLaw:
    def test_zero_stress_at_unit_stretch(self):
        for b, c in [(1.0, 1.0), (2.5, 0.3), (17.0, 8.0)]:
            assert tensile_stress(ExponentialTensileLaw(B=b, C=c), 1.0) == 0.0

    def test_value_b1_c1(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        assert tensile_stress(law, 2.0) == pytest.approx(math.e - 1.0,
                                                         rel=1e-12)

    def test_value_b2_c3(self):
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        expected = 1.5 * (math.exp(0.5) - 1.0)
        assert tensile_stress(law, 1.25) == pytest.approx(expected, rel=1e-12)

    def test_ode_oracle(self):
        # integrate dT/dlam = B*T + C with RK4 and compare to the closed form
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        lam, T = 1.0, 0.0
        h = 1e-4
        def f(t):
            return law.B * t + law.C
        while lam < 1.25 - h / 2:
            k1 = f(T)
            k2 = f(T + 0.5 * h * k1)
            k3 = f(T + 0.5 * h * k2)
            k4 = f(T + h * k3)
            T += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            lam += h
        assert tensile_stress(law, 1.25) == pytest.approx(T, rel=1e-10)

    def test_slope_closed_form(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        assert tensile_slope(law, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert tensile_slope(law, 2.0) == pytest.approx(math.e, rel=1e-12)
        assert tensile_slope(ExponentialTensileLaw(B=2.0, C=3.0), 1.0) == \
            pytest.approx(3.0, rel=1e-12)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            law = ExponentialTensileLaw(B=rng.uniform(0.1, 5.0),
                                        C=rng.uniform(0.1, 5.0))
            lam = rng.uniform(1.0, 3.0)
            h = 1e-6
            fd = (tensile_stress(law, lam + h)
                  - tensile_stress(law, lam - h)) / (2 * h)
            assert tensile_slope(law, lam) == pytest.approx(fd, rel=1e-6)

    def test_strictly_increasing(self):
        law = ExponentialTensileLaw(B=3.0, C=0.5)
        lam = np.linspace(0.5, 3.0, 200)
        assert np.all(np.diff(tensile_stress(law, lam)) > 0)

    def test_invalid_parameters(self):
        for b, c in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                     (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(DomainError):
                ExponentialTensileLaw(B=b, C=c)

    def test_invalid_stretch(self):
        law = ExponentialTensileLaw(B=1.0, C=1.0)
        with pytest.raises(DomainError):
            tensile_stress(law, 0.0)
        with pytest.raises(DomainError):
            tensile_stress(law, math.nan)

    def test_overflow_guard(self):
        law = ExponentialTensileLaw(B=1000.0, C=1.0)
        with pytest.raises(DomainError, match=r"^exponent B\*\(lambda-1\) "
                           r"must be <= 700\.0, got 1000\.0$"):
            tensile_stress(law, 2.0)

    def test_stretch_at_stress_inverse(self):
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        for lam in (1.0, 1.2, 1.7):
            T = law.stress(lam)
            assert law.stretch_at_stress(T) == pytest.approx(lam, rel=1e-12)


class TestGreenStrain:
    def test_reference_values(self):
        assert green_strain(1.0) == 0.0
        assert green_strain(math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-12)
        assert green_strain(1.2) == pytest.approx(0.22, rel=1e-12)

    def test_inverse_stretch_identity(self):
        lam = 1.7
        assert green_strain(1.0 / lam) == pytest.approx(
            (lam ** -2 - 1.0) / 2.0, rel=1e-12)

    def test_monotone(self):
        lam = np.linspace(0.1, 3.0, 300)
        assert np.all(np.diff(green_strain(lam)) > 0)

    def test_lower_bound_type(self):
        GreenStrainUniaxial(-0.5)
        with pytest.raises(DomainError):
            GreenStrainUniaxial(-0.51)


class TestFungEnergy:
    def test_zero_strain_gives_half_c(self):
        params = FungBiaxialParams(c=3.0, a1=1.0, a2=1.0,
                                   include_quadratic_group=False)
        assert fung_energy(params, BiaxialStrainState(0.0, 0.0)) == 1.5

    def test_exponential_group_value(self):
        params = FungBiaxialParams(c=2.0, a1=1.0,
                                   include_quadratic_group=False)
        w = fung_energy(params, BiaxialStrainState(1.0, 0.0))
        assert w == pytest.approx(math.e, rel=1e-12)

    def test_quadratic_group_value(self):
        params = FungBiaxialParams(alpha1=2.0, c=0.0)
        w = fung_energy(params, BiaxialStrainState(1.0, 0.0))
        assert w == pytest.approx(1.0, rel=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a1, a2 = rng.uniform(0.1, 2.0, 2)
            a4 = rng.uniform(-1.0, 1.0) * math.sqrt(a1 * a2)
            kw = dict(alpha1=rng.uniform(0, 2), alpha2=rng.uniform(0, 2),
                      alpha3=rng.uniform(0, 2), alpha4=rng.uniform(-1, 1),
                      a1=a1, a2=a2, a3=rng.uniform(0, 2), a4=a4,
                      gamma1=rng.uniform(-0.5, 0.5),
                      gamma2=rng.uniform(-0.5, 0.5),
                      gamma4=rng.uniform(-0.5, 0.5),
                      gamma5=rng.uniform(-0.5, 0.5),
                      c=rng.uniform(0.1, 2.0), include_third_order=True)
            p = FungBiaxialParams(**kw)
            swapped = dict(kw)
            swapped.update(alpha1=kw["alpha2"], alpha2=kw["alpha1"],
                           a1=kw["a2"], a2=kw["a1"],
                           gamma1=kw["gamma2"], gamma2=kw["gamma1"],
                           gamma4=kw["gamma5"], gamma5=kw["gamma4"])
            q = FungBiaxialParams(**swapped)
            e11, e22, e12 = rng.uniform(-0.3, 0.5, 3)
            w1 = fung_energy(p, BiaxialStrainState(e11, e22, e12))
            w2 = fung_energy(q, BiaxialStrainState(e22, e11, e12))
            assert w1 == pytest.approx(w2, abs=1e-12, rel=1e-12)

    def test_gammas_zeroed_without_third_order(self):
        p = FungBiaxialParams(c=1.0, a1=1.0, gamma1=0.7, gamma4=0.2,
                              include_third_order=False)
        assert p.gamma1 == 0.0 and p.gamma4 == 0.0

    def test_indefinite_exponent_rejected(self):
        with pytest.raises(DomainError):
            FungBiaxialParams(c=1.0, a1=1.0, a2=1.0, a4=1.5)
        with pytest.raises(DomainError):
            FungBiaxialParams(c=1.0, a1=-1.0)

    def test_overflow_guard(self):
        p = FungBiaxialParams(c=1.0, a1=1e5, include_quadratic_group=False)
        with pytest.raises(DomainError, match=r"^energy exponent Q must be "
                           r"<= 700\.0, got 25000\.0$"):
            fung_energy(p, BiaxialStrainState(0.5, 0.0))


class TestFungStress:
    def test_zero_strain(self):
        p = FungBiaxialParams(alpha1=1.0, alpha2=2.0, alpha3=0.5,
                              a1=1.0, a2=1.0, a3=1.0, c=2.0)
        s = fung_stress(p, BiaxialStrainState(0.0, 0.0, 0.0))
        assert s.S11 == 0.0 and s.S22 == 0.0 and s.S12 == 0.0

    def test_linear_term_only(self):
        p = FungBiaxialParams(alpha1=2.0, c=0.0)
        s = fung_stress(p, BiaxialStrainState(0.5, 0.0))
        assert s.S11 == pytest.approx(1.0, rel=1e-12)
        assert s.S22 == 0.0 and s.S12 == 0.0

    def test_exponential_term_value(self):
        p = FungBiaxialParams(c=2.0, a1=1.0, include_quadratic_group=False)
        s = fung_stress(p, BiaxialStrainState(0.5, 0.0))
        assert s.S11 == pytest.approx(2.0 * 0.5 * math.exp(0.25), rel=1e-12)
        assert s.S22 == 0.0

    def test_gradient_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a1, a2 = rng.uniform(0.1, 2.0, 2)
            a4 = rng.uniform(-0.9, 0.9) * math.sqrt(a1 * a2)
            p = FungBiaxialParams(
                alpha1=rng.uniform(0, 2), alpha2=rng.uniform(0, 2),
                alpha3=rng.uniform(0, 2), alpha4=rng.uniform(-1, 1),
                a1=a1, a2=a2, a3=rng.uniform(0, 2), a4=a4,
                gamma1=rng.uniform(-0.3, 0.3), gamma2=rng.uniform(-0.3, 0.3),
                gamma4=rng.uniform(-0.3, 0.3), gamma5=rng.uniform(-0.3, 0.3),
                c=rng.uniform(0.1, 2.0),
                include_third_order=bool(rng.integers(0, 2)))
            e = rng.uniform(-0.3, 0.5, 3)
            strain = BiaxialStrainState(*e)
            s = fung_stress(p, strain)
            h = 1e-6
            for comp, idx in (("S11", 0), ("S22", 1), ("S12", 2)):
                dp = list(e); dm = list(e)
                dp[idx] += h; dm[idx] -= h
                fd = (fung_energy(p, BiaxialStrainState(*dp))
                      - fung_energy(p, BiaxialStrainState(*dm))) / (2 * h)
                got = getattr(s, comp)
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_symmetric_shear_slots(self):
        s = BiaxialStrainState(0.1, 0.2, 0.3)
        assert s.E21 == s.E12


class TestUniaxialHelpers:
    def test_pk2_from_load(self):
        assert uniaxial_pk2_from_load(0.0, 1.5, 2.0) == 0.0
        assert uniaxial_pk2_from_load(10.0, 1.0, 2.0) == 5.0
        assert uniaxial_pk2_from_load(10.0, 2.0, 2.0) == 2.5

    def test_pk2_invalid_area(self):
        with pytest.raises(DomainError):
            uniaxial_pk2_from_load(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            uniaxial_pk2_from_load(1.0, -1.0, 1.0)

    def test_linear_law(self):
        law = LinearElasticLaw(k=3.0)
        assert law.stress_green(0.2) == pytest.approx(0.6)
        with pytest.raises(DomainError):
            LinearElasticLaw(k=0.0)

    def test_fung_uniaxial_specialization(self):
        p = FungBiaxialParams(c=2.0, a1=1.0, include_quadratic_group=False)
        law = FungUniaxialLaw(p)
        e = 0.3
        expected = fung_stress(p, BiaxialStrainState(e, 0.0)).S11
        assert law.stress_green(e) == pytest.approx(expected, rel=1e-12)
        arr = law.stress_green(np.array([0.1, 0.2]))
        assert arr.shape == (2,)


def exponential_laws():
    return st.builds(ExponentialTensileLaw, B=st.floats(0.5, 20.0),
                     C=st.floats(0.5, 5.0))


def linear_laws():
    return st.builds(LinearElasticLaw, k=st.floats(0.5, 5.0))


@st.composite
def fung_laws(draw):
    a1 = draw(st.floats(0.5, 5.0))
    third = draw(st.booleans())
    return FungUniaxialLaw(FungBiaxialParams(
        c=draw(st.floats(0.1, 2.0)), a1=a1,
        alpha1=draw(st.floats(0.0, 2.0)),
        gamma1=draw(st.floats(0.0, a1 / 2)) if third else 0.0,
        include_third_order=third))


class TestGreenAtStress:
    @settings(max_examples=150, deadline=None)
    @given(law=st.one_of(exponential_laws(), linear_laws(), fung_laws()),
           strains=st.lists(st.floats(-0.45, 1.5), min_size=1, max_size=20))
    def test_round_trip(self, law, strains):
        T = np.asarray(law.stress_green(np.asarray(strains)))
        tol = 1e-12 * (1.0 + np.abs(T))
        E = law.green_at_stress(T)
        assert np.asarray(E).shape == T.shape
        assert np.all(np.abs(law.stress_green(E) - T) <= tol)
        e0 = law.green_at_stress(float(T[0]))
        assert np.ndim(e0) == 0
        assert abs(float(law.stress_green(e0)) - T[0]) <= tol[0]

    def test_exponential_below_range_rejected(self):
        law = ExponentialTensileLaw(B=2.0, C=3.0)
        with pytest.raises(DomainError):
            law.green_at_stress([1.0, -1.5])

    def test_fung_outside_range_rejected(self):
        law = FungUniaxialLaw(FungBiaxialParams(c=0.2, a1=4.0, alpha1=1.0))
        with pytest.raises(DomainError):
            law.green_at_stress(law.stress_green(-0.5) - 1.0)
        with pytest.raises(DomainError):
            FungUniaxialLaw(FungBiaxialParams()).green_at_stress(1.0)
