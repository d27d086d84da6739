import dataclasses

import numpy as np
import pytest

from diagnostics import (potential_at, ricci_eigenvalues, ricci_normal,
                         scalar_curvature, t_function)
from penlab.refgeom import ConformalProfile, isothermal_profile, make_reference


@pytest.fixture(scope="module")
def schw():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def rn():
    return make_reference("reissner_nordstrom", m=1.0, e=0.5)


@pytest.fixture(scope="module")
def flat():
    r = np.linspace(0.5, 200.0, 400)
    return make_reference("tabulated",
                          tabulated_data=(r, np.ones_like(r), np.ones_like(r)))


# ----------------------------------------------------------------- kinds

def test_schwarzschild_basics(schw):
    assert schw.r_horizon == pytest.approx(2.0)
    assert schw.phi(4.0) == pytest.approx(0.5)
    assert potential_at(schw, 4.0)[0] == pytest.approx(0.7071068, abs=1e-7)


def test_rn_horizon(rn):
    assert rn.r_horizon == pytest.approx(1.8660254, abs=1e-7)


def test_extremal_violation():
    with pytest.raises(ValueError, match="extremal"):
        make_reference("reissner_nordstrom", m=1.0, e=1.1)


def test_nonpositive_mass():
    with pytest.raises(ValueError):
        make_reference("schwarzschild", m=0.0)


def test_tabulated_validation():
    r = np.array([1.0, 2.0, 1.5, 3.0])
    with pytest.raises(ValueError, match="increasing"):
        make_reference("tabulated", tabulated_data=(r, r * 0 + 1, r * 0 + 1))
    r = np.linspace(1, 5, 10)
    with pytest.raises(ValueError, match="positive"):
        make_reference("tabulated", tabulated_data=(r, -np.ones(10), np.ones(10)))


def test_tabulated_matches_analytic(schw):
    r = np.geomspace(2.5, 120.0, 800)
    tab = make_reference("tabulated",
                         tabulated_data=(r, schw.phi(r), np.sqrt(schw.phi(r))))
    rq = np.linspace(3.0, 100.0, 50)
    assert np.allclose(tab.phi(rq), schw.phi(rq), atol=1e-9)
    assert np.allclose(potential_at(tab, rq)[1], potential_at(schw, rq)[1],
                       atol=1e-6)
    # data whose V falls somewhere past r = 10 gives a falling dV/dr there
    r = np.linspace(3.0, 30.0, 200)
    V = 1 - np.exp(-r / 3) + 0.1 * np.exp(-((r - 15.0) ** 2))
    bumpy = make_reference("tabulated", tabulated_data=(r, np.full_like(r, 0.9), V))
    rq = np.linspace(5.0, 25.0, 60)
    dV = potential_at(bumpy, rq)[1]
    assert dV.min() < 0 and 10.0 < rq[dV.argmin()] < 25.0


def test_domain_guard(schw):
    with pytest.raises(ValueError):
        schw.require_exterior(1.9)
    with pytest.raises(ValueError):
        scalar_curvature(schw, 2.0)


# ------------------------------------------------------------- curvature

def test_ricci_schwarzschild(schw):
    lam_rad, lam_tan = ricci_eigenvalues(schw, 4.0)
    assert lam_rad == pytest.approx(-0.03125, abs=1e-12)
    assert lam_tan == pytest.approx(0.015625, abs=1e-12)
    assert scalar_curvature(schw, 4.0) == pytest.approx(0.0, abs=1e-15)
    # V increases and the radial eigenvalue stays negative outside the horizon
    r = np.geomspace(2.2, 50.0, 25)
    assert np.all(potential_at(schw, r)[1] > 0)
    assert np.all(ricci_eigenvalues(schw, r)[0] < 0)


def test_ricci_rn(rn):
    lam_rad, lam_tan = ricci_eigenvalues(rn, 4.0)
    assert lam_rad == pytest.approx(-2 / 64 + 2 * 0.25 / 256, abs=1e-12)
    assert lam_rad == pytest.approx(-0.029297, abs=1e-6)
    # tangential eigenvalue is exactly m/r³ for this family
    assert lam_tan == pytest.approx(1 / 64, abs=1e-14)
    r = np.geomspace(2.0, 50.0, 25)
    assert np.all(potential_at(rn, r)[1] > 0)
    assert np.all(ricci_eigenvalues(rn, r)[0] < 0)


def test_ricci_flat(flat):
    lam_rad, lam_tan = ricci_eigenvalues(flat, 10.0)
    assert abs(lam_rad) < 1e-10 and abs(lam_tan) < 1e-10


def test_scalar_curvature_rn(rn):
    assert scalar_curvature(rn, 4.0) == pytest.approx(2 * 0.25 / 256, rel=1e-12)
    assert scalar_curvature(rn, 4.0) == pytest.approx(0.001953125, rel=1e-12)
    assert scalar_curvature(rn, 2.0) == pytest.approx(0.03125, rel=1e-12)


# ------------------------------------------------------------ t_function

def test_t_vanishes_in_vacuum(schw):
    r = np.linspace(2.2, 50, 40)
    c = np.linspace(0, 1, 11)
    rr, cc = np.meshgrid(r, c)
    assert np.max(np.abs(t_function(schw, rr, cc))) < 1e-13
    # so T meets both bounds 0 <= T <= R with R = 0
    assert np.max(np.abs(scalar_curvature(schw, rr))) < 1e-13


def test_t_rn_closed_form(rn):
    # potential-Hessian definition: vanishes radially, peaks tangentially;
    # the complement R − T carries the cos²θ profile
    r = np.geomspace(2.0, 50, 100)
    c = np.linspace(0, 1, 20)
    rr, cc = np.meshgrid(r, c, indexing="ij")
    T = t_function(rn, rr, cc)
    R = scalar_curvature(rn, rr)
    expected = 2 * 0.25 * (1 - cc**2) / rr**4
    assert np.max(np.abs(T - expected)) < 1e-8 * np.max(np.abs(expected))
    comp = 2 * 0.25 * cc**2 / rr**4
    assert np.max(np.abs((R - T) - comp)) < 1e-8 * np.max(np.abs(comp))
    assert np.all(T >= -1e-15) and np.all(R - T >= -1e-15)


def test_t_radial_zero_any_reference(rn, schw):
    for ref in (rn, schw):
        r = np.linspace(ref.r_horizon + 0.3, 30, 25)
        assert np.max(np.abs(t_function(ref, r, 1.0))) < 1e-13


def test_ricci_normal_interpolates(rn):
    lam_rad, lam_tan = ricci_eigenvalues(rn, 4.0)
    assert ricci_normal(rn, 4.0, 1.0) == pytest.approx(lam_rad, rel=1e-14)
    assert ricci_normal(rn, 4.0, 0.0) == pytest.approx(lam_tan, rel=1e-14)


# --------------------------------------------------------------- profile

@pytest.fixture(scope="module")
def schw_profile(schw):
    return isothermal_profile(schw, np.geomspace(2.2, 300.0, 40))


def closed_form_rho(m, r, e=0.0):
    # isotropic radius of Reissner–Nordström (Schwarzschild at e = 0)
    return (r - m + np.sqrt((r - m)**2 - m**2 + e**2)) / 2.0


def test_profile_closed_form(schw, schw_profile):
    r = np.geomspace(2.5, 100.0, 200)
    rho = schw_profile.rho_of_r(r)
    assert np.max(np.abs(rho / closed_form_rho(1.0, r) - 1)) < 1e-8


def test_profile_examples(schw_profile):
    assert schw_profile.rho_of_r(4.0) == pytest.approx(2.9142136, abs=1e-6)
    assert schw_profile.rho_of_r(3.0) == pytest.approx(1.8660254, abs=1e-6)
    F4 = schw_profile.radial_factors(schw_profile.rho_of_r(4.0)).F
    assert F4 == pytest.approx(1.1715729, abs=1e-6)
    assert F4 == pytest.approx(1 + 1 / (2 * 2.9142136), abs=1e-7)


def test_profile_area_radius_identity(schw_profile):
    r = np.geomspace(2.3, 250.0, 64)
    rho = schw_profile.rho_of_r(r)
    F = schw_profile.radial_factors(rho).F
    assert np.max(np.abs(rho * F**2 / r - 1)) < 1e-8


def test_profile_inverse_roundtrip(schw_profile):
    r = np.geomspace(2.4, 200.0, 33)
    assert np.allclose(schw_profile.r_of_rho(schw_profile.rho_of_r(r)), r,
                       rtol=1e-11)


def test_profile_rho_minus_r_bounded(schw_profile):
    r = np.geomspace(2.3, 290.0, 100)
    diff = schw_profile.rho_of_r(r) - r
    # widest near the horizon (ρ_h − r_h = m/2 − 2m), settles to −m far out
    assert np.all(np.abs(diff) < 1.5)
    assert diff[-1] == pytest.approx(-1.0, abs=0.01)


def test_profile_derivatives_match_fd(schw_profile):
    rho = np.linspace(1.5, 60.0, 23)
    h = 1e-5
    def factor(name):
        return lambda x: getattr(schw_profile.radial_factors(x), name)

    def h_of(x):
        return x / schw_profile.r_of_rho(x)  # h = 1/F² = ρ/r

    for fn, dfn in ((factor("F"), factor("dF")), (h_of, factor("dh")),
                    (factor("dF"), factor("d2F")), (factor("dh"), factor("d2h"))):
        fd = (fn(rho + h) - fn(rho - h)) / (2 * h)
        assert np.allclose(dfn(rho), fd, rtol=1e-6, atol=1e-9)


def test_profile_F_decreasing(schw_profile):
    rho = np.linspace(1.2, 100.0, 50)
    assert np.all(schw_profile.radial_factors(rho).dF < 0)


def test_profile_schwarzschild_F_closed_form(schw_profile):
    # in the vacuum reference F = 1 + m/(2ρ)
    rho = np.linspace(1.5, 80.0, 30)
    assert np.allclose(schw_profile.radial_factors(rho).F, 1 + 0.5 / rho,
                       rtol=1e-9)


def test_profile_flat_identity(flat):
    prof = isothermal_profile(flat, np.linspace(1.0, 100.0, 30))
    r = np.linspace(1.5, 90.0, 17)
    assert np.allclose(prof.rho_of_r(r), r, rtol=1e-12)
    assert np.allclose(prof.radial_factors(r).F, 1.0, rtol=1e-12)


def test_profile_horizon_guard(schw):
    with pytest.raises(ValueError, match="horizon"):
        isothermal_profile(schw, np.linspace(2.0, 10.0, 5))


def test_profile_rn(rn):
    prof = isothermal_profile(rn, np.geomspace(2.0, 200.0, 30))
    r = np.geomspace(2.1, 150.0, 40)
    rho = prof.rho_of_r(r)
    radial = prof.radial_factors(rho)
    assert np.max(np.abs(rho * radial.F**2 / r - 1)) < 1e-9
    assert np.all(radial.dF < 0)


@pytest.mark.parametrize("kind", ["schwarzschild", "reissner_nordstrom",
                                  "tabulated"])
def test_radial_factors_match_per_quantity_methods(kind, schw, rn,
                                                   monkeypatch):
    if kind == "tabulated":
        r_t = np.geomspace(2.5, 120.0, 300)
        ref = make_reference("tabulated", tabulated_data=(
            r_t, 1.0 - 2.0 / r_t, np.sqrt(1.0 - 2.0 / r_t)))
        prof = isothermal_profile(ref, np.geomspace(2.6, 110.0, 50))
    else:
        ref = schw if kind == "schwarzschild" else rn
        prof = isothermal_profile(ref, np.geomspace(2.1, 150.0, 50))
    # a grid-shaped argument, as the surface geometry passes it
    rho = np.geomspace(prof.rho_lo * 1.01, prof.rho_hi * 0.99, 24).reshape(4, 6)

    calls = []
    inverse = ConformalProfile.r_of_rho
    monkeypatch.setattr(ConformalProfile, "r_of_rho",
                        lambda self, x: calls.append(1) or inverse(self, x))
    out = prof.radial_factors(rho)
    assert len(calls) == 1

    # F in closed form from r; the ρ-derivatives are checked against
    # finite differences in test_profile_derivatives_match_fd
    r = prof.r_of_rho(rho)
    expected = {"r": r, "F": np.sqrt(r / rho)}
    for name in out._fields:
        assert getattr(out, name).shape == rho.shape, name
    for name, want in expected.items():
        assert np.array_equal(getattr(out, name), want), name


def tabulated_schwarzschild():
    r_t = np.geomspace(2.5, 120.0, 300)
    return make_reference("tabulated", tabulated_data=(
        r_t, 1.0 - 2.0 / r_t, np.sqrt(1.0 - 2.0 / r_t)))


@pytest.mark.parametrize("kind", ["schwarzschild", "reissner_nordstrom",
                                  "tabulated"])
def test_profile_roundtrip_tight(kind, schw, rn):
    if kind == "tabulated":
        prof = isothermal_profile(tabulated_schwarzschild(),
                                  np.geomspace(2.6, 110.0, 50))
    else:
        ref = schw if kind == "schwarzschild" else rn
        prof = isothermal_profile(ref, np.geomspace(2.0005, 800.0, 700))
    r = np.geomspace(prof.r_lo, prof.r_hi, 301)
    assert np.max(np.abs(prof.r_of_rho(prof.rho_of_r(r)) / r - 1)) <= 1e-12


def test_profile_near_horizon_end(schw):
    prof = isothermal_profile(schw, np.geomspace(2.0005, 800.0, 700))
    assert abs(prof.r_of_rho(prof.rho_lo) / 2.0005 - 1) <= 1e-12


def test_profile_schwarzschild_closed_form_tight(schw):
    prof = isothermal_profile(schw, np.geomspace(2.02, 200.0, 500))
    r = np.geomspace(2.02, 200.0, 400)
    rho = closed_form_rho(1.0, r)
    assert np.max(np.abs(prof.rho_of_r(r) / rho - 1)) <= 1e-11
    assert np.max(np.abs(prof.r_of_rho(rho) / r - 1)) <= 1e-11


@pytest.mark.parametrize("m, e", [(1.0, 0.0), (1.0, 0.5)])
def test_profile_exact_isotropic_radius(m, e):
    kind = "schwarzschild" if e == 0.0 else "reissner_nordstrom"
    ref = make_reference(kind, m=m, e=e)
    prof = isothermal_profile(ref, np.geomspace(1.0005 * ref.r_horizon, 800.0,
                                                700))
    r = np.geomspace(prof.r_lo, prof.r_hi, 401)
    rho = closed_form_rho(m, r, e)
    assert np.max(np.abs(prof.rho_of_r(r) / rho - 1)) <= 1e-12
    assert np.max(np.abs(prof.r_of_rho(rho) / r - 1)) <= 1e-12


def test_tail_anchor_closed_form_matches_quadrature():
    # the outer anchor y = ln(ρ/r) is the isotropic radius in closed form;
    # the quadrature of −(1/√φ − 1)/t over [r, ∞) it replaced agrees
    from scipy.integrate import quad

    import penlab.refgeom as refgeom

    assert not hasattr(refgeom, "quad")
    for m, e in ((0.3, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 0.99)):
        kind = "schwarzschild" if e == 0.0 else "reissner_nordstrom"
        ref = make_reference(kind, m=m, e=e)
        for r in (2.5, 9.0, 66.0):
            def integrand(x):
                return (1.0 / np.sqrt(ref.phi(r / x)) - 1.0) / x

            val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12,
                          limit=200)
            assert abs(refgeom._tail_anchor(ref, r) + val) <= 1e-15


def test_r_of_rho_calls_no_phi(schw):
    calls = [0]

    def phi(r):
        calls[0] += 1
        return schw.phi(r)

    prof = isothermal_profile(dataclasses.replace(schw, phi=phi),
                              np.geomspace(2.1, 150.0, 50))
    rho = np.geomspace(prof.rho_lo, prof.rho_hi, 64)
    calls[0] = 0
    prof.r_of_rho(rho)
    assert calls[0] == 0

