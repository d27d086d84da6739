import numpy as np
import pytest

from diagnostics import exact_schwarzschild_u, scalar_curvature, t_function
from penlab import oracle
from penlab.refgeom import make_reference


@pytest.fixture(scope="module")
def schw():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def rn():
    return make_reference("reissner_nordstrom", m=1.0, e=0.5)


def test_einstein_route_matches_potential_route(rn, schw):
    r = np.geomspace(2.2, 80.0, 60)
    c = np.linspace(0.0, 1.0, 13)
    rr, cc = np.meshgrid(r, c)
    for ref in (schw, rn):
        lhs = t_function(ref, rr, cc)
        rhs = oracle.t_from_einstein(ref, rr, cc)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_einstein_route_complement(rn):
    r = np.geomspace(2.2, 40.0, 30)
    T_rad = oracle.t_from_einstein(rn, r, 1.0)
    T_tan = oracle.t_from_einstein(rn, r, 0.0)
    R = scalar_curvature(rn, r)
    assert np.allclose(T_rad, 0.0, atol=1e-14)
    assert np.allclose(T_tan, R, rtol=1e-12)


# ------------------------------------------------------------ round flow

def test_round_flow_fixed_point(schw):
    states, E = oracle.round_flow_u(schw, 4.0, 1.0, 10.0)
    assert all(abs(st.u - 1.0) < 1e-12 for st in states)
    assert np.max(np.abs(E)) < 1e-12


def test_round_flow_initial_slopes(schw):
    # short window so the forward difference resolves the s=0 slope
    states, E = oracle.round_flow_u(schw, 4.0, 1.2, 2e-5, n_samples=2)
    du = (states[1].u - states[0].u) / (states[1].s - states[0].s)
    assert du == pytest.approx(-0.0933381, abs=1e-5)
    assert E[0] == pytest.approx(1.0 / 3.0, rel=1e-10)
    dr = (states[1].r - states[0].r) / (states[1].s - states[0].s)
    assert dr == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_round_flow_u_below_one_rises(schw):
    states, E = oracle.round_flow_u(schw, 4.0, 0.8944272, 0.002, n_samples=3)
    du = (states[1].u - states[0].u) / (states[1].s - states[0].s)
    assert du == pytest.approx(0.0316, abs=2e-4)
    assert E[0] < 0  # below-one u means negative energy integrand


def test_round_flow_monotone_decay(schw):
    states, E = oracle.round_flow_u(schw, 4.0, 1.2, 60.0)
    u = np.array([st.u for st in states])
    assert np.all(np.diff(u) < 0) and u[-1] > 1.0
    assert np.all(np.diff(E) < 1e-12)
    s = np.array([st.s for st in states])
    decay = s[1:] * np.abs(u[1:] - 1.0)
    # s·|u−1| settles to an O(1) constant
    assert decay[-1] < 3.0 and abs(decay[-1] - decay[-5]) < 0.02


def test_exact_family_solves_reduction(schw):
    # u*(r) = √(φ_m/φ_M) must satisfy du/ds = (u−u³)c/H0 along dr/ds = √φ_m
    M, m = 1.2, 1.0
    r = np.linspace(3.0, 200.0, 500)
    u = exact_schwarzschild_u(M, m, r)
    pm = 1 - 2 * m / r
    pM = 1 - 2 * M / r
    dudr = (m - M) / (r**2 * pM**1.5 * np.sqrt(pm))  # d/dr √(pm/pM)
    lhs = np.sqrt(pm) * dudr
    c = pm / r**2 + (2 * m / r**2) / r
    H0 = 2 * np.sqrt(pm) / r
    rhs = (u - u**3) * c / H0
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_round_flow_matches_exact_family(schw):
    M, m = 1.2, 1.0
    u0 = exact_schwarzschild_u(M, m, 4.0)
    states, E = oracle.round_flow_u(schw, 4.0, float(u0), 80.0)
    r = np.array([st.r for st in states])
    u = np.array([st.u for st in states])
    assert np.max(np.abs(u - exact_schwarzschild_u(M, m, r))) < 1e-9
    # E(s) = r(φ_m − √(φ_m φ_M)), decreasing to M − m
    pm = 1 - 2 * m / r
    pM = 1 - 2 * M / r
    assert np.max(np.abs(E - r * (pm - np.sqrt(pm * pM)))) < 1e-9
    assert E[0] == pytest.approx(0.2111456, abs=1e-7)
    assert E[-1] > M - m
    assert E[-1] == pytest.approx(M - m, abs=5e-3)


# ------------------------------------------------------------ closed form

def test_scenario_closed_form_flagship():
    out = oracle.scenario_closed_form(1.2, 1.0, 4.0)
    assert out["LHS"] == pytest.approx(0.2111456, abs=1e-7)
    assert out["RHS"] == pytest.approx(0.2, abs=1e-15)


def test_scenario_equality_case():
    out = oracle.scenario_closed_form(1.0, 1.0, 5.0)
    assert out["LHS"] == 0.0 and out["RHS"] == 0.0


def test_scenario_large_sphere_limit():
    out = oracle.scenario_closed_form(1.2, 1.0, 1000.0)
    assert out["LHS"] == pytest.approx(0.2, abs=5e-5)


def test_scenario_guards():
    with pytest.raises(ValueError):
        oracle.scenario_closed_form(1.2, 1.0, 2.2)
    with pytest.raises(ValueError):
        oracle.scenario_closed_form(0.9, 1.0, 10.0)


def test_scenario_inequality_sweep():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = rng.uniform(0.1, 2.0)
        M = m + rng.uniform(0.0, 3.0)
        r0 = 2 * M + rng.uniform(0.05, 10000.0)
        out = oracle.scenario_closed_form(M, m, r0)
        assert out["LHS"] >= out["RHS"] - 1e-12, (M, m, r0)


def test_schwarzschild_rho_closed_form():
    assert oracle.schwarzschild_rho(1.0, 4.0) == pytest.approx(2.9142136, abs=1e-7)
