"""Unit-speed flow stepping, foliation bookkeeping, and decay constants."""

import dataclasses

import numpy as np
import pytest

from diagnostics import evolution_diagnostics
from penlab.energy import Scenario, penrose_report
from penlab.flow import (
    FlowConfig,
    FlowError,
    compute_constants,
    drift_fields,
    flow_speed,
    lagrange3,
    neighbour_windows,
    run_flow,
    step_flow,
)
from penlab.oracle import round_flow_u, schwarzschild_rho
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import curved_geometry, perturbed_surface, round_surface


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(16, 32)


@pytest.fixture(scope="module")
def schw():
    return make_reference("schwarzschild", m=1.0)


@pytest.fixture(scope="module")
def schw_profile(schw):
    return isothermal_profile(schw, np.geomspace(2.02, 800.0, 500))


@pytest.fixture(scope="module")
def flat_ref():
    r = np.linspace(0.05, 400.0, 800)
    ones = np.ones_like(r)
    return make_reference("tabulated", tabulated_data=(r, ones, ones))


@pytest.fixture(scope="module")
def flat_profile(flat_ref):
    return isothermal_profile(flat_ref, np.linspace(0.05, 400.0, 800))


# ----------------------------------------------------------------- stepping

def test_flat_round_unit_speed(grid, flat_profile):
    surf = round_surface(grid, 1.0)
    assert flow_speed(surf, flat_profile) == pytest.approx(1.0, abs=1e-12)
    stepped, info = step_flow(surf, flat_profile, 0.1)
    assert stepped.G == pytest.approx(1.1, abs=1e-12)
    # a round surface has no tangential drift
    assert info["cfl"] < 1e-12


def test_schwarzschild_round_speed(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    assert rho0 == pytest.approx(2.9142136, abs=1e-7)
    speed = flow_speed(round_surface(grid, rho0), schw_profile)
    assert speed == pytest.approx(0.7285534, abs=1e-7)


def test_step_rejects_vanishing_radius(grid, flat_profile):
    surf = round_surface(grid, 1.0)
    with pytest.raises(FlowError, match="G > 0|star-shapedness"):
        step_flow(surf, flat_profile, -1.0005)


def test_cfl_flag_on_oversized_step(grid, flat_profile):
    surf = perturbed_surface(grid, 1.0, {(2, 0): 0.3})
    _, big = step_flow(surf, flat_profile, 5.0)
    _, small = step_flow(surf, flat_profile, 0.01)
    # ds times first-stage drift rates of the input surface: linear in ds
    assert big["cfl"] == pytest.approx(500.0 * small["cfl"], rel=1e-12)
    assert big["cfl"] > 1.0 > small["cfl"]


def test_cfl_measures_the_marched_drift(grid, schw_profile):
    # the CFL number and the lapse march's advection share one drift τ
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 4.0),
                             {(2, 0): 0.05, (3, 2): 0.01})
    ds = 0.05
    _, info = step_flow(surf, schw_profile, ds)
    tau_t, tau_p = drift_fields(curved_geometry(surf, schw_profile))
    expected = ds * (np.max(np.abs(tau_t)) / np.min(np.diff(grid.theta))
                     + np.max(np.abs(tau_p)) / (2.0 * np.pi / grid.n_phi))
    assert info["cfl"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("store_every", [2.5, 0.5, np.inf, np.nan, 0])
def test_config_store_every_whole_number(store_every):
    # k % 2.5 == 0 would store every 5th step, and NaN or inf none
    with pytest.raises(ValueError, match="store_every"):
        FlowConfig(ds=0.01, s_max=10.0, store_every=store_every)
    assert FlowConfig(ds=0.01, s_max=10.0, store_every=2.0).store_every == 2


# ----------------------------------------------------------------- full runs

def test_round_flow_matches_reduced_ode(grid, schw, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    fol = run_flow(round_surface(grid, rho0), schw_profile,
                   FlowConfig(ds=0.05, s_max=20.0, store_every=40))
    states, _ = round_flow_u(schw, 4.0, 1.0, 20.0, n_samples=11)
    assert len(fol) == 11
    for i, st in enumerate(states):
        assert fol.s[i] == pytest.approx(st.s, abs=1e-12)
        r_num = float(np.mean(fol.geometry(i).r))
        assert r_num == pytest.approx(st.r, abs=1e-8)
        G = fol.surfaces[i].G
        assert np.max(np.abs(G - np.mean(G))) < 1e-10
    assert not fol.aborted


def test_flat_round_run_is_linear(grid, flat_profile):
    fol = run_flow(round_surface(grid, 1.0), flat_profile,
                   FlowConfig(ds=0.1, s_max=0.3, store_every=1))
    assert fol.s == pytest.approx([0.0, 0.1, 0.2, 0.3])
    for s, surf in zip(fol.s, fol.surfaces):
        assert surf.G == pytest.approx(1.0 + s, abs=1e-13)


def test_unit_lapse_residual_small_window(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    fol = run_flow(round_surface(grid, rho0), schw_profile,
                   FlowConfig(ds=0.01, s_max=0.05, store_every=1))
    for summary in fol.summaries[1:]:
        assert summary["unit_lapse_residual"] < 1e-5


def test_run_aborts_on_bad_initial_surface(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    surf = perturbed_surface(grid, rho0, {(2, 0): 0.45})
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=0.05, s_max=1.0, store_every=1))
    assert fol.aborted
    assert "fails" in fol.abort_reason
    assert len(fol) == 1


def test_run_raises_when_leaving_coverage(grid, schw):
    short = isothermal_profile(schw, np.geomspace(2.05, 6.0, 120))
    rho0 = schwarzschild_rho(1.0, 4.0)
    with pytest.raises(FlowError, match="profile range"):
        run_flow(round_surface(grid, rho0), short,
                 FlowConfig(ds=0.1, s_max=10.0, store_every=10))


def test_perturbed_run_keeps_conditions(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    surf = perturbed_surface(grid, rho0, {(2, 0): 0.2})
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=0.05, s_max=2.0, store_every=10))
    assert not fol.aborted
    # the flow rounds surfaces out, so the angle margin improves
    assert fol.summaries[-1]["angle_margin"] > fol.summaries[0]["angle_margin"]
    assert len(fol) == 5
    assert all(summary["passed"] for summary in fol.summaries)


def test_default_flow_step_error_below_march_error():
    # at Scenario's default ds, a 20x finer flow at the same spacing and
    # dt_max moves u at least 100x less than a 4x finer lapse march does
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2, r0=6.0,
                  perturbation={(2, 1): 0.01, (3, 3): 0.005},
                  n_theta=8, n_phi=16, s_max=2.0)
    base = penrose_report(sc)
    fine_flow = penrose_report(dataclasses.replace(
        sc, ds=sc.ds / 20, store_every=20 * sc.store_every))
    fine_march = penrose_report(dataclasses.replace(sc, dt_max=sc.dt_max / 4))

    def max_du(other):
        assert np.allclose(other.foliation.s, base.foliation.s, atol=1e-12)
        return max(float(np.max(np.abs(a - b)))
                   for a, b in zip(other.ufield.u, base.ufield.u))

    flow_err, march_err = max_du(fine_flow), max_du(fine_march)
    assert 0.0 < 100.0 * flow_err <= march_err


# ------------------------------------------------------------- diagnostics

def test_diagnostics_flat_round(grid, flat_profile):
    fol = run_flow(round_surface(grid, 1.0), flat_profile,
                   FlowConfig(ds=1e-3, s_max=5e-3, store_every=1))
    diag = evolution_diagnostics(fol)
    assert diag["radial_rate"]["max_residual"] < 1e-10
    assert diag["mean_curvature_rate"]["max_residual"] < 1e-5
    assert diag["angle_rate"]["min_margin"] > -1e-9
    assert diag["convexity_rate"]["min_margin"] > -1e-8
    assert diag["second_form_rate"]["max_residual"] < 1e-8


def test_diagnostics_schwarzschild_perturbed(schw_profile):
    grid = SphereGrid(24, 48)
    rho0 = schwarzschild_rho(1.0, 4.0)
    surf = perturbed_surface(grid, rho0, {(2, 0): 0.1})
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=1e-3, s_max=5e-3, store_every=1))
    diag = evolution_diagnostics(fol)
    assert diag["radial_rate"]["max_residual"] < 1e-6
    assert diag["mean_curvature_rate"]["max_residual"] < 1e-6
    assert diag["angle_rate"]["min_margin"] > 0.0
    assert diag["convexity_rate"]["min_margin"] > 0.0
    assert diag["second_form_rate"]["max_residual"] < 1e-5


def test_diagnostics_skip_second_form_off_axis(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    surf = perturbed_surface(grid, rho0, {(2, 1): 0.05})
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=1e-3, s_max=4e-3, store_every=1))
    diag = evolution_diagnostics(fol)
    assert "skipped" in diag["second_form_rate"]
    assert diag["radial_rate"]["max_residual"] < 1e-6


def test_diagnostics_uneven_last_interval(grid, schw_profile):
    # stored s = 0, .002, .004, .005: the window around s = .004 is uneven
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 4.0), {(2, 0): 0.05})
    fol = run_flow(surf, schw_profile,
                   FlowConfig(ds=1e-3, s_max=5e-3, store_every=2))
    assert np.allclose(fol.s, [0.0, 0.002, 0.004, 0.005], atol=1e-15)
    diag = evolution_diagnostics(fol)
    assert diag["radial_rate"]["max_residual"] < 1e-6
    assert diag["mean_curvature_rate"]["max_residual"] < 1e-6
    assert diag["second_form_rate"]["max_residual"] < 1e-5


def test_diagnostics_need_three_slices(grid, flat_profile):
    fol = run_flow(round_surface(grid, 1.0), flat_profile,
                   FlowConfig(ds=0.1, s_max=0.1, store_every=1))
    with pytest.raises(ValueError, match="3 stored slices"):
        evolution_diagnostics(fol)


def test_neighbour_windows_clip_and_pull_once():
    pulled = []

    def items():
        for i in range(5):
            pulled.append(i)
            yield i

    windows = list(neighbour_windows(items()))
    assert windows == [(0, 1, 2), (0, 1, 2), (1, 2, 3), (2, 3, 4), (2, 3, 4)]
    assert pulled == [0, 1, 2, 3, 4]
    assert list(neighbour_windows("abc")) == [tuple("abc")] * 3


def test_lagrange3_exact_on_uneven_nodes():
    nodes = (0.3, 0.4, 0.46)

    def f(s):
        return 2.0 - 3.0 * s + 5.0 * s**2

    for t in (*nodes, 0.37, 0.5):
        values, slopes = lagrange3(nodes, t)
        assert sum(w * f(s) for w, s in zip(values, nodes)) == pytest.approx(
            f(t), abs=1e-13)
        assert sum(w * f(s) for w, s in zip(slopes, nodes)) == pytest.approx(
            -3.0 + 10.0 * t, abs=1e-11)
    assert lagrange3(nodes, nodes[1])[0] == (0.0, 1.0, 0.0)


# ---------------------------------------------------------------- constants

def test_constants_schwarzschild(schw):
    prof = isothermal_profile(schw, np.geomspace(2.0005, 800.0, 700))
    out = compute_constants(prof)
    assert out["C3"] == pytest.approx(1.0, rel=1e-12)
    assert not out["details"]["C3"]["tail_flag"]

    # the slope field peaks at the inner cut; check against the closed form
    rho_lo = out["details"]["rho_range"][0]
    r_lo = prof.r_of_rho(rho_lo)
    expected_c4 = (1.0 - np.sqrt(schw.phi(r_lo))) / rho_lo * (rho_lo**2 + 1.0)
    assert out["C4"] == pytest.approx(expected_c4, rel=1e-9)
    assert 2.4 < out["C4"] < 2.5

    assert out["C5"] == pytest.approx(2.0, rel=1e-12)
    assert out["details"]["C5"]["grid_max"] < 2.0

    assert out["angle_bound"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    assert out["C1"] == pytest.approx(np.sqrt(3.0) * out["C4"], rel=1e-12)
    assert out["C2"] == pytest.approx(
        max(out["C3"] / np.sqrt(1.0 - 1.0 / 3.0),
            np.sqrt(3.0) * out["C4"], np.sqrt(3.0) * out["C5"]), rel=1e-12)


def test_constants_flat_all_zero(flat_profile):
    out = compute_constants(flat_profile)
    for key in ("C1", "C2", "C3", "C4", "C5", "angle_bound"):
        assert out[key] == 0.0


def test_constants_reissner_nordstrom():
    rn = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    prof = isothermal_profile(rn, np.geomspace(1.87, 800.0, 600))
    out = compute_constants(prof)
    assert out["C3"] == pytest.approx(1.0, rel=1e-12)
    assert out["C5"] == pytest.approx(2.0, rel=1e-12)

    r_lo = prof.r_of_rho(out["details"]["rho_range"][0])
    expected_angle = np.sqrt(1.0 / (3.0 - 2.0 * 0.25 / r_lo))
    assert out["angle_bound"] == pytest.approx(expected_angle, rel=1e-6)
    # the alternative cone bound is strictly tighter for e != 0
    assert out["angle_bound_variant"] < out["angle_bound"]
    assert np.isfinite(out["C2"]) and out["C2"] > 0.0
