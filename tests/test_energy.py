"""Energy series, the rate identity, extrapolation, and scenario verdicts."""

import numpy as np
import pytest

import penlab.energy
from diagnostics import nonincreasing
from penlab.bartnik import UField, solve_u
from penlab.energy import (EnergyTrace, Scenario, _hypothesis_block,
                           adm_extrapolate, monotonicity_check,
                           penrose_report, quasilocal_energy)
from penlab.flow import FlowConfig, FlowError, run_flow
from penlab.oracle import scenario_closed_form, schwarzschild_rho
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import curved_geometry, round_surface


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(16, 32)


@pytest.fixture(scope="module")
def schw_profile():
    ref = make_reference("schwarzschild", m=1.0)
    return isothermal_profile(ref, np.geomspace(2.02, 800.0, 500))


@pytest.fixture(scope="module")
def round_geom(grid, schw_profile):
    rho0 = schwarzschild_rho(1.0, 4.0)
    return curved_geometry(round_surface(grid, rho0), schw_profile)


def run_round(grid, profile, ds, s_max, store_every=1):
    rho0 = schwarzschild_rho(1.0, 4.0)
    return run_flow(round_surface(grid, rho0), profile,
                    FlowConfig(ds=ds, s_max=s_max, store_every=store_every))


def test_energy_closed_forms(round_geom):
    # V*H0 = 2*phi/r on the coordinate sphere makes these exact
    assert quasilocal_energy(round_geom, 1.0) == 0.0
    e = quasilocal_energy(round_geom, 1.2)
    assert abs(e - 1.0 / 3.0) < 1e-9
    u0 = np.sqrt(1.25)
    cf = scenario_closed_form(1.2, 1.0, 4.0)
    e0 = quasilocal_energy(round_geom, u0)
    assert abs(e0 - cf["LHS"]) < 1e-9
    assert abs(e0 - 0.2111456) < 1e-6


def test_energy_rejects_nonpositive_u(round_geom):
    with pytest.raises(ValueError, match="positive"):
        quasilocal_energy(round_geom, 0.0)
    bad = np.ones_like(round_geom.H0)
    bad[3, 7] = -2.0
    with pytest.raises(ValueError, match="positive"):
        quasilocal_energy(round_geom, bad)
    bad[3, 7] = np.nan
    with pytest.raises(ValueError, match="positive"):
        quasilocal_energy(round_geom, bad)


def test_monotonicity_identity_round(grid, schw_profile):
    fol = run_round(grid, schw_profile, 1e-3, 0.2)
    uf = solve_u(fol, 1.2, with_residual=False)
    trace = monotonicity_check(uf)
    assert trace.max_mismatch < 1e-6
    assert abs(trace.rate_formula[0] - (-0.0117851)) < 1e-5
    assert nonincreasing(trace)
    assert np.all(trace.rate_formula <= 0.0)
    assert trace.max_rate < 0.0


def test_monotonicity_mismatch_second_order(grid, schw_profile):
    maxima = []
    for ds in (4e-3, 2e-3, 1e-3):
        fol = run_round(grid, schw_profile, ds, 0.2)
        uf = solve_u(fol, 1.2, with_residual=False)
        maxima.append(monotonicity_check(uf).max_mismatch)
    ratios = [maxima[i] / maxima[i + 1] for i in range(2)]
    assert all(3.0 < r < 5.2 for r in ratios), (maxima, ratios)


def test_monotonicity_u_one_exact(grid, schw_profile):
    fol = run_round(grid, schw_profile, 0.02, 0.5)
    uf = solve_u(fol, 1.0, with_residual=False)
    trace = monotonicity_check(uf)
    assert np.all(trace.energy == 0.0)
    assert np.all(trace.rate_numeric == 0.0)
    assert np.all(trace.rate_formula == 0.0)
    assert trace.max_mismatch == 0.0


def test_monotonicity_needs_matching_series():
    # a two-slice record has no centered s-derivative
    s = np.array([0.0, 0.05])
    short = UField(s=s, u=[1.1, 1.1], max_u_minus_1=np.full(2, 0.1),
                   energy=np.zeros(2), rate_formula=np.zeros(2),
                   bounds=(1.0, 1.1), decay_bounded=True, halvings=0,
                   max_gmres_iters=0)
    with pytest.raises(ValueError, match="3 slices"):
        monotonicity_check(short)


@pytest.mark.parametrize("with_residual", [False, True])
def test_march_records_energy_of_each_slice_build(with_residual):
    # solve_u takes E and its closed-form rate from its own slice builds;
    # they must equal, bit for bit, the formulas on a fresh build
    sc = Scenario(kind="rn_interior", m=1.0, e=0.5, inner_m=1.2, r0=6.0,
                  perturbation={(2, 0): 0.05, (3, 2): 0.01},
                  n_theta=8, n_phi=16, ds=0.05, s_max=1.5, store_every=5,
                  profile_points=700, with_residual=with_residual)
    rep = penrose_report(sc)
    fol, uf, trace = rep.foliation, rep.ufield, rep.trace
    assert len(fol) == 7 and (uf.residual is not None) == with_residual
    for k in range(len(fol)):
        g, u = fol.geometry(k), uf.u[k]
        bracket = g.H0 * g.dV_dnu + g.V * (g.det_a0 - 0.5 * g.t_field)
        rate = float(-g.grid.integrate((u - 1.0) ** 2 / u * bracket
                                       * g.area_density) / (8.0 * np.pi))
        assert trace.energy[k] == quasilocal_energy(g, u)
        assert trace.rate_formula[k] == rate
    assert np.any(trace.energy != 0.0) and np.all(trace.rate_formula < 0.0)


def test_trace_csv(grid, schw_profile):
    fol = run_round(grid, schw_profile, 0.02, 0.2)
    uf = solve_u(fol, 1.1, with_residual=False)
    trace = monotonicity_check(uf)
    lines = trace.series_csv().strip().split("\n")
    assert lines[0] == "s,E,dEds_numeric,dEds_formula"
    assert len(lines) == len(fol) + 1
    assert "nan" not in trace.series_csv()


def _flat_trace(s, energy):
    z = np.zeros_like(s)
    return EnergyTrace(s=s, energy=energy, rate_numeric=z, rate_formula=z,
                       max_mismatch=0.0, max_rate=0.0)


def test_adm_extrapolate_model():
    s = np.linspace(2.0, 50.0, 60)
    energy = 0.25 + 0.3 / s + 0.1 / s**2
    out = adm_extrapolate(_flat_trace(s, energy))
    assert abs(out["E_inf"] - 0.25) < 1e-12
    assert abs(out["a"] - 0.3) < 1e-10
    assert out["fit_residual"] < 1e-14


def test_adm_extrapolate_guards():
    s = np.linspace(1.0, 5.0, 12)
    with pytest.raises(ValueError, match="at least 10"):
        adm_extrapolate(_flat_trace(s, 0.2 + 1.0 / s))
    # the fitted tail is the last third: samples 20..29, from s = 0
    s0 = np.linspace(-20.0, 9.0, 30)
    with pytest.raises(ValueError, match="s > 0"):
        adm_extrapolate(_flat_trace(s0, np.linspace(1, 0.5, 30)))
    s = np.linspace(1.0, 40.0, 60)
    with pytest.raises(ValueError, match="monotone"):
        adm_extrapolate(_flat_trace(s, 0.2 - 1.0 / s))
    # a step in the tail stays monotone but is nowhere near 1/s shaped
    step = np.where(s < 33.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="asymptotic"):
        adm_extrapolate(_flat_trace(s, step))


def test_adm_requires_clean_decay_flag():
    s = np.linspace(2.0, 50.0, 60)
    trace = _flat_trace(s, 0.25 + 0.3 / s)
    dirty = UField(s=s, u=[], max_u_minus_1=np.zeros_like(s),
                   energy=trace.energy, rate_formula=trace.rate_formula,
                   bounds=(1.0, 1.0), decay_bounded=False, halvings=0,
                   max_gmres_iters=0)
    with pytest.raises(ValueError, match="decay"):
        adm_extrapolate(trace, dirty)


def test_scenario_validation():
    with pytest.raises(ValueError, match="kind"):
        Scenario(kind="unknown", m=1.0, r0=4.0)
    with pytest.raises(ValueError, match="inner_m"):
        Scenario(kind="schwarzschild_interior", m=1.0, r0=4.0)
    with pytest.raises(ValueError, match="horizon"):
        Scenario(kind="schwarzschild_interior", m=1.0, inner_m=2.5, r0=4.0)
    with pytest.raises(ValueError, match="charge"):
        Scenario(kind="rn_interior", m=1.0, e=1.5, inner_m=1.1, r0=6.0)
    with pytest.raises(ValueError, match="horizon_area"):
        Scenario(kind="custom", m=1.0, r0=6.0, boundary_u0=1.0)
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2, r0=4.0)
    assert abs(sc.rhs() - 0.2) < 1e-14
    rn = Scenario(kind="rn_interior", m=1.0, e=0.5, inner_m=1.1, r0=6.0)
    rh = 1.1 + np.sqrt(1.1**2 - 0.25)
    assert abs(rn.rhs() - (rh / 2.0 - 1.0)) < 1e-14


@pytest.mark.parametrize("kw, match", [
    # a horizon taken from |2 inner_m| would give a false violation
    ({"kind": "schwarzschild_interior", "inner_m": -1.0}, "inner_m"),
    ({"kind": "schwarzschild_interior", "inner_m": float("nan")}, "inner_m"),
    ({"kind": "rn_interior", "e": 0.5, "inner_m": -1.2}, "inner_m"),
    ({"kind": "custom", "m": 0.0}, "mass"),
    ({"kind": "custom", "m": -1.0}, "mass"),
    ({"kind": "custom", "m": float("nan")}, "mass"),
    # zeroing the charge would run a different reference
    ({"kind": "schwarzschild_interior", "e": 0.5, "inner_m": 1.2}, "charge"),
    # an extremal or overcharged reference has no isothermal horizon anchor
    ({"kind": "custom", "e": 1.0}, "charge"),
    ({"kind": "custom", "e": 1.5}, "charge"),
    # a NaN or negative lapse ratio or a NaN area would give a false verdict
    ({"kind": "custom", "boundary_u0": float("nan")}, "boundary_u0"),
    ({"kind": "custom", "boundary_u0": -1.0}, "boundary_u0"),
    ({"kind": "custom", "horizon_area": float("nan")}, "horizon_area"),
    # each of these would fail only inside penrose_report, ending a batch
    ({"kind": "custom", "r0": float("nan")}, "r0"),
    ({"kind": "custom", "r0": float("inf")}, "r0"),
    ({"kind": "schwarzschild_interior", "inner_m": 1.2, "r0": float("nan")},
     "r0"),
    ({"kind": "custom", "boundary_u0": [1.1, 1.2]}, "boundary_u0"),
    ({"kind": "custom", "ds": -0.02}, "ds"),
    ({"kind": "custom", "dt_max": 0.0}, "dt_max"),
    ({"kind": "custom", "dt_max": float("nan")}, "dt_max"),
    ({"kind": "custom", "store_every": 0}, "store_every"),
    ({"kind": "custom", "s_max": float("nan")}, "s_max"),
    ({"kind": "custom", "s_max": float("inf")}, "s_max"),
    ({"kind": "custom", "perturbation": {(2, 3): 0.1}}, r"\|m\| > ell"),
    ({"kind": "custom", "perturbation": {(2, 0): 3.0}}, "G > 0"),
    # outside the horizon but below run_foliation's inner end
    ({"kind": "schwarzschild_interior", "inner_m": 0.5, "r0": 2.0005},
     "usable profile range"),
])
def test_scenario_rejects_bad_mass_or_charge(kw, match):
    kw = {"m": 1.0, "r0": 6.0, "horizon_area": 16 * np.pi,
          "boundary_u0": 1.1, **kw}
    with pytest.raises(ValueError, match=match):
        Scenario(**kw)


def test_scenario_flagship():
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2, r0=4.0,
                  s_max=40.0)
    rep = penrose_report(sc)
    r = rep.report
    assert r["verdict"] == "inequality holds"
    assert r["hypotheses"]["all_passed"]
    assert abs(r["E0"] - r["E0_closed_form"]) < 1e-9
    assert abs(r["E0"] - 0.2111456) < 1e-4
    assert abs(r["rhs"] - 0.2) < 1e-14
    assert abs(r["margin"] - 0.0111456) < 1e-4
    # extrapolation noise allowance on the closed endpoint
    assert 0.2 - 1e-4 <= r["E_inf"] <= r["E0"]
    assert r["monotonicity_margin"] <= 1e-8
    assert r["residuals"]["extrapolation_fit"] < 1e-6
    assert nonincreasing(rep.trace)


def test_scenario_equality_case():
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.0, r0=4.0,
                  s_max=15.0)
    rep = penrose_report(sc)
    r = rep.report
    assert r["E0"] == 0.0
    assert r["margin"] == 0.0
    assert r["E_inf"] == 0.0
    assert r["verdict"] == "inequality holds"


def test_scenario_rn_interior():
    sc = Scenario(kind="rn_interior", m=1.0, e=0.5, inner_m=1.1, r0=6.0,
                  s_max=20.0)
    rep = penrose_report(sc)
    r = rep.report
    assert r["verdict"] == "inequality holds"
    gates = r["hypotheses"]
    assert gates["angle_vs_constant"]["passed"]
    assert gates["angle_vs_constant"]["constants"]["C3"] > 0.0
    assert r["margin"] > 0.0
    assert r["rhs"] < r["E_inf"] < r["E0"]


def test_perturbed_rn_energy_converges_spectrally_in_the_grid():
    # the perturbed RN benchmark scenario at s = 3 on two grids: with every
    # leaf operator spectral, E(3) agrees to far below the time error; a
    # divergence-form Laplacian, off near the poles, left 8.8e-6 between
    # them
    energies = []
    for n_theta in (16, 24):
        sc = Scenario(kind="rn_interior", m=1.0, e=0.5, inner_m=1.2, r0=6.0,
                      perturbation={(2, 0): 0.05, (3, 2): 0.01}, s_max=3.0,
                      n_theta=n_theta, n_phi=2 * n_theta)
        rep = penrose_report(sc)
        assert rep.report["verdict"] == "inequality holds"
        assert rep.ufield.halvings == 0
        energies.append(rep.ufield.energy[-1])
    assert abs(energies[0] - energies[1]) < 1e-8


def test_scenario_hypothesis_gate():
    sc = Scenario(kind="custom", m=1.0, r0=6.0, horizon_area=16 * np.pi,
                  boundary_u0=1.1, perturbation={(3, 2): 0.15},
                  s_max=2.0, ds=0.02, store_every=5)
    rep = penrose_report(sc)
    r = rep.report
    assert r["verdict"] == "hypotheses not met"
    assert not r["hypotheses"]["surface_conditions"]["passed"]
    assert r["E_inf"] is None
    assert np.isfinite(r["E0"])


def test_scenario_declared_violation():
    sc = Scenario(kind="custom", m=1.0, r0=6.0,
                  horizon_area=16 * np.pi * 9.0, boundary_u0=1.05,
                  s_max=5.0)
    rep = penrose_report(sc)
    assert rep.verdict == "inequality violated"
    assert rep.report["margin"] < 0.0
    assert rep.report["hypotheses"]["all_passed"]


def test_penrose_report_propagates_flow_error(monkeypatch):
    # a failed flow step aborts the scenario; it is not a failed hypothesis
    def failed_flow(*args):
        raise FlowError("step 3 (s = 0.06): G <= 0")

    monkeypatch.setattr(penlab.energy, "run_flow", failed_flow)
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2, r0=4.0,
                  n_theta=8, n_phi=16, s_max=0.5)
    with pytest.raises(FlowError, match="step 3"):
        penrose_report(sc)


@pytest.mark.parametrize("key, gate", [
    ("min_coefficient", "coefficient_positive"),
    ("min_shear", "shear_dominates_matter"),
])
def test_hypothesis_block_fails_nan_minimum(key, gate):
    summary = {"min_coefficient": 1.0, "min_shear": 1.0, "min_cos_theta": 1.0}
    summary[key] = np.nan
    gates = _hypothesis_block([summary, dict(summary, **{key: 0.5})], None,
                              "schwarzschild", None)
    assert np.isnan(gates[gate]["min"])
    assert gates[gate]["passed"] is False
    assert gates["all_passed"] is False
