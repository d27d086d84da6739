"""One geometry build per slice per pass, one flow speed per surface, one
reference evaluation per stored slice, one flow step per stored leaf at the
Scenario defaults, and hypothesis minima from the flow."""

import sys

import numpy as np
import pytest

import penlab.flow
import penlab.surfgeom
from penlab.bartnik import solve_u
from penlab.energy import Scenario, penrose_report
from penlab.flow import FlowConfig, compute_constants, run_flow
from penlab.oracle import schwarzschild_rho
from penlab.refgeom import ConformalProfile, isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import (perturbed_surface, reaction_coefficient,
                             round_surface)


@pytest.fixture
def counted(monkeypatch):
    """Count calls through flow's curved_geometry and surfgeom's metric_partials."""
    calls = {"curved_geometry": 0, "metric_partials": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(penlab.flow, "curved_geometry")
    counting(penlab.surfgeom, "metric_partials")
    return calls


def test_penrose_report_builds_each_slice_twice(counted):
    sc = Scenario(kind="schwarzschild_interior", m=1.0, inner_m=1.2, r0=4.0,
                  n_theta=8, n_phi=16, ds=0.05, s_max=3.0, store_every=5,
                  profile_points=700)
    rep = penrose_report(sc)
    leaves = len(rep.foliation)
    assert leaves == 13 and rep.trace is not None
    # store in run_flow and solve_u, plus slice 0 for u0; solve_u records
    # the energies that monotonicity_check reads
    assert counted["curved_geometry"] <= 2 * leaves + 1
    assert counted["metric_partials"] == 0
    assert np.all(np.isfinite(rep.foliation.geometry(0).gauss_k))
    assert counted["metric_partials"] == 1


def test_default_scenario_steps_once_per_stored_leaf(monkeypatch):
    # the flagship at Scenario's default ds and store_every: one RK4 step
    # per stored interval
    calls = {"step_flow": 0}
    original = penlab.flow.step_flow

    def counting(*args, **kwargs):
        calls["step_flow"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(penlab.flow, "step_flow", counting)
    rep = penrose_report(Scenario(kind="schwarzschild_interior", m=1.0,
                                  inner_m=1.2, r0=4.0, n_theta=8, n_phi=16))
    assert rep.verdict == "inequality holds" and not rep.foliation.aborted
    assert calls["step_flow"] == len(rep.foliation) - 1 == 400


def test_flow_and_solve_build_each_slice_twice(counted):
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 200.0, 500))
    grid = SphereGrid(8, 16)
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)), profile,
                   FlowConfig(ds=0.05, s_max=0.5, store_every=1))
    solve_u(fol, 1.2, dt_max=0.05, with_residual=False)
    assert counted["curved_geometry"] <= 2 * len(fol)
    assert counted["metric_partials"] == 0


def test_hypothesis_minima_match_slice_geometry():
    sc = Scenario(kind="rn_interior", m=1.0, e=0.5, inner_m=1.2, r0=6.0,
                  perturbation={(2, 0): 0.05, (3, 2): 0.01},
                  n_theta=8, n_phi=16, ds=0.05, s_max=1.5, store_every=5,
                  profile_points=700)
    rep = penrose_report(sc)
    fol = rep.foliation
    geoms = [fol.geometry(k) for k in range(len(fol))]
    hyp = rep.report["hypotheses"]
    assert hyp["coefficient_positive"]["min"] == min(
        float(np.min(reaction_coefficient(g))) for g in geoms)
    assert hyp["shear_dominates_matter"]["min"] == min(
        float(np.min(g.det_a0 - 0.5 * g.t_field)) for g in geoms)
    assert hyp["angle_vs_constant"]["min_cos_theta"] == min(
        float(np.min(g.flat.cos_theta)) for g in geoms)


def test_one_phi_evaluation_per_stored_slice():
    # every run of phi's and dphi's code counts, also those inside V, V'
    # and V'' of the analytic reference: a slice build evaluates each once.
    # The summary's cone bound reads the Ricci pair of its slice build, and
    # compute_constants' rho grid reads phi from radial_factors; only the
    # full-exterior grid evaluates them again
    ref = make_reference("reissner_nordstrom", m=1.0, e=0.5)
    profile = isothermal_profile(ref, np.geomspace(1.9, 200.0, 500))
    surf = perturbed_surface(SphereGrid(8, 16), float(profile.rho_of_r(5.0)),
                             {(2, 0): 0.05})
    codes = {ref.phi.__code__: "phi", ref.dphi.__code__: "dphi"}
    calls = {"phi": 0, "dphi": 0}

    def counting(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    def count(fn, *args):
        calls.update(phi=0, dphi=0)
        previous = sys.getprofile()
        sys.setprofile(counting)
        try:
            return fn(*args)
        finally:
            sys.setprofile(previous)

    fol = count(run_flow, surf, profile,
                FlowConfig(ds=0.05, s_max=0.2, store_every=1))
    assert len(fol) == 5 and not fol.aborted
    assert calls == {"phi": 5, "dphi": 5}
    count(compute_constants, profile)
    assert calls == {"phi": 2, "dphi": 2}


def test_flow_speed_once_per_surface(monkeypatch):
    # r_of_rho is read by the speed directly and by each radial_factors
    # call once; the speed's share is the 4 RK stages per step, because a
    # stored slice takes its speed W/r from its own build
    calls = {"r_of_rho": 0, "radial_factors": 0}

    def counting(name):
        original = getattr(ConformalProfile, name)

        def wrapped(self, rho):
            calls[name] += 1
            return original(self, rho)
        return wrapped

    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 200.0, 500))
    surf = perturbed_surface(SphereGrid(8, 16), schwarzschild_rho(1.0, 4.0),
                             {(2, 0): 0.05})
    for name in calls:
        monkeypatch.setattr(ConformalProfile, name, counting(name))
    fol = run_flow(surf, profile, FlowConfig(ds=0.05, s_max=0.3, store_every=2))
    assert len(fol) == 4
    assert calls["r_of_rho"] - calls["radial_factors"] == 4 * 6
    speeds = [geom.flat.W / geom.r for geom in map(fol.geometry, range(len(fol)))]
    assert fol.summaries[0]["unit_lapse_residual"] == 0.0
    for j in range(1, len(fol)):
        fd = (fol.surfaces[j].G - fol.surfaces[j - 1].G) / (fol.s[j] - fol.s[j - 1])
        assert fol.summaries[j]["unit_lapse_residual"] == float(
            np.max(np.abs(fd / (0.5 * (speeds[j] + speeds[j - 1])) - 1.0)))
