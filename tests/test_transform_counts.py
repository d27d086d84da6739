"""One batched analysis and one batched synthesis per spectral operator."""

from types import SimpleNamespace

import numpy as np
import pytest

import penlab.bartnik as bartnik
from penlab.bartnik import _laplacian, _make_bundle, solve_u
from penlab.flow import (FlowConfig, advected_derivative, flow_speed, run_flow,
                         step_flow)
from penlab.oracle import schwarzschild_rho
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import curved_geometry, perturbed_surface, round_surface


@pytest.fixture(scope="module")
def setup():
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 200.0, 500))
    grid = SphereGrid(16, 32)
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0),
                             {(2, 0): 0.05, (3, 2): 0.01})
    geom = curved_geometry(surf, profile)
    field = 1.0 + 0.1 * geom.flat.cos_theta
    return SimpleNamespace(profile=profile, grid=grid, surf=surf, geom=geom,
                           field=field, grad=grid.gradient(field),
                           coefficients=(geom.flat.sig_tt, geom.flat.sig_tp,
                                         geom.flat.sig_pp))


@pytest.fixture
def counted(monkeypatch):
    """Count calls through SphereGrid.analyze and SphereGrid.synthesize."""
    calls = {"analyze": 0, "synthesize": 0}

    def counting(name):
        original = getattr(SphereGrid, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(SphereGrid, name, wrapper)

    counting("analyze")
    counting("synthesize")
    return calls


OPERATORS = {
    # name: (call on the setup, analyses, syntheses)
    "step_flow": (lambda x: step_flow(x.surf, x.profile, 0.01), 5, 5),
    "flow_speed": (lambda x: flow_speed(x.surf, x.profile), 1, 1),
    "curved_geometry": (lambda x: curved_geometry(x.surf, x.profile), 1, 1),
    "bartnik._laplacian": (
        lambda x: _laplacian(x.grid, _make_bundle(x.geom), x.field), 2, 2),
    "advected_derivative": (
        lambda x: advected_derivative(x.grid, x.field, x.geom.H0, x.geom.H0),
        1, 1),
    "round_helmholtz_inverse": (
        lambda x: x.grid.round_helmholtz_inverse(
            x.field, x.grid.round_helmholtz_gain(0.1)), 1, 1),
    "gradient": (lambda x: x.grid.gradient(x.field), 1, 1),
    "div_grad": (lambda x: x.grid.div_grad(x.field, *x.coefficients), 2, 2),
    "div_grad with grad": (
        lambda x: x.grid.div_grad(x.field, *x.coefficients, grad=x.grad), 1, 1),
    "project": (lambda x: x.grid.project(x.field), 1, 1),
    "partials": (lambda x: x.grid.partials(x.field), 1, 1),
    "partials third": (lambda x: x.grid.partials(x.field, third=True), 1, 1),
    "spectral_tail_fraction": (
        lambda x: x.grid.spectral_tail_fraction(x.field), 1, 0),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_operator_transform_counts(setup, counted, name):
    call, analyses, syntheses = OPERATORS[name]
    call(setup)
    assert counted["analyze"] == analyses
    assert counted["synthesize"] == syntheses


def test_imex_step_operator_counts(setup, monkeypatch):
    # right preconditioning applies the round-Helmholtz inverse once per
    # GMRES iteration; the explicit half-step reuses the Laplacian it is
    # given, the first pass's initial residual takes one, and each pass
    # takes one per iteration; GMRES forms the Laplacian at its solution
    # by linearity, and the next pass's initial residual reuses it
    calls = {"helmholtz": 0, "laplacian": 0, "passes": 0, "iterations": 0}
    helmholtz, laplacian, gmres = (SphereGrid.round_helmholtz_inverse,
                                   bartnik._laplacian, bartnik.gmres)

    def counted_helmholtz(*args):
        calls["helmholtz"] += 1
        return helmholtz(*args)

    def counted_laplacian(*args):
        calls["laplacian"] += 1
        return laplacian(*args)

    def counted_gmres(*args, callback=None, **kwargs):
        calls["passes"] += 1

        def counting(residual):
            calls["iterations"] += 1
            callback(residual)

        return gmres(*args, callback=counting, **kwargs)

    bundle = _make_bundle(setup.geom)
    ops = bartnik._operators(setup.grid, bundle, setup.field)
    monkeypatch.setattr(SphereGrid, "round_helmholtz_inverse", counted_helmholtz)
    monkeypatch.setattr(bartnik, "_laplacian", counted_laplacian)
    monkeypatch.setattr(bartnik, "gmres", counted_gmres)
    bartnik._imex_step(setup.grid, setup.field, ops, bundle, bundle, 0.05)
    assert calls["passes"] >= 1
    assert calls["iterations"] >= 2 * calls["passes"]
    assert calls["helmholtz"] == calls["iterations"]
    assert calls["laplacian"] <= 1 + calls["iterations"]


@pytest.fixture(scope="module")
def round_leaf(setup):
    """(grid, bundle, u0, ops) of one round 16x32 leaf at a constant lapse."""
    grid = setup.grid
    bundle = _make_bundle(curved_geometry(
        round_surface(grid, schwarzschild_rho(1.0, 4.0)), setup.profile))
    u0 = np.full((grid.n_theta, grid.n_phi), 1.2)
    return grid, bundle, u0, bartnik._operators(grid, bundle, u0)


def test_imex_step_round_second_pass_makes_no_helmholtz_inverse(round_leaf,
                                                                monkeypatch):
    # on a round leaf the first fixed-point pass takes one GMRES
    # iteration, so the second starts from its correction, a kept
    # direction whose Laplacian and gradient come by linearity, and
    # converges on it: one Helmholtz inverse per substep, not one per pass
    grid, bundle, u0, ops = round_leaf
    passes = []
    helmholtz, gmres = SphereGrid.round_helmholtz_inverse, bartnik.gmres

    def counted_helmholtz(*args):
        passes[-1]["helmholtz"] += 1
        return helmholtz(*args)

    def counted_gmres(*args, callback=None, **kwargs):
        passes.append({"helmholtz": 0, "iterations": 0})

        def counting(residual):
            passes[-1]["iterations"] += 1
            callback(residual)

        return gmres(*args, callback=counting, **kwargs)

    monkeypatch.setattr(SphereGrid, "round_helmholtz_inverse", counted_helmholtz)
    monkeypatch.setattr(bartnik, "gmres", counted_gmres)
    bartnik._imex_step(grid, u0, ops, bundle, bundle, 0.05)
    assert passes == [{"helmholtz": 1, "iterations": 1},
                      {"helmholtz": 0, "iterations": 1}]


def test_imex_step_round_second_pass_sets_up_no_helmholtz_gain(round_leaf,
                                                               monkeypatch):
    # a pass takes its Helmholtz gain on its first preconditioner call, so
    # the round leaf's kept-only second pass sets up none: one gain per
    # substep, taken inside the first pass's GMRES call
    grid, bundle, u0, ops = round_leaf
    passes, gains = [0], []
    gain, gmres = SphereGrid.round_helmholtz_gain, bartnik.gmres

    def counted_gain(*args):
        gains.append(passes[0])
        return gain(*args)

    def counted_gmres(*args, **kwargs):
        passes[0] += 1
        return gmres(*args, **kwargs)

    monkeypatch.setattr(SphereGrid, "round_helmholtz_gain", counted_gain)
    monkeypatch.setattr(bartnik, "gmres", counted_gmres)
    bartnik._imex_step(grid, u0, ops, bundle, bundle, 0.05)
    assert passes == [2]
    assert gains == [1]   # one call, made during pass 1


def test_solve_u_transform_budget(setup, counted, monkeypatch):
    # a window's first substep takes its Laplacian and gradient from
    # scratch (4 transforms); after that a substep carries its end state's
    # pair forward, so it costs the first pass's initial flux (2) and 4
    # per GMRES iteration (the preconditioner's stack, which carries its
    # direction's gradient, and the Laplacian's flux; a kept direction
    # costs none, so this is a bound); GMRES forms the residual,
    # Laplacian and gradient at its solution by linearity, so a call adds
    # no transform of its own.  Each stored slice's geometry
    # build adds its own 2.
    tally = {"substeps": 0, "iterations": 0}
    step, gmres = bartnik._imex_step, bartnik.gmres

    def counted_step(*args):
        tally["substeps"] += 1
        return step(*args)

    def counted_gmres(*args, callback=None, **kwargs):
        def counting(residual):
            tally["iterations"] += 1
            callback(residual)

        return gmres(*args, callback=counting, **kwargs)

    grid = SphereGrid(8, 16)
    fol = run_flow(round_surface(grid, schwarzschild_rho(1.0, 4.0)),
                   setup.profile, FlowConfig(ds=0.05, s_max=1.0, store_every=2))
    counted["analyze"] = counted["synthesize"] = 0
    monkeypatch.setattr(bartnik, "_imex_step", counted_step)
    monkeypatch.setattr(bartnik, "gmres", counted_gmres)
    solve_u(fol, 1.2, dt_max=0.02, with_residual=False)
    windows = len(fol) - 1
    assert tally["substeps"] >= 4 * windows
    budget = (4 * windows + 2 * tally["substeps"] + 4 * tally["iterations"]
              + 2 * len(fol))
    assert counted["analyze"] + counted["synthesize"] <= budget
