"""One batched analysis and one batched synthesis per spectral operator."""

from types import SimpleNamespace

import numpy as np
import pytest

from penlab.bartnik import _laplacian, _make_bundle
from penlab.flow import advected_derivative, flow_speed, step_flow
from penlab.oracle import schwarzschild_rho
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import curved_geometry, perturbed_surface


@pytest.fixture(scope="module")
def setup():
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 200.0, 500))
    grid = SphereGrid(16, 32)
    surf = perturbed_surface(grid, schwarzschild_rho(1.0, 6.0),
                             {(2, 0): 0.05, (3, 2): 0.01})
    geom = curved_geometry(surf, profile)
    return SimpleNamespace(profile=profile, grid=grid, surf=surf, geom=geom,
                           field=1.0 + 0.1 * geom.flat.cos_theta)


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
    "CurvedGeometry.laplacian": (lambda x: x.geom.laplacian(x.field), 2, 2),
    "advected_derivative": (
        lambda x: advected_derivative(x.grid, x.field, x.geom.H0, x.geom.H0),
        1, 1),
    "round_helmholtz_inverse": (
        lambda x: x.grid.round_helmholtz_inverse(x.field, 0.1), 1, 1),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_operator_transform_counts(setup, counted, name):
    call, analyses, syntheses = OPERATORS[name]
    call(setup)
    assert counted["analyze"] <= analyses
    assert counted["synthesize"] <= syntheses
