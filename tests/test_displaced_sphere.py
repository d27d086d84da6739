"""An exact witness off the axis: a sphere displaced from the origin in
flat space, its concentric unit normal flow and its lapse."""

import numpy as np
import pytest

from diagnostics import DisplacedSphere
from penlab.bartnik import solve_u
from penlab.energy import quasilocal_energy
from penlab.flow import FlowConfig, run_flow
from penlab.sphere import SphereGrid
from penlab.surfgeom import StarSurface, curved_geometry

SPHERE = DisplacedSphere(a=4.0, centre=(1.0, 0.0, 0.0))
U0 = 1.2
FLOW = FlowConfig(ds=0.1, s_max=10.0, store_every=1)


@pytest.fixture(scope="module")
def grid():
    return SphereGrid(16, 32)


@pytest.fixture(scope="module")
def fol(grid):
    return run_flow(StarSurface(grid, SPHERE.G(grid)), SPHERE.profile(), FLOW)


def test_flow_is_the_concentric_family(grid, fol):
    assert fol.abort_reason is None
    assert all(summary["passed"] for summary in fol.summaries)
    assert fol.s[-1] == pytest.approx(FLOW.s_max, abs=1e-12)
    err = max(np.max(np.abs(surf.G - SPHERE.G(grid, s)))
              for s, surf in zip(fol.s, fol.surfaces))
    assert err < 1e-8


def test_constant_lapse_and_energy_are_exact(fol):
    uf = solve_u(fol, U0, dt_max=0.01, with_residual=False)
    assert uf.halvings == 0
    u_err = max(np.max(np.abs(u - SPHERE.u(U0, s))) for s, u in zip(uf.s, uf.u))
    e_err = max(abs(e - SPHERE.energy(U0, s)) for s, e in zip(uf.s, uf.energy))
    assert u_err < 1e-6
    assert e_err < 1e-5


def test_energy_at_the_start_is_exact(fol):
    e0 = quasilocal_energy(curved_geometry(fol.surfaces[0], fol.profile), U0)
    assert abs(e0 - SPHERE.energy(U0, 0.0)) < 1e-12


def test_translated_lapse_is_the_centred_solution(grid, fol):
    # the lapse equation is geometric, so a start lapse f(z′) of the height
    # z′ seen from the sphere's centre marches, on the displaced sphere's
    # leaves, to the centred sphere's solution at the same z′.  The
    # centred solution is a Legendre series in cosθ; z′ of each node on
    # leaf s is exact.  f has m = 1 content about the origin
    def u0(z):
        return U0 + 0.1 * z + 0.05 * z**2

    centred = DisplacedSphere(a=SPHERE.a, centre=(0.0, 0.0, 0.0))
    fol_c = run_flow(StarSurface(grid, centred.G(grid)), fol.profile, FLOW)
    uf_c = solve_u(fol_c, u0(np.cos(grid.theta)[:, None] + 0.0 * grid.phi),
                   with_residual=False)
    uf = solve_u(fol, u0(SPHERE.direction(grid)[2]), with_residual=False)
    assert uf.halvings == uf_c.halvings == 0
    ells = np.arange(grid.lmax + 1)
    err = 0.0
    for s, u, u_c in zip(uf.s, uf.u, uf_c.u):
        coef = grid.analyze(u_c)[0, 0, 0] * np.sqrt(ells + 0.5)
        z = SPHERE.direction(grid, s)[2]
        err = max(err, np.max(np.abs(u - np.polynomial.legendre.legval(z, coef))))
    assert err < 1e-6
