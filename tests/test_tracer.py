"""The benchmark's layer tracer still finds every name it wraps in penlab."""

import importlib.util
from pathlib import Path

import numpy as np

import penlab
import penlab.bartnik
import penlab.energy
import penlab.flow
import penlab.refgeom
import penlab.sphere
import penlab.surfgeom
from penlab.refgeom import isothermal_profile, make_reference
from penlab.sphere import SphereGrid
from penlab.surfgeom import round_surface

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    owners = (penlab.sphere, penlab.refgeom, penlab.surfgeom, penlab.flow,
              penlab.bartnik, penlab.energy, penlab.sphere.SphereGrid,
              penlab.refgeom.ConformalProfile)
    before = {(o.__name__, k): v for o in owners for k, v in vars(o).items()}
    tracer = _load_tracer().Tracer()
    tracer.install(penlab)
    try:
        wrapped = penlab.flow.curved_geometry
        assert wrapped is penlab.surfgeom.curved_geometry
        assert wrapped is penlab.energy.curved_geometry
        assert hasattr(wrapped, "__wrapped__")
        ref = make_reference("schwarzschild", m=1.0)
        profile = isothermal_profile(ref, np.geomspace(2.02, 50.0, 200))
        grid = SphereGrid(8, 16)
        wrapped(round_surface(grid, float(profile.rho_of_r(4.0))), profile)
        names = {span[0] for span in tracer.take()["spans"]}
        assert "surfgeom.curved_geometry" in names
    finally:
        tracer.uninstall()
    after = {(o.__name__, k): v for o in owners for k, v in vars(o).items()}
    assert after == before
    assert not hasattr(penlab.flow.curved_geometry, "__wrapped__")


def test_tracer_counts_bartnik_gmres_iterations():
    # the benchmark cross-checks its iteration count against UField's
    ref = make_reference("schwarzschild", m=1.0)
    profile = isothermal_profile(ref, np.geomspace(2.02, 50.0, 200))
    grid = SphereGrid(8, 16)
    fol = penlab.flow.run_flow(
        round_surface(grid, float(profile.rho_of_r(4.0))), profile,
        penlab.flow.FlowConfig(ds=0.05, s_max=0.1, store_every=1))
    assert len(fol) == 3
    u0 = 1.1 + 0.05 * grid.cos_theta[:, None] * np.ones((grid.n_theta, grid.n_phi))
    original = penlab.bartnik.gmres
    tracer = _load_tracer().Tracer()
    tracer.install(penlab)
    try:
        uf = penlab.bartnik.solve_u(fol, u0, with_residual=False)
        taken = tracer.take()
    finally:
        tracer.uninstall()
    assert penlab.bartnik.gmres is original
    assert "bartnik.gmres" in {span[0] for span in taken["spans"]}
    assert uf.max_gmres_iters >= 2
    assert max(taken["gmres_iters"]) == uf.max_gmres_iters
