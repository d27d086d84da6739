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
