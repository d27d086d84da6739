"""Workload inputs, generated from a seed with the standard library only.

The generator process builds these plain dicts and hands each to the
worker process of its workload as JSON; penlab receives nothing but the
generated inputs.  Seed 0 reproduces the acceptance tests' own inputs.

Horizons (``s_max``) are shortened from the tests' so that several
operations fit in one run.  Grid, ds, store_every, dt_max, u0 and the
start data are the tests' and set each workload's layer mix.  ``full``
restores the tests' horizons; only then is a wall-clock gate margin
measured.
"""

import random

NAMES = ("flagship", "lapse_32x64", "sweep_8x16", "perturbed_rn")

# flagship and perturbed_rn keep 31 stored leaves, the fewest for which
# the E_inf fit gets its 10-sample tail.  sweep_8x16 runs half of
# test_09's horizon and lapse_32x64 a fiftieth of test_06's.
S_MAX = {"flagship": 3.0, "lapse_32x64": 1.0, "sweep_8x16": 2.5,
         "perturbed_rn": 3.0}
FULL_S_MAX = {"flagship": 40.0, "lapse_32x64": 50.0, "sweep_8x16": 5.0,
              "perturbed_rn": 40.0}

SWEEP_INNER_M = (1.0, 1.25, 1.5, 1.75, 2.0)     # test_09's grid
SWEEP_R0 = (4.5, 20.0, 60.0, 100.0)
SWEEP_POINTS = 20
PERTURBED_QUADRANTS = ((0, 1), (1, 0), (0, 0), (1, 1))


def _flagship(s_max, rng):
    return [{"kind": "schwarzschild_interior", "m": 1.0, "inner_m": 1.2,
             "r0": 4.0, "s_max": s_max}]


def _lapse(s_max, rng):
    # test_06: round Schwarzschild surface at r = 4, profile out to 1.6x
    # the test's outer radius (the profile does not shrink with s_max)
    return [{"m": 1.0, "r0": 4.0, "u0": 1.2, "n_theta": 32, "n_phi": 64,
             "ds": 0.04, "s_max": s_max, "dt_max": 0.04,
             "profile_r": [2.02, (4.0 + 50.0) * 1.6], "profile_points": 900}]


def _sweep(s_max, rng):
    if rng is None:
        points = [(im, r0) for im in SWEEP_INNER_M for r0 in SWEEP_R0]
    else:
        points = [(rng.uniform(1.0, 2.0), rng.uniform(4.5, 100.0))
                  for _ in range(SWEEP_POINTS)]
    return [{"kind": "schwarzschild_interior", "m": 1.0, "inner_m": im,
             "r0": r0, "n_theta": 8, "n_phi": 16, "ds": 0.05,
             "s_max": s_max, "store_every": 5, "profile_points": 700}
            for im, r0 in points]


def _perturbed(s_max, rng):
    if rng is None:
        amps = [(0.05, 0.01)]
    else:
        # larger amplitudes cost up to ~1.7x more and a run makes only 4-6
        # operations, so the draws are stratified: each block of four takes
        # one from every quadrant of the box, mixed quadrants first
        amps = [(0.03 + 0.015 * (qa + rng.random()),
                 0.005 + 0.005 * (qb + rng.random()))
                for qa, qb in PERTURBED_QUADRANTS * 2]
    # perturbation modes as [ell, m, amplitude]; JSON has no tuple keys
    return [{"kind": "rn_interior", "m": 1.0, "e": 0.5, "inner_m": 1.2,
             "r0": 6.0, "perturbation": [[2, 0, a20], [3, 2, a32]],
             "s_max": s_max}
            for a20, a32 in amps]


_GENERATORS = {"flagship": _flagship, "lapse_32x64": _lapse,
             "sweep_8x16": _sweep, "perturbed_rn": _perturbed}
_SEEDED = ("sweep_8x16", "perturbed_rn")


def make_inputs(name: str, seed: int, full: bool = False) -> dict:
    """Operation inputs of one workload; a run cycles through ``ops``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    seeded = name in _SEEDED and seed != 0
    rng = random.Random(f"{name}:{seed}") if seeded else None
    s_max = (FULL_S_MAX if full else S_MAX)[name]
    return {
        "workload": name,
        "seed": seed,
        "s_max": s_max,
        "test_s_max": FULL_S_MAX[name],
        # the acceptance test's own inputs and horizon
        "test_inputs": full and not seeded,
        "ops": _GENERATORS[name](s_max, rng),
    }
