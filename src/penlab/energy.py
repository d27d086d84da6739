"""Quasi-local energy, its exact rate identity, and inequality reports.

The energy of a slice weighs the gap between the reference mean
curvature H0 and its deformation H0/u by the static potential:

    E = (1/8pi) * integral of V * H0 * (1 - 1/u) over the slice.

Along a unit-speed foliation carrying a solution u of the radial lapse
equation, dE/ds has a sign-definite closed form.  solve_u records E and
that form on every slice as it marches, from the geometry it builds
anyway; monotonicity_check differentiates the recorded series and
audits it against the form, building nothing; adm_extrapolate sends
s to infinity with a 1/s fit, which identifies the limit with the total
mass of the deformed extension minus the reference mass; penrose_report
runs the whole pipeline on a matching scenario and compares E(0) with
sqrt(A_h / 16pi) - m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bartnik import UField, initial_u, slice_energy, solve_u
from .flow import (FlowConfig, FlowError, Foliation, compute_constants,
                   run_flow)
from .refgeom import isothermal_profile, make_reference
from .sphere import SphereGrid
from .surfgeom import CurvedGeometry, curved_geometry, perturbed_surface

__all__ = [
    "EnergyTrace",
    "Scenario",
    "PenroseReport",
    "quasilocal_energy",
    "monotonicity_check",
    "adm_extrapolate",
    "run_foliation",
    "penrose_report",
]

# an energy step up of at most this much is discretization noise, not
# a monotonicity failure
_MONOTONE_TOL = 1e-8
# adm_extrapolate fits this trailing share of the samples and accepts an
# rms fit residual up to _FIT_RESIDUAL_MAX * (1 + |E_inf|)
_TAIL_FRACTION = 1.0 / 3.0
_FIT_RESIDUAL_MAX = 1e-4


def quasilocal_energy(geom: CurvedGeometry, u) -> float:
    """Energy of one slice, (1/8pi) * integral V H0 (1 - 1/u) d(sigma).

    Parameters
    ----------
    geom : CurvedGeometry
        Slice geometry in the reference manifold.
    u : array_like
        Positive lapse factor on the slice grid (scalars broadcast).

    Returns
    -------
    float
        The weighted mean-curvature deficit integral.
    """
    u = np.broadcast_to(np.asarray(u, dtype=float), geom.H0.shape)
    if not np.all(u > 0.0):
        raise ValueError("u must be positive")
    return slice_energy(geom.grid, geom.V * geom.H0, geom.area_density, u)


@dataclass
class EnergyTrace:
    """Energy series along a foliation with both sides of the rate identity.

    rate_numeric is a second-order difference of the energy series;
    rate_formula is the closed-form right-hand side evaluated slice by
    slice.  max_rate (the monotonicity margin) should be nonpositive up
    to discretization noise on admissible runs.
    """

    s: np.ndarray
    energy: np.ndarray
    rate_numeric: np.ndarray
    rate_formula: np.ndarray
    max_mismatch: float
    max_rate: float


def monotonicity_check(ufield: UField) -> EnergyTrace:
    """Audit dE/ds along the run against its closed-form expression.

    The positions and both series come from ufield alone, which solve_u
    filled from its own slice builds, so the audit builds no geometry.
    The numeric side differentiates the energy series with centered
    second-order stencils (one-sided at the ends); the formula side is
    the nonpositive integral of (u-1)^2/u times the condition bracket.
    """
    if len(ufield.s) < 3:
        raise ValueError("need at least 3 slices for s-derivatives")
    s = np.asarray(ufield.s, dtype=float)
    energy = np.array(ufield.energy, dtype=float)
    formula = np.array(ufield.rate_formula, dtype=float)
    numeric = np.gradient(energy, s, edge_order=2)
    return EnergyTrace(
        s=s, energy=energy, rate_numeric=numeric, rate_formula=formula,
        max_mismatch=float(np.max(np.abs(numeric - formula))),
        max_rate=float(np.max(numeric)),
    )


def adm_extrapolate(ufield: UField) -> dict:
    """Extrapolate the march's energy series to s -> infinity.

    Fits E(s) = E_inf + a/s + b/s^2 by least squares over the trailing
    third of the samples.  The limit is the total mass of the
    deformed extension minus the reference mass.  Reads s, the energy
    series and the decay flag from the march's record, so it builds
    nothing.  Requires a monotone tail of at least 10 samples with s > 0
    and a clean decay flag.

    Returns
    -------
    dict
        E_inf, the fit coefficients a and b, the rms fit residual, and
        the sample window.
    """
    s = np.asarray(ufield.s, dtype=float)
    energy = np.asarray(ufield.energy, dtype=float)
    n = len(s)
    i0 = int(np.floor(n * (1.0 - _TAIL_FRACTION)))
    if n - i0 < 10:
        raise ValueError("need at least 10 samples in the extrapolation tail")
    st, et = s[i0:], energy[i0:]
    if st[0] <= 0.0:
        raise ValueError("extrapolation tail must have s > 0")
    if not np.all(np.diff(et) <= _MONOTONE_TOL):
        raise ValueError("energy tail is not monotone nonincreasing")
    if not ufield.decay_bounded:
        raise ValueError("u decay is not bounded; tail not asymptotic")
    basis = np.column_stack([np.ones_like(st), 1.0 / st, 1.0 / st**2])
    coef, _, _, _ = np.linalg.lstsq(basis, et, rcond=None)
    resid = et - basis @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    e_inf = float(coef[0])
    if rms > _FIT_RESIDUAL_MAX * (1.0 + abs(e_inf)):
        raise ValueError(f"extrapolation fit residual {rms:.3e} above "
                         "threshold; tail not in the asymptotic regime")
    return {"E_inf": e_inf, "a": float(coef[1]), "b": float(coef[2]),
            "fit_residual": rms, "window": (i0, n)}


@dataclass
class Scenario:
    """Inequality test case: inner data matched across a reference sphere.

    kind selects how the boundary data and the horizon area come about:
    "schwarzschild_interior" and "rn_interior" take the inner metric
    from the same static family with mass inner_m (and the reference
    charge, for the latter); "custom" supplies the boundary lapse ratio
    and a declared horizon area directly.  The declared area is used as
    given; nothing searches the inner data for minimal surfaces.

    By default the flow takes one RK4 step of ds = 0.1 per stored leaf:
    the stored spacing, which sets the lapse march's error floor, stays
    0.1, and the flow's own error is at least 100x below the march's.
    """

    kind: str
    m: float
    r0: float
    e: float = 0.0
    inner_m: float | None = None
    horizon_area: float | None = None
    boundary_u0: object | None = None
    perturbation: dict | None = None
    n_theta: int = 16
    n_phi: int = 32
    ds: float = 0.1
    s_max: float = 40.0
    store_every: int = 1
    dt_max: float = 0.01
    with_residual: bool = False
    profile_points: int = 900

    def __post_init__(self):
        kinds = ("schwarzschild_interior", "rn_interior", "custom")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        if self.kind == "schwarzschild_interior" and self.e != 0.0:
            raise ValueError("schwarzschild_interior takes no reference "
                             "charge e; use rn_interior")
        ref = self.reference()
        # written as negations so that NaN fails too
        if not (np.isfinite(self.r0) and self.r0 > ref.r_horizon):
            raise ValueError("r0 must be finite and outside the reference horizon")
        if self.inner_m is not None and not self.inner_m >= 0.0:
            raise ValueError("inner_m must be nonnegative")
        if self.kind in ("schwarzschild_interior", "rn_interior"):
            if self.inner_m is None:
                raise ValueError("interior scenarios need inner_m")
            if not self.r0 > self._inner_horizon():
                raise ValueError("r0 inside the inner horizon")
        else:
            if self.horizon_area is None or not self.horizon_area >= 0.0:
                raise ValueError("custom scenarios need horizon_area >= 0")
            # a missing boundary_u0 reads as NaN and fails with the rest
            u0 = np.asarray(self.boundary_u0, dtype=float)
            if not np.all(u0 > 0.0):
                raise ValueError("custom scenarios need a positive boundary_u0")
            try:
                np.broadcast_to(u0, (self.n_theta, self.n_phi))
            except ValueError:
                raise ValueError("custom boundary_u0 must broadcast to the "
                                 "n_theta x n_phi grid") from None
        # checked here, not first inside penrose_report, so that one bad
        # value cannot end a batch; FlowConfig owns the flow's rules
        FlowConfig(ds=self.ds, s_max=self.s_max, store_every=self.store_every)
        # the same rule run_foliation applies, so it fails before a batch runs
        _profile_range(ref, self.r0, self.s_max)
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if not isinstance(self.with_residual, (bool, np.bool_)):
            raise ValueError("with_residual must be true or false")
        if self.perturbation is not None:
            # G > 0 does not depend on rho0, so the unit sphere decides it
            grid = SphereGrid(self.n_theta, self.n_phi)
            try:
                perturbed_surface(grid, 1.0, self.perturbation)
            except ValueError as exc:
                raise ValueError(f"perturbation: {exc}") from None

    def reference(self):
        # built on demand, not stored: the manifold holds closures and a
        # Scenario is pickled for parallel batches
        kind = "schwarzschild" if self.e == 0.0 else "reissner_nordstrom"
        return make_reference(kind, m=self.m, e=self.e)

    def _inner_horizon(self) -> float:
        if self.kind == "schwarzschild_interior":
            return 2.0 * self.inner_m
        disc = self.inner_m**2 - self.e**2
        if disc < 0.0:
            raise ValueError("inner mass below the extremal bound")
        return self.inner_m + np.sqrt(disc)

    def declared_horizon_area(self) -> float:
        if self.kind == "custom":
            return float(self.horizon_area)
        return float(4.0 * np.pi * self._inner_horizon() ** 2)

    def rhs(self) -> float:
        return float(np.sqrt(self.declared_horizon_area() / (16.0 * np.pi))
                     - self.m)

    def inner_phi(self, r):
        p = 1.0 - 2.0 * self.inner_m / np.asarray(r, dtype=float) \
            + self.e**2 / np.asarray(r, dtype=float) ** 2
        if np.any(p <= 0.0):
            raise ValueError("inner metric degenerate on the surface")
        return p


@dataclass
class PenroseReport:
    """Scenario verdict plus the intermediate objects that produced it."""

    report: dict
    trace: EnergyTrace | None
    foliation: Foliation | None
    ufield: UField | None

    @property
    def verdict(self) -> str:
        return self.report["verdict"]


def _profile_range(ref, r0: float, s_max: float):
    """Radial range (r_lo, r_far) of the profile a flow from r0 needs.

    It runs from just outside the horizon (the table's inner end for a
    tabulated reference without one) out to 1.5 (r0 + s_max), clipped to
    a table's own range.  Raises ValueError unless r0 lies above r_lo
    and is finite.
    """
    r_far = (r0 + s_max) * 1.5
    r_lo = ref.r_horizon * 1.0005 if ref.r_horizon > 0 else ref.r_min
    if ref.kind == "tabulated":
        r_lo = max(r_lo, ref.r_min * 1.000001)
        r_far = min(r_far, ref.r_max * 0.999999)
    if not r_lo < r0 < np.inf:   # written so that NaN fails too
        raise ValueError("r0 must be finite and above the usable profile "
                         "range's inner end")
    return r_lo, r_far


def run_foliation(ref, r0: float, modes: dict | None, grid: SphereGrid,
                  config: FlowConfig, points: int = 900) -> Foliation:
    """Unit normal flow from the leaf ρ(r0)(1 + Σ ε Y_lm), round without
    modes, over an isothermal profile sized for config.s_max (fol.profile)."""
    r_lo, r_far = _profile_range(ref, r0, config.s_max)
    profile = isothermal_profile(ref, np.geomspace(r_lo, r_far, points))
    surf = perturbed_surface(grid, float(profile.rho_of_r(r0)), modes or {})
    return run_flow(surf, profile, config)


def _closed_form_e0(sc: Scenario) -> float | None:
    if sc.kind != "schwarzschild_interior":
        return None
    sm = np.sqrt(1.0 - 2.0 * sc.m / sc.r0)
    sM = np.sqrt(1.0 - 2.0 * sc.inner_m / sc.r0)
    return float(sc.r0 * sm * (sm - sM))


def _boundary_u0(sc: Scenario, geom: CurvedGeometry):
    """Initial lapse ratio H0/H on the matching sphere."""
    if sc.kind == "custom":
        return np.broadcast_to(
            np.asarray(sc.boundary_u0, dtype=float), geom.H0.shape).copy()
    if sc.inner_m == sc.m:
        # inner data is the reference itself
        return np.ones_like(geom.H0)
    h_phys = (2.0 * np.sqrt(sc.inner_phi(np.asarray(geom.r, dtype=float)))
              / np.asarray(geom.r, dtype=float))
    return initial_u(h_phys, geom.H0)


def _hypothesis_block(summaries, abort_reason, reference_kind: str,
                      profile) -> dict:
    """Slice-by-slice foliation conditions plus the angle threshold.

    summaries carry each slice's min_coefficient, min_shear and
    min_cos_theta, and abort_reason is None when the flow passed.  The
    flow's angle monitor takes the cone bound at each point's own
    radius; for charged or tabulated references the angle condition is
    re-gated against compute_constants' bound, the largest over the
    profile's ρ range, which is the one the general argument needs.
    A NaN minimum propagates and fails its gate.
    """
    min_coef, min_shear, min_cos = (
        float(np.min([np.inf] + [sm[key] for sm in summaries]))
        for key in ("min_coefficient", "min_shear", "min_cos_theta"))
    gates = {
        "surface_conditions": {"passed": abort_reason is None,
                               "aborted": abort_reason is not None,
                               "abort_reason": abort_reason},
        "coefficient_positive": {"min": min_coef,
                                 "passed": bool(min_coef > 0.0)},
        "shear_dominates_matter": {"min": min_shear,
                                   "passed": bool(min_shear > 0.0)},
    }
    if reference_kind != "schwarzschild":
        cons = compute_constants(profile)
        bound = cons["angle_bound"]
        gates["angle_vs_constant"] = {
            "min_cos_theta": min_cos,
            "threshold": bound,
            "passed": bool(min_cos > bound),
            "constants": {k: cons[k] for k in
                          ("C1", "C2", "C3", "C4", "C5", "angle_bound")},
        }
    gates["all_passed"] = all(
        v["passed"] for k, v in gates.items() if isinstance(v, dict))
    return gates


def penrose_report(sc: Scenario) -> PenroseReport:
    """Run flow, lapse solve, and energy audit; compare E(0) with the bound.

    The hypotheses block gates the verdict: when any foliation condition
    fails the verdict is "hypotheses not met" regardless of the margin,
    and when an interior scenario's first leaf fails its monitors E0 and
    the margin are None.
    Otherwise the verdict states whether E(0) >= sqrt(A_h/16pi) - m.
    A failed flow step, or a first leaf that reaches inside the inner
    horizon, raises FlowError; a failed lapse step raises StepRejected.
    """
    ref = sc.reference()
    fol = run_foliation(ref, sc.r0, sc.perturbation,
                        SphereGrid(sc.n_theta, sc.n_phi),
                        FlowConfig(ds=sc.ds, s_max=sc.s_max,
                                   store_every=sc.store_every),
                        sc.profile_points)
    hypotheses = _hypothesis_block(fol.summaries, fol.abort_reason,
                                   ref.kind, fol.profile)

    trace = ufield = e_inf = scalar_max = e0 = None
    fit = {"fit_residual": None}
    # interior boundary data H0/H need a first leaf that passes its
    # monitors (H0 > 0 among them); a custom lapse is given outright
    if sc.kind == "custom" or fol.summaries[0]["passed"]:
        g0 = curved_geometry(fol.surfaces[0], fol.profile)
        try:
            u0 = _boundary_u0(sc, g0)
        except ValueError as exc:
            raise FlowError(f"first leaf: {exc}") from exc
        e0 = quasilocal_energy(g0, u0)
        if len(fol) >= 3 and hypotheses["coefficient_positive"]["passed"]:
            ufield = solve_u(fol, u0, dt_max=sc.dt_max,
                             with_residual=sc.with_residual)
            trace = monotonicity_check(ufield)
            try:
                fit = adm_extrapolate(ufield)
                e_inf = fit["E_inf"]
            except ValueError as exc:
                fit = {"fit_residual": None, "error": str(exc)}
            if ufield.residual is not None:
                scalar_max = float(np.max(np.abs(ufield.residual)))

    rhs = sc.rhs()
    margin = None if e0 is None else e0 - rhs
    if not hypotheses["all_passed"]:
        verdict = "hypotheses not met"
    elif margin >= 0.0:
        verdict = "inequality holds"
    else:
        verdict = "inequality violated"

    report = {
        "scenario": {
            "kind": sc.kind, "reference": {"kind": ref.kind,
                                           "m": sc.m, "e": sc.e},
            "inner_m": sc.inner_m, "r0": sc.r0,
            "horizon_area": sc.declared_horizon_area(),
            "resolution": [sc.n_theta, sc.n_phi],
            "ds": sc.ds, "s_max": sc.s_max,
        },
        "hypotheses": hypotheses,
        "E0": e0,
        "E0_closed_form": _closed_form_e0(sc),
        "E_inf": e_inf,
        "rhs": rhs,
        "margin": margin,
        "monotonicity_margin": None if trace is None else trace.max_rate,
        "residuals": {
            "monotonicity_mismatch": (None if trace is None
                                      else trace.max_mismatch),
            "scalar_max": scalar_max,
            "extrapolation_fit": fit.get("fit_residual"),
        },
        "verdict": verdict,
    }
    return PenroseReport(report=report, trace=trace, foliation=fol,
                         ufield=ufield)
