"""Instruments the tests use to check penlab; nothing in the package calls them.

- evolution_diagnostics: three-point s-difference checks of the
  trajectory evolution laws along a stored foliation;
- exact_schwarzschild_u: the exact lapse of the round Schwarzschild
  family, the analytic benchmark for the 1D reduction;
- DisplacedSphere: a sphere off the origin in flat space (φ = V = 1),
  its exact unit normal flow and the exact lapse and energy of a
  constant start lapse, a witness that is not axisymmetric;
- gauss_curvature: the flat-chart intrinsic curvature from the shape
  operator, to compare with the Brioschi formula;
- nonincreasing: whether an energy series never steps up by more than
  the audit's monotonicity tolerance;
- potential_at: V, V' and V'' at r through the reference's one
  potential route;
- ricci_eigenvalues, ricci_normal, t_function, scalar_curvature: the
  Ricci eigenvalue pair, Ric(nu, nu), T(r, nu) and the scalar curvature
  per quantity, each evaluating the reference functions itself, to
  compare with the fields curved_geometry and compute_constants build
  from one evaluation of each.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from penlab.energy import _MONOTONE_TOL, EnergyTrace
from penlab.flow import (Foliation, advected_derivative, drift_fields,
                         lagrange3, neighbour_windows)
from penlab.refgeom import (ConformalProfile, _ricci, isothermal_profile,
                            make_reference)
from penlab.surfgeom import FlatGeometry


# ----------------------------------------------------------------------
# evolution-law diagnostics

def _is_axisymmetric(fol: Foliation) -> bool:
    for surf in (fol.surfaces[0], fol.surfaces[-1]):
        spread = np.max(np.abs(surf.G - surf.G.mean(axis=1, keepdims=True)))
        if spread > 1e-11 * float(np.mean(surf.G)):
            return False
    return True


def _second_form_residual(prof: ConformalProfile, geoms, slopes) -> float:
    """Flat second-fundamental-form law, axisymmetric closed forms.

    geoms holds the slice and its two neighbours, slopes their lagrange3
    s-derivative weights at the slice.
    """
    geom = geoms[1]
    g = geom.grid
    surf = geom.flat.surface
    Gt, _, Gtt, _, _, Gttt = g.partials(surf.G, third=True)[:6]
    G = surf.G
    s = g.sin_theta[:, None]
    c = g.cos_theta[:, None]

    W = geom.flat.W
    sig_tt, sig_pp = geom.flat.sig_tt, geom.flat.sig_pp
    a_tt, a_pp = geom.flat.a_tt, geom.flat.a_pp

    radial = prof.radial_factors(G)
    h, h1, h2 = G / radial.r, radial.dh, radial.d2h
    h_t = h1 * Gt
    h_tt = h2 * Gt**2 + h1 * Gtt

    dsig_tt = 2.0 * (G * Gt + Gt * Gtt)
    dsig_pp = 2.0 * G * Gt * s * s + 2.0 * G * G * s * c
    hess_tt = h_tt - dsig_tt / (2.0 * sig_tt) * h_t
    hess_pp = dsig_pp / (2.0 * sig_tt) * h_t

    law_tt = -hess_tt + h * a_tt**2 / sig_tt
    law_pp = -hess_pp + h * a_pp**2 / sig_pp

    # drift terms from closed forms (tensor components are not
    # pole-regular, so no spectral differentiation here)
    W_t = (G * Gt + Gt * Gtt) / W
    N = 2.0 * Gt**2 + G**2 - G * Gtt
    N_t = 3.0 * Gt * Gtt + 2.0 * G * Gt - G * Gttt
    da_tt = (N_t * W - N * W_t) / W**2
    M = G * G * s * s - G * Gt * s * c
    M_t = (2.0 * G * Gt * s * s + 2.0 * G * G * s * c
           - (Gt**2 + G * Gtt) * s * c - G * Gt * (c * c - s * s))
    da_pp = (M_t * W - M * W_t) / W**2

    gdot_num = W * h * Gt                       # τ^θ = this / (G sig_tt)
    den = G * sig_tt
    dnum = W_t * h * Gt + W * h1 * Gt**2 + W * h * Gtt
    dden = Gt * sig_tt + G * dsig_tt
    tau = gdot_num / den
    dtau = (dnum * den - gdot_num * dden) / den**2

    lie_tt = tau * da_tt + 2.0 * a_tt * dtau
    lie_pp = tau * da_pp

    fd_tt = sum(w * gi.flat.a_tt for w, gi in zip(slopes, geoms))
    fd_pp = sum(w * gi.flat.a_pp for w, gi in zip(slopes, geoms))
    return float(max(np.max(np.abs(fd_tt - lie_tt - law_tt)),
                     np.max(np.abs(fd_pp - lie_pp - law_pp))))


def evolution_diagnostics(fol: Foliation) -> dict:
    """Three-point s-difference checks of the trajectory evolution laws.

    (a) dρ/ds = cosθ/F² per trajectory; (b) the flat second-form law
    (axisymmetric runs); (c) the physical mean-curvature first variation
    at unit lapse; (d) the angle and scale-invariant-convexity rate
    inequalities, reported as minimum margins.
    """
    if len(fol) < 3:
        raise ValueError("need at least 3 stored slices to differentiate")
    grid = fol.surfaces[0].grid
    m_ref = fol.profile.ref.m
    axisym = _is_axisymmetric(fol)

    n = len(fol)
    windows = zip(neighbour_windows(fol.s),
                  neighbour_windows(map(fol.geometry, range(n))))
    res_a, res_c, marg_d1, marg_d2, res_b = [], [], [], [], []
    # slices 1..n-2, each at the centre of its window
    for nodes, geoms in islice(windows, 1, n - 1):
        geom = geoms[1]
        slopes = lagrange3(nodes, nodes[1])[1]
        flat = geom.flat
        G = flat.surface.G
        tau_t, tau_p = drift_fields(geom)

        def traj(field):
            # trajectory s-derivative of field(slice) at the window centre
            fd = sum(w * field(gi) for w, gi in zip(slopes, geoms))
            grad = grid.gradient(field(geom))
            return fd - advected_derivative(tau_t, tau_p, grad)

        da = traj(lambda gi: gi.flat.surface.G)
        res_a.append(np.max(np.abs(da - flat.cos_theta / geom.F**2)))

        dc = traj(lambda gi: gi.H0)
        res_c.append(np.max(np.abs(dc + geom.a0_sq + geom.ric_nu)))

        dcos = traj(lambda gi: gi.flat.cos_theta)
        rhs = ((1.0 - flat.cos_theta**2) / (geom.F**2 * G)
               - np.abs(fol.profile.radial_factors(G).dh))
        marg_d1.append(np.min(dcos - rhs))

        kap = flat.kappa_min
        dkr2 = traj(lambda gi: gi.flat.kappa_min * gi.flat.surface.G**2)
        rhs2 = (2.0 * G**2 * flat.cos_theta * kap - G**3 * kap**2 - m_ref) / (
            G * geom.F**2)
        marg_d2.append(np.min(dkr2 - rhs2))

        if axisym:
            res_b.append(_second_form_residual(fol.profile, geoms, slopes))

    out = {
        "radial_rate": {"max_residual": float(np.max(res_a))},
        "mean_curvature_rate": {"max_residual": float(np.max(res_c))},
        "angle_rate": {"min_margin": float(np.min(marg_d1))},
        "convexity_rate": {"min_margin": float(np.min(marg_d2))},
    }
    if axisym:
        out["second_form_rate"] = {"max_residual": float(np.max(res_b))}
    else:
        out["second_form_rate"] = {"skipped": "non-axisymmetric run"}
    return out


# ----------------------------------------------------------------------
# closed forms and series checks

def exact_schwarzschild_u(M, m, r):
    """Exact solution u(r) = √(φ_m/φ_M) of the reduced u equation.

    The round foliation of the mass-M metric by the mass-m reference
    spheres has lapse ratio u = H0/H = √(φ_m/φ_M); along dr/ds = √φ_m
    this solves du/ds = (u − u³)c/H0 exactly, giving the analytic
    benchmark for the whole PDE pipeline on this family.
    """
    r = np.asarray(r, dtype=float)
    return np.sqrt((1.0 - 2.0 * m / r) / (1.0 - 2.0 * M / r))


@dataclass
class DisplacedSphere:
    """The sphere of radius a about centre c in flat space, |c| < a.

    The reference is the flat table φ = V = 1, whose isothermal chart is
    ρ = r with F = 1.  The sphere is the radial graph G(n) = n·c +
    √((n·c)² − |c|² + a²) and, c off the axis, is not axisymmetric.  Its
    unit normal flow is the concentric family of radius r = a + s, so
    G(s) is exact.  There H0 = 2/r, c = detA0 = 1/r² and T = Ric = 0,
    so a constant start lapse u0 stays constant on each leaf and solves
    du/ds = (u − u³)/(2r): u⁻² − 1 = (u0⁻² − 1) a/r and E(s) =
    r (1 − 1/u).
    """

    a: float
    centre: tuple

    @staticmethod
    def profile() -> ConformalProfile:
        r = np.linspace(0.05, 400.0, 800)
        ones = np.ones_like(r)
        ref = make_reference("tabulated", tabulated_data=(r, ones, ones))
        return isothermal_profile(ref, r)

    def normals(self, grid) -> np.ndarray:
        """Unit vectors n of the grid nodes, (3, n_theta, n_phi)."""
        th, ph = grid.theta[:, None], grid.phi[None, :]
        return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th) + 0.0 * ph])

    def G(self, grid, s: float = 0.0) -> np.ndarray:
        """Chart radius of the leaf s, the sphere of radius a + s."""
        c = np.asarray(self.centre, dtype=float)
        nc = np.tensordot(c, self.normals(grid), axes=1)
        return nc + np.sqrt(nc**2 - c @ c + (self.a + s) ** 2)

    def direction(self, grid, s: float = 0.0) -> np.ndarray:
        """Unit vector from the centre to each node's point on leaf s."""
        c = np.asarray(self.centre, dtype=float)[:, None, None]
        return (self.G(grid, s) * self.normals(grid) - c) / (self.a + s)

    def u(self, u0: float, s: float) -> float:
        return (1.0 + (u0**-2 - 1.0) * self.a / (self.a + s)) ** -0.5

    def energy(self, u0: float, s: float) -> float:
        return (self.a + s) * (1.0 - 1.0 / self.u(u0, s))


def gauss_curvature(flat: FlatGeometry) -> np.ndarray:
    """Intrinsic curvature from the shape operator (flat ambient)."""
    det_sig = (flat.surface.G * flat.grid.sin_theta[:, None] * flat.W) ** 2
    return (flat.a_tt * flat.a_pp - flat.a_tp**2) / det_sig


def nonincreasing(trace: EnergyTrace) -> bool:
    return bool(np.all(np.diff(trace.energy) <= _MONOTONE_TOL))


# ----------------------------------------------------------------------
# reference curvature per quantity

def potential_at(ref, r):
    """(V, V′, V″) at r, from φ and φ′ evaluated there."""
    r = ref.require_exterior(r)
    return ref.potential(r, ref.phi(r), ref.dphi(r))


def ricci_eigenvalues(ref, r):
    """Orthonormal-frame Ricci eigenvalues (radial, tangential) at r."""
    r = ref.require_exterior(r)
    return _ricci(r, ref.phi(r), ref.dphi(r))


def ricci_normal(ref, r, cos_theta):
    """Ric(ν,ν) for a unit normal at angle θ to the radial direction."""
    lam_rad, lam_tan = ricci_eigenvalues(ref, r)
    c2 = np.asarray(cos_theta, dtype=float) ** 2
    return c2 * lam_rad + (1.0 - c2) * lam_tan


def t_function(ref, r, cos_theta):
    """T(r, ν) = (ΔV − D²V(ν,ν))/V + Ric(ν,ν), ν at angle θ to ∂r.

    The orthonormal Hessian of V is φV″ + ½φ′V′ radially and (φ/r)V′ in
    each tangential direction.
    """
    r = ref.require_exterior(r)
    p, dp = ref.phi(r), ref.dphi(r)
    v, dv, d2v = potential_at(ref, r)
    rad = p * d2v + 0.5 * dp * dv
    tan = (p / r) * dv
    c2 = np.asarray(cos_theta, dtype=float) ** 2
    hess_nu = c2 * rad + (1.0 - c2) * tan
    return (rad + 2.0 * tan - hess_nu) / v + ricci_normal(ref, r, cos_theta)


def scalar_curvature(ref, r):
    """R̄(r), the trace of the Ricci tensor."""
    lam_rad, lam_tan = ricci_eigenvalues(ref, r)
    return lam_rad + 2.0 * lam_tan
