"""Star-shaped surfaces in the isothermal chart and their fundamental forms.

A surface is the radial graph ρ = G(θ, φ) over the unit sphere in the
conformally flat picture gbar = F⁴(ρ)(dρ² + ρ² dS²).  Flat-chart data
(first and second fundamental forms, principal curvatures, support
function, normal angle) come from closed-form expressions in G and its
angular derivatives; the physical data follow by conformal rescaling
plus the reference curvature fields evaluated at r(ρ).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv

from .sphere import SphereGrid
from .refgeom import ConformalProfile, _trace, reference_fields

__all__ = [
    "StarSurface",
    "FlatGeometry",
    "CurvedGeometry",
    "round_surface",
    "perturbed_surface",
    "flat_geometry",
    "curved_geometry",
    "reaction_coefficient",
    "rate_bracket",
    "brioschi_curvature",
    "metric_partials",
]


@dataclass
class StarSurface:
    """Radial graph over the sphere: chart radius G(θ, φ) on a grid."""

    grid: SphereGrid
    G: np.ndarray

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.G.shape != expected:
            raise ValueError(f"G has shape {self.G.shape}, grid wants {expected}")
        if not np.all(self.G > 0.0):
            raise ValueError("star surface needs G > 0 everywhere")


def round_surface(grid: SphereGrid, rho0: float) -> StarSurface:
    """Coordinate sphere ρ = ρ0."""
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    return StarSurface(grid, np.full((grid.n_theta, grid.n_phi), float(rho0)))


def perturbed_surface(grid: SphereGrid, rho0: float, modes: dict) -> StarSurface:
    """Round surface ρ0(1 + bump), the bump a sum of harmonic modes.

    modes maps (ell, m) to an amplitude ε that multiplies the
    unnormalised associated Legendre P_ell^m(cosθ) of scipy's lpmv,
    Condon–Shortley phase (−1)^m included, times cos(mφ) for m ≥ 0 and
    sin(|m|φ) for m < 0, so (2, 0) with ε gives ρ0(1 + ε P₂(cosθ)).
    ε is not the bump's size: P_ell^ell peaks at (2 ell − 1)!!, so
    {(7, 7): 0.01} on an 8x16 grid is a bump of about 1351, which
    fails StarSurface's G > 0.  A mode beyond the grid's band
    (ell > lmax or |m| > mmax) is an error.
    """
    bump = np.zeros((grid.n_theta, grid.n_phi))
    x = grid.cos_theta[:, None]
    for (ell, m), amp in modes.items():
        if abs(m) > ell:
            raise ValueError(f"mode ({ell}, {m}) has |m| > ell")
        if ell > grid.lmax or abs(m) > grid.mmax:
            raise ValueError(f"mode ({ell}, {m}) is outside the grid's band "
                             f"(lmax {grid.lmax}, mmax {grid.mmax})")
        leg = lpmv(abs(m), ell, x)
        if m >= 0:
            bump += amp * leg * np.cos(m * grid.phi)[None, :]
        else:
            bump += amp * leg * np.sin(-m * grid.phi)[None, :]
    return StarSurface(grid, rho0 * (1.0 + bump))


# ----------------------------------------------------------------------
# flat-chart fundamental forms

@dataclass
class FlatGeometry:
    """Euclidean-chart geometry of a star surface.

    Components are coordinate (θ, φ) tensor entries on the grid; the
    area density is taken per unit solid angle, i.e. √det σ̃ / sinθ.
    partials is G's stack (G_θ, G_φ, G_θθ, G_θφ, G_φφ) from
    SphereGrid.partials, which the lapse bundle and the drift read too.
    """

    surface: StarSurface
    partials: np.ndarray
    W: np.ndarray
    sig_tt: np.ndarray
    sig_tp: np.ndarray
    sig_pp: np.ndarray
    a_tt: np.ndarray
    a_tp: np.ndarray
    a_pp: np.ndarray
    H: np.ndarray
    kappa_min: np.ndarray
    kappa_max: np.ndarray
    support: np.ndarray
    cos_theta: np.ndarray
    area_density: np.ndarray

    @property
    def grid(self) -> SphereGrid:
        return self.surface.grid


def flat_geometry(surface: StarSurface) -> FlatGeometry:
    g = surface.grid
    G = surface.G
    Gt, Gp, Gtt, Gtp, Gpp = p = g.partials(G)
    s = g.sin_theta[:, None]
    c = g.cos_theta[:, None]

    W = np.sqrt(G**2 + Gt**2 + (Gp / s) ** 2)
    sig_tt = G**2 + Gt**2
    sig_tp = Gt * Gp
    sig_pp = Gp**2 + (G * s) ** 2
    a_tt = (2.0 * Gt**2 + G**2 - G * Gtt) / W
    a_tp = (2.0 * Gt * Gp + G * Gp * (c / s) - G * Gtp) / W
    a_pp = (2.0 * Gp**2 + (G * s) ** 2 - G * Gpp - G * Gt * s * c) / W
    det_sig = (G * s * W) ** 2

    # shape-operator entries; the (s11−s22)² + 4 s12 s21 form keeps the
    # discriminant cancellation-free at umbilic points
    s11 = (sig_pp * a_tt - sig_tp * a_tp) / det_sig
    s12 = (sig_pp * a_tp - sig_tp * a_pp) / det_sig
    s21 = (sig_tt * a_tp - sig_tp * a_tt) / det_sig
    s22 = (sig_tt * a_pp - sig_tp * a_tp) / det_sig
    H = s11 + s22
    disc = 0.5 * np.sqrt(np.maximum((s11 - s22) ** 2 + 4.0 * s12 * s21, 0.0))
    kappa_min = 0.5 * H - disc
    kappa_max = 0.5 * H + disc

    return FlatGeometry(
        surface=surface, partials=p, W=W,
        sig_tt=sig_tt, sig_tp=sig_tp, sig_pp=sig_pp,
        a_tt=a_tt, a_tp=a_tp, a_pp=a_pp,
        H=H, kappa_min=kappa_min, kappa_max=kappa_max,
        support=G**2 / W, cos_theta=G / W, area_density=G * W,
    )


# ----------------------------------------------------------------------
# intrinsic curvature from metric components alone

def brioschi_curvature(E, F, G, E_u, E_v, E_vv, F_u, F_v, F_uv, G_u, G_v, G_uu):
    """Gauss curvature of E du² + 2F du dv + G dv² from its partials."""
    m11 = -0.5 * E_vv + F_uv - 0.5 * G_uu
    m12 = 0.5 * E_u
    m13 = F_u - 0.5 * E_v
    m21 = F_v - 0.5 * G_u
    m31 = 0.5 * G_v
    det1 = (m11 * (E * G - F * F)
            - m12 * (m21 * G - F * m31)
            + m13 * (m21 * F - E * m31))
    n12 = 0.5 * E_v
    n13 = 0.5 * G_u
    det2 = (-n12 * (n12 * G - F * n13)
            + n13 * (n12 * F - E * n13))
    return (det1 - det2) / (E * G - F * F) ** 2


def metric_partials(surface: StarSurface, profile: ConformalProfile | None = None):
    """Induced-metric components and the partials the curvature formula needs.

    Everything is assembled by the product rule from spectral derivatives
    of the smooth scalar G (tensor components themselves are not
    pole-regular, so they are never differentiated spectrally).  With a
    profile the metric is the physical one, F⁴(G) × flat; without, the
    flat-chart metric itself.
    """
    g = surface.grid
    G0 = surface.G
    Gt, Gp, Gtt, Gtp, Gpp, _, Gttp, Gtpp, _ = g.partials(G0, third=True)
    s = g.sin_theta[:, None]
    c = g.cos_theta[:, None]

    if profile is None:
        f = np.ones_like(G0)
        f1 = np.zeros_like(G0)
        f2 = np.zeros_like(G0)
    else:
        radial = profile.radial_factors(G0)
        f, f1, f2 = radial.F, radial.dF, radial.d2F

    w4 = f**4
    c4 = 4.0 * f**3 * f1
    c4b = 12.0 * f**2 * f1**2 + 4.0 * f**3 * f2

    def d1(Ga, Q, Qa):
        return c4 * Ga * Q + w4 * Qa

    def d2(Ga, Gb, Gab, Q, Qa, Qb, Qab):
        return c4b * Ga * Gb * Q + c4 * (Gab * Q + Ga * Qb + Gb * Qa) + w4 * Qab

    QE = G0**2 + Gt**2
    QE_u = 2.0 * (G0 * Gt + Gt * Gtt)
    QE_v = 2.0 * (G0 * Gp + Gt * Gtp)
    QE_vv = 2.0 * (Gp**2 + G0 * Gpp + Gtp**2 + Gt * Gtpp)

    QF = Gt * Gp
    QF_u = Gtt * Gp + Gt * Gtp
    QF_v = Gtp * Gp + Gt * Gpp
    QF_uv = Gttp * Gp + Gtt * Gpp + Gtp**2 + Gt * Gtpp

    QG = Gp**2 + (G0 * s) ** 2
    QG_u = 2.0 * (Gp * Gtp + G0 * Gt * s * s + G0 * G0 * s * c)
    QG_v = 2.0 * (Gp * Gpp + G0 * Gp * s * s)
    QG_uu = 2.0 * (Gtp**2 + Gp * Gttp + (Gt**2 + G0 * Gtt) * s * s
                   + 4.0 * G0 * Gt * s * c + G0 * G0 * (c * c - s * s))

    return {
        "E": w4 * QE, "F": w4 * QF, "G": w4 * QG,
        "E_u": d1(Gt, QE, QE_u), "E_v": d1(Gp, QE, QE_v),
        "E_vv": d2(Gp, Gp, Gpp, QE, QE_v, QE_v, QE_vv),
        "F_u": d1(Gt, QF, QF_u), "F_v": d1(Gp, QF, QF_v),
        "F_uv": d2(Gt, Gp, Gtp, QF, QF_u, QF_v, QF_uv),
        "G_u": d1(Gt, QG, QG_u), "G_v": d1(Gp, QG, QG_v),
        "G_uu": d2(Gt, Gt, Gtt, QG, QG_u, QG_u, QG_uu),
    }


# ----------------------------------------------------------------------
# physical geometry

@dataclass
class CurvedGeometry:
    """Physical geometry of a star surface in the reference manifold.

    Carries the flat-chart data it was built from plus the conformally
    rescaled curvatures and the reference curvature fields along the
    surface; ricci is the (radial, tangential) Ricci eigenvalue pair at r.
    The metric F⁴σ̃ is not stored; its area density is per unit solid
    angle (√det σ / sinθ), so surface integrals are grid.integrate(field *
    area_density).  gauss_k needs third derivatives of G, so it,
    gauss_residual and scalar_curv are computed on each read.
    """

    flat: FlatGeometry
    profile: ConformalProfile
    r: np.ndarray
    F: np.ndarray
    V: np.ndarray
    dV_dnu: np.ndarray
    H0: np.ndarray
    kappa_min: np.ndarray
    kappa_max: np.ndarray
    area_density: np.ndarray
    det_a0: np.ndarray
    a0_sq: np.ndarray
    ric_nu: np.ndarray
    t_field: np.ndarray
    ricci: tuple

    @property
    def grid(self) -> SphereGrid:
        return self.flat.grid

    @property
    def scalar_curv(self) -> np.ndarray:
        return _trace(*self.ricci)

    @property
    def gauss_k(self) -> np.ndarray:
        """Intrinsic curvature of the induced metric (Brioschi formula)."""
        return brioschi_curvature(**metric_partials(self.flat.surface,
                                                    self.profile))

    @property
    def gauss_residual(self) -> np.ndarray:
        """Gauss-equation defect 2K − (R̄ − 2 Ric(ν,ν) + H0² − |A0|²)."""
        return 2.0 * self.gauss_k - (self.scalar_curv - 2.0 * self.ric_nu
                                     + self.H0**2 - self.a0_sq)

    def area(self) -> float:
        return self.grid.integrate(self.area_density)

    def area_radius(self) -> float:
        return float(np.sqrt(self.area() / (4.0 * np.pi)))


def curved_geometry(surface: StarSurface, profile: ConformalProfile) -> CurvedGeometry:
    flat = flat_geometry(surface)
    radial = profile.radial_factors(surface.G)
    r, F = radial.r, radial.F
    dF_dnu = radial.dF * flat.cos_theta
    ratio = 2.0 * dF_dnu / F
    F2 = F * F

    kappa_min = (flat.kappa_min + ratio) / F2
    kappa_max = (flat.kappa_max + ratio) / F2
    H0 = (flat.H + 2.0 * ratio) / F2

    area_density = F2 * F2 * flat.area_density

    V, dV_dnu, ric, tfield, ricci = reference_fields(profile.ref, radial,
                                                     flat.cos_theta)

    det_a0 = kappa_min * kappa_max
    a0_sq = kappa_min**2 + kappa_max**2

    return CurvedGeometry(
        flat=flat, profile=profile, r=r, F=F,
        V=V, dV_dnu=dV_dnu, H0=H0,
        kappa_min=kappa_min, kappa_max=kappa_max,
        area_density=area_density,
        det_a0=det_a0, a0_sq=a0_sq,
        ric_nu=ric, t_field=tfield, ricci=ricci,
    )


def reaction_coefficient(geom: CurvedGeometry) -> np.ndarray:
    """c = detA0 + T/2 − Ric(ν,ν); positivity drives u monotonically to 1."""
    return geom.det_a0 + 0.5 * geom.t_field - geom.ric_nu


def rate_bracket(geom: CurvedGeometry) -> np.ndarray:
    """H0 dV/dν + V (detA0 − T/2), the bracket of the energy's rate identity."""
    return geom.H0 * geom.dV_dnu + geom.V * (geom.det_a0 - 0.5 * geom.t_field)
