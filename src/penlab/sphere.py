"""Pseudospectral scalar calculus on Gauss-Legendre x uniform sphere grids.

Fields live on a tensor grid of Gauss-Legendre colatitude nodes and
equispaced longitudes.  Longitudinal derivatives are exact Fourier
derivatives.  Colatitude derivatives are evaluated by expanding each
azimuthal Fourier mode in normalized associated Legendre functions and
re-synthesizing with analytically differentiated basis tables, so no
numerical differentiation matrix is ever applied to a non-smooth
composite field.

For a field band-limited to degree n_theta - 1 the first three partial
derivatives are exact to roundoff, and the quadrature rule integrates
spherical harmonics up to degree 2*n_theta - 1 exactly.  Products of
resolved smooth fields alias only in the spectrally small tail, which is
the usual pseudospectral compromise.

Each transform is two matmuls against tables built once: a real DFT
table in phi (a cosine and a sine row per resolved mode, 2(mmax+1) x
n_phi) and a batched Legendre table over m.  The phi stage costs
O(n_theta n_phi mmax) instead of the FFT's O(n_theta n_phi log n_phi),
but on small grids a matmul is cheaper than one FFT call's fixed
overhead.  Measured on one core (numpy with OpenBLAS): 2-7 us against
10-18 us for rfft on grids from 8x16 to 32x64, about even near 48x96,
and the FFT wins from 64x128 on (36 against 56 us).  The tests, the
benchmark and the CLI default use grids up to 32x64, so there is one
path and no size switch.

Coefficients have one layout: analyze maps k real fields (..., n_theta,
n_phi) to one real (k, mmax+1, 2, lmax+1) array, a block per field in C
order holding the real ([j, m, 0]) and imaginary ([j, m, 1]) parts by l.
An operator costs one analysis and one synthesis however many fields and
derivatives it needs (the batching of Schaeffer, G-Cubed 14, 2013), and
no complex view or transposed copy sits between the stages.  synthesize
reads one fixed table of the ten ENTRIES, (d/dtheta)^a (d/dphi)^b with
a + b <= 3, each entry a d/dtheta-order Legendre table and a d/dphi-order
DFT table.  Their order makes every operator's entries an int or a slice:
0 for project, 0:3 for the Helmholtz inverse with its gradient, 1:3 for
the gradient and the divergence flux, 1:6 for partials and 1:10 with the
third partials.  The table holds 60, 400 and 2880 KB at 8x16, 16x32 and
32x64 and is built once with the grid.
"""

from __future__ import annotations

import numpy as np

# the synthesis entries: one t per d/dtheta, one p per d/dphi
ENTRIES = ("", "t", "p", "tt", "tp", "pp", "ttt", "ttp", "tpp", "ppp")


class SphereGrid:
    """Tensor-product sphere grid with spectral derivative tables.

    Parameters
    ----------
    n_theta : int
        Number of Gauss-Legendre colatitude nodes (>= 4).
    n_phi : int
        Number of uniform longitude nodes (>= 4, even).

    Attributes
    ----------
    theta, x, w : (n_theta,) arrays
        Colatitude nodes (increasing), x = cos(theta) and Gauss-Legendre
        weights for integration in x.
    phi : (n_phi,) array
        Longitude nodes.
    quad : (n_theta, 1) array
        Solid-angle quadrature weights; (field * quad).sum() integrates
        over the unit sphere with measure sin(theta) dtheta dphi.
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        if n_phi < 4 or n_phi % 2:
            raise ValueError("n_phi must be even and at least 4")
        self.n_theta = n_theta
        self.n_phi = n_phi

        x, w = np.polynomial.legendre.leggauss(n_theta)
        # descending x = increasing theta, north pole first
        order = np.argsort(-x)
        self.x = x[order]
        self.w = w[order]
        self.theta = np.arccos(self.x)
        self.sin_theta = np.sqrt(1.0 - self.x**2)
        self.cos_theta = self.x
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.quad = (self.w * 2.0 * np.pi / n_phi)[:, None]

        self.lmax = n_theta - 1
        # the DFT resolves modes 0..n_phi/2; the Nyquist mode carries no
        # usable phase so the band limit stops one short of it
        self.mmax = min(self.lmax, n_phi // 2 - 1)
        self._build_tables()

    # ------------------------------------------------------------------
    # basis tables

    def _build_tables(self):
        nt, lmax, mmax = self.n_theta, self.lmax, self.mmax
        x, sin = self.x, self.sin_theta
        cot = self.x / sin
        inv_sin2 = 1.0 / sin**2

        P = np.zeros((mmax + 1, nt, lmax + 1))
        pmm = np.full(nt, 1.0 / np.sqrt(2.0))
        for m in range(mmax + 1):
            if m > 0:
                pmm = pmm * np.sqrt((2 * m + 1) / (2.0 * m)) * sin
            P[m, :, m] = pmm
            if m + 1 <= lmax:
                P[m, :, m + 1] = np.sqrt(2 * m + 3.0) * x * pmm
            for ell in range(m + 2, lmax + 1):
                a = np.sqrt((4.0 * ell**2 - 1.0) / (ell**2 - m**2))
                b = np.sqrt(((2.0 * ell + 1.0) * ((ell - 1.0) ** 2 - m**2))
                            / ((2.0 * ell - 3.0) * (ell**2 - m**2)))
                P[m, :, ell] = a * x * P[m, :, ell - 1] - b * P[m, :, ell - 2]

        ells = np.arange(lmax + 1, dtype=float)
        m2 = np.arange(mmax + 1, dtype=float)[:, None, None] ** 2
        self._ell_ell1 = ells * (ells + 1.0)    # -Laplacian eigenvalues
        lam = self._ell_ell1[None, None, :]

        # dP/dtheta = (l x P_l - d_lm P_{l-1}) / sin
        d = np.zeros((mmax + 1, lmax + 1))
        for m in range(mmax + 1):
            for ell in range(m, lmax + 1):
                if ell >= 1:
                    d[m, ell] = np.sqrt((2.0 * ell + 1.0) / (2.0 * ell - 1.0)
                                        * (ell**2 - m**2))
        Pshift = np.zeros_like(P)
        Pshift[:, :, 1:] = P[:, :, :-1]
        dP = (ells[None, None, :] * x[None, :, None] * P
              - d[:, None, :] * Pshift) / sin[None, :, None]

        # second and third derivatives from the associated Legendre ODE
        c1 = cot[None, :, None]
        s2 = inv_sin2[None, :, None]
        d2P = -c1 * dP - (lam - m2 * s2) * P
        d3P = (-c1 * d2P + (s2 + m2 * s2 - lam) * dP
               - 2.0 * m2 * (cot * inv_sin2)[None, :, None] * P)

        self._analysis = P * self.w[None, :, None]
        # synthesis tables (entry, m, l, theta), contiguous: BLAS sums
        # against a transposed view in another order, so the layout sets
        # the output bytes.  P[m, :, l < m] is exactly zero, so the
        # transforms need no mask
        dtheta = [e.count("t") for e in ENTRIES]
        self._synthesis = np.ascontiguousarray(
            np.stack([P, dP, d2P, d3P])[dtheta].swapaxes(2, 3))

        # real DFT in phi over the resolved modes: rows (m, cos) and
        # (m, sin) per mode.  Analysis divides by n_phi.  Synthesis weighs
        # m = 0 once and m > 0 twice (the conjugate modes), which is what
        # irfft does with every mode above mmax zero; an entry's table of
        # d/dphi order b carries the factor (i m)^b as m^b and a phase b pi/2.
        m = np.arange(mmax + 1)
        angle = m[:, None] * self.phi[None, :]
        self._dft = (np.stack([np.cos(angle), -np.sin(angle)], axis=1)
                     / self.n_phi).reshape(2 * (mmax + 1), self.n_phi)
        b = np.array([e.count("p") for e in ENTRIES])[:, None]
        shifted = angle[None, :, None, :] + 0.5 * np.pi * b[:, :, None, None]
        weight = (np.where(m == 0, 1.0, 2.0) * m**b)[:, :, None, None]
        cos_sin = np.concatenate([np.cos(shifted), -np.sin(shifted)], axis=2)
        self._idft = (weight * cos_sin).reshape(len(ENTRIES), 2 * (mmax + 1),
                                                self.n_phi)

    # ------------------------------------------------------------------
    # transforms

    def analyze(self, field: np.ndarray) -> np.ndarray:
        """Expand real grid fields: (..., n_theta, n_phi) -> (k, mmax+1, 2, lmax+1).

        The k fields of the stack, in C order, get one block each: [j, m, 0]
        holds the real and [j, m, 1] the imaginary parts of field j's
        coefficients of order m, by l.
        """
        field = np.asarray(field, dtype=float)
        # (k, m, re/im, theta) per field, then one Legendre pass per m
        fhat = (self._dft @ field.swapaxes(-1, -2)).reshape(
            -1, self.mmax + 1, 2, self.n_theta)
        return fhat @ self._analysis

    def synthesize(self, C: np.ndarray, entries=0) -> np.ndarray:
        """Evaluate table entries of expansions on the grid.

        C holds k coefficient sets as analyze returns them, (k, mmax+1, 2,
        lmax+1).  entries is an index or a slice of ENTRIES; a single set
        is shared by every entry, else set j goes with entry j.  So
        synthesize(C, slice(1, 3)) returns both first partials of one
        expansion as a (2, n_theta, n_phi) stack, and an index gives one
        (n_theta, n_phi) field of a single set.
        """
        nm = self.mmax + 1
        if C.shape[1:] != (nm, 2, self.lmax + 1):
            raise ValueError(f"coefficients must be (k, {nm}, 2, "
                             f"{self.lmax + 1}) blocks")
        # each entry's set against its theta-order table, then its phi table
        grid = (C @ self._synthesis[entries]).reshape(
            -1, 2 * nm, self.n_theta).swapaxes(1, 2) @ self._idft[entries]
        return grid[0] if len(C) == 1 and isinstance(entries, int) else grid

    def partials(self, field: np.ndarray, third: bool = False) -> dict:
        """All partial derivatives of a smooth scalar field up to order 2 (or 3).

        Returns a dict keyed by 't', 'p', 'tt', 'tp', 'pp' and, with
        third=True, also 'ttt', 'ttp', 'tpp', 'ppp'.
        """
        k = 10 if third else 6
        return dict(zip(ENTRIES[1:k], self.synthesize(self.analyze(field),
                                                      slice(1, k))))

    def gradient(self, field: np.ndarray) -> np.ndarray:
        """Stacked first partials (d/dtheta, d/dphi) of a smooth scalar field."""
        return self.synthesize(self.analyze(field), slice(1, 3))

    def div_grad(self, field: np.ndarray, a_tt, a_tp, a_pp, grad=None) -> np.ndarray:
        """Divergence form d_theta(a_tt f_t + a_tp f_p) + d_phi(a_tp f_t + a_pp f_p).

        One analysis and one stacked synthesis for the gradient, then one
        stacked analysis of both fluxes and one synthesis of their
        derivatives.  A caller that already holds gradient(field) passes
        it as grad, which skips the first pair.
        """
        ft, fp = self.gradient(field) if grad is None else grad
        flux = np.array([a_tt * ft + a_tp * fp, a_tp * ft + a_pp * fp])
        div = self.synthesize(self.analyze(flux), slice(1, 3))
        return div[0] + div[1]

    def project(self, field: np.ndarray) -> np.ndarray:
        """Band-limit a field to the resolved modes (dealiasing projection)."""
        return self.synthesize(self.analyze(field))

    def spectral_tail_fraction(self, field: np.ndarray) -> float:
        """Fraction of coefficient energy in the top two degrees.

        A resolved smooth field has a tiny tail; values near one mean the
        grid is too coarse for the field and derivatives are unreliable.
        """
        power = self.analyze(field) ** 2
        total = power.sum()
        if total == 0.0:
            return 0.0
        return float(power[..., -2:].sum() / total)

    def integrate(self, field: np.ndarray) -> float:
        """Solid-angle integral of a grid field."""
        return float((field * self.quad).sum())

    # ------------------------------------------------------------------
    # helmholtz-style solve on the round sphere, used as a preconditioner

    def round_helmholtz_gain(self, alpha: float) -> np.ndarray:
        """Per-degree gain 1/(1 + alpha l(l+1)) - 1 of round_helmholtz_inverse,
        taken once for every field inverted at the same alpha."""
        return 1.0 / (1.0 + alpha * self._ell_ell1) - 1.0

    def round_helmholtz_inverse(self, field: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """Solve (1 + alpha * L) u = field on the band, identity off it, and
        return the stack (u, du/dtheta, du/dphi), shape (3, n_theta, n_phi).

        L = -Laplacian of the unit sphere, and gain is
        round_helmholtz_gain(alpha).  The resolved part of the field is
        inverted mode by mode; whatever lies outside the band passes
        through unchanged, so the map stays invertible on every grid field.
        With c the field's coefficients, cg = c * gain are those of
        u - field and c + cg those of u, so one synthesis of entries 0:3
        gives u and its gradient.
        """
        c = self.analyze(field)
        cg = c * gain
        own = c + cg
        stack = self.synthesize(np.concatenate([cg, own, own]), slice(0, 3))
        stack[0] += field
        return stack
