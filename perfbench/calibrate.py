"""Fixed calibration kernel: how fast this machine runs penlab-like code now.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds, far more than the changes the benchmark must resolve.
The worker runs this kernel three times before every operation, and
run.py divides that operation's wall time by the mean pass time over
``REFERENCE_S``.  The time metrics then read in seconds of a machine on
which the kernel takes ``REFERENCE_S``; the raw wall times stay in every
record.

The kernel is a frozen transcription of penlab's hot paths at the commit
that added this benchmark, written with numpy and scipy alone so that no
later change to penlab can speed it up: one spherical analysis and five
syntheses on a 16x32 grid (random tables of the real shapes), and the
radial inversion's Newton loop over scipy dense ODE output for the
Schwarzschild isothermal coordinate.  This file must not change once
results have been recorded with it.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.1

# setup_s gets the same treatment: each penlab set-up is divided by a fresh
# process that imports only penlab's dependencies, over IMPORT_REFERENCE_S
DEPENDENCIES = ("numpy", "scipy.integrate", "scipy.interpolate",
                "scipy.special", "scipy.sparse.linalg")
IMPORT_REFERENCE_S = 0.5
REPS = 60
N_THETA, N_PHI, N_M = 16, 32, 16
DERIVATIVES = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))   # (theta, phi) orders


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20181024)
        self.tables = rng.standard_normal((3, N_M, N_THETA, N_M))
        self.mask = np.triu(np.ones((N_M, N_M), dtype=bool))
        self.field = 3.0 + 0.01 * rng.standard_normal((N_THETA, N_PHI))
        self.bounds = (np.log(2.02), np.log(60.0))
        sol = solve_ivp(lambda tau, y: 1.0 / np.sqrt(1.0 - 2.0 / np.exp(tau)) - 1.0,
                        self.bounds[::-1], [0.0], method="RK45",
                        rtol=1e-11, atol=1e-14, dense_output=True)
        self.dense = sol.sol

    def _analyze(self, f):
        fhat = np.fft.rfft(f, axis=1) / N_PHI
        return np.einsum("mil,im->ml", self.tables[0], fhat[:, :N_M]) * self.mask

    def _synthesize(self, coeff, dtheta, dphi):
        if dphi:
            coeff = coeff * ((1j * np.arange(N_M)) ** dphi)[:, None]
        ghat = np.einsum("mil,ml->im", self.tables[dtheta], coeff)
        full = np.zeros((N_THETA, N_PHI // 2 + 1), dtype=complex)
        full[:, :N_M] = ghat
        return np.fft.irfft(full * N_PHI, n=N_PHI, axis=1)

    def _invert(self, rho):
        lo, hi = self.bounds
        target = np.log(rho)
        tau = np.clip(target, lo, hi)
        for _ in range(12):
            y = self.dense(np.clip(tau, lo, hi).ravel())[0].reshape(tau.shape)
            resid = tau + y - target
            if np.max(np.abs(resid)) < 1e-13:
                break
            tau = np.clip(tau - resid * np.sqrt(1.0 - 2.0 / np.exp(tau)), lo, hi)
        return np.exp(tau)

    def run(self) -> float:
        """Seconds taken by one pass of the fixed kernel."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            # penlab's flagship spends about as long transforming as inverting
            for _ in range(4):
                coeff = self._analyze(self.field)
                parts = [self._synthesize(coeff, a, b) for a, b in DERIVATIVES]
            r = self._invert(self.field)
            np.sqrt(self.field**2 + parts[0] ** 2) * self.field / r
        return time.perf_counter() - t0
