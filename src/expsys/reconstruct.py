"""Analysis/synthesis with generalized exponentials."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._oscillatory import exp_moments
from .measures import QuadratureSpec, integrate
from .spectra import SpectrumSet


@dataclass
class CoefficientSet:
    spectrum: SpectrumSet
    values: np.ndarray
    errors: np.ndarray
    failed: np.ndarray  # per-entry flags; flagged entries are NaN, never zeroed

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            d = self.spectrum.dim
            writer.writerow([f"lambda_{i+1}" for i in range(d)] + ["re", "im"])
            for lam, c in zip(self.spectrum.points, self.values):
                writer.writerow(
                    [repr(v) for v in lam] + [repr(c.real), repr(c.imag)]
                )


def coefficients(
    f, mu, phi, spectrum: SpectrumSet, quad: QuadratureSpec, threads=1
) -> CoefficientSet:
    """c_lambda = integral of f(x) e^{-2 pi i lambda . phi(x)} dmu(x) per lambda."""
    vals, errs = exp_moments(
        mu, phi, -spectrum.points, quad, weights=[(f, None)],
        threads=threads, strict=False,
    )
    vals, errs = vals[:, 0], errs[:, 0]
    return CoefficientSet(spectrum, vals, errs, failed=~np.isfinite(vals))


def synthesize(values, phi, spectrum: SpectrumSet):
    """Pointwise synthesis x -> sum_lambda c_lambda e^{2 pi i lambda . phi(x)}."""
    values = np.asarray(values, dtype=complex)
    lam = spectrum.points

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        Z = np.exp(2j * np.pi * (phi(pts) @ lam.T))
        out = Z @ values
        return out[0] if single else out

    return g


def l2_error(f, g, mu, quad: QuadratureSpec) -> float:
    """||f - g|| in L^2(mu)."""

    def diff_sq(pts):
        d = np.asarray(f(pts)) - np.asarray(g(pts))
        return np.abs(d) ** 2

    val, _ = integrate(diff_sq, mu, quad)
    return float(np.sqrt(max(np.real(val), 0.0)))
