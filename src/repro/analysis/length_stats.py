"""Response-length distribution analysis (Section 4.3).

The paper's headline statistic is the *response length difference*
``D = (L_un - L_cs) / L_un`` — negative when compression lengthens the
response.  This module computes D distributions, the Table 5 variation
ratios, kernel density estimates for the Fig. 4 panels, and the verbose-
output criterion of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.stats import gaussian_kde


def length_difference(
    uncompressed: Sequence[int], compressed: Sequence[int]
) -> np.ndarray:
    """Per-sample ``D = (L_un - L_cs) / L_un``."""
    lu = np.maximum(np.asarray(uncompressed, dtype=float), 1.0)
    lc = np.asarray(compressed, dtype=float)
    return (lu - lc) / lu


@dataclass(frozen=True)
class VariationRatios:
    """Table 5 statistics: fraction with large length changes."""

    shorter_50: float  # % of samples with D >= 0.5 (much shorter)
    longer_50: float   # % of samples with D <= -0.5 (much longer)

    @staticmethod
    def from_d(d: np.ndarray) -> "VariationRatios":
        """Compute from a D sample."""
        return VariationRatios(
            shorter_50=100.0 * float(np.mean(d >= 0.5)),
            longer_50=100.0 * float(np.mean(d <= -0.5)),
        )


def d_histogram(
    d: np.ndarray, bins: int = 40, clip: float = 4.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of D clipped to [-clip, 1] (Fig. 4 bars)."""
    dc = np.clip(d, -clip, 1.0)
    counts, edges = np.histogram(dc, bins=bins, range=(-clip, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


def d_kde(
    d: np.ndarray, grid: int = 200, clip: float = 4.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Kernel density estimate of D (Fig. 4 line)."""
    dc = np.clip(np.asarray(d, dtype=float), -clip, 1.0)
    if np.std(dc) < 1e-9:
        xs = np.linspace(-clip, 1.0, grid)
        ys = np.zeros_like(xs)
        ys[np.argmin(np.abs(xs - dc.mean()))] = 1.0
        return xs, ys
    kde = gaussian_kde(dc)
    xs = np.linspace(-clip, 1.0, grid)
    return xs, kde(xs)


def flatness(d: np.ndarray) -> float:
    """Spread of the D distribution (higher = flatter, Obs. 3)."""
    return float(np.std(np.clip(d, -4.0, 1.0)))


def verbose_fraction(
    base_scores: Sequence[float],
    comp_scores: Sequence[float],
    base_lens: Sequence[int],
    comp_lens: Sequence[int],
) -> float:
    """Fraction of *verbose* outputs per the paper's Table 4 criterion.

    Verbose: quality no better than baseline while output is no shorter.
    """
    qb = np.asarray(base_scores, dtype=float)
    qc = np.asarray(comp_scores, dtype=float)
    lb = np.asarray(base_lens, dtype=float)
    lc = np.asarray(comp_lens, dtype=float)
    return float(np.mean((qc <= qb) & (lc >= lb)))
