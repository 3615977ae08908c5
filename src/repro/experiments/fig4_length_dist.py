"""Figure 4 (and appendix Fig. 15): length-difference distributions.

For each algorithm at several compression ratios (quantizer bits,
sparse cache budgets), the distribution of the response-length
difference D plus its kernel density estimate.  Higher compression
ratios flatten the distribution and push mass toward lengthy responses
(negative D) — the paper's Observation 3.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.analysis.length_stats import (
    d_kde,
    flatness,
    length_difference,
)
from repro.analysis.reporting import format_series, format_table
from repro.core.config import ExperimentScale, current_scale
from repro.experiments.common import ExperimentResult
from repro.experiments.genruns import sharegpt_run

#: the compression-ratio sweeps of Figure 4
SWEEPS: Dict[str, Tuple[str, ...]] = {
    "kivi": ("kivi-8", "kivi-4", "kivi-2"),
    "gear": ("gear-8", "gear-4", "gear-2"),
    "h2o": ("h2o-1024", "h2o-512", "h2o-256"),
    "stream": ("stream-1024", "stream-512", "stream-256"),
}


def d_distributions(
    scale: ExperimentScale, model: str = "llama",
    sweeps: Dict[str, Tuple[str, ...]] = None,
) -> Dict[str, Dict[str, np.ndarray]]:
    """algo-config -> D sample, for every sweep member."""
    sweeps = sweeps or SWEEPS
    base = sharegpt_run(scale, "fp16", 1.0, model).lengths
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for family, configs in sweeps.items():
        out[family] = {}
        for cfg in configs:
            lens = sharegpt_run(scale, cfg, 1.0, model).lengths
            out[family][cfg] = length_difference(base, lens)
    return out


def run(
    scale: ExperimentScale = None, model: str = "llama"
) -> ExperimentResult:
    """Reproduce Figure 4."""
    scale = scale or current_scale()
    dists = d_distributions(scale, model)
    res = ExperimentResult(
        name=f"Figure 4 — length-difference distributions ({model})",
        description=(
            "D = (L_un - L_cs)/L_un per compression configuration; "
            "negative D = longer responses.  'flatness' is the spread "
            "of the distribution (std of clipped D)."
        ),
        data={"d": dists},
    )
    for family, by_cfg in dists.items():
        rows = []
        for cfg, d in by_cfg.items():
            rows.append(
                [
                    cfg,
                    f"{float(np.mean(d)):+.3f}",
                    f"{flatness(d):.3f}",
                    f"{100 * float(np.mean(d <= -0.5)):.1f}%",
                ]
            )
        res.tables.append(
            format_table(
                ["config", "mean D", "flatness", "% much longer"],
                rows,
                title=f"{family} sweep (higher compression lower row):",
            )
        )
        # KDE series of the most aggressive configuration
        cfg, d = list(by_cfg.items())[-1]
        xs, ys = d_kde(d, grid=24)
        res.tables.append(format_series(f"KDE {cfg}", xs, ys))
    return res
