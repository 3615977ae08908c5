"""Reproduction of "Rethinking Key-Value Cache Compression Techniques
for Large Language Model Serving" (MLSys 2025).

Top-level convenience exports; see the subpackages for the full API:

- :mod:`repro.core`        — the public pipeline API
- :mod:`repro.model`       — functional NumPy transformer (circuits)
- :mod:`repro.compression` — KIVI / GEAR / H2O / StreamingLLM / SnapKV
- :mod:`repro.kvcache`     — paged KV block manager
- :mod:`repro.hardware`    — GPU specs, roofline, memory model
- :mod:`repro.engines`     — TRL / TRL+FA / LMDeploy cost models
- :mod:`repro.serving`     — serving simulator and request router
- :mod:`repro.datasets`    — ShareGPT-sim and LongBench-sim
- :mod:`repro.tools`       — throughput/length predictors, negatives
- :mod:`repro.analysis`    — evaluation, length stats, reporting
- :mod:`repro.experiments` — one module per paper table/figure
"""

from repro.core import (
    CompressedGenerationPipeline,
    ExperimentScale,
    ServingEstimate,
    current_scale,
)
from repro.compression import PAPER_ALGORITHMS, create

__version__ = "1.0.0"

__all__ = [
    "CompressedGenerationPipeline",
    "ExperimentScale",
    "ServingEstimate",
    "current_scale",
    "PAPER_ALGORITHMS",
    "create",
    "__version__",
]
