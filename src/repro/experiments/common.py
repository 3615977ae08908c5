"""Shared infrastructure for the per-table/figure experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.compression.base import CompressionCostSpec
from repro.compression.registry import create
from repro.engines.presets import cost_model  # noqa: F401 (re-exported)
from repro.model.config import llama_sim_config, mistral_sim_config
from repro.model.transformer import FunctionalTransformer

#: the four algorithms of the paper's main evaluation
ALGOS: Tuple[str, ...] = ("kivi-4", "gear-4", "h2o-512", "stream-512")
#: baseline + algorithms
ALL_ALGOS: Tuple[str, ...] = ("fp16",) + ALGOS

#: paper-style column labels
LABELS: Dict[str, str] = {
    "fp16": "FP16",
    "kivi-4": "KIVI-4",
    "gear-4": "GEAR-4",
    "h2o-512": "H2O-512",
    "stream-512": "Stream-512",
    "snapkv-512": "SnapKV-512",
}


@lru_cache(maxsize=4)
def llama_model() -> FunctionalTransformer:
    """The LLaMA-style functional model (shared across experiments)."""
    return FunctionalTransformer(llama_sim_config())


@lru_cache(maxsize=4)
def mistral_model() -> FunctionalTransformer:
    """The Mistral-style (GQA) functional model."""
    return FunctionalTransformer(mistral_sim_config())


def functional_model(name: str) -> FunctionalTransformer:
    """Functional model by family name ("llama" or "mistral")."""
    if name == "llama":
        return llama_model()
    if name == "mistral":
        return mistral_model()
    raise KeyError(f"unknown functional model {name!r}")


def comp_spec(name: str) -> CompressionCostSpec:
    """Cost spec for an algorithm name ("fp16" included)."""
    return create(name).cost_spec()


def comp_specs(names: Sequence[str]) -> Dict[str, CompressionCostSpec]:
    """Cost specs for several algorithm names."""
    return {n: comp_spec(n) for n in names}


@dataclass
class ExperimentResult:
    """Rendered output + raw data of one experiment."""

    name: str
    description: str
    tables: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Full printable report."""
        head = f"== {self.name} ==\n{self.description}"
        return "\n\n".join([head] + self.tables)
