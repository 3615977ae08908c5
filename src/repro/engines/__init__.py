"""Analytical models of LLM serving engines (TRL, TRL+FA, LMDeploy)."""

from repro.engines.base import (
    EngineConfig,
    PriceTable,
    ServingCostModel,
    StageCost,
)
from repro.engines.presets import ENGINES, LMDEPLOY, TRL, TRL_FA, get_engine

__all__ = [
    "EngineConfig",
    "PriceTable",
    "ServingCostModel",
    "StageCost",
    "ENGINES",
    "LMDEPLOY",
    "TRL",
    "TRL_FA",
    "get_engine",
]
