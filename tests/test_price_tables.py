"""One price table per compression spec, shared through the cost model.

``ServingCostModel.prices(comp)`` holds the memoized decode-step and
prefill prices and the KV-token budget of one spec; every
``ServerInstance`` on that cost model with that spec reads and fills
the same table, so replicas of a deployment price each distinct step
once between them.  Prices are pure functions of the cost model, the
spec and the arguments: an instance reading a table another instance
filled must record exactly the trace it records on a fresh cost model.
"""

import numpy as np
import pytest

from repro.compression import NoCompression, create
from repro.engines import LMDEPLOY, TRL, ServingCostModel
from repro.engines.presets import cost_model
from repro.experiments import serving_disagg
from repro.hardware import A6000
from repro.hardware.memory import MemoryModel
from repro.model.arch import LLAMA_7B
from repro.serving import (
    ServerInstance,
    ServingRequest,
    Trace,
    build_scenario,
    dump_jsonl,
    fleet_scenario,
    instance_config,
    make_policy,
)

FP16 = NoCompression().cost_spec()


def stream(n=32, seed=0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.1, size=n))
    return [
        ServingRequest(
            f"r{i}", float(arrivals[i]), int(rng.integers(256, 3000)),
            int(rng.integers(8, 300)),
        )
        for i in range(n)
    ]


def jsonl_bytes(inst, path):
    trace = Trace()
    inst.run(stream(), trace=trace)
    dump_jsonl(trace, path)
    return path.read_bytes()


@pytest.fixture
def pricing_calls(monkeypatch):
    """Counts of cost-model pricing calls (budget bisection included)."""
    counts = {"decode_step": 0, "prefill_chunk": 0, "memory": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kw):
            counts[key] += 1
            return original(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ServingCostModel, "decode_step", "decode_step")
    counting(ServingCostModel, "prefill_chunk", "prefill_chunk")
    counting(MemoryModel, "breakdown", "memory")
    return counts


CONFIGS = {
    "reserve": dict(),
    "dynamic-chunked-slo": dict(
        admission="dynamic", chunk_size=512, scheduler="slo"
    ),
    "static": dict(engine=TRL, max_batch=8),
    "kivi-dynamic": dict(comp="kivi-4", admission="dynamic"),
}


def build(model, cfg):
    cfg = dict(cfg)
    cfg.pop("engine", None)
    comp = create(cfg.pop("comp")).cost_spec() if "comp" in cfg else FP16
    if "scheduler" in cfg:
        cfg["scheduler"] = make_policy(cfg["scheduler"])
    return ServerInstance(model, comp, **cfg)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_second_instance_prices_nothing_new(tmp_path, pricing_calls, name):
    cfg = CONFIGS[name]
    engine = cfg.get("engine", LMDEPLOY)
    shared = ServingCostModel(LLAMA_7B, A6000, engine)
    first = jsonl_bytes(build(shared, cfg), tmp_path / "first.jsonl")
    assert pricing_calls["decode_step"] and pricing_calls["prefill_chunk"]

    for key in pricing_calls:
        pricing_calls[key] = 0
    second = jsonl_bytes(build(shared, cfg), tmp_path / "second.jsonl")
    # the budget, every step and every prefill come from the table
    assert pricing_calls == {"decode_step": 0, "prefill_chunk": 0, "memory": 0}

    fresh = ServingCostModel(LLAMA_7B, A6000, engine)
    alone = jsonl_bytes(build(fresh, cfg), tmp_path / "fresh.jsonl")
    assert second == alone == first


def test_equal_specs_share_one_table_and_distinct_specs_do_not():
    model = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    kivi = create("kivi-4").cost_spec()
    assert model.prices(create("kivi-4").cost_spec()) is model.prices(kivi)
    assert model.prices(FP16) is not model.prices(kivi)
    a = ServerInstance(model, kivi)
    b = ServerInstance(model, create("kivi-4").cost_spec())
    assert a._prices is b._prices
    assert a.token_budget == b.token_budget
    other = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    assert other.prices(kivi) is not model.prices(kivi)


def test_disagg_fleet_and_its_replay_share_one_cost_model():
    recorded = serving_disagg.build_fleet("disagg")
    replayed = build_scenario(serving_disagg.scenario_config("disagg"))
    for fleet in (recorded, replayed):
        instances = fleet.prefill + fleet.decode
        assert len(instances) == 12
        assert len({id(inst.cost_model) for inst in instances}) == 1
        assert len({id(inst._prices) for inst in instances}) == 1
    # each build gets its own, so runs never share state
    assert recorded.decode[0].cost_model is not replayed.decode[0].cost_model


def test_scenario_gets_one_cost_model_per_deployment():
    small = instance_config(algo="kivi-4", arch="llama-7b")
    large = instance_config(algo="kivi-4", arch="llama-13b")
    fleet = build_scenario(
        fleet_scenario(decode=[small, large, small, large], prefill=[small])
    )
    models = {}
    for inst in fleet.prefill + fleet.decode:
        models.setdefault(inst.cost_model.arch.name, set()).add(
            id(inst.cost_model)
        )
    assert {arch: len(ids) for arch, ids in models.items()} == {
        "llama-7b": 1, "llama-13b": 1,
    }


def test_memoized_decode_throughput_matches_a_fresh_step_price():
    model = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    reference = ServingCostModel(LLAMA_7B, A6000, LMDEPLOY)
    oom = 0
    for comp in (FP16, create("kivi-4").cost_spec(),
                 create("stream-512").cost_spec()):
        for batch in (1, 3, 8, 64, 200):
            for kv in (1, 100, 1024, 4097, 8192, 32_768):
                cost = reference.decode_step(batch, kv, comp)
                want = 0.0 if cost.oom else batch / cost.seconds
                # a miss fills the table, the second call reads it
                assert model.decode_throughput(batch, kv, comp) == want
                assert model.decode_throughput(batch, kv, comp) == want
                assert model.prices(comp).decode[batch][kv] == cost.seconds
                oom += cost.oom
    assert oom  # the grid reaches past the memory limit


def test_table_read_after_its_cost_model_is_released_says_so():
    # the table refers to its model weakly: written as one expression,
    # the model is released before the budget's lazy miss needs it
    with pytest.raises(ReferenceError, match="ServingCostModel .* released"):
        cost_model(engine="trl").prices(FP16).token_budget
    table = cost_model(engine="trl").prices(FP16)
    for miss in (
        lambda: table.decode_seconds(1, 128),
        lambda: table.prefill_seconds(128),
        lambda: table.prefill_seconds(64, prefix=64),
    ):
        with pytest.raises(ReferenceError, match="keep the cost model alive"):
            miss()
    # a model kept alive prices the same reads
    model = cost_model(engine="trl")
    assert model.prices(FP16).token_budget > 0
