"""Disaggregated prefill/decode fleet benchmark: TTFT attainment under
a 10x arrival-rate sweep, autoscaled pools vs static monolithic fleets.
Writes ``results/serving_disagg.txt`` and its section of
``results/BENCH_serving.json``."""


def test_disaggregated_fleet(benchmark, record_result, record_bench_json):
    from repro.experiments import serving_disagg

    res = benchmark.pedantic(serving_disagg.run, rounds=1, iterations=1)
    record_result(res, "serving_disagg")
    record_bench_json("serving_disagg", {"rows": res.data["raw"]})

    raw = res.data["raw"]
    static = [r for r in raw if r["fleet"].startswith("static-")]
    disagg = {r["rate_scale"]: r for r in raw if r["fleet"] == "disagg"}
    rates = sorted(disagg)
    top = rates[-1]
    assert top >= 10.0 * rates[0], "sweep must cover a 10x rate range"

    # headline: the autoscaled disaggregated fleet holds TTFT
    # attainment at least as well as the best static monolithic fleet
    # at EVERY arrival rate in the sweep
    for rate in rates:
        best_static = max(
            r["ttft_attainment"] for r in static if r["rate_scale"] == rate
        )
        assert disagg[rate]["ttft_attainment"] >= best_static - 1e-9, (
            f"disagg loses to a static fleet at {rate:.0f}x"
        )

    # ... and at the top rate the static fleets have collapsed while
    # the disaggregated fleet still attains its SLO
    best_static_top = max(
        r["ttft_attainment"] for r in static if r["rate_scale"] == top
    )
    assert disagg[top]["ttft_attainment"] >= 0.9
    assert best_static_top <= 0.6, "static fleets did not collapse at 10x"

    # the handoff is real and priced: every served request shipped KV,
    # with non-zero bytes and link seconds in the trace fold
    for rate in rates:
        d = disagg[rate]
        assert d["kv_transfers"] > 0
        assert d["kv_transfer_mb"] > 0
        assert d["kv_transfer_seconds"] > 0

    # the autoscaler actually acted: at least one scale-up during the
    # storm and one drain in the diurnal trough, at every rate
    for rate in rates:
        assert disagg[rate]["scale_ups"] >= 1, f"no scale-up at {rate:.0f}x"
        assert disagg[rate]["scale_downs"] >= 1, f"no drain at {rate:.0f}x"

    # static monolithic fleets never transfer KV or scale
    for r in static:
        assert r["kv_transfers"] == 0
        assert r["scale_ups"] == 0 and r["scale_downs"] == 0


def test_monolithic_mode_matches_plain_cluster():
    """Pools disabled => traces bit-for-bit those of a plain Cluster."""
    from repro.experiments import serving_disagg
    from repro.serving import Cluster, DisaggFleet, Trace, least_loaded

    specs = serving_disagg.build_workload(3.0, n=48)

    t_fleet = Trace()
    fleet = DisaggFleet([], serving_disagg.build_fleet("static-2").decode)
    fleet.serve(serving_disagg.make_requests(specs), trace=t_fleet)

    t_plain = Trace()
    cluster = Cluster(serving_disagg.build_fleet("static-2").decode)
    cluster.run_online(
        serving_disagg.make_requests(specs),
        least_loaded,
        lambda r, idx, now: r,
        trace=t_plain,
    )

    assert list(t_fleet.events) == list(t_plain.events)
    assert t_fleet.render_timeline() == t_plain.render_timeline()
