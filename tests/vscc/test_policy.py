"""The policy layer: per-route scheme selection (tentpole of PR 4).

Contracts under test:

1. **static equivalence** — ``policy=StaticPolicy(s)`` is bit-identical
   to the historic ``scheme=s`` (same clock, same event count, same
   metrics);
2. **threshold optimality** — on a per-size ping-pong sweep the
   :class:`ThresholdPolicy` matches the best *fixed* scheme at every
   size (it never pays the wrong side of a Fig 6b crossover);
3. **determinism** — dynamic-policy runs replay bit-identically from a
   fresh system (the decision journal keeps both end points agreeing,
   and no policy consults wall-clock or randomness);
4. **feedback** — :class:`AdaptivePolicy` probes every candidate, then
   exploits the per-(route, size-class) throughput EWMAs.
"""

import json

import pytest

from repro.vscc.policy import AdaptivePolicy, Route, StaticPolicy, ThresholdPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

CACHED = CommScheme.LOCAL_PUT_REMOTE_GET
VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA

CROSS_PAIR = (0, 48)  # ranks on device 0 and device 1


def _transfer_program(sizes, results=None):
    def program(comm):
        for size in sizes:
            if comm.rank == CROSS_PAIR[0]:
                yield from comm.send(bytes(size), CROSS_PAIR[1])
            else:
                data = yield from comm.recv(size, CROSS_PAIR[0])
                if results is not None:
                    results[size] = bytes(data)

    return program


def _run(sizes, **system_kwargs):
    system = VSCCSystem(num_devices=2, **system_kwargs)
    result = system.run(_transfer_program(sizes), ranks=list(CROSS_PAIR))
    return system, result


# -- 1. static equivalence ---------------------------------------------------------


@pytest.mark.parametrize("scheme", [CACHED, VDMA, CommScheme.TRANSPARENT])
def test_static_policy_bit_identical_to_scheme_kwarg(scheme):
    sizes = (32, 2048, 16384)
    sys_a, _ = _run(sizes, scheme=scheme)
    sys_b, _ = _run(sizes, policy=StaticPolicy(scheme))
    assert sys_a.sim.now == sys_b.sim.now
    assert sys_a.sim.events_processed == sys_b.sim.events_processed
    assert sys_a.metrics == sys_b.metrics


def test_scheme_kwarg_is_sugar_for_static_policy():
    system = VSCCSystem(num_devices=2, scheme=VDMA)
    assert isinstance(system.policy, StaticPolicy)
    assert system.policy.static_scheme is VDMA
    assert system.scheme is VDMA


def test_dynamic_policy_has_no_static_scheme():
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    assert system.scheme is None
    assert system.policy.static_scheme is None


def test_scheme_and_policy_are_mutually_exclusive():
    with pytest.raises(ValueError, match="not both"):
        VSCCSystem(num_devices=2, scheme=VDMA, policy=ThresholdPolicy())


def test_policy_must_be_a_scheme_policy():
    with pytest.raises(TypeError, match="SchemePolicy"):
        VSCCSystem(num_devices=2, policy=VDMA)


def test_direct_threshold_override_requires_static_policy():
    with pytest.raises(ValueError, match="static"):
        VSCCSystem(num_devices=2, policy=ThresholdPolicy(), direct_threshold=48)


# -- 2. threshold optimality -------------------------------------------------------


def _pingpong_program(size, iterations=4):
    def program(comm):
        payload = bytes(size)
        for _ in range(iterations):
            if comm.rank == CROSS_PAIR[0]:
                yield from comm.send(payload, CROSS_PAIR[1])
                yield from comm.recv(size, CROSS_PAIR[1])
            else:
                yield from comm.recv(size, CROSS_PAIR[0])
                yield from comm.send(payload, CROSS_PAIR[0])

    return program


def test_threshold_matches_best_fixed_scheme_at_every_size():
    """Acceptance criterion: on a ping-pong sweep the three-band rule
    never loses to a fixed scheme — direct band, cached-get band, and
    past-the-cliff band."""

    def elapsed(**kwargs):
        system = VSCCSystem(num_devices=2, **kwargs)
        return system.run(
            _pingpong_program(size), ranks=list(CROSS_PAIR)
        ).elapsed_ns

    for size in (32, 512, 4096, 16384, 65536):
        fixed = {
            scheme: elapsed(scheme=scheme) for scheme in (CACHED, VDMA)
        }
        threshold = elapsed(policy=ThresholdPolicy())
        assert threshold <= min(fixed.values()), (
            f"ThresholdPolicy lost at {size} B: {threshold} ns vs {fixed}"
        )


def test_threshold_band_rule():
    policy = ThresholdPolicy(direct_bytes=64)
    route = Route(src_device=0, dst_device=1, chunk_bytes=7680)
    assert policy.choose(0, 48, 64, route) is VDMA       # direct band
    assert policy.choose(0, 48, 65, route) is CACHED     # mid band
    assert policy.choose(0, 48, 7680, route) is CACHED   # last single-chunk size
    assert policy.choose(0, 48, 7681, route) is VDMA     # past the cliff
    explicit = ThresholdPolicy(direct_bytes=0, vdma_cutover=4096)
    assert explicit.choose(0, 48, 4096, route) is CACHED
    assert explicit.choose(0, 48, 4097, route) is VDMA


def test_threshold_validation():
    with pytest.raises(ValueError, match="direct_bytes"):
        ThresholdPolicy(direct_bytes=-1)
    with pytest.raises(ValueError, match="undercut"):
        ThresholdPolicy(direct_bytes=256, vdma_cutover=128)


def test_threshold_run_uses_both_transports():
    sizes = (2048, 16384)
    system, result = _run(sizes, policy=ThresholdPolicy())
    metrics = result.metrics
    assert metrics[f"policy.decisions{{scheme={CACHED.value}}}"] >= 1.0
    assert metrics[f"policy.decisions{{scheme={VDMA.value}}}"] >= 1.0
    assert metrics["scheme.selected{transport=cached-get}"] >= 2.0
    assert metrics["scheme.selected{transport=local-put-local-get-vdma}"] >= 2.0


def test_payloads_intact_under_mixed_schemes():
    sizes = (16, 2048, 16384, 65536)
    results = {}
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())

    def program(comm):
        for size in sizes:
            payload = bytes(i % 251 for i in range(size))
            if comm.rank == CROSS_PAIR[0]:
                yield from comm.send(payload, CROSS_PAIR[1])
            else:
                data = yield from comm.recv(size, CROSS_PAIR[0])
                results[size] = bytes(data) == payload

    system.run(program, ranks=list(CROSS_PAIR))
    assert all(results[size] for size in sizes)


# -- 3. determinism ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make_policy",
    [ThresholdPolicy, lambda: AdaptivePolicy(probe_every=4)],
    ids=["threshold", "adaptive"],
)
def test_dynamic_policy_runs_replay_bit_identically(make_policy):
    sizes = (128, 4096, 16384) * 4

    def run():
        system, result = _run(sizes, policy=make_policy())
        return system.sim.now, system.sim.events_processed, result.metrics

    assert run() == run()


def test_bidirectional_traffic_keeps_endpoints_agreeing():
    """Both directions of one pair journal independently; mixed sizes in
    both directions must not desynchronize the transports."""
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    sizes = (512, 16384, 64, 9000)
    ok = {}

    def program(comm):
        me, other = comm.rank, (48 if comm.rank == 0 else 0)
        for size in sizes:
            if comm.rank == 0:
                yield from comm.send(bytes(size), other)
                data = yield from comm.recv(size, other)
            else:
                data = yield from comm.recv(size, other)
                yield from comm.send(bytes(size), other)
            ok[(me, size)] = len(data) == size

    system.run(program, ranks=[0, 48])
    assert all(ok.values())


# -- 4. adaptive feedback ----------------------------------------------------------


def test_adaptive_probes_then_exploits():
    policy = AdaptivePolicy(probe_every=1024)  # no re-probe inside this run
    sizes = (16384,) * 20
    system, result = _run(sizes, policy=policy)
    # Both candidates are probed (one sample each minimum); past the MPB
    # cliff the vDMA engine pipelines better, so every post-probe
    # decision exploits it (calibration: Fig 6b). Early decisions may
    # double-probe (the receiver's journal lookup can run ahead of the
    # sender's first completed-send feedback), but once both EWMAs
    # exist, exploitation locks onto the vDMA engine.
    metrics = result.metrics
    cached_n = metrics[f"policy.decisions{{scheme={CACHED.value}}}"]
    vdma_n = metrics[f"policy.decisions{{scheme={VDMA.value}}}"]
    assert cached_n + vdma_n == 20.0
    assert 1.0 <= cached_n <= 3.0
    assert vdma_n >= 17.0


def test_adaptive_validation():
    with pytest.raises(ValueError, match="at least one"):
        AdaptivePolicy(candidates=())
    with pytest.raises(ValueError, match="duplicate"):
        AdaptivePolicy(candidates=(VDMA, VDMA))
    with pytest.raises(ValueError, match="alpha"):
        AdaptivePolicy(alpha=0.0)
    with pytest.raises(ValueError, match="probe_every"):
        AdaptivePolicy(probe_every=-1)


def test_adaptive_route_gauges_when_obs_enabled():
    system = VSCCSystem(num_devices=2, policy=AdaptivePolicy())
    system.obs.enabled = True
    system.run(_transfer_program((4096, 16384)), ranks=list(CROSS_PAIR))
    gauges = [
        key for key in system.metrics if key.startswith("policy.route_mbps")
    ]
    assert gauges, "expected policy.route_mbps{src=,dst=,scheme=} gauges"


# -- host capability derivation ----------------------------------------------------


def test_host_capabilities_follow_policy_scheme_set():
    plain = VSCCSystem(num_devices=2, policy=StaticPolicy(CommScheme.TRANSPARENT))
    assert not plain.host.extensions_enabled
    dynamic = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    assert dynamic.host.extensions_enabled


def test_wildcard_recv_works_in_cached_band_of_threshold_policy():
    from repro.ircce.nonblocking import recv_any_source

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    got = {}

    def program(comm):
        if comm.rank == 0:
            src, data = yield from recv_any_source(comm, 2000, [48, 49])
            got["src"] = src
            got["ok"] = bytes(data) == bytes([src % 251]) * 2000
        elif comm.rank == 49:
            yield from comm.send(bytes([49 % 251]) * 2000, 0)

    system.run(program, ranks=[0, 49])
    assert got["src"] == 49 and got["ok"]


def test_wildcard_recv_probes_are_not_counted_as_routed_messages():
    """A wildcard receive probes every candidate source's transport; only
    the send and the receive that moves the message count as selected."""
    from repro.ircce.nonblocking import recv_any_source

    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(bytes(256), 48)
        else:
            src, _ = yield from recv_any_source(comm, 256, [0, 1])
            assert src == 0

    result = system.run(program, ranks=[0, 48])
    assert result.metrics["scheme.selected{transport=cached-get}"] == 2.0


# -- trace integration -------------------------------------------------------------


def test_policy_decisions_land_in_chrome_trace(tmp_path):
    trace = tmp_path / "trace.json"
    system = VSCCSystem(num_devices=2, policy=ThresholdPolicy())
    system.run(
        _transfer_program((2048, 16384)),
        ranks=list(CROSS_PAIR),
        trace_json=trace,
    )
    events = json.loads(trace.read_text())["traceEvents"]
    policy_events = [e for e in events if e.get("cat") == "policy"]
    assert len(policy_events) >= 2
    names = {e["name"] for e in policy_events}
    assert f"policy.{CACHED.value}" in names
    assert f"policy.{VDMA.value}" in names
