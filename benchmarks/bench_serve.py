"""Load benchmark for the serving layer.

Drives ≥100 concurrent client connections — half persistent WHOIS
sessions, half keep-alive HTTP sessions — against a live
``ReproServeServer`` on ephemeral ports, asserting byte-identical
answers under concurrency, then prints per-frontend p50/p99 request
latency and aggregate throughput.

A second, tightly-limited server verifies throttling under load: a
hammering client must see HTTP 429 with a usable ``Retry-After``.
"""

import asyncio
import json
import time

from repro.rdap.server import RdapServer
from repro.serve import QueryEngine, ReproServeServer
from repro.serve.client import HttpSession, WhoisSession
from repro.serve.protocol import render_json
from repro.simulation import World, small_scenario
from repro.whois.server import WhoisServer

CONNECTIONS = 100          # 50 whois + 50 http, all simultaneous
REQUESTS_PER_CONNECTION = 20


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def _stats(samples):
    return {
        "requests": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
        "max_ms": round(max(samples) * 1e3, 3),
    }


def test_serve_load():
    world = World(small_scenario(seed=42))
    engine = QueryEngine.from_world(
        world,
        step_days=7,
        rate_limit_per_second=1e6,
        burst=1_000_000,
    )
    prefixes = []
    for obj in engine.whois.database.inetnums():
        prefixes.append(obj.primary_prefix())
        if len(prefixes) == 25:
            break
    whois_expected = {
        str(p): engine.whois_query(str(p)) for p in prefixes
    }
    http_expected = {
        str(p): render_json(engine.rdap_ip(p)) for p in prefixes
    }

    whois_latencies = []
    http_latencies = []

    async def whois_worker(server, worker, ready, go):
        prefix = str(prefixes[worker % len(prefixes)])
        session = WhoisSession(server.host, server.whois_port)
        await session.connect()
        try:
            ready()
            await go.wait()
            for _ in range(REQUESTS_PER_CONNECTION):
                t0 = time.perf_counter()
                answer = await session.query(prefix)
                whois_latencies.append(time.perf_counter() - t0)
                assert answer == whois_expected[prefix]
        finally:
            await session.close()

    async def http_worker(server, worker, ready, go):
        prefix = str(prefixes[worker % len(prefixes)])
        session = HttpSession(
            server.host, server.http_port, client_id=f"bench-{worker}"
        )
        await session.connect()
        try:
            ready()
            await go.wait()
            for _ in range(REQUESTS_PER_CONNECTION):
                t0 = time.perf_counter()
                status, _headers, body = await session.get(
                    f"/ip/{prefix}"
                )
                http_latencies.append(time.perf_counter() - t0)
                assert status == 200
                assert body == http_expected[prefix]
        finally:
            await session.close()

    async def run_load():
        server = ReproServeServer(engine)
        await server.start()
        half = CONNECTIONS // 2
        # Start gate (3.9-compatible, no asyncio.Barrier): every
        # worker connects first, then all fire simultaneously.
        connected = {"count": 0}
        all_connected = asyncio.Event()
        go = asyncio.Event()

        def ready():
            connected["count"] += 1
            if connected["count"] == CONNECTIONS:
                all_connected.set()

        try:
            workers = [
                asyncio.ensure_future(
                    whois_worker(server, n, ready, go)
                )
                for n in range(half)
            ] + [
                asyncio.ensure_future(
                    http_worker(server, n, ready, go)
                )
                for n in range(half)
            ]
            await all_connected.wait()
            live = server.health()["connections"]["live"]
            assert live >= CONNECTIONS, live
            t0 = time.perf_counter()
            go.set()
            await asyncio.gather(*workers)
            elapsed = time.perf_counter() - t0
            health = server.health()
        finally:
            await server.shutdown()
        return elapsed, health

    elapsed, health = asyncio.run(run_load())

    total_requests = len(whois_latencies) + len(http_latencies)
    assert total_requests == CONNECTIONS * REQUESTS_PER_CONNECTION
    assert health["connections"]["total"] == CONNECTIONS
    assert health["queries"]["throttled"] == 0
    qps = total_requests / elapsed
    assert qps > 0

    # Throttling under load: a tight server answers 429 + Retry-After.
    database = world.whois()
    tight = QueryEngine(
        whois=WhoisServer(database),
        rdap=RdapServer(database, rate_limit_per_second=1.0, burst=5),
    )
    target = str(prefixes[0])

    async def hammer():
        server = ReproServeServer(tight)
        await server.start()
        session = HttpSession(
            server.host, server.http_port, client_id="hammer"
        )
        await session.connect()
        try:
            statuses, retry_after = [], None
            for _ in range(10):
                status, headers, _body = await session.get(
                    f"/ip/{target}"
                )
                statuses.append(status)
                if status == 429 and retry_after is None:
                    retry_after = int(headers["retry-after"])
            return statuses, retry_after
        finally:
            await session.close()
            await server.shutdown()

    statuses, retry_after = asyncio.run(hammer())
    assert statuses.count(429) >= 1
    assert retry_after is not None and retry_after >= 1

    payload = {
        "connections": CONNECTIONS,
        "requests_per_connection": REQUESTS_PER_CONNECTION,
        "total_requests": total_requests,
        "elapsed_seconds": round(elapsed, 3),
        "qps": round(qps, 1),
        "whois": _stats(whois_latencies),
        "http": _stats(http_latencies),
        "throttle_check": {
            "statuses_429": statuses.count(429),
            "retry_after_seconds": retry_after,
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))


def _build_engine():
    world = World(small_scenario(seed=42))
    return QueryEngine.from_world(
        world,
        step_days=7,
        rate_limit_per_second=1e6,
        burst=1_000_000,
    )


def _swap_metrics(engine, registry):
    engine.metrics = registry
    engine.rdap.set_metrics(registry)


def test_serve_instrumentation_overhead():
    """Histograms + windows + per-route timers cost <5% warm qps.

    The same engine serves two identical warm loads, once with the
    no-op registry and once fully instrumented; only the registry is
    swapped between runs.  Wall-clock noise on a tiny load is real, so
    the gate retries a few times and passes on any attempt.
    """
    from repro.obs import NULL, MetricsRegistry

    engine = _build_engine()
    prefixes = []
    for obj in engine.whois.database.inetnums():
        prefixes.append(str(obj.primary_prefix()))
        if len(prefixes) == 10:
            break

    connections = 10
    requests = 40

    async def _load():
        server = ReproServeServer(engine)
        await server.start()

        async def worker(n):
            session = HttpSession(
                server.host, server.http_port, client_id=f"ovh-{n}"
            )
            await session.connect()
            try:
                for i in range(requests):
                    status, _h, _b = await session.get(
                        f"/ip/{prefixes[(n + i) % len(prefixes)]}"
                    )
                    assert status == 200
            finally:
                await session.close()

        try:
            # One warmup pass primes caches and the event loop.
            await worker(0)
            t0 = time.perf_counter()
            await asyncio.gather(
                *(worker(n) for n in range(connections))
            )
            return connections * requests / (time.perf_counter() - t0)
        finally:
            await server.shutdown()

    def measure(registry):
        _swap_metrics(engine, registry)
        return asyncio.run(_load())

    attempts = []
    for _ in range(3):
        null_qps = measure(NULL)
        real_qps = measure(MetricsRegistry())
        overhead = 1.0 - real_qps / null_qps
        attempts.append({
            "null_qps": round(null_qps, 1),
            "instrumented_qps": round(real_qps, 1),
            "overhead_fraction": round(overhead, 4),
        })
        if overhead < 0.05:
            break
    print(json.dumps(
        {"attempts": attempts, "limit_fraction": 0.05},
        indent=2, sort_keys=True,
    ))
    best = min(a["overhead_fraction"] for a in attempts)
    assert best < 0.05, (
        f"instrumentation overhead {best:.1%} over 3 attempts"
    )


def test_client_and_server_p99_agree():
    """The server's histogram p99 matches what clients experienced.

    A 5 ms artificial floor (via the server's request hook) puts every
    request deep into one factor-2 bucket, so the client-side measured
    p99 and the server's exact-bucket estimate must land within one
    bucket of each other — the cross-check that the for-free
    histograms describe reality, not just themselves.
    """
    from repro.obs import MetricsRegistry
    from repro.obs.telemetry import bucket_index

    engine = _build_engine()
    registry = MetricsRegistry()
    _swap_metrics(engine, registry)
    target = str(next(iter(engine.whois.database.inetnums()))
                 .primary_prefix())
    samples = []

    async def _run():
        async def floor():
            await asyncio.sleep(0.005)

        server = ReproServeServer(engine, request_hook=floor)
        await server.start()
        session = HttpSession(
            server.host, server.http_port, client_id="p99"
        )
        await session.connect()
        try:
            for _ in range(80):
                t0 = time.perf_counter()
                status, _h, _b = await session.get(f"/ip/{target}")
                samples.append(time.perf_counter() - t0)
                assert status == 200
        finally:
            await session.close()
            await server.shutdown()

    asyncio.run(_run())

    histogram = registry.timer("serve.http.request")
    assert histogram.count == 80
    client_p99 = _percentile(samples, 0.99)
    server_p99 = histogram.quantile(0.99)
    client_bucket = bucket_index(client_p99)
    server_bucket = bucket_index(server_p99)
    payload = {
        "requests": len(samples),
        "client_p99_ms": round(client_p99 * 1e3, 3),
        "server_p99_ms": round(server_p99 * 1e3, 3),
        "client_bucket": client_bucket,
        "server_bucket": server_bucket,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    assert abs(client_bucket - server_bucket) <= 1, payload
