"""Concurrency and protocol tests for the asyncio server.

The suite drives real sockets against throwaway servers on ephemeral
ports; every functional answer is checked byte-for-byte against the
in-memory engines (the design invariant of the serving layer).
Tests run the event loop via ``asyncio.run`` — no async test plugin.
"""

import asyncio
import json

import pytest

from repro.serve import ReproServeServer
from repro.serve.client import HttpSession, WhoisSession, whois_request
from repro.serve.engine import parse_prefix_text
from repro.serve.protocol import render_json


def serve(engine, scenario, **kwargs):
    """Start a server, run ``scenario(server)``, always shut down."""

    async def _main():
        server = ReproServeServer(engine, **kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()

    return asyncio.run(_main())


def sample_prefixes(engine, count):
    prefixes = []
    for obj in engine.whois.database.inetnums():
        prefixes.append(obj.primary_prefix())
        if len(prefixes) == count:
            break
    assert len(prefixes) == count, "world smaller than expected"
    return prefixes


class TestWhoisFrontend:
    def test_one_shot_byte_identical(self, engine):
        prefix = sample_prefixes(engine, 1)[0]
        line = str(prefix)
        expected = (engine.whois_query(line) + "\n").encode("utf-8")

        async def scenario(server):
            return await whois_request(
                server.host, server.whois_port, line
            )

        assert serve(engine, scenario) == expected

    def test_flags_and_errors_byte_identical(self, engine):
        prefix = str(sample_prefixes(engine, 1)[0])
        lines = [
            f"-L {prefix}", f"-m {prefix}", f"-x {prefix}",
            "-x 1.2.3.4/30",          # no match
            "completely --invalid",   # syntax error
        ]

        async def scenario(server):
            return [
                await whois_request(server.host, server.whois_port, line)
                for line in lines
            ]

        responses = serve(engine, scenario)
        for line, raw in zip(lines, responses):
            assert raw == (engine.whois_query(line) + "\n").encode()

    def test_persistent_session_multi_object(self, engine):
        """-k framing survives -L answers with internal blank lines."""
        prefixes = [str(p) for p in sample_prefixes(engine, 3)]
        queries = [f"-L {p}" for p in prefixes] + prefixes

        async def scenario(server):
            session = WhoisSession(server.host, server.whois_port)
            await session.connect()
            try:
                return [await session.query(q) for q in queries]
            finally:
                await session.close()

        answers = serve(engine, scenario)
        for query, answer in zip(queries, answers):
            assert answer == engine.whois_query(query)

    def test_overlong_line_answered_with_error(self, engine):
        async def scenario(server):
            return await whois_request(
                server.host, server.whois_port, "x" * 4096
            )

        raw = serve(engine, scenario)
        assert raw.startswith(b"%ERROR:100:")

    def test_throttled_client_gets_error_201(self, tight_engine):
        prefix = str(sample_prefixes(tight_engine, 1)[0])

        async def scenario(server):
            return [
                await whois_request(server.host, server.whois_port, prefix)
                for _ in range(4)
            ]

        responses = serve(tight_engine, scenario)
        assert all(
            not r.startswith(b"%ERROR:201") for r in responses[:2]
        )
        assert responses[2].startswith(b"%ERROR:201:")
        assert responses[3].startswith(b"%ERROR:201:")


class TestHttpFrontend:
    def get(self, engine, paths, **session_kwargs):
        async def scenario(server):
            session = HttpSession(
                server.host, server.http_port, **session_kwargs
            )
            await session.connect()
            try:
                return [await session.get(path) for path in paths]
            finally:
                await session.close()

        return serve(engine, scenario)

    def test_ip_lookup_byte_identical(self, engine):
        prefix = sample_prefixes(engine, 1)[0]
        (status, headers, body), = self.get(engine, [f"/ip/{prefix}"])
        assert status == 200
        assert headers["content-type"] == "application/rdap+json"
        assert body == render_json(engine.rdap_ip(prefix))

    def test_all_routes_byte_identical(self, engine):
        prefix = sample_prefixes(engine, 1)[0]
        history = engine.delegations._by_asn  # pick a real ASN
        asn = sorted(history)[0] if history else 0
        paths = {
            f"/delegations/{prefix}":
                engine.delegations_lookup(prefix),
            f"/as/{asn}/delegations": engine.as_history(asn),
            f"/transfers/{prefix}": engine.transfers_lookup(prefix),
            "/market/summary": engine.market_summary(),
        }
        results = self.get(engine, list(paths))
        for (path, expected), (status, _h, body) in zip(
            paths.items(), results
        ):
            assert status == 200, path
            assert body == render_json(expected), path

    def test_health_and_metrics(self, engine):
        results = self.get(engine, ["/health", "/metrics"])
        (status, _h, body), (mstatus, _mh, mbody) = results
        assert status == 200 and mstatus == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["loaded"]["inetnums"] > 0
        assert health["connections"]["live"] >= 1
        json.loads(mbody)  # valid JSON document

    def test_status_codes(self, engine):
        results = self.get(engine, [
            "/ip/1.2.3.4",        # resolvable space only in-db: maybe 404
            "/ip/not-a-prefix",   # 400
            "/nope",              # 404 (no route)
        ])
        assert results[0][0] in (200, 404)
        if results[0][0] == 404:
            assert json.loads(results[0][2])["errorCode"] == 404
        assert results[1][0] == 400
        assert json.loads(results[1][2])["errorCode"] == 400
        assert results[2][0] == 404

    def test_method_not_allowed(self, engine):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port
            )
            writer.write(
                b"POST /market/summary HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\nContent-Length: 2\r\n\r\nhi"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = serve(engine, scenario)
        assert raw.startswith(b"HTTP/1.1 405 ")

    def test_malformed_head_is_400(self, engine):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port
            )
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        assert serve(engine, scenario).startswith(b"HTTP/1.1 400 ")

    def test_head_request_has_no_body(self, engine):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port
            )
            writer.write(
                b"HEAD /health HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = serve(engine, scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert body == b""

    def test_429_with_retry_after(self, tight_engine):
        prefix = sample_prefixes(tight_engine, 1)[0]
        results = self.get(
            tight_engine,
            [f"/ip/{prefix}"] * 4,
            client_id="hammer",
        )
        assert [status for status, _h, _b in results[:2]] == [200, 200]
        status, headers, body = results[2]
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert headers["content-type"] == "application/rdap+json"
        assert json.loads(body)["errorCode"] == 429

    def test_health_never_throttled(self, tight_engine):
        results = self.get(
            tight_engine, ["/health"] * 10, client_id="probe"
        )
        assert all(status == 200 for status, _h, _b in results)


class TestCrossProtocol:
    def test_shared_buckets_across_frontends(self, tight_engine):
        """HTTP traffic drains the same bucket the whois line uses."""
        prefix = sample_prefixes(tight_engine, 1)[0]

        async def scenario(server):
            session = HttpSession(
                server.host, server.http_port, client_id="127.0.0.1"
            )
            await session.connect()
            try:
                for _ in range(2):  # burst=2: exhaust via HTTP
                    status, _h, _b = await session.get(f"/ip/{prefix}")
                    assert status == 200
            finally:
                await session.close()
            # Whois connects from 127.0.0.1 — the same client id.
            return await whois_request(
                server.host, server.whois_port, str(prefix)
            )

        raw = serve(tight_engine, scenario)
        assert raw.startswith(b"%ERROR:201:")


class TestConcurrency:
    def test_concurrent_clients_byte_identical(self, engine):
        """N simultaneous whois + HTTP clients, every answer exact."""
        prefixes = sample_prefixes(engine, 8)
        whois_expected = {
            str(p): engine.whois_query(str(p)) for p in prefixes
        }
        http_expected = {
            str(p): render_json(engine.rdap_ip(p)) for p in prefixes
        }

        async def one_whois(server, prefix):
            session = WhoisSession(server.host, server.whois_port)
            await session.connect()
            try:
                return [await session.query(str(prefix)) for _ in range(5)]
            finally:
                await session.close()

        async def one_http(server, index, prefix):
            session = HttpSession(
                server.host, server.http_port, client_id=f"c{index}"
            )
            await session.connect()
            try:
                out = []
                for _ in range(5):
                    _status, _h, body = await session.get(f"/ip/{prefix}")
                    out.append(body)
                return out
            finally:
                await session.close()

        async def scenario(server):
            tasks = [
                one_whois(server, p) for p in prefixes
            ] + [
                one_http(server, i, p) for i, p in enumerate(prefixes)
            ]
            return await asyncio.gather(*tasks)

        results = serve(engine, scenario)
        whois_results = results[:len(prefixes)]
        http_results = results[len(prefixes):]
        for prefix, answers in zip(prefixes, whois_results):
            assert answers == [whois_expected[str(prefix)]] * 5
        for prefix, bodies in zip(prefixes, http_results):
            assert bodies == [http_expected[str(prefix)]] * 5


class TestGracefulShutdown:
    def test_in_flight_request_drains(self, engine):
        """Shutdown waits for a mid-request connection to finish."""
        prefix = str(sample_prefixes(engine, 1)[0])
        expected = (engine.whois_query(prefix) + "\n").encode()

        async def _main():
            gate = asyncio.Event()
            entered = asyncio.Event()

            async def hook():
                entered.set()
                await gate.wait()

            server = ReproServeServer(
                engine, request_hook=hook, drain_grace=10.0
            )
            await server.start()
            request = asyncio.ensure_future(
                whois_request(server.host, server.whois_port, prefix)
            )
            await entered.wait()
            shutdown = asyncio.ensure_future(server.shutdown())
            await asyncio.sleep(0.05)
            # Still draining: the in-flight request holds it open.
            assert not shutdown.done()
            assert server.draining
            gate.set()
            raw = await request
            await shutdown
            # Listeners are gone after the drain completes.
            with pytest.raises(OSError):
                await asyncio.open_connection(
                    server.host, server.whois_port
                )
            return raw

        assert asyncio.run(_main()) == expected

    def test_stuck_request_cancelled_after_grace(self, engine):
        prefix = str(sample_prefixes(engine, 1)[0])

        async def _main():
            gate = asyncio.Event()  # never set: the request hangs
            entered = asyncio.Event()

            async def hook():
                entered.set()
                await gate.wait()

            server = ReproServeServer(
                engine, request_hook=hook, drain_grace=0.1
            )
            await server.start()
            request = asyncio.ensure_future(
                whois_request(server.host, server.whois_port, prefix)
            )
            await entered.wait()
            await server.shutdown()
            raw = await request
            return raw

        # The stuck connection was cancelled: no response bytes.
        assert asyncio.run(_main()) == b""

    def test_idle_keep_alive_closed_immediately(self, engine):
        async def _main():
            server = ReproServeServer(engine, drain_grace=10.0)
            await server.start()
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            status, _h, _b = await session.get("/health")
            assert status == 200
            # The session is idle between requests; shutdown must not
            # wait the full grace period for it.
            await asyncio.wait_for(server.shutdown(), timeout=5.0)
            await session.close()
            return True

        assert asyncio.run(_main())

    def test_draining_refuses_new_connections(self, engine):
        async def _main():
            server = ReproServeServer(engine)
            await server.start()
            host, port = server.host, server.http_port
            await server.shutdown()
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                return True  # listener closed: connection refused
            # Accepted by a race with the closing listener: the
            # server must hang up without serving.
            writer.write(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw == b""

        assert asyncio.run(_main())


class TestObservability:
    def test_request_counters_and_trace_lanes(self, world):
        from repro.obs import TracingRegistry
        from repro.rdap.server import RdapServer
        from repro.serve import QueryEngine
        from repro.whois.server import WhoisServer

        registry = TracingRegistry(lane="main")
        database = world.whois()
        engine = QueryEngine(
            whois=WhoisServer(database),
            rdap=RdapServer(
                database, rate_limit_per_second=1e6, burst=1_000_000
            ),
            metrics=registry,
        )
        prefix = str(sample_prefixes(engine, 1)[0])

        async def scenario(server):
            await whois_request(server.host, server.whois_port, prefix)
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            await session.get(f"/ip/{prefix}")
            await session.close()

        serve(engine, scenario)
        snapshot = registry.to_json()
        counters = snapshot["counters"]
        assert counters["serve.whois.requests"] == 1
        assert counters["serve.http.requests"] == 1
        assert counters["serve.connections.total"] == 2
        # Connection lanes merged into the main timeline.
        lanes = registry.trace.lanes()
        assert any(lane.startswith("whois-") for lane in lanes)
        assert any(lane.startswith("http-") for lane in lanes)


class TestTelemetry:
    """The PR-9 surfaces: histograms, windows, request ids, /metrics."""

    def _engine(self, world):
        from repro.obs import MetricsRegistry
        from repro.rdap.server import RdapServer
        from repro.serve import QueryEngine
        from repro.whois.server import WhoisServer

        database = world.whois()
        return QueryEngine(
            whois=WhoisServer(database),
            rdap=RdapServer(
                database, rate_limit_per_second=1e6, burst=1_000_000
            ),
            metrics=MetricsRegistry(),
        )

    def test_per_route_and_per_protocol_histograms(self, world):
        engine = self._engine(world)
        prefix = str(sample_prefixes(engine, 1)[0])

        async def scenario(server):
            await whois_request(server.host, server.whois_port, prefix)
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            await session.get(f"/ip/{prefix}")
            await session.get("/market/summary")
            await session.close()

        serve(engine, scenario)
        metrics = engine.metrics
        assert metrics.timer("serve.whois.request").count == 1
        assert metrics.timer("serve.http.request").count == 2
        assert metrics.timer("serve.http.route.ip").count == 1
        assert metrics.timer("serve.http.route.market").count == 1
        # Engine-side query timings isolate lookup cost from protocol.
        assert metrics.timer("engine.query.whois").count == 1
        assert metrics.timer("engine.query.rdap_ip").count == 1
        # Status-class counters alongside exact statuses.
        assert metrics.counter("serve.http.status_class.2xx") == 2

    def test_request_ids_in_headers_and_trace(self, world):
        from repro.obs import TracingRegistry
        from repro.rdap.server import RdapServer
        from repro.serve import QueryEngine
        from repro.whois.server import WhoisServer

        registry = TracingRegistry(lane="main")
        database = world.whois()
        engine = QueryEngine(
            whois=WhoisServer(database),
            rdap=RdapServer(
                database, rate_limit_per_second=1e6, burst=1_000_000
            ),
            metrics=registry,
        )
        prefix = str(sample_prefixes(engine, 1)[0])

        async def scenario(server):
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            results = [
                await session.get(f"/ip/{prefix}"),
                await session.get("/health"),
            ]
            await session.close()
            return results

        results = serve(engine, scenario)
        ids = [headers["x-request-id"] for _s, headers, _b in results]
        assert len(set(ids)) == 2
        assert all(rid.startswith("req-") for rid in ids)
        # Each request became one trace event named after its id.
        names = [event.name for event in registry.trace.events()]
        for rid in ids:
            assert any(name.endswith(f"#{rid}") for name in names)
        assert any(f"http.ip#{ids[0]}" in name for name in names)

    def test_health_window_rollup(self, world):
        engine = self._engine(world)
        prefix = str(sample_prefixes(engine, 1)[0])

        async def scenario(server):
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            for _ in range(3):
                await session.get(f"/ip/{prefix}")
            _status, _h, body = await session.get("/health")
            await session.close()
            return json.loads(body)

        health = serve(engine, scenario)
        window = health["window"]
        assert set(window) == {"1m", "5m"}
        one_minute = window["1m"]
        assert one_minute["windowSeconds"] == 60
        assert one_minute["requests"] >= 3
        assert one_minute["errorRate"] == 0.0
        assert one_minute["p99Seconds"] > 0.0
        # Everything in the 1m window is inside the 5m window too.
        assert window["5m"]["requests"] >= one_minute["requests"]

    def test_metrics_prom_negotiation(self, world):
        from repro.obs.telemetry import parse_prometheus_text

        engine = self._engine(world)
        prefix = str(sample_prefixes(engine, 1)[0])

        async def scenario(server):
            session = HttpSession(server.host, server.http_port)
            await session.connect()
            await session.get(f"/ip/{prefix}")
            results = [
                await session.get("/metrics"),
                await session.get("/metrics?format=prom"),
            ]
            await session.close()
            return results

        json_result, prom_result = serve(engine, scenario)
        status, headers, body = json_result
        assert status == 200
        assert headers["content-type"] == "application/json"
        json.loads(body)  # the PR-6 JSON document is unchanged
        status, headers, body = prom_result
        assert status == 200
        assert headers["content-type"].startswith(
            "text/plain; version=0.0.4"
        )
        families = parse_prometheus_text(body.decode("utf-8"))
        histogram = families["repro_serve_http_route_ip_seconds"]
        assert histogram["type"] == "histogram"

    def test_metrics_prom_accept_header(self, world):
        engine = self._engine(world)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port
            )
            writer.write(
                b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                b"Accept: text/plain\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = serve(engine, scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"text/plain; version=0.0.4" in head
        assert body.lstrip().startswith(b"# TYPE repro_")

    def test_ready_file_written_atomically(self, world, tmp_path):
        from repro.serve import run_server

        engine = self._engine(world)
        target = tmp_path / "ready.txt"
        server = ReproServeServer(engine)
        run_server(
            server,
            serve_seconds=0.01,
            ready_path=str(target),
            install_signal_handlers=False,
        )
        host, whois_port, http_port = target.read_text().split()
        assert int(whois_port) > 0 and int(http_port) > 0
        # The temp sibling was renamed into place, never left behind.
        assert sorted(tmp_path.iterdir()) == [target]
