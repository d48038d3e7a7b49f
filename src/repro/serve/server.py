"""The always-on asyncio server: two frontends, one query core.

:class:`ReproServeServer` binds two listeners over one
:class:`~repro.serve.engine.QueryEngine`:

- a **WHOIS line protocol** (port-43 semantics): one query line per
  connection, answered with the exact bytes
  :class:`~repro.whois.server.WhoisServer` would produce, plus the
  RIPE-style ``-k`` keep-open mode for bulk clients,
- an **HTTP/JSON API** (RDAP-shaped): ``/ip/<prefix>`` answers with
  the exact :class:`~repro.rdap.server.RdapServer` response object,
  alongside ``/delegations``, ``/as/<n>/delegations``, ``/transfers``,
  ``/market/summary``, ``/health`` and ``/metrics``.

Both frontends charge the *same* per-client token buckets (the
eviction-bounded limiter table inside the RDAP server), so throttling
is protocol-independent: HTTP answers ``429`` with a real
``Retry-After`` header, WHOIS answers an ``%ERROR:201`` line.

Shutdown is graceful: listeners close first, idle keep-alive
connections are disconnected, and requests already in flight finish
writing their response before the loop stops (bounded by
``drain_grace``).

Observability rides the existing :mod:`repro.obs` machinery — counters
and latency timers per frontend, and, when the engine carries a
:class:`~repro.obs.trace.TracingRegistry`, one trace lane per
connection merged into the main timeline exactly like worker lanes
fan into the runner.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import pathlib
import signal
import time
from typing import Awaitable, Callable, Optional, Tuple

from repro.errors import (
    PrefixError,
    RdapNotFoundError,
    RdapRateLimitError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SlidingWindow, to_prometheus
from repro.obs.trace import TracingRegistry
from repro.serve.engine import QueryEngine, parse_prefix_text
from repro.serve.protocol import (
    MAX_HEADER_BYTES,
    MAX_LINE_BYTES,
    HttpRequest,
    ProtocolError,
    http_response,
    parse_http_head,
    rdap_error_body,
    render_json,
    whois_throttle_line,
)

logger = logging.getLogger(__name__)

_WHOIS_INTERNAL_ERROR = "%ERROR:100: internal software error"


class ReproServeServer:
    """Long-running server over one loaded :class:`QueryEngine`."""

    def __init__(
        self,
        engine: QueryEngine,
        *,
        host: str = "127.0.0.1",
        whois_port: int = 0,
        http_port: int = 0,
        drain_grace: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        request_hook: Optional[Callable[[], Awaitable[None]]] = None,
    ):
        self._engine = engine
        self._metrics: MetricsRegistry = engine.metrics
        self._host = host
        self._whois_port = whois_port
        self._http_port = http_port
        self._drain_grace = drain_grace
        self._clock = clock
        #: Awaited while each request is in flight — a seam for drain
        #: tests and latency-injection experiments.
        self._request_hook = request_hook
        self._whois_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._connections: dict = {}   # task -> writer
        self._busy: set = set()        # tasks mid-request
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._conn_seq = 0
        self._request_seq = 0
        #: Per-second ring buffer behind the ``/health`` rollup:
        #: qps / error rate / p99 over the trailing 1 m and 5 m.
        self._window = SlidingWindow(span_seconds=300)
        self._started_at: Optional[float] = None
        self.connections_total = 0
        self.whois_queries = 0
        self.http_requests = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners (port 0 picks ephemeral ports)."""
        self._stopped = asyncio.Event()
        self._started_at = self._clock()
        self._whois_server = await asyncio.start_server(
            self._accept_whois,
            self._host,
            self._whois_port,
            limit=MAX_LINE_BYTES,
        )
        self._http_server = await asyncio.start_server(
            self._accept_http,
            self._host,
            self._http_port,
            limit=MAX_HEADER_BYTES,
        )
        self._whois_port = self._whois_server.sockets[0].getsockname()[1]
        self._http_port = self._http_server.sockets[0].getsockname()[1]
        logger.info(
            "serving whois on %s:%d, http on %s:%d",
            self._host, self._whois_port, self._host, self._http_port,
        )

    @property
    def host(self) -> str:
        return self._host

    @property
    def whois_port(self) -> int:
        return self._whois_port

    @property
    def http_port(self) -> int:
        return self._http_port

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown from sync context (signal handler)."""
        if not self._draining:
            asyncio.ensure_future(self.shutdown())

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, stop the server.

        Idle connections (keep-alive sockets waiting for their next
        request) are closed immediately — there is nothing of theirs to
        drain.  Connections mid-request get up to ``drain_grace``
        seconds to finish writing, then are cancelled.
        """
        if self._draining:
            return
        self._draining = True
        for server in (self._whois_server, self._http_server):
            if server is not None:
                server.close()
        for server in (self._whois_server, self._http_server):
            if server is not None:
                await server.wait_closed()
        current = asyncio.current_task()
        for task, writer in list(self._connections.items()):
            if task not in self._busy and task is not current:
                writer.close()
        pending = [
            task for task in self._connections
            if task is not current
        ]
        if pending:
            _done, late = await asyncio.wait(
                pending, timeout=self._drain_grace
            )
            for task in late:
                task.cancel()
            if late:
                await asyncio.gather(*late, return_exceptions=True)
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server never started"
        await self._stopped.wait()

    # -- connection scaffolding ----------------------------------------

    def _connection_registry(
        self, kind: str
    ) -> Tuple[MetricsRegistry, Optional[Callable[[], None]]]:
        """Per-connection registry, merged back at connection close.

        With a tracing main registry every connection records into its
        own lane (``whois-3``, ``http-17``) and fans in on close —
        the same shape as worker lanes merging through the runner
        pool.  Otherwise the main registry is shared directly.
        """
        main = self._metrics
        if isinstance(main, TracingRegistry):
            child = TracingRegistry(lane=f"{kind}-{self._conn_seq}")
            return child, lambda: main.merge(child)
        return main, None

    async def _accept_whois(self, reader, writer) -> None:
        await self._run_connection(self._serve_whois, "whois", reader, writer)

    async def _accept_http(self, reader, writer) -> None:
        await self._run_connection(self._serve_http, "http", reader, writer)

    async def _run_connection(self, handler, kind, reader, writer) -> None:
        if self._draining:
            writer.close()
            return
        task = asyncio.current_task()
        self._conn_seq += 1
        self._connections[task] = writer
        self.connections_total += 1
        self._metrics.inc("serve.connections.total")
        self._metrics.inc(f"serve.{kind}.connections")
        self._metrics.set_gauge(
            "serve.connections.peak", float(len(self._connections))
        )
        registry, finalize = self._connection_registry(kind)
        try:
            await handler(reader, writer, registry)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        except Exception:  # noqa: BLE001 - one connection, not the server
            logger.exception("unhandled error on %s connection", kind)
            self._metrics.inc(f"serve.{kind}.connection_errors")
        finally:
            if finalize is not None:
                finalize()
            self._busy.discard(task)
            self._connections.pop(task, None)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    def _client_id(self, writer, override: str = "") -> str:
        if override:
            return override
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    def _next_request_id(self) -> str:
        """One id per request, shared across both protocols.

        Returned to HTTP clients as ``X-Request-Id`` and stamped on
        the request's trace event, so a client-observed latency can be
        matched to the exact event in the server's timeline.
        """
        self._request_seq += 1
        return f"req-{self._request_seq}"

    def _observe_request(
        self,
        registry,
        *,
        kind: str,
        label: str,
        request_id: str,
        started_wall: float,
        elapsed: float,
        error: bool,
    ) -> None:
        """Fold one finished request into every telemetry surface.

        Per-protocol and per-route timers (each carrying a latency
        histogram for free), the sliding ``/health`` window, and —
        when the connection records into a trace lane — one event
        named after the request id.
        """
        registry.observe(f"serve.{kind}.request", elapsed)
        if kind == "http":
            registry.observe(f"serve.http.route.{label}", elapsed)
        self._window.record(self._clock(), elapsed, error=error)
        trace = getattr(registry, "trace", None)
        if trace is not None:
            trace.add(
                f"{kind}.{label}#{request_id}",
                started_wall,
                elapsed,
                failed=error,
            )

    async def _hook(self) -> None:
        if self._request_hook is not None:
            await self._request_hook()

    # -- the WHOIS frontend --------------------------------------------

    async def _serve_whois(self, reader, writer, registry) -> None:
        """Port-43 semantics: answer one query line, then close.

        A ``-k`` token switches the connection persistent (RIPE bulk
        convention): each response is terminated by *two* consecutive
        blank lines and the next query is awaited, until an empty
        line, EOF, or drain.  Two blanks — not one — because
        multi-object answers (``-L``, ``-m``) separate objects with a
        single blank line, so a single-blank terminator would be
        ambiguous and truncate them at the first object.
        """
        task = asyncio.current_task()
        client_id = self._client_id(writer)
        persistent = False
        first_line = True
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                writer.write((_WHOIS_INTERNAL_ERROR + "\n").encode())
                await writer.drain()
                break
            if not raw:
                break
            tokens = raw.decode("utf-8", "replace").split()
            if "-k" in tokens:
                persistent = True
                tokens = [t for t in tokens if t != "-k"]
            if not tokens:
                if first_line and persistent:
                    first_line = False
                    continue  # bare "-k" opener: hold the line open
                break  # blank line ends a persistent session
            first_line = False
            self._busy.add(task)
            request_id = self._next_request_id()
            started_wall = time.time()
            started = time.perf_counter()
            try:
                response = await self._answer_whois(
                    " ".join(tokens), client_id, registry
                )
                writer.write((response + "\n").encode("utf-8"))
                if persistent:
                    writer.write(b"\n\n")
                await writer.drain()
                self._observe_request(
                    registry,
                    kind="whois",
                    label="query",
                    request_id=request_id,
                    started_wall=started_wall,
                    elapsed=time.perf_counter() - started,
                    error=response.startswith(_WHOIS_INTERNAL_ERROR),
                )
            finally:
                self._busy.discard(task)
            if not persistent or self._draining:
                break

    async def _answer_whois(self, line, client_id, registry) -> str:
        # The request timer/histogram is recorded by the caller around
        # the full wall (hook, engine answer, socket write + drain).
        await self._hook()
        self.whois_queries += 1
        registry.inc("serve.whois.requests")
        try:
            self._engine.check_rate(client_id, self._clock())
        except RdapRateLimitError as exc:
            registry.inc("serve.whois.throttled")
            return whois_throttle_line(exc.retry_after_seconds or 0.0)
        try:
            return self._engine.whois_query(line)
        except Exception:  # noqa: BLE001 - protocol must answer
            logger.exception("whois query failed: %r", line)
            registry.inc("serve.whois.errors")
            return _WHOIS_INTERNAL_ERROR

    # -- the HTTP frontend ---------------------------------------------

    async def _serve_http(self, reader, writer, registry) -> None:
        """HTTP/1.1 with keep-alive; bodies are read and discarded."""
        task = asyncio.current_task()
        peer_id = self._client_id(writer)
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    writer.write(http_response(
                        400,
                        render_json(rdap_error_body(
                            400, "bad request", "truncated request head"
                        )),
                        keep_alive=False,
                    ))
                    await writer.drain()
                break
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(http_response(
                    400,
                    render_json(rdap_error_body(
                        400, "bad request", "request head too large"
                    )),
                    keep_alive=False,
                ))
                await writer.drain()
                break
            self._busy.add(task)
            try:
                try:
                    request = parse_http_head(head[:-4])
                except ProtocolError as exc:
                    writer.write(http_response(
                        400,
                        render_json(rdap_error_body(
                            400, "bad request", str(exc)
                        )),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                length = int(request.header("content-length", "0") or 0)
                if length > 0:
                    await reader.readexactly(min(length, MAX_HEADER_BYTES))
                client_id = self._client_id(
                    writer, request.header("x-client-id")
                )
                request_id = self._next_request_id()
                started_wall = time.time()
                started = time.perf_counter()
                await self._hook()
                self.http_requests += 1
                registry.inc("serve.http.requests")
                status, body, content_type, retry_after, label = (
                    self._route(request, client_id, registry)
                )
                registry.inc(f"serve.http.status.{status}")
                registry.inc(f"serve.http.status_class.{status // 100}xx")
                keep = request.keep_alive and not self._draining
                writer.write(http_response(
                    status,
                    body,
                    content_type=content_type,
                    keep_alive=keep,
                    retry_after_seconds=retry_after,
                    head_only=request.method == "HEAD",
                    request_id=request_id,
                ))
                await writer.drain()
                self._observe_request(
                    registry,
                    kind="http",
                    label=label,
                    request_id=request_id,
                    started_wall=started_wall,
                    elapsed=time.perf_counter() - started,
                    error=status >= 500,
                )
            finally:
                self._busy.discard(task)
            if not keep:
                break

    #: Routes charged against the per-client rate limit.  ``/health``
    #: and ``/metrics`` stay free so orchestration probes never starve.
    _LIMITED_PREFIXES = (
        "/ip/", "/delegations/", "/as/", "/transfers/", "/market/",
    )

    def _route(
        self, request: HttpRequest, client_id: str, registry
    ) -> Tuple[int, bytes, str, Optional[float], str]:
        """Dispatch one request.

        Returns ``(status, body, content_type, retry_after, label)``;
        the label names the route in per-route latency histograms
        (``serve.http.route.<label>``) and trace-lane events.
        """
        path, _, query = request.path.partition("?")
        if request.method not in ("GET", "HEAD"):
            return (
                405,
                render_json(rdap_error_body(
                    405, "method not allowed", f"{request.method} {path}"
                )),
                "application/json",
                None,
                "method_not_allowed",
            )
        label = "unmatched"
        try:
            if path == "/health":
                with registry.span("serve.http.health"):
                    return (
                        200, render_json(self.health()),
                        "application/json", None, "health",
                    )
            if path == "/metrics":
                with registry.span("serve.http.metrics"):
                    if self._wants_prometheus(request, query):
                        return (
                            200,
                            self.prometheus_text().encode("utf-8"),
                            "text/plain; version=0.0.4; charset=utf-8",
                            None,
                            "metrics",
                        )
                    return (
                        200, render_json(self.metrics_snapshot()),
                        "application/json", None, "metrics",
                    )
            if any(path.startswith(p) for p in self._LIMITED_PREFIXES):
                try:
                    self._engine.check_rate(client_id, self._clock())
                except RdapRateLimitError as exc:
                    registry.inc("serve.http.throttled")
                    retry_after = exc.retry_after_seconds or 0.0
                    return (
                        429,
                        render_json(rdap_error_body(
                            429, "rate limit exceeded", str(exc)
                        )),
                        "application/rdap+json",
                        retry_after,
                        "throttled",
                    )
            if path.startswith("/ip/"):
                label = "ip"
                with registry.span("serve.http.ip"):
                    payload = self._engine.rdap_ip(
                        parse_prefix_text(path[len("/ip/"):])
                    )
                return (
                    200, render_json(payload),
                    "application/rdap+json", None, "ip",
                )
            if path.startswith("/delegations/"):
                label = "delegations"
                with registry.span("serve.http.delegations"):
                    payload = self._engine.delegations_lookup(
                        parse_prefix_text(path[len("/delegations/"):])
                    )
                return (
                    200, render_json(payload),
                    "application/json", None, "delegations",
                )
            if path.startswith("/as/") and path.endswith("/delegations"):
                label = "as"
                asn_text = path[len("/as/"):-len("/delegations")]
                with registry.span("serve.http.as"):
                    payload = self._engine.as_history(int(asn_text))
                return (
                    200, render_json(payload),
                    "application/json", None, "as",
                )
            if path.startswith("/transfers/"):
                label = "transfers"
                with registry.span("serve.http.transfers"):
                    payload = self._engine.transfers_lookup(
                        parse_prefix_text(path[len("/transfers/"):])
                    )
                return (
                    200, render_json(payload),
                    "application/json", None, "transfers",
                )
            if path == "/market/summary":
                label = "market"
                with registry.span("serve.http.market"):
                    payload = self._engine.market_summary()
                return (
                    200, render_json(payload),
                    "application/json", None, "market",
                )
        except RdapNotFoundError as exc:
            return (
                404,
                render_json(rdap_error_body(
                    404, "not found", f"no object for {exc}"
                )),
                "application/rdap+json",
                None,
                label,
            )
        except (PrefixError, ValueError) as exc:
            return (
                400,
                render_json(rdap_error_body(
                    400, "bad request", str(exc)
                )),
                "application/json",
                None,
                label,
            )
        return (
            404,
            render_json(rdap_error_body(
                404, "not found", f"no route for {path}"
            )),
            "application/json",
            None,
            "unmatched",
        )

    @staticmethod
    def _wants_prometheus(request: HttpRequest, query: str) -> bool:
        """Content negotiation for ``/metrics``.

        ``?format=prom`` (or ``format=prometheus``) forces the text
        exposition; otherwise an ``Accept`` header preferring
        ``text/plain`` or OpenMetrics gets it, and everything else —
        including the bare default — keeps the JSON document PR 6
        shipped.
        """
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "format":
                return value in ("prom", "prometheus")
        accept = request.header("accept").lower()
        return "text/plain" in accept or "openmetrics" in accept

    # -- introspection --------------------------------------------------

    def health(self) -> dict:
        """The ``/health`` document (also the startup banner data)."""
        uptime = (
            self._clock() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "status": "draining" if self._draining else "ok",
            "uptimeSeconds": round(uptime, 3),
            "loaded": self._engine.loaded_summary(),
            "connections": {
                "live": len(self._connections),
                "total": self.connections_total,
            },
            "queries": {
                "whois": self.whois_queries,
                "http": self.http_requests,
                "throttled": self._engine.rdap.throttled_count,
            },
            "limiters": {
                "live": self._engine.rdap.live_limiter_count,
                "evicted": self._engine.rdap.evicted_count,
            },
            "window": {
                "1m": self._window.snapshot(self._clock(), 60),
                "5m": self._window.snapshot(self._clock(), 300),
            },
        }

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` document: the obs registry, as JSON."""
        snapshot = self._metrics.to_json()
        snapshot["enabled"] = self._metrics.enabled
        return snapshot

    def prometheus_text(self) -> str:
        """The ``/metrics`` document in Prometheus text exposition."""
        return to_prometheus(self._metrics.to_json())


def run_server(
    server: ReproServeServer,
    *,
    serve_seconds: Optional[float] = None,
    ready_path: Optional[str] = None,
    install_signal_handlers: bool = True,
    on_ready: Optional[Callable[[ReproServeServer], None]] = None,
) -> None:
    """Start ``server`` and block until it shuts down.

    ``SIGINT``/``SIGTERM`` trigger the graceful drain; with
    ``serve_seconds`` the server additionally drains itself after that
    long (the smoke-test mode).  ``ready_path`` gets one line —
    ``<host> <whois_port> <http_port>`` — written once both listeners
    are bound, so scripts can wait for ephemeral ports; ``on_ready``
    is called at the same moment (the CLI's startup banner).
    """

    async def _main() -> None:
        await server.start()
        if ready_path is not None:
            # Atomic publish (the store/cache temp convention): a
            # script polling for this file must never read a torn
            # half-line, so write a sibling and rename into place.
            target = pathlib.Path(ready_path)
            tmp = target.with_name(
                f"{target.name}.tmp.{os.getpid()}"
            )
            tmp.write_text(
                f"{server.host} {server.whois_port} "
                f"{server.http_port}\n",
                encoding="utf-8",
            )
            os.replace(tmp, target)
        if on_ready is not None:
            on_ready(server)
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        signum, server.request_shutdown
                    )
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support in loops
        timer = None
        if serve_seconds is not None:
            timer = loop.call_later(
                serve_seconds, server.request_shutdown
            )
        try:
            await server.wait_stopped()
        finally:
            if timer is not None:
                timer.cancel()
            for signum in installed:
                loop.remove_signal_handler(signum)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # Fallback when signal handlers could not be installed.
        pass
