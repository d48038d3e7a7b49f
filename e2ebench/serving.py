"""The serve-paper workload's client side: server launches, an open-loop
load generator, a closed-loop replay, and byte-identity checks.

Requests are built from the seed alone.  Every answer is compared with
the bytes an in-process :class:`~repro.serve.engine.QueryEngine`, built
from the same scenario, produces for the same request.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: ``repro serve --step-days``: the sampled inference window it loads.
STEP_DAYS = 7

#: ``repro serve --jobs``.  With 2 the start-up forks a pool whose
#: timing the single-threaded speed probe cannot follow (start-up
#: spread 25 % over ten seeds); in-process it is the same inference.
SERVE_JOBS = 1

#: Offered load, requests per second over both connections.  The
#: nominal rate is where ``p50``/``p99`` are reported; ``max_qps`` is
#: the highest rate that keeps p99 under the limit without a backlog.
LADDER = (250, 500, 1000, 2000, 4000)
NOMINAL = 500
P99_LIMIT_MS = 10.0

#: Request mix: (kind, weight).
MIX = (
    ("ip", 30), ("delegations", 20), ("as", 10), ("transfers", 15),
    ("market", 5), ("whois", 20),
)

#: Requests in one closed-loop replay, and replays per server launch.
REPLAY_SIZE = 1000
REPLAYS_PER_LAUNCH = 3

#: Server launches per untraced run (start-up time is their median).
LAUNCHES = 4

#: How long before a request is due the generator stops sleeping and
#: yields to the loop instead.
SPIN_S = 0.002


# -- requests and expected answers ----------------------------------------


def _zipf_pick(rng: random.Random, items: list, skew: float = 1.1):
    """Zipf-skewed choice: rank r is drawn with weight 1 / r**skew."""
    weights = _zipf_weights(len(items), skew)
    return rng.choices(items, cum_weights=weights, k=1)[0]


_WEIGHTS: Dict[Tuple[int, float], list] = {}


def _zipf_weights(n: int, skew: float) -> list:
    key = (n, skew)
    if key not in _WEIGHTS:
        total, cumulative = 0.0, []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** skew
            cumulative.append(total)
        _WEIGHTS[key] = cumulative
    return _WEIGHTS[key]


class Catalog:
    """Query keys and the reference answer for every request."""

    def __init__(self, world, engine, seed: int) -> None:
        from repro.errors import RdapNotFoundError
        from repro.netbase.prefix import IPv4Prefix

        self.engine = engine
        rng = random.Random(f"serve-keys:{seed}")
        database = engine.whois.database
        inetnums = [obj.primary_prefix() for obj in database.inetnums()]
        rng.shuffle(inetnums)
        plan = world.delegation_plan()
        delegated = [spec.prefix for spec in plan.cross_org()]
        rng.shuffle(delegated)
        transfers = [
            prefix
            for record in world.transfer_ledger().records()
            for prefix in record.prefixes
        ]
        rng.shuffle(transfers)
        more_specifics = []
        for prefix in inetnums[:200]:
            if prefix.length < 28:
                length = rng.randint(prefix.length + 1, 28)
                offset = rng.randrange(1 << (length - prefix.length))
                network = prefix.network + (offset << (32 - length))
                more_specifics.append(IPv4Prefix(network, length))
        unallocated = []
        while len(unallocated) < 20:
            network = rng.randrange(1, 224) << 24 | rng.randrange(1 << 16) << 8
            candidate = IPv4Prefix(network, 24)
            try:
                engine.rdap_ip(candidate)
            except RdapNotFoundError:
                unallocated.append(candidate)
        asns = sorted({
            asn for org in world.lirs() + world.customers() for asn in org.asns
        })
        rng.shuffle(asns)
        self.keys = {
            "prefix": inetnums[:400] + delegated[:200] + more_specifics,
            "transfer": transfers[:300] + inetnums[:50],
            "unallocated": unallocated,
            "asn": asns[:300],
        }
        self._answers: Dict[Tuple[str, str], object] = {}

    def request(self, rng: random.Random) -> Tuple[str, str]:
        """One request: ``("http", path)`` or ``("whois", line)``."""
        kinds, weights = zip(*MIX)
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        keys = self.keys
        if kind in ("ip", "delegations", "whois"):
            pool = keys["prefix"]
            if rng.random() < 0.05:
                pool = keys["unallocated"]
            prefix = _zipf_pick(rng, pool)
            if kind == "whois":
                return ("whois", str(prefix))
            return ("http", f"/{kind}/{prefix}")
        if kind == "transfers":
            return ("http", f"/transfers/{_zipf_pick(rng, keys['transfer'])}")
        if kind == "as":
            return ("http", f"/as/{_zipf_pick(rng, keys['asn'])}/delegations")
        return ("http", "/market/summary")

    def expected(self, request: Tuple[str, str]):
        """The reference answer: whois text, or ``(status, body)``."""
        answer = self._answers.get(request)
        if answer is None:
            answer = self._compute(request)
            self._answers[request] = answer
        return answer

    def _compute(self, request: Tuple[str, str]):
        from repro.errors import RdapNotFoundError
        from repro.serve.engine import parse_prefix_text
        from repro.serve.protocol import rdap_error_body, render_json

        kind, text = request
        engine = self.engine
        if kind == "whois":
            return engine.whois_query(text)
        if text.startswith("/ip/"):
            try:
                return 200, render_json(
                    engine.rdap_ip(parse_prefix_text(text[len("/ip/"):]))
                )
            except RdapNotFoundError as exc:
                return 404, render_json(
                    rdap_error_body(404, "not found", f"no object for {exc}")
                )
        if text.startswith("/delegations/"):
            return 200, render_json(engine.delegations_lookup(
                parse_prefix_text(text[len("/delegations/"):])
            ))
        if text.startswith("/transfers/"):
            return 200, render_json(engine.transfers_lookup(
                parse_prefix_text(text[len("/transfers/"):])
            ))
        if text.startswith("/as/"):
            asn = int(text[len("/as/"):-len("/delegations")])
            return 200, render_json(engine.as_history(asn))
        return 200, render_json(engine.market_summary())


def reference_catalog(scenario, seed: int) -> Catalog:
    """An in-process engine over the same scenario, and its keys."""
    from repro.serve.engine import QueryEngine
    from repro.simulation import World

    world = World(scenario)
    # jobs=1 keeps the reference in this process: its memory must not
    # count toward the server's peak RSS (children's rusage).
    engine = QueryEngine.from_world(world, step_days=STEP_DAYS, jobs=1)
    return Catalog(world, engine, seed)


# -- server processes -------------------------------------------------------


class Server:
    """One ``repro serve`` process launched by the benchmark."""

    def __init__(self, ctx, scale: str, tag: str,
                 spool: Optional[pathlib.Path] = None) -> None:
        self.dir = ctx.work / f"serve-{tag}"
        self.dir.mkdir(parents=True, exist_ok=True)
        ready = self.dir / "ready.txt"
        self.manifest = self.dir / "manifest.json"
        args = [
            "--scale", scale, "--seed", str(ctx.seed), "serve",
            "--step-days", str(STEP_DAYS), "--jobs", str(SERVE_JOBS),
            "--whois-port", "0", "--http-port", "0",
            "--ready-file", str(ready),
            "--rate-limit", "1000000000", "--burst", "1000000000",
            "--metrics-out", str(self.manifest),
        ]
        if spool is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            boot = pathlib.Path(__file__).with_name("serve_boot.py")
            command = [sys.executable, str(boot), str(spool)] + args
        ctx.clock.start()
        started = perf_counter()
        with open(self.dir / "stderr.txt", "wb") as stderr:
            self.proc = subprocess.Popen(
                command, env=ctx.env, stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        deadline = started + 120
        while not ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode} "
                    f"before it was ready (see {self.dir}/stderr.txt)"
                )
            if perf_counter() > deadline:
                self.kill()
                raise RuntimeError("repro serve was not ready in 120 s")
            time.sleep(0.002)
        self.ready_wall = perf_counter() - started
        # Calibrated seconds; serve.load gets the same speed factor.
        self.ready_s = ctx.clock.scale(self.ready_wall)
        self.factor = ctx.clock.factor
        host, whois_port, http_port = ready.read_text().split()
        self.host, self.whois_port, self.http_port = (
            host, int(whois_port), int(http_port)
        )
        # One answered request proves the loop runs past its ready
        # file, i.e. the SIGTERM handler is installed.
        asyncio.run(_health(self))

    def stop(self) -> float:
        """Drain the server; returns its ``serve.load`` wall seconds."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("repro serve did not drain in 60 s")
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited {self.proc.returncode}")
        manifest = json.loads(self.manifest.read_text(encoding="utf-8"))
        return manifest["metrics"]["timers"]["serve.load"]["total_seconds"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


async def _health(server: Server) -> None:
    from repro.serve.client import HttpSession

    session = HttpSession(server.host, server.http_port)
    await session.connect()
    status, _headers, _body = await session.get("/health")
    await session.close()
    if status != 200:
        raise RuntimeError(f"/health answered {status}")


# -- load -------------------------------------------------------------------


class Connections:
    """One keep-alive HTTP connection and one whois ``-k`` session."""

    def __init__(self, server: Server) -> None:
        self.server = server

    async def __aenter__(self) -> "Connections":
        from repro.serve.client import HttpSession, WhoisSession

        self.http = HttpSession(self.server.host, self.server.http_port)
        self.whois = WhoisSession(self.server.host, self.server.whois_port)
        await self.http.connect()
        await self.whois.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.http.close()
        await self.whois.close()

    async def ask(self, request: Tuple[str, str]):
        kind, text = request
        if kind == "whois":
            return await self.whois.query(text)
        status, _headers, body = await self.http.get(text)
        return status, body


class Tally:
    """Answers checked against the reference: attempted and failed."""

    def __init__(self, catalog: Catalog, inject: bool = False) -> None:
        self.catalog = catalog
        self.attempted = 0
        self.failed = 0
        self._inject = inject

    def check(self, request, answer) -> None:
        self.attempted += 1
        expected = self.catalog.expected(request)
        if self._inject:
            # Self-test hook: one deliberately wrong reference answer.
            self._inject = False
            expected = ("corrupted", expected)
        if answer != expected:
            self.failed += 1

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1


async def _lane(conns: Connections, items, t0: float, tally: Tally):
    """Send one connection's share of an open-loop schedule.

    Each request is timed from when it was due, so a stall also counts
    against every request queued behind it.  ``late`` records how far
    past its due time the generator woke for requests that found the
    connection idle.
    """
    latencies, late = [], []
    for due, request in items:
        wait = t0 + due - perf_counter()
        if wait > 0:
            # The loop's timers fire on a millisecond grid: sleep most
            # of the way, then yield until the request is due.
            if wait > SPIN_S:
                await asyncio.sleep(wait - SPIN_S)
            while perf_counter() < t0 + due:
                await asyncio.sleep(0)
            late.append(perf_counter() - (t0 + due))
        try:
            answer = await conns.ask(request)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            tally.fail()
            continue
        latencies.append(perf_counter() - (t0 + due))
        tally.check(request, answer)
    return latencies, late


async def _open_loop(server, catalog, rng, rate, seconds, tally):
    schedule, due = [], 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            break
        schedule.append((due, catalog.request(rng)))
    http = [item for item in schedule if item[1][0] == "http"]
    whois = [item for item in schedule if item[1][0] == "whois"]
    async with Connections(server) as conns:
        t0 = perf_counter() + 0.01
        results = await asyncio.gather(
            _lane(conns, http, t0, tally), _lane(conns, whois, t0, tally),
        )
    latencies = sorted(results[0][0] + results[1][0])
    late = sorted(results[0][1] + results[1][1])
    return latencies, late, len(schedule)


def percentile(sorted_values: list, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def ladder(server, catalog, seed, seconds, tally) -> dict:
    """Step through :data:`LADDER`; the nominal step gets the most time."""
    rng = random.Random(f"serve-load:{seed}")
    others = len(LADDER) - 1
    nominal_s = max(1.0, 0.4 * seconds)
    other_s = max(0.5, 0.6 * seconds / others)
    steps = {}
    for rate in LADDER:
        step_s = nominal_s if rate == NOMINAL else other_s
        latencies, late, sent = asyncio.run(
            _open_loop(server, catalog, rng, rate, step_s, tally)
        )
        tail = latencies[-max(1, len(latencies) // 10):]
        steps[rate] = {
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
            "late_p99_ms": percentile(late, 0.99) * 1e3,
            "samples": len(latencies),
            "sent": sent,
            # A backlog that keeps growing shows as late requests at the
            # end of the step waiting longer than the p99 limit.
            "backlog": sorted(tail)[len(tail) // 2] * 1e3 > P99_LIMIT_MS,
        }
    meeting = [
        rate for rate, step in steps.items()
        if step["p99_ms"] <= P99_LIMIT_MS and not step["backlog"]
    ]
    return {"steps": steps, "max_qps": max(meeting) if meeting else 0}


async def _replay(server, requests, tally) -> float:
    async with Connections(server) as conns:
        started = perf_counter()
        answers = [await conns.ask(request) for request in requests]
        elapsed = perf_counter() - started
    for request, answer in zip(requests, answers):
        tally.check(request, answer)
    return elapsed


def replay_sample(catalog, seed) -> list:
    rng = random.Random(f"serve-replay:{seed}")
    return [catalog.request(rng) for _ in range(REPLAY_SIZE)]


def replay(server, requests, tally, clock) -> float:
    """Closed loop: each request waits for the previous answer.

    Returns calibrated seconds (see ``speed.py``).
    """
    clock.start()
    return clock.scale(asyncio.run(_replay(server, requests, tally)))


# -- the workload ------------------------------------------------------------


def serve_paper(ctx) -> dict:
    from batch import Checks

    scale = ctx.scale_name("paper")
    catalog = reference_catalog(ctx.scenario("paper"), ctx.seed)
    tally = Tally(catalog, inject=ctx.inject)
    sample = replay_sample(catalog, ctx.seed)
    out: Dict[str, list] = {}
    servers: List[Server] = []

    def launch(tag, spool=None) -> Server:
        server = Server(ctx, scale, tag, spool)
        servers.append(server)
        return server

    try:
        server = launch("load")
        steps = ladder(server, catalog, ctx.seed, 0.6 * ctx.seconds, tally)
        # Replays are spread over every launch rather than bunched.
        replays = [
            replay(server, sample, tally, ctx.clock)
            for _ in range(REPLAYS_PER_LAUNCH)
        ]
        # serve.load is scaled by the speed factor of its own launch.
        loads = [server.stop() * server.factor]
        nominal = steps["steps"][NOMINAL]
        if not ctx.trace:
            ready, walls = [server.ready_s], [server.ready_wall]
            for index in range(1, LAUNCHES):
                server = launch(f"setup-{index}")
                ready.append(server.ready_s)
                walls.append(server.ready_wall)
                replays.extend(
                    replay(server, sample, tally, ctx.clock)
                    for _ in range(REPLAYS_PER_LAUNCH)
                )
                loads.append(server.stop() * server.factor)
            out["setup_s"] = ready
            out["setup_s.wall"] = walls
            out["batch_s"] = loads
            out["core_s"] = replays
            out["peak_rss_mb"] = [_children_rss_mb()]
        else:
            server = launch("traced", ctx.spool)
            for _ in range(2):
                replay(server, sample, tally, ctx.clock)
            traced_load = server.stop() * server.factor
            out["trace.overhead_frac"] = [(traced_load - loads[0]) / loads[0]]
            out["serve.client_us"] = [nominal["p50_ms"] * 1e3]
        out["serve.p50_ms"] = [nominal["p50_ms"]]
        out["serve.p99_ms"] = [nominal["p99_ms"]]
        out["serve.max_qps"] = [steps["max_qps"]]
        out["serve.gen_late_ms"] = [nominal["late_p99_ms"]]
        out["serve.samples"] = [nominal["samples"]]
        for rate, step in steps["steps"].items():
            ctx.log(
                f"  load {rate:>5}/s: p50 {step['p50_ms']:.3f} ms, "
                f"p99 {step['p99_ms']:.3f} ms over {step['samples']} "
                f"requests, generator late p99 {step['late_p99_ms']:.3f} ms"
                + (", backlog" if step["backlog"] else "")
            )
    finally:
        for server in servers:
            server.kill()
    checks = Checks()
    checks.add(tally.attempted, tally.failed,
               "serve answers vs in-process QueryEngine")
    return {"metrics": out, "checks": checks}


def _children_rss_mb() -> float:
    """Peak RSS of the reaped servers (and their pool workers)."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
