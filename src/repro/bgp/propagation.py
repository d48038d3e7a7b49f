"""Valley-free route propagation.

Implements the Gao–Rexford export model: a route learned from a
customer is exported to everyone; a route learned from a peer or a
provider is exported to customers only.  Consequently, a route from
origin *o* reaches AS *m* iff there is a path that goes uphill
(customer→provider) zero or more steps, across at most one peering
edge, then downhill (provider→customer) zero or more steps.

The model exposes the primitives everything downstream needs:

- :meth:`PropagationModel.receivers` — the set of ASes that receive a
  route originated by *o* (cached per origin),
- :meth:`PropagationModel.path` — one shortest valley-free AS path from
  a receiver back to the origin (what the monitor's RIB would show), and
- :meth:`PropagationModel.visible_monitor_masks` — for every AS at
  once, which monitors its routes reach, as an int bitmask.  This is
  the only fact the visibility filter needs, so daily aggregation uses
  it instead of one BFS per origin.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.bgp.topology import ASTopology
from repro.errors import BgpError
from repro.netbase.aspath import ASPath

#: Propagation phases: uphill, crossed-one-peering, downhill.
_UP, _PEERED, _DOWN = 0, 1, 2

_State = Tuple[int, int]
_Explored = Tuple[
    FrozenSet[int],            # receivers
    Dict[int, _State],         # asn -> first (shortest) state reached
    Dict[_State, _State],      # state -> parent state
]


class PropagationModel:
    """Valley-free reachability and path selection over a topology."""

    def __init__(self, topology: ASTopology):
        self._topology = topology
        self._cache: Dict[int, _Explored] = {}

    @property
    def topology(self) -> ASTopology:
        return self._topology

    # -- core BFS ---------------------------------------------------------

    def _explore(self, origin: int) -> _Explored:
        """BFS over (AS, phase) states from ``origin``.

        BFS order guarantees the first state recorded for an AS lies on
        a shortest valley-free path; parent pointers are kept per
        *state* so reconstruction never mixes phases.
        """
        cached = self._cache.get(origin)
        if cached is not None:
            return cached
        topology = self._topology
        if origin not in topology:
            raise BgpError(f"unknown origin AS{origin}")

        parent: Dict[_State, _State] = {}
        best_state: Dict[int, _State] = {}
        start: _State = (origin, _UP)
        parent[start] = (-1, -1)
        best_state[origin] = start
        queue = deque([start])
        while queue:
            state = queue.popleft()
            asn, phase = state
            neighbors: List[_State] = []
            if phase == _UP:
                neighbors.extend(
                    (provider, _UP)
                    for provider in sorted(topology.providers_of(asn))
                )
                neighbors.extend(
                    (peer, _PEERED)
                    for peer in sorted(topology.peers_of(asn))
                )
            neighbors.extend(
                (customer, _DOWN)
                for customer in sorted(topology.customers_of(asn))
            )
            for neighbor in neighbors:
                if neighbor in parent:
                    continue
                parent[neighbor] = state
                best_state.setdefault(neighbor[0], neighbor)
                queue.append(neighbor)

        receivers = frozenset(best_state) - {origin}
        result = (receivers, best_state, parent)
        self._cache[origin] = result
        return result

    # -- public API -----------------------------------------------------------

    def receivers(self, origin: int) -> FrozenSet[int]:
        """All ASes that receive a route originated by ``origin``."""
        receivers, _best, _parent = self._explore(origin)
        return receivers

    def sees(self, monitor: int, origin: int) -> bool:
        """True if ``monitor`` receives routes originated by ``origin``."""
        return monitor in self.receivers(origin)

    def path(self, origin: int, monitor: int) -> Optional[ASPath]:
        """One shortest valley-free AS path as seen at ``monitor``.

        The path is monitor-first, origin-last (collector convention).
        Returns ``None`` when the monitor does not receive the route.
        """
        receivers, best_state, parent = self._explore(origin)
        if monitor not in receivers:
            return None
        hops: List[int] = []
        state = best_state[monitor]
        while state != (-1, -1):
            hops.append(state[0])
            state = parent[state]
        return ASPath.from_asns(hops)

    def visible_monitor_masks(
        self, monitor_bits: Mapping[int, int]
    ) -> Dict[int, int]:
        """``asn -> mask`` of the monitors that hold routes from ``asn``.

        ``monitor_bits`` gives each monitor AS its bit.  The mask of
        origin *o* equals the bits of ``monitors & (receivers(o) |
        {o})``, for every AS of the topology in one pass over its
        edges rather than one BFS per origin:

        - ``down[a]`` — monitors in the customer cone of ``a``
          (``a`` included): what a route sent downhill from ``a``
          reaches;
        - ``local[a]`` — ``down[a]`` plus ``down`` of every peer of
          ``a``: what a route reaches from ``a`` once it stops
          climbing;
        - ``vis[o]`` — ``local[u]`` ORed over the provider closure of
          ``o`` (``o`` included), since a valley-free route climbs
          first and may stop at any AS on the way up.

        Both closures run to a fixed point, so provider cycles (which
        hand-built topologies allow) are handled; on a hierarchy the
        customer-first order settles each in one sweep plus one
        confirming sweep.
        """
        topology = self._topology
        order = _customers_first(topology)
        customers = {a: topology.customers_of(a) for a in order}
        providers = {a: topology.providers_of(a) for a in order}

        down = {a: monitor_bits.get(a, 0) for a in order}
        changed = True
        while changed:
            changed = False
            for asn in order:
                mask = down[asn]
                for customer in customers[asn]:
                    mask |= down[customer]
                if mask != down[asn]:
                    down[asn] = mask
                    changed = True

        vis = {}
        for asn in order:
            mask = down[asn]
            for peer in topology.peers_of(asn):
                mask |= down[peer]
            vis[asn] = mask
        changed = True
        while changed:
            changed = False
            for asn in reversed(order):
                mask = vis[asn]
                for provider in providers[asn]:
                    mask |= vis[provider]
                if mask != vis[asn]:
                    vis[asn] = mask
                    changed = True
        return vis


def _customers_first(topology: ASTopology) -> List[int]:
    """Every AS, each after its customers where the customer graph
    allows it (DFS post-order; on a provider cycle some AS must come
    first, and the fixed point in ``visible_monitor_masks`` makes up
    for it)."""
    order: List[int] = []
    done = set()
    for root in sorted(topology.asns):
        if root in done:
            continue
        done.add(root)
        stack = [(root, iter(topology.customers_of(root)))]
        while stack:
            asn, pending = stack[-1]
            for customer in pending:
                if customer not in done:
                    done.add(customer)
                    stack.append(
                        (customer, iter(topology.customers_of(customer)))
                    )
                    break
            else:
                stack.pop()
                order.append(asn)
    return order
