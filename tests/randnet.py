"""Random topology and intent instances, plus brute-force path oracles.

Used by both the unit suites and the acceptance suite.  Generated graphs
are connected, keep at least one free edge port per device, and use unit
link weights unless weighted=True.
"""
from __future__ import annotations

import itertools
import random

from intentd.fabric import PacketHeader
from intentd.intents import (
    IntentState,
    MultiToSinglePoint,
    PointToPoint,
    SingleToMultiPoint,
)
from intentd.topology import ConnectPoint, Link, Topology, device_id, shortest_path

DEFAULT_HEADER = PacketHeader("aa:aa:aa:aa:aa:01", "aa:aa:aa:aa:aa:02")


def random_topology(
    rng: random.Random,
    max_devices: int = 8,
    max_links: int = 16,
    weighted: bool = False,
) -> Topology:
    n = rng.randint(2, max_devices)
    next_port = {i: 1 for i in range(1, n + 1)}

    def take_port(i: int) -> int:
        port = next_port[i]
        next_port[i] = port + 1
        return port

    def weight() -> float:
        return float(rng.choice((1, 1, 2, 3))) if weighted else 1.0

    pairs: list[tuple[int, int]] = []
    for i in range(2, n + 1):
        pairs.append((rng.randint(1, i - 1), i))
    spare = [
        p
        for p in itertools.combinations(range(1, n + 1), 2)
        if p not in pairs
    ]
    budget = min(max_links - len(pairs), len(spare))
    if budget > 0:
        pairs.extend(rng.sample(spare, rng.randint(0, budget)))

    links = [
        Link(
            ConnectPoint(device_id(a), take_port(a)),
            ConnectPoint(device_id(b), take_port(b)),
            weight(),
        )
        for a, b in pairs
    ]
    devices = {
        device_id(i): list(range(1, next_port[i] + rng.randint(1, 2)))
        for i in range(1, n + 1)
    }
    return Topology(devices, links)


def random_intent(rng: random.Random, topo: Topology, types=("P2P", "S2M", "M2S")):
    """A request whose endpoints are distinct edge points of the topology."""
    points = list(topo.edge_points())
    kind = rng.choice(types)
    if kind == "P2P":
        ingress, egress = rng.sample(points, 2)
        return PointToPoint(ingress, egress)
    fan = rng.randint(1, min(4, len(points) - 1))
    if kind == "S2M":
        ingress = rng.choice(points)
        rest = [p for p in points if p != ingress]
        return SingleToMultiPoint(ingress, frozenset(rng.sample(rest, fan)))
    egress = rng.choice(points)
    rest = [p for p in points if p != egress]
    return MultiToSinglePoint(frozenset(rng.sample(rest, fan)), egress)


def brute_force_path(topo: Topology, src: str, dst: str):
    """Minimum (cost, device sequence, port sequence) over all simple paths.

    Independent of the Dijkstra implementation: plain DFS enumeration.
    Returns None when no path exists.
    """
    if src == dst:
        return ()
    best = None
    best_key = None

    def walk(device: str, seen: frozenset, cost: float, dseq: tuple, pseq: tuple, links: tuple):
        nonlocal best, best_key
        if device == dst:
            key = (cost, dseq, pseq)
            if best_key is None or key < best_key:
                best_key = key
                best = links
            return
        for link in topo.out_links(device):
            nxt = link.dst.device
            if nxt in seen:
                continue
            walk(
                nxt,
                seen | {nxt},
                cost + link.weight,
                dseq + (nxt,),
                pseq + (link.src.port,),
                links + (link,),
            )

    walk(src, frozenset((src,)), 0.0, (src,), (), ())
    return best


def intent_endpoints(request):
    """(ingress list, egress set) for any unicast/multipoint request."""
    if isinstance(request, PointToPoint):
        return [request.ingress], {request.egress}
    if isinstance(request, SingleToMultiPoint):
        return [request.ingress], set(request.egresses)
    return sorted(request.ingresses), {request.egress}


def assert_intent_realized(controller, intent_id, header: PacketHeader = DEFAULT_HEADER):
    """Inject at every ingress; traffic must reach exactly the egress set.

    Hop counts have to match the shortest-path link count plus one for the
    ingress device itself.
    """
    intent = controller.get(intent_id)
    assert intent.state is IntentState.INSTALLED, intent.failure
    ingresses, egresses = intent_endpoints(intent.request)
    topo = controller.topology
    for ingress in ingresses:
        report = controller.fabric.inject(ingress, header)
        delivered_points = {cp for cp, _ in report.delivered}
        assert delivered_points == egresses, (
            f"from {ingress}: delivered {delivered_points}, wanted {egresses}"
        )
        assert len(report.delivered) == len(egresses)
        assert not report.misses, f"from {ingress}: misses at {report.misses}"
        assert not report.dropped_at, f"from {ingress}: drops at {report.dropped_at}"
        for cp, hops in report.delivered:
            expected = len(shortest_path(topo, ingress.device, cp.device)) + 1
            assert hops == expected, (
                f"{ingress} -> {cp}: {hops} hops, shortest is {expected}"
            )


def assert_store_matches_fabric(controller) -> None:
    """The invariants that tie a quiescent controller's store to its fabric.

    Every live intent is INSTALLED; the fabric's rule total is the summed
    rule count of the INSTALLED leaves (a host-to-host parent owns no rules,
    its legs do); and the rule owners are exactly those leaves.
    """
    installed = [i for i in controller.list() if i.state is IntentState.INSTALLED]
    leaves = {i.id for i in installed if not i.child_ids}
    assert controller.live_intents() == len(installed)
    assert controller.installed_rules() == sum(controller.rule_count(i) for i in leaves)
    owners = {
        rule.owner_intent
        for device in controller.topology.device_ids
        for rule in controller.fabric.rules_for(device)
    }
    assert owners == leaves, f"rule owners {sorted(owners)}, INSTALLED leaves {sorted(leaves)}"
