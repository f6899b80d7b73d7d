"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the run's seed:
the 8x8 grid, the request streams, the REST operation mix and the CLI
argument lists.  The same seed always yields the same inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from intentd.fabric import PacketHeader, TrafficSelector
from intentd.topology import (
    ConnectPoint,
    Topology,
    device_id,
    load_topology,
)

GRID_SIDE = 8
WALK_SRC_MAC = "02:ff:00:00:00:01"

# Edge ports of the built-in five-switch chain.  d1/2..d5/1 carry the links;
# d1/1 and d5/2 are where hosts h1 and h2 attach.
CHAIN_EDGE = {n: ((1, 3, 4) if n == 1 else (2, 3, 4) if n == 5 else (3, 4)) for n in range(1, 6)}


def rng_for(seed: int, *key) -> random.Random:
    """An independent stream per (seed, purpose) so phases do not shift each other."""
    return random.Random(f"{seed}:" + ":".join(str(k) for k in key))


def _cp(n: int, port: int) -> ConnectPoint:
    return ConnectPoint(device_id(n), port)


# ----------------------------------------------------------------- chain


def _chain_endpoints(rng: random.Random) -> tuple[int, int, list[ConnectPoint]]:
    """Two chain ends in seeded order and the middle edge points."""
    a, b = (1, 5) if rng.random() < 0.5 else (5, 1)
    middle = [_cp(n, p) for n in (2, 3, 4) for p in CHAIN_EDGE[n]]
    return a, b, middle


def chain_request_docs(rng: random.Random) -> list[dict]:
    """One request document per type (P2P, S2M, M2S) spanning the whole chain.

    Every request enters at one end and leaves at the other, so each intent
    puts a rule on every device and a fill of N intents puts about N rules
    on each table.
    """
    a, b, middle = _chain_endpoints(rng)
    end_a = _cp(a, rng.choice(CHAIN_EDGE[a]))
    end_b = _cp(b, rng.choice(CHAIN_EDGE[b]))
    extra = rng.sample(middle, rng.randint(1, 2))
    return [
        {"type": "P2P", "ingress": str(end_a), "egress": str(end_b)},
        {"type": "S2M", "ingress": str(end_a), "egresses": sorted(str(c) for c in [end_b, *extra])},
        {"type": "M2S", "ingresses": sorted(str(c) for c in [end_a, *extra]), "egress": str(end_b)},
    ]


def request_of(doc: dict):
    """The intentd request object for a P2P, S2M or M2S document."""
    from intentd.intents import MultiToSinglePoint, PointToPoint, SingleToMultiPoint

    cp = ConnectPoint.parse
    if doc["type"] == "P2P":
        return PointToPoint(cp(doc["ingress"]), cp(doc["egress"]))
    if doc["type"] == "S2M":
        return SingleToMultiPoint(cp(doc["ingress"]), frozenset(map(cp, doc["egresses"])))
    return MultiToSinglePoint(frozenset(map(cp, doc["ingresses"])), cp(doc["egress"]))


def rest_post_doc(rng: random.Random) -> dict:
    """A seeded POST /intents document on the chain; a quarter are host pairs."""
    kind = rng.randrange(4)
    if kind == 3:
        one, two = ("h1", "h2") if rng.random() < 0.5 else ("h2", "h1")
        return {"type": "H2H", "one": one, "two": two}
    return chain_request_docs(rng)[kind]


def cli_argv(rng: random.Random, index: int) -> list[str]:
    """Arguments of one `intentd add-...` command; subcommands rotate by index."""
    kind = index % 4
    if kind == 3:
        one, two = ("h1", "h2") if rng.random() < 0.5 else ("h2", "h1")
        return ["add-host-to-host-intent", "--output", "json", one, two]
    doc = chain_request_docs(rng)[kind]
    if kind == 0:
        return ["add-point-to-point-intent", "--output", "json", doc["ingress"], doc["egress"]]
    if kind == 1:
        return ["add-single-to-multi-point-intent", "--output", "json", doc["ingress"], *doc["egresses"]]
    return ["add-multi-to-single-point-intent", "--output", "json", *doc["ingresses"], doc["egress"]]


# ------------------------------------------------------------------ grid


def grid_document(rng: random.Random, side: int = GRID_SIDE) -> dict:
    """A side x side grid; every switch carries one or two edge ports.

    Ports 1-4 face north, east, south and west where a neighbour exists;
    ports 5 and 6 are edge ports.  All links weigh 1, so the shortest-path
    length between two switches is their Manhattan distance.
    """

    def num(r: int, c: int) -> int:
        return r * side + c + 1

    devices, links = [], []
    for r in range(side):
        for c in range(side):
            ports = [p for p, ok in ((1, r > 0), (2, c < side - 1), (3, r < side - 1), (4, c > 0)) if ok]
            ports += [5] if rng.random() < 0.5 else [5, 6]
            devices.append({"id": device_id(num(r, c)), "ports": ports})
            if c < side - 1:
                links.append({"src": f"{device_id(num(r, c))}/2", "dst": f"{device_id(num(r, c + 1))}/4"})
            if r < side - 1:
                links.append({"src": f"{device_id(num(r, c))}/3", "dst": f"{device_id(num(r + 1, c))}/1"})
    return {"devices": devices, "links": links, "hosts": []}


def grid_topology(seed: int) -> Topology:
    return load_topology(grid_document(rng_for(seed, "grid")))


def grid_distance(a: str, b: str, side: int = GRID_SIDE) -> int:
    """Hop distance between two grid switches, independent of intentd's Dijkstra."""
    ia, ib = int(a[3:], 16) - 1, int(b[3:], 16) - 1
    return abs(ia // side - ib // side) + abs(ia % side - ib % side)


@dataclass(frozen=True)
class GridRequest:
    """One grid submission with what a verifying walk must observe.

    `walks` lists (ingress, expected delivery set); a walk picks one.  The
    delivery set pairs each egress with its hop count, shortest path + 1.
    """

    request: object
    selector: TrafficSelector
    header: PacketHeader
    walks: tuple[tuple[ConnectPoint, frozenset], ...]


def _mac(n: int) -> str:
    return "02:00:" + ":".join("%02x" % ((n >> s) & 0xFF) for s in (24, 16, 8, 0))


def grid_requests(topology: Topology, rng: random.Random):
    """Endless stream of P2P, S2M and M2S requests with seeded endpoints.

    Each request carries its own eth_dst selector, so a walk matches only
    the rules of the intent it verifies even where paths share ports.
    """
    from intentd.intents import MultiToSinglePoint, PointToPoint, SingleToMultiPoint

    points = list(topology.edge_points())

    def reach(ingress: ConnectPoint, egresses) -> frozenset:
        return frozenset((e, grid_distance(ingress.device, e.device) + 1) for e in egresses)

    n = 0
    while True:
        n += 1
        mac = _mac(n)
        selector = TrafficSelector(eth_dst=mac)
        header = PacketHeader(WALK_SRC_MAC, mac)
        kind = n % 3
        if kind == 0:
            ingress, egress = rng.sample(points, 2)
            req = PointToPoint(ingress, egress)
            walks = ((ingress, reach(ingress, [egress])),)
        elif kind == 1:
            ingress, *egresses = rng.sample(points, 3)
            req = SingleToMultiPoint(ingress, frozenset(egresses))
            walks = ((ingress, reach(ingress, egresses)),)
        else:
            egress, *ingresses = rng.sample(points, 3)
            req = MultiToSinglePoint(frozenset(ingresses), egress)
            walks = tuple((i, reach(i, [egress])) for i in sorted(ingresses))
        yield GridRequest(req, selector, header, walks)
