#!/usr/bin/env python3
"""Guided tour of the controller on the built-in chain topology.

Submits one intent of each kind, walks packets through the fabric to show
where they come out, then withdraws everything and shows the controller
back at zero.  Everything runs in this process; nothing listens on a port.
"""
from __future__ import annotations

from intentd import (
    ConnectPoint,
    Controller,
    HostToHost,
    PacketHeader,
    PointToPoint,
    SingleToMultiPoint,
    default_topology,
    host_mac,
)
from intentd.fabric import DEFAULT_PRIORITY
from intentd.intents import intent_document


def show(title: str) -> None:
    print(f"\n== {title}")


def print_intents(controller: Controller) -> None:
    for intent in controller.list():
        doc = intent_document(controller, intent)
        print(
            f"  id={doc['id']} type={doc['type']} state={doc['state']} "
            f"rules={doc['rule_count']}"
        )


def print_delivery(label: str, report) -> None:
    drops = sorted(report.dropped_at) + sorted(report.misses)
    out = ", ".join(f"{cp} after {hops} hops" for cp, hops in sorted(report.delivered))
    print(f"  {label}: delivered at [{out or 'nowhere'}]" + (f" drops={drops}" if drops else ""))


def main() -> None:
    topo = default_topology()
    controller = Controller(topo)
    show(f"topology: {len(topo.device_ids)} devices, hosts {sorted(topo.hosts)}")

    show("point-to-point across the chain")
    p2p = controller.submit(
        PointToPoint(ConnectPoint.parse("of:0000000000000001/3"),
                     ConnectPoint.parse("of:0000000000000005/3"))
    )
    print_intents(controller)

    show("single ingress fanned out to two egress points")
    controller.submit(
        SingleToMultiPoint(
            ConnectPoint.parse("of:0000000000000001/4"),
            frozenset({
                ConnectPoint.parse("of:0000000000000003/3"),
                ConnectPoint.parse("of:0000000000000005/4"),
            }),
        )
    )
    print_intents(controller)

    show("host pair, both directions")
    # the chain intents above match any packet at their in_ports; the host
    # rules must outrank them where the paths share a link or the walk below
    # would surface at the P2P egress instead of h2
    h2h = controller.submit(HostToHost("h1", "h2"), priority=DEFAULT_PRIORITY + 10)
    print_intents(controller)

    show("packet walks")
    header = PacketHeader(eth_src="02:00:00:00:00:01", eth_dst="02:00:00:00:00:02")
    report = controller.fabric.inject(ConnectPoint.parse("of:0000000000000001/3"), header)
    print_delivery("P2P ingress", report)
    h1 = topo.hosts["h1"]
    h2 = topo.hosts["h2"]
    report = controller.fabric.inject(
        h1, PacketHeader(eth_src=host_mac("h1"), eth_dst=host_mac("h2"))
    )
    print_delivery("h1 toward h2", report)
    report = controller.fabric.inject(
        h2, PacketHeader(eth_src=host_mac("h2"), eth_dst=host_mac("h1"))
    )
    print_delivery("h2 toward h1", report)

    show("withdraw everything")
    controller.withdraw(p2p)
    controller.withdraw(h2h)
    # S2M intent is id 2; withdrawing the H2H parent cascades to its children
    controller.withdraw(2)
    print_intents(controller)
    print(
        f"  live intents={controller.live_intents()} "
        f"fabric rules={controller.fabric.rule_count()}"
    )


if __name__ == "__main__":
    main()
