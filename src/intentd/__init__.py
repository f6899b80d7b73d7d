"""intentd: a miniature intent-based SDN controller on a simulated fabric.

The package re-exports the core model only; the northbound interfaces, the
benchmark and the statistics helpers are imported from `intentd.cli`,
`intentd.rest`, `intentd.bench` and `intentd.stats`.
"""

from .fabric import (
    DeliveryReport,
    Fabric,
    FlowRule,
    PacketHeader,
    TrafficSelector,
    TrafficTreatment,
)
from .intents import (
    Controller,
    HostToHost,
    Intent,
    IntentState,
    MultiToSinglePoint,
    PointToPoint,
    SingleToMultiPoint,
)
from .topology import (
    ConnectPoint,
    Link,
    Path,
    Topology,
    default_topology,
    host_mac,
    load_topology,
    load_topology_file,
    serialize_topology,
    shortest_path,
)

__all__ = [
    "ConnectPoint",
    "Controller",
    "DeliveryReport",
    "Fabric",
    "FlowRule",
    "HostToHost",
    "Intent",
    "IntentState",
    "Link",
    "MultiToSinglePoint",
    "PacketHeader",
    "Path",
    "PointToPoint",
    "SingleToMultiPoint",
    "Topology",
    "TrafficSelector",
    "TrafficTreatment",
    "default_topology",
    "host_mac",
    "load_topology",
    "load_topology_file",
    "serialize_topology",
    "shortest_path",
]

__version__ = "0.1.0"
