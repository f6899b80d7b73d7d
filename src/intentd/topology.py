"""Network model: devices, links, hosts, and deterministic path computation.

A topology is loaded from a JSON document, validated once, and shared
read-only afterwards.  Links are declared once in the document and stored
with their reverse companion, so the graph is always bidirectional.
"""
from __future__ import annotations

import functools
import heapq
import json
import math
import re
from collections.abc import Iterable, Mapping
from operator import attrgetter

from .errors import (
    NoPathError,
    TopologyParseError,
    TopologyValidationError,
    UnknownDeviceError,
    UnknownHostError,
)

DEVICE_ID_RE = re.compile(r"^of:[0-9a-f]{16}$")
MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


def device_id(n: int) -> str:
    """Canonical device id for a small integer, e.g. 1 -> 'of:0000000000000001'."""
    return "of:%016x" % n


class Record:
    """Base of the model's value classes, which name their fields in
    `_fields`: an instance equals another of the same class whose fields are
    equal, and shows as `Name(field=value, ...)`.  Mutable, so unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:  # the fields' values, read in C (one field: its value)
            cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by `object.__setattr__` in its
    `__init__`, so it hashes by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), tuple([getattr(self, name) for name in self._fields])


class HashedRecord(FrozenRecord):
    """A FrozenRecord that is hashed often: its `__init__` stores the hash of
    its fields in `_hash`, a slot that is not a field, so a copy or a pickle
    rebuilds it under the hash seed of the process that loads it."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


@functools.total_ordering
class ConnectPoint(HashedRecord):
    """A (device, port) pair; the string form is '<deviceId>/<port>'.
    Points sort by device, then port."""

    __slots__ = _fields = ("device", "port")

    def __init__(self, device: str, port: int) -> None:
        object.__setattr__(self, "device", device)
        object.__setattr__(self, "port", port)
        object.__setattr__(self, "_hash", hash((device, port)))

    # written out, not inherited: points are the hot set and dict keys
    def __eq__(self, other: object) -> bool:
        if other.__class__ is ConnectPoint:
            return self.device == other.device and self.port == other.port
        return NotImplemented

    __hash__ = HashedRecord.__hash__  # a class that defines __eq__ loses its inherited hash

    def __lt__(self, other: object) -> bool:
        if other.__class__ is ConnectPoint:
            return (self.device, self.port) < (other.device, other.port)
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.device}/{self.port}"

    @classmethod
    def parse(cls, text: str) -> "ConnectPoint":
        device, sep, port = text.rpartition("/")
        # ASCII digits only: int() also takes signs, spaces, underscores,
        # leading zeros and other scripts' digits, which would parse to a
        # different string
        if not (sep and DEVICE_ID_RE.match(device) and port.isascii() and port.isdigit()):
            raise ValueError(f"not a connect point: {text!r}")
        if port[0] == "0":
            raise ValueError(f"port must be >= 1 with no leading zero in {text!r}")
        return cls(device, int(port))


class Link(FrozenRecord):
    """One direction of a bidirectional link; weight is a positive, finite cost."""

    __slots__ = _fields = ("src", "dst", "weight")

    def __init__(self, src: ConnectPoint, dst: ConnectPoint, weight: float = 1.0) -> None:
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)

    def reversed(self) -> "Link":
        return Link(self.dst, self.src, self.weight)


class Path(FrozenRecord):
    """A chain of links; empty when source and destination coincide."""

    __slots__ = _fields = ("links",)

    def __init__(self, links: tuple[Link, ...] = ()) -> None:
        object.__setattr__(self, "links", links)
        for a, b in zip(links, links[1:]):
            if a.dst.device != b.src.device:
                raise ValueError(f"links do not chain: {a} then {b}")
        seen = set()
        for dev in self.devices():
            if dev in seen:
                raise ValueError(f"path repeats device {dev}")
            seen.add(dev)

    def devices(self) -> tuple[str, ...]:
        if not self.links:
            return ()
        return (self.links[0].src.device,) + tuple(l.dst.device for l in self.links)

    def __len__(self) -> int:
        return len(self.links)


class Topology:
    """Validated, immutable network graph.

    `devices` maps device id to its port numbers, `links` holds one Link per
    declared direction (the reverse is added here), `hosts` maps host id to
    its attachment point.  Validation errors name the offending element.
    """

    def __init__(
        self,
        devices: Mapping[str, Iterable[int]],
        links: Iterable[Link],
        hosts: Mapping[str, ConnectPoint] = (),
    ) -> None:
        self._ports: dict[str, frozenset[int]] = {}
        for dev, ports in devices.items():
            if not DEVICE_ID_RE.match(dev):
                raise TopologyValidationError(f"bad device id {dev!r}")
            port_list = list(ports)
            # a bool is an int, but true would name port 1 as `True`
            if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in port_list):
                raise TopologyValidationError(f"device {dev} has a port that is not an integer >= 1")
            if len(port_list) != len(set(port_list)):
                raise TopologyValidationError(f"device {dev} lists a port twice")
            self._ports[dev] = frozenset(port_list)

        expanded: list[Link] = []
        used_endpoints: set[ConnectPoint] = set()
        for link in links:
            if link.src.device == link.dst.device:
                raise TopologyValidationError(f"self-loop link at {link.src}")
            # json reads Infinity, NaN and 1e309; an infinite link would still be routed over
            if not math.isfinite(link.weight):
                raise TopologyValidationError(
                    f"non-finite weight {link.weight} on link {link.src}->{link.dst}"
                )
            if not link.weight > 0:
                raise TopologyValidationError(f"non-positive weight on link {link.src}->{link.dst}")
            for cp in (link.src, link.dst):
                if cp.device not in self._ports:
                    raise TopologyValidationError(f"link references unknown device {cp.device}")
                if cp.port not in self._ports[cp.device]:
                    raise TopologyValidationError(f"link references unknown port {cp}")
                if cp in used_endpoints:
                    raise TopologyValidationError(f"connect point {cp} used by two links")
                used_endpoints.add(cp)
            expanded.append(link)
            expanded.append(link.reversed())
        self._links: tuple[Link, ...] = tuple(
            sorted(expanded, key=lambda l: (l.src, l.dst))
        )
        self._link_srcs = frozenset(l.src for l in self._links)

        self._hosts: dict[str, ConnectPoint] = {}
        for host, attach in dict(hosts).items():
            if attach.device not in self._ports or attach.port not in self._ports[attach.device]:
                raise TopologyValidationError(f"host {host} attaches to unknown point {attach}")
            if attach in self._link_srcs:
                raise TopologyValidationError(
                    f"host {host} attaches to infrastructure port {attach}"
                )
            self._hosts[host] = attach

        self._adjacency: dict[str, tuple[Link, ...]] = {d: () for d in self._ports}
        by_src: dict[str, list[Link]] = {d: [] for d in self._ports}
        for link in self._links:
            by_src[link.src.device].append(link)
        for dev, out in by_src.items():
            self._adjacency[dev] = tuple(out)

        # shortest_path's memos: src -> {dst: links}, one search per source
        # device, and (src, dst) -> Path, at most one per device pair.  Two
        # threads missing on one source or pair compute equal values.
        self._trees: dict[str, dict[str, tuple[Link, ...]]] = {}
        self._paths: dict[tuple[str, str], Path] = {}

    @property
    def device_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._ports))

    def ports(self, device: str) -> frozenset[int]:
        try:
            return self._ports[device]
        except KeyError:
            raise UnknownDeviceError(f"unknown device {device}") from None

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def hosts(self) -> dict[str, ConnectPoint]:
        return dict(self._hosts)

    def host_attachment(self, host: str) -> ConnectPoint:
        try:
            return self._hosts[host]
        except KeyError:
            raise UnknownHostError(f"unknown host {host}") from None

    def has_device(self, device: str) -> bool:
        return device in self._ports

    def has_connect_point(self, cp: ConnectPoint) -> bool:
        return cp.device in self._ports and cp.port in self._ports[cp.device]

    def edge_points(self) -> tuple[ConnectPoint, ...]:
        out = []
        for dev in sorted(self._ports):
            for port in sorted(self._ports[dev]):
                cp = ConnectPoint(dev, port)
                if cp not in self._link_srcs:
                    out.append(cp)
        return tuple(out)

    def out_links(self, device: str) -> tuple[Link, ...]:
        return self._adjacency[device]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._ports == other._ports
            and set(self._links) == set(other._links)
            and self._hosts == other._hosts
        )


def load_topology(document) -> Topology:
    """Build a Topology from a JSON document (text or already-parsed mapping)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise TopologyParseError(f"topology document is not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise TopologyParseError("topology document must be a JSON object")

    for section in ("devices", "links", "hosts"):
        if not isinstance(document.get(section, []), list):
            raise TopologyValidationError(f"topology {section} must be a list")

    devices: dict[str, list[int]] = {}
    for entry in document.get("devices", []):
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise TopologyValidationError(f"device entry missing id: {entry!r}")
        dev, ports = entry["id"], entry.get("ports", [])
        if not isinstance(dev, str):
            raise TopologyValidationError(f"device id must be a string: {entry!r}")
        if not isinstance(ports, list):
            raise TopologyValidationError(f"device {dev} ports must be a list: {entry!r}")
        if dev in devices:
            raise TopologyValidationError(f"duplicate device {dev}")
        devices[dev] = ports

    links: list[Link] = []
    for entry in document.get("links", []):
        try:
            src = ConnectPoint.parse(entry["src"])
            dst = ConnectPoint.parse(entry["dst"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyValidationError(f"bad link entry {entry!r}: {exc}") from None
        weight = entry.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool):
            raise TopologyValidationError(f"bad weight on link {entry['src']}")
        try:
            weight = float(weight)
        except OverflowError:  # an integer past the float range; Topology refuses it
            weight = math.inf
        links.append(Link(src, dst, weight))

    hosts: dict[str, ConnectPoint] = {}
    for entry in document.get("hosts", []):
        if not (isinstance(entry, Mapping) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("attach"), str)):
            raise TopologyValidationError(f"host entry needs a string id and attach: {entry!r}")
        host = entry["id"]
        if host in hosts:
            raise TopologyValidationError(f"duplicate host {host}")
        try:
            hosts[host] = ConnectPoint.parse(entry["attach"])
        except ValueError as exc:
            raise TopologyValidationError(f"host {host}: {exc}") from None

    return Topology(devices, links, hosts)


def load_topology_file(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return load_topology(fh.read())


def serialize_topology(topo: Topology) -> dict:
    """Canonical document form; load_topology(serialize_topology(t)) == t."""
    devices = [
        {"id": dev, "ports": sorted(topo.ports(dev))} for dev in topo.device_ids
    ]
    links = []
    for link in topo.links:
        if (link.src.device, link.src.port) < (link.dst.device, link.dst.port):
            entry = {"src": str(link.src), "dst": str(link.dst)}
            if link.weight != 1.0:
                entry["weight"] = link.weight
            links.append(entry)
    hosts = [
        {"id": host, "attach": str(attach)}
        for host, attach in sorted(topo.hosts.items())
    ]
    return {"devices": devices, "links": links, "hosts": hosts}


def host_mac(host: str) -> str:
    """Deterministic MAC for a host id.

    A host id that already is a MAC address is used as written; any other id
    is hashed into a locally administered address.
    """
    lowered = host.lower()
    if MAC_RE.match(lowered):
        return lowered
    # here, not at the top: only a hashed id pays for it.  hashlib loads
    # OpenSSL for one digest, so the interpreter's builtin module comes first
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            from hashlib import sha256

    digest = sha256(host.encode("utf-8")).digest()[:5]
    return "02:" + ":".join("%02x" % b for b in digest)


def shortest_path(topo: Topology, src: str, dst: str) -> Path:
    """Lowest-cost path from src to dst device.

    Ties are broken toward the lexicographically smallest device-id sequence
    (then smallest egress ports), so repeated calls agree and unions of
    paths from one source form a tree.  The topology is immutable, so the
    first miss on a source searches that source's whole tree once, which
    then serves every destination; each Path is built the first time its
    pair is asked for and served from the topology's memo afterwards.
    NoPathError is raised afresh on every call.
    """
    path = topo._paths.get((src, dst))
    if path is not None:  # a hit: both devices exist
        return path
    if not topo.has_device(src):
        raise UnknownDeviceError(f"unknown device {src}")
    if not topo.has_device(dst):
        raise UnknownDeviceError(f"unknown device {dst}")
    tree = topo._trees.get(src)
    if tree is None:
        tree = topo._trees[src] = _search_tree(topo, src)
    links = tree.get(dst)
    if links is None:
        raise NoPathError(f"no path from {src} to {dst}")
    path = topo._paths[src, dst] = Path(links)
    return path


def _search_tree(topo: Topology, src: str) -> dict[str, tuple[Link, ...]]:
    """Dijkstra over (cost, device sequence, port sequence) for shortest_path:
    the links to every device reachable from src, src itself included.

    A heap entry carries the link that reaches its device; the device's
    links are its predecessor's finished links plus that link.  No two
    entries share a device sequence and a port sequence (one link leaves a
    port), so the key alone orders the heap and the link is never compared.
    """
    tree: dict[str, tuple[Link, ...]] = {}
    heap: list[tuple] = [(0.0, (src,), (), None)]
    out_links = topo._adjacency
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        cost, dev_seq, port_seq, link = heappop(heap)
        device = dev_seq[-1]
        if device in tree:
            continue
        tree[device] = () if link is None else tree[link.src.device] + (link,)
        for out in out_links[device]:
            nxt = out.dst.device
            if nxt not in tree:
                heappush(heap, (cost + out.weight, dev_seq + (nxt,), port_seq + (out.src.port,), out))
    return tree


# Five switches in a line, four ports each; ports 1 and 2 on the ends of the
# chain stay free for hosts, ports 3 and 4 are spare edge ports everywhere.
DEFAULT_TOPOLOGY_DOCUMENT: dict = {
    "devices": [
        {"id": device_id(n), "ports": [1, 2, 3, 4]} for n in range(1, 6)
    ],
    "links": [
        {"src": f"{device_id(n)}/2", "dst": f"{device_id(n + 1)}/1"}
        for n in range(1, 5)
    ],
    "hosts": [
        {"id": "h1", "attach": f"{device_id(1)}/1"},
        {"id": "h2", "attach": f"{device_id(5)}/2"},
    ],
}


def default_topology() -> Topology:
    return load_topology(DEFAULT_TOPOLOGY_DOCUMENT)
