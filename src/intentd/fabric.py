"""Simulated switch fabric: per-device flow tables and a packet-walk engine.

The fabric validates and installs rule batches atomically, and can walk a
synthetic packet through the tables to check what a rule set actually does.
"""
from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Sequence

from .errors import (
    DuplicateRuleError,
    LoopDetectedError,
    RuleCapacityError,
    UnknownDeviceError,
)
from .topology import MAC_RE, ConnectPoint, Topology

DEFAULT_PRIORITY = 100


def _check_mac(value: str | None, what: str) -> str | None:
    if value is None:
        return None
    lowered = value.lower() if isinstance(value, str) else ""
    if not MAC_RE.match(lowered):
        raise ValueError(f"bad {what}: {value!r}")
    return lowered


def _check_in_port(port: int) -> int:
    if port < 1:
        raise ValueError(f"in_port must be >= 1, got {port}")
    return port


def _check_vlan(value: int | None) -> int | None:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 4095:
        raise ValueError(f"vlan id out of range: {value!r}")
    return value


@dataclass(frozen=True)
class PacketHeader:
    eth_src: str
    eth_dst: str
    vlan: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eth_src", _check_mac(self.eth_src, "eth_src"))
        object.__setattr__(self, "eth_dst", _check_mac(self.eth_dst, "eth_dst"))
        _check_vlan(self.vlan)


@dataclass(frozen=True, slots=True)
class TrafficSelector:
    """Match criteria; an unset field matches anything."""

    in_port: int | None = None
    eth_src: str | None = None
    eth_dst: str | None = None
    vlan: int | None = None

    def __post_init__(self) -> None:
        if self.in_port is not None:
            _check_in_port(self.in_port)
        object.__setattr__(self, "eth_src", _check_mac(self.eth_src, "eth_src"))
        object.__setattr__(self, "eth_dst", _check_mac(self.eth_dst, "eth_dst"))
        _check_vlan(self.vlan)

    def is_empty(self) -> bool:
        return (
            self.in_port is None
            and self.eth_src is None
            and self.eth_dst is None
            and self.vlan is None
        )

    def with_in_port(self, port: int) -> "TrafficSelector":
        """A copy matching on `port`; only the port needs checking, the other
        fields were normalised when this selector was built."""
        selector = object.__new__(TrafficSelector)
        object.__setattr__(selector, "in_port", _check_in_port(port))
        object.__setattr__(selector, "eth_src", self.eth_src)
        object.__setattr__(selector, "eth_dst", self.eth_dst)
        object.__setattr__(selector, "vlan", self.vlan)
        return selector

    def matches(self, in_port: int, header: PacketHeader) -> bool:
        """True when every set field equals the packet's; the linear
        reference that `FlowTable.match` is tested against."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_src is not None and self.eth_src != header.eth_src:
            return False
        if self.eth_dst is not None and self.eth_dst != header.eth_dst:
            return False
        if self.vlan is not None and self.vlan != header.vlan:
            return False
        return True


@dataclass(frozen=True)
class VlanAction:
    """push/set attach the given vlan id to the packet, pop removes it."""

    kind: str
    vlan: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("push", "pop", "set"):
            raise ValueError(f"bad vlan action kind {self.kind!r}")
        if self.kind == "pop":
            if self.vlan is not None:
                raise ValueError("pop takes no vlan id")
        elif _check_vlan(self.vlan) is None:
            raise ValueError(f"{self.kind} needs a vlan id")

    def apply(self, header: PacketHeader) -> PacketHeader:
        if self.kind == "pop":
            return replace(header, vlan=None)
        return replace(header, vlan=self.vlan)


@dataclass(frozen=True, slots=True)
class TrafficTreatment:
    """Forwarding actions; drop is true exactly when there are no outputs."""

    outputs: tuple[int, ...] = ()
    drop: bool = False
    vlan_action: VlanAction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.drop != (not self.outputs):
            raise ValueError("drop must be set exactly when outputs is empty")

    def apply_vlan(self, header: PacketHeader) -> PacketHeader:
        if self.vlan_action is None:
            return header
        return self.vlan_action.apply(header)


@dataclass(slots=True)
class FlowRule:
    rule_id: int
    device: str
    selector: TrafficSelector
    treatment: TrafficTreatment
    owner_intent: int
    priority: int = DEFAULT_PRIORITY
    packet_count: int = 0
    # Both keys are computed once; only packet_count ever changes after
    # construction.  match_key is the selector's (in_port, eth_src, eth_dst,
    # vlan), None where unset: equal selectors have equal match keys.
    match_key: tuple = field(init=False, repr=False, compare=False)
    # duplicate detection key: repeated identical intents own separate rules.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.rule_id < 2**64:
            raise ValueError(f"rule_id out of 64-bit range: {self.rule_id}")
        if self.packet_count < 0:
            raise ValueError("packet_count must be non-negative")
        sel = self.selector
        self.match_key = (sel.in_port, sel.eth_src, sel.eth_dst, sel.vlan)
        self.key = (self.device, self.priority, self.match_key, self.owner_intent)


@dataclass(frozen=True)
class DeliveryReport:
    """Where one injected packet (and its copies) ended up."""

    delivered: frozenset[tuple[ConnectPoint, int]]
    dropped_at: frozenset[str]
    misses: frozenset[str]


def _match_order(rule: FlowRule) -> tuple[int, int]:
    return (-rule.priority, rule.rule_id)


# A probe picks from (in_port, eth_src, eth_dst, vlan, None), read off the
# packet; a field the selector leaves unset picks the trailing None.
_UNSET = 4


class FlowTable:
    """Rules of one device, looked up by tuple space search.

    Rules are grouped by `FlowRule.match_key`.  `_index` maps a key to its
    only rule or, when several share it, to a dict of them kept in match
    order (descending priority, then rule id), so a key's first rule is its
    best.  A rule that sorts after the key's last one (one priority and
    rising ids, which is what the controller produces) is appended; any
    other add rebuilds that key's dict once.  `_probes` holds one getter per
    combination of set fields present (at most 16), which turns a packet into
    the key a matching rule of that combination must have; it only grows
    until `clear()`.  A lookup probes each combination once and takes the best
    head across them.  Rule ids must be unique; the fabric checks that.
    Use under the fabric lock.
    """

    def __init__(self, device: str) -> None:
        self.device = device
        self._index: dict[tuple, FlowRule | dict[int, FlowRule]] = {}
        self._probes: dict[tuple[int, ...], itemgetter] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        """Every rule in match order; sorts, so keep it off the packet path."""
        rules: list[FlowRule] = []
        for held in self._index.values():
            if type(held) is dict:
                rules.extend(held.values())
            else:
                rules.append(held)
        return iter(sorted(rules, key=_match_order))

    def add(self, rule: FlowRule) -> None:
        key = rule.match_key
        index = self._index
        held = index.get(key)
        if held is None:
            index[key] = rule
            in_port, eth_src, eth_dst, vlan = key
            picks = (
                _UNSET if in_port is None else 0,
                _UNSET if eth_src is None else 1,
                _UNSET if eth_dst is None else 2,
                _UNSET if vlan is None else 3,
            )
            if picks not in self._probes:
                self._probes[picks] = itemgetter(*picks)
        else:
            if type(held) is not dict:
                held = index[key] = {held.rule_id: held}
            in_order = _match_order(rule) > _match_order(next(reversed(held.values())))
            held[rule.rule_id] = rule
            if not in_order:
                index[key] = {
                    r.rule_id: r for r in sorted(held.values(), key=_match_order)
                }
        self._len += 1

    def discard(self, rule: FlowRule) -> None:
        """Remove a rule this table holds."""
        key = rule.match_key
        held = self._index[key]
        if held is rule:
            del self._index[key]
        else:
            del held[rule.rule_id]
            if len(held) == 1:
                self._index[key] = next(iter(held.values()))
        self._len -= 1

    def match(self, in_port: int, header: PacketHeader) -> FlowRule | None:
        """The first rule in match order whose selector matches, or None."""
        fields = (in_port, header.eth_src, header.eth_dst, header.vlan, None)
        index = self._index
        best = None
        for probe in self._probes.values():
            hit = index.get(probe(fields))
            if hit is None:
                continue
            if type(hit) is dict:
                hit = next(iter(hit.values()))
            if (
                best is None
                or hit.priority > best.priority
                or (hit.priority == best.priority and hit.rule_id < best.rule_id)
            ):
                best = hit
        return best

    def clear(self) -> None:
        self._index.clear()
        self._probes.clear()
        self._len = 0


@dataclass
class _InjectItem:
    device: str
    in_port: int
    header: PacketHeader
    hops: int


class Fabric:
    """All flow tables of one simulated network.

    Mutations serialize on one writer lock; packet walks take the same lock
    so they see a consistent snapshot and bump counters atomically.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        device_rule_cap: int | None = None,
        total_rule_cap: int | None = None,
    ) -> None:
        self._topo = topology
        self._device_rule_cap = device_rule_cap
        self._total_rule_cap = total_rule_cap
        self._tables: dict[str, FlowTable] = {
            dev: FlowTable(dev) for dev in topology.device_ids
        }
        self._keys: set[tuple] = set()
        self._ids: set[int] = set()
        self._by_owner: dict[int, list[FlowRule]] = {}
        self._total = 0
        self._lock = threading.RLock()

    @property
    def topology(self) -> Topology:
        return self._topo

    def rule_count(self) -> int:
        with self._lock:
            return self._total

    def rules_for(self, device: str) -> list[FlowRule]:
        with self._lock:
            if device not in self._tables:
                raise UnknownDeviceError(f"unknown device {device}")
            return list(self._tables[device])

    def rules_of(self, owner_intent: int) -> list[FlowRule]:
        """The rules an intent owns, in install order; empty for unknown owners."""
        with self._lock:
            return list(self._by_owner.get(owner_intent, ()))

    def install_rules(self, rules: Sequence[FlowRule]) -> int:
        """Install a batch atomically; on any error nothing is installed."""
        with self._lock:
            per_device: dict[str, int] = {}
            batch_keys: set[tuple] = set()
            batch_ids: set[int] = set()
            for rule in rules:
                table = self._tables.get(rule.device)
                if table is None:
                    raise UnknownDeviceError(f"unknown device {rule.device}")
                if rule.selector.is_empty():
                    raise ValueError(f"rule {rule.rule_id} has an empty selector")
                for port in rule.treatment.outputs:
                    if port not in self._topo.ports(rule.device):
                        raise ValueError(
                            f"rule {rule.rule_id} outputs to missing port {rule.device}/{port}"
                        )
                key = rule.key
                if key in self._keys or key in batch_keys:
                    raise DuplicateRuleError(
                        f"duplicate rule on {rule.device} (priority {rule.priority})"
                    )
                batch_keys.add(key)
                if rule.rule_id in self._ids or rule.rule_id in batch_ids:
                    raise DuplicateRuleError(f"rule id {rule.rule_id} is already in use")
                batch_ids.add(rule.rule_id)
                per_device[rule.device] = per_device.get(rule.device, 0) + 1

            if self._device_rule_cap is not None:
                for dev, added in per_device.items():
                    if len(self._tables[dev]) + added > self._device_rule_cap:
                        raise RuleCapacityError(f"device {dev} rule capacity exceeded")
            if self._total_rule_cap is not None:
                if self._total + len(rules) > self._total_rule_cap:
                    raise RuleCapacityError("fabric rule capacity exceeded")

            self._keys |= batch_keys
            self._ids |= batch_ids
            for rule in rules:
                self._tables[rule.device].add(rule)
                self._by_owner.setdefault(rule.owner_intent, []).append(rule)
            self._total += len(rules)
            return len(rules)

    def remove_rules(self, owner_intent: int) -> int:
        """Remove every rule owned by the intent; unknown owners remove zero."""
        with self._lock:
            owned = self._by_owner.pop(owner_intent, [])
            for rule in owned:
                self._tables[rule.device].discard(rule)
                self._keys.discard(rule.key)
                self._ids.discard(rule.rule_id)
            self._total -= len(owned)
            return len(owned)

    def clear(self) -> None:
        with self._lock:
            for table in self._tables.values():
                table.clear()
            self._keys.clear()
            self._ids.clear()
            self._by_owner.clear()
            self._total = 0

    def inject(self, ingress: ConnectPoint, header: PacketHeader) -> DeliveryReport:
        """Walk a packet from an ingress point through the tables.

        Each matched treatment duplicates the packet across its outputs; a
        copy leaving an edge port is delivered there, a copy leaving an
        infrastructure port continues at the far end of the link.  hop counts
        include the ingress device, and a branch running past
        len(devices) + 1 hops raises LoopDetectedError.
        """
        with self._lock:
            if not self._topo.has_connect_point(ingress):
                raise UnknownDeviceError(f"unknown connect point {ingress}")
            ttl = len(self._topo.device_ids) + 1
            tables = self._tables
            delivered: set[tuple[ConnectPoint, int]] = set()
            dropped: set[str] = set()
            misses: set[str] = set()
            queue = deque([_InjectItem(ingress.device, ingress.port, header, 1)])
            while queue:
                item = queue.popleft()
                if item.hops > ttl:
                    raise LoopDetectedError(
                        f"packet exceeded TTL {ttl} at device {item.device}"
                    )
                rule = tables[item.device].match(item.in_port, item.header)
                if rule is None:
                    misses.add(item.device)
                    continue
                rule.packet_count += 1
                if rule.treatment.drop:
                    dropped.add(item.device)
                    continue
                out_header = rule.treatment.apply_vlan(item.header)
                for port in rule.treatment.outputs:
                    cp = ConnectPoint(item.device, port)
                    link = self._topo.link_from(cp)
                    if link is None:
                        delivered.add((cp, item.hops))
                    else:
                        queue.append(
                            _InjectItem(
                                link.dst.device, link.dst.port, out_header, item.hops + 1
                            )
                        )
            return DeliveryReport(
                frozenset(delivered), frozenset(dropped), frozenset(misses)
            )
