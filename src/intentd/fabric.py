"""Simulated switch fabric: per-device flow tables and a packet-walk engine.

The fabric validates and installs rule batches atomically, and can walk a
synthetic packet through the tables to check what a rule set actually does.
"""
from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Sequence

from .errors import DuplicateRuleError, LoopDetectedError, UnknownDeviceError
from .topology import MAC_RE, ConnectPoint, FrozenRecord, Record, Topology

DEFAULT_PRIORITY = 100


def _check_mac(value: str | None, what: str) -> str | None:
    if value is None:
        return None
    lowered = value.lower() if isinstance(value, str) else ""
    if not MAC_RE.match(lowered):
        raise ValueError(f"bad {what}: {value!r}")
    return lowered


def _check_vlan(value: int | None) -> int | None:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 4095:
        raise ValueError(f"vlan id out of range: {value!r}")
    return value


class PacketHeader(FrozenRecord):
    __slots__ = _fields = ("eth_src", "eth_dst", "vlan")

    def __init__(self, eth_src: str, eth_dst: str, vlan: int | None = None) -> None:
        object.__setattr__(self, "eth_src", _check_mac(eth_src, "eth_src"))
        object.__setattr__(self, "eth_dst", _check_mac(eth_dst, "eth_dst"))
        object.__setattr__(self, "vlan", _check_vlan(vlan))


class TrafficSelector(FrozenRecord):
    """Header match criteria; an unset field matches anything."""

    __slots__ = _fields = ("eth_src", "eth_dst", "vlan")

    def __init__(
        self, eth_src: str | None = None, eth_dst: str | None = None, vlan: int | None = None
    ) -> None:
        object.__setattr__(self, "eth_src", _check_mac(eth_src, "eth_src"))
        object.__setattr__(self, "eth_dst", _check_mac(eth_dst, "eth_dst"))
        object.__setattr__(self, "vlan", _check_vlan(vlan))


class TrafficTreatment(FrozenRecord):
    """Forwarding actions: copy the packet out of every listed port."""

    __slots__ = _fields = ("outputs",)

    def __init__(self, outputs: tuple[int, ...]) -> None:
        outputs = tuple(outputs)
        if not outputs:
            raise ValueError("a treatment needs at least one output port")
        object.__setattr__(self, "outputs", outputs)


class TreatmentCache(dict):
    """Ports tuple -> the one shared TrafficTreatment for it, made on first use.

    Treatments are immutable, so every rule that outputs to the same ports
    can hold the same one.  A controller keeps one cache for its topology;
    its compilers ask only for sorted sets of one device's ports, so the
    cache is bounded by the topology's port sets.
    """

    def __missing__(self, outputs: tuple[int, ...]) -> TrafficTreatment:
        treatment = self[outputs] = TrafficTreatment(outputs)
        return treatment


class FlowRule(Record):
    """One device's rule: packets arriving on `in_port` (None: any port) whose
    header matches `selector` leave by `treatment`.  Rules compiled from one
    intent share its selector; only packet_count changes after construction.

    `match_key` is (in_port, eth_src, eth_dst, vlan), None where unset, built
    once here: rules that match the same packets have equal match keys."""

    _fields = (
        "rule_id", "device", "selector", "treatment", "owner_intent",
        "priority", "in_port", "packet_count",
    )
    __slots__ = _fields + ("match_key",)

    def __init__(
        self,
        rule_id: int,
        device: str,
        selector: TrafficSelector,
        treatment: TrafficTreatment,
        owner_intent: int,
        priority: int = DEFAULT_PRIORITY,
        in_port: int | None = None,
    ) -> None:
        if not 0 <= rule_id < 2**64:
            raise ValueError(f"rule_id out of 64-bit range: {rule_id}")
        if in_port is not None and in_port < 1:
            raise ValueError(f"in_port must be >= 1, got {in_port}")
        self.rule_id = rule_id
        self.device = device
        self.selector = selector
        self.treatment = treatment
        self.owner_intent = owner_intent
        self.priority = priority
        self.in_port = in_port
        self.packet_count = 0
        self.match_key = (in_port, selector.eth_src, selector.eth_dst, selector.vlan)


class DeliveryReport(FrozenRecord):
    """Where one injected packet (and its copies) ended up.  `dropped_at` is
    always empty, since every treatment has an output; it stays for callers
    that read it."""

    __slots__ = _fields = ("delivered", "dropped_at", "misses")

    def __init__(
        self,
        delivered: frozenset[tuple[ConnectPoint, int]],
        dropped_at: frozenset[str],
        misses: frozenset[str],
    ) -> None:
        object.__setattr__(self, "delivered", delivered)
        object.__setattr__(self, "dropped_at", dropped_at)
        object.__setattr__(self, "misses", misses)


def _match_order(rule: FlowRule) -> tuple[int, int]:
    return (-rule.priority, rule.rule_id)


# A probe picks from (in_port, eth_src, eth_dst, vlan, None), read off the
# packet; a field the selector leaves unset picks the trailing None.
_UNSET = 4
# the match key of a selector with no field set, which the fabric refuses
_MATCH_ANY = (None, None, None, None)


class FlowTable:
    """Rules of one device, looked up by tuple space search.

    Rules are grouped by their match key, the tuple each `FlowRule` stores
    as `match_key`.  `_index` maps a key to its only rule or,
    when several share it, to a dict of them kept in match order (descending
    priority, then rule id), so a key's first rule is its best.  A rule that
    sorts after the key's last one (one priority and rising ids, which is
    what the controller produces) is appended; any other add rebuilds that
    key's dict once.  `_probes` holds one getter per
    combination of set fields present (at most 16), which turns a packet into
    the key a matching rule of that combination must have; it only grows
    until `clear()`.  A lookup probes each combination once and takes the best
    head across them.  Rule ids must be unique; the fabric checks that.
    Owned by one fabric and not thread-safe on its own.
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
            last = next(reversed(held.values()))
            priority = rule.priority
            in_order = priority < last.priority or (
                priority == last.priority and rule.rule_id > last.rule_id
            )
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
        return self.lookup((in_port, header.eth_src, header.eth_dst, header.vlan, None))

    def lookup(self, fields: tuple) -> FlowRule | None:
        """`match` for a packet given as (in_port, eth_src, eth_dst, vlan, None)."""
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


class Fabric:
    """All flow tables of one simulated network.

    Owned by one controller and not thread-safe on its own: the controller's
    lock guards it.  Walk packets only while nothing else uses the fabric.
    """

    def __init__(self, topology: Topology) -> None:
        self._topo = topology
        self._tables: dict[str, FlowTable] = {
            dev: FlowTable(dev) for dev in topology.device_ids
        }
        # read off the immutable topology once: each device's ports, and the
        # (device, port) at the far end of every link, keyed by its near end
        self._ports: dict[str, frozenset[int]] = {
            dev: topology.ports(dev) for dev in topology.device_ids
        }
        self._far_end: dict[tuple[str, int], tuple[str, int]] = {
            (link.src.device, link.src.port): (link.dst.device, link.dst.port)
            for link in topology.links
        }
        self._ids: set[int] = set()
        self._by_owner: dict[int, list[FlowRule]] = {}

    def rule_count(self) -> int:
        return len(self._ids)

    def rules_for(self, device: str) -> list[FlowRule]:
        if device not in self._tables:
            raise UnknownDeviceError(f"unknown device {device}")
        return list(self._tables[device])

    def rules_of(self, owner_intent: int) -> list[FlowRule]:
        """The rules an intent owns, in install order; empty for unknown owners."""
        return list(self._by_owner.get(owner_intent, ()))

    def install_rules(self, rules: Sequence[FlowRule]) -> int:
        """Install a batch atomically; on any error nothing is installed."""
        port_sets, ids, by_owner = self._ports, self._ids, self._by_owner
        owners = {rule.owner_intent for rule in rules}
        # a duplicate has the same device, priority, match key and owner, so
        # only the batch and the live rules of the batch's owners can hold one
        keys: set[tuple] = {
            (live.device, live.priority, live.match_key, owner)
            for owner in owners
            if owner in by_owner
            for live in by_owner[owner]
        }
        batch_ids: set[int] = set()
        for rule in rules:
            device = rule.device
            ports = port_sets.get(device)
            if ports is None:
                raise UnknownDeviceError(f"unknown device {device}")
            match_key = rule.match_key
            if match_key == _MATCH_ANY:
                raise ValueError(f"rule {rule.rule_id} has an empty selector")
            outputs = rule.treatment.outputs
            if not ports.issuperset(outputs):
                port = next(p for p in outputs if p not in ports)
                raise ValueError(
                    f"rule {rule.rule_id} outputs to missing port {device}/{port}"
                )
            in_port = rule.in_port
            if in_port is not None and in_port not in ports:
                raise ValueError(f"rule {rule.rule_id} matches missing port {device}/{in_port}")
            key = (device, rule.priority, match_key, rule.owner_intent)
            if key in keys:
                raise DuplicateRuleError(
                    f"duplicate rule on {device} (priority {rule.priority})"
                )
            keys.add(key)
            rule_id = rule.rule_id
            if rule_id in ids or rule_id in batch_ids:
                raise DuplicateRuleError(f"rule id {rule_id} is already in use")
            batch_ids.add(rule_id)

        ids |= batch_ids
        for owner in owners:
            if owner not in by_owner:
                by_owner[owner] = []
        tables = self._tables
        for rule in rules:
            tables[rule.device].add(rule)
            by_owner[rule.owner_intent].append(rule)
        return len(rules)

    def install_copy(
        self,
        like: Sequence[FlowRule],
        owner_intent: int,
        selector: TrafficSelector,
        priority: int,
        next_rule_id: Callable[[], int],
    ) -> int:
        """Install a copy of `like` for a new owner, atomically; returns its size.

        Each copy keeps its rule's device, treatment and in_port and takes a
        fresh id from `next_rule_id`, `owner_intent`, `selector` and
        `priority`.  Precondition: `like` is a batch that `install_rules`
        accepted on this fabric, whose rules sit at distinct (device, in_port)
        places.  Its devices and ports are then known, and the copies, which
        share one owner, selector and priority, cannot share a match key, so
        neither is checked again.  What a copy can change is: the owner must
        not be live, the ids must be distinct and not live, and no match key
        may be empty.  A batch that fails one of these goes to
        `install_rules`, which raises what it raises for that batch.
        """
        copies = [
            FlowRule(
                next_rule_id(), rule.device, selector, rule.treatment, owner_intent, priority,
                rule.in_port,
            )
            for rule in like
        ]
        ids, by_owner = self._ids, self._by_owner
        new_ids = {rule.rule_id for rule in copies}
        if (
            owner_intent in by_owner
            or len(new_ids) != len(copies)
            or not ids.isdisjoint(new_ids)
            or not copies
            or (
                selector.eth_src is None and selector.eth_dst is None and selector.vlan is None
                and any(rule.in_port is None for rule in copies)
            )
        ):
            return self.install_rules(copies)
        ids |= new_ids
        by_owner[owner_intent] = copies
        tables = self._tables
        for rule in copies:
            tables[rule.device].add(rule)
        return len(copies)

    def remove_rules(self, owner_intent: int) -> int:
        """Remove every rule owned by the intent; unknown owners remove zero."""
        owned = self._by_owner.pop(owner_intent, [])
        for rule in owned:
            self._tables[rule.device].discard(rule)
            self._ids.discard(rule.rule_id)
        return len(owned)

    def clear(self) -> None:
        for table in self._tables.values():
            table.clear()
        self._ids.clear()
        self._by_owner.clear()

    def inject(self, ingress: ConnectPoint, header: PacketHeader) -> DeliveryReport:
        """Walk a packet from an ingress point through the tables.

        Each matched treatment duplicates the packet across its outputs; a
        copy leaving an edge port is delivered there, a copy leaving an
        infrastructure port continues at the far end of the link.  No
        treatment rewrites the header, so every copy carries the ingress
        header.  hop counts include the ingress device, and a branch running
        past len(devices) + 1 hops raises LoopDetectedError.
        """
        if not self._topo.has_connect_point(ingress):
            raise UnknownDeviceError(f"unknown connect point {ingress}")
        ttl = len(self._tables) + 1
        tables = self._tables
        far_end = self._far_end
        header_fields = (header.eth_src, header.eth_dst, header.vlan, None)
        delivered: set[tuple[ConnectPoint, int]] = set()
        misses: set[str] = set()
        queue = deque([(ingress.device, ingress.port, 1)])
        while queue:
            device, in_port, hops = queue.popleft()
            if hops > ttl:
                raise LoopDetectedError(f"packet exceeded TTL {ttl} at device {device}")
            rule = tables[device].lookup((in_port, *header_fields))
            if rule is None:
                misses.add(device)
                continue
            rule.packet_count += 1
            for port in rule.treatment.outputs:
                nxt = far_end.get((device, port))
                if nxt is None:
                    delivered.add((ConnectPoint(device, port), hops))
                else:
                    queue.append((*nxt, hops + 1))
        return DeliveryReport(frozenset(delivered), frozenset(), frozenset(misses))
