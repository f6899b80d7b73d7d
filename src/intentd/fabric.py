"""Simulated switch fabric: per-device flow tables and a packet-walk engine.

The fabric validates and installs rule batches atomically, and can walk a
synthetic packet through the tables to check what a rule set actually does.
"""
from __future__ import annotations

from collections import _count_elements, deque
from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter, itemgetter

from .errors import DuplicateRuleError, LoopDetectedError, UnknownDeviceError
from .topology import MAC_RE, ConnectPoint, FrozenRecord, Record, Topology

DEFAULT_PRIORITY = 100


def _check_mac(value: str, what: str) -> str:
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
    """A synthetic packet's header: both MACs are set, the vlan tag may not be."""

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
        for name, mac in (("eth_src", eth_src), ("eth_dst", eth_dst)):
            object.__setattr__(self, name, None if mac is None else _check_mac(mac, name))
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
    header matches `selector` leave by `treatment`.  A value: the fabric does
    not hold FlowRules but rows (see `row`), and each reader builds fresh ones,
    whose `packet_count` is the count of packets the rule had matched then.

    `match_key` is (in_port, eth_src, eth_dst, vlan), None where unset, built
    once here: rules that match the same packets have equal match keys."""

    _fields = (
        "rule_id", "device", "selector", "treatment", "owner_intent",
        "priority", "in_port", "packet_count",
    )
    __slots__ = _fields + ("match_key",)
    # the rule as the fabric holds it, a plain tuple read in C: its fields in
    # order, with match_key in place of packet_count (`Fabric.install_places`
    # builds the rows of a compiled batch the same way)
    row = property(attrgetter(*_fields[:-1], "match_key"))

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
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError(f"priority must be an integer, got {priority!r}")
        self.rule_id = rule_id
        self.device = device
        self.selector = selector
        self.treatment = treatment
        self.owner_intent = owner_intent
        self.priority = priority
        self.in_port = in_port
        self.packet_count = 0
        self.match_key = (in_port, selector.eth_src, selector.eth_dst, selector.vlan)

    @classmethod
    def from_row(cls, row: tuple, packet_count: int = 0) -> "FlowRule":
        """The rule a row holds, unchecked: a row holds checked fields."""
        rule = object.__new__(cls)
        (
            rule.rule_id, rule.device, rule.selector, rule.treatment, rule.owner_intent,
            rule.priority, rule.in_port, rule.match_key,
        ) = row
        rule.packet_count = packet_count
        return rule


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


# a row's rule id, its (device, in_port) place and its in_port, read in C
_rule_id = itemgetter(0)
_place = itemgetter(1, 6)
_in_port = itemgetter(6)


def _match_order(row: tuple) -> tuple[int, int]:
    return (-row[5], row[0])  # (-priority, rule_id)


class _Rows(dict):
    """Rows that share a match key, by rule id in match order.  `last` sorts
    at or after every row held: the last row added in order, which a discard
    leaves in place, so neither an add nor a discard iterates to find it."""

    __slots__ = ("last",)


# A probe picks from (in_port, eth_src, eth_dst, vlan, None), read off the
# packet; a field the selector leaves unset picks the trailing None.
_UNSET = 4
# the match key of a selector with no field set, which the fabric refuses
_MATCH_ANY = (None, None, None, None)


class FlowTable:
    """Rules of one device, held as rows and looked up by tuple space search.

    A row is the plain tuple `FlowRule.row` gives: rule_id, device, selector,
    treatment, owner_intent, priority, in_port and match_key, in that order.
    Rows are grouped by their match key.  `_index` maps a key to its only row
    or, when several share it, to a `_Rows` dict of them by rule id kept in
    match order (descending priority, then rule id), so a key's first row is
    its best.  A row that sorts after the key's `last` (one priority and
    rising ids, which is what the controller produces) is appended; any other
    add rebuilds that key's dict once.  `_probes` holds one getter per
    combination of set fields present (at most 16), which turns a packet into
    the key a matching row of that combination must have; it only grows
    until `clear()`.  A lookup probes each combination once and takes the best
    head across them.  `_counts` maps a rule id to the packets its rule
    matched, and the readers (iteration, `match`) copy it into the FlowRules
    they build.  It is the fabric's, shared by all of its tables, which
    writes it in the packet walk and drops a rule's count when the rule goes
    (a table made on its own gets an empty one).  Rule ids must be unique;
    the fabric checks that.  Owned by one fabric and not thread-safe on its
    own.
    """

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        self._index: dict[tuple, tuple | _Rows] = {}
        self._probes: dict[tuple[int, ...], itemgetter] = {}
        self._counts = {} if counts is None else counts

    def __iter__(self):
        """Every rule in match order, as FlowRules; sorts, so keep it off the packet path."""
        rows: list[tuple] = []
        for held in self._index.values():
            if type(held) is _Rows:
                rows.extend(held.values())
            else:
                rows.append(held)
        rows.sort(key=_match_order)
        return map(self._rule, rows)

    def _rule(self, row: tuple) -> FlowRule:
        return FlowRule.from_row(row, self._counts.get(row[0], 0))

    def add(self, row: tuple) -> None:
        key = row[7]
        index = self._index
        held = index.get(key)
        if held is None:
            index[key] = row
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
            if type(held) is not _Rows:
                first = held
                held = index[key] = _Rows({first[0]: first})
                held.last = first
            last = held.last
            rule_id, priority = row[0], row[5]
            held[rule_id] = row
            if priority < last[5] or (priority == last[5] and rule_id > last[0]):
                held.last = row
            else:
                ordered = sorted(held.values(), key=_match_order)
                held = index[key] = _Rows({r[0]: r for r in ordered})
                held.last = ordered[-1]

    def discard(self, row: tuple) -> None:
        """Remove a row this table holds; its rule's count is the fabric's to drop."""
        key = row[7]
        held = self._index[key]
        if type(held) is not _Rows:
            del self._index[key]
        else:
            del held[row[0]]
            if len(held) == 1:
                self._index[key] = next(iter(held.values()))

    def match(self, in_port: int, header: PacketHeader) -> FlowRule | None:
        """The first rule in match order whose selector matches, or None."""
        row = self.lookup((in_port, header.eth_src, header.eth_dst, header.vlan, None))
        return None if row is None else self._rule(row)

    def lookup(self, fields: tuple) -> tuple | None:
        """`match`'s row, for a packet given as (in_port, eth_src, eth_dst, vlan, None)."""
        index = self._index
        best = None
        for probe in self._probes.values():
            hit = index.get(probe(fields))
            if hit is None:
                continue
            if type(hit) is _Rows:
                hit = next(iter(hit.values()))
            if (
                best is None
                or hit[5] > best[5]
                or (hit[5] == best[5] and hit[0] < best[0])
            ):
                best = hit
        return best

    def clear(self) -> None:
        self._index.clear()
        self._probes.clear()


class Fabric:
    """All flow tables of one simulated network.

    The rule store holds rows (see `FlowTable`): each table holds its
    device's, and `_by_owner` holds each owner's as one immutable tuple in
    install order, which `rows_of` hands out and callers may keep.  The
    readers build FlowRules from them, with each rule's packet count from
    `_counts` (rule id -> packets matched), which every table shares: the
    packet walk adds to it once per walk, and removing a rule drops its count.

    Owned by one controller and not thread-safe on its own: the controller's
    lock guards it.  Walk packets only while nothing else uses the fabric.
    """

    def __init__(self, topology: Topology) -> None:
        self._counts: dict[int, int] = {}
        self._tables: dict[str, FlowTable] = {
            dev: FlowTable(self._counts) for dev in topology.device_ids
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
        self._by_owner: dict[int, tuple[tuple, ...]] = {}

    def rule_count(self) -> int:
        return len(self._ids)

    def rules_for(self, device: str) -> list[FlowRule]:
        if device not in self._tables:
            raise UnknownDeviceError(f"unknown device {device}")
        return list(self._tables[device])

    def rules_of(self, owner_intent: int) -> list[FlowRule]:
        """The rules an intent owns, in install order; empty for unknown owners."""
        tables = self._tables
        return [tables[row[1]]._rule(row) for row in self.rows_of(owner_intent)]

    def rows_of(self, owner_intent: int) -> tuple[tuple, ...]:
        """The rows an intent owns, in install order; empty for unknown owners."""
        return self._by_owner.get(owner_intent, ())

    def install_rules(self, rules: Sequence[FlowRule | tuple]) -> int:
        """Install a batch atomically; on any error nothing is installed.

        Each item is a FlowRule or a row (see `FlowTable`); a FlowRule is
        stored as its row.  A compiled batch takes `install_places`, a copy
        of one `install_copy`; both come here when they refuse.
        """
        rows = tuple([rule if type(rule) is tuple else rule.row for rule in rules])
        port_sets, ids, by_owner = self._ports, self._ids, self._by_owner
        owners = {row[4] for row in rows}
        # a duplicate has the same device, priority, match key and owner, so
        # only the batch and the live rules of the batch's owners can hold one
        keys: set[tuple] = {
            (live[1], live[5], live[7], owner)
            for owner in owners
            if owner in by_owner
            for live in by_owner[owner]
        }
        batch_ids: set[int] = set()
        for rule_id, device, _, treatment, owner, priority, in_port, match_key in rows:
            ports = port_sets.get(device)
            if ports is None:
                raise UnknownDeviceError(f"unknown device {device}")
            if match_key == _MATCH_ANY:
                raise ValueError(f"rule {rule_id} has an empty selector")
            outputs = treatment.outputs
            if not ports.issuperset(outputs):
                port = next(p for p in outputs if p not in ports)
                raise ValueError(
                    f"rule {rule_id} outputs to missing port {device}/{port}"
                )
            if in_port is not None and in_port not in ports:
                raise ValueError(f"rule {rule_id} matches missing port {device}/{in_port}")
            key = (device, priority, match_key, owner)
            if key in keys:
                raise DuplicateRuleError(
                    f"duplicate rule on {device} (priority {priority})"
                )
            keys.add(key)
            if rule_id in ids or rule_id in batch_ids:
                raise DuplicateRuleError(f"rule id {rule_id} is already in use")
            batch_ids.add(rule_id)

        ids |= batch_ids
        tables = self._tables
        for row in rows:
            tables[row[1]].add(row)
        for owner in owners:
            owned = rows if len(owners) == 1 else tuple([row for row in rows if row[4] == owner])
            by_owner[owner] = by_owner[owner] + owned if owner in by_owner else owned
        return len(rows)

    def install_places(
        self,
        places: Iterable[tuple[str, int | None, TrafficTreatment]],
        owner_intent: int,
        selector: TrafficSelector,
        priority: int,
        next_rule_id: Callable[[], int],
    ) -> tuple[tuple, ...]:
        """Install a compiled batch atomically, one rule per (device, in_port,
        treatment) place with a fresh id from `next_rule_id`, `owner_intent`,
        `selector` and `priority`; returns the owner's rows (`rows_of`).

        The rows share one owner, selector and priority, so `install_rules`'
        checks read per place: each place's device, ports and match are
        checked as its row is built, two rows clash exactly when they share a
        (device, in_port) place, and the ids are checked for the whole batch.
        A batch that fails a check, or whose owner is live, goes to
        `install_rules` with the rows built so far.  That raises what it
        raises for the whole batch, since it checks rows in order and the
        rows end at the first place that fails; a live owner whose keys do
        not clash installs.
        """
        eth_src, eth_dst, vlan = selector.eth_src, selector.eth_dst, selector.vlan
        # with no header field set, a place that matches any port has an empty match
        no_field = eth_src is None and eth_dst is None and vlan is None
        port_sets = self._ports
        rows: list[tuple] = []
        append = rows.append
        refused = False
        for device, in_port, treatment in places:
            append((
                next_rule_id(), device, selector, treatment, owner_intent, priority, in_port,
                (in_port, eth_src, eth_dst, vlan),
            ))
            ports = port_sets.get(device)
            if (
                ports is None
                or not ports.issuperset(treatment.outputs)
                or (no_field if in_port is None else in_port not in ports)
            ):
                refused = True
                break
        ids, by_owner = self._ids, self._by_owner
        new_ids = set(map(_rule_id, rows))
        if (
            refused
            or owner_intent in by_owner
            or not rows
            or len(set(map(_place, rows))) != len(rows)
            or len(new_ids) != len(rows)
            or not ids.isdisjoint(new_ids)
        ):
            self.install_rules(rows)
            return self.rows_of(owner_intent)
        ids |= new_ids
        owned = by_owner[owner_intent] = tuple(rows)
        tables = self._tables
        for row in owned:
            tables[row[1]].add(row)
        return owned

    def install_copy(
        self,
        like: Sequence[tuple],
        owner_intent: int,
        selector: TrafficSelector,
        priority: int,
        next_rule_id: Callable[[], int],
    ) -> int:
        """Install a copy of the rows `like` for a new owner, atomically;
        returns its size.

        Each copy keeps its row's device, treatment and in_port and takes a
        fresh id from `next_rule_id`, `owner_intent`, `selector` and
        `priority`; with `like`'s own selector it keeps the match key too.
        Precondition: `like` is the rows of a batch that `install_rules`
        accepted on this fabric, which sit at distinct (device, in_port)
        places and share one selector.  Their devices and ports are then
        known, and the copies, which share one owner, selector and priority,
        cannot share a match key, so neither is checked again.  What a copy
        can change is: the owner must not be live, the ids must be distinct
        and not live, and no match key may be empty.  A batch that fails one
        of these goes to `install_rules`, which raises what it raises for that
        batch.
        """
        if like and selector is like[0][2]:
            copies = tuple([
                (next_rule_id(), row[1], selector, row[3], owner_intent, priority, row[6], row[7])
                for row in like
            ])
        else:
            eth_src, eth_dst, vlan = selector.eth_src, selector.eth_dst, selector.vlan
            copies = tuple([
                (
                    next_rule_id(), row[1], selector, row[3], owner_intent, priority, row[6],
                    (row[6], eth_src, eth_dst, vlan),
                )
                for row in like
            ])
        ids, by_owner = self._ids, self._by_owner
        new_ids = set(map(_rule_id, copies))
        if (
            owner_intent in by_owner
            or len(new_ids) != len(copies)
            or not ids.isdisjoint(new_ids)
            or not copies
            or (
                selector.eth_src is None and selector.eth_dst is None and selector.vlan is None
                and None in map(_in_port, copies)
            )
        ):
            return self.install_rules(copies)
        ids |= new_ids
        by_owner[owner_intent] = copies
        tables = self._tables
        for row in copies:
            tables[row[1]].add(row)
        return len(copies)

    def remove_rules(self, owner_intent: int) -> int:
        """Remove every rule owned by the intent; unknown owners remove zero."""
        owned = self._by_owner.pop(owner_intent, ())
        tables, ids = self._tables, self._ids
        # one discard per id: `set.difference_update` is no faster for an
        # owner's few ids, and it rebuilds the set at four times its live
        # size whenever a quarter of its slots are dummies
        for row in owned:
            tables[row[1]].discard(row)
            ids.discard(row[0])
        if self._counts:  # only a fabric that has walked a packet holds counts
            pop = self._counts.pop
            for row in owned:
                pop(row[0], None)
        return len(owned)

    def clear(self) -> None:
        for table in self._tables.values():
            table.clear()
        self._ids.clear()
        self._by_owner.clear()
        self._counts.clear()

    def inject(self, ingress: ConnectPoint, header: PacketHeader) -> DeliveryReport:
        """Walk a packet from an ingress point through the tables.

        Each matched treatment duplicates the packet across its outputs; a
        copy leaving an edge port is delivered there, a copy leaving an
        infrastructure port continues at the far end of the link.  No
        treatment rewrites the header, so every copy carries the ingress
        header.  hop counts include the ingress device, and a branch running
        past len(devices) + 1 hops raises LoopDetectedError.  Each matched
        rule's count goes up once per match, in one update as the walk ends.
        """
        ports = self._ports.get(ingress.device)
        if ports is None or ingress.port not in ports:
            raise UnknownDeviceError(f"unknown connect point {ingress}")
        ttl = len(self._tables) + 1
        tables = self._tables
        far_end = self._far_end
        eth_src, eth_dst, vlan = header.eth_src, header.eth_dst, header.vlan
        delivered: set[tuple[ConnectPoint, int]] = set()
        misses: set[str] = set()
        hits: list[int] = []  # the matched rules' ids, counted as the walk ends
        hit = hits.append
        queue = deque([(ingress.device, ingress.port, 1)])
        try:
            while queue:
                device, in_port, hops = queue.popleft()
                if hops > ttl:
                    raise LoopDetectedError(f"packet exceeded TTL {ttl} at device {device}")
                row = tables[device].lookup((in_port, eth_src, eth_dst, vlan, None))
                if row is None:
                    misses.add(device)
                    continue
                hit(row[0])
                for port in row[3].outputs:
                    nxt = far_end.get((device, port))
                    if nxt is None:
                        delivered.add((ConnectPoint(device, port), hops))
                    else:
                        queue.append((*nxt, hops + 1))
        finally:
            # the C loop behind Counter.update, without its Python-level checks
            _count_elements(self._counts, hits)
        return DeliveryReport(frozenset(delivered), frozenset(), frozenset(misses))
