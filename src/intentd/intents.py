"""Intent lifecycle: request types, compilation to flow rule places, and the store.

Submission is synchronous: when submit() returns, the intent has either
reached INSTALLED or FAILED, and its rules (if any) sit in the fabric.
"""
from __future__ import annotations

import enum
import itertools
import threading
from collections.abc import Mapping

from .errors import (
    CompileError,
    FabricError,
    IllegalStateError,
    IntentValidationError,
    NoPathError,
    StoreCapacityError,
    UnknownIntentError,
)
from .fabric import (
    DEFAULT_PRIORITY,
    Fabric,
    TrafficSelector,
    TrafficTreatment,
    TreatmentCache,
)
from .topology import ConnectPoint, HashedRecord, Path, Record, Topology, host_mac, shortest_path


class IntentState(enum.Enum):
    SUBMITTED = "SUBMITTED"
    COMPILING = "COMPILING"
    INSTALLING = "INSTALLING"
    INSTALLED = "INSTALLED"
    FAILED = "FAILED"
    WITHDRAWN = "WITHDRAWN"

    # members are singletons that compare by identity; Enum's own hash is a
    # Python function, paid by every TRANSITIONS lookup
    __hash__ = object.__hash__


# allowed moves; FAILED and WITHDRAWN are terminal
TRANSITIONS: dict[IntentState, tuple[IntentState, ...]] = {
    IntentState.SUBMITTED: (IntentState.COMPILING,),
    IntentState.COMPILING: (IntentState.INSTALLING, IntentState.FAILED),
    IntentState.INSTALLING: (IntentState.INSTALLED, IntentState.FAILED),
    IntentState.INSTALLED: (IntentState.WITHDRAWN,),
    IntentState.FAILED: (),
    IntentState.WITHDRAWN: (),
}
# read on every submit and withdraw; an enum member lookup costs ~0.1 us
_SUBMITTED, _COMPILING, _INSTALLING, _INSTALLED, _FAILED, _WITHDRAWN = IntentState


class PointToPoint(HashedRecord):
    __slots__ = _fields = ("ingress", "egress")
    type_name = "P2P"

    def __init__(self, ingress: ConnectPoint, egress: ConnectPoint) -> None:
        object.__setattr__(self, "ingress", ingress)
        object.__setattr__(self, "egress", egress)
        object.__setattr__(self, "_hash", hash(self._values))


class SingleToMultiPoint(HashedRecord):
    __slots__ = _fields = ("ingress", "egresses")
    type_name = "S2M"

    def __init__(self, ingress: ConnectPoint, egresses: frozenset[ConnectPoint]) -> None:
        object.__setattr__(self, "ingress", ingress)
        object.__setattr__(self, "egresses", frozenset(egresses))
        object.__setattr__(self, "_hash", hash(self._values))


class MultiToSinglePoint(HashedRecord):
    __slots__ = _fields = ("ingresses", "egress")
    type_name = "M2S"

    def __init__(self, ingresses: frozenset[ConnectPoint], egress: ConnectPoint) -> None:
        object.__setattr__(self, "ingresses", frozenset(ingresses))
        object.__setattr__(self, "egress", egress)
        object.__setattr__(self, "_hash", hash(self._values))


class HostToHost(HashedRecord):
    __slots__ = _fields = ("one", "two")
    type_name = "H2H"

    def __init__(self, one: str, two: str) -> None:
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "two", two)
        object.__setattr__(self, "_hash", hash(self._values))


IntentRequest = PointToPoint | SingleToMultiPoint | MultiToSinglePoint | HostToHost


class FieldKind(enum.Enum):
    """What one request document field holds; the value names it in errors."""

    POINT = "connect-point string"
    POINT_SET = "list of connect-point strings"
    HOST = "host-id string"


# The request document format, shared by every northbound surface (the codec
# is in rest.py, the CLI's positionals in cli.py): each type name maps to its
# request class and to its fields, in constructor order.
REQUEST_TYPES: dict[str, tuple[type, dict[str, FieldKind]]] = {
    "P2P": (PointToPoint, {"ingress": FieldKind.POINT, "egress": FieldKind.POINT}),
    "S2M": (SingleToMultiPoint, {"ingress": FieldKind.POINT, "egresses": FieldKind.POINT_SET}),
    "M2S": (MultiToSinglePoint, {"ingresses": FieldKind.POINT_SET, "egress": FieldKind.POINT}),
    "H2H": (HostToHost, {"one": FieldKind.HOST, "two": FieldKind.HOST}),
}
# the class names are accepted on the wire too; documents carry the short form
REQUEST_TYPES |= {cls.__name__: (cls, fields) for cls, fields in REQUEST_TYPES.values()}
# read for every field of every request that is checked; an enum member
# lookup costs ~0.1 us
_POINT_SET, _HOST = FieldKind.POINT_SET, FieldKind.HOST
# what a submit without a selector matches on; selectors are immutable, so all share one
DEFAULT_SELECTOR = TrafficSelector()


class Intent(Record):
    """One stored intent and its lifecycle state.  `child_ids` is set once a
    host-to-host parent has been expanded, even to no legs; `parent_id` names
    the host-to-host parent that owns a leg.  `template` is not a field: it
    is the controller's template entry an INSTALLED leaf holds, else None."""

    _fields = (
        "id", "request", "selector", "priority", "state", "failure", "child_ids", "parent_id",
    )
    __slots__ = (*_fields, "template")

    def __init__(
        self,
        id: int,
        request: IntentRequest,
        selector: TrafficSelector,
        priority: int,
        state: IntentState,
        failure: str | None = None,
        child_ids: tuple[int, ...] | None = None,
        parent_id: int | None = None,
    ) -> None:
        self.id = id
        self.request = request
        self.selector = selector
        self.priority = priority
        self.state = state
        self.failure = failure
        self.child_ids = child_ids
        self.parent_id = parent_id
        self.template: list | None = None

    @property
    def type_name(self) -> str:
        return self.request.type_name


def validate_request(topo: Topology, request: IntentRequest) -> None:
    """Check a request against the topology before it is admitted.  Its
    endpoints, read from REQUEST_TYPES, are its point and host fields and the
    members of its point set: each must exist, a point set must not be empty,
    and no endpoint may be named twice.  Of a set's members the least bad one
    is named, so the message never depends on set order."""
    try:
        _, fields = REQUEST_TYPES[type(request).__name__]
    except KeyError:
        raise IntentValidationError(f"unsupported request type {type(request).__name__}") from None
    has_point = topo.has_connect_point
    named: list = []
    distinct: set = set()
    for name, kind in fields.items():
        value = getattr(request, name)
        if kind is _POINT_SET:
            if not value:
                raise IntentValidationError(f"{name} must not be empty")
            if not all(map(has_point, value)):
                unknown = min(cp for cp in value if not has_point(cp))
                raise IntentValidationError(f"unknown connect point {unknown}")
            named += value
            distinct |= value  # reuses the members' stored hashes
        else:
            if kind is _HOST:
                topo.host_attachment(value)
            elif not has_point(value):
                raise IntentValidationError(f"unknown connect point {value}")
            named.append(value)
            distinct.add(value)
    if len(distinct) < len(named):
        repeated = min(e for e in distinct if named.count(e) > 1)
        raise IntentValidationError(f"{repeated} is named twice")


def _chain_rules(
    path: Path,
    ingress: ConnectPoint,
    egress: ConnectPoint,
) -> list[tuple[str, int, int]]:
    """Per-device (device, in_port, out_port) hops for one unicast path."""
    if not path.links:
        return [(ingress.device, ingress.port, egress.port)]
    hops = [(ingress.device, ingress.port, path.links[0].src.port)]
    for prev, nxt in zip(path.links, path.links[1:]):
        hops.append((nxt.src.device, prev.dst.port, nxt.src.port))
    hops.append((egress.device, path.links[-1].dst.port, egress.port))
    return hops


# A compiler returns one (device, in_port, treatment) place per rule, which
# `Fabric.install_places` installs with the intent's selector and priority.
Place = tuple[str, int, TrafficTreatment]


def compile_point_to_point(
    topo: Topology,
    request: PointToPoint,
    treatments: Mapping[tuple[int, ...], TrafficTreatment],
) -> list[Place]:
    """One place per device along the shortest ingress->egress path."""
    assert isinstance(request, PointToPoint)
    path = shortest_path(topo, request.ingress.device, request.egress.device)
    return [
        (device, in_port, treatments[(out_port,)])
        for device, in_port, out_port in _chain_rules(path, request.ingress, request.egress)
    ]


def compile_single_to_multi(
    topo: Topology,
    request: SingleToMultiPoint,
    treatments: Mapping[tuple[int, ...], TrafficTreatment],
) -> list[Place]:
    """Places for a tree over the union of shortest paths to every egress.

    The deterministic path tie-break keeps the union prefix-consistent, so
    each device has one arrival port; devices fanning out or carrying a
    local egress get a multi-output treatment.
    """
    assert isinstance(request, SingleToMultiPoint)
    ingress = request.ingress
    in_ports: dict[str, int] = {ingress.device: ingress.port}
    outputs: dict[str, set[int]] = {}
    for egress in sorted(request.egresses):
        if egress.device != ingress.device:
            path = shortest_path(topo, ingress.device, egress.device)
            for link in path.links:
                outputs.setdefault(link.src.device, set()).add(link.src.port)
                known = in_ports.get(link.dst.device)
                if known is None:
                    in_ports[link.dst.device] = link.dst.port
                elif known != link.dst.port:
                    raise CompileError(
                        f"conflicting arrival ports at {link.dst.device}"
                    )
        outputs.setdefault(egress.device, set()).add(egress.port)
    return [
        (device, in_ports[device], treatments[tuple(sorted(outputs[device]))])
        for device in sorted(outputs)
    ]


def compile_multi_to_single(
    topo: Topology,
    request: MultiToSinglePoint,
    treatments: Mapping[tuple[int, ...], TrafficTreatment],
) -> list[Place]:
    """One place per (device, arrival port) over the per-ingress paths.

    Paths from different ingresses that reach a device on the same port
    collapse into one rule; distinct arrival ports coexist.
    """
    assert isinstance(request, MultiToSinglePoint)
    egress = request.egress
    hops: dict[tuple[str, int], int] = {}
    for ingress in sorted(request.ingresses):
        path = shortest_path(topo, ingress.device, egress.device)
        for device, in_port, out_port in _chain_rules(path, ingress, egress):
            hops.setdefault((device, in_port), out_port)
    return [
        (device, in_port, treatments[(out_port,)])
        for (device, in_port), out_port in sorted(hops.items())
    ]


class IntentStore:
    """Id allocation plus the id -> intent map, owned by one controller.

    Not thread-safe on its own: the controller's lock guards every call.
    Withdrawn and failed intents stay queryable but stop counting as live,
    so only admitted-and-not-terminal intents hold capacity.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._intents: dict[int, Intent] = {}
        self._next_id = itertools.count(1)
        self._live = 0

    def admit(
        self,
        request: IntentRequest,
        selector: TrafficSelector,
        priority: int,
    ) -> Intent:
        if self.capacity is not None and self._live >= self.capacity:
            raise StoreCapacityError(
                f"store is full ({self.capacity} live intents)"
            )
        intent = Intent(
            id=next(self._next_id),
            request=request,
            selector=selector,
            priority=priority,
            state=_SUBMITTED,
        )
        self._intents[intent.id] = intent
        self._live += 1
        return intent

    def transition(self, intent: Intent, state: IntentState, failure: str | None = None) -> None:
        if state not in TRANSITIONS[intent.state]:
            raise IllegalStateError(
                f"intent {intent.id}: cannot move {intent.state.value} -> {state.value}"
            )
        intent.state = state
        if failure is not None:
            intent.failure = failure
        if state in (_FAILED, _WITHDRAWN):
            self._live -= 1

    def get(self, intent_id: int) -> Intent:
        try:
            return self._intents[intent_id]
        except KeyError:
            raise UnknownIntentError(f"unknown intent {intent_id}") from None

    def list(self) -> list[Intent]:
        return list(self._intents.values())

    def live_count(self) -> int:
        return self._live

    def clear(self) -> None:
        self._intents.clear()
        self._live = 0


class Controller:
    """Topology + fabric + store behind one submit/withdraw/query surface.

    Every public method holds the controller's one lock, so each submit,
    withdraw and reset is atomic and every read sees store and fabric agree.
    It is reentrant because a host-to-host submit submits its legs.

    A request compiles once while it is live.  `_templates` maps each request
    that has an INSTALLED leaf to [rows, users]: the rule rows one such intent
    was compiled to, the very tuple the fabric holds for it (`rows_of`, which
    `Fabric.install_places` returns), and how many INSTALLED leaves hold the
    entry.  An equal request has the fabric
    install a copy of that template instead of compiling
    (`Fabric.install_copy`).  The rules depend only on the request and the
    topology, which never changes, so an equal request is not validated again
    either.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        capacity: int | None = None,
        fabric: Fabric | None = None,
    ) -> None:
        self.topology = topology
        self.fabric = fabric if fabric is not None else Fabric(topology)
        self.store = IntentStore(capacity=capacity)
        self._next_rule_id = itertools.count(1).__next__
        self._treatments = TreatmentCache()
        self._templates: dict[IntentRequest, list] = {}
        # the next new entry, planted by setdefault: a submit hashes its request once
        self._spare: list = [None, 0]
        self._lock = threading.RLock()

    def submit(
        self,
        request: IntentRequest,
        *,
        priority: int = DEFAULT_PRIORITY,
        selector: TrafficSelector | None = None,
    ) -> int:
        """Drive a request to INSTALLED or FAILED; returns the intent id.

        Validation and store-capacity problems raise, in that order, before
        anything is stored; compile and install problems are recorded on the
        intent.  A priority must be an integer >= 1, and not a bool.
        """
        if not isinstance(priority, int) or isinstance(priority, bool) or priority < 1:
            raise IntentValidationError(f"priority must be a positive integer, got {priority!r}")
        if selector is None:
            selector = DEFAULT_SELECTOR
        with self._lock:
            if isinstance(request, HostToHost):
                validate_request(self.topology, request)
                intent = self.store.admit(request, selector, priority)
                self.store.transition(intent, _COMPILING)
                self._drive_host_to_host(intent)
                return intent.id

            # [rows, users]; a miss plants the spare entry, with no users yet
            try:
                entry = self._templates.setdefault(request, self._spare)
            except TypeError:  # unhashable, so no request: validation names it
                validate_request(self.topology, request)
                raise
            compiled = not entry[1]
            if compiled:
                try:
                    validate_request(self.topology, request)
                    intent = self.store.admit(request, selector, priority)
                except BaseException:
                    del self._templates[request]
                    raise
                self._spare = [None, 0]
                self.store.transition(intent, _COMPILING)
                try:
                    places = self._compile(request)
                except (NoPathError, CompileError) as exc:
                    del self._templates[request]
                    self.store.transition(intent, _FAILED, failure=str(exc))
                    return intent.id
            else:
                intent = self.store.admit(request, selector, priority)
                self.store.transition(intent, _COMPILING)

            self.store.transition(intent, _INSTALLING)
            try:
                if compiled:
                    entry[0] = self.fabric.install_places(
                        places, intent.id, selector, priority, self._next_rule_id
                    )
                else:
                    # entry[0] is set only once install_places accepted it here
                    self.fabric.install_copy(
                        entry[0], intent.id, selector, priority, self._next_rule_id
                    )
            except (FabricError, ValueError) as exc:
                if compiled:
                    del self._templates[request]
                self.store.transition(intent, _FAILED, failure=str(exc))
                return intent.id
            entry[1] += 1
            intent.template = entry
            self.store.transition(intent, _INSTALLED)
            return intent.id

    def _compile(self, request: IntentRequest) -> list[Place]:
        if isinstance(request, PointToPoint):
            return compile_point_to_point(self.topology, request, self._treatments)
        if isinstance(request, SingleToMultiPoint):
            return compile_single_to_multi(self.topology, request, self._treatments)
        if isinstance(request, MultiToSinglePoint):
            return compile_multi_to_single(self.topology, request, self._treatments)
        raise CompileError(f"no compiler for {type(request).__name__}")

    def _drive_host_to_host(self, intent: Intent) -> None:
        """Expand into two point-to-point intents, one per direction.

        The pair installs all-or-nothing: when the second direction fails,
        the first is withdrawn again and the parent fails.
        """
        request = intent.request
        assert isinstance(request, HostToHost)
        attach_one = self.topology.host_attachment(request.one)
        attach_two = self.topology.host_attachment(request.two)
        mac_one = host_mac(request.one)
        mac_two = host_mac(request.two)
        vlan = intent.selector.vlan
        legs = (
            (PointToPoint(attach_one, attach_two), TrafficSelector(mac_one, mac_two, vlan)),
            (PointToPoint(attach_two, attach_one), TrafficSelector(mac_two, mac_one, vlan)),
        )
        child_ids: list[int] = []
        failure: str | None = None
        for leg_request, leg_selector in legs:
            try:
                child_id = self.submit(
                    leg_request, priority=intent.priority, selector=leg_selector
                )
            except (IntentValidationError, StoreCapacityError) as exc:
                failure = str(exc)
                break
            child_ids.append(child_id)
            child = self.store.get(child_id)
            child.parent_id = intent.id
            if child.state is not _INSTALLED:
                failure = child.failure or "leg failed"
                break
        intent.child_ids = tuple(child_ids)
        if failure is not None:
            self._remove(intent)
            self.store.transition(intent, _FAILED, failure=failure)
            return
        self.store.transition(intent, _INSTALLING)
        self.store.transition(intent, _INSTALLED)

    def withdraw(self, intent_id: int) -> None:
        """Remove an INSTALLED intent's rules and mark it WITHDRAWN.

        A host-to-host leg belongs to its parent: withdrawing one on its own
        would leave the parent INSTALLED with one direction, so it is
        refused, and withdrawing the parent withdraws both legs.
        """
        with self._lock:
            intent = self.store.get(intent_id)
            if intent.parent_id is not None:
                raise IllegalStateError(
                    f"intent {intent_id} is a leg of host-to-host intent "
                    f"{intent.parent_id}; withdraw {intent.parent_id} instead"
                )
            if intent.state is not _INSTALLED:
                raise IllegalStateError(
                    f"intent {intent_id} is {intent.state.value}, not INSTALLED"
                )
            self._remove(intent)
            self.store.transition(intent, _WITHDRAWN)

    def _remove(self, intent: Intent) -> None:
        """Withdraw an intent's INSTALLED legs, then drop its own rules and its
        hold on its template, which goes when no INSTALLED leaf holds it."""
        for child_id in intent.child_ids or ():
            child = self.store.get(child_id)
            if child.state is _INSTALLED:
                self._remove(child)
                self.store.transition(child, _WITHDRAWN)
        self.fabric.remove_rules(intent.id)
        entry = intent.template
        if entry is not None:
            intent.template = None
            entry[1] -= 1
            if not entry[1]:
                del self._templates[intent.request]

    def get(self, intent_id: int) -> Intent:
        with self._lock:
            return self.store.get(intent_id)

    def list(self) -> list[Intent]:
        with self._lock:
            return self.store.list()

    def rule_count(self, intent_id: int) -> int:
        """Rules the fabric holds for an INSTALLED intent, else 0; an H2H
        parent counts its legs'."""
        with self._lock:
            intent = self.store.get(intent_id)
            if intent.child_ids:
                return sum(self.rule_count(child) for child in intent.child_ids)
            if intent.state is not _INSTALLED:
                return 0
            return len(self.fabric.rows_of(intent_id))

    def live_intents(self) -> int:
        with self._lock:
            return self.store.live_count()

    def installed_rules(self) -> int:
        with self._lock:
            return self.fabric.rule_count()

    def reset(self) -> None:
        """Drop every rule and purge the store; counters drop to zero."""
        with self._lock:
            self.fabric.clear()
            self.store.clear()
            self._templates.clear()

