"""Intent lifecycle, compilation, the request codec, and end-to-end delivery."""
import json
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

from intentd import intents
from intentd.errors import (
    FabricError,
    IllegalStateError,
    IntentValidationError,
    RequestSchemaError,
    StoreCapacityError,
    UnknownHostError,
    UnknownIntentError,
)
from intentd.fabric import (
    DEFAULT_PRIORITY,
    Fabric,
    FlowRule,
    PacketHeader,
    TrafficSelector,
    TrafficTreatment,
    TreatmentCache,
)
from intentd.intents import (
    TRANSITIONS,
    Controller,
    HostToHost,
    IntentState,
    MultiToSinglePoint,
    PointToPoint,
    SingleToMultiPoint,
)
from intentd.rest import intent_document, parse_intent_document, request_document
from intentd.topology import ConnectPoint, Link, Topology, default_topology, device_id, host_mac
from conftest import D1, D2, D3, HUB
from randnet import (
    DEFAULT_HEADER,
    assert_intent_realized,
    assert_store_matches_fabric,
    random_intent,
    random_topology,
)

CP = ConnectPoint


def p2p_h1_h2():
    return PointToPoint(CP(D1, 1), CP(D3, 2))


# (topology fixture, request): one request of each type that installs there
ONE_OF_EACH_TYPE = [
    ("star", PointToPoint(CP(D1, 1), CP(D3, 2))),
    ("star", SingleToMultiPoint(CP(D1, 1), frozenset({CP(D2, 2), CP(D3, 2)}))),
    ("star", MultiToSinglePoint(frozenset({CP(D1, 1), CP(D2, 2)}), CP(D3, 2))),
    ("chain3", HostToHost("h1", "h2")),
]


class TestStateMachine:
    def test_terminal_states_have_no_exits(self):
        assert TRANSITIONS[IntentState.FAILED] == ()
        assert TRANSITIONS[IntentState.WITHDRAWN] == ()

    def test_every_state_is_covered(self):
        assert set(TRANSITIONS) == set(IntentState)

    def test_illegal_move_rejected(self, controller):
        iid = controller.submit(p2p_h1_h2())
        intent = controller.get(iid)
        with pytest.raises(IllegalStateError):
            controller.store.transition(intent, IntentState.COMPILING)

    def test_withdraw_requires_installed(self, controller):
        iid = controller.submit(p2p_h1_h2())
        controller.withdraw(iid)
        with pytest.raises(IllegalStateError):
            controller.withdraw(iid)

    def test_unknown_intent(self, controller):
        with pytest.raises(UnknownIntentError):
            controller.get(999)


class TestValidation:
    def test_same_ingress_egress(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(PointToPoint(CP(D1, 1), CP(D1, 1)))

    def test_unknown_connect_point(self, controller):
        with pytest.raises(IntentValidationError, match="of:0000000000000063/1"):
            controller.submit(PointToPoint(CP(device_id(99), 1), CP(D3, 2)))

    def test_empty_egress_set(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(SingleToMultiPoint(CP(D1, 1), frozenset()))

    def test_ingress_inside_egress_set(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(
                SingleToMultiPoint(CP(D1, 1), frozenset({CP(D1, 1), CP(D3, 2)}))
            )

    def test_egress_inside_ingress_set(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(
                MultiToSinglePoint(frozenset({CP(D1, 1), CP(D3, 2)}), CP(D3, 2))
            )

    def test_unknown_host(self, controller):
        with pytest.raises(UnknownHostError):
            controller.submit(HostToHost("h1", "nobody"))

    def test_same_host_twice(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(HostToHost("h1", "h1"))

    @pytest.mark.parametrize(
        "request_, message",
        [
            (PointToPoint(CP(device_id(99), 1), CP(D3, 2)),
             f"unknown connect point {device_id(99)}/1"),
            (SingleToMultiPoint(CP(D1, 1), frozenset({CP(D3, 2), CP(D3, 9)})),
             f"unknown connect point {D3}/9"),
            (MultiToSinglePoint(frozenset({CP(D1, 1), CP(D1, 9)}), CP(D3, 2)),
             f"unknown connect point {D1}/9"),
            # of two unknown members, the least is named whatever the set order
            (SingleToMultiPoint(CP(D1, 1), frozenset({CP(device_id(99), 1), CP(device_id(98), 1)})),
             f"unknown connect point {device_id(98)}/1"),
            (HostToHost("h1", "nobody"), "unknown host nobody"),
            (SingleToMultiPoint(CP(D1, 1), frozenset()), "egresses must not be empty"),
            (MultiToSinglePoint(frozenset(), CP(D3, 2)), "ingresses must not be empty"),
            (PointToPoint(CP(D1, 1), CP(D1, 1)), f"{D1}/1 is named twice"),
            (SingleToMultiPoint(CP(D1, 1), frozenset({CP(D1, 1), CP(D3, 2)})),
             f"{D1}/1 is named twice"),
            (MultiToSinglePoint(frozenset({CP(D1, 1), CP(D2, 1)}), CP(D2, 1)),
             f"{D2}/1 is named twice"),
            (HostToHost("h2", "h2"), "h2 is named twice"),
            (object(), "unsupported request type object"),
            ([], "unsupported request type list"),
        ],
        ids=["p2p-unknown", "s2m-unknown-member", "m2s-unknown-member",
             "s2m-least-unknown-member", "h2h-unknown", "s2m-empty", "m2s-empty",
             "p2p-repeat", "s2m-repeat", "m2s-repeat", "h2h-repeat", "not-a-request",
             "unhashable-non-request"],
    )
    def test_one_rule_for_every_type(self, controller, request_, message):
        with pytest.raises(IntentValidationError) as caught:
            controller.submit(request_)
        assert str(caught.value) == message
        assert controller.list() == []

    def test_validation_failure_stores_nothing(self, controller):
        with pytest.raises(IntentValidationError):
            controller.submit(PointToPoint(CP(D1, 1), CP(D1, 1)))
        assert controller.list() == []
        assert controller.live_intents() == 0


class TestPriority:
    """submit refuses a priority that REST and the CLI refuse, before anything
    is stored: one that is not an integer >= 1, or is a bool."""

    @staticmethod
    def snapshot(ctrl: Controller) -> tuple:
        return (
            [(i.id, i.state, i.child_ids) for i in ctrl.list()],
            ctrl.live_intents(),
            ctrl.installed_rules(),
            {device: ctrl.fabric.rules_for(device) for device in ctrl.topology.device_ids},
        )

    @pytest.mark.parametrize(
        "priority", ["x", 0, -3, True, False, 1.5, None],
        ids=["str", "zero", "negative", "true", "false", "float", "none"],
    )
    @pytest.mark.parametrize(
        "request_",
        [PointToPoint(CP(device_id(1), 2), CP(device_id(5), 2)), HostToHost("h1", "h2")],
        ids=["P2P", "H2H"],
    )
    def test_refused_before_anything_is_stored(self, priority, request_):
        ctrl = Controller(default_topology())
        first = ctrl.submit(PointToPoint(CP(device_id(1), 1), CP(device_id(5), 2)))
        before = self.snapshot(ctrl)
        for _ in range(2):  # a refused submit leaves no template behind either
            with pytest.raises(IntentValidationError) as caught:
                ctrl.submit(request_, priority=priority)
            assert str(caught.value) == f"priority must be a positive integer, got {priority!r}"
            assert self.snapshot(ctrl) == before
        assert ctrl._templates.keys() == {ctrl.get(first).request}
        again = ctrl.submit(request_, priority=1)
        assert ctrl.get(again).state is IntentState.INSTALLED
        assert ctrl.rule_count(first) == 5


class TestCompilation:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_fan_out_searches_once(self, tree_searches, seed):
        # k egresses on k devices, none on the ingress device: one tree serves them all
        rng = random.Random(seed)
        topo = random_topology(rng)
        by_device: dict[str, list[ConnectPoint]] = {}
        for cp in topo.edge_points():
            by_device.setdefault(cp.device, []).append(cp)
        ingress_device, *others = rng.sample(sorted(by_device), len(by_device))
        egresses = frozenset(by_device[d][-1] for d in others[:4])
        ctrl = Controller(topo)
        iid = ctrl.submit(SingleToMultiPoint(by_device[ingress_device][0], egresses))
        assert ctrl.get(iid).state is IntentState.INSTALLED
        assert tree_searches == [ingress_device]

    @pytest.mark.parametrize("seed", range(10))
    def test_cold_fan_in_searches_once_per_ingress_device(self, tree_searches, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        points = list(topo.edge_points())
        egress = rng.choice(points)
        ingresses = frozenset(rng.sample([p for p in points if p != egress], min(5, len(points) - 1)))
        ctrl = Controller(topo)
        iid = ctrl.submit(MultiToSinglePoint(ingresses, egress))
        assert ctrl.get(iid).state is IntentState.INSTALLED
        assert sorted(tree_searches) == sorted({cp.device for cp in ingresses})

    def test_chain_p2p_one_rule_per_device(self, controller):
        iid = controller.submit(p2p_h1_h2())
        intent = controller.get(iid)
        assert intent.state is IntentState.INSTALLED
        assert controller.rule_count(iid) == 3
        rules = controller.fabric.rules_of(iid)
        assert [(r.device, r.in_port, r.treatment.outputs) for r in rules] == [
            (D1, 1, (2,)),
            (D2, 1, (2,)),
            (D3, 1, (2,)),
        ]

    def test_same_device_p2p_is_one_rule(self, controller):
        iid = controller.submit(PointToPoint(CP(D1, 1), CP(D1, 2)))
        assert controller.rule_count(iid) == 1
        (r,) = controller.fabric.rules_of(iid)
        assert (r.device, r.in_port, r.treatment.outputs) == (D1, 1, (2,))

    def test_star_fanout_shares_devices(self, star):
        ctrl = Controller(star)
        iid = ctrl.submit(
            SingleToMultiPoint(CP(D1, 1), frozenset({CP(D2, 2), CP(D3, 2)}))
        )
        assert ctrl.rule_count(iid) == 4  # d1, hub, d2, d3
        by_device = {r.device: r for r in ctrl.fabric.rules_of(iid)}
        assert by_device[HUB].treatment.outputs == (2, 3)
        assert by_device[D2].treatment.outputs == (2,)

    def test_star_fanin_merges_shared_tail(self, star):
        ctrl = Controller(star)
        iid = ctrl.submit(
            MultiToSinglePoint(frozenset({CP(D1, 1), CP(D2, 2)}), CP(D3, 2))
        )
        # two three-device paths share the last hop into d3
        assert ctrl.rule_count(iid) == 5
        devices = sorted(r.device for r in ctrl.fabric.rules_of(iid))
        assert devices == sorted([D1, D2, HUB, HUB, D3])

    def test_compilation_is_deterministic(self, star):
        def shapes():
            ctrl = Controller(star)
            iid = ctrl.submit(
                SingleToMultiPoint(CP(D1, 1), frozenset({CP(D2, 2), CP(D3, 2)}))
            )
            return [
                (r.device, r.in_port, r.treatment.outputs, r.priority)
                for r in ctrl.fabric.rules_of(iid)
            ]

        assert shapes() == shapes()

    def test_rules_carry_owner_and_priority(self, controller):
        iid = controller.submit(p2p_h1_h2(), priority=250)
        for r in controller.fabric.rules_of(iid):
            assert r.owner_intent == iid
            assert r.priority == 250


def public_twin(r: FlowRule) -> FlowRule:
    """The rule the public constructor builds from a compiled rule's fields."""
    sel = r.selector
    return FlowRule(
        r.rule_id,
        r.device,
        TrafficSelector(eth_src=sel.eth_src, eth_dst=sel.eth_dst, vlan=sel.vlan),
        TrafficTreatment(outputs=r.treatment.outputs),
        r.owner_intent,
        r.priority,
        r.in_port,
    )


class TestStampPath:
    """The rules a compiler stamps out of one intent."""

    SELECTOR = TrafficSelector(eth_src="AA:AA:AA:AA:AA:01", eth_dst="aa:aa:aa:aa:aa:02", vlan=0)

    @pytest.mark.parametrize(
        "request_",
        [
            PointToPoint(CP(D1, 1), CP(D3, 2)),
            SingleToMultiPoint(CP(D1, 1), frozenset({CP(D2, 2), CP(D3, 2)})),
            MultiToSinglePoint(frozenset({CP(D1, 1), CP(D2, 2)}), CP(D3, 2)),
        ],
        ids=["P2P", "S2M", "M2S"],
    )
    def test_compiled_rules_equal_public_ones(self, star, request_):
        ctrl = Controller(star)
        iid = ctrl.submit(request_, priority=150, selector=self.SELECTOR)
        rules = ctrl.fabric.rules_of(iid)
        assert rules and ctrl.get(iid).state is IntentState.INSTALLED
        for r in rules:
            twin = public_twin(r)
            assert r == twin  # in_port, selector and treatment included
            assert r.match_key == twin.match_key
            assert r.selector.eth_src == "aa:aa:aa:aa:aa:01"
            assert r.packet_count == 0

    def test_compiled_rules_share_treatments(self, controller):
        first_id, second_id = controller.submit(p2p_h1_h2()), controller.submit(p2p_h1_h2())
        first = controller.fabric.rules_of(first_id)
        second = controller.fabric.rules_of(second_id)
        for a, b in zip(first, second):
            assert a.treatment is b.treatment
            # each rule holds its own intent's selector
            assert a.selector is controller.get(first_id).selector
            assert b.selector is controller.get(second_id).selector

    def test_submits_without_a_selector_share_one(self, controller):
        first, second = controller.submit(p2p_h1_h2()), controller.submit(p2p_h1_h2())
        assert controller.get(first).selector is controller.get(second).selector
        assert controller.get(first).selector == TrafficSelector()

    @pytest.mark.parametrize("topology, request_", ONE_OF_EACH_TYPE, ids=["P2P", "S2M", "M2S", "H2H"])
    def test_rules_hold_their_intents_selector(self, request, topology, request_):
        ctrl = Controller(request.getfixturevalue(topology))
        ctrl.submit(request_, selector=self.SELECTOR)
        leaves = [i for i in ctrl.list() if not i.child_ids]
        assert leaves and all(i.state is IntentState.INSTALLED for i in leaves)
        for intent in leaves:
            rules = ctrl.fabric.rules_of(intent.id)
            assert rules and all(r.selector is intent.selector for r in rules)


class TestLifecycleAccounting:
    def test_submit_then_withdraw_returns_to_zero(self, controller):
        iid = controller.submit(p2p_h1_h2())
        assert controller.live_intents() == 1
        assert controller.installed_rules() == 3
        controller.withdraw(iid)
        assert controller.live_intents() == 0
        assert controller.installed_rules() == 0
        assert controller.get(iid).state is IntentState.WITHDRAWN

    def test_withdrawn_intent_stays_queryable(self, controller):
        iid = controller.submit(p2p_h1_h2())
        controller.withdraw(iid)
        assert controller.get(iid).id == iid
        assert controller.rule_count(iid) == 0

    def test_store_capacity_counts_only_live(self, chain3):
        ctrl = Controller(chain3, capacity=1)
        first = ctrl.submit(p2p_h1_h2())
        with pytest.raises(StoreCapacityError):
            ctrl.submit(PointToPoint(CP(D3, 2), CP(D1, 1)))
        ctrl.withdraw(first)
        ctrl.submit(PointToPoint(CP(D3, 2), CP(D1, 1)))  # slot freed

    def test_capacity_error_stores_nothing(self, chain3):
        ctrl = Controller(chain3, capacity=1)
        ctrl.submit(p2p_h1_h2())
        with pytest.raises(StoreCapacityError):
            ctrl.submit(PointToPoint(CP(D3, 2), CP(D1, 1)))
        assert len(ctrl.list()) == 1

    def test_reset_restores_quiescence(self, controller):
        controller.submit(p2p_h1_h2())
        controller.submit(HostToHost("h1", "h2"))
        controller.reset()
        assert controller.live_intents() == 0
        assert controller.installed_rules() == 0
        assert controller.list() == []

    def test_rule_counts_of_terminal_intents_are_zero(self, chain3):
        ctrl = Controller(chain3, fabric=InstallFails(chain3, fail_from=2))
        pair = ctrl.submit(HostToHost("h1", "h2"))  # the second leg fails to install
        first, second = ctrl.get(pair).child_ids
        assert ctrl.get(pair).state is IntentState.FAILED
        assert ctrl.get(first).state is IntentState.WITHDRAWN
        assert ctrl.get(second).state is IntentState.FAILED
        assert [ctrl.rule_count(i) for i in (pair, first, second)] == [0, 0, 0]
        assert ctrl.installed_rules() == 0  # the first leg's rules were rolled back

        ctrl = Controller(chain3)
        pair = ctrl.submit(HostToHost("h1", "h2"))
        single = ctrl.submit(p2p_h1_h2())
        assert [ctrl.rule_count(i) for i in (pair, single)] == [6, 3]
        ctrl.withdraw(pair)
        ctrl.withdraw(single)
        assert [ctrl.rule_count(i) for i in (pair, single)] == [0, 0]

    def test_rule_count_is_zero_until_installed(self, chain3):
        seen = []

        class Recording(Fabric):
            def install_places(self, places, owner_intent, *args):
                installed = super().install_places(places, owner_intent, *args)
                seen.append((ctrl.get(owner_intent).state, ctrl.rule_count(owner_intent)))
                return installed

        ctrl = Controller(chain3, fabric=Recording(chain3))
        iid = ctrl.submit(p2p_h1_h2())
        assert seen == [(IntentState.INSTALLING, 0)]
        assert ctrl.rule_count(iid) == 3

    def test_duplicate_submissions_coexist(self, controller):
        a = controller.submit(p2p_h1_h2())
        b = controller.submit(p2p_h1_h2())
        assert a != b
        assert controller.installed_rules() == 6


def rule_shapes(ctrl: Controller, intent_id: int) -> list[tuple]:
    """An intent's rules in id order, without their ids and owner."""
    return [
        (r.device, r.in_port, r.selector, r.treatment.outputs, r.priority)
        for r in sorted(ctrl.fabric.rules_of(intent_id), key=lambda r: r.rule_id)
    ]


def leaves_of(ctrl: Controller, intent_id: int) -> list[int]:
    return list(ctrl.get(intent_id).child_ids or (intent_id,))


def template_users(ctrl: Controller) -> dict:
    return {request: entry[1] for request, entry in ctrl._templates.items()}


class InstallFails(Fabric):
    """A fabric that refuses every batch, compiled or copied, from the
    `fail_from`-th install call on."""

    def __init__(self, topology, fail_from: int = 1) -> None:
        super().__init__(topology)
        self.fail_from = fail_from
        self.calls = 0

    def _count(self) -> None:
        self.calls += 1
        if self.calls >= self.fail_from:
            raise FabricError("batch refused")

    def install_rules(self, rules):
        self._count()
        return super().install_rules(rules)

    def install_places(self, places, owner_intent, selector, priority, next_rule_id):
        self._count()
        return super().install_places(places, owner_intent, selector, priority, next_rule_id)

    def install_copy(self, like, owner_intent, selector, priority, next_rule_id):
        self._count()
        return super().install_copy(like, owner_intent, selector, priority, next_rule_id)


class TestTemplates:
    """A request compiles once while it is live; equal submits stamp rules."""

    FIRST = TrafficSelector(eth_dst="aa:aa:aa:aa:aa:01")
    SECOND = TrafficSelector(eth_src="aa:aa:aa:aa:aa:02", vlan=7)

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Counts calls of the three compilers, looked up by name in intents."""
        calls = []
        for name in ("compile_point_to_point", "compile_single_to_multi", "compile_multi_to_single"):
            compiler = getattr(intents, name)

            def counted(*args, compiler=compiler):
                calls.append(compiler.__name__)
                return compiler(*args)

            monkeypatch.setattr(intents, name, counted)
        return calls

    @pytest.fixture
    def validations(self, monkeypatch):
        """The requests validate_request is called with, looked up by name in intents."""
        calls = []
        validate = intents.validate_request

        def counted(topo, request):
            calls.append(request)
            return validate(topo, request)

        monkeypatch.setattr(intents, "validate_request", counted)
        return calls

    @staticmethod
    def snapshot(ctrl):
        """Everything a refused submit must leave as it was."""
        return (
            {request: (id(entry), id(entry[0]), entry[1]) for request, entry in ctrl._templates.items()},
            [(i.id, i.state) for i in ctrl.list()],
            ctrl.live_intents(),
            ctrl.installed_rules(),
        )

    @pytest.mark.parametrize("topology, request_", ONE_OF_EACH_TYPE, ids=["P2P", "S2M", "M2S", "H2H"])
    def test_a_hit_is_not_validated(self, request, validations, topology, request_):
        ctrl = Controller(request.getfixturevalue(topology))
        first = ctrl.submit(request_)
        legs = [ctrl.get(leaf).request for leaf in leaves_of(ctrl, first) if leaf != first]
        assert validations == [request_, *legs]
        del validations[:]
        hit = ctrl.submit(request_, priority=300, selector=self.SECOND)
        assert ctrl.get(hit).state is IntentState.INSTALLED
        # an H2H parent checks its hosts on every submit; its legs hit
        assert validations == ([request_] if legs else [])
        ctrl.withdraw(first)
        ctrl.withdraw(hit)
        ctrl.submit(request_)  # the template went with its last user
        assert validations == ([request_] if legs else []) + [request_, *legs]

    @pytest.mark.parametrize(
        "request_, message",
        [
            (PointToPoint(CP(device_id(99), 1), CP(D3, 2)),
             f"unknown connect point {device_id(99)}/1"),
            (SingleToMultiPoint(CP(D1, 1), frozenset()), "egresses must not be empty"),
            (MultiToSinglePoint(frozenset({CP(D1, 1), CP(D2, 1)}), CP(D2, 1)),
             f"{D2}/1 is named twice"),
        ],
        ids=["unknown-point", "empty-set", "named-twice"],
    )
    def test_a_miss_that_fails_validation_stores_nothing(self, controller, request_, message):
        controller.submit(p2p_h1_h2())
        before = self.snapshot(controller)
        for _ in range(2):  # a refused request leaves no entry to hit
            with pytest.raises(IntentValidationError) as caught:
                controller.submit(request_)
            assert str(caught.value) == message
            assert self.snapshot(controller) == before

    def test_validation_is_checked_before_capacity(self, chain3):
        ctrl = Controller(chain3, capacity=0)
        with pytest.raises(IntentValidationError):
            ctrl.submit(PointToPoint(CP(D1, 1), CP(D1, 1)))
        with pytest.raises(StoreCapacityError):
            ctrl.submit(p2p_h1_h2())
        assert ctrl._templates == {}

    def test_a_hit_refused_by_a_full_store_changes_nothing(self, chain3, validations):
        ctrl = Controller(chain3, capacity=1)
        ctrl.submit(p2p_h1_h2())
        before = self.snapshot(ctrl)
        with pytest.raises(StoreCapacityError, match=r"store is full \(1 live intents\)"):
            ctrl.submit(p2p_h1_h2())
        assert self.snapshot(ctrl) == before
        assert template_users(ctrl) == {p2p_h1_h2(): 1}
        assert validations == [p2p_h1_h2()]

    def test_a_miss_refused_by_a_full_store_leaves_no_entry(self, chain3):
        ctrl = Controller(chain3, capacity=1)
        ctrl.submit(p2p_h1_h2())
        before = self.snapshot(ctrl)
        reverse = PointToPoint(CP(D3, 2), CP(D1, 1))
        for _ in range(2):
            with pytest.raises(StoreCapacityError):
                ctrl.submit(reverse)
            assert self.snapshot(ctrl) == before
        assert reverse not in ctrl._templates

    @pytest.mark.parametrize("topology, request_", ONE_OF_EACH_TYPE, ids=["P2P", "S2M", "M2S", "H2H"])
    def test_template_hits_build_no_flow_rule(self, request, monkeypatch, topology, request_):
        topo = request.getfixturevalue(topology)
        ctrl = Controller(topo)
        ctrl.submit(request_)
        built = []
        init, from_row = FlowRule.__init__, FlowRule.from_row.__func__

        def counted_init(rule, *args, **kwargs):
            built.append("__init__")
            init(rule, *args, **kwargs)

        def counted_from_row(cls, *args):
            built.append("from_row")
            return from_row(cls, *args)

        monkeypatch.setattr(FlowRule, "__init__", counted_init)
        monkeypatch.setattr(FlowRule, "from_row", classmethod(counted_from_row))
        # with the template's own selector, and with another one
        hits = [
            ctrl.submit(request_, priority=100 + n % 3, selector=self.SECOND if n % 2 else None)
            for n in range(100)
        ]
        counts = [ctrl.rule_count(hit) for hit in hits]  # a count builds no rule either
        assert built == []
        monkeypatch.undo()
        compilers = {
            PointToPoint: intents.compile_point_to_point,
            SingleToMultiPoint: intents.compile_single_to_multi,
            MultiToSinglePoint: intents.compile_multi_to_single,
        }
        for hit, count in zip(hits, counts):
            assert ctrl.get(hit).state is IntentState.INSTALLED
            leaves = leaves_of(ctrl, hit)
            assert count == sum(len(ctrl.fabric.rules_of(leaf)) for leaf in leaves) > 0
            for leaf in leaves:
                intent = ctrl.get(leaf)
                rules = ctrl.fabric.rules_of(leaf)
                # a cold compile of the leaf, its places given the ids its copy took
                places = compilers[type(intent.request)](topo, intent.request, TreatmentCache())
                cold = [
                    FlowRule(r.rule_id, device, intent.selector, treatment, leaf, intent.priority, in_port)
                    for r, (device, in_port, treatment) in zip(rules, places, strict=True)
                ]
                assert rules == cold
                assert [r.row for r in rules] == [r.row for r in cold]  # match keys too

    @pytest.mark.parametrize("topology, request_", ONE_OF_EACH_TYPE, ids=["P2P", "S2M", "M2S", "H2H"])
    def test_stamped_rules_equal_a_cold_compile(self, request, compiles, topology, request_):
        topo = request.getfixturevalue(topology)
        warm = Controller(topo)
        first = warm.submit(request_, priority=120, selector=self.FIRST)
        compiled = len(compiles)
        hit = warm.submit(request_, priority=300, selector=self.SECOND)
        assert len(compiles) == compiled  # the hit compiled nothing
        cold = Controller(topo)
        fresh = cold.submit(request_, priority=300, selector=self.SECOND)
        assert warm.get(hit).state is IntentState.INSTALLED
        for hit_leaf, fresh_leaf in zip(leaves_of(warm, hit), leaves_of(cold, fresh), strict=True):
            assert rule_shapes(warm, hit_leaf) == rule_shapes(cold, fresh_leaf)
            ids = sorted(r.rule_id for r in warm.fabric.rules_of(hit_leaf))
            assert ids == list(range(ids[0], ids[0] + len(ids)))
            assert all(r.owner_intent == hit_leaf for r in warm.fabric.rules_of(hit_leaf))
            selector = warm.get(hit_leaf).selector
            assert all(r.selector is selector for r in warm.fabric.rules_of(hit_leaf))
        assert template_users(warm) == {
            warm.get(leaf).request: 2 for leaf in leaves_of(warm, first)
        }

    def test_no_path_is_raised_again_on_every_repeat(self, monkeypatch):
        topo = Topology({D1: [1], D2: [1]}, [])
        ctrl = Controller(topo)
        searches = []
        search = intents.shortest_path
        monkeypatch.setattr(
            intents, "shortest_path", lambda *args: searches.append(args) or search(*args)
        )
        for attempt in range(1, 4):
            iid = ctrl.submit(PointToPoint(CP(D1, 1), CP(D2, 1)))
            assert ctrl.get(iid).state is IntentState.FAILED
            assert "no path" in ctrl.get(iid).failure.lower()
            assert len(searches) == attempt
            assert ctrl._templates == {}

    def test_a_repeated_host_to_host_installs_its_legs_as_copies(self, controller, installs):
        first = controller.submit(HostToHost("h1", "h2"))
        assert installs == ["install_places"] * 2
        again = controller.submit(HostToHost("h1", "h2"))
        assert installs == ["install_places"] * 2 + ["install_copy"] * 2
        assert controller.get(again).state is IntentState.INSTALLED
        assert [rule_shapes(controller, leg) for leg in leaves_of(controller, again)] == [
            rule_shapes(controller, leg) for leg in leaves_of(controller, first)
        ]

    def test_distinct_grid_requests_are_never_copied(self, installs):
        cells = [(r, c) for r in range(3) for c in range(3)]

        def point(r, c, port=5):
            return CP(device_id(r * 3 + c + 1), port)

        # a 3x3 grid: ports 1-4 face north, east, south and west, port 5 is the edge port
        links = [Link(point(r, c, 2), point(r, c + 1, 4)) for r, c in cells if c < 2]
        links += [Link(point(r, c, 3), point(r + 1, c, 1)) for r, c in cells if r < 2]
        ctrl = Controller(Topology({point(*cell).device: range(1, 6) for cell in cells}, links))
        edges = [point(*cell) for cell in cells]
        requests = [PointToPoint(a, b) for a in edges for b in edges if a != b]
        requests += [SingleToMultiPoint(edges[0], frozenset(edges[1:])),
                     MultiToSinglePoint(frozenset(edges[1:]), edges[0])]
        for request_ in requests:
            assert ctrl.get(ctrl.submit(request_)).state is IntentState.INSTALLED
        assert installs == ["install_places"] * len(requests)

    def test_failed_install_leaves_the_memo_unchanged(self, chain3):
        ctrl = Controller(chain3, fabric=InstallFails(chain3))
        for _ in range(2):
            iid = ctrl.submit(p2p_h1_h2())
            assert ctrl.get(iid).state is IntentState.FAILED
            assert ctrl._templates == {}

        ctrl = Controller(chain3, fabric=InstallFails(chain3, fail_from=2))
        first = ctrl.submit(p2p_h1_h2())
        (entry,) = ctrl._templates.values()
        rules = entry[0]
        failed = ctrl.submit(p2p_h1_h2())  # a hit whose install fails
        assert ctrl.get(failed).state is IntentState.FAILED
        assert ctrl._templates == {p2p_h1_h2(): [rules, 1]}
        assert ctrl._templates[p2p_h1_h2()][0] is rules
        ctrl.withdraw(first)
        assert ctrl._templates == {}

    def test_host_to_host_rollback_releases_the_first_leg(self, chain3):
        ctrl = Controller(chain3, fabric=InstallFails(chain3, fail_from=2))
        pair = ctrl.submit(HostToHost("h1", "h2"))
        assert ctrl.get(pair).state is IntentState.FAILED
        assert ctrl._templates == {}

    def test_memo_is_empty_after_everything_is_withdrawn_and_after_reset(self, chain3):
        ctrl = Controller(chain3)
        requests = [
            p2p_h1_h2(),
            SingleToMultiPoint(CP(D1, 1), frozenset({CP(D3, 2)})),
            MultiToSinglePoint(frozenset({CP(D3, 2)}), CP(D1, 1)),
            HostToHost("h1", "h2"),
        ]
        ids = [ctrl.submit(r) for r in requests * 3]
        # the H2H's h1 -> h2 leg is the plain P2P request: one template for both
        assert template_users(ctrl) == {
            p2p_h1_h2(): 6,
            PointToPoint(CP(D3, 2), CP(D1, 1)): 3,
            requests[1]: 3,
            requests[2]: 3,
        }
        for iid in ids:
            ctrl.withdraw(iid)
        assert ctrl._templates == {}
        for r in requests:
            ctrl.submit(r)
        assert len(ctrl._templates) == 4
        ctrl.reset()
        assert ctrl._templates == {}
        iid = ctrl.submit(p2p_h1_h2())  # compiles afresh after the reset
        assert rule_shapes(ctrl, iid) == [
            (D1, 1, TrafficSelector(), (2,), DEFAULT_PRIORITY),
            (D2, 1, TrafficSelector(), (2,), DEFAULT_PRIORITY),
            (D3, 1, TrafficSelector(), (2,), DEFAULT_PRIORITY),
        ]


class HeldFabric(Fabric):
    """A fabric whose first call of one method blocks until `release` is set.
    Held as "install_rules", a compiled batch (`install_places`) blocks too."""

    def __init__(self, topology, held: str) -> None:
        super().__init__(topology)
        self.held = held
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def _hold(self, name: str) -> None:
        if name == self.held:
            self.calls += 1
            if self.calls == 1:
                self.entered.set()
                self.release.wait(5)

    def install_rules(self, rules):
        self._hold("install_rules")
        return super().install_rules(rules)

    def install_places(self, places, owner_intent, selector, priority, next_rule_id):
        self._hold("install_rules")
        return super().install_places(places, owner_intent, selector, priority, next_rule_id)

    def remove_rules(self, owner_intent):
        self._hold("remove_rules")
        return super().remove_rules(owner_intent)


# across the whole default chain: one rule on each of its five devices
CHAIN_P2P = PointToPoint(CP(device_id(1), 3), CP(device_id(5), 3))


class TestConcurrentLifecycle:
    """Each submit, withdraw and reset is atomic against the others."""

    def test_reset_waits_for_a_submit_in_flight(self):
        topo = default_topology()
        fabric = HeldFabric(topo, "install_rules")
        ctrl = Controller(topo, fabric=fabric)
        submitter = threading.Thread(target=ctrl.submit, args=(CHAIN_P2P,), daemon=True)
        resetter = threading.Thread(target=ctrl.reset, daemon=True)
        try:
            submitter.start()
            assert fabric.entered.wait(0.5)
            resetter.start()
            resetter.join(0.5)
            reset_waited = resetter.is_alive()
        finally:
            fabric.release.set()
        submitter.join(0.5)
        resetter.join(0.5)
        assert not submitter.is_alive() and not resetter.is_alive()
        assert (reset_waited, ctrl.installed_rules(), ctrl.live_intents()) == (True, 0, 0)

    def test_second_withdraw_of_one_intent_is_refused(self):
        topo = default_topology()
        fabric = HeldFabric(topo, "remove_rules")
        ctrl = Controller(topo, fabric=fabric)
        iid = ctrl.submit(CHAIN_P2P)
        errors = []

        def withdraw():
            try:
                ctrl.withdraw(iid)
            except IllegalStateError as exc:
                errors.append(exc)

        first = threading.Thread(target=withdraw, daemon=True)
        second = threading.Thread(target=withdraw, daemon=True)
        try:
            first.start()
            assert fabric.entered.wait(0.5)
            second.start()
            second.join(0.5)
        finally:
            fabric.release.set()
        first.join(0.5)
        second.join(0.5)
        assert not first.is_alive() and not second.is_alive()
        assert fabric.calls == 1
        assert len(errors) == 1
        with pytest.raises(IllegalStateError, match=f"intent {iid} is WITHDRAWN, not INSTALLED"):
            raise errors[0]
        assert ctrl.get(iid).state is IntentState.WITHDRAWN
        assert ctrl.installed_rules() == ctrl.live_intents() == 0

    def test_threads_churning_equal_requests_keep_template_counts(self):
        ctrl = Controller(default_topology())
        requests = [
            CHAIN_P2P,
            SingleToMultiPoint(CP(device_id(1), 4), frozenset({CP(device_id(3), 3), CP(device_id(5), 4)})),
            HostToHost("h1", "h2"),
        ]
        errors = []

        def churn(seed):
            rng = random.Random(seed)
            mine = []
            try:
                for _ in range(200):
                    if mine and rng.random() < 0.4:
                        ctrl.withdraw(mine.pop(rng.randrange(len(mine))))
                    else:
                        mine.append(ctrl.submit(rng.choice(requests)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(n,), daemon=True) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        leaves = Counter(
            i.request for i in ctrl.list() if i.state is IntentState.INSTALLED and i.child_ids is None
        )
        assert template_users(ctrl) == dict(leaves) and leaves
        assert_store_matches_fabric(ctrl)


class TestHostToHost:
    def test_expands_to_two_installed_legs(self, controller):
        iid = controller.submit(HostToHost("h1", "h2"))
        parent = controller.get(iid)
        assert parent.state is IntentState.INSTALLED
        assert len(parent.child_ids) == 2
        children = [controller.get(c) for c in parent.child_ids]
        assert all(c.state is IntentState.INSTALLED for c in children)
        assert all(c.type_name == "P2P" for c in children)
        assert controller.rule_count(iid) == 6

    def test_children_pin_host_macs(self, controller):
        iid = controller.submit(HostToHost("h1", "h2"))
        fwd, rev = (controller.get(c) for c in controller.get(iid).child_ids)
        assert fwd.selector.eth_src == host_mac("h1")
        assert fwd.selector.eth_dst == host_mac("h2")
        assert rev.selector.eth_src == host_mac("h2")
        assert rev.selector.eth_dst == host_mac("h1")

    def test_both_directions_deliver(self, controller):
        controller.submit(HostToHost("h1", "h2"))
        fwd = controller.fabric.inject(
            CP(D1, 1), PacketHeader(host_mac("h1"), host_mac("h2"))
        )
        assert fwd.delivered == frozenset({(CP(D3, 2), 3)})
        rev = controller.fabric.inject(
            CP(D3, 2), PacketHeader(host_mac("h2"), host_mac("h1"))
        )
        assert rev.delivered == frozenset({(CP(D1, 1), 3)})

    def test_unmatched_traffic_misses(self, controller):
        controller.submit(HostToHost("h1", "h2"))
        stray = controller.fabric.inject(
            CP(D1, 1), PacketHeader("02:00:00:00:00:99", host_mac("h2"))
        )
        assert stray.delivered == frozenset()

    def test_withdraw_cascades_to_children(self, controller):
        iid = controller.submit(HostToHost("h1", "h2"))
        controller.withdraw(iid)
        assert controller.installed_rules() == 0
        assert all(
            controller.get(c).state is IntentState.WITHDRAWN
            for c in controller.get(iid).child_ids
        )

    def test_leg_cannot_be_withdrawn_on_its_own(self, controller):
        iid = controller.submit(HostToHost("h1", "h2"))
        for leg in controller.get(iid).child_ids:
            assert controller.get(leg).parent_id == iid
            with pytest.raises(IllegalStateError, match=f"host-to-host intent {iid}"):
                controller.withdraw(leg)
            assert controller.get(leg).state is IntentState.INSTALLED
        assert controller.get(iid).state is IntentState.INSTALLED
        assert controller.rule_count(iid) == controller.installed_rules() == 6
        assert controller.live_intents() == 3
        controller.withdraw(iid)
        assert controller.installed_rules() == controller.live_intents() == 0
        with pytest.raises(IllegalStateError, match=f"host-to-host intent {iid}"):
            controller.withdraw(controller.get(iid).child_ids[0])

    def test_second_leg_failure_rolls_back_first(self, chain3):
        ctrl = Controller(chain3)
        # room for the parent and one leg only; the second admit hits capacity
        ctrl.store.capacity = 2
        iid = ctrl.submit(HostToHost("h1", "h2"))
        parent = ctrl.get(iid)
        assert parent.state is IntentState.FAILED
        assert len(parent.child_ids) == 1
        assert ctrl.get(parent.child_ids[0]).state is IntentState.WITHDRAWN
        assert ctrl.installed_rules() == 0

    def test_document_lists_children(self, controller):
        iid = controller.submit(HostToHost("h1", "h2"))
        doc = intent_document(controller, controller.get(iid))
        assert doc["type"] == "H2H"
        assert doc["rule_count"] == 6
        assert len(doc["children"]) == 2


class TestFailureRecording:
    def test_no_path_leaves_failed_intent(self):
        from intentd.topology import Topology

        topo = Topology({D1: [1], D2: [1]}, [])
        ctrl = Controller(topo)
        iid = ctrl.submit(PointToPoint(CP(D1, 1), CP(D2, 1)))
        intent = ctrl.get(iid)
        assert intent.state is IntentState.FAILED
        assert "no path" in (intent.failure or "").lower()
        assert ctrl.live_intents() == 0
        assert ctrl.rule_count(iid) == 0

    def test_document_carries_failure(self):
        from intentd.topology import Topology

        topo = Topology({D1: [1], D2: [1]}, [])
        ctrl = Controller(topo)
        iid = ctrl.submit(PointToPoint(CP(D1, 1), CP(D2, 1)))
        doc = intent_document(ctrl, ctrl.get(iid))
        assert doc["state"] == "FAILED"
        assert "failure" in doc


CHAIN = default_topology()
_point = st.sampled_from(CHAIN.edge_points())
_points = st.frozensets(_point, max_size=4)
_host = st.sampled_from(sorted(CHAIN.hosts))
REQUESTS = st.one_of(
    st.builds(PointToPoint, _point, _point),
    st.builds(SingleToMultiPoint, _point, _points),
    st.builds(MultiToSinglePoint, _points, _point),
    st.builds(HostToHost, _host, _host),
)


def _cp(n, port):
    return CP(device_id(n), port)


class TestDocumentCodec:
    @settings(max_examples=200, deadline=None)
    @given(request=REQUESTS)
    def test_round_trip(self, request):
        wire = json.loads(json.dumps(request_document(request)))
        assert parse_intent_document(wire) == (request, DEFAULT_PRIORITY, TrafficSelector())

    # the wire format, field order included, on the built-in chain
    @pytest.mark.parametrize(
        "request_, capacity, golden",
        [
            (
                PointToPoint(_cp(1, 3), _cp(5, 3)),
                None,
                {"id": "1", "type": "P2P", "state": "INSTALLED", "rule_count": 5,
                 "ingress": "of:0000000000000001/3", "egress": "of:0000000000000005/3"},
            ),
            (
                SingleToMultiPoint(_cp(1, 3), {_cp(5, 3), _cp(3, 3)}),
                None,
                {"id": "1", "type": "S2M", "state": "INSTALLED", "rule_count": 5,
                 "ingress": "of:0000000000000001/3",
                 "egresses": ["of:0000000000000003/3", "of:0000000000000005/3"]},
            ),
            (
                MultiToSinglePoint({_cp(3, 3), _cp(1, 3)}, _cp(5, 3)),
                None,
                {"id": "1", "type": "M2S", "state": "INSTALLED", "rule_count": 6,
                 "ingresses": ["of:0000000000000001/3", "of:0000000000000003/3"],
                 "egress": "of:0000000000000005/3"},
            ),
            (
                HostToHost("h1", "h2"),
                None,
                {"id": "1", "type": "H2H", "state": "INSTALLED", "rule_count": 10,
                 "one": "h1", "two": "h2", "children": ["2", "3"]},
            ),
            (
                HostToHost("h1", "h2"),
                1,
                {"id": "1", "type": "H2H", "state": "FAILED", "rule_count": 0,
                 "one": "h1", "two": "h2", "children": [],
                 "failure": "store is full (1 live intents)"},
            ),
        ],
        ids=["P2P", "S2M", "M2S", "H2H", "H2H-no-legs"],
    )
    def test_golden_documents(self, request_, capacity, golden):
        ctrl = Controller(CHAIN, capacity=capacity)
        doc = intent_document(ctrl, ctrl.get(ctrl.submit(request_)))
        assert list(doc.items()) == list(golden.items())

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"type": ["P2P"]}, "type must be one of"),
            ({"type": "H2H", "one": "h1", "two": 2}, "two must be a host-id string"),
            ({"type": "H2H", "one": "h1", "two": "h2", "selector": {"eth_src": 5}}, "eth_src"),
            ({"type": "H2H", "one": "h1", "two": "h2", "selector": {"vlan": True}}, "vlan"),
        ],
        ids=["unhashable-type", "host-not-string", "mac-not-string", "vlan-bool"],
    )
    def test_malformed_values_rejected(self, doc, fragment):
        with pytest.raises(RequestSchemaError, match=fragment):
            parse_intent_document(doc)


class TestRandomInstances:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_installed_intents_deliver_exactly(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        ctrl = Controller(topo)
        request = random_intent(rng, topo)
        iid = ctrl.submit(request)
        assert_intent_realized(ctrl, iid)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_withdraw_always_returns_to_quiescence(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng)
        ctrl = Controller(topo)
        ids = [ctrl.submit(random_intent(rng, topo)) for _ in range(5)]
        for iid in ids:
            if ctrl.get(iid).state is IntentState.INSTALLED:
                ctrl.withdraw(iid)
        assert ctrl.installed_rules() == 0
        assert ctrl.live_intents() == 0


_unknown = st.sampled_from([CP(device_id(99), 1), CP(device_id(1), 99)])
# requests that validate_request refuses on the default chain, one row per rule
INVALID_REQUESTS = st.one_of(
    st.builds(PointToPoint, _unknown, _point),
    st.builds(SingleToMultiPoint, _point, st.builds(frozenset.union, _points, _unknown.map(lambda p: {p}))),
    st.builds(SingleToMultiPoint, _point, st.just(frozenset())),
    st.builds(MultiToSinglePoint, st.just(frozenset()), _point),
    _point.map(lambda p: PointToPoint(p, p)),
    _point.map(lambda p: MultiToSinglePoint(frozenset({p}), p)),
    st.builds(HostToHost, _host, st.just("nobody")),
    _host.map(lambda h: HostToHost(h, h)),
)


def _points_request(kind, points):
    first, *rest = points
    if kind is PointToPoint:
        return PointToPoint(first, rest[0])
    if kind is SingleToMultiPoint:
        return SingleToMultiPoint(first, frozenset(rest))
    return MultiToSinglePoint(frozenset(rest), first)


_KINDS = st.sampled_from((PointToPoint, SingleToMultiPoint, MultiToSinglePoint))
_DISTINCT_POINTS = st.lists(_point, min_size=2, max_size=4, unique=True)


class LifecycleModel(RuleBasedStateMachine):
    """Submit, withdraw and reset on the default chain, checked against a model.

    Every request drawn to install is valid and routable there, so each such
    submit installs.  Each gets a vlan of its own, which keeps the intents'
    traffic apart, so every INSTALLED leaf's walk can be checked while the
    others are in place.  Invalid requests and submits to a full store are
    refused and change nothing, which the invariants check.
    """

    ids = Bundle("ids")

    def __init__(self) -> None:
        super().__init__()
        self.ctrl = Controller(CHAIN)
        self.model: dict[int, IntentState] = {}
        self.parent_of: dict[int, int] = {}
        self.vlan = 0

    def _submit(self, request) -> int:
        self.vlan += 1
        iid = self.ctrl.submit(request, selector=TrafficSelector(vlan=self.vlan))
        self.model[iid] = IntentState.INSTALLED
        return iid

    @rule(target=ids, kind=_KINDS, points=_DISTINCT_POINTS)
    def submit_points(self, kind, points):
        return self._submit(_points_request(kind, points))

    @rule(target=ids, hosts=st.permutations(sorted(CHAIN.hosts)))
    def submit_host_pair(self, hosts):
        return self._submit_pair(HostToHost(*hosts))

    @rule(target=ids, iid=ids)
    def resubmit(self, iid):
        """Submit a known intent's request again, so that equal requests meet."""
        assume(iid in self.model)
        request = self.ctrl.get(iid).request
        if isinstance(request, HostToHost):
            return self._submit_pair(request)
        return self._submit(request)

    @rule(request=INVALID_REQUESTS)
    def submit_invalid(self, request):
        with pytest.raises(IntentValidationError):
            self.ctrl.submit(request, selector=TrafficSelector(vlan=self.vlan + 1))

    @rule(iid=ids, kind=_KINDS, points=_DISTINCT_POINTS)
    def submit_at_capacity(self, iid, kind, points):
        """Resubmit a known request (mostly a hit) or a new one (a miss) to a
        store bounded at its live count."""
        request = self.ctrl.get(iid).request if iid in self.model else _points_request(kind, points)
        self.ctrl.store.capacity = self.ctrl.live_intents()
        try:
            with pytest.raises(StoreCapacityError):
                self.ctrl.submit(request, selector=TrafficSelector(vlan=self.vlan + 1))
        finally:
            self.ctrl.store.capacity = None

    def _submit_pair(self, request):
        iid = self._submit(request)
        legs = self.ctrl.get(iid).child_ids
        assert len(legs) == 2
        for leg in legs:
            self.model[leg] = IntentState.INSTALLED
            self.parent_of[leg] = iid
        return multiple(iid, *legs)

    @rule(iid=st.one_of(ids, st.integers(10_000, 10_002)))
    def withdraw(self, iid):
        """Any id: ours, a leg, one from before a reset, or one never issued."""
        state = self.model.get(iid)
        if state is None:
            with pytest.raises(UnknownIntentError):
                self.ctrl.withdraw(iid)
        elif iid in self.parent_of:
            parent = self.parent_of[iid]
            with pytest.raises(IllegalStateError, match=f"host-to-host intent {parent};"):
                self.ctrl.withdraw(iid)
        elif state is not IntentState.INSTALLED:
            with pytest.raises(IllegalStateError, match="is WITHDRAWN, not INSTALLED"):
                self.ctrl.withdraw(iid)
        else:
            self.ctrl.withdraw(iid)
            self.model[iid] = IntentState.WITHDRAWN
            for leg, parent in self.parent_of.items():
                if parent == iid:
                    self.model[leg] = IntentState.WITHDRAWN

    @rule()
    def reset(self):
        self.ctrl.reset()
        self.model.clear()
        self.parent_of.clear()

    @invariant()
    def store_matches_model(self):
        assert {i.id: i.state for i in self.ctrl.list()} == self.model

    @invariant()
    def store_matches_fabric(self):
        assert_store_matches_fabric(self.ctrl)

    @invariant()
    def templates_count_installed_leaves(self):
        leaves = Counter(
            i.request
            for i in self.ctrl.list()
            if i.state is IntentState.INSTALLED and i.child_ids is None
        )
        assert template_users(self.ctrl) == dict(leaves)

    @invariant()
    def installed_leaves_deliver(self):
        for intent in self.ctrl.list():
            if intent.state is IntentState.INSTALLED and not intent.child_ids:
                sel = intent.selector
                header = PacketHeader(
                    sel.eth_src or DEFAULT_HEADER.eth_src,
                    sel.eth_dst or DEFAULT_HEADER.eth_dst,
                    sel.vlan,
                )
                assert_intent_realized(self.ctrl, intent.id, header)


TestLifecycleModel = LifecycleModel.TestCase
TestLifecycleModel.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
