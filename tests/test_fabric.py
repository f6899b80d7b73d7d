"""Flow table behaviour and the packet walk."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentd.errors import DuplicateRuleError, LoopDetectedError, UnknownDeviceError
from intentd.fabric import (
    DEFAULT_PRIORITY,
    Fabric,
    FlowRule,
    FlowTable,
    PacketHeader,
    TrafficSelector,
    TrafficTreatment,
    TreatmentCache,
)
from intentd.topology import ConnectPoint, device_id, load_topology
from conftest import CHAIN3_DOCUMENT, D1, D2, D3
from randnet import DEFAULT_HEADER

_ids = itertools.count(1)
# the chain3 fixture's topology, for tests that hypothesis runs many times
CHAIN3 = load_topology(CHAIN3_DOCUMENT)


def rule(
    device, in_port, out_ports, *, priority=DEFAULT_PRIORITY, owner=1, rule_id=None, **sel
):
    if isinstance(out_ports, int):
        out_ports = (out_ports,)
    return FlowRule(
        rule_id=next(_ids) if rule_id is None else rule_id,
        device=device,
        selector=TrafficSelector(**sel),
        treatment=TrafficTreatment(outputs=tuple(out_ports)),
        owner_intent=owner,
        priority=priority,
        in_port=in_port,
    )


def packet_counts(fabric, *rules):
    """Each rule's packet count, read back through the fabric by rule id."""
    counted = {
        held.rule_id: held.packet_count
        for device in {r.device for r in rules}
        for held in fabric.rules_for(device)
    }
    return tuple(counted[r.rule_id] for r in rules)


def matches(r, in_port, header):
    """True when every set field of rule `r` equals the packet's; the linear
    reference that `FlowTable.match` is tested against."""
    sel = r.selector
    return (
        (r.in_port is None or r.in_port == in_port)
        and (sel.eth_src is None or sel.eth_src == header.eth_src)
        and (sel.eth_dst is None or sel.eth_dst == header.eth_dst)
        and (sel.vlan is None or sel.vlan == header.vlan)
    )


class TestSelector:
    def test_normalizes_mac_case(self):
        sel = TrafficSelector(eth_src="AA:BB:CC:00:00:01")
        assert sel.eth_src == "aa:bb:cc:00:00:01"

    def test_rejects_bad_mac(self):
        with pytest.raises(ValueError):
            TrafficSelector(eth_src="zz:zz")

    def test_rejects_bad_vlan(self):
        with pytest.raises(ValueError):
            TrafficSelector(vlan=5000)

    def test_matching_is_conjunctive(self):
        r = rule(D1, 2, 1, eth_dst="aa:aa:aa:aa:aa:02")
        assert matches(r, 2, DEFAULT_HEADER)
        assert not matches(r, 1, DEFAULT_HEADER)
        assert not matches(r, 2, PacketHeader(DEFAULT_HEADER.eth_src, "ff:ff:ff:ff:ff:ff"))

    def test_wildcard_field_matches_anything(self):
        assert matches(rule(D1, 3, 1), 3, DEFAULT_HEADER)
        assert matches(rule(D1, None, 1, vlan=7), 3, PacketHeader(*_MACS, 7))


class TestFlowRule:
    def test_constructor_keeps_range_checks(self):
        with pytest.raises(ValueError, match="64-bit"):
            rule(D1, 1, 2, rule_id=2**64)
        with pytest.raises(ValueError, match="in_port"):
            rule(D1, 0, 2)

    @pytest.mark.parametrize("priority", ["x", True, 1.5, None])
    def test_constructor_refuses_a_priority_that_is_not_an_integer(self, priority):
        with pytest.raises(ValueError) as caught:
            rule(D1, 1, 2, priority=priority)
        assert str(caught.value) == f"priority must be an integer, got {priority!r}"

    def test_a_row_reads_back_as_the_rule(self):
        made = rule(D1, 1, (1, 2), priority=7, owner=3, eth_dst=_MACS[1], vlan=9)
        assert made.row == (
            made.rule_id, D1, made.selector, made.treatment, 3, 7, 1, (1, None, _MACS[1], 9)
        )
        again = FlowRule.from_row(made.row)
        assert again == made and again.match_key == made.match_key
        assert FlowRule.from_row(made.row, 4).packet_count == 4


class TestTreatment:
    def test_empty_outputs_rejected(self):
        with pytest.raises(ValueError, match="at least one output"):
            TrafficTreatment(outputs=())
        with pytest.raises(ValueError, match="at least one output"):
            TreatmentCache()[()]

    def test_outputs_become_a_tuple(self):
        assert TrafficTreatment(outputs=[2, 3]).outputs == (2, 3)

    def test_equal_port_tuples_share_one_treatment(self):
        cache = TreatmentCache()
        shared = cache[(2, 3)]
        assert cache[(2, 3)] is shared
        assert shared == TrafficTreatment(outputs=(2, 3))
        assert cache[(3,)] is not shared
        assert len(cache) == 2

    def test_treatments_are_immutable(self):
        with pytest.raises(AttributeError):
            TreatmentCache()[(2,)].outputs = (3,)


class TestInstall:
    def test_install_and_count(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2), rule(D2, 1, 2)])
        assert fabric.rule_count() == 2
        assert len(fabric.rules_for(D1)) == 1

    def test_unknown_device_rejected(self, chain3):
        fabric = Fabric(chain3)
        with pytest.raises(UnknownDeviceError):
            fabric.install_rules([rule(device_id(77), 1, 2)])

    def test_empty_selector_rejected(self, chain3):
        fabric = Fabric(chain3)
        bad = FlowRule(
            rule_id=next(_ids),
            device=D1,
            selector=TrafficSelector(),
            treatment=TrafficTreatment(outputs=(2,)),
            owner_intent=1,
        )
        with pytest.raises(ValueError):
            fabric.install_rules([bad])

    def test_output_port_must_exist(self, chain3):
        fabric = Fabric(chain3)
        with pytest.raises(ValueError):
            fabric.install_rules([rule(D1, 1, 9)])

    def test_duplicate_key_rejected(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2)])
        with pytest.raises(DuplicateRuleError):
            fabric.install_rules([rule(D1, 1, 2)])

    def test_same_key_different_owner_coexists(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2, owner=1)])
        fabric.install_rules([rule(D1, 1, 2, owner=2)])
        assert len(fabric.rules_for(D1)) == 2

    def test_batch_is_atomic(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2)])
        batch = [rule(D2, 1, 2, owner=2), rule(D1, 1, 2, owner=1)]  # second collides
        with pytest.raises(DuplicateRuleError):
            fabric.install_rules(batch)
        assert fabric.rule_count() == 1  # nothing from the failed batch landed

    def test_rules_of_keeps_each_owners_install_order(self, chain3):
        fabric = Fabric(chain3)
        a1 = rule(D1, 1, 2, owner=1)
        fabric.install_rules([a1])
        # one batch mixes owner 1, which holds live rules, with a new owner 2
        b1, a2, b2, a3 = (
            rule(D1, 1, 2, owner=2), rule(D2, 1, 2, owner=1),
            rule(D2, 1, 2, owner=2), rule(D3, 1, 2, owner=1),
        )
        fabric.install_rules([b1, a2, b2, a3])
        assert fabric.rules_of(1) == [a1, a2, a3]
        assert fabric.rules_of(2) == [b1, b2]
        refused = [
            # valid rules of a new, an existing and a live owner ahead of a
            # collision with owner 1's live rule
            ([rule(D3, 1, 2, owner=3), rule(D1, 2, 1, owner=2), rule(D1, 2, 1, owner=1),
              rule(D1, 1, 2, owner=1)], DuplicateRuleError),
            ([rule(D1, 2, 1, owner=2), rule(D2, 2, 1, owner=3, rule_id=a1.rule_id)],
             DuplicateRuleError),
            ([rule(D1, 2, 1, owner=4), rule(D1, 1, 9, owner=1)], ValueError),
        ]
        for batch, error in refused:
            with pytest.raises(error):
                fabric.install_rules(batch)
            assert fabric.rules_of(1) == [a1, a2, a3]
            assert fabric.rules_of(2) == [b1, b2]
            assert fabric.rules_of(3) == fabric.rules_of(4) == []
            assert set(fabric._by_owner) == {1, 2}  # no owner list is left behind
            assert fabric.rule_count() == 5
        assert fabric.remove_rules(1) == 3
        assert fabric.rules_of(2) == [b1, b2]
        assert fabric.rules_for(D1) == [b1]

    def test_intra_batch_duplicate_rejected(self, chain3):
        fabric = Fabric(chain3)
        with pytest.raises(DuplicateRuleError):
            fabric.install_rules([rule(D1, 1, 2), rule(D1, 1, 2)])

    @pytest.mark.parametrize(
        "reuse",
        [
            lambda: rule(D1, 2, 1, owner=2, rule_id=5),  # another selector and owner
            lambda: rule(D1, 1, 2, priority=500, owner=1, rule_id=5),  # new priority
            lambda: rule(D2, 1, 2, owner=1, rule_id=5),  # another device
        ],
        ids=["other-selector", "new-priority", "other-device"],
    )
    def test_live_rule_id_rejected(self, chain3, reuse):
        fabric = Fabric(chain3)
        live = rule(D1, 1, 2, owner=1, rule_id=5)
        fabric.install_rules([live])
        with pytest.raises(DuplicateRuleError):
            fabric.install_rules([rule(D3, 1, 2, owner=3), reuse()])
        assert fabric.rule_count() == 1
        assert fabric.rules_for(D1) == [live]
        assert fabric.rules_for(D3) == []
        assert fabric.remove_rules(1) == 1
        assert (fabric.rule_count(), fabric.rules_for(D1)) == (0, [])
        fabric.install_rules([reuse()])  # a removed rule frees its id
        assert fabric.rule_count() == 1

    def test_rule_id_repeated_in_batch_rejected(self, chain3):
        fabric = Fabric(chain3)
        with pytest.raises(DuplicateRuleError):
            fabric.install_rules(
                [rule(D1, 1, 2, owner=1, rule_id=6), rule(D2, 1, 2, owner=2, rule_id=6)]
            )
        assert fabric.rule_count() == 0
        assert fabric.rules_for(D1) == fabric.rules_for(D2) == []

    @pytest.mark.parametrize(
        "batch, error, message",
        [
            (lambda: [rule(device_id(77), 1, 2)], UnknownDeviceError,
             f"unknown device {device_id(77)}"),
            (lambda: [FlowRule(40, D1, TrafficSelector(), TrafficTreatment((2,)), 1)],
             ValueError, "rule 40 has an empty selector"),
            (lambda: [rule(D1, 1, (2, 9), rule_id=41)], ValueError,
             f"rule 41 outputs to missing port {D1}/9"),
            # the arrival port is checked like the outputs, and the valid
            # rule ahead of it in the batch is not installed either
            (lambda: [rule(D2, 1, 2),
                      FlowRule(43, D1, TrafficSelector(), TrafficTreatment((2,)), 7, in_port=99)],
             ValueError, f"rule 43 matches missing port {D1}/99"),
            (lambda: [rule(D1, 1, 2, priority=7), rule(D1, 1, 2, priority=7)],
             DuplicateRuleError, f"duplicate rule on {D1} (priority 7)"),
            (lambda: [rule(D1, 1, 2, rule_id=42), rule(D2, 1, 2, rule_id=42)],
             DuplicateRuleError, "rule id 42 is already in use"),
        ],
        ids=["unknown-device", "empty-selector", "missing-port", "missing-in-port",
             "duplicate-key", "duplicate-id"],
    )
    def test_rejections_of_external_rules(self, chain3, batch, error, message):
        fabric = Fabric(chain3)
        with pytest.raises(error) as caught:
            fabric.install_rules(batch())
        assert str(caught.value) == message
        assert fabric.rule_count() == 0


class TestRemove:
    def test_remove_by_owner(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2, owner=1), rule(D2, 1, 2, owner=1)])
        fabric.install_rules([rule(D3, 1, 2, owner=2)])
        assert fabric.remove_rules(1) == 2
        assert fabric.rule_count() == 1

    def test_remove_unknown_owner_is_zero(self, chain3):
        fabric = Fabric(chain3)
        assert fabric.remove_rules(42) == 0

    def test_key_freed_after_removal(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(D1, 1, 2)])
        fabric.remove_rules(1)
        fabric.install_rules([rule(D1, 1, 2)])  # same key installs again
        assert fabric.rule_count() == 1


class TestMatchOrder:
    def test_higher_priority_wins(self, chain3):
        fabric = Fabric(chain3)
        low = rule(D1, 1, 2, priority=100, owner=1)
        high = rule(D1, 1, 1, priority=200, owner=2)  # hairpins back out the edge
        fabric.install_rules([low, high])
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.delivered == frozenset({(ConnectPoint(D1, 1), 1)})
        assert report.misses == frozenset()
        assert packet_counts(fabric, high, low) == (1, 0)

    def test_equal_priority_lower_rule_id_wins(self, chain3):
        fabric = Fabric(chain3)
        first = rule(D1, 1, 2, owner=1)
        fabric.install_rules([first])
        # owner 2 hairpins the same traffic back out the edge; installed later
        bounce = rule(D1, 1, 1, owner=2)
        fabric.install_rules([bounce])
        assert first.rule_id < bounce.rule_id
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        # the earlier rule steers the packet toward d2, whose table is empty
        assert report.delivered == frozenset()
        assert report.misses == frozenset({D2})
        assert packet_counts(fabric, first) == (1,)
        assert packet_counts(fabric, bounce) == (0,)

    def test_higher_priority_wildcard_beats_exact_match(self, chain3):
        fabric = Fabric(chain3)
        exact = rule(D1, 1, 2, priority=100, owner=1, rule_id=10, eth_dst=DEFAULT_HEADER.eth_dst)
        fabric.install_rules([exact])  # its field combination is probed first
        wildcard = rule(D1, 1, 1, priority=200, owner=2, rule_id=20)
        fabric.install_rules([wildcard])
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.delivered == frozenset({(ConnectPoint(D1, 1), 1)})
        assert packet_counts(fabric, wildcard, exact) == (1, 0)

    def test_equal_priority_lower_id_wins_across_field_combinations(self, chain3):
        fabric = Fabric(chain3)
        exact = rule(D1, 1, 1, owner=1, rule_id=20, eth_dst=DEFAULT_HEADER.eth_dst)
        fabric.install_rules([exact])  # its field combination is probed first
        wildcard = rule(D1, 1, 2, owner=2, rule_id=10)
        fabric.install_rules([wildcard])
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        # the lower id steers the packet toward d2, whose table is empty
        assert report.misses == frozenset({D2})
        assert packet_counts(fabric, wildcard, exact) == (1, 0)

    def test_table_iterates_priority_then_id(self, chain3):
        fabric = Fabric(chain3)
        low = rule(D1, 1, 2, priority=10, owner=1)
        high = rule(D1, 2, 1, priority=500, owner=2)
        fabric.install_rules([low, high])
        assert [r.rule_id for r in fabric.rules_for(D1)] == [high.rule_id, low.rule_id]


def numbered(rule_id, priority, owner=1):
    return rule(D1, 1, 2, priority=priority, owner=owner, rule_id=rule_id)


def match_order(table):
    """(priority, rule_id) in iteration order; the walk must pick the first."""
    order = [(r.priority, r.rule_id) for r in table]
    hit = table.match(1, DEFAULT_HEADER)
    assert (hit and (hit.priority, hit.rule_id)) == (order[0] if order else None)
    return order


class TestTableOrder:
    def test_mixed_priorities_and_descending_ids(self):
        table = FlowTable(D1)
        for rule_id, priority in [(9, 100), (8, 300), (7, 100), (6, 200), (5, 300), (4, 100)]:
            table.add(numbered(rule_id, priority).row)
        assert match_order(table) == [(300, 5), (300, 8), (200, 6), (100, 4), (100, 7), (100, 9)]

    def test_rising_ids_at_one_priority_keep_insertion_order(self):
        table = FlowTable(D1)
        for rule_id in (3, 10, 11, 40):
            table.add(numbered(rule_id, 100).row)
        assert match_order(table) == [(100, 3), (100, 10), (100, 11), (100, 40)]

    def test_discard_and_readd_keep_order(self):
        table = FlowTable(D1)
        rules = [numbered(rule_id, 100) for rule_id in (1, 2, 3, 4)]
        for r in rules:
            table.add(r.row)
        table.discard(rules[1].row)
        table.discard(rules[3].row)
        assert match_order(table) == [(100, 1), (100, 3)]
        table.add(rules[1].row)
        table.add(rules[3].row)
        assert match_order(table) == [(100, 1), (100, 2), (100, 3), (100, 4)]
        table.discard(rules[0].row)
        assert match_order(table) == [(100, 2), (100, 3), (100, 4)]

    def test_discard_after_out_of_order_add_keeps_order(self):
        table = FlowTable(D1)
        rules = {
            rule_id: numbered(rule_id, priority)
            for rule_id, priority in [(1, 100), (2, 100), (3, 200), (4, 100), (5, 300)]
        }
        for r in rules.values():
            table.add(r.row)
        table.discard(rules[3].row)
        assert match_order(table) == [(300, 5), (100, 1), (100, 2), (100, 4)]
        table.add(numbered(6, 100).row)
        table.add(numbered(7, 200).row)
        assert match_order(table) == [(300, 5), (200, 7), (100, 1), (100, 2), (100, 4), (100, 6)]

    @pytest.mark.parametrize("empty", ["discard", "clear"])
    def test_emptied_table_keeps_match_order(self, chain3, empty):
        fabric = Fabric(chain3)
        fabric.install_rules([numbered(20, 100, owner=1), numbered(10, 100, owner=2)])
        table = fabric._tables[D1]
        assert match_order(table) == [(100, 10), (100, 20)]
        if empty == "clear":
            fabric.clear()
        else:
            fabric.remove_rules(1)
            fabric.remove_rules(2)
        assert match_order(table) == []
        low = numbered(31, 100, owner=4)
        hairpin = rule(D1, 1, 1, priority=200, owner=3, rule_id=30)
        fabric.install_rules([low, hairpin])
        assert match_order(table) == [(200, 30), (100, 31)]
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.delivered == frozenset({(ConnectPoint(D1, 1), 1)})
        assert packet_counts(fabric, hairpin, low) == (1, 0)


_MACS = ("aa:aa:aa:aa:aa:01", "aa:aa:aa:aa:aa:02")
# packets over the selector pools' values, untagged included; none carries
# vlan 8, so a rule on it never matches
_PACKETS = [
    (in_port, PacketHeader(src, dst, vlan))
    for in_port in (1, 2)
    for src in _MACS
    for dst in _MACS
    for vlan in (None, 7)
]
_in_ports = st.sampled_from([None, 1, 2])
_selectors = st.builds(
    TrafficSelector,
    eth_src=st.sampled_from([None, *_MACS]),
    eth_dst=st.sampled_from([None, *_MACS]),
    vlan=st.sampled_from([None, 7, 8]),
)
_table_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(1, 200),
            st.sampled_from([100, 200, 300]),
            _in_ports,
            _selectors,
        ),
        st.tuples(st.just("discard"), st.integers(0, 10**6)),
        st.just(("clear",)),
    ),
    max_size=40,
)


def linear_match(rules, in_port, header):
    """The reference: the first rule in match order that matches."""
    for r in sorted(rules, key=lambda r: (-r.priority, r.rule_id)):
        if matches(r, in_port, header):
            return r
    return None


class TestTupleSpaceMatch:
    @settings(max_examples=150, deadline=None)
    @given(ops=_table_ops)
    def test_match_equals_linear_scan(self, ops):
        table = FlowTable(D1)
        live: dict[int, FlowRule] = {}
        for op in ops:
            if op[0] == "add":
                _, rule_id, priority, in_port, selector = op
                if rule_id in live:
                    continue  # the fabric keeps rule ids unique
                new = FlowRule(
                    rule_id, D1, selector, TrafficTreatment(outputs=(2,)), 1, priority, in_port
                )
                table.add(new.row)
                live[rule_id] = new
            elif op[0] == "discard":
                if live:
                    gone = list(live.values())[op[1] % len(live)]
                    table.discard(gone.row)
                    del live[gone.rule_id]
            else:
                table.clear()
                live.clear()
            assert len(table) == len(live)
            assert list(table) == sorted(
                live.values(), key=lambda r: (-r.priority, r.rule_id)
            )
            for in_port, header in _PACKETS:
                assert table.match(in_port, header) == linear_match(
                    live.values(), in_port, header
                )


_rules = st.builds(
    lambda rule_id, device, in_port, outputs, selector, priority, owner: FlowRule(
        rule_id, device, selector, TrafficTreatment(outputs), owner, priority, in_port
    ),
    st.integers(1, 30),
    st.sampled_from([D1, D2, D3]),
    _in_ports,
    # port 9 exists on no device, so some batches are refused
    st.sampled_from([(1,), (2,), (1, 2), (9,)]),
    _selectors,
    st.sampled_from([100, 200]),
    st.integers(1, 3),
)
_fabric_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.lists(_rules, min_size=1, max_size=4)),
        st.tuples(st.just("remove"), st.integers(1, 3)),
    ),
    max_size=12,
)


class TestReadBack:
    """The fabric holds rows; what its readers build from them equals the
    FlowRules handed in."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_fabric_ops)
    def test_an_accepted_batch_reads_back_equal(self, ops):
        fabric = Fabric(CHAIN3)
        owned: dict[int, list[FlowRule]] = {}
        for op in ops:
            if op[0] == "install":
                try:
                    fabric.install_rules(op[1])
                except (DuplicateRuleError, UnknownDeviceError, ValueError):
                    pass  # refused: the reads below must not change
                else:
                    for r in op[1]:
                        owned.setdefault(r.owner_intent, []).append(r)
            else:
                assert fabric.remove_rules(op[1]) == len(owned.pop(op[1], []))
            live = [r for rules in owned.values() for r in rules]
            assert fabric.rule_count() == len(live)
            for owner in (1, 2, 3):
                assert fabric.rules_of(owner) == owned.get(owner, [])
                assert fabric.rows_of(owner) == tuple(r.row for r in owned.get(owner, []))
            for device in (D1, D2, D3):
                held = [r for r in live if r.device == device]
                assert fabric.rules_for(device) == sorted(
                    held, key=lambda r: (-r.priority, r.rule_id)
                )
                for in_port, header in _PACKETS:
                    assert fabric._tables[device].match(in_port, header) == linear_match(
                        held, in_port, header
                    )


class TestPacketCounts:
    def test_counts_are_each_rules_hits_and_restart_on_reinstall(self, chain3):
        fabric = Fabric(chain3)
        tagged = PacketHeader(DEFAULT_HEADER.eth_src, DEFAULT_HEADER.eth_dst, 7)
        sel = {"eth_dst": DEFAULT_HEADER.eth_dst}
        chain = [rule(d, 1, 2, owner=1, rule_id=n, **sel) for n, d in ((1, D1), (2, D2), (3, D3))]
        hairpin = rule(D1, 1, 1, priority=200, owner=2, rule_id=4, vlan=7)
        fabric.install_rules(chain)
        fabric.install_rules([hairpin])

        def counts():
            by_owner = {r.rule_id: r.packet_count for o in (1, 2) for r in fabric.rules_of(o)}
            by_device = {r.rule_id: r.packet_count for d in (D1, D2, D3) for r in fabric.rules_for(d)}
            assert by_owner == by_device
            return by_owner

        assert counts() == {1: 0, 2: 0, 3: 0, 4: 0}
        for header in (DEFAULT_HEADER, tagged, DEFAULT_HEADER, tagged, DEFAULT_HEADER):
            fabric.inject(ConnectPoint(D1, 1), header)
        # three untagged walks cross the chain; the hairpin takes both tagged ones
        assert counts() == {1: 3, 2: 3, 3: 3, 4: 2}
        assert fabric._tables[D1].match(1, tagged).packet_count == 2
        assert fabric._tables[D2].match(1, DEFAULT_HEADER).packet_count == 3
        assert [r.packet_count for r in [*chain, hairpin]] == [0, 0, 0, 0]  # handed-in values

        # removed, then reinstalled with the same ids and match keys
        fabric.remove_rules(2)
        assert counts() == {1: 3, 2: 3, 3: 3}
        fabric.install_rules([hairpin])
        assert counts() == {1: 3, 2: 3, 3: 3, 4: 0}
        fabric.inject(ConnectPoint(D1, 1), tagged)
        assert counts() == {1: 3, 2: 3, 3: 3, 4: 1}
        fabric.remove_rules(1)
        fabric.install_rules(chain)
        assert counts() == {1: 0, 2: 0, 3: 0, 4: 1}
        fabric.clear()
        fabric.install_rules(chain)
        fabric.install_rules([hairpin])
        assert counts() == {1: 0, 2: 0, 3: 0, 4: 0}


class TestInstallCopy:
    """`install_copy` against `install_rules` given the same copies, on twin
    fabrics that hold one template batch (owner 1) and a rule of owner 2."""

    TEMPLATE = TrafficSelector(eth_dst=_MACS[1])
    OTHER = TrafficSelector(eth_src=_MACS[0], vlan=7)

    @classmethod
    def twin(cls, chain3, template_in_port=1):
        fabric = Fabric(chain3)
        fabric.install_rules([  # distinct (device, in_port) places, as a compiler makes them
            FlowRule(1, D1, cls.TEMPLATE, TrafficTreatment((2,)), 1, 100, template_in_port),
            FlowRule(2, D2, cls.TEMPLATE, TrafficTreatment((2,)), 1, 100, 1),
            FlowRule(3, D2, cls.TEMPLATE, TrafficTreatment((1,)), 1, 100, 2),
            FlowRule(4, D3, cls.TEMPLATE, TrafficTreatment((1, 2)), 1, 100, 1),
        ])
        fabric.install_rules([FlowRule(5, D1, cls.TEMPLATE, TrafficTreatment((2,)), 2, 150, 1)])
        return fabric

    @staticmethod
    def copies(like, owner, selector, priority, rule_ids):
        return [
            FlowRule(rule_id, r.device, selector, r.treatment, owner, priority, r.in_port)
            for rule_id, r in zip(rule_ids, like)
        ]

    @staticmethod
    def observed(fabric):
        """Everything a reader of the fabric can see, the walk's lookups included."""
        devices = (D1, D2, D3)
        return (
            fabric.rule_count(),
            {owner: fabric.rules_of(owner) for owner in (1, 2, 3)},
            {device: fabric.rules_for(device) for device in devices},
            [fabric._tables[device].match(*packet) for device in devices for packet in _PACKETS],
        )

    @staticmethod
    def outcome(install):
        try:
            return install()
        except (DuplicateRuleError, ValueError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize(
        "selector, priority",
        [(TEMPLATE, 100), (OTHER, 100), (TEMPLATE, 300), (OTHER, 50)],
        ids=["template-selector", "other-selector", "higher-priority", "lower-priority"],
    )
    def test_a_copy_installs_what_install_rules_would(self, chain3, selector, priority):
        copied, installed = self.twin(chain3), self.twin(chain3)
        like = copied.rows_of(1)
        assert copied.install_copy(like, 3, selector, priority, iter(range(10, 99)).__next__) == 4
        installed.install_rules(
            self.copies(installed.rules_of(1), 3, selector, priority, range(10, 99))
        )
        assert self.observed(copied) == self.observed(installed)
        assert [r.rule_id for r in copied.rules_of(3)] == [10, 11, 12, 13]
        assert copied.remove_rules(3) == installed.remove_rules(3) == 4
        assert self.observed(copied) == self.observed(installed) == self.observed(self.twin(chain3))

    @pytest.mark.parametrize(
        "owner, selector, priority, rule_ids, template_in_port, expected",
        [
            # a second controller on the same fabric reuses owner and rule ids
            (2, TEMPLATE, 150, range(10, 99), 1,
             (DuplicateRuleError, f"duplicate rule on {D1} (priority 150)")),
            (2, OTHER, 100, range(10, 99), 1, 4),  # a live owner whose keys differ installs
            (3, OTHER, 100, range(5, 99), 1, (DuplicateRuleError, "rule id 5 is already in use")),
            (3, OTHER, 100, [20] * 4, 1, (DuplicateRuleError, "rule id 20 is already in use")),
            # a template rule that matches any port, copied with no header field
            (3, TrafficSelector(), 100, range(10, 99), None,
             (ValueError, "rule 10 has an empty selector")),
        ],
        ids=["live-owner-clash", "live-owner-no-clash", "live-id", "repeated-id", "empty-match"],
    )
    def test_what_a_copy_can_change_is_checked_as_install_rules_checks_it(
        self, chain3, owner, selector, priority, rule_ids, template_in_port, expected
    ):
        copied, installed = self.twin(chain3, template_in_port), self.twin(chain3, template_in_port)
        like, rules = copied.rows_of(1), installed.rules_of(1)
        assert self.outcome(
            lambda: installed.install_rules(self.copies(rules, owner, selector, priority, rule_ids))
        ) == expected
        assert self.outcome(
            lambda: copied.install_copy(like, owner, selector, priority, iter(rule_ids).__next__)
        ) == expected
        assert self.observed(copied) == self.observed(installed)
        if expected != 4:  # a refused copy changes nothing
            assert self.observed(copied) == self.observed(self.twin(chain3, template_in_port))


class TestInstallPlaces:
    """`install_places` against `install_rules` given the rules its places
    make, on twin fabrics that hold one rule of owner 2."""

    TEMPLATE = TrafficSelector(eth_dst=_MACS[1])
    OTHER = TrafficSelector(eth_src=_MACS[0], vlan=7)
    # distinct (device, in_port) places, as a compiler makes them
    PLACES = [
        (D1, 1, TrafficTreatment((2,))),
        (D2, 1, TrafficTreatment((2,))),
        (D2, 2, TrafficTreatment((1,))),
        (D3, 1, TrafficTreatment((1, 2))),
    ]

    @classmethod
    def twin(cls, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([FlowRule(5, D1, cls.TEMPLATE, TrafficTreatment((2,)), 2, 150, 1)])
        return fabric

    @staticmethod
    def rules(places, owner, selector, priority, rule_ids):
        return [
            FlowRule(rule_id, device, selector, treatment, owner, priority, in_port)
            for rule_id, (device, in_port, treatment) in zip(rule_ids, places)
        ]

    @staticmethod
    def outcome(install):
        try:
            install()
        except (DuplicateRuleError, UnknownDeviceError, ValueError) as exc:
            return type(exc), str(exc)
        return "installed"

    @pytest.mark.parametrize(
        "selector, priority",
        [(TEMPLATE, 100), (OTHER, 150), (TrafficSelector(), 100)],
        ids=["one-field", "two-fields", "in-port-only"],
    )
    def test_places_install_what_install_rules_would(self, chain3, selector, priority):
        placed, installed = self.twin(chain3), self.twin(chain3)
        rows = placed.install_places(self.PLACES, 3, selector, priority, iter(range(10, 99)).__next__)
        installed.install_rules(self.rules(self.PLACES, 3, selector, priority, range(10, 99)))
        assert rows is placed.rows_of(3)
        # the same rows in the same order, match keys included
        assert rows == installed.rows_of(3)
        assert [row[0] for row in rows] == [10, 11, 12, 13]
        assert TestInstallCopy.observed(placed) == TestInstallCopy.observed(installed)
        assert placed.remove_rules(3) == installed.remove_rules(3) == 4
        assert TestInstallCopy.observed(placed) == TestInstallCopy.observed(installed) == (
            TestInstallCopy.observed(self.twin(chain3))
        )

    def test_no_places_install_nothing(self, chain3):
        placed, installed = self.twin(chain3), self.twin(chain3)
        assert placed.install_places([], 3, self.TEMPLATE, 100, iter(range(10, 99)).__next__) == ()
        assert installed.install_rules([]) == 0
        assert placed._by_owner == installed._by_owner  # no empty entry for the owner
        assert TestInstallCopy.observed(placed) == TestInstallCopy.observed(installed)

    @pytest.mark.parametrize(
        "swap, owner, selector, priority, rule_ids, expected",
        [
            ({1: (device_id(77), 1, TrafficTreatment((2,)))}, 3, TEMPLATE, 100, range(10, 99),
             (UnknownDeviceError, f"unknown device {device_id(77)}")),
            ({1: (D2, 1, TrafficTreatment((9,)))}, 3, TEMPLATE, 100, range(10, 99),
             (ValueError, f"rule 11 outputs to missing port {D2}/9")),
            ({1: (D2, 7, TrafficTreatment((2,)))}, 3, TEMPLATE, 100, range(10, 99),
             (ValueError, f"rule 11 matches missing port {D2}/7")),
            ({1: (D2, None, TrafficTreatment((2,)))}, 3, TrafficSelector(), 100, range(10, 99),
             (ValueError, "rule 11 has an empty selector")),
            ({3: (D2, 1, TrafficTreatment((1,)))}, 3, TEMPLATE, 100, range(10, 99),
             (DuplicateRuleError, f"duplicate rule on {D2} (priority 100)")),
            ({}, 3, OTHER, 100, range(5, 99), (DuplicateRuleError, "rule id 5 is already in use")),
            ({}, 3, OTHER, 100, [20] * 4, (DuplicateRuleError, "rule id 20 is already in use")),
            # a second controller on the same fabric reuses owners
            ({}, 2, TEMPLATE, 150, range(10, 99),
             (DuplicateRuleError, f"duplicate rule on {D1} (priority 150)")),
            ({}, 2, OTHER, 100, range(10, 99), "installed"),  # a live owner whose keys differ
            # the first rule that fails names the refusal, whichever check finds it
            ({2: (D2, 2, TrafficTreatment((9,)))}, 3, OTHER, 100, [5, 30, 31, 32],
             (DuplicateRuleError, "rule id 5 is already in use")),
            ({2: (D2, 1, TrafficTreatment((1,))), 3: (device_id(77), 1, TrafficTreatment((2,)))},
             3, OTHER, 100, range(10, 99), (DuplicateRuleError, f"duplicate rule on {D2} (priority 100)")),
        ],
        ids=[
            "unknown-device", "missing-output", "missing-in-port", "empty-match", "named-twice",
            "live-id", "repeated-id", "live-owner-clash", "live-owner-no-clash",
            "live-id-before-bad-port", "named-twice-before-unknown-device",
        ],
    )
    def test_a_refusal_is_install_rules_refusal(
        self, chain3, swap, owner, selector, priority, rule_ids, expected
    ):
        places = [swap.get(n, place) for n, place in enumerate(self.PLACES)]
        placed, installed = self.twin(chain3), self.twin(chain3)
        returned = []
        assert self.outcome(
            lambda: installed.install_rules(self.rules(places, owner, selector, priority, rule_ids))
        ) == expected
        assert self.outcome(
            lambda: returned.append(
                placed.install_places(places, owner, selector, priority, iter(rule_ids).__next__)
            )
        ) == expected
        assert TestInstallCopy.observed(placed) == TestInstallCopy.observed(installed)
        assert placed.rows_of(owner) == installed.rows_of(owner)
        if expected == "installed":
            assert returned == [placed.rows_of(owner)] and len(returned[0]) == 5
        else:  # a refused batch changes nothing
            assert TestInstallCopy.observed(placed) == TestInstallCopy.observed(self.twin(chain3))


class TestInject:
    def install_chain(self, fabric):
        sel = {"eth_dst": DEFAULT_HEADER.eth_dst}
        fabric.install_rules(
            [rule(D1, 1, 2, **sel), rule(D2, 1, 2, **sel), rule(D3, 1, 2, **sel)]
        )

    def test_chain_delivery(self, chain3):
        fabric = Fabric(chain3)
        self.install_chain(fabric)
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.delivered == frozenset({(ConnectPoint(D3, 2), 3)})
        assert report.dropped_at == frozenset()
        assert report.misses == frozenset()

    def test_hop_count_includes_ingress_device(self, chain3):
        fabric = Fabric(chain3)
        self.install_chain(fabric)
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        ((_, hops),) = report.delivered
        assert hops == 3

    def test_miss_recorded(self, chain3):
        fabric = Fabric(chain3)
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.misses == frozenset({D1})
        assert report.delivered == frozenset()

    def test_unknown_point_rejected(self, chain3):
        fabric = Fabric(chain3)
        with pytest.raises(UnknownDeviceError):
            fabric.inject(ConnectPoint(D1, 9), DEFAULT_HEADER)

    def test_counters_increment_per_match(self, chain3):
        fabric = Fabric(chain3)
        self.install_chain(fabric)
        fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        counts = [r.packet_count for d in (D1, D2, D3) for r in fabric.rules_for(d)]
        assert counts == [2, 2, 2]

    def test_multi_output_duplicates_packet(self, star):
        hub = device_id(9)
        fabric = Fabric(star)
        fabric.install_rules(
            [
                rule(D1, 1, 2, owner=7),  # edge in, toward the hub
                rule(hub, 1, (2, 3), owner=7),  # copy to both other spokes
                rule(D2, 1, 2, owner=7),
                rule(D3, 1, 2, owner=7),
            ]
        )
        report = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert report.delivered == frozenset(
            {(ConnectPoint(D2, 2), 3), (ConnectPoint(D3, 2), 3)}
        )

    def test_loop_raises(self, star):
        hub = device_id(9)
        fabric = Fabric(star)
        # d2 -> hub -> d3 -> hub -> d2 -> ... every device hairpins back
        fabric.install_rules(
            [
                rule(D2, 2, 1, owner=1),  # edge ingress joins the cycle
                rule(D2, 1, 1, owner=1),
                rule(D3, 1, 1, owner=1),
                rule(hub, 2, 3, owner=1),
                rule(hub, 3, 2, owner=1),
            ]
        )
        with pytest.raises(LoopDetectedError):
            fabric.inject(ConnectPoint(D2, 2), DEFAULT_HEADER)

    def test_vlan_tag_is_matched_at_every_hop(self, chain3):
        fabric = Fabric(chain3)
        fabric.install_rules([rule(d, 1, 2, vlan=33) for d in (D1, D2, D3)])
        tagged = PacketHeader(DEFAULT_HEADER.eth_src, DEFAULT_HEADER.eth_dst, 33)
        report = fabric.inject(ConnectPoint(D1, 1), tagged)
        assert report.delivered == frozenset({(ConnectPoint(D3, 2), 3)})
        untagged = fabric.inject(ConnectPoint(D1, 1), DEFAULT_HEADER)
        assert (untagged.delivered, untagged.misses) == (frozenset(), frozenset({D1}))

    def test_clear(self, chain3):
        fabric = Fabric(chain3)
        self.install_chain(fabric)
        fabric.clear()
        assert fabric.rule_count() == 0
        fabric.install_rules([rule(D1, 1, 2)])  # keys were released too
