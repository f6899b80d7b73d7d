"""The model's value classes: equality, hashing, ordering and immutability."""
import copy
import os
import pickle
import subprocess
import sys

import pytest

from intentd.cli import TimedResult
from intentd.fabric import (
    DeliveryReport,
    FlowRule,
    PacketHeader,
    TrafficSelector,
    TrafficTreatment,
)
from intentd.intents import (
    HostToHost,
    Intent,
    IntentState,
    MultiToSinglePoint,
    PointToPoint,
    SingleToMultiPoint,
)
from intentd.topology import ConnectPoint, Link, Path
from conftest import D1, D2, D3

A, B = ConnectPoint(D1, 1), ConnectPoint(D2, 2)
MAC1, MAC2 = "00:00:00:00:00:01", "00:00:00:00:00:02"

# class name -> (a factory whose every call builds a new, equal instance, a field)
FROZEN = {
    "ConnectPoint": (lambda: ConnectPoint(D1, 1), "port"),
    "Link": (lambda: Link(A, B, 2.0), "weight"),
    "Path": (lambda: Path((Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1)),)), "links"),
    "PacketHeader": (lambda: PacketHeader(MAC1, MAC2, 7), "vlan"),
    "TrafficSelector": (lambda: TrafficSelector(MAC1, MAC2, 7), "eth_dst"),
    "TrafficTreatment": (lambda: TrafficTreatment([2, 3]), "outputs"),
    "DeliveryReport": (
        lambda: DeliveryReport(frozenset({(B, 2)}), frozenset(), frozenset()), "misses"
    ),
    "PointToPoint": (lambda: PointToPoint(A, B), "egress"),
    "SingleToMultiPoint": (lambda: SingleToMultiPoint(A, [B]), "egresses"),
    "MultiToSinglePoint": (lambda: MultiToSinglePoint([A], B), "ingresses"),
    "HostToHost": (lambda: HostToHost("h1", "h2"), "two"),
    "TimedResult": (lambda: TimedResult(1, 1, 0, 0.5), "failed"),
}


@pytest.mark.parametrize("make, field", FROZEN.values(), ids=list(FROZEN))
class TestFrozen:
    def test_equal_values_are_equal_and_hash_equal(self, make, field):
        one, two = make(), make()
        assert one is not two
        assert one == two and not one != two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_fields_refuse_assignment(self, make, field):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == make()

    def test_copies_and_pickles_are_equal(self, make, field):
        value = make()
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert again == value and type(again) is type(value)


# the classes that keep their hash in a slot, set by __init__
KEPT_HASH = ("ConnectPoint", "PointToPoint", "SingleToMultiPoint", "MultiToSinglePoint", "HostToHost")

# run under another hash seed: every unpickled value hashes as its fields do
# there, and finds an equal value built there in a dict
UNPICKLE_SCRIPT = """
import pickle, sys
from test_records import FROZEN
for name, value in pickle.loads(sys.stdin.buffer.read()).items():
    assert hash(value) == hash(value._values), name
    assert {FROZEN[name][0](): name}.get(value) == name, name
print(hash(("seed", 1)))
"""


def test_a_kept_hash_is_rebuilt_by_unpickling():
    values = {name: FROZEN[name][0]() for name in KEPT_HASH}
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    path = os.pathsep.join(filter(None, (src, here, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", UNPICKLE_SCRIPT],
        input=pickle.dumps(values), capture_output=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr.decode()
    assert int(done.stdout) != hash(("seed", 1))  # the two processes' seeds differ


class TestEquality:
    def test_same_fields_of_another_class_differ(self):
        assert PacketHeader(MAC1, MAC2, 7) != TrafficSelector(MAC1, MAC2, 7)
        assert PointToPoint(A, B) != MultiToSinglePoint([A], B)

    def test_a_point_is_not_its_tuple(self):
        assert ConnectPoint(D1, 1) != (D1, 1)
        assert (D1, 1) != ConnectPoint(D1, 1)
        with pytest.raises(TypeError):
            ConnectPoint(D1, 1) < (D1, 2)

    def test_a_field_that_differs_makes_values_differ(self):
        assert Link(A, B, 1.0) != Link(A, B, 2.0)
        assert TrafficSelector(eth_src=MAC1) != TrafficSelector(eth_dst=MAC1)
        assert HostToHost("h1", "h2") != HostToHost("h2", "h1")

    def test_repr_names_every_field(self):
        assert repr(ConnectPoint(D1, 1)) == f"ConnectPoint(device='{D1}', port=1)"
        assert repr(TrafficTreatment((2,))) == "TrafficTreatment(outputs=(2,))"


class TestConnectPointOrder:
    def test_sorts_by_device_then_port(self):
        points = [
            ConnectPoint(D2, 1), ConnectPoint(D1, 10), ConnectPoint(D3, 1), ConnectPoint(D1, 9),
        ]
        assert sorted(points) == [
            ConnectPoint(D1, 9), ConnectPoint(D1, 10), ConnectPoint(D2, 1), ConnectPoint(D3, 1),
        ]

    def test_every_comparison(self):
        low, high = ConnectPoint(D1, 2), ConnectPoint(D1, 3)
        assert low < high and low <= high and high > low and high >= low
        assert low <= ConnectPoint(D1, 2) and low >= ConnectPoint(D1, 2)
        assert max([high, low]) is high and min([high, low]) is low


class TestMutable:
    def rule(self, **kw):
        return FlowRule(1, D1, TrafficSelector(eth_dst=MAC2), TrafficTreatment((2,)), 7, **kw)

    def test_rules_compare_by_fields_and_do_not_hash(self):
        assert self.rule(in_port=1) == self.rule(in_port=1)
        assert self.rule(in_port=1) != self.rule(in_port=2)
        with pytest.raises(TypeError):
            hash(self.rule())

    def test_match_key_is_stored_at_construction(self):
        rule = self.rule(in_port=3)
        assert rule.match_key == (3, None, MAC2, None)
        assert rule.match_key is rule.match_key
        rule.packet_count += 1
        assert rule.packet_count == 1

    def test_intents_compare_by_fields_and_change_state(self):
        def intent():
            return Intent(1, PointToPoint(A, B), TrafficSelector(), 100, IntentState.SUBMITTED)

        one = intent()
        assert one == intent()
        assert (one.failure, one.child_ids, one.parent_id) == (None, None, None)
        one.state = IntentState.COMPILING
        assert one != intent()
        with pytest.raises(TypeError):
            hash(one)
