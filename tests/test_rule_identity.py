"""Rule sets stay bit-identical while compilation reuses work.

The digests below pin the rules that the controller produced before paths
were memoised per topology, rule keys computed once and live requests
stamped from a template; any change to a rule id, device, selector,
treatment, priority or owner moves them.
"""
import hashlib
import random

import pytest

from intentd.errors import NoPathError, UnknownDeviceError
from intentd.fabric import TrafficSelector
from intentd.intents import Controller, IntentState
from intentd.topology import ConnectPoint, Link, Topology, device_id, shortest_path
from conftest import D1, D2, D3
from randnet import random_intent, random_topology

INSTANCES = 200
INTENTS_PER_INSTANCE = 5
# sha256 of canonical_rules() over every instance, from the code before the
# path memo, the precomputed rule keys and the unsorted table walk
PINNED_DIGEST = "6f5f16af9d3151a249a95289b4b5b3459a609cbdaa215b5a343bbc81a957a4f2"
# the same over repeat_instance(), from the code that compiled every submit
REPEAT_DIGEST = "c15e2d7f55b45a9b8060d2bd6fa9331ac89b63b93f0e51abd803d4f52b240325"


def canonical_rules(controller: Controller, intent_id: int) -> list[tuple]:
    """(device, rule_id, selector, treatment, priority, owner) per rule.

    A treatment is its output ports only; the digest was taken when it also
    had a drop flag and a vlan action, so the row keeps their values for an
    output rule, False and None, as constants.
    """
    out = []
    for r in sorted(controller.fabric.rules_of(intent_id), key=lambda r: r.rule_id):
        sel = r.selector
        out.append(
            (
                r.device,
                r.rule_id,
                (r.in_port, sel.eth_src, sel.eth_dst, sel.vlan),
                (r.treatment.outputs, False, None),
                r.priority,
                r.owner_intent,
            )
        )
    return out


def submit_instance(seed: int) -> tuple[Topology, Controller, list[int]]:
    """Several seeded intents on one shared topology, so later ones hit a warm memo."""
    rng = random.Random(seed)
    topo = random_topology(rng)
    controller = Controller(topo)
    ids = []
    for k in range(INTENTS_PER_INSTANCE):
        request = random_intent(rng, topo)
        if k % 2:
            selector = TrafficSelector(eth_dst="aa:aa:aa:aa:aa:%02x" % k)
            ids.append(controller.submit(request, selector=selector, priority=100 + k))
        else:
            ids.append(controller.submit(request))
    return topo, controller, ids


def repeat_instance(seed: int) -> tuple[Topology, Controller, list[int]]:
    """Each seeded request submitted 2-4 times, with its own selector and
    priority each time.  Then its first copy is withdrawn and it is submitted
    once more, so a template outlives the intent that it was compiled for."""
    rng = random.Random(seed)
    topo = random_topology(rng)
    controller = Controller(topo)
    ids = []
    for k in range(INTENTS_PER_INSTANCE):
        request = random_intent(rng, topo)

        def submit(j: int) -> int:
            selector = TrafficSelector(eth_dst="aa:aa:aa:aa:%02x:%02x" % (k, j)) if j % 2 else None
            return controller.submit(request, selector=selector, priority=100 + 10 * k + j)

        copies = [submit(j) for j in range(rng.randint(2, 4))]
        if controller.get(copies[0]).state is IntentState.INSTALLED:
            controller.withdraw(copies[0])
        copies.append(submit(len(copies)))
        ids += copies
    return topo, controller, ids


def rule_set_digest(instance=submit_instance) -> str:
    digest = hashlib.sha256()
    for seed in range(INSTANCES):
        _, controller, ids = instance(seed)
        for intent_id in ids:
            state = controller.get(intent_id).state.value
            digest.update(repr((seed, intent_id, state, canonical_rules(controller, intent_id))).encode())
    return digest.hexdigest()


def test_rule_sets_match_pinned_digest():
    assert rule_set_digest() == PINNED_DIGEST


def test_repeated_requests_match_pinned_digest():
    assert rule_set_digest(repeat_instance) == REPEAT_DIGEST


def test_warm_paths_equal_cold_paths():
    for seed in range(INSTANCES):
        warm, _, _ = submit_instance(seed)
        cold = random_topology(random.Random(seed))
        assert cold == warm
        for src in warm.device_ids:
            for dst in warm.device_ids:
                assert shortest_path(warm, src, dst) == shortest_path(cold, src, dst)


def test_errors_still_raise_on_a_warm_memo():
    # d1 - d2 linked, d3 isolated
    topo = Topology(
        {D1: [1, 2], D2: [1, 2], D3: [1]},
        [Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1))],
    )
    first = shortest_path(topo, D1, D2)
    assert shortest_path(topo, D1, D2) is first
    for _ in range(2):
        with pytest.raises(NoPathError):
            shortest_path(topo, D1, D3)
        with pytest.raises(UnknownDeviceError):
            shortest_path(topo, D1, device_id(99))
        with pytest.raises(UnknownDeviceError):
            shortest_path(topo, device_id(99), D1)
