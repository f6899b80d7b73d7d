"""Topology loading, validation, serialization, and path computation."""
import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentd.errors import (
    NoPathError,
    TopologyParseError,
    TopologyValidationError,
    UnknownDeviceError,
)
from intentd.topology import (
    MAC_RE,
    ConnectPoint,
    Link,
    Path,
    Topology,
    default_topology,
    device_id,
    host_mac,
    load_topology,
    serialize_topology,
    shortest_path,
)
from conftest import D1, D2, D3, CHAIN3_DOCUMENT
from randnet import brute_force_path, random_topology


class TestConnectPoint:
    def test_string_form_round_trips(self):
        cp = ConnectPoint(D1, 7)
        assert str(cp) == f"{D1}/7"
        assert ConnectPoint.parse(str(cp)) == cp

    @pytest.mark.parametrize(
        "text",
        [
            "", "of:1/1", f"{D1}", f"{D1}/", f"{D1}/x", f"{D1}/0", "OF:0000000000000001/1",
            # int() takes each of these, but none is the string form of its port
            f"{D1}/1_0", f"{D1}/ 1", f"{D1}/+1", f"{D1}/\u0661", f"{D1}/01",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ConnectPoint.parse(text)

    @given(n=st.integers(min_value=1, max_value=2**40), port=st.integers(1, 4096))
    def test_parse_format_identity(self, n, port):
        cp = ConnectPoint(device_id(n), port)
        assert ConnectPoint.parse(str(cp)) == cp


class TestLoading:
    def test_chain_document_loads(self, chain3):
        assert chain3.device_ids == (D1, D2, D3)
        assert chain3.ports(D2) == frozenset({1, 2})
        # declared once, stored in both directions
        assert len(chain3.links) == 4
        assert chain3.hosts == {
            "h1": ConnectPoint(D1, 1),
            "h2": ConnectPoint(D3, 2),
        }

    def test_accepts_json_text(self):
        assert load_topology(json.dumps(CHAIN3_DOCUMENT)) == load_topology(CHAIN3_DOCUMENT)

    def test_parse_error_on_bad_json(self):
        with pytest.raises(TopologyParseError):
            load_topology("{not json")

    def test_link_to_unknown_device_names_it(self):
        doc = {
            "devices": [{"id": D1, "ports": [1]}],
            "links": [{"src": f"{D1}/1", "dst": f"{D2}/1"}],
        }
        with pytest.raises(TopologyValidationError, match=D2):
            load_topology(doc)

    def test_link_to_unknown_port_names_it(self):
        doc = {
            "devices": [{"id": D1, "ports": [1]}, {"id": D2, "ports": [1]}],
            "links": [{"src": f"{D1}/9", "dst": f"{D2}/1"}],
        }
        with pytest.raises(TopologyValidationError, match=f"{D1}/9"):
            load_topology(doc)

    def test_port_used_by_two_links_rejected(self):
        doc = {
            "devices": [
                {"id": D1, "ports": [1]},
                {"id": D2, "ports": [1]},
                {"id": D3, "ports": [1]},
            ],
            "links": [
                {"src": f"{D1}/1", "dst": f"{D2}/1"},
                {"src": f"{D1}/1", "dst": f"{D3}/1"},
            ],
        }
        with pytest.raises(TopologyValidationError, match=f"{D1}/1"):
            load_topology(doc)

    def test_self_loop_rejected(self):
        doc = {
            "devices": [{"id": D1, "ports": [1, 2]}],
            "links": [{"src": f"{D1}/1", "dst": f"{D1}/2"}],
        }
        with pytest.raises(TopologyValidationError):
            load_topology(doc)

    @pytest.mark.parametrize(
        "device, named",
        [
            ({"id": D1, "ports": 5}, f"{D1} ports"),
            ({"id": 5, "ports": [1]}, "'id': 5"),
            ({"id": D1, "ports": [[1]]}, f"{D1} has a port"),
            ({"id": D1, "ports": [True, 2]}, f"{D1} has a port"),
        ],
        ids=["ports-not-a-list", "id-not-a-string", "port-not-an-integer", "port-a-boolean"],
    )
    def test_wrongly_typed_device_names_the_entry(self, device, named):
        with pytest.raises(TopologyValidationError, match=named):
            load_topology({"devices": [device]})

    def test_boolean_port_rejected_by_the_constructor(self):
        with pytest.raises(TopologyValidationError, match=f"{D1} has a port"):
            Topology({D1: [True, 2]}, [])

    @pytest.mark.parametrize(
        "doc",
        [
            {"devices": 5},
            {"links": 5},
            dict(CHAIN3_DOCUMENT, hosts=[{"id": "h1", "attach": 5}]),
            dict(CHAIN3_DOCUMENT, hosts=[{"id": ["h1"], "attach": f"{D1}/1"}]),
        ],
        ids=["devices-not-a-list", "links-not-a-list", "attach-not-a-string",
             "host-id-not-a-string"],
    )
    def test_wrongly_typed_section_or_host_rejected(self, doc):
        with pytest.raises(TopologyValidationError):
            load_topology(doc)

    def test_duplicate_device_rejected(self):
        doc = {"devices": [{"id": D1, "ports": [1]}, {"id": D1, "ports": [2]}]}
        with pytest.raises(TopologyValidationError, match=D1):
            load_topology(doc)

    def test_host_on_infrastructure_port_rejected(self):
        doc = dict(CHAIN3_DOCUMENT, hosts=[{"id": "h1", "attach": f"{D1}/2"}])
        with pytest.raises(TopologyValidationError, match="h1"):
            load_topology(doc)

    def test_host_on_unknown_point_rejected(self):
        doc = dict(CHAIN3_DOCUMENT, hosts=[{"id": "hx", "attach": f"{D1}/99"}])
        with pytest.raises(TopologyValidationError, match="hx"):
            load_topology(doc)

    def test_non_positive_weight_rejected(self):
        doc = {
            "devices": [{"id": D1, "ports": [1]}, {"id": D2, "ports": [1]}],
            "links": [{"src": f"{D1}/1", "dst": f"{D2}/1", "weight": 0}],
        }
        message = f"^non-positive weight on link {D1}/1->{D2}/1$"
        with pytest.raises(TopologyValidationError, match=message):
            load_topology(doc)

    @pytest.mark.parametrize(
        "weight",
        ["Infinity", "-Infinity", "1e309", "NaN", "1" + "0" * 400],
        ids=["Infinity", "-Infinity", "1e309", "NaN", "int-past-float-range"],
    )
    def test_non_finite_weight_rejected(self, weight):
        text = (
            f'{{"devices": [{{"id": "{D1}", "ports": [1]}}, {{"id": "{D2}", "ports": [1]}}],'
            f' "links": [{{"src": "{D1}/1", "dst": "{D2}/1", "weight": {weight}}}]}}'
        )
        with pytest.raises(TopologyValidationError) as info:
            load_topology(text)
        assert str(info.value).startswith("non-finite weight ")
        assert str(info.value).endswith(f" on link {D1}/1->{D2}/1")

    def test_boolean_weight_rejected(self):
        doc = {
            "devices": [{"id": D1, "ports": [1]}, {"id": D2, "ports": [1]}],
            "links": [{"src": f"{D1}/1", "dst": f"{D2}/1", "weight": True}],
        }
        with pytest.raises(TopologyValidationError, match="weight"):
            load_topology(doc)


class TestEdgePorts:
    def test_partition(self, chain3):
        assert chain3.edge_points() == (ConnectPoint(D1, 1), ConnectPoint(D3, 2))

    def test_link_from(self, chain3):
        # the edge points are the ports no link leaves
        by_src = {l.src: l for l in chain3.links}
        assert by_src[ConnectPoint(D1, 2)].dst == ConnectPoint(D2, 1)
        assert ConnectPoint(D1, 1) not in by_src
        assert not set(by_src) & set(chain3.edge_points())


class TestSerialization:
    def test_round_trip_on_chain(self, chain3):
        assert load_topology(serialize_topology(chain3)) == chain3

    def test_canonical_form_is_stable(self, chain3):
        doc = serialize_topology(chain3)
        assert serialize_topology(load_topology(doc)) == doc

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), weighted=st.booleans())
    def test_round_trip_random(self, seed, weighted):
        topo = random_topology(random.Random(seed), weighted=weighted)
        doc = serialize_topology(topo)
        again = load_topology(doc)
        assert again == topo
        assert serialize_topology(again) == doc


class TestHostMac:
    def test_mac_like_id_passes_through(self):
        assert host_mac("00:00:00:00:00:01") == "00:00:00:00:00:01"
        assert host_mac("AA:BB:CC:DD:EE:FF") == "aa:bb:cc:dd:ee:ff"

    def test_other_ids_hash_to_local_macs(self):
        mac = host_mac("h1")
        assert mac.startswith("02:")
        assert mac == host_mac("h1")
        assert mac != host_mac("h2")

    def test_hashed_macs_are_pinned(self):
        # the host-to-host legs' selectors carry these; they must not drift
        assert host_mac("h1") == "02:33:11:2e:e1:4e"
        assert host_mac("h2") == "02:f9:98:fe:06:af"

    @settings(max_examples=200, deadline=None)
    @given(host=st.text().filter(lambda h: not MAC_RE.match(h.lower())))
    def test_hashed_mac_is_the_sha256_prefix(self, host):
        digest = hashlib.sha256(host.encode("utf-8")).digest()[:5]
        assert host_mac(host) == "02:" + ":".join("%02x" % b for b in digest)

    def test_pins_hold_without_the_builtin_sha256(self, monkeypatch):
        # a None entry makes an import of that name fail, so hashlib computes it
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        assert host_mac("h1") == "02:33:11:2e:e1:4e"
        assert host_mac("h2") == "02:f9:98:fe:06:af"


class TestShortestPath:
    def test_chain(self, chain3):
        path = shortest_path(chain3, D1, D3)
        assert path.devices() == (D1, D2, D3)
        assert len(path) == 2
        assert sum(l.weight for l in path.links) == 2.0

    def test_same_device_is_empty(self, chain3):
        assert shortest_path(chain3, D2, D2) == Path(())

    def test_unknown_device(self, chain3):
        with pytest.raises(UnknownDeviceError):
            shortest_path(chain3, D1, device_id(99))

    def test_disconnected(self):
        topo = Topology({D1: [1], D2: [1]}, [])
        with pytest.raises(NoPathError):
            shortest_path(topo, D1, D2)

    def test_diamond_tie_breaks_lexicographically(self):
        # d1 -> {d2, d3} -> d4, both routes cost 2; d2 sorts first
        topo = Topology(
            {D1: [1, 2], D2: [1, 2], D3: [1, 2], device_id(4): [1, 2]},
            [
                Link(ConnectPoint(D1, 1), ConnectPoint(D2, 1)),
                Link(ConnectPoint(D1, 2), ConnectPoint(D3, 1)),
                Link(ConnectPoint(D2, 2), ConnectPoint(device_id(4), 1)),
                Link(ConnectPoint(D3, 2), ConnectPoint(device_id(4), 2)),
            ],
        )
        path = shortest_path(topo, D1, device_id(4))
        assert path.devices() == (D1, D2, device_id(4))

    def test_weight_beats_hop_count(self):
        # direct link costs 5, the two-hop route costs 2
        topo = Topology(
            {D1: [1, 2], D2: [1, 2], D3: [1, 2]},
            [
                Link(ConnectPoint(D1, 1), ConnectPoint(D3, 1), 5.0),
                Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1)),
                Link(ConnectPoint(D2, 2), ConnectPoint(D3, 2)),
            ],
        )
        path = shortest_path(topo, D1, D3)
        assert path.devices() == (D1, D2, D3)
        assert sum(l.weight for l in path.links) == 2.0

    def test_deterministic_across_calls(self, chain3):
        paths = {shortest_path(chain3, D1, D3).links for _ in range(5)}
        assert len(paths) == 1

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000), weighted=st.booleans())
    def test_matches_brute_force_enumeration(self, seed, weighted):
        rng = random.Random(seed)
        topo = random_topology(rng, weighted=weighted)
        devices = topo.device_ids
        src = rng.choice(devices)
        dst = rng.choice(devices)
        expected = brute_force_path(topo, src, dst)
        if expected is None:
            with pytest.raises(NoPathError):
                shortest_path(topo, src, dst)
        else:
            assert shortest_path(topo, src, dst).links == tuple(expected)


class TestSearchTree:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_search_per_source_over_all_pairs(self, tree_searches, seed):
        topo = random_topology(random.Random(seed), max_devices=12, max_links=24)
        for src in topo.device_ids:
            for dst in topo.device_ids:
                shortest_path(topo, src, dst)
        assert sorted(tree_searches) == list(topo.device_ids)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_every_destination_from_one_tree_matches_brute_force(self, seed):
        rng = random.Random(seed)
        topo = random_topology(rng, weighted=True)
        src = rng.choice(topo.device_ids)
        destinations = list(topo.device_ids)
        rng.shuffle(destinations)
        for dst in destinations:
            assert shortest_path(topo, src, dst).links == tuple(brute_force_path(topo, src, dst))

    @pytest.mark.parametrize("first", [D2, D3], ids=["d2-first", "d3-first"])
    def test_smaller_egress_port_wins_between_parallel_links(self, tree_searches, first):
        # d1 and d2 joined by two equal links, d1/1-d2/2 and d1/2-d2/1; d2/3-d3/1
        topo = Topology(
            {D1: [1, 2], D2: [1, 2, 3], D3: [1]},
            [
                Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1)),
                Link(ConnectPoint(D1, 1), ConnectPoint(D2, 2)),
                Link(ConnectPoint(D2, 3), ConnectPoint(D3, 1)),
            ],
        )
        shortest_path(topo, D1, first)
        assert [l.src for l in shortest_path(topo, D1, D2).links] == [ConnectPoint(D1, 1)]
        assert [l.src for l in shortest_path(topo, D1, D3).links] == [
            ConnectPoint(D1, 1), ConnectPoint(D2, 3)
        ]
        assert tree_searches == [D1]

    def test_no_path_raises_on_every_call_and_is_not_memoised(self, tree_searches):
        # d1 - d2 linked, d3 isolated
        topo = Topology(
            {D1: [1, 2], D2: [1, 2], D3: [1]},
            [Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1))],
        )
        shortest_path(topo, D1, D2)
        for _ in range(3):
            with pytest.raises(NoPathError):
                shortest_path(topo, D1, D3)
        assert (D1, D3) not in topo._paths
        assert tree_searches == [D1]


class TestPathType:
    def test_rejects_broken_chain(self):
        a = Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1))
        b = Link(ConnectPoint(D3, 2), ConnectPoint(D1, 1))
        with pytest.raises(ValueError):
            Path((a, b))

    def test_rejects_device_repeat(self):
        a = Link(ConnectPoint(D1, 2), ConnectPoint(D2, 1))
        back = Link(ConnectPoint(D2, 1), ConnectPoint(D1, 2))
        with pytest.raises(ValueError):
            Path((a, back))


def test_default_topology_shape():
    topo = default_topology()
    assert len(topo.device_ids) == 5
    assert set(topo.hosts) == {"h1", "h2"}
    # ends of the chain reach each other in 4 hops
    path = shortest_path(topo, device_id(1), device_id(5))
    assert len(path) == 4
