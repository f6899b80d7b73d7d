"""HTTP surface: routing, status codes, and schema strictness."""
import socket

import pytest

from intentd.intents import Controller
from intentd.rest import (
    MAX_BATCH_COUNT,
    MAX_BODY_BYTES,
    RestClient,
    RestServer,
    RequestSchemaError,
    parse_intent_document,
)
from intentd.topology import Topology
from conftest import D1, D2, D3


def p2p_doc(**extra):
    doc = {"type": "P2P", "ingress": f"{D1}/1", "egress": f"{D3}/2"}
    doc.update(extra)
    return doc


class TestSubmitRoute:
    def test_created(self, rest):
        _, client = rest
        status, body = client.post_intent(p2p_doc())
        assert status == 201
        assert body["state"] == "INSTALLED"
        assert body["type"] == "P2P"
        assert body["rule_count"] == 3
        assert body["id"] == "1"

    def test_all_types_accepted(self, rest):
        _, client = rest
        docs = [
            {"type": "S2M", "ingress": f"{D1}/1", "egresses": [f"{D3}/2"]},
            {"type": "M2S", "ingresses": [f"{D1}/1"], "egress": f"{D3}/2"},
            {"type": "H2H", "one": "h1", "two": "h2"},
        ]
        for doc in docs:
            status, body = client.post_intent(doc)
            assert status == 201, body
            assert body["state"] == "INSTALLED"

    def test_long_type_spellings_accepted(self, rest):
        # wordy aliases normalize to the short tokens the responses carry
        _, client = rest
        status, body = client.post_intent(p2p_doc(type="PointToPoint"))
        assert status == 201
        assert body["type"] == "P2P"
        assert body["rule_count"] == 3
        status, body = client.post_intent(
            {"type": "HostToHost", "one": "h1", "two": "h2"}
        )
        assert status == 201
        assert body["type"] == "H2H"

    def test_priority_and_selector_pass_through(self, rest):
        ctrl, client = rest
        status, body = client.post_intent(
            p2p_doc(priority=300, selector={"vlan": 7})
        )
        assert status == 201
        intent = ctrl.get(int(body["id"]))
        assert intent.priority == 300
        assert intent.selector.vlan == 7

    def test_validation_maps_to_422(self, rest):
        _, client = rest
        status, body = client.post_intent(p2p_doc(egress=f"{D1}/1"))
        assert status == 422
        assert "error" in body

    def test_capacity_maps_to_409(self, chain3):
        server = RestServer(Controller(chain3, capacity=0), "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            status, _ = client.post_intent(p2p_doc())
            assert status == 409
        finally:
            client.close()
            server.stop()

    def test_unroutable_intent_is_created_failed(self):
        topo = Topology({D1: [1], D2: [1]}, [])
        server = RestServer(Controller(topo), "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            status, body = client.post_intent(
                {"type": "P2P", "ingress": f"{D1}/1", "egress": f"{D2}/1"}
            )
            # stored with its failure recorded, so creation still succeeded
            assert status == 201
            assert body["state"] == "FAILED"
            assert body["rule_count"] == 0
            assert "failure" in body
        finally:
            client.close()
            server.stop()

    def test_unknown_route_404(self, rest):
        _, client = rest
        assert client.request("POST", "/nope", p2p_doc())[0] == 404


class TestSchemaStrictness:
    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            {"type": "FLOOD", "ingress": f"{D1}/1", "egress": f"{D3}/2"},
            p2p_doc(color="blue"),
            {"type": "P2P", "ingress": f"{D1}/1"},
            p2p_doc(priority=0),
            p2p_doc(priority=True),
            p2p_doc(selector={"tcp_port": 80}),
            p2p_doc(selector={"eth_src": "zz"}),
            {"type": "P2P", "ingress": "bogus", "egress": f"{D3}/2"},
            {"type": "S2M", "ingress": f"{D1}/1", "egresses": f"{D3}/2"},
        ],
    )
    def test_rejected_with_400(self, rest, doc):
        _, client = rest
        body = doc if isinstance(doc, dict) else doc.encode()
        status, _ = client.post_intent(body)
        assert status == 400

    def test_parse_errors_name_the_problem(self):
        with pytest.raises(RequestSchemaError, match="color"):
            parse_intent_document(p2p_doc(color="blue"))
        with pytest.raises(RequestSchemaError, match="missing"):
            parse_intent_document({"type": "P2P", "ingress": f"{D1}/1"})


class TestContentLength:
    @pytest.mark.parametrize(
        "length, status",
        [
            ("abc", 400),
            ("-5", 400),
            ("+5", 400),
            ("1.5", 400),
            ("", 400),
            (str(MAX_BODY_BYTES + 1), 413),
            ("99999999999999999999", 413),
        ],
    )
    def test_bad_length_gets_a_status_line(self, rest, length, status):
        ctrl, client = rest
        head = (
            f"POST /intents HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((client.host, client.port), timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after answering
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in reply
        assert ctrl.live_intents() == 0
        assert client.health()[0] == 200


class TestQueryRoutes:
    def test_health_tracks_counts(self, rest):
        _, client = rest
        assert client.health() == (200, {"intents_live": 0, "rules_installed": 0})
        client.post_intent(p2p_doc())
        assert client.health() == (200, {"intents_live": 1, "rules_installed": 3})

    def test_list_and_get(self, rest):
        _, client = rest
        _, created = client.post_intent(p2p_doc())
        status, listing = client.get_intents()
        assert status == 200
        assert [d["id"] for d in listing] == [created["id"]]
        status, single = client.get_intent(created["id"])
        assert status == 200
        assert single == listing[0]

    def test_get_unknown_is_404(self, rest):
        _, client = rest
        assert client.get_intent(12345)[0] == 404
        assert client.get_intent("abc")[0] == 404


class TestWithdrawRoute:
    def test_delete_removes_rules(self, rest):
        ctrl, client = rest
        _, created = client.post_intent(p2p_doc())
        status, body = client.delete_intent(created["id"])
        assert (status, body) == (204, None)
        assert ctrl.installed_rules() == 0

    def test_delete_twice_conflicts(self, rest):
        _, client = rest
        _, created = client.post_intent(p2p_doc())
        client.delete_intent(created["id"])
        assert client.delete_intent(created["id"])[0] == 409

    def test_delete_unknown_is_404(self, rest):
        _, client = rest
        assert client.delete_intent(777)[0] == 404

    def test_delete_of_a_leg_conflicts_and_names_the_parent(self, rest):
        ctrl, client = rest
        _, pair = client.post_intent({"type": "H2H", "one": "h1", "two": "h2"})
        leg = pair["children"][0]
        status, body = client.delete_intent(leg)
        assert status == 409
        assert f"host-to-host intent {pair['id']}" in body["error"]
        assert client.get_intent(pair["id"])[1]["rule_count"] == 6
        assert ctrl.installed_rules() == 6
        assert client.delete_intent(pair["id"]) == (204, None)
        assert ctrl.installed_rules() == 0


class TestBatchRoute:
    def test_counts_reported(self, rest):
        ctrl, client = rest
        status, body = client.post_batch(p2p_doc(count=4))
        assert status == 201
        assert body == {"submitted": 4, "installed": 4, "failed": 0}
        assert ctrl.installed_rules() == 12

    def test_count_required_and_positive(self, rest):
        _, client = rest
        assert client.post_batch(p2p_doc())[0] == 400
        assert client.post_batch(p2p_doc(count=0))[0] == 400
        status, body = client.post_batch(p2p_doc(count=MAX_BATCH_COUNT + 1))
        assert (status, str(MAX_BATCH_COUNT) in body["error"]) == (400, True)

    def test_capacity_mid_batch_reports_partial(self, chain3):
        server = RestServer(Controller(chain3, capacity=2), "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            status, body = client.post_batch(p2p_doc(count=5))
            assert status == 201
            assert body == {"submitted": 2, "installed": 2, "failed": 0}
        finally:
            client.close()
            server.stop()

    def test_capacity_before_first_is_409(self, chain3):
        server = RestServer(Controller(chain3, capacity=0), "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            assert client.post_batch(p2p_doc(count=3))[0] == 409
        finally:
            client.close()
            server.stop()


class TestServerLifecycle:
    def test_ephemeral_port_and_restart_swap(self, chain3):
        server = RestServer(Controller(chain3), "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            assert server.port != 0
            client.post_intent(p2p_doc())
            fresh = Controller(chain3)
            server.controller = fresh
            # same socket, brand-new state behind it
            assert client.health() == (200, {"intents_live": 0, "rules_installed": 0})
        finally:
            client.close()
            server.stop()

    def test_persistent_connection_reused(self, rest):
        _, client = rest
        for _ in range(5):
            assert client.health()[0] == 200
