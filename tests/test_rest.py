"""HTTP surface: routing, status codes, schema strictness and concurrent clients."""
import json
import random
import socket
import sys
import threading

import pytest

from intentd.errors import UnreachableEndpointError
from intentd.intents import Controller
from intentd.rest import (
    MAX_BODY_BYTES,
    RestClient,
    RestServer,
    RequestSchemaError,
    parse_intent_document,
)
from intentd.topology import Topology, default_topology
from conftest import D1, D2, D3
from randnet import assert_store_matches_fabric


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

    @pytest.mark.parametrize("path", ["/nope", "/intents/batch"])
    def test_unknown_route_body_is_not_read_as_the_next_request(self, rest, path):
        _, client = rest
        status, body = client.request("POST", path, p2p_doc())
        assert (status, body["error"]) == (404, f"no such route: POST {path}")
        assert client.health() == (200, {"intents_live": 0, "rules_installed": 0})


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
            {"type": "P2P", "ingress": f"{D1}/+1", "egress": f"{D3}/2"},
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


def exchange(client, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until it closes."""
    with socket.create_connection((client.host, client.port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


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
        # the server closes after answering
        reply = exchange(client, head.encode("ascii"))
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in reply
        assert ctrl.live_intents() == 0
        assert client.health()[0] == 200

    @pytest.mark.parametrize("body_first", [True, False], ids=["body-first", "short-first"])
    def test_disagreeing_lengths_are_refused(self, rest, body_first):
        ctrl, client = rest
        body = json.dumps(p2p_doc()).encode("ascii")
        lengths = [len(body), 5] if body_first else [5, len(body)]
        head = b"POST /intents HTTP/1.1\r\nHost: x\r\n" + b"".join(
            b"Content-Length: %d\r\n" % length for length in lengths
        )
        reply = exchange(client, head + b"\r\n" + body)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"Content-Length values disagree: 5, %d" % len(body) in reply
        assert reply.count(b"HTTP/1.") == 1
        assert ctrl.live_intents() == 0

    def test_a_repeated_equal_length_is_accepted(self, rest):
        ctrl, client = rest
        body = json.dumps(p2p_doc()).encode("ascii")
        head = b"POST /intents HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        length = b"Content-Length: %d\r\n" % len(body)
        reply = exchange(client, head + length * 2 + b"\r\n" + body)
        assert reply.startswith(b"HTTP/1.1 201 ")
        assert ctrl.live_intents() == 1

    @pytest.mark.parametrize(
        "method, path, status",
        [("GET", b"/health", 200), ("DELETE", b"/intents/1", 204)],
        ids=["get", "delete"],
    )
    def test_disagreeing_lengths_close_a_bodiless_route(self, rest, method, path, status):
        _, client = rest
        client.post_intent(p2p_doc())
        head = method.encode("ascii") + b" " + path + b" HTTP/1.1\r\nHost: x\r\n"
        first = head + b"Content-Length: 0\r\nContent-Length: 11\r\n\r\nGET /nope ?"
        second = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = exchange(client, first + second)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"connection: close" in reply.lower()
        assert reply.count(b"HTTP/1.") == 1


def raw_request(method: str, path: bytes, body: bytes = b"") -> bytes:
    return (
        method.encode("ascii") + b" " + path + b" HTTP/1.1\r\nHost: x\r\n"
        b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    )


def long_integer_doc(field: str) -> bytes:
    """A P2P document whose `field` is an integer of 5000 digits."""
    head = json.dumps(p2p_doc())[:-1].encode("ascii")
    return head + f', "{field}": '.encode("ascii") + b"1" * 5000 + b"}"


class TestMalformedRequests:
    """Requests that once made the handler raise and drop the connection,
    that reached an intent through a zero-padded id, or that name one
    endpoint twice."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (raw_request("POST", b"/intents", b"[" * 200_000), 400),
            (raw_request("POST", b"/intents", b'{"type": "\xff\xfe"}'), 400),
            (raw_request("GET", b"/intents/" + b"1" * 5000), 404),
            (raw_request("DELETE", b"/intents/" + b"1" * 5000), 404),
            # the request line is read as Latin-1, whose superscripts are digits
            (raw_request("GET", b"/intents/\xb9"), 404),
            (raw_request("DELETE", b"/intents/\xb9"), 404),
            # intent 1 exists, but only under its own spelling
            (raw_request("GET", b"/intents/01"), 404),
            (raw_request("DELETE", b"/intents/01"), 404),
            (b"POST /intents HTTP/1.1\r\nHost: x\r\nContent-Length: "
             + b"9" * 5000 + b"\r\n\r\n", 413),
            # json.loads refuses an integer of more than 4300 digits
            (raw_request("POST", b"/intents", long_integer_doc("priority")), 400),
            # well formed, but it names its ingress again among the egresses
            (raw_request("POST", b"/intents", json.dumps(
                {"type": "S2M", "ingress": f"{D1}/1", "egresses": [f"{D3}/2", f"{D1}/1"]}
            ).encode()), 422),
        ],
        ids=["deep-nesting", "not-utf8", "get-long-id", "delete-long-id",
             "get-superscript-id", "delete-superscript-id", "get-zero-padded-id",
             "delete-zero-padded-id", "long-length", "long-priority",
             "s2m-ingress-among-egresses"],
    )
    def test_answered_with_a_status_line(self, rest, request_bytes, status):
        _, client = rest
        assert client.post_intent(p2p_doc())[1]["id"] == "1"
        reply = exchange(client, request_bytes)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert client.health() == (200, {"intents_live": 1, "rules_installed": 3})


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

    def test_204_has_no_length_and_keeps_the_connection(self, rest):
        _, client = rest
        _, created = client.post_intent(p2p_doc())
        path = f"/intents/{created['id']}".encode("ascii")
        with socket.create_connection((client.host, client.port), timeout=5) as sock:
            sock.sendall(b"DELETE " + path + b" HTTP/1.1\r\nHost: x\r\n\r\n")
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, f"connection closed after {head!r}"
                head += chunk
            assert head.startswith(b"HTTP/1.1 204 ")
            assert b"content-length" not in head.lower()
            sock.sendall(raw_request("GET", b"/health"))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.endswith(b'{"intents_live": 0, "rules_installed": 0}')


class TestUnreadBody:
    """A body the server does not read must never be parsed as the next
    request: the reply closes the connection instead."""

    @pytest.mark.parametrize(
        "method, path, status",
        [("GET", b"/health", 200), ("DELETE", b"/intents/1", 204)],
        ids=["get", "delete"],
    )
    def test_reply_then_a_clean_close(self, rest, method, path, status):
        _, client = rest
        client.post_intent(p2p_doc())
        head = method.encode("ascii") + b" " + path + b" HTTP/1.1\r\nHost: x\r\n"
        first = head + b"Content-Length: 11\r\n\r\nGET /nope ?"
        second = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = exchange(client, first + second)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"connection: close" in reply.lower()
        assert reply.count(b"HTTP/1.") == 1
        assert b"400" not in reply

    def test_chunked_post_is_refused_and_closes(self, rest):
        ctrl, client = rest
        body = json.dumps(p2p_doc()).encode("ascii")
        first = (
            b"POST /intents HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
        )
        reply = exchange(client, first + b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Transfer-Encoding" in reply
        assert reply.count(b"HTTP/1.") == 1
        assert ctrl.live_intents() == 0


class FailingController(Controller):
    """A controller whose submit fails in a way no route expects."""

    def __init__(self, topology) -> None:
        super().__init__(topology)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        raise RuntimeError("submit broke")


class TestUnexpectedErrors:
    def test_500_closes_and_the_server_keeps_serving(self, chain3):
        ctrl = FailingController(chain3)
        server = RestServer(ctrl, "127.0.0.1", 0).start()
        client = RestClient(server.host, server.port)
        try:
            # answered once, so the client does not send the POST again
            assert client.post_intent(p2p_doc()) == (500, {"error": "internal server error"})
            assert ctrl.submits == 1
            # a keep-alive request: the close comes from the server
            body = json.dumps(p2p_doc()).encode("ascii")
            head = b"POST /intents HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            reply = exchange(client, head % len(body) + body)
            assert reply.startswith(b"HTTP/1.1 500 ")
            assert b"Connection: close" in reply
            assert client.health() == (200, {"intents_live": 0, "rules_installed": 0})
        finally:
            client.close()
            server.stop()


class TestClientSendsOnce:
    def test_post_without_a_reply_is_not_sent_again(self):
        # a server that reads each request line and hangs up without answering;
        # it may already have applied the POST, so the client must not resend
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        received = []
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5)
                    data = b""
                    while b"\r\n" not in data:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                    received.append(data.split(b"\r\n", 1)[0])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = RestClient(*listener.getsockname()[:2])
        try:
            with pytest.raises(UnreachableEndpointError):
                client.post_intent(p2p_doc())
        finally:
            client.close()
            stop.set()
            thread.join(timeout=5)
            listener.close()
        assert received == [b"POST /intents HTTP/1.1"]


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


class TestConcurrentClients:
    """Eight clients, each on its own connection, against one server."""

    THREADS = 8
    REQUESTS = 40

    @staticmethod
    def post_doc(kind: str, rng: random.Random, points: list[str]) -> dict:
        a, b, c = rng.sample(points, 3)
        one, two = rng.sample(("h1", "h2"), 2)
        return {
            "P2P": {"ingress": a, "egress": b},
            "S2M": {"ingress": a, "egresses": [b, c]},
            "M2S": {"ingresses": [a, b], "egress": c},
            "H2H": {"one": one, "two": two},
        }[kind] | {"type": kind}

    def client_loop(self, index: int, client: RestClient, start: threading.Barrier, problems: list) -> None:
        """POST all four types, GET and DELETE this client's own intents, and
        DELETE legs of its host pairs, which must always conflict."""
        rng = random.Random(index)
        points = [str(cp) for cp in default_topology().edge_points()]
        expected: dict[str, tuple[str, int]] = {}  # own id -> (state, rule_count)
        live: list[str] = []
        legs: list[str] = []
        start.wait()
        for k in range(self.REQUESTS):
            r = rng.random()
            if r < 0.2 and live:
                iid = live.pop(rng.randrange(len(live)))
                reply = client.delete_intent(iid)
                expected[iid] = ("WITHDRAWN", 0)
                want = (204, None)
            elif r < 0.3 and legs:
                reply = client.delete_intent(rng.choice(legs))[0]
                want = 409
            elif r < 0.5 and expected:
                iid = rng.choice(sorted(expected))
                status, body = client.get_intent(iid)
                reply = (status, body["state"], body["rule_count"])
                want = (200, *expected[iid])
            else:
                doc = self.post_doc(("P2P", "S2M", "M2S", "H2H")[k % 4], rng, points)
                status, body = client.post_intent(doc)
                reply = (status, body["type"], body["state"])
                want = (201, doc["type"], "INSTALLED")
                if reply == want:
                    expected[body["id"]] = ("INSTALLED", body["rule_count"])
                    live.append(body["id"])
                    legs.extend(body.get("children", ()))
            if reply != want:
                problems.append(f"client {index} request {k}: got {reply}, expected {want}")

    def test_store_and_fabric_stay_in_step(self):
        ctrl = Controller(default_topology())
        server = RestServer(ctrl, "127.0.0.1", 0).start()
        clients = [RestClient(server.host, server.port) for _ in range(self.THREADS)]
        start = threading.Barrier(self.THREADS, timeout=10)
        problems: list[str] = []

        def run(index: int) -> None:
            try:
                self.client_loop(index, clients[index], start, problems)
            except Exception as exc:  # a thread's failure must reach the assertion below
                problems.append(f"client {index}: {exc!r}")

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for client in clients:  # connect before the race, not inside it
                assert client.health()[0] == 200
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert problems == []
            assert_store_matches_fabric(ctrl)
            assert clients[0].health() == (
                200,
                {"intents_live": ctrl.live_intents(), "rules_installed": ctrl.installed_rules()},
            )
            assert ctrl.live_intents() > 0
        finally:
            sys.setswitchinterval(interval)
            for client in clients:
                client.close()
            server.stop()
