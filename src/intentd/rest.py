"""HTTP northbound: a small JSON API over the controller, plus a client.

The server is the standard library's threading HTTP server so requests pay
the full socket + serialization cost; the client keeps one persistent
connection, which is what the benchmark harness measures.  The request and
intent document codec lives here too, as only the wire interface and the
benchmark read or write documents; a CLI add never loads it.
"""
from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, NoReturn

from .errors import (
    IllegalStateError,
    IntentdError,
    IntentValidationError,
    RequestSchemaError,
    StoreCapacityError,
    UnknownIntentError,
    UnreachableEndpointError,
)
from .fabric import DEFAULT_PRIORITY, TrafficSelector
from .intents import (
    DEFAULT_SELECTOR,
    REQUEST_TYPES,
    Controller,
    FieldKind,
    Intent,
    IntentRequest,
)
from .topology import ConnectPoint

# a request announcing a longer body is refused with 413 before any of it is read
MAX_BODY_BYTES = 1 << 20


class BodyTooLargeError(RequestSchemaError):
    """Content-Length exceeds MAX_BODY_BYTES."""


class NoSuchRouteError(IntentdError):
    """No route serves this method and path."""


# the one place an error's status is chosen: an error takes the entry of its
# nearest class along the MRO, and one with no entry is a 500
ERROR_STATUS: dict[type[Exception], int] = {
    BodyTooLargeError: 413,
    RequestSchemaError: 400,
    UnknownIntentError: 404,
    NoSuchRouteError: 404,
    IntentValidationError: 422,
    StoreCapacityError: 409,
    IllegalStateError: 409,
}


# read for every field of every request that is encoded or parsed; an enum
# member lookup costs ~0.1 us
_POINT, _POINT_SET, _HOST = FieldKind.POINT, FieldKind.POINT_SET, FieldKind.HOST
_COMMON_FIELDS = ("type", "priority", "selector")
_SELECTOR_FIELDS = ("eth_src", "eth_dst", "vlan")


def request_document(request: IntentRequest) -> dict:
    """The document of a request; point sets are listed as sorted strings."""
    doc: dict = {"type": request.type_name}
    _, fields = REQUEST_TYPES[request.type_name]
    for name, kind in fields.items():
        value = getattr(request, name)
        if kind is _POINT:
            value = str(value)
        elif kind is _POINT_SET:
            value = [str(cp) for cp in sorted(value)]
        doc[name] = value
    return doc


def _decode_field(kind: FieldKind, name: str, value: Any) -> Any:
    if kind is _POINT_SET:
        if not isinstance(value, list):
            raise RequestSchemaError(f"{name} must be a {kind.value}")
        return frozenset(_decode_field(_POINT, name, item) for item in value)
    if not isinstance(value, str):
        raise RequestSchemaError(f"{name} must be a {kind.value}")
    if kind is _HOST:
        return value
    try:
        return ConnectPoint.parse(value)
    except ValueError as exc:
        raise RequestSchemaError(str(exc)) from None


def parse_intent_document(doc: Any) -> tuple[IntentRequest, int, TrafficSelector]:
    """Strictly parse a request document into (request, priority, selector)."""
    if not isinstance(doc, dict):
        raise RequestSchemaError("request body must be a JSON object")
    type_name = doc.get("type")
    if not isinstance(type_name, str) or type_name not in REQUEST_TYPES:
        raise RequestSchemaError(f"type must be one of {sorted(REQUEST_TYPES)}")
    cls, fields = REQUEST_TYPES[type_name]
    extra = set(doc) - set(fields) - set(_COMMON_FIELDS)
    if extra:
        raise RequestSchemaError(f"unknown fields: {sorted(extra)}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise RequestSchemaError(f"missing fields: {missing}")
    request = cls(*(_decode_field(kind, name, doc[name]) for name, kind in fields.items()))

    priority = doc.get("priority", DEFAULT_PRIORITY)
    if not isinstance(priority, int) or isinstance(priority, bool) or priority < 1:
        raise RequestSchemaError("priority must be a positive integer")
    selector = doc.get("selector", {})
    if not isinstance(selector, dict):
        raise RequestSchemaError("selector must be an object")
    extra = set(selector) - set(_SELECTOR_FIELDS)
    if extra:
        raise RequestSchemaError(f"unknown selector fields: {sorted(extra)}")
    try:
        return request, priority, TrafficSelector(**selector) if selector else DEFAULT_SELECTOR
    except ValueError as exc:
        raise RequestSchemaError(str(exc)) from None


def intent_document(controller: Controller, intent: Intent) -> dict:
    """JSON-ready view of one intent, read under the controller's lock so
    that its state and rule count agree."""
    with controller._lock:
        doc: dict = {
            "id": str(intent.id),
            "type": intent.type_name,
            "state": intent.state.value,
            "rule_count": controller.rule_count(intent.id),
        }
        doc |= request_document(intent.request)  # keeps "type" in second place
        if intent.child_ids is not None:
            doc["children"] = [str(c) for c in intent.child_ids]
        if intent.failure is not None:
            doc["failure"] = intent.failure
        return doc


class _ApiHandler(BaseHTTPRequestHandler):
    """Each route returns (status, body) or raises; `_serve` writes the reply."""

    protocol_version = "HTTP/1.1"
    # headers and body leave as separate writes; without this Nagle holds the
    # body back for the delayed ACK and every response takes an extra 40 ms
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging would dominate benchmark runs

    @property
    def controller(self) -> Controller:
        return self.server.controller  # type: ignore[attr-defined]

    def _serve(self, route: Callable[[], tuple[int, Any]]) -> None:
        try:
            status, body = route()
        except Exception as exc:
            for cls in type(exc).__mro__:
                if cls in ERROR_STATUS:
                    status, body = ERROR_STATUS[cls], {"error": str(exc)}
                    break
            else:
                # answer, then let socketserver print the traceback and close
                self.close_connection = True
                self._reply(500, {"error": "internal server error"})
                raise
        self._reply(status, body)

    def _reply(self, status: int, body: dict | list | None) -> None:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        self.send_response(status)
        if self.close_connection:
            self.send_header("Connection", "close")
        if payload:
            self.send_header("Content-Type", "application/json")
        if status != 204:  # a 204 carries neither a body nor its length
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if payload:
            self.wfile.write(payload)

    def _read_json(self) -> Any:
        # a refused body stays unread, so the connection cannot carry another request
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise RequestSchemaError("a body must come with Content-Length, not Transfer-Encoding")
        # RFC 9112 6.3: framing that disagrees with itself is invalid
        lengths = sorted({v.strip() for v in self.headers.get_all("Content-Length", ("0",))})
        if len(lengths) > 1:
            self.close_connection = True
            raise RequestSchemaError(f"Content-Length values disagree: {', '.join(lengths)}")
        declared = lengths[0]
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise RequestSchemaError(
                f"Content-Length must be a non-negative decimal, got {declared!r}"
            )
        # int() refuses more than 4300 digits, so a long figure is refused unread
        if len(declared) > 20 or int(declared) > MAX_BODY_BYTES:
            self.close_connection = True
            raise BodyTooLargeError(
                f"body of {declared} bytes exceeds the limit of {MAX_BODY_BYTES}"
            )
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON, bad UTF-8 and integers over 4300
            # digits; the decoder recurses once per level of nesting
            raise RequestSchemaError(f"body is not valid JSON: {exc}") from None

    def _intent_id(self) -> int:
        """The id in a /intents/<id> path; UnknownIntentError if it is not one."""
        raw = self.path[len("/intents/") :]
        # ASCII digits only, as str.isdigit also takes other scripts' digits,
        # and no leading zero, so each id has one path; no id reaches 21
        # digits, and int() refuses more than 4300
        if raw.isascii() and raw.isdigit() and raw[0] != "0" and len(raw) <= 20:
            return int(raw)
        raise UnknownIntentError(f"unknown intent {raw}")

    def _no_route(self) -> NoReturn:
        self.close_connection = True  # any body stays unread
        raise NoSuchRouteError(f"no such route: {self.command} {self.path}")

    def do_POST(self) -> None:
        self._serve(self._post_intent if self.path == "/intents" else self._no_route)

    def _close_if_body(self) -> None:
        """GET and DELETE read no body, so one that a request declares, or
        lengths that disagree, would leave bytes to be parsed as the next
        request; the reply closes the connection."""
        lengths = {v.strip() for v in self.headers.get_all("Content-Length", ("0",))}
        if lengths != {"0"} or "Transfer-Encoding" in self.headers:
            self.close_connection = True

    def do_GET(self) -> None:
        self._close_if_body()
        if self.path.startswith("/intents/"):
            self._serve(self._get_intent)
        else:
            routes = {"/health": self._health, "/intents": self._list_intents}
            self._serve(routes.get(self.path, self._no_route))

    def do_DELETE(self) -> None:
        self._close_if_body()
        on_intent = self.path.startswith("/intents/")
        self._serve(self._delete_intent if on_intent else self._no_route)

    def _post_intent(self) -> tuple[int, Any]:
        controller = self.controller
        request, priority, selector = parse_intent_document(self._read_json())
        intent_id = controller.submit(request, priority=priority, selector=selector)
        return 201, intent_document(controller, controller.get(intent_id))

    def _health(self) -> tuple[int, Any]:
        controller = self.controller
        return 200, {
            "intents_live": controller.live_intents(),
            "rules_installed": controller.installed_rules(),
        }

    def _list_intents(self) -> tuple[int, Any]:
        controller = self.controller
        return 200, [intent_document(controller, i) for i in controller.list()]

    def _get_intent(self) -> tuple[int, Any]:
        controller = self.controller
        return 200, intent_document(controller, controller.get(self._intent_id()))

    def _delete_intent(self) -> tuple[int, Any]:
        self.controller.withdraw(self._intent_id())
        return 204, None


class RestServer:
    """Threaded HTTP server wrapper; bind with port 0 for an ephemeral port."""

    def __init__(self, controller: Controller, host: str, port: int) -> None:
        self._server = ThreadingHTTPServer((host, port), _ApiHandler)
        self._server.daemon_threads = True
        self._server.controller = controller  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def controller(self) -> Controller:
        return self._server.controller  # type: ignore[attr-defined]

    @controller.setter
    def controller(self, controller: Controller) -> None:
        self._server.controller = controller  # type: ignore[attr-defined]

    def start(self) -> "RestServer":
        thread = threading.Thread(
            target=self._server.serve_forever, name="intentd-rest", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class RestClient:
    """Minimal JSON client that reuses one HTTP connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(
        self, method: str, path: str, body: dict | bytes | None = None
    ) -> tuple[int, Any]:
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError) as exc:
            # never sent again: the server may already have applied it
            self.close()
            raise UnreachableEndpointError(
                f"no reply from http://{self.host}:{self.port}: {exc}"
            ) from None
        parsed = json.loads(raw) if raw else None
        return response.status, parsed

    def post_intent(self, doc: dict | bytes) -> tuple[int, Any]:
        return self.request("POST", "/intents", doc)

    def get_intents(self) -> tuple[int, Any]:
        return self.request("GET", "/intents")

    def get_intent(self, intent_id: int | str) -> tuple[int, Any]:
        return self.request("GET", f"/intents/{intent_id}")

    def delete_intent(self, intent_id: int | str) -> tuple[int, Any]:
        return self.request("DELETE", f"/intents/{intent_id}")

    def health(self) -> tuple[int, Any]:
        return self.request("GET", "/health")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_serve(controller: Controller, host: str, port: int) -> None:
    """`intentd serve`: answer on host:port until interrupted.  OSError if the
    port is taken or the host is not ours."""
    server = RestServer(controller, host, port).start()
    print(f"listening on http://{server.endpoint}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
