"""HTTP northbound: a small JSON API over the controller, plus a client.

The server is the standard library's threading HTTP server so requests pay
the full socket + serialization cost; the client keeps one persistent
connection, which is what the benchmark harness measures.
"""
from __future__ import annotations

import http.client
import json
import threading
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
from .intents import Controller, intent_document, parse_intent_document

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
        declared = self.headers.get("Content-Length", "0").strip()
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
        """GET and DELETE read no body, so one that a request declares would
        be parsed as the next request; the reply closes the connection."""
        declared = self.headers.get("Content-Length", "0").strip()
        if declared != "0" or "Transfer-Encoding" in self.headers:
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
