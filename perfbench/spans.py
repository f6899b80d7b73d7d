"""Span recording around intentd's public entry points, from outside src/.

`Tracer.install()` swaps wrapped versions of the entry points into the
intentd modules and classes; `uninstall()` puts the originals back.  Each
span is (id, parent id, name, start ns, end ns, operation id), kept in a
flat in-memory array and written out once the traced window ends.

Spans on the REST server thread take the open `RestClient.request` span as
their parent, so one request's spans form one tree across both threads.
The server span opens when `parse_request` starts, not when
`handle_one_request` starts, because the latter first blocks reading the
next request line and would count the client's idle time.
"""
from __future__ import annotations

import functools
import gc
import gzip
import itertools
import threading
import time
from array import array
from collections import defaultdict

from intentd import cli, fabric, intents, rest

# (owner, attribute, span name).  Module-level functions are patched in the
# namespace that calls them.
WRAPPED = (
    (intents, "shortest_path", "topology.shortest_path"),
    (intents, "validate_request", "intents.validate"),
    (cli, "validate_request", "intents.validate"),
    (intents.IntentStore, "admit", "intents.admit"),
    (intents.IntentStore, "transition", "intents.transition"),
    (intents, "compile_point_to_point", "intents.rule_build"),
    (intents, "compile_single_to_multi", "intents.rule_build"),
    (intents, "compile_multi_to_single", "intents.rule_build"),
    (intents.Controller, "submit", "intents.submit"),
    (intents.Controller, "withdraw", "intents.withdraw"),
    (fabric.Fabric, "install_rules", "fabric.install"),
    (fabric.Fabric, "remove_rules", "fabric.remove"),
    (fabric.Fabric, "inject", "fabric.inject"),
    (rest, "parse_intent_document", "rest.parse"),
    (rest, "intent_document", "rest.encode"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.spans = array("q")  # six int64 per span
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client = 0  # id of the open RestClient.request span
        self._saved: list[tuple[object, str, object, bool]] = []
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    # ------------------------------------------------------------ recording

    def name_index(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str):
        """Context manager for a span the benchmark opens around its own call."""
        return _Span(self, self.name_index(name))

    def wrap(self, fn, name: str, *, client: bool = False):
        ix = self.name_index(name)
        extend = self.spans.extend
        ids = self._ids
        clock = time.perf_counter_ns
        stack_of = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else tracer._client
            stack.append(sid)
            if client:
                tracer._client = sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if client:
                    tracer._client = 0
                extend((sid, parent, ix, start, end, tracer.op))

        return traced

    def _server_wrappers(self):
        ix = self.name_index("rest.server")
        local = self._local
        tracer = self
        clock = time.perf_counter_ns
        parse_request = rest._ApiHandler.parse_request
        handle_one_request = rest._ApiHandler.handle_one_request

        # A handler thread may be inside an unwrapped handle_one_request when
        # the wrappers go in or out; a span opens only between a wrapped
        # handle_one_request and a wrapped parse_request.
        pending = object()

        def traced_parse(handler):
            if getattr(local, "server", None) is pending:
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else tracer._client
                stack.append(sid)
                local.server = (sid, parent, clock())
            return parse_request(handler)

        def traced_handle(handler):
            local.server = pending
            try:
                return handle_one_request(handler)
            finally:
                opened = local.server
                local.server = None
                if opened is not pending:
                    end = clock()
                    tracer._stack().pop()
                    sid, parent, start = opened
                    tracer.spans.extend((sid, parent, ix, start, end, tracer.op))

        return traced_parse, traced_handle

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # ------------------------------------------------------- install/remove

    def _patch(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(rest.RestClient, "request", self.wrap(rest.RestClient.request, "rest.client", client=True))
        traced_parse, traced_handle = self._server_wrappers()
        self._patch(rest._ApiHandler, "parse_request", traced_parse)
        self._patch(rest._ApiHandler, "handle_one_request", traced_handle)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------- analysis

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,name,start_ns,end_ns,op\n")
            s = self.spans
            names = self.names
            for i in range(0, len(s), 6):
                fh.write(f"{s[i]},{s[i + 1]},{names[s[i + 2]]},{s[i + 3]},{s[i + 4]},{s[i + 5]}\n")

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, clipped duration and self time, in ns.

        A child is clipped to its parent's interval; self time is the
        clipped duration minus the clipped durations of the children.  The
        self times of all spans therefore sum to the roots' durations.
        """
        s = self.spans
        start: dict[int, int] = {}
        end: dict[int, int] = {}
        name: dict[int, int] = {}
        parent_of: dict[int, int] = {}
        for i in range(0, len(s), 6):
            sid = s[i]
            parent_of[sid] = s[i + 1]
            name[sid] = s[i + 2]
            start[sid] = s[i + 3]
            end[sid] = s[i + 4]
        children: dict[int, list[int]] = defaultdict(list)
        roots = []
        for sid, parent in parent_of.items():
            if parent in start:
                children[parent].append(sid)
            else:
                roots.append(sid)
        out = {n: {"calls": 0, "dur_ns": 0, "self_ns": 0} for n in self.names}
        todo = [(sid, start[sid], end[sid]) for sid in roots]
        while todo:
            sid, lo, hi = todo.pop()
            covered = 0
            for child in children.get(sid, ()):
                c_lo, c_hi = max(start[child], lo), min(end[child], hi)
                if c_hi < c_lo:
                    c_hi = c_lo
                covered += c_hi - c_lo
                todo.append((child, c_lo, c_hi))
            row = out[self.names[name[sid]]]
            row["calls"] += 1
            row["dur_ns"] += hi - lo
            row["self_ns"] += hi - lo - covered
        out["_roots"] = {"calls": len(roots), "dur_ns": sum(end[r] - start[r] for r in roots), "self_ns": 0}
        return out


class _Span:
    __slots__ = ("_tracer", "_ix", "_sid", "_parent", "_start")

    def __init__(self, tracer: Tracer, ix: int) -> None:
        self._tracer = tracer
        self._ix = ix

    def __enter__(self) -> "_Span":
        t = self._tracer
        stack = t._stack()
        self._sid = next(t._ids)
        self._parent = stack[-1] if stack else t._client
        stack.append(self._sid)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        t = self._tracer
        t._stack().pop()
        t.spans.extend((self._sid, self._parent, self._ix, self._start, end, t.op))
