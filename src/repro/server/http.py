"""The stdlib HTTP skin over :class:`~repro.server.app.QueryServerApp`.

``ThreadingHTTPServer`` supplies one thread per connection for parsing and
I/O; all *engine* work still flows through the app's admission control and
bounded worker pool, so concurrency of real work is capped regardless of
how many sockets are open.  Responses are ``application/json`` with
accurate ``Content-Length``, so an HTTP/1.1 client keeps its connection.
Every accepted socket has ``TCP_NODELAY`` set: a response goes out as a
header write and a body write, and with Nagle's algorithm on, the body
would wait for the client's delayed ACK of the headers (40 ms on Linux)
before it is sent — the floor under every keep-alive round trip.

>>> server = QueryServer(engine, ServerConfig(port=0))   # doctest: +SKIP
>>> with server:                                         # doctest: +SKIP
...     print(server.url)                                # background thread
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api import QueryBackend
from repro.server.app import QueryServerApp, ServerConfig, plain_error

#: Refuse to buffer request bodies past this size (a query is text; 8 MiB
#: of body is a client bug, not a query).
MAX_BODY_BYTES = 8 * 1024 * 1024


def _retry_after_from(status: int, payload: dict[str, Any]) -> float | None:
    """The envelope's back-off hint, when the status calls for one (429
    overload, 503 draining/unavailable)."""
    if status not in (429, 503) or payload.get("kind") != "error":
        return None
    detail = payload.get("error", {}).get("detail", {})
    retry_after = detail.get("retry_after_s")
    if retry_after is None:
        retry_after = detail.get("admission", {}).get("retry_after_s")
    return retry_after


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-query-server"
    # TCP_NODELAY on every accepted socket (see the module docstring).
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        app: QueryServerApp = self.server.app  # type: ignore[attr-defined]
        body: dict[str, Any] | None = None
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # The body's extent is unknown, so nothing after it on this
            # connection can be framed either.
            self.close_connection = True
            self._refuse(
                400,
                "bad-request",
                f"Content-Length must be a non-negative integer, got {declared!r}",
            )
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the body is left unread
            self._refuse(
                413,
                "payload-too-large",
                f"request body {length} bytes exceeds {MAX_BODY_BYTES}",
            )
            return
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                self._refuse(400, "bad-json", f"request body is not valid JSON: {error}")
                return
            if not isinstance(body, dict):
                # Valid JSON, wrong shape: a request body is an object,
                # never an array/scalar — reject structured, not with a
                # 500 from deep inside request parsing.
                self._refuse(
                    400,
                    "bad-json",
                    "request body must be a JSON object, got " + type(body).__name__,
                )
                return
        status, payload = app.handle(method, self.path.split("?", 1)[0], body)
        self._respond(status, payload)

    def _refuse(self, status: int, code: str, message: str) -> None:
        self._respond(*plain_error(status, code, message))

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        retry_after = _retry_after_from(status, payload)
        if retry_after is not None:
            # Whole seconds, per RFC 9110; never 0 (that invites an
            # immediate, equally doomed retry).
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        try:
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            # The client went away mid-response; nothing to salvage.
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging lives in ServerStats, not stderr


class QueryServer:
    """A long-lived query server over one shared backend.

    Usable three ways: :meth:`serve_forever` (blocking, the CLI's mode),
    :meth:`start` (background thread, returns once the socket is bound),
    or as a context manager (start on enter, shut down on exit — the
    tests' mode).
    """

    def __init__(
        self,
        backend: QueryBackend,
        config: ServerConfig | None = None,
        scrubber=None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.app = QueryServerApp(backend, self.config, scrubber=scrubber)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (typically from a signal handler)."""
        if self.app.scrubber is not None:
            self.app.scrubber.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._close()

    def start(self) -> "QueryServer":
        """Serve on a background thread; returns immediately."""
        if self.app.scrubber is not None:
            self.app.scrubber.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-query-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful drain, then release the socket.  Idempotent and safe
        to call from any thread.

        The sequence matters: first stop *admitting* engine work (new
        requests get structured 503s with ``Retry-After`` — the listener
        stays open so clients hear the rejection instead of a connection
        refusal), let requests already executing finish within
        ``drain_deadline_s`` (queued-but-unstarted ones are failed with
        typed 503s — they never ran, so retrying is safe), and only then
        stop the accept loop and close the listening socket.
        """
        self.app.start_draining()
        self.app.drain()
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._close()

    def _close(self) -> None:
        self.app.close()
        self._httpd.server_close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
