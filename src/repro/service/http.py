"""A minimal JSON-over-HTTP layer on asyncio streams (stdlib only).

The control surface needs exactly five routes and no middleware, so
rather than dragging in a framework (or the thread-per-request
``http.server``) this module speaks just enough HTTP/1.1 for ``curl``,
``urllib`` and load drivers: request line + headers + Content-Length
body in, status + JSON body out, ``Connection: close`` per exchange.
Parsing is defensive — a malformed request yields ``None`` and the
connection is dropped — because the service must survive port scanners
and half-open sockets without wedging the tick loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

#: Upper bound on accepted request bodies (1 MiB of JSON events is
#: ~10k events — far beyond one tick's worth).
MAX_BODY_BYTES = 1 << 20
#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 1 << 14

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON (raises ``ValueError`` on garbage)."""
        if not self.body:
            raise ValueError("empty request body")
        return json.loads(self.body.decode("utf-8"))

    def flag(self, name: str) -> bool:
        """True when query parameter ``name`` is a truthy flag."""
        return self.query.get(name, "").lower() in ("1", "true", "yes")


@dataclass(frozen=True)
class Response:
    """One JSON response about to be serialized onto the wire."""

    status: int
    payload: Any

    def encode(self) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + body


def error_response(status: int, message: str) -> Response:
    """The uniform error body every route failure uses."""
    return Response(status, {"error": message, "status": status})


async def read_request(reader: Any) -> Request | None:
    """Read one request off ``reader``; ``None`` when malformed or EOF.

    ``reader`` is an :class:`asyncio.StreamReader` (typed loosely so the
    pure parsing below stays trivially testable with a stub).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception:
        return None
    if len(head) > MAX_HEAD_BYTES:
        return None
    try:
        lines = head.decode("ascii", errors="strict").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
        # ``urlsplit`` raises on an unbalanced ``[`` in an authority
        # (``//[::1/x``), which is a malformed target like any other.
        parts = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(
                parts.query, keep_blank_values=True
            ).items()
        }
    except ValueError:
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            return None
        key, value = name.strip().lower(), value.strip()
        if key == "content-length" and headers.get(key, value) != value:
            return None  # conflicting framing (RFC 9112 section 6.3)
        headers[key] = value
    # Only a plain run of ASCII digits frames a body: ``int()`` would also
    # accept signs, underscores and padding.
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        return None
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        return None
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception:
            return None
    return Request(
        method=method.upper(), path=parts.path, query=query, body=body
    )
