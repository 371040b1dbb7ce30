"""Request-head parsing in :func:`repro.service.http.read_request`.

A stub reader stands in for :class:`asyncio.StreamReader`, so each case
checks only the parser: malformed framing must yield ``None`` (RFC 9112
section 6.3 treats every case below as a framing error), and a
well-formed request must still parse.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.http import read_request


class StubReader:
    """Serves one raw request the way ``asyncio.StreamReader`` would."""

    def __init__(self, raw: bytes) -> None:
        self._raw = raw

    async def readuntil(self, separator: bytes) -> bytes:
        end = self._raw.find(separator)
        if end < 0:
            raise asyncio.IncompleteReadError(self._raw, None)
        end += len(separator)
        head, self._raw = self._raw[:end], self._raw[end:]
        return head

    async def readexactly(self, n: int) -> bytes:
        if len(self._raw) < n:
            raise asyncio.IncompleteReadError(self._raw, n)
        body, self._raw = self._raw[:n], self._raw[n:]
        return body


def parse(head_lines: list[str], body: bytes = b""):
    raw = ("\r\n".join(head_lines) + "\r\n\r\n").encode("ascii") + body
    return asyncio.run(read_request(StubReader(raw)))


BODY = b'{"events": []}'


def test_well_formed_request_parses() -> None:
    request = parse(
        [
            "POST /events?wait=1 HTTP/1.1",
            "Host: localhost",
            f"Content-Length: {len(BODY)}",
        ],
        BODY,
    )
    assert request is not None
    assert request.method == "POST"
    assert request.path == "/events"
    assert request.flag("wait")
    assert request.body == BODY


def test_request_without_body_parses() -> None:
    request = parse(["GET /healthz HTTP/1.1", "Host: localhost"])
    assert request is not None
    assert (request.method, request.path, request.body) == (
        "GET",
        "/healthz",
        b"",
    )


def test_repeated_identical_content_length_parses() -> None:
    length = f"Content-Length: {len(BODY)}"
    request = parse(["POST /events HTTP/1.1", length, length], BODY)
    assert request is not None
    assert request.body == BODY


@pytest.mark.parametrize(
    "head",
    [
        pytest.param(
            ["POST /events HTTP/1.1", "Content-Length: 1_0"], id="underscore"
        ),
        pytest.param(
            ["POST /events HTTP/1.1", "Content-Length: +10"], id="plus-sign"
        ),
        pytest.param(
            ["POST /events HTTP/1.1", "Content-Length: -1"], id="minus-sign"
        ),
        pytest.param(
            ["POST /events HTTP/1.1", "Content-Length:"], id="empty-length"
        ),
        pytest.param(
            [
                "POST /events HTTP/1.1",
                "Content-Length: 10",
                "Content-Length: 14",
            ],
            id="conflicting-duplicates",
        ),
        pytest.param(
            ["POST /events HTTP/1.1", "Host localhost", "Content-Length: 14"],
            id="header-without-colon",
        ),
    ],
)
def test_malformed_framing_is_rejected(head: list[str]) -> None:
    assert parse(head, BODY) is None
