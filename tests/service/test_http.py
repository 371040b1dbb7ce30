"""Request-head parsing in :func:`repro.service.http.read_request`.

A stub reader stands in for :class:`asyncio.StreamReader`, so each case
checks only the parser: malformed framing must yield ``None`` (RFC 9112
section 6.3 treats every case below as a framing error), and a
well-formed request must still parse. A Hypothesis fuzzer then checks
that no generated head makes the parser raise.
"""

from __future__ import annotations

import asyncio
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http import MAX_BODY_BYTES, Request, read_request


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


def parse(head_lines: list[str], body: bytes = b"", encoding: str = "ascii"):
    raw = ("\r\n".join(head_lines) + "\r\n\r\n").encode(encoding) + body
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
        pytest.param(["GET //[::1/x HTTP/1.1"], id="unclosed-bracket-authority"),
        pytest.param(
            ["GET http://[bad/x HTTP/1.1"], id="unclosed-bracket-absolute"
        ),
    ],
)
def test_malformed_framing_is_rejected(head: list[str]) -> None:
    assert parse(head, BODY) is None


# -- the Hypothesis fuzzer ----------------------------------------------------

_TARGETS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "/", "//", "http://", "*"]),
    st.sampled_from(["", "host", "[", "]", "[::1", "[::1]", "[bad]"]),
    st.text(alphabet="az09/:.[]%?#=&+", max_size=16),
)
_REQUEST_LINES = st.one_of(
    st.builds(
        "{} {} HTTP/1.1".format, st.sampled_from(["GET", "post", "PUT"]), _TARGETS
    ),
    st.text(alphabet="GETP /[]%?#:.1", max_size=24),
)
_LENGTH_VALUES = st.one_of(
    st.integers(0, 80).map(str),
    st.integers(-80, 80).map("{:+d}".format),
    st.sampled_from(["1_0", "0_1", "", "0x1", "\u0663", "1e1"]),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "0", "00"]),
        st.integers(0, 80),
        st.sampled_from(["", " ", "\t"]),
    ),
)
_LENGTH_LINES = st.builds(
    "{}:{}".format,
    st.sampled_from(["Content-Length", "content-length", " CONTENT-LENGTH "]),
    _LENGTH_VALUES,
)
_OTHER_LINES = st.one_of(
    st.builds("{}: {}".format, st.sampled_from(["Host", "X-A"]), st.text("ab:1 ")),
    st.text(alphabet="Hostab -1", min_size=1, max_size=12),  # colon optional
)


def _content_lengths(header_lines: list[str]) -> list[str]:
    values = []
    for line in header_lines:
        name, colon, value = line.partition(":")
        if colon and name.strip().lower() == "content-length":
            values.append(value.strip())
    return values


@settings(max_examples=300, deadline=None)
@given(
    request_line=_REQUEST_LINES,
    length_lines=st.lists(_LENGTH_LINES, max_size=2).flatmap(
        lambda lines: st.sampled_from([lines, lines + lines[:1]])
    ),
    other_lines=st.lists(_OTHER_LINES, max_size=3),
    body=st.binary(max_size=96),
)
def test_fuzzed_heads_never_raise(request_line, length_lines, other_lines, body):
    """Any head parses to ``None`` or to a request framed by exactly one
    plain-digit Content-Length; nothing escapes as an exception."""
    header_lines = other_lines + length_lines
    request = parse([request_line, *header_lines], body, encoding="utf-8")
    if request is None:
        return
    assert isinstance(request, Request)
    lengths = set(_content_lengths(header_lines))
    assert len(lengths) <= 1
    length = lengths.pop() if lengths else "0"
    assert length.isascii() and length.isdigit()
    assert len(request.body) == int(length) <= MAX_BODY_BYTES


_WORDS = st.text(alphabet="az09-._~", min_size=1, max_size=6)
_QUERY_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["GET", "post", "Delete"]),
    segments=st.lists(_WORDS, max_size=3),
    query=st.dictionaries(_QUERY_TEXT, _QUERY_TEXT, max_size=3),
    fragment=st.sampled_from(["", "#", "#frag"]),
    body=st.binary(max_size=32),
)
def test_well_formed_request_round_trips(method, segments, query, fragment, body):
    path = "/" + "/".join(segments)
    encoded = "&".join(
        f"{quote(key, safe='')}={quote(value, safe='')}"
        for key, value in query.items()
    )
    target = path + (f"?{encoded}" if encoded else "") + fragment
    request = parse(
        [f"{method} {target} HTTP/1.1", f"Content-Length: {len(body)}"], body
    )
    assert request is not None
    assert (request.method, request.path, dict(request.query)) == (
        method.upper(),
        path,
        query,
    )
    assert request.body == body
