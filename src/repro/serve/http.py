"""Minimal asyncio HTTP/1.1 plumbing for the anonymization service.

The repo is dependency-free beyond numpy, so the service speaks a small,
strict subset of HTTP/1.1 directly over :mod:`asyncio` streams: request
line + headers + ``Content-Length`` bodies in, status + headers +
``Content-Length`` bodies out, persistent connections by default.  That
subset is exactly what release caching needs — ``ETag`` /
``If-None-Match`` revalidation rides plain headers — while keeping the
whole transport auditable in one file.

This module knows nothing about anonymization; routing lives in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Optional
from urllib.parse import parse_qs, unquote, urlsplit

#: Hard caps keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """Abort request handling with a specific status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request.  Header names are lower-cased."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self):
        """The body parsed as JSON (400 on syntax errors)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from exc


@dataclass
class Response:
    """One response; ``Content-Length`` and reason phrase are derived."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200, **headers: str) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(payload, indent=2) + "\n").encode("utf-8"),
            content_type="application/json",
            headers=dict(headers),
        )

    @classmethod
    def text(cls, text: str, status: int = 200, **headers: str) -> "Response":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
            headers=dict(headers),
        )


Handler = Callable[[Request], Awaitable[Response]]


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; None on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, f"malformed Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unterminated IPv6 host: http://[bad
        raise HttpError(400, f"malformed request target {target!r}")
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _render(response: Response, *, keep_alive: bool) -> bytes:
    reason = REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    headers = dict(response.headers)
    headers.setdefault("Content-Type", response.content_type)
    # A 304 must not carry a body; everything else gets an exact length.
    body = b"" if response.status == 304 else response.body
    headers["Content-Length"] = str(len(body))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    for name, value in headers.items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class HttpServer:
    """Serve ``handler`` over asyncio streams with persistent connections."""

    def __init__(self, handler: Handler):
        self._handler = handler
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port, limit=MAX_HEADER_BYTES
        )
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections park in readuntil; closing their
        # transports turns that into a clean EOF, so each connection task
        # finishes normally instead of being cancelled mid-read.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
            task.add_done_callback(lambda t: self._connections.pop(t, None))
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    writer.write(_render(
                        Response.json({"error": str(exc)}, status=exc.status),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    response = await self._handler(request)
                except HttpError as exc:
                    response = Response.json(
                        {"error": str(exc)}, status=exc.status
                    )
                except Exception as exc:  # noqa: BLE001 — service must not die
                    response = Response.json(
                        {"error": f"{type(exc).__name__}: {exc}"}, status=500
                    )
                writer.write(_render(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
