"""The asyncio HTTP front end of the chase service (stdlib only).

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` — no
frameworks, no dependencies — exposing :class:`repro.service.session.ChaseService`
as JSON endpoints:

========  ==============================  =======================================
method    path                            meaning
========  ==============================  =======================================
GET       ``/healthz``                    liveness probe
GET       ``/statz``                      service counters + verdict-cache stats
POST      ``/v1/sessions``                create a session (tgds + facts), chase
GET       ``/v1/sessions``                list open sessions
GET       ``/v1/sessions/{id}``           session info
GET       ``/v1/sessions/{id}/atoms``     canonical sorted atom serialization
POST      ``/v1/sessions/{id}/facts``     inject facts, resume, return the delta
DELETE    ``/v1/sessions/{id}``           close the session
POST      ``/v1/analyze``                 portfolio termination verdict (cached)
========  ==============================  =======================================

Request/response bodies are JSON.  Client-supplied facts are atom strings
(``R(a,b)``; ``?n``-nulls allowed); derived atoms come back as canonical
reprs and are *output only* — chase-invented null names contain digest
dots the fact grammar does not accept, which is intentional: invented
nulls are the server's, clients talk in their own terms.

The event loop never chases and never waits on a session lock: every
handler that takes one runs in a thread pool (``loop.run_in_executor``),
so slow saturations block neither the accept loop nor each other.
Budget envelopes bound every request — a ``budget`` object in the
payload, else the server's default wall cap — and a cut answers
``status: "timeout"`` with the session suspended and continuable, never
a dropped connection.

Errors follow :class:`repro.errors.ServiceError`: the carried status
becomes the HTTP code and the message the JSON ``error`` body.  Each
routed request runs inside a ``service.request`` trace span; the service's
counters are the :class:`~repro.obs.stats.ChaseStats` served on ``/statz``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Optional, Tuple, Union

from repro.errors import ServiceError
from repro.obs import trace
from repro.service.session import (
    ChaseService,
    parse_fact_payload,
    parse_tgd_payload,
)

#: Largest accepted request body; bigger ones answer 413.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Largest accepted request line + headers block.
MAX_HEADER_BYTES = 64 * 1024


def _json_default(value):
    # Objects json cannot encode ride through as their canonical reprs.  An
    # atom is a tuple, which json encodes as an array, so payloads repr
    # their atoms before they get here.
    return repr(value)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, default=_json_default).encode()


class ChaseServer:
    """The asyncio server wrapping one :class:`ChaseService`."""

    def __init__(
        self,
        service: Optional[ChaseService] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        **service_kwargs,
    ):
        self.service = service if service is not None else ChaseService(**service_kwargs)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 binds an ephemeral port; report the real one.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    # -- connection loop ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, payload = await self._dispatch(method, path, body)
                data = _encode(payload)
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    "\r\n"
                ).encode()
                writer.write(head + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Union[bytes, ServiceError], bool]]:
        """One request off the wire, or None at a clean EOF.

        A body that cannot be read comes back as the :class:`ServiceError`
        to answer with, and the connection is then closed."""
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        except asyncio.LimitOverrunError as error:
            raise ConnectionError("header block too large") from error
        if len(header_blob) > MAX_HEADER_BYTES:
            raise ConnectionError("header block too large")
        lines = header_blob.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as error:
            raise ConnectionError(f"malformed request line {lines[0]!r}") from error
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # Drain nothing; answer 400 and drop the connection.
            error = ServiceError(f"malformed Content-Length {declared!r}", status=400)
            return method.upper(), target, error, False
        length = int(declared)
        if length > MAX_BODY_BYTES:
            # Drain nothing; answer 413 and drop the connection.
            error = ServiceError("request body too large", status=413)
            return method.upper(), target, error, False
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return method.upper(), target.split("?", 1)[0], body, keep_alive

    # -- routing ------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: Union[bytes, ServiceError]
    ) -> Tuple[int, dict]:
        try:
            if isinstance(body, ServiceError):
                raise body
            route, handler, args = self._route(method, path)
            payload = self._decode_body(body) if method in ("POST", "PUT") else None
            with trace.span("service.request", route=route):
                result = await handler(payload, *args)
            status = 200
        except ServiceError as error:
            status, result = error.status, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - a 500 must not kill the loop
            status, result = 500, {"error": f"{type(error).__name__}: {error}"}
        return status, result

    def _route(self, method: str, path: str):
        """Resolve ``(route-name, handler, args)`` or raise 404/405."""
        parts = [part for part in path.split("/") if part]
        if path == "/healthz" and method == "GET":
            return "healthz", self._healthz, ()
        if path == "/statz" and method == "GET":
            return "statz", self._statz, ()
        if parts[:2] == ["v1", "sessions"]:
            if len(parts) == 2:
                if method == "POST":
                    return "sessions.create", self._create_session, ()
                if method == "GET":
                    return "sessions.list", self._list_sessions, ()
                raise ServiceError(f"method {method} not allowed", status=405)
            session_id = parts[2]
            if len(parts) == 3:
                if method == "GET":
                    return "sessions.info", self._session_info, (session_id,)
                if method == "DELETE":
                    return "sessions.delete", self._delete_session, (session_id,)
                raise ServiceError(f"method {method} not allowed", status=405)
            if len(parts) == 4 and parts[3] == "atoms" and method == "GET":
                return "sessions.atoms", self._session_atoms, (session_id,)
            if len(parts) == 4 and parts[3] == "facts" and method == "POST":
                return "sessions.facts", self._post_facts, (session_id,)
        if path == "/v1/analyze" and method == "POST":
            return "analyze", self._analyze, ()
        raise ServiceError(f"no route for {method} {path}", status=404)

    @staticmethod
    def _decode_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ServiceError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    # -- handlers (chase work runs in executor threads) ----------------------

    async def _run(self, func, *args):
        return await asyncio.get_running_loop().run_in_executor(None, func, *args)

    async def _healthz(self, _payload) -> dict:
        return {"ok": True}

    async def _statz(self, _payload) -> dict:
        return self.service.statz()

    async def _create_session(self, payload: dict) -> dict:
        tgds = parse_tgd_payload(payload.get("tgds"))
        facts = parse_fact_payload(payload.get("facts"))
        budget = self.service.budget_for(payload.get("budget"))
        backend = payload.get("backend")
        result = await self._run(
            self.service.create_session, tgds, facts, budget, backend
        )
        result["derived"] = [repr(atom) for atom in result["derived"]]
        return result

    async def _list_sessions(self, _payload) -> dict:
        return {"sessions": await self._run(self.service.list_sessions)}

    async def _session_info(self, _payload, session_id: str) -> dict:
        return await self._run(self.service.get(session_id).info)

    async def _session_atoms(self, _payload, session_id: str) -> dict:
        session = self.service.get(session_id)
        atoms = await self._run(session.canonical_atoms)
        return {
            "session": session_id,
            "atoms": atoms,
            "applications": session.applications,
            "rounds": session.rounds,
        }

    async def _post_facts(self, payload: dict, session_id: str) -> dict:
        facts = parse_fact_payload(payload.get("facts"))
        budget = self.service.budget_for(payload.get("budget"))
        result = await self._run(self.service.post_facts, session_id, facts, budget)
        result["derived"] = [repr(atom) for atom in result["derived"]]
        return result

    async def _delete_session(self, _payload, session_id: str) -> dict:
        return await self._run(self.service.delete, session_id)

    async def _analyze(self, payload: dict) -> dict:
        tgds = parse_tgd_payload(payload.get("tgds"))
        budget = self.service.budget_for(payload.get("budget"))
        return await self._run(self.service.analyze, tgds, budget)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServerHandle:
    """An in-process server running on a background event loop.

    The handle the tests and the load bench use: binds an ephemeral port,
    exposes it as ``.port``, and tears the loop down on :meth:`close`.
    The wrapped :class:`ChaseService` stays directly reachable as
    ``.service`` for white-box assertions.
    """

    def __init__(self, server: ChaseServer, loop, thread):
        self.server = server
        self.service = server.service
        self.loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(
            timeout=10
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


def start_in_process(
    host: str = "127.0.0.1", port: int = 0, **service_kwargs
) -> ServerHandle:
    """Boot a server on a daemon thread; returns once it is accepting."""
    server = ChaseServer(host=host, port=port, **service_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, name="chase-server", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise RuntimeError("chase server failed to start within 10s")
    return ServerHandle(server, loop, thread)


def run_server(
    host: str = "127.0.0.1", port: int = 8080, **service_kwargs
) -> None:
    """Blocking entry point used by ``python -m repro.service``."""
    server = ChaseServer(host=host, port=port, **service_kwargs)

    async def main():
        await server.start()
        print(
            f"chase service listening on http://{server.host}:{server.port}",
            flush=True,
        )
        # Shut down through server.stop() on SIGINT/SIGTERM: open sessions
        # must be closed, or disk-backed ones leak their temp databases.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
