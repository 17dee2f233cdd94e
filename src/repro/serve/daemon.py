"""The Unix-domain-socket daemon around :class:`AsyncServer`.

``repro serve start`` binds ``$REPRO_SERVE_SOCKET`` (default
``<cache-root>/serve.sock``), writes a pidfile next to it, and serves
JSON-lines frames until a ``shutdown`` request (``repro serve stop``)
or SIGTERM.  Every connection is one client; frames on one connection
are answered in completion order (each request is its own asyncio
task), so a client may pipeline.

The module doubles as the foreground entry point::

    python -m repro.serve.daemon --socket /tmp/s.sock

which is exactly what ``repro serve start`` double-forks into, and
what tests run in a thread.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from pathlib import Path
from typing import Optional

from repro import config
from repro.serve.protocol import ProtocolError, Response, decode_frame, encode_frame
from repro.serve.server import (
    DEFAULT_CONCURRENCY,
    DEFAULT_QUEUE_LIMIT,
    AsyncServer,
)


def default_socket_path() -> Path:
    """``$REPRO_SERVE_SOCKET`` or ``<cache-root>/serve.sock``."""
    env = config.get("REPRO_SERVE_SOCKET")
    if env:
        return Path(env)
    from repro.pipeline.cache import cache_root

    return cache_root() / "serve.sock"


def pidfile_for(socket_path) -> Path:
    return Path(socket_path).with_suffix(".pid")


def read_pidfile(socket_path) -> Optional[int]:
    try:
        return int(pidfile_for(socket_path).read_text().strip())
    except (OSError, ValueError):
        return None


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


async def _handle_connection(server: AsyncServer,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    """One client: read frames until EOF or shutdown, answer each as
    its own task."""
    tasks: set[asyncio.Task] = set()
    shutdown = asyncio.ensure_future(server.shutdown_event.wait())

    async def answer(line: bytes) -> None:
        """Exactly one reply frame per received line, whatever it held."""
        try:
            raw = encode_frame(await server.handle(decode_frame(line)))
        except ProtocolError as exc:   # undecodable line, oversized reply
            raw = encode_frame(Response.failure("", exc))
        except Exception as exc:  # noqa: BLE001 - a silent client hangs
            server.registry.inc("serve.errors")
            server.registry.inc("serve.errors.internal")
            raw = encode_frame(Response.failure("", exc))
        writer.write(raw)
        await writer.drain()

    try:
        while True:
            read = asyncio.ensure_future(reader.readline())
            await asyncio.wait({read, shutdown},
                               return_when=asyncio.FIRST_COMPLETED)
            if not read.done():
                # nothing more is served; a handler left waiting in
                # readline() is cancelled by asyncio.run at teardown,
                # which 3.11 logs as an exception in a callback
                read.cancel()
                break
            line = read.result()
            if not line:
                break
            task = asyncio.ensure_future(answer(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        shutdown.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_forever(socket_path, server: AsyncServer) -> None:
    """Bind the socket, serve until the shutdown event, clean up."""
    socket_path = Path(socket_path)
    socket_path.parent.mkdir(parents=True, exist_ok=True)
    if socket_path.exists():
        socket_path.unlink()
    sock_server = await asyncio.start_unix_server(
        lambda r, w: _handle_connection(server, r, w), path=str(socket_path))
    pidfile_for(socket_path).write_text(f"{os.getpid()}\n")
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.shutdown_event.set)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        async with sock_server:
            await server.shutdown_event.wait()
    finally:
        sock_server.close()
        try:
            # 3.12+ waits for live connection handlers too; an idle
            # client that never disconnects must not wedge shutdown
            await asyncio.wait_for(sock_server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        server.close()
        for path in (socket_path, pidfile_for(socket_path)):
            try:
                path.unlink()
            except OSError:
                pass


def run_daemon(socket_path=None,
               max_concurrency: int = DEFAULT_CONCURRENCY,
               queue_limit: int = DEFAULT_QUEUE_LIMIT,
               server: Optional[AsyncServer] = None) -> None:
    """Foreground daemon loop (blocks until shutdown)."""
    socket_path = socket_path or default_socket_path()
    if server is None:
        server = AsyncServer(max_concurrency=max_concurrency,
                             queue_limit=queue_limit)
    asyncio.run(serve_forever(socket_path, server))


def spawn_daemon(socket_path=None,
                 max_concurrency: int = DEFAULT_CONCURRENCY,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 wait_s: float = 10.0) -> int:
    """Start a detached daemon process; returns its pid.

    Double-fork + setsid so the daemon survives the CLI process, with
    the grandchild exec'ing this module in foreground mode.  Waits for
    the socket to appear (the daemon is accepting) before returning.
    """
    import subprocess
    import time

    socket_path = Path(socket_path or default_socket_path())
    existing = read_pidfile(socket_path)
    if existing is not None and pid_alive(existing):
        raise RuntimeError(
            f"daemon already running (pid {existing}, "
            f"socket {socket_path})")
    argv = [sys.executable, "-m", "repro.serve.daemon",
            "--socket", str(socket_path),
            "--concurrency", str(max_concurrency),
            "--queue-limit", str(queue_limit)]
    proc = subprocess.Popen(
        argv, start_new_session=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if socket_path.exists():
            return proc.pid
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited immediately (code {proc.returncode})")
        time.sleep(0.05)
    proc.terminate()
    raise RuntimeError(f"daemon did not bind {socket_path} "
                       f"within {wait_s}s")


def stop_daemon(socket_path=None, wait_s: float = 10.0) -> bool:
    """Graceful stop: shutdown request over the socket, SIGTERM fallback.

    Returns True if a daemon was stopped, False if none was running.
    """
    import time

    socket_path = Path(socket_path or default_socket_path())
    pid = read_pidfile(socket_path)
    stopped = False
    if socket_path.exists():
        from repro.serve.client import ServeClient

        try:
            with ServeClient(socket_path, timeout=wait_s) as client:
                client.shutdown()
            stopped = True
        except (ConnectionError, OSError):
            pass
    if not stopped and pid is not None and pid_alive(pid):
        os.kill(pid, signal.SIGTERM)
        stopped = True
    if pid is not None:
        deadline = time.monotonic() + wait_s
        while time.monotonic() < deadline and pid_alive(pid):
            time.sleep(0.05)
    # a SIGKILLed daemon leaves its socket behind; clear it
    for path in (socket_path, pidfile_for(socket_path)):
        try:
            path.unlink()
        except OSError:
            pass
    return stopped


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.daemon",
        description="foreground repro serving daemon")
    parser.add_argument("--socket", default=None,
                        help="unix socket path (default "
                             "$REPRO_SERVE_SOCKET or <cache>/serve.sock)")
    parser.add_argument("--concurrency", type=int,
                        default=DEFAULT_CONCURRENCY)
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT)
    args = parser.parse_args(argv)
    run_daemon(args.socket, max_concurrency=args.concurrency,
               queue_limit=args.queue_limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
