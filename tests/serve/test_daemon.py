"""Daemon end-to-end: socket lifecycle, concurrent clients, clean exit."""

import os
import threading
import time

import pytest

from repro.serve import daemon as dmod
from repro.serve.client import ServeClient, ServeError

#: Generous on purpose: these bounds only turn a wedged daemon into a
#: report; a passing run waits on events (connect, thread exit), never
#: on them.
BOUND_S = 120


def shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}
    except FileNotFoundError:  # non-Linux
        return set()


def _orphaned(segment: str) -> bool:
    """Names are ``repro-<kind>-<pid>-<seq>``: the segment is this
    test's to answer for unless its creator is another live process (a
    concurrent run on the same box)."""
    try:
        pid = int(segment.split("-")[-2])
    except (ValueError, IndexError):
        return True
    return pid == os.getpid() or not dmod.pid_alive(pid)


def leaked_since(before):
    """Segments that appeared after ``before`` and no live process holds."""
    return sorted(filter(_orphaned, shm_segments() - before))


def start_daemon(sock, **kwargs):
    """A foreground daemon in a thread, returned once it answers.

    Connect-retry rather than polling for the socket file: the path
    exists from ``bind()``, before ``listen()`` and before the pidfile
    is written, and one ``status`` round trip is past all three.
    """
    thread = threading.Thread(target=dmod.run_daemon, args=(sock,),
                              kwargs=kwargs, daemon=True)
    thread.start()
    deadline = time.monotonic() + BOUND_S
    while time.monotonic() < deadline:
        try:
            with ServeClient(sock) as client:
                client.status()
            return thread
        except (FileNotFoundError, ConnectionRefusedError):
            thread.join(0.02)  # returns at once if the daemon died
            if not thread.is_alive():
                pytest.fail("daemon died during startup")
    pytest.fail(f"daemon not accepting on {sock} after {BOUND_S}s")


def join_daemon(thread):
    thread.join(BOUND_S)
    assert not thread.is_alive(), \
        f"daemon thread still running {BOUND_S}s after shutdown"


@pytest.fixture
def daemon(tmp_path):
    """A foreground daemon on a temp socket, running in a thread."""
    sock = tmp_path / "serve.sock"
    thread = start_daemon(sock, max_concurrency=4)
    yield sock
    if sock.exists():
        try:
            with ServeClient(sock) as c:
                c.shutdown()
        except (ConnectionError, OSError):
            pass
    join_daemon(thread)


class TestDaemonLifecycle:
    def test_request_response_over_socket(self, daemon):
        with ServeClient(daemon) as client:
            report = client.request("verify", nest="L2",
                                    strategy="duplicate")
        assert report["ok"]
        assert report["communication_free"]

    def test_pidfile_written(self, daemon):
        pid = dmod.read_pidfile(daemon)
        assert pid == os.getpid()  # thread-hosted daemon: our pid

    def test_mixed_concurrent_clients(self, daemon):
        """Several clients firing mixed ops concurrently all succeed."""
        before = shm_segments()
        results: dict[int, list] = {}

        def client_loop(idx: int):
            ops = [("verify", "L2", "duplicate"),
                   ("plan", "L1", "duplicate"),
                   ("run", "L2", "duplicate"),
                   ("audit", "L1", "duplicate")]
            got = []
            with ServeClient(daemon) as client:
                for op, nest, strategy in ops:
                    got.append(client.request(op, nest=nest,
                                              strategy=strategy))
            results[idx] = got

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert sorted(results) == [0, 1, 2]
        for got in results.values():
            assert len(got) == 4
            assert all(r.get("ok", True) for r in got)
        with ServeClient(daemon) as client:
            st = client.status()
        assert st["requests"] >= 12
        assert st["errors"] == 0
        assert leaked_since(before) == []

    def test_typed_error_over_the_wire(self, daemon):
        with ServeClient(daemon) as client:
            with pytest.raises(ServeError) as exc:
                client.request("verify", nest="for broken {{{")
        assert exc.value.kind == "bad-request"

    def test_every_frame_gets_exactly_one_reply(self, daemon, monkeypatch):
        """A wrong-typed field, and even a crash inside the front door
        itself, are answered: a frame without a reply leaves the client
        waiting until its own timeout."""
        import socket

        from repro.serve.protocol import decode_frame, encode_frame
        from repro.serve.server import AsyncServer

        def exchange(conn, rfile, frame):
            conn.sendall(encode_frame(frame))
            return decode_frame(rfile.readline())

        handle = AsyncServer.handle

        async def crashing(self, frame):
            if frame.get("id") == "crash":
                raise RuntimeError("front door fell over")
            return await handle(self, frame)

        monkeypatch.setattr(AsyncServer, "handle", crashing)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(BOUND_S)
            conn.connect(str(daemon))
            with conn.makefile("rb") as rfile:
                typed = exchange(conn, rfile, {
                    "schema_version": 1, "op": "verify", "nest": "L1",
                    "scalars": [1, 2], "id": "t1"})
                crash = exchange(conn, rfile, {
                    "schema_version": 1, "op": "status", "id": "crash"})
                status = exchange(conn, rfile, {
                    "schema_version": 1, "op": "status", "id": "s1"})
        assert typed["id"] == "t1" and not typed["ok"]
        assert typed["error"]["kind"] == "bad-request"
        assert "scalars" in typed["error"]["reason"]
        assert crash["error"] == {"kind": "internal",
                                  "reason": "front door fell over"}
        assert status["ok"] and status["id"] == "s1"
        assert status["result"]["errors"] == 2

    def test_clean_shutdown_removes_socket_and_pidfile(self, tmp_path):
        sock = tmp_path / "s2.sock"
        thread = start_daemon(sock)
        before = shm_segments()
        with ServeClient(sock) as client:
            client.request("run", nest="L2", strategy="duplicate",
                           backend="multiprocess")
            client.shutdown()
        join_daemon(thread)
        assert not sock.exists()
        assert dmod.pidfile_for(sock).exists() is False
        # the warm pool and every cached plan segment were released
        assert leaked_since(before) == []

    def test_clean_shutdown_leaves_stderr_empty(self, tmp_path):
        """The connection that sent ``shutdown`` stays open until the
        daemon is gone: its handler must return, not be cancelled in
        ``readline()`` (py3.11 logs that as an exception in a callback)."""
        import subprocess
        import sys

        sock = tmp_path / "s3.sock"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.daemon",
             "--socket", str(sock)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.monotonic() + BOUND_S
            while True:
                try:
                    client = ServeClient(sock)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
            with client:
                client.status()
                client.shutdown()
                _, err = proc.communicate(timeout=BOUND_S)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert err == ""
