"""ScopeStack: per-thread ambient scoping for the serving layer."""

import threading

from repro.ctxstack import ScopeStack


class TestScopeStack:
    def test_top_returns_base_then_scoped(self):
        stack = ScopeStack("base")
        assert stack.top() == "base"
        with stack.scoped("inner"):
            assert stack.top() == "inner"
            with stack.scoped("innermost"):
                assert stack.top() == "innermost"
            assert stack.top() == "inner"
        assert stack.top() == "base"

    def test_empty_stack_default(self):
        stack = ScopeStack()
        assert stack.top() is None
        assert stack.top("fallback") == "fallback"
        assert stack.depth() == 0

    def test_depth_counts_scoped_entries_only(self):
        stack = ScopeStack("base")
        assert stack.depth() == 0
        with stack.scoped(None):
            # an explicit None is a real entry (chaos-disable semantics)
            assert stack.depth() == 1
            assert stack.top("unused") is None

    def test_pop_is_identity_matched(self):
        stack = ScopeStack()
        sentinel = object()
        with stack.scoped(sentinel):
            assert stack.top() is sentinel
        assert stack.depth() == 0

    def test_factory(self):
        stack = ScopeStack(1, 2)
        assert stack.top() == 2
        assert stack.depth() == 0


class TestThreadIsolation:
    def test_worker_threads_start_from_base(self):
        """A scope pushed on one thread is invisible to another -- each
        daemon worker thread sees the process defaults."""
        stack = ScopeStack("base")
        seen = {}

        def worker():
            seen["worker"] = stack.top()
            with stack.scoped("worker-scope"):
                seen["worker-scoped"] = stack.top()

        with stack.scoped("main-scope"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert stack.top() == "main-scope"
        assert seen["worker"] == "base"
        assert seen["worker-scoped"] == "worker-scope"

    def test_concurrent_threads_do_not_interleave(self):
        stack = ScopeStack()
        barrier = threading.Barrier(4)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=10)
                for rep in range(50):
                    with stack.scoped((idx, rep)):
                        assert stack.top() == (idx, rep)
                assert stack.depth() == 0
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_ambient_registries_are_thread_isolated(self):
        """The real consumers: a registry scoped on a serve worker
        thread never leaks into a sibling request thread."""
        from repro.obs.metrics import (METRICS, MetricsRegistry,
                                       current_registry, use_registry)

        ready = threading.Barrier(2)
        release = threading.Event()
        observed = {}

        def scoping_worker():
            private = MetricsRegistry()
            with use_registry(private):
                ready.wait(timeout=10)
                release.wait(timeout=10)
                observed["scoped"] = current_registry() is private

        def plain_worker():
            ready.wait(timeout=10)
            observed["plain"] = current_registry() is METRICS
            release.set()

        threads = [threading.Thread(target=scoping_worker),
                   threading.Thread(target=plain_worker)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert observed == {"scoped": True, "plain": True}
