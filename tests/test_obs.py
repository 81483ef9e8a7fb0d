"""Unit tests for ``repro.obs``: tracer, metrics registry, report."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.obs import report
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _isolated_tracing():
    """Every test starts and ends with the tracer unconfigured."""
    obs.reset_tracing()
    yield
    obs.reset_tracing()


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


# ---------------------------------------------------------------------- tracer
class TestTracer:
    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert not obs.tracing_enabled()
        assert obs.trace_path() is None
        # The no-op span is one shared object: no allocation per call.
        assert obs.span("a") is obs.span("b")
        with obs.span("noop") as sp:
            sp.set(ignored=1)
        assert obs.wire_context() is None

    def test_env_truthy_and_path_forms(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(obs.TRACE_ENV, "1")
        assert obs.tracing_enabled()
        assert obs.trace_path().endswith("qross-trace.jsonl")
        obs.reset_tracing()
        sink = tmp_path / "custom.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(sink))
        assert obs.trace_path() == str(sink)
        obs.reset_tracing()
        monkeypatch.setenv(obs.TRACE_ENV, "off")
        assert not obs.tracing_enabled()

    def test_span_nesting_and_schema(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        with obs.span("outer", kind="test") as outer:
            with obs.span("inner") as inner:
                assert inner.context.trace_id == outer.context.trace_id
            outer.set(late="attr")
        events = read_events(sink)
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner_ev, outer_ev = events
        assert inner_ev["parent_id"] == outer_ev["span_id"]
        assert outer_ev["parent_id"] is None
        assert inner_ev["trace_id"] == outer_ev["trace_id"]
        assert outer_ev["attrs"] == {"kind": "test", "late": "attr"}
        for event in events:
            assert event["dur_s"] >= 0
            assert event["pid"] == os.getpid()

    def test_error_spans_are_marked(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("no")
        (event,) = read_events(sink)
        assert event["error"] == "ValueError: no"

    def test_sibling_spans_share_trace(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b, root = read_events(sink)
        assert a["parent_id"] == b["parent_id"] == root["span_id"]
        assert len({e["trace_id"] for e in (a, b, root)}) == 1

    def test_use_context_carries_across_threads(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        captured = {}

        def worker(ctx):
            with obs.use_context(ctx):
                with obs.span("child"):
                    pass
            captured["after"] = obs.current_context()

        with obs.span("parent") as parent:
            thread = threading.Thread(target=worker, args=(parent.context,))
            thread.start()
            thread.join()
        child, parent_ev = read_events(sink)
        assert child["parent_id"] == parent_ev["span_id"]
        assert captured["after"] is None  # context restored on the thread

    def test_wire_context_round_trip(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        with obs.span("client") as sp:
            payload = obs.wire_context()
            assert payload == {
                "trace_id": sp.context.trace_id,
                "span_id": sp.context.span_id,
            }
        ctx = obs.context_from_wire(payload)
        assert (ctx.trace_id, ctx.span_id) == (payload["trace_id"], payload["span_id"])
        # Malformed payloads degrade to "no context", never raise.
        assert obs.context_from_wire(None) is None
        assert obs.context_from_wire({}) is None
        assert obs.context_from_wire({"trace_id": 7, "span_id": "x"}) is None

    def test_adopt_wire_context_defers_to_active_span(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        payload = {"trace_id": "aa" * 8, "span_id": "bb" * 8}
        with obs.adopt_wire_context(payload):
            with obs.span("adopted"):
                pass
        # An active span wins over the wire payload (no forked branch).
        with obs.span("active") as active:
            with obs.adopt_wire_context(payload):
                assert obs.current_context() is active.context
        events = read_events(sink)
        assert events[0]["trace_id"] == "aa" * 8
        assert events[0]["parent_id"] == "bb" * 8

    def test_line_atomicity_under_concurrent_writers(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        spans_per_thread = 50

        def hammer(tag):
            for index in range(spans_per_thread):
                with obs.span("hammer", tag=tag, index=index):
                    pass

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = read_events(sink)  # json.loads raises on any torn line
        assert len(events) == 8 * spans_per_thread
        seen = {(e["attrs"]["tag"], e["attrs"]["index"]) for e in events}
        assert len(seen) == 8 * spans_per_thread

    def test_line_atomicity_across_processes(self, tmp_path):
        """Two interpreters appending to one sink never interleave bytes."""
        sink = tmp_path / "t.jsonl"
        script = (
            "from repro import obs\n"
            f"obs.configure_tracing({str(sink)!r})\n"
            "for i in range(100):\n"
            "    with obs.span('proc', i=i):\n"
            "        pass\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(2)
        ]
        for proc in procs:
            assert proc.wait() == 0
        events = read_events(sink)
        assert len(events) == 200
        assert len({e["pid"] for e in events}) == 2


# --------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("g")
        g.inc()
        g.dec()
        g.set(4.0)
        assert g.value == 4.0
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(10.0)
        assert h.count == 3
        assert h.sum == pytest.approx(10.55)

    def test_child_moves_parent_not_vice_versa(self):
        reg = MetricsRegistry()
        for parent in (reg.counter("c_total"), reg.gauge("g")):
            child = parent.child()
            child.inc(2)
            assert (child.value, parent.value) == (2, 2)
            parent.inc(5)
            assert (child.value, parent.value) == (2, 7)
            # A grandchild moves its whole chain.
            child.child().inc()
            assert (child.value, parent.value) == (3, 8)

    def test_gauge_child_moves_parent_by_its_delta(self):
        parent = MetricsRegistry().gauge("g")
        first, second = parent.child(), parent.child()
        first.set(4)
        first.dec()
        second.set(2)
        assert (first.value, second.value, parent.value) == (3, 2, 5)
        first.set(0)
        assert parent.value == 2

    def test_negative_inc_on_a_counter_child_raises(self):
        parent = MetricsRegistry().counter("c_total")
        child = parent.child()
        with pytest.raises(ValueError):
            child.inc(-1)
        assert (child.value, parent.value) == (0, 0)

    def test_sibling_children_sum_into_parent_under_contention(self):
        parent = MetricsRegistry().counter("c_total")
        children = [parent.child() for _ in range(8)]

        def bump(child):
            for _ in range(2000):
                child.inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump, args=(c,)) for c in children]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [child.value for child in children] == [2000] * len(children)
        assert parent.value == 2000 * len(children)

    def test_get_or_create_and_label_fanout(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels={"k": "a"})
        b = reg.counter("x_total", labels={"k": "b"})
        assert a is not b
        assert reg.counter("x_total", labels={"k": "a"}) is a

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("same")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("same")
        reg.histogram("hist", buckets=(1.0,))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("hist", buckets=(2.0,))

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels={"k": "v"}).inc()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap['c_total{k="v"}'] == 1.0
        assert snap["h_seconds_count"] == 1
        assert snap["h_seconds_sum"] == 0.5

    def test_global_helpers_share_one_registry(self):
        c = obs.counter("qross_test_obs_global_total")
        c.inc()
        assert obs.metrics_snapshot()["qross_test_obs_global_total"] >= 1.0


# ---------------------------------------------------------------------- report
class TestReport:
    def _write_sink(self, tmp_path):
        sink = tmp_path / "t.jsonl"
        obs.configure_tracing(sink)
        with obs.span("client"):
            with obs.span("service.solve", solver="sa"):
                with obs.span("engine.sample"):
                    pass
        obs.reset_tracing()
        return sink

    def test_tree_rendering(self, tmp_path, capsys):
        sink = self._write_sink(tmp_path)
        assert report.main([str(sink)]) == 0
        out = capsys.readouterr().out
        assert "client" in out and "service.solve" in out and "engine.sample" in out
        # The child renders indented under its parent.
        assert out.index("client") < out.index("service.solve")

    def test_summary_only(self, tmp_path, capsys):
        sink = self._write_sink(tmp_path)
        assert report.main([str(sink), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "engine.sample" in out
        assert "count" in out

    def test_malformed_lines_are_skipped(self, tmp_path, capsys):
        sink = self._write_sink(tmp_path)
        with open(sink, "a") as handle:
            handle.write("this is not json\n")
        assert report.main([str(sink)]) == 0
        assert "client" in capsys.readouterr().out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert report.main([str(tmp_path / "absent.jsonl")]) != 0

    def test_orphan_spans_become_roots(self, tmp_path, capsys):
        sink = tmp_path / "t.jsonl"
        event = {
            "trace_id": "t" * 16,
            "span_id": "s" * 16,
            "parent_id": "missing-parent",
            "name": "lonely",
            "ts": 1.0,
            "dur_s": 0.5,
        }
        sink.write_text(json.dumps(event) + "\n")
        assert report.main([str(sink)]) == 0
        assert "lonely" in capsys.readouterr().out
