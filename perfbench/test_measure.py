"""Checks of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import json

import pytest

import measure


def test_p99_needs_a_thousand_samples():
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.samples_beyond(999, 99) == 9
    p99 = measure.percentile_of([float(v) for v in range(1, 1001)], 99)
    assert (p99.value, p99.count, p99.beyond, p99.supported) == (990.0, 1000, 10, True)
    assert not measure.percentile_of([1.0] * 999, 99).supported


def test_median_needs_twenty_samples_to_have_ten_beyond():
    assert measure.percentile_of([float(v) for v in range(20)], 50).supported
    assert not measure.percentile_of([float(v) for v in range(19)], 50).supported


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 1) == 1.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_percentile_description_states_count_and_tail():
    text = measure.percentile_of([float(v) for v in range(100)], 99).describe("ms")
    assert "n=100" in text and "1 beyond" in text and "UNSUPPORTED" in text


def test_self_time_counts_overlapping_children_once():
    assert measure.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)
    nested = [(1.0, 2.0), (1.5, 1.8), (5.0, 7.0)]
    assert measure.self_time((0.0, 10.0), nested) == pytest.approx(7.0)


def test_self_time_clips_children_stamped_by_another_process():
    assert measure.self_time((0.0, 10.0), [(8.0, 12.0)]) == pytest.approx(8.0)
    assert measure.self_time((0.0, 1.0), [(-1.0, 3.0)]) == 0.0


def _span(span_id, parent, name, ts, dur, pid):
    return json.dumps(
        {"trace_id": "t", "span_id": span_id, "parent_id": parent, "name": name,
         "ts": ts, "dur_s": dur, "pid": pid}
    )


def test_span_tree_self_time_across_processes():
    tree = measure.SpanTree.from_lines(
        [
            _span("a", None, "bench.request", 100.0, 1.0, 1),
            _span("b", "a", "service.solve", 100.1, 0.8, 1),
            _span("c", "b", "worker.solve", 100.2, 0.5, 2),
            _span("d", "c", "engine.sample", 100.25, 0.4, 2),
            _span("e", "gone", "engine.sample", 100.0, 0.1, 3),
            "not json",
        ]
    )
    assert tree.malformed == 1
    assert [span.span_id for span in tree.orphans()] == ["e"]
    assert tree.self_time(tree.by_id["a"], "service.solve") == pytest.approx(0.2)
    assert tree.self_time(tree.by_id["b"], "worker.solve") == pytest.approx(0.3)
    # Named descendants are found through spans of other names and processes.
    assert tree.self_time(tree.by_id["a"], "engine.sample") == pytest.approx(0.6)
    assert tree.self_time(tree.by_id["c"]) == pytest.approx(0.1)
    assert [span.span_id for span in tree.top_level("engine.sample")] == ["d", "e"]


def test_ratio_prints_its_base():
    ratio = measure.Ratio(3, 12)
    assert ratio.value == 0.25
    assert "3 / 12" in ratio.describe()
    assert measure.Ratio(0, 0).value == 0.0


def test_geometric_mean():
    assert measure.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        measure.geometric_mean([0.0, 1.0])
