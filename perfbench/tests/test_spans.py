import pytest

from spans import PER_LAYER, Tracer, layer_metrics, percentile, self_times, unresolved_percentiles


def span(i, parent, name, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


def test_self_time_on_hand_built_tree():
    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "choquet.scan", 1.0, 7.0, points=4, indeterminate=[]),
        span(2, 1, "choquet.linprog", 2.0, 3.0, rows=10),
        span(3, 1, "choquet.linprog", 3.0, 5.5, rows=30),
        span(4, 1, "choquet.verify", 6.0, 6.5),
        span(5, 0, "engine.convergence", 8.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 0.5, 5: 1.0})

    m = layer_metrics({"spans": spans, "rule_calls": 7, "import_s": 1.25}, overhead_s=0.5)
    assert set(m) == set(PER_LAYER)
    assert m["choquet.lp_calls"] == 2
    assert m["choquet.lp_per_point"] == 0.5
    assert m["choquet.lp_s"] == pytest.approx(3.5)
    assert m["choquet.lp_rows_mean"] == 20
    assert m["choquet.lp_rows_max"] == 30
    assert m["choquet.scan_s"] == pytest.approx(6.0)
    assert m["choquet.scan_self_s"] == pytest.approx(2.0)
    assert m["choquet.verify_calls"] == 1
    assert m["engine.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["functions.rule_calls"] == 7


def test_overlapping_children_are_counted_once():
    spans = [
        span(0, None, "a", 0.0, 4.0),
        span(1, 0, "b", 1.0, 3.0),
        span(2, 0, "c", 2.0, 5.0),  # overlaps b and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans():
    t = Tracer("run-1")
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2, attrs=lambda a, k, r: {"result": r})
    assert outer(1) == 4
    dump = t.dump()
    by_name = {s["name"]: s for s in dump["spans"]}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["attrs"] == {"result": 4}
    assert {s["run_id"] for s in dump["spans"]} == {"run-1"}


def test_percentile_and_resolution():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    trace = {"spans": [span(i, None, "choquet.linprog", 0.0, 1.0) for i in range(50)]}
    assert unresolved_percentiles(trace) == ["choquet.lp_s_p90"]
