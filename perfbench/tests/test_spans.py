"""Self time is duration minus the union of the children's intervals."""

import json

from spans import Tracer


def test_self_time_subtracts_overlapping_children_once():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0, rid="r1")
    tracer.add("dispatch", 1.0, 4.0, root, "r1")
    tracer.add("dispatch", 3.0, 6.0, root, "r1")  # overlaps the first
    tracer.add("dispatch", 9.0, 12.0, root, "r1")  # runs past the parent
    assert tracer.self_times() == [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0]
    assert tracer.self_time_by_name() == {"request": 4.0, "dispatch": 9.0}


def test_span_nesting_and_write(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "a") as outer:
        with tracer.span("inner", "a") as inner:
            pass
    assert tracer.parents == [-1, outer]
    assert tracer.starts[outer] <= tracer.starts[inner] <= tracer.ends[inner] <= tracer.ends[outer]
    path = tmp_path / "t.jsonl"
    tracer.write(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert rows[1]["parent"] == 0 and rows[1]["rid"] == "a"
