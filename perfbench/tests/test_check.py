"""Hand-made bad answers are rejected; good ones pass."""

from check import EdgeArrays, ServeMirror, check_solve

# A path 0-1-2-3 plus the chord 1-3.
EDGES = [(0, 1), (1, 2), (2, 3), (1, 3)]
GRAPH = EdgeArrays(5, EDGES)  # vertex 4 is isolated


def test_good_answer_passes():
    assert check_solve(GRAPH, [0, 2, 4], 3, True) is None
    assert check_solve(GRAPH, [0, 3, 4], 4, False) is None


def test_not_independent():
    assert "not independent" in check_solve(GRAPH, [0, 1, 4], 5, False)


def test_not_maximal():
    assert "not maximal" in check_solve(GRAPH, [0, 2], 5, False)


def test_bound_below_size():
    assert "exceeds" in check_solve(GRAPH, [0, 2, 4], 2, False)


def test_exact_claim_with_loose_bound():
    assert "claims exact" in check_solve(GRAPH, [0, 2, 4], 4, True)


def test_out_of_range_and_repeats():
    assert "out of range" in check_solve(GRAPH, [0, 2, 5], 5, False)
    assert "repeated" in check_solve(GRAPH, [0, 2, 4, 4], 5, False)


def _answer(vertices, **extra):
    return {"id": "g", "independent_set": vertices, "upper_bound": 5,
            "is_exact": False, **extra}


def test_mirror_checks_the_current_version():
    mirror = ServeMirror({"g": (5, EDGES)})
    assert mirror.check_solve_response(_answer([0, 2, 4])) is None
    mirror.mutate("g", [["add_edge", 0, 2]])
    assert "not independent" in mirror.check_solve_response(_answer([0, 2, 4]))
    assert mirror.check_solve_response(_answer([0, 3, 4])) is None


def test_only_shed_answers_may_lag():
    mirror = ServeMirror({"g": (5, EDGES)})
    mirror.mutate("g", [["add_edge", 0, 2]])
    mirror.mutate("g", [["remove_edge", 2, 3]])
    old = [0, 2, 4]  # right for the registered graph, wrong after the add
    assert mirror.check_solve_response(_answer(old)) is not None
    assert mirror.check_solve_response(_answer(old, stale=True)) is not None
    assert mirror.check_solve_response(_answer(old, shed=True)) is None
    assert mirror.check_solve_response(_answer([0, 1], shed=True)) is not None


def test_lag_does_not_excuse_a_bound_below_the_set():
    mirror = ServeMirror({"g": (5, EDGES)})
    mirror.mutate("g", [["add_edge", 0, 2]])
    answer = _answer([0, 2, 4], shed=True, stale=True)
    answer["upper_bound"] = 2
    assert "exceeds" in mirror.check_solve_response(answer)


def test_answer_without_a_set_is_rejected():
    mirror = ServeMirror({"g": (5, EDGES)})
    assert mirror.check_solve_response({"id": "g", "upper_bound": 5, "is_exact": False})
