"""Fixture tests for the five reprolint rules.

Each rule gets a positive fixture (a snippet that must trigger it) and a
negative fixture (the idiomatic repo shape that must stay clean), linted
in memory via :func:`repro.lint.lint_source` so the tests are independent
of the repo's own file tree.
"""

import textwrap

from repro.lint import lint_source
from repro.lint.rules import (
    DtypeDisciplineRule,
    HotLoopPurityRule,
    OracleHookParityRule,
    StatKeyRegistryRule,
    TelemetryDisciplineRule,
)
from repro.lint.engine import LintModule, lint_modules


def findings_for(source, rule_cls, path="src/repro/snippet.py"):
    return lint_source(textwrap.dedent(source), path=path, rules=[rule_cls()])


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestHotLoopPurity:
    def test_flags_loop_allocations_and_chains(self):
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws):
                total = 0
                for u in ws.order:
                    seen = set()
                    row = [u]
                    adj = ws.graph.adj
                    total += len(sorted(row))
                return total
            """,
            HotLoopPurityRule,
        )
        messages = "\n".join(f.message for f in findings)
        assert rule_ids(findings) == ["RL001"]
        assert "set()" in messages
        assert "list literal" in messages
        assert "ws.graph.adj" in messages
        assert "sorted()" in messages

    def test_flags_function_wide_bans(self):
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws):
                try:
                    helper = lambda v: v + 1
                except ValueError:
                    pass
                return [v for v in ws.order]
            """,
            HotLoopPurityRule,
        )
        messages = "\n".join(f.message for f in findings)
        assert "try/except" in messages
        assert "closure" in messages
        assert "comprehension" in messages

    def test_prelude_idiom_is_clean(self):
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws):
                # The canonical shape: chains and allocations in the
                # prelude, locals-only loop bodies.
                adj = ws.graph.adj
                append_code = ws.log.codes.append
                buffer = []
                total = 0
                while ws.live:
                    u = ws.pop()
                    buffer.clear()
                    total += adj[u]
                    append_code(u)
                return total
            """,
            HotLoopPurityRule,
        )
        assert findings == []

    def test_undecorated_function_is_ignored(self):
        findings = findings_for(
            """
            def slow_path(ws):
                for u in ws.order:
                    seen = set()
                return seen
            """,
            HotLoopPurityRule,
        )
        assert findings == []

    def test_for_iter_is_prelude_not_body(self):
        # ``for u in sorted(...)`` evaluates the iterable once; only the
        # body re-runs per iteration.
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws):
                total = 0
                for u in sorted(ws.order):
                    total += u
                return total
            """,
            HotLoopPurityRule,
        )
        assert findings == []


class TestTelemetryDiscipline:
    def test_flags_span_outside_with(self):
        findings = findings_for(
            """
            from repro.obs.telemetry import phase

            def run(telemetry):
                span = phase("reduce")
                timer = telemetry.span("peel")
            """,
            TelemetryDisciplineRule,
        )
        assert rule_ids(findings) == ["RL002"]
        assert len(findings) == 2

    def test_with_usage_is_clean(self):
        findings = findings_for(
            """
            from repro.obs.telemetry import phase

            def run(telemetry):
                with phase("reduce"):
                    with telemetry.span("peel") as span:
                        span.note("x")
            """,
            TelemetryDisciplineRule,
        )
        assert findings == []

    def test_enter_context_is_clean(self):
        findings = findings_for(
            """
            from contextlib import ExitStack

            from repro.obs.telemetry import telemetry_session

            def run():
                with ExitStack() as stack:
                    tele = stack.enter_context(telemetry_session(label="serve"))
                    return tele
            """,
            TelemetryDisciplineRule,
        )
        assert findings == []

    def test_flags_unpaired_enable(self):
        findings = findings_for(
            """
            def run(telemetry):
                telemetry.enable()
                work()
            """,
            TelemetryDisciplineRule,
        )
        assert len(findings) == 1
        assert "disable" in findings[0].message

    def test_enable_with_finally_disable_is_clean(self):
        findings = findings_for(
            """
            def run(telemetry):
                telemetry.enable()
                try:
                    work()
                finally:
                    telemetry.disable()
            """,
            TelemetryDisciplineRule,
        )
        assert findings == []

    def test_hot_loop_telemetry_needs_guard(self):
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws, telemetry):
                for u in ws.order:
                    telemetry.count("steps", 1)
            """,
            TelemetryDisciplineRule,
        )
        assert len(findings) == 1
        assert "@hot_loop" in findings[0].message

    def test_guarded_hot_loop_telemetry_is_clean(self):
        findings = findings_for(
            """
            from repro.core import hot_loop

            @hot_loop
            def kernel(ws, telemetry):
                for u in ws.order:
                    if telemetry is not None:
                        telemetry.count("steps", 1)
            """,
            TelemetryDisciplineRule,
        )
        assert findings == []

    def test_rule_skips_test_modules(self):
        findings = findings_for(
            """
            from repro.obs.telemetry import phase

            def test_half_open_span():
                span = phase("fixture")
            """,
            TelemetryDisciplineRule,
            path="tests/obs/test_fixture.py",
        )
        assert findings == []


class TestStatKeyRegistry:
    def test_flags_unregistered_literals(self):
        findings = findings_for(
            """
            def run(log, stats):
                log.bump("not-a-real-key")
                stats["also-fake"] = 1
                stats = {"made-up": 0}
                return MISResult(algorithm="x", stats={"bogus": 1})
            """,
            StatKeyRegistryRule,
        )
        assert len(findings) == 4
        assert all(f.severity == "error" for f in findings)

    def test_registered_literals_and_constants_are_clean(self):
        findings = findings_for(
            """
            from repro.core.result import STAT_DEGREE_ONE, STAT_ROUNDS

            def run(log, stats):
                log.bump(STAT_DEGREE_ONE)
                log.bump("peel")
                stats[STAT_ROUNDS] = 1
                stats = {STAT_ROUNDS: 0, "kernel_size": 3}
            """,
            StatKeyRegistryRule,
        )
        assert findings == []

    def test_dynamic_keys_are_advice(self):
        findings = findings_for(
            """
            def merge(log, counts):
                for rule, count in counts.items():
                    log.bump(rule, count)
            """,
            StatKeyRegistryRule,
        )
        assert len(findings) == 1
        assert findings[0].severity == "advice"

    def test_rule_skips_tests_and_registry(self):
        snippet = """
        def run(log):
            log.bump("totally-invented")
        """
        assert (
            findings_for(snippet, StatKeyRegistryRule, path="tests/test_x.py")
            == []
        )
        assert (
            findings_for(
                snippet, StatKeyRegistryRule, path="src/repro/core/result.py"
            )
            == []
        )

    def test_flags_unregistered_metric_literals(self):
        findings = findings_for(
            """
            def record(metrics, wall):
                metrics.inc("bogus_metric_total")
                metrics.observe("made_up_seconds", wall)
                metrics.set_gauge("fake_gauge", 3)
            """,
            StatKeyRegistryRule,
        )
        assert len(findings) == 3
        assert all(f.severity == "error" for f in findings)
        assert all("METRIC_KEYS" in f.message for f in findings)

    def test_registered_metric_constants_and_literals_are_clean(self):
        findings = findings_for(
            """
            from repro.obs.metrics import (
                METRIC_SERVE_CACHE_ENTRIES,
                METRIC_SERVE_REQUESTS,
            )

            def record(metrics, wall):
                metrics.inc(METRIC_SERVE_REQUESTS, op="solve")
                metrics.observe("repro_serve_request_seconds", wall, op="solve")
                metrics.set_gauge(METRIC_SERVE_CACHE_ENTRIES, 5)
            """,
            StatKeyRegistryRule,
        )
        assert findings == []

    def test_dynamic_metric_names_are_advice(self):
        findings = findings_for(
            """
            def record(metrics, name):
                metrics.inc(name)
            """,
            StatKeyRegistryRule,
        )
        assert len(findings) == 1
        assert findings[0].severity == "advice"
        assert "METRIC_*" in findings[0].message

    def test_metric_registry_module_is_exempt(self):
        findings = findings_for(
            """
            def record(metrics):
                metrics.inc("repro_internal_bootstrap_total")
            """,
            StatKeyRegistryRule,
            path="src/repro/obs/metrics.py",
        )
        assert findings == []

    def test_metric_subscript_forwarding_stays_silent(self):
        # _EVENT_METRICS[key] style forwarding is runtime-checked by the
        # registry itself, so RL003 does not second-guess it.
        findings = findings_for(
            """
            def forward(metrics, mapping, key):
                metrics.inc(mapping[key], 2)
            """,
            StatKeyRegistryRule,
        )
        assert findings == []


class TestOracleHookParity:
    SRC = textwrap.dedent(
        """
        def solver(graph, workspace_factory=None):
            return workspace_factory or object
        """
    )

    def test_flags_module_without_differential_test(self):
        modules = [
            LintModule("src/repro/core/newalgo.py", self.SRC),
            LintModule("tests/core/test_other.py", "def test_ok():\n    pass\n"),
        ]
        findings = lint_modules(modules, [OracleHookParityRule()])
        assert rule_ids(findings) == ["RL004"]
        assert "solver" in findings[0].message

    def test_covered_module_is_clean(self):
        test_src = textwrap.dedent(
            """
            from repro.core.newalgo import solver

            def test_differential():
                assert solver(g, workspace_factory=Oracle) == solver(g)
            """
        )
        modules = [
            LintModule("src/repro/core/newalgo.py", self.SRC),
            LintModule("tests/core/test_newalgo.py", test_src),
        ]
        assert lint_modules(modules, [OracleHookParityRule()]) == []

    def test_name_mention_without_hook_keyword_is_not_enough(self):
        test_src = textwrap.dedent(
            """
            from repro.core.newalgo import solver

            def test_smoke():
                assert solver(g)
            """
        )
        modules = [
            LintModule("src/repro/core/newalgo.py", self.SRC),
            LintModule("tests/core/test_newalgo.py", test_src),
        ]
        findings = lint_modules(modules, [OracleHookParityRule()])
        assert rule_ids(findings) == ["RL004"]

    def test_src_only_run_stays_silent(self):
        modules = [LintModule("src/repro/core/newalgo.py", self.SRC)]
        assert lint_modules(modules, [OracleHookParityRule()]) == []


class TestDtypeDiscipline:
    def test_flags_inferred_dtype(self):
        findings = findings_for(
            """
            import numpy as np
            from numpy import zeros

            def build(n):
                a = np.zeros(n)
                b = zeros(n)
                c = np.arange(n)
            """,
            DtypeDisciplineRule,
        )
        assert len(findings) == 3
        assert rule_ids(findings) == ["RL005"]

    def test_pinned_dtype_is_clean(self):
        findings = findings_for(
            """
            import numpy as np

            def build(n):
                a = np.zeros(n, dtype=np.int32)
                b = np.asarray(range(n), dtype=np.int64)
                c = np.diff(a)  # not a constructor
                d = np.zeros_like(a)  # inherits dtype from template
            """,
            DtypeDisciplineRule,
        )
        assert findings == []

    def test_non_numpy_names_are_ignored(self):
        findings = findings_for(
            """
            from array import array

            def build(n):
                return array("i", [0]) * n
            """,
            DtypeDisciplineRule,
        )
        assert findings == []
