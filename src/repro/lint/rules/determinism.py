"""RL009 — decision-log determinism.

The differential-oracle corpus asserts byte-identical
:class:`~repro.core.trace.DecisionLog` trajectories between backends;
the replay machinery re-derives solutions from those logs.  Both break
the moment a driver's vertex order depends on Python set/dict iteration
(hash-randomised across processes) or an unseeded global RNG.  A
per-file linter cannot tell which functions feed a decision log — RL009
walks the call graph backwards from every **log-appending driver** (a
function invoking ``include``/``exclude``/``peel``/``push_path``/
``fold`` on a decision log) and flags, anywhere in that closure:

* ``for``-loop or comprehension iteration over a value of set origin
  (wrap it in ``sorted(...)`` — list origin — to fix);
* draws from the *module-level* ``random`` RNG (``random.random()``,
  ``random.choice`` …) — instance RNGs (the seeded ``rng`` hooks the
  solvers already thread) are fine;
* draws from ``numpy.random``'s global state, including seedless
  ``default_rng()``.

The :mod:`repro.core.trace` module itself is exempt (it implements the
log), as are tests.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..dataflow import iter_function_body
from ..findings import Finding
from .base import Rule

__all__ = ["DecisionLogDeterminismRule"]

#: DecisionLog append methods — calling one makes a function a "driver".
_APPENDERS = frozenset({"include", "exclude", "peel", "push_path", "fold", "record_many"})

#: Drawing methods on the module-level ``random`` RNG.
_RANDOM_DRAWS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
    }
)

#: Drawing attributes under ``numpy.random``'s global state.
_NP_DRAWS = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "ranf",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "exponential",
    }
)

_LOG_CLASS = "repro.core.trace:DecisionLog"
_EXEMPT_SUFFIXES = ("repro/core/trace.py",)


def _is_log_receiver(scope, expr: ast.expr) -> bool:
    """Whether ``expr`` plausibly evaluates to a DecisionLog."""
    if isinstance(expr, ast.Name) and expr.id == "log":
        return True
    if isinstance(expr, ast.Attribute) and expr.attr == "log":
        return True
    for origin in scope.origins_of(expr):
        if origin == ("instance", _LOG_CLASS):
            return True
        if origin[0] == "param" and origin[1] == "log":
            return True
        if origin[0] == "param_attr" and origin[2] == "log":
            return True
    return False


class DecisionLogDeterminismRule(Rule):
    """No unordered iteration / global RNG on decision-log paths."""

    rule_id = "RL009"
    name = "decision-log-determinism"
    summary = (
        "functions reachable from DecisionLog-appending drivers must not "
        "iterate sets or draw from unseeded global RNGs"
    )

    _SCOPE = ("src/",)

    # ------------------------------------------------------------------
    def _roots(self, project: "object") -> List[str]:
        index = project.index  # type: ignore[attr-defined]
        roots: List[str] = []
        for qname, info in index.functions.items():
            if info.module.is_test or not info.module.path_matches(self._SCOPE):
                continue
            if info.module.path.endswith(_EXEMPT_SUFFIXES):
                continue
            scope = project.scope(qname)  # type: ignore[attr-defined]
            for node in iter_function_body(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _APPENDERS
                    and _is_log_receiver(scope, node.func.value)
                ):
                    roots.append(qname)
                    break
        return sorted(roots)

    # ------------------------------------------------------------------
    def check_graph(self, project: "object") -> Iterable[Finding]:
        index = project.index  # type: ignore[attr-defined]
        graph = project.graph  # type: ignore[attr-defined]
        roots = self._roots(project)
        if not roots:
            return ()
        reached, _ = graph.reachable_with_parents(roots)
        findings: List[Finding] = []
        for qname in sorted(reached):
            info = index.functions.get(qname)
            if info is None:
                continue
            if info.module.is_test or not info.module.path_matches(self._SCOPE):
                continue
            if info.module.path.endswith(_EXEMPT_SUFFIXES):
                continue
            findings.extend(self._check_function(project, qname, info))
        return findings

    def _check_function(self, project: "object", qname: str, info) -> Iterable[Finding]:
        scope = project.scope(qname)  # type: ignore[attr-defined]
        where = f"in '{info.display_name}' (on a decision-log path)"
        for node in iter_function_body(info.node):
            if isinstance(node, ast.For):
                if self._set_origin(scope, node.iter):
                    yield self.finding(
                        info.module,
                        node.iter,
                        f"iteration over a set {where}: element order is "
                        "hash-randomised across processes, so the decision "
                        "log diverges between runs",
                        fixit="iterate sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if self._set_origin(scope, generator.iter):
                        yield self.finding(
                            info.module,
                            generator.iter,
                            f"comprehension over a set {where}: element order "
                            "is hash-randomised across processes",
                            fixit="iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call):
                finding = self._check_rng(scope, info, node, where)
                if finding is not None:
                    yield finding

    @staticmethod
    def _set_origin(scope, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return any(
            origin == ("container", "set") for origin in scope.origins_of(expr)
        )

    def _check_rng(
        self, scope, info, node: ast.Call, where: str
    ) -> Optional[Finding]:
        func = node.func
        payloads: Set[str] = set()
        if isinstance(func, ast.Attribute):
            for origin in scope.origins_of(func.value):
                if origin[0] in ("module", "external"):
                    payloads.add(origin[1])
            if "random" in payloads and func.attr in _RANDOM_DRAWS:
                return self.finding(
                    info.module,
                    node,
                    f"random.{func.attr}() {where}: the module-level RNG is "
                    "process-global and unseeded — trajectories are not "
                    "reproducible",
                    fixit="thread the seeded rng hook (random.Random(seed))",
                )
            if any(p.endswith("numpy.random") or p == "numpy.random" for p in payloads):
                if func.attr in _NP_DRAWS:
                    return self.finding(
                        info.module,
                        node,
                        f"np.random.{func.attr}() {where}: numpy's global "
                        "RNG state breaks cross-process determinism",
                        fixit="use a seeded Generator (np.random.default_rng(seed))",
                    )
                if func.attr == "default_rng" and not node.args:
                    return self.finding(
                        info.module,
                        node,
                        f"np.random.default_rng() with no seed {where}",
                        fixit="pass an explicit seed",
                    )
        else:
            for origin in scope.origins_of(func):
                if origin[0] == "external":
                    dotted = origin[1]
                    head, _, tail = dotted.rpartition(".")
                    if head == "random" and tail in _RANDOM_DRAWS:
                        return self.finding(
                            info.module,
                            node,
                            f"{tail}() from the module-level random RNG "
                            f"{where}",
                            fixit=(
                                "thread the seeded rng hook "
                                "(random.Random(seed))"
                            ),
                        )
                    if head.endswith("numpy.random") and tail == "default_rng" and not node.args:
                        return self.finding(
                            info.module,
                            node,
                            f"default_rng() with no seed {where}",
                            fixit="pass an explicit seed",
                        )
        return None
