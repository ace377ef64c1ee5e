"""Call-graph resolver tests: registries, hooks, cycles, the real repo.

The cross-module rules are only as good as the resolution layer under
them, so this file pins the resolver behaviours the rules rely on:
registry-dict dispatch (``ALGORITHM_BY_NAME[name](g)`` and the
return-passthrough ``_resolve(name)(g)`` shape), ``workspace_factory``/
``state_factory`` hook indirection, cycle termination — and then checks
the same machinery against the actual ``src/repro`` tree
(``ALGORITHM_BY_NAME``, ``KERNEL_METHODS``, the parallel worker), plus
the RL006–RL009 repo-clean self-check backing the committed baseline.
"""

import os
import textwrap

import pytest

from repro.lint import Project, blocking, default_rules, lint_paths
from repro.lint.engine import LintModule

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def project_of(sources):
    return Project(
        [LintModule(path, textwrap.dedent(src)) for path, src in sources.items()]
    )


class TestRegistryDispatch:
    def test_subscripted_registry_call_fans_out(self):
        project = project_of(
            {
                "src/repro/reg.py": """
                def fa(g):
                    return g

                def fb(g):
                    return g

                ALGORITHM_BY_NAME = {"a": fa, "b": fb}

                def dispatch(name, g):
                    return ALGORITHM_BY_NAME[name](g)
                """,
            }
        )
        edges = project.graph.edges["repro.reg:dispatch"]
        assert "repro.reg:fa" in edges
        assert "repro.reg:fb" in edges

    def test_return_passthrough_resolver_shape(self):
        # The repro.perf.parallel idiom: _resolve returns either a
        # registry entry or its callable argument unchanged; calling the
        # result must produce edges to the registry targets.
        project = project_of(
            {
                "src/repro/reg.py": """
                def fa(g):
                    return g

                REGISTRY = {"a": fa}

                def _resolve(algorithm):
                    if callable(algorithm):
                        return algorithm
                    return REGISTRY[algorithm]

                def run(name, g):
                    return _resolve(name)(g)
                """,
            }
        )
        edges = project.graph.edges["repro.reg:run"]
        assert "repro.reg:fa" in edges

    def test_passthrough_parameter_maps_to_call_site_argument(self):
        project = project_of(
            {
                "src/repro/reg.py": """
                def concrete(g):
                    return g

                def _resolve(algorithm):
                    return algorithm

                def run(g):
                    return _resolve(concrete)(g)
                """,
            }
        )
        assert "repro.reg:concrete" in project.graph.edges["repro.reg:run"]

    def test_registry_alias_assignment(self):
        project = project_of(
            {
                "src/repro/reg.py": """
                def fa(g):
                    return g

                REGISTRY = {"a": fa}

                def run(name, g):
                    solver = REGISTRY[name]
                    return solver(g)
                """,
            }
        )
        assert "repro.reg:fa" in project.graph.edges["repro.reg:run"]


class TestHookIndirection:
    def test_factory_hook_fans_out_to_passed_values(self):
        project = project_of(
            {
                "src/repro/driver.py": """
                from repro.ws import FlatWorkspace

                def drive(graph, workspace_factory=None):
                    factory = (
                        FlatWorkspace
                        if workspace_factory is None
                        else workspace_factory
                    )
                    ws = factory(graph)
                    return ws
                """,
                "src/repro/ws.py": """
                class FlatWorkspace:
                    def __init__(self, graph):
                        self.graph = graph

                class LegacyWorkspace:
                    def __init__(self, graph):
                        self.graph = graph
                """,
                "src/repro/caller.py": """
                from repro.driver import drive
                from repro.ws import LegacyWorkspace

                def oracle(graph):
                    return drive(graph, workspace_factory=LegacyWorkspace)
                """,
            }
        )
        edges = project.graph.edges["repro.driver:drive"]
        # Default factory and every hook value passed anywhere in the
        # project both become call edges (to the class __init__).
        assert "repro.ws:FlatWorkspace.__init__" in edges
        assert "repro.ws:LegacyWorkspace.__init__" in edges

    def test_instance_method_resolution_through_hook(self):
        project = project_of(
            {
                "src/repro/driver.py": """
                from repro.ws import FlatWorkspace

                def drive(graph, workspace_factory=None):
                    factory = (
                        FlatWorkspace
                        if workspace_factory is None
                        else workspace_factory
                    )
                    ws = factory(graph)
                    ws.delete_vertex(0)
                """,
                "src/repro/ws.py": """
                class FlatWorkspace:
                    def __init__(self, graph):
                        self.graph = graph

                    def delete_vertex(self, v):
                        pass
                """,
            }
        )
        edges = project.graph.edges["repro.driver:drive"]
        assert "repro.ws:FlatWorkspace.delete_vertex" in edges


class TestCyclesAndClosure:
    def test_recursive_cycle_terminates_and_closes(self):
        project = project_of(
            {
                "src/repro/cyc.py": """
                def a(x):
                    return b(x)

                def b(x):
                    return a(x)

                def c(x):
                    return a(x)
                """,
            }
        )
        reached, parents = project.graph.reachable_with_parents(
            ["repro.cyc:c"]
        )
        assert reached == {"repro.cyc:a", "repro.cyc:b", "repro.cyc:c"}
        chain = project.graph.chain(parents, "repro.cyc:b")
        assert chain[0] == "repro.cyc:c"
        assert chain[-1] == "repro.cyc:b"

    def test_self_assignment_cycle_resolves_to_unknown(self):
        # `x = x` must not recurse forever.
        project = project_of(
            {
                "src/repro/loop.py": """
                def f(x):
                    x = x
                    return x(1)
                """,
            }
        )
        assert project.graph.edges["repro.loop:f"] == set()

    def test_self_method_edges(self):
        project = project_of(
            {
                "src/repro/cls.py": """
                class Driver:
                    def outer(self):
                        self.inner()

                    def inner(self):
                        pass
                """,
            }
        )
        assert (
            "repro.cls:Driver.inner"
            in project.graph.edges["repro.cls:Driver.outer"]
        )

    def test_inherited_method_resolution(self):
        project = project_of(
            {
                "src/repro/cls.py": """
                class Base:
                    def step(self):
                        pass

                class Child(Base):
                    def run(self):
                        self.step()
                """,
            }
        )
        assert (
            "repro.cls:Base.step" in project.graph.edges["repro.cls:Child.run"]
        )


@pytest.fixture(scope="module")
def repo_project():
    from repro.lint.engine import iter_python_files, load_module

    modules = []
    for path in iter_python_files([os.path.join(REPO_ROOT, "src")]):
        modules.append(load_module(path))
    return Project(modules)


class TestRealRepoResolution:
    def test_algorithm_registry_is_indexed(self, repo_project):
        index = repo_project.index
        targets = index.registry_targets("repro.perf.parallel:ALGORITHM_BY_NAME")
        assert "repro.core.linear_time:linear_time" in targets
        assert any(q.endswith(":linear_time_vec") for q in targets)

    def test_kernel_methods_registry_is_indexed(self, repo_project):
        # AnnAssign registry (KERNEL_METHODS has a type annotation).
        targets = repo_project.index.registry_targets(
            "repro.core.kernel:KERNEL_METHODS"
        )
        assert any(q.endswith("linear_time_reduce") for q in targets)

    def test_worker_payload_reaches_registry_solvers(self, repo_project):
        graph = repo_project.graph
        reached, _ = graph.reachable_with_parents(
            ["repro.perf.parallel:_solve_flat"]
        )
        assert "repro.core.linear_time:linear_time" in reached

    def test_hot_kernel_reaches_cross_module_helper(self, repo_project):
        # The RL006 motivating edge: the LinearTime flat kernel calls the
        # degree-two path machinery in a different module.
        graph = repo_project.graph
        reached, _ = graph.reachable_with_parents(
            ["repro.core.linear_time:_reduce_flat"]
        )
        assert (
            "repro.core.degree_two_paths:apply_degree_two_path_reduction"
            in reached
        )

    def test_hook_values_include_real_workspace_classes(self, repo_project):
        values = {
            origin[1]
            for origin in repo_project.index.hook_value_origins(
                "workspace_factory"
            )
        }
        # Call sites across src pass these workspace classes as factories;
        # the resolver must surface them so RL006 follows the indirection.
        assert any(v.endswith(":VecWorkspace") for v in values)
        assert any(v.endswith(":ArrayWorkspace") for v in values)


class TestRepoCleanOnGraphRules:
    def test_src_is_clean_under_rl006_to_rl009(self):
        findings = lint_paths(
            [os.path.join(REPO_ROOT, "src")],
            rules=default_rules(["RL006", "RL007", "RL008", "RL009"]),
        )
        offenders = blocking(findings)
        assert offenders == [], "\n".join(f.render() for f in offenders)
