"""KernelCache LRU semantics and graph fingerprint properties."""

import pytest

from repro.graphs import Graph
from repro.graphs.generators import gnm_random_graph
from repro.serve import CacheEntry, KernelCache, SharedCacheTier, graph_fingerprint


def _entry(tag: str, algorithm: str = "linear_time") -> CacheEntry:
    return CacheEntry(
        fingerprint=tag,
        algorithm=algorithm,
        solution=(0, 2, 4),
        upper_bound=3,
        is_exact=True,
        exact_bound=True,
    )


class TestFingerprint:
    def test_equal_graphs_hash_equal(self):
        a = gnm_random_graph(40, 80, seed=1)
        b = gnm_random_graph(40, 80, seed=1)
        assert a == b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_any_structural_change_changes_digest(self):
        base = Graph.from_edges(4, [(0, 1), (2, 3)])
        variants = [
            Graph.from_edges(4, [(0, 1), (1, 2)]),   # different edge set
            Graph.from_edges(5, [(0, 1), (2, 3)]),   # extra isolated vertex
            Graph.from_edges(4, [(0, 1)]),           # fewer edges
        ]
        digests = {graph_fingerprint(g) for g in [base] + variants}
        assert len(digests) == len(variants) + 1

    def test_name_does_not_affect_digest(self):
        a = Graph.from_edges(3, [(0, 1)], name="alpha")
        b = Graph.from_edges(3, [(0, 1)], name="beta")
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_digest_is_hex_sha256(self):
        digest = graph_fingerprint(Graph.from_edges(2, [(0, 1)]))
        assert len(digest) == 64
        int(digest, 16)  # raises on anything but hex


class TestKernelCache:
    def test_get_put_and_counters(self):
        cache = KernelCache(capacity=4)
        assert cache.get("fp", "linear_time") is None
        cache.put(_entry("fp"))
        hit = cache.get("fp", "linear_time")
        assert hit is not None and hit.size == 3
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_algorithm_is_part_of_key(self):
        cache = KernelCache(capacity=4)
        cache.put(_entry("fp", "linear_time"))
        assert cache.get("fp", "near_linear") is None
        assert cache.get("fp", "linear_time") is not None

    def test_lru_eviction_order(self):
        cache = KernelCache(capacity=2)
        cache.put(_entry("a"))
        cache.put(_entry("b"))
        cache.get("a", "linear_time")  # refresh a; b is now LRU
        cache.put(_entry("c"))
        assert cache.get("b", "linear_time") is None
        assert cache.get("a", "linear_time") is not None
        assert cache.get("c", "linear_time") is not None
        assert cache.evictions == 1

    def test_put_refresh_does_not_grow(self):
        cache = KernelCache(capacity=2)
        cache.put(_entry("a"))
        cache.put(_entry("a"))
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            KernelCache(capacity=0)

    def test_clear_keeps_traffic_counters(self):
        cache = KernelCache()
        cache.put(_entry("a"))
        cache.get("a", "linear_time")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_entries_snapshot_order(self):
        cache = KernelCache(capacity=3)
        for tag in ("a", "b", "c"):
            cache.put(_entry(tag))
        cache.get("a", "linear_time")
        assert [e.fingerprint for e in cache.entries()] == ["b", "c", "a"]


class _KeysOnlyStore(dict):
    """A tier store that fails if anything reads its payloads in bulk."""

    def items(self):
        raise AssertionError("eviction must not read payloads (items)")

    def values(self):
        raise AssertionError("eviction must not read payloads (values)")


class TestSharedCacheTier:
    def test_eviction_reads_keys_only_and_matches_oldest_put_rule(self):
        # Reference: every put stamps its key with a fresh sequence number
        # and a full tier drops the smallest stamp.
        capacity = 4
        tier = SharedCacheTier(_KeysOnlyStore(), capacity=capacity)
        stamps = {}
        sequence = 0
        tags = ["a", "b", "c", "a", "d", "e", "b", "f", "a", "a", "g",
                "c", "h", "e", "i", "h", "j", "b", "k", "g"]
        for tag in tags:
            tier.put(_entry(tag))
            sequence += 1
            stamps[f"{tag}|linear_time"] = sequence
            while len(stamps) > capacity:
                del stamps[min(stamps, key=stamps.__getitem__)]
            assert list(tier._store) == sorted(stamps, key=stamps.__getitem__)
            assert len(tier) == len(stamps)
        for key in stamps:
            fingerprint, algorithm = key.split("|")
            assert tier.get(fingerprint, algorithm) == _entry(fingerprint)


class TestCacheEntryPayload:
    def test_round_trip(self):
        entry = CacheEntry(
            fingerprint="f" * 64,
            algorithm="near_linear",
            solution=(1, 3, 5, 7),
            upper_bound=5,
            is_exact=False,
            exact_bound=True,
            kernel_n=9,
            kernel_m=12,
            rule_counts={"degree-one": 4},
            solver_elapsed=0.125,
        )
        assert CacheEntry.from_payload(entry.to_payload()) == entry

    def test_payload_is_json_safe(self):
        import json

        payload = _entry("fp").to_payload()
        assert json.loads(json.dumps(payload)) == payload
