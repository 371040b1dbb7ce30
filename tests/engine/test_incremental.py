"""Incremental re-solve: fingerprints, the shard cache, and churn events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.ledger import LoadLedger
from repro.engine import ShardedEngine, plan_shards, shard_fingerprint
from repro.engine.incremental import CacheStats, ShardCache
from repro.engine.shard import _hash_block, build_shards
from repro.scenarios.federation import generate_federation
from tests.engine.conftest import block_problem


class TestShardCache:
    def test_miss_then_hit(self):
        cache = ShardCache()
        assert cache.get("mnu", 0, "fp") is None
        cache.put("mnu", 0, "fp", "entry")
        assert cache.get("mnu", 0, "fp") == "entry"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_stale_fingerprint_misses_and_evicts(self):
        cache = ShardCache()
        cache.put("mnu", 0, "old", "entry")
        assert cache.get("mnu", 0, "new") is None
        assert len(cache) == 0

    def test_objectives_are_independent(self):
        cache = ShardCache()
        cache.put("mnu", 0, "fp", "a")
        cache.put("mla", 0, "fp", "b")
        assert cache.get("mnu", 0, "fp") == "a"
        assert cache.get("mla", 0, "fp") == "b"

    def test_clear_and_stats_reset(self):
        cache = ShardCache()
        cache.put("mnu", 0, "fp", "a")
        assert cache.get("mnu", 0, "fp") == "a"
        assert cache.get("mnu", 1, "fp") is None
        cache.stats.reset()
        assert cache.stats == CacheStats()

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate() == pytest.approx(0.75)
        assert CacheStats().hit_rate() == 0.0


class TestFingerprint:
    @pytest.fixture
    def setup(self):
        problem = block_problem(30, n_blocks=3)
        shards = build_shards(plan_shards(problem))
        return problem, shards

    def test_deterministic(self, setup):
        problem, shards = setup
        shard = shards[0]
        assert shard_fingerprint(
            problem, shard, shard.users
        ) == shard_fingerprint(problem, shard, shard.users)

    def test_sensitive_to_membership(self, setup):
        problem, shards = setup
        shard = shards[0]
        assert shard_fingerprint(
            problem, shard, shard.users
        ) != shard_fingerprint(problem, shard, shard.users[1:])

    def test_sensitive_to_rates_and_budgets(self, setup):
        problem, shards = setup
        shard = shards[0]
        baseline = shard_fingerprint(problem, shard, shard.users)
        rates = np.array(problem.link_rates)
        rates[shard.aps[0], shard.users[0]] += 6.0
        bumped = type(problem)(
            rates, list(problem.user_sessions), problem.sessions, problem.budgets
        )
        assert shard_fingerprint(bumped, shard, shard.users) != baseline
        rebudgeted = problem.with_budgets(
            np.array(problem.budgets) * 2.0
        )
        assert shard_fingerprint(rebudgeted, shard, shard.users) != baseline

    def test_shards_differ(self, setup):
        problem, shards = setup
        assert shard_fingerprint(
            problem, shards[0], shards[0].users
        ) != shard_fingerprint(problem, shards[1], shards[1].users)


class TestEngineCache:
    @pytest.fixture
    def engine(self):
        return ShardedEngine(block_problem(31, n_blocks=5))

    def test_first_solve_all_misses_then_all_hits(self, engine):
        n = engine.plan.n_shards
        first = engine.solve("mnu")
        assert (first.cache_misses, first.cache_hits) == (n, 0)
        assert first.n_resolved == n
        second = engine.solve("mnu")
        assert (second.cache_misses, second.cache_hits) == (0, n)
        assert second.n_resolved == 0
        assert second.assignment.ap_of_user == first.assignment.ap_of_user

    @pytest.mark.parametrize("kind", ["join", "leave"])
    def test_churn_resolves_only_the_affected_shard(self, engine, kind):
        """The ISSUE's acceptance criterion, asserted via the counters."""
        n = engine.plan.n_shards
        user = engine.plan.shards[2].users[0]
        everyone = set(range(engine.problem.n_users))
        without = everyone - {user}
        # join: start without the user, then join it back; leave: the
        # reverse.
        before, after_event = (
            (without, everyone) if kind == "join" else (everyone, without)
        )
        engine.solve("mnu", active=before)
        after = engine.solve("mnu", active=after_event)
        assert after.cache_misses == 1
        assert after.cache_hits == n - 1
        assert after.n_resolved == 1

    def test_exact_bla_does_not_touch_the_cache(self, engine):
        solution = engine.solve("bla")
        assert solution.cache_hits == 0
        assert solution.cache_misses == 0

    def test_cache_disabled_keeps_zero_counters(self):
        problem = block_problem(33, n_blocks=3)
        engine = ShardedEngine(problem, cache=False)
        solution = engine.solve("mnu")
        assert (solution.cache_hits, solution.cache_misses) == (0, 0)
        assert solution.n_resolved == engine.plan.n_shards

    @pytest.mark.parametrize("objective", ["mnu", "mla"])
    def test_cache_disabled_skips_fingerprints(self, monkeypatch, objective):
        """With the cache off no shard is fingerprinted, and the solve
        is the cached engine's, map and ``float.hex`` value."""
        problem = block_problem(35, n_blocks=4)
        cached = ShardedEngine(problem).solve(objective)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return shard_fingerprint(*args, **kwargs)

        monkeypatch.setattr(
            "repro.engine.engine.shard_fingerprint", counting
        )
        cold = ShardedEngine(problem, cache=False).solve(objective)
        assert calls == []
        assert cold.assignment.ap_of_user == cached.assignment.ap_of_user
        assert cold.value().hex() == cached.value().hex()

    def test_warm_mla_solve_builds_only_the_resolved_shards_ledgers(
        self, monkeypatch
    ):
        """After one leave on a 40-shard federation the warm MLA solve
        reads its objective from the cached fragments and the re-solved
        shard prices its loads in bulk: no ledger at all."""
        problem = generate_federation(
            n_clusters=40,
            aps_per_cluster=3,
            users_per_cluster=10,
            n_sessions=3,
            seed=1,
        ).problem()
        engine = ShardedEngine(problem)
        assert engine.plan.n_shards == 40
        engine.solve("mla")
        leaver = engine.plan.shards[17].users[3]
        active = set(range(problem.n_users)) - {leaver}
        built: list[object] = []
        original = LoadLedger.__init__

        def counting_init(self, ledger_problem, *args, **kwargs):
            built.append(ledger_problem)
            original(self, ledger_problem, *args, **kwargs)

        monkeypatch.setattr(LoadLedger, "__init__", counting_init)
        warm = engine.solve("mla", active=active)
        monkeypatch.undo()
        assert warm.n_resolved == 1
        assert warm.cache_hits == 39
        assert built == []
        assert warm.value().hex() == LoadLedger(
            problem, warm.assignment.ap_of_user
        ).total_load().hex()


class TestFingerprintSoundness:
    """The rate block is hashed once per rate matrix, never reused across
    matrices, and only ever for users the shard owns."""

    @pytest.fixture
    def setup(self):
        problem = block_problem(33, n_blocks=3)
        shards = build_shards(plan_shards(problem))
        return problem, shards

    @staticmethod
    def rebuilt(problem, **changes):
        fields = {
            "link_rates": problem.link_rates,
            "user_sessions": list(problem.user_sessions),
            "sessions": problem.sessions,
            "budgets": problem.budgets,
            "policies": problem.session_policies,
        }
        fields.update(changes)
        return type(problem)(**fields)

    def test_rebuild_sharing_the_rate_matrix_fingerprints_the_same(self, setup):
        problem, shards = setup
        again = self.rebuilt(problem)
        assert again.link_rates is problem.link_rates
        for shard in shards:
            active = shard.users[::2]
            assert shard_fingerprint(again, shard, active) == (
                shard_fingerprint(problem, shard, active)
            )

    def test_no_op_rebuild_still_hits_the_cache(self):
        problem = block_problem(34, n_blocks=4)
        engine = ShardedEngine(problem)
        n = engine.plan.n_shards
        engine.solve("mla")
        engine.swap_problem(self.rebuilt(problem))
        again = engine.solve("mla")
        assert (again.cache_hits, again.cache_misses) == (n, 0)

    def test_equal_content_in_a_new_array_fingerprints_the_same(self, setup):
        problem, shards = setup
        copied = self.rebuilt(problem, link_rates=np.array(problem.link_rates))
        assert copied.link_rates is not problem.link_rates
        for shard in shards:
            assert shard_fingerprint(copied, shard, shard.users) == (
                shard_fingerprint(problem, shard, shard.users)
            )

    def test_different_rate_matrix_on_the_same_shard_differs(self, setup):
        problem, shards = setup
        shard = shards[0]
        active = shard.users[1:]
        # Warm the shard's cached block digest on its own matrix first.
        baseline = shard_fingerprint(problem, shard, active)
        rates = np.array(problem.link_rates)
        rates[shard.aps[-1], active[-1]] += 6.0
        bumped = self.rebuilt(problem, link_rates=rates)
        assert shard_fingerprint(bumped, shard, active) != baseline
        # ... and the original matrix is hashed afresh, to the same digest.
        assert shard_fingerprint(problem, shard, active) == baseline

    def test_digest_is_cached_for_the_last_matrix_hashed(
        self, setup, monkeypatch
    ):
        problem, shards = setup
        shard = shards[1]
        hashed: list[np.ndarray] = []

        def counting_hash(rates, aps, users):
            hashed.append(rates)
            return _hash_block(rates, aps, users)

        monkeypatch.setattr("repro.engine.shard._hash_block", counting_hash)
        baseline = shard.block_digest(problem)
        # A rebuilt problem sharing the rate matrix is answered from cache.
        assert shard.block_digest(self.rebuilt(problem)) == baseline
        assert hashed == [problem.link_rates]
        rates = np.array(problem.link_rates)
        rates[shard.aps[0], shard.users[0]] += 6.0
        bumped = self.rebuilt(problem, link_rates=rates)
        assert shard.block_digest(bumped) != baseline
        assert shard.block_digest(bumped) == shard.block_digest(bumped)
        assert len(hashed) == 2 and hashed[1] is rates
        # Returning to the first matrix re-hashes it: one digest is kept.
        assert shard.block_digest(problem) == baseline
        assert len(hashed) == 3

    def test_users_outside_the_shard_are_rejected(self, setup):
        problem, shards = setup
        with pytest.raises(ModelError, match="not in shard 0"):
            shard_fingerprint(
                problem,
                shards[0],
                np.concatenate([shards[0].users, shards[1].users[:1]]),
            )


class TestSwapProblemKeepsThePlan:
    def test_move_keeps_the_shards_without_replanning(self):
        problem = block_problem(35, n_blocks=4)
        engine = ShardedEngine(problem)
        engine.solve("mla")
        plan = engine.plan
        user = plan.shards[1].users[0]
        sessions = list(problem.user_sessions)
        sessions[user] = (sessions[user] + 1) % problem.n_sessions
        moved = type(problem)(
            problem.link_rates, sessions, problem.sessions, problem.budgets
        )
        engine.swap_problem(moved)
        assert engine.plan is plan
        assert [s.users.tolist() for s in engine.shards] == [
            list(s.users) for s in plan.shards
        ]
        assert engine.problem is moved
        warm = engine.solve("mla")
        assert warm.n_resolved == 1
        cold = ShardedEngine(moved)
        assert cold.plan == plan
        assert (
            cold.solve("mla").assignment.ap_of_user
            == warm.assignment.ap_of_user
        )
