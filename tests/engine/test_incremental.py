"""Incremental re-solve: fingerprints, the shard cache, and churn events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.online import ChurnEvent, OnlineController
from repro.engine import ShardedEngine, plan_shards, shard_fingerprint
from repro.engine.incremental import CacheStats, ShardCache
from repro.engine.shard import build_shards
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

    def test_invalidate_shards_counts(self):
        cache = ShardCache()
        cache.put("mnu", 0, "fp", "a")
        cache.put("mla", 0, "fp", "b")
        cache.put("mnu", 1, "fp", "c")
        assert cache.invalidate_shards([0]) == 2
        assert cache.stats.invalidations == 2
        assert len(cache) == 1

    def test_clear_and_stats_reset(self):
        cache = ShardCache()
        cache.put("mnu", 0, "fp", "a")
        assert cache.clear() == 1
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
        shards = build_shards(problem, plan_shards(problem))
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
        with ShardedEngine(block_problem(31, n_blocks=5)) as engine:
            yield engine

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
        if kind == "join":
            engine.leave(user)  # start without the user, then join it back
            engine.solve("mnu")
            engine.process_event(ChurnEvent("join", user))
        else:
            engine.solve("mnu")
            engine.process_event(ChurnEvent("leave", user))
        after = engine.solve("mnu")
        assert after.cache_misses == 1
        assert after.cache_hits == n - 1
        assert after.n_resolved == 1

    def test_federated_bla_caches_per_shard(self):
        problem = block_problem(32, n_blocks=4)
        with ShardedEngine(problem, bla_mode="federated") as engine:
            n = engine.plan.n_shards
            first = engine.solve("bla")
            assert first.cache_misses == n
            engine.leave(engine.plan.shards[0].users[0])
            second = engine.solve("bla")
            assert second.cache_misses == 1
            assert second.cache_hits == n - 1

    def test_exact_bla_does_not_touch_the_cache(self, engine):
        solution = engine.solve("bla")
        assert solution.cache_hits == 0
        assert solution.cache_misses == 0

    def test_mark_aps_dirty_evicts_one_shard(self, engine):
        engine.solve("mnu")
        target = engine.plan.shards[1]
        evicted = engine.mark_aps_dirty([target.aps[0]])
        assert evicted == 1
        after = engine.solve("mnu")
        assert after.cache_misses == 1
        assert after.cache_hits == engine.plan.n_shards - 1

    def test_cache_disabled_keeps_zero_counters(self):
        problem = block_problem(33, n_blocks=3)
        with ShardedEngine(problem, cache=False) as engine:
            solution = engine.solve("mnu")
            assert (solution.cache_hits, solution.cache_misses) == (0, 0)
            assert solution.n_resolved == engine.plan.n_shards

    def test_membership_guard(self, engine):
        with pytest.raises(ModelError):
            engine.join(0)  # already active
        engine.leave(0)
        with pytest.raises(ModelError):
            engine.leave(0)
        with pytest.raises(ModelError):
            engine.join(10_000)


class TestOnlineIntegration:
    def test_last_changed_aps_drive_invalidation(self):
        """OnlineController's changed-AP report plugs into mark_aps_dirty."""
        problem = block_problem(34, n_blocks=4)
        controller = OnlineController(problem, "mla", repair="none")
        with ShardedEngine(problem) as engine:
            user = engine.plan.shards[1].users[0]
            engine.set_active(set(range(problem.n_users)) - {user})
            engine.solve("mnu")  # warm every shard's entry
            controller.process(ChurnEvent("join", user))
            engine.process_event(ChurnEvent("join", user))
            changed = controller.last_changed_aps
            assert changed  # the join associated somewhere
            touched = {engine.plan.shard_of_ap()[ap] for ap in changed}
            assert touched == {1}
            engine.mark_aps_dirty(changed)
            after = engine.solve("mnu")
            assert after.cache_misses == 1
            assert after.cache_hits == engine.plan.n_shards - 1


class TestFingerprintSoundness:
    """The rate block is hashed once per rate matrix, never reused across
    matrices, and only ever for users the shard owns."""

    @pytest.fixture
    def setup(self):
        problem = block_problem(33, n_blocks=3)
        shards = build_shards(problem, plan_shards(problem))
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
        with ShardedEngine(problem) as engine:
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
        # ... and the bumped matrix did not overwrite the cached digest.
        assert shard_fingerprint(problem, shard, active) == baseline

    def test_rebinding_keeps_the_digest_only_for_the_same_matrix(self, setup):
        problem, shards = setup
        shard = shards[1]
        baseline = shard_fingerprint(problem, shard, shard.users)
        shard.rebind(self.rebuilt(problem))
        assert shard_fingerprint(problem, shard, shard.users) == baseline
        rates = np.array(problem.link_rates)
        rates[shard.aps[0], shard.users[0]] += 6.0
        bumped = self.rebuilt(problem, link_rates=rates)
        shard.rebind(bumped)
        assert shard_fingerprint(bumped, shard, shard.users) != baseline

    def test_users_outside_the_shard_are_rejected(self, setup):
        problem, shards = setup
        with pytest.raises(ModelError, match="not in shard 0"):
            shard_fingerprint(
                problem, shards[0], shards[0].users + shards[1].users[:1]
            )


class TestSwapProblemKeepsThePlan:
    def test_move_rebinds_shards_without_replanning(self):
        problem = block_problem(35, n_blocks=4)
        with ShardedEngine(problem) as engine:
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
            assert [s.users for s in engine.shards] == [
                s.users for s in plan.shards
            ]
            assert all(s.problem is moved for s in engine.shards)
            warm = engine.solve("mla")
            assert warm.n_resolved == 1
            with ShardedEngine(moved) as cold:
                assert cold.plan == plan
                assert (
                    cold.solve("mla").assignment.ap_of_user
                    == warm.assignment.ap_of_user
                )
