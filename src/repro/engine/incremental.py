"""Incremental re-solve: shard fingerprints and the dirty-shard cache.

Under churn, most events touch one coverage region; re-solving every shard
from scratch wastes the decomposition the engine worked for. This module
makes re-solves proportional to the *blast radius* of a change:

* :func:`shard_fingerprint` hashes everything a shard's sub-problem depends
  on — its AP set, its active users, the rates (as the once-per-rate-matrix
  digest of the shard's whole block), the budgets, the users' sessions and
  the session catalog. Content addressing makes
  invalidation automatic: any membership or parameter change lands a
  different fingerprint and the stale entry simply misses.
* :class:`ShardCache` stores per-shard solver outputs keyed by
  ``(objective, shard index)`` and guarded by the fingerprint, with
  hit/miss/invalidation counters (:class:`CacheStats`) so callers — and the
  acceptance tests — can assert that an event re-solved only the shards it
  touched. Explicit eviction (:meth:`ShardCache.invalidate_shards`) covers
  out-of-band signals such as
  :attr:`repro.core.online.OnlineController.last_changed_aps`.

Cache entries are whatever the engine chose to store — raw H1/H2 set picks
for MNU, cover picks for MLA, per-shard assignments for federated BLA. The
cache never interprets them; it only guarantees they were produced from a
sub-problem identical to the current one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.problem import TX_LEGACY, MulticastAssociationProblem
from repro.engine.shard import Shard
from repro.obs import counters as metrics


def shard_fingerprint(
    problem: MulticastAssociationProblem,
    shard: Shard,
    active_users: Sequence[int],
) -> str:
    """Content hash of the sub-problem ``shard`` induces over ``active_users``.

    Two equal fingerprints guarantee byte-identical sub-problems, hence —
    the solvers being deterministic — identical per-shard solutions. The
    rates enter as the digest of the shard's *full* ``aps × users`` block
    (:meth:`~repro.engine.shard.Shard.block_digest`, hashed once per rate
    matrix) next to the active-user list; that pins the active sub-matrix
    because the active users must be a subset of the shard's users, and
    anything else raises :class:`~repro.core.errors.ModelError`.
    """
    users = list(active_users)
    if not shard.user_set.issuperset(users):
        outside = sorted(set(users) - shard.user_set)
        raise ModelError(f"users {outside} are not in shard {shard.index}")
    digest = sha256()
    aps = list(shard.aps)
    digest.update(np.asarray(aps, dtype=np.int64).tobytes())
    digest.update(np.asarray(users, dtype=np.int64).tobytes())
    digest.update(shard.block_digest(problem))
    digest.update(
        np.ascontiguousarray(problem.budgets[aps], dtype=np.float64).tobytes()
    )
    user_sessions = problem.user_sessions
    sessions = [user_sessions[u] for u in users]
    digest.update(np.asarray(sessions, dtype=np.int64).tobytes())
    for session in problem.sessions:
        digest.update(
            f"{session.session_id}:{session.rate_mbps!r};".encode("ascii")
        )
    # Transmission policies change how the sub-problem prices airtime, so
    # they are part of the content address — but only the policies of
    # sessions this shard's active users actually request, and only when
    # non-legacy. All-legacy problems hash no policy bytes at all, and a
    # ``set-policy`` event re-fingerprints only the shards whose users
    # stream the session it touched.
    if not problem.all_legacy:
        for session_index in sorted(set(sessions)):
            policy = problem.policy_of(session_index)
            if policy != TX_LEGACY:
                digest.update(
                    f"policy:{session_index}:{policy};".encode("ascii")
                )
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters for one cache lifetime (or since the last ``reset``)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when none made)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ShardCache:
    """Fingerprint-guarded store of per-shard solver outputs."""

    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[tuple[str, int], tuple[str, Any]] = field(
        default_factory=dict
    )

    def get(self, objective: str, shard_index: int, fingerprint: str) -> Any:
        """The cached entry, or ``None`` on a miss (stale or absent).

        A stale entry (fingerprint mismatch) is evicted on the spot.
        """
        key = (objective, shard_index)
        stored = self._entries.get(key)
        if stored is not None and stored[0] == fingerprint:
            self.stats.hits += 1
            metrics.incr("cache.hits")
            return stored[1]
        if stored is not None:
            del self._entries[key]
        self.stats.misses += 1
        metrics.incr("cache.misses")
        return None

    def put(
        self, objective: str, shard_index: int, fingerprint: str, entry: Any
    ) -> None:
        """Store ``entry`` for the shard under its fingerprint."""
        self._entries[(objective, shard_index)] = (fingerprint, entry)

    def invalidate_shards(self, shard_indices: Iterable[int]) -> int:
        """Drop every objective's entry for the given shards; count drops."""
        doomed = set(shard_indices)
        victims = [key for key in self._entries if key[1] in doomed]
        for key in victims:
            del self._entries[key]
        self.stats.invalidations += len(victims)
        if victims:
            metrics.incr("cache.invalidations", len(victims))
        return len(victims)

    def clear(self) -> int:
        """Drop everything; returns the number of entries evicted."""
        n = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += n
        if n:
            metrics.incr("cache.invalidations", n)
        return n

    def __len__(self) -> int:
        return len(self._entries)
