"""Assignments (association maps) and their induced loads.

An :class:`Assignment` maps every user to the AP it is associated with (or
``None`` when unserved). All load quantities are *derived* from the map: an
AP serving session ``s`` transmits at the minimum link rate among its
associated users requesting ``s``, so its load for that session is
``session_rate / min_link_rate``. Deriving rather than storing loads makes
it impossible for a solver to return an assignment whose claimed loads
disagree with the model.

The derivation lives in :mod:`repro.core.ledger` (Definition 1's single
non-oracle implementation). An ``Assignment`` prices its per-AP load
vector lazily, on the first load read, in one bulk pass
(:func:`~repro.core.ledger.price_loads`) over the map's int64 form — kept
from the producer when it had one (:func:`from_selected_sets`, the
engine's stitching) — and every later load read is O(1). Readers of the
group structure (:meth:`Assignment.users_on`, :meth:`Assignment.
sessions_on`, :meth:`Assignment.tx_rate`) and mutable-state consumers
(greedy augmentation, churn repair, via :attr:`Assignment.ledger` and
:meth:`~repro.core.ledger.LoadLedger.copy`) get a private
:class:`~repro.core.ledger.LoadLedger`, also built lazily. Under the
runtime sanitizer (``REPRO_SANITIZE=1``) every priced vector is checked
bit for bit against a from-scratch recompute and counted as
``sanitize.price_checks``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core import instrument
from repro.core.candidates import CandidateFamily
from repro.core.errors import InfeasibleAssignmentError, ModelError
from repro.core.ledger import LoadLedger, check_loads, price_loads
from repro.core.problem import MulticastAssociationProblem
from repro.vec import backend

UNSERVED = None


class Assignment:
    """An immutable user -> AP association map with derived loads."""

    __slots__ = ("_problem", "_map", "_held", "_loads", "_ledger")

    def __init__(
        self,
        problem: MulticastAssociationProblem,
        ap_of_user: Sequence[int | None],
    ) -> None:
        self._problem = problem
        if len(ap_of_user) != problem.n_users:
            raise ModelError(
                f"assignment covers {len(ap_of_user)} users, "
                f"problem has {problem.n_users}"
            )
        n_aps = problem.n_aps
        normalized: list[int | None] = []
        for user, ap in enumerate(ap_of_user):
            if ap is not None:
                ap = int(ap)
                if not 0 <= ap < n_aps:
                    raise ModelError(
                        f"user {user} assigned to unknown AP {ap}"
                    )
            normalized.append(ap)
        self._map: tuple[int | None, ...] = tuple(normalized)
        # The int64 map, the priced loads and the ledger are all derived
        # lazily: many assignments are compared or counted, never load-read.
        self._held: np.ndarray | None = None
        self._loads: np.ndarray | None = None
        self._ledger: LoadLedger | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def _of(
        cls, problem: MulticastAssociationProblem, held: np.ndarray
    ) -> "Assignment":
        """An assignment over an int64 map (``-1`` = unserved) its
        producer already range-checked in bulk; the array is kept, so
        pricing the loads never re-walks the tuple."""
        ap_of_user: list[int | None] = held.tolist()
        for user in np.flatnonzero(held < 0).tolist():
            ap_of_user[user] = None
        held = held.view()
        held.setflags(write=False)
        assignment = cls.__new__(cls)
        assignment._problem = problem
        assignment._map = tuple(ap_of_user)
        assignment._held = held
        assignment._loads = None
        assignment._ledger = None
        return assignment

    @classmethod
    def empty(cls, problem: MulticastAssociationProblem) -> "Assignment":
        return cls(problem, [None] * problem.n_users)

    def replace(self, user: int, ap: int | None) -> "Assignment":
        """A copy with one user's association changed."""
        new_map = list(self._map)
        new_map[user] = ap
        return Assignment(self._problem, new_map)

    # -- accessors -----------------------------------------------------------

    @property
    def problem(self) -> MulticastAssociationProblem:
        return self._problem

    @property
    def ledger(self) -> LoadLedger:
        """The frozen load ledger backing this assignment.

        Read freely; to mutate, take a
        :meth:`~repro.core.ledger.LoadLedger.copy` first — this instance
        is shared and must stay consistent with the immutable map.
        """
        if self._ledger is None:
            self._ledger = LoadLedger(self._problem, self._map)
        return self._ledger

    @property
    def ap_of_user(self) -> tuple[int | None, ...]:
        return self._map

    def held_array(self) -> np.ndarray:
        """The map as a read-only int64 array, ``-1`` for unserved."""
        if self._held is None:
            held = np.fromiter(
                (-1 if ap is None else ap for ap in self._map),
                dtype=np.int64,
                count=len(self._map),
            )
            held.setflags(write=False)
            self._held = held
        return self._held

    def ap_of(self, user: int) -> int | None:
        return self._map[user]

    def served_users(self) -> list[int]:
        return [u for u, a in enumerate(self._map) if a is not None]

    def unserved_users(self) -> list[int]:
        return [u for u, a in enumerate(self._map) if a is None]

    @property
    def n_served(self) -> int:
        return sum(1 for a in self._map if a is not None)

    def users_on(self, ap: int, session: int | None = None) -> list[int]:
        """Users associated with ``ap`` (optionally only one session's)."""
        return self.ledger.users_on(ap, session)

    def sessions_on(self, ap: int) -> list[int]:
        """Sessions ``ap`` is transmitting, ascending."""
        return self.ledger.sessions_on(ap)

    # -- derived loads ---------------------------------------------------------

    def tx_rate(self, ap: int, session: int) -> float | None:
        """Rate ``ap`` transmits ``session`` at, or None if it doesn't.

        The minimum of the associated users' link rates — every associated
        user must be able to decode the stream.
        """
        return self.ledger.tx_rate(ap, session)

    def load_array(self) -> np.ndarray:
        """The per-AP load vector, read-only, priced on first use."""
        if self._loads is None:
            held = self.held_array()
            users = np.flatnonzero(held >= 0)
            loads = price_loads(self._problem, users, held[users])
            if instrument.sanitize_enabled():
                instrument.incr("sanitize.price_checks")
                check_loads(self._problem, self._map, loads.tolist(), "pricer")
            loads.setflags(write=False)
            self._loads = loads
        return self._loads

    def load_of(self, ap: int) -> float:
        """Multicast load of ``ap``: summed airtime of its sessions."""
        return float(self.load_array()[ap])

    def loads(self) -> list[float]:
        """Per-AP multicast loads."""
        return self.load_array().tolist()

    def total_load(self) -> float:
        """Summed multicast load across APs (the MLA objective)."""
        return math.fsum(self.load_array().tolist())

    def max_load(self) -> float:
        """Maximum per-AP multicast load (the BLA objective)."""
        loads = self.load_array()
        return float(loads.max()) if loads.size else 0.0

    def sorted_load_vector(self) -> tuple[float, ...]:
        """Loads sorted non-increasing — the BLA comparison vector."""
        return tuple(sorted(self.load_array().tolist(), reverse=True))

    # -- validation ------------------------------------------------------------

    def violations(self, check_budgets: bool = True) -> list[str]:
        """Human-readable model violations (empty when feasible)."""
        problems: list[str] = []
        held = self.held_array()
        users = np.flatnonzero(held >= 0)
        if users.size:
            in_range = self._problem.link_rates[held[users], users] > 0
            for user in users[~in_range].tolist():
                problems.append(
                    f"user {user} is out of range of AP {int(held[user])}"
                )
        if check_budgets:
            loads = self.load_array().tolist()
            budgets = self._problem.budgets.tolist()
            for ap, (load, budget) in enumerate(zip(loads, budgets, strict=True)):
                if load > budget + 1e-9:
                    problems.append(
                        f"AP {ap} load {load:.4f} exceeds budget {budget:.4f}"
                    )
        return problems

    def validate(self, check_budgets: bool = True) -> "Assignment":
        """Raise :class:`InfeasibleAssignmentError` on any violation."""
        problems = self.violations(check_budgets)
        if problems:
            raise InfeasibleAssignmentError(problems)
        return self

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._problem is other._problem and self._map == other._map

    def __hash__(self) -> int:
        return hash(self._map)

    def __repr__(self) -> str:
        return (
            f"Assignment(served={self.n_served}/{self._problem.n_users}, "
            f"total_load={self.total_load():.4f}, max_load={self.max_load():.4f})"
        )


def from_selected_sets(
    problem: MulticastAssociationProblem,
    family: CandidateFamily,
    chosen: Sequence[int] | np.ndarray,
) -> Assignment:
    """Assignment from reduction output: candidates ``chosen`` of ``family``.

    Each selected candidate set directs its users to associate with its AP.
    When several selected sets contain the same user, the cheapest one (the
    one with the highest transmit rate for the user's link) wins, and of
    equally fast ones the first selected; this only lowers loads. Transmit
    rates are re-derived from the final association, so merging
    same-(AP, session) selections down to the minimum rate — the repair
    step in DESIGN.md §6 — happens automatically.

    The (selection, user) pairs are checked in selection order, users
    ascending within a selection, and the first pair whose user requests
    another session or cannot decode the set's rate raises
    :class:`ModelError`, so an error always names the same user.
    """
    picks = np.asarray(chosen, dtype=np.int64)
    offsets = backend.as_int64(family.offsets)
    users = backend.gather_segments(
        offsets, backend.as_int64(family.members), picks
    )
    pick = np.repeat(picks, offsets[picks + 1] - offsets[picks])
    aps = backend.as_int64(family.ap)[pick]
    # A negative AP indexes from the last row, as the scalar
    # ``link_rate`` did; it is rejected as unknown once it wins a user.
    link = problem.link_rates[aps, users]
    wrong_session = (
        problem.session_index[users] != backend.as_int64(family.session)[pick]
    )
    bad = wrong_session | (link < backend.as_float64(family.tx_rate)[pick])
    if bad.any():
        first = int(bad.argmax())
        user, k = int(users[first]), int(pick[first])
        if wrong_session[first]:
            raise ModelError(
                f"user {user} does not request session {family.session[k]}"
            )
        raise ModelError(
            f"user {user} cannot decode AP {family.ap[k]} "
            f"at {family.tx_rate[k]} Mbps"
        )
    # By user, fastest link first; the stable sort keeps selection order
    # among equal links, so each user's first pair is the first strict max.
    order = backend.lexsort_by_key(-link, users, problem.n_users)
    users = users[order]
    first_of_user = np.ones(users.size, dtype=bool)
    first_of_user[1:] = users[1:] != users[:-1]
    served = users[first_of_user]
    won = aps[order[first_of_user]]
    unknown = (won < 0) | (won >= problem.n_aps)
    if unknown.any():
        first = int(unknown.argmax())
        raise ModelError(
            f"user {served[first]} assigned to unknown AP {won[first]}"
        )
    held = np.full(problem.n_users, -1, dtype=np.int64)
    held[served] = won
    return Assignment._of(problem, held)


def compare_load_vectors(
    first: Sequence[float], second: Sequence[float]
) -> int:
    """Lexicographic comparison of sorted non-increasing load vectors.

    Returns -1 / 0 / +1 as the paper's footnote 5 defines: compare the first
    unequal pair; the vector with the smaller element is smaller.
    """
    a = sorted(first, reverse=True)
    b = sorted(second, reverse=True)
    if len(a) != len(b):
        raise ModelError("can only compare equal-length load vectors")
    for x, y in zip(a, b, strict=True):
        if not math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12):
            return -1 if x < y else 1
    return 0


def served_counts_by_ap(assignment: Assignment) -> Mapping[int, int]:
    """Number of served users per AP (reporting helper)."""
    counts: dict[int, int] = {}
    for ap in assignment.ap_of_user:
        if ap is not None:
            counts[ap] = counts.get(ap, 0) + 1
    return counts
