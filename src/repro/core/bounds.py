"""LP-relaxation bounds and quality certificates.

The exact ILPs (:mod:`repro.core.optimal`) only scale to small networks.
Their *LP relaxations* — the same :class:`~repro.core.optimal.CoverModel`
solved with zero integrality — solve in polynomial time at any scale and
bound the optimum from the right side:

* MLA: ``LP <= OPT <= greedy`` — a certified upper bound on the greedy's
  optimality gap;
* BLA: ``LP <= OPT <= heuristic`` likewise;
* MNU: ``heuristic <= OPT <= LP`` (the relaxation over-covers).

:func:`quality_certificate` packages this: given any feasible assignment it
returns the LP bound and the certified gap, so a deployment can say "the
heuristic is within 12 % of optimal on tonight's instance" without ever
running an exponential solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import Assignment
from repro.core.errors import ModelError
from repro.core.optimal import cover_model
from repro.core.problem import MulticastAssociationProblem


def mla_lp_bound(problem: MulticastAssociationProblem) -> float:
    """LP lower bound on the optimal total multicast load."""
    return cover_model(problem, "mla").solve(relax=True)[0]


def bla_lp_bound(problem: MulticastAssociationProblem) -> float:
    """LP lower bound on the optimal maximum AP load."""
    return cover_model(problem, "bla").solve(relax=True)[0]


def mnu_lp_bound(problem: MulticastAssociationProblem) -> float:
    """LP upper bound on the optimal number of served users."""
    return cover_model(problem, "mnu").solve(relax=True)[0]


@dataclass(frozen=True)
class QualityCertificate:
    """A feasible value, the LP bound, and the certified optimality gap."""

    objective: str
    achieved: float
    lp_bound: float

    @property
    def gap(self) -> float:
        """Certified relative gap to the optimum (0 = provably optimal).

        For minimization objectives: ``achieved/bound - 1``; for MNU
        (maximization): ``bound/achieved - 1``. The true gap to OPT is at
        most this (the LP bound brackets OPT).
        """
        if self.objective == "mnu":
            if self.achieved == 0:
                return float("inf") if self.lp_bound > 0 else 0.0
            return max(0.0, self.lp_bound / self.achieved - 1.0)
        if self.lp_bound <= 0:
            return float("inf") if self.achieved > 0 else 0.0
        return max(0.0, self.achieved / self.lp_bound - 1.0)

    def format(self) -> str:
        return (
            f"{self.objective}: achieved {self.achieved:.4f}, LP bound "
            f"{self.lp_bound:.4f}, certified gap <= {self.gap:.1%}"
        )


def quality_certificate(
    assignment: Assignment, objective: str
) -> QualityCertificate:
    """Certify how far ``assignment`` can be from optimal.

    ``objective`` is ``"mla"``, ``"bla"`` or ``"mnu"``. The assignment must
    be feasible for the corresponding setting (full coverage for MLA/BLA;
    within budgets for MNU).
    """
    problem = assignment.problem
    if objective == "mla":
        if assignment.n_served < problem.n_users:
            raise ModelError("MLA certificates require a full cover")
        return QualityCertificate(
            "mla", assignment.total_load(), mla_lp_bound(problem)
        )
    if objective == "bla":
        if assignment.n_served < problem.n_users:
            raise ModelError("BLA certificates require a full cover")
        return QualityCertificate(
            "bla", assignment.max_load(), bla_lp_bound(problem)
        )
    if objective == "mnu":
        assignment.validate(check_budgets=True)
        return QualityCertificate(
            "mnu", float(assignment.n_served), mnu_lp_bound(problem)
        )
    raise ModelError(f"unknown objective {objective!r}")
