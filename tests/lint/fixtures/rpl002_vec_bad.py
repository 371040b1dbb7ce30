"""Fixture: a vec module importing the solver layer back (RPL002).

``vec`` is a leaf — pure array kernels with no knowledge of the
problem domain. A kernel importing ``repro.core`` would let solver
semantics leak into the backend (and create an import cycle, since core
dispatches onto vec), so it must fire.
"""

from repro.core.problem import MulticastAssociationProblem


def cheat(rates):
    return MulticastAssociationProblem(rates, [], [], float("inf"))
