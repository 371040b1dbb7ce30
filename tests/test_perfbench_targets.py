"""The calls ``perfbench/layers.py`` times must exist and stay on the path.

The traced benchmark replaces ``owner.__dict__[attribute]`` for each
target, so a renamed function, or a caller that stops looking it up
through that attribute, silently drops a layer from the report. These
tests resolve every target and check that one traced solve of each kind
credits time to every layer it is meant to exercise.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import ShardedEngine
from repro.eval import metrics
from repro.radio.geometry import Area
from repro.scenarios.generator import generate

from perfbench.layers import LayerTracer, plan_targets, service_targets


@pytest.mark.parametrize(
    "target", service_targets() + plan_targets(), ids=lambda t: t[0]
)
def test_every_target_resolves(target):
    layer, owner, attribute = target
    assert callable(owner.__dict__[attribute]), (layer, owner, attribute)


def _problem(seed):
    return generate(
        n_aps=10, n_users=120, n_sessions=3, seed=seed, area=Area.square(400)
    ).problem()


def _traced(targets, run):
    tracer = LayerTracer()
    tracer.install(targets)
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.calls


def test_engine_mla_solve_reaches_every_core_layer():
    engine = ShardedEngine(_problem(3), cache=False)
    calls = _traced(service_targets(), lambda: engine.solve("mla"))
    for layer in (
        "engine.solve",
        "core.candidates",
        "core.setcover",
        "core.materialize",
    ):
        assert calls[layer] > 0, layer


def test_cbla_solve_reaches_every_plan_layer():
    problem = _problem(4)
    calls = _traced(
        plan_targets(), lambda: metrics.run_algorithm("c-bla", problem)
    )
    for layer in (
        "eval.solve",
        "core.candidates",
        "core.mcg",
        "core.rebalance",
        "core.ledger_build",
    ):
        assert calls[layer] > 0, layer
