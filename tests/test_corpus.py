"""Auto-collected regression corpus (``tests/corpus/*.json``).

Every JSON entry in ``tests/corpus/`` is a replayable fuzz repro: a
serialized scenario plus the failure it once triggered (or an empty
failure list for pinned must-stay-clean scenarios). Replaying an entry
runs the *current* solvers through the certificate checker and the
differential oracles on that exact scenario and asserts nothing fails —
once a fuzz finding is fixed, its corpus entry keeps it fixed forever.

Add entries with ``python -m repro fuzz --budget N --corpus tests/corpus``
or :func:`repro.verify.pin_scenario`.

The directory also hosts **mobility pins** (``kind`` =
``repro-mobility-pin``): frozen per-epoch load/handover trajectories of
one motion-driven eval cell, replayed bit-exactly by
:func:`repro.eval.replay_mobility_pin`. Entries are dispatched on their
``kind`` tag, so the two families coexist in one corpus directory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.core.bla import solve_bla, solve_bla_reference
from repro.core.mla import solve_mla, solve_mla_reference
from repro.core.mnu import solve_mnu, solve_mnu_reference
from repro.eval.mobility import MOBILITY_PIN_KIND, replay_mobility_pin
from repro.verify import replay_corpus_entry
from repro.verify.certificates import verify_assignment
from repro.verify.fuzz import CORPUS_KIND, load_corpus_entry

CORPUS_DIR = Path(__file__).parent / "corpus"
ALL_ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def _kind_of(path: Path) -> str:
    with path.open() as fh:
        return str(json.load(fh).get("kind", ""))


ENTRIES = [p for p in ALL_ENTRIES if _kind_of(p) == CORPUS_KIND]
MOBILITY_ENTRIES = [
    p for p in ALL_ENTRIES if _kind_of(p) == MOBILITY_PIN_KIND
]

#: Entries at or above this user count replay with certificates only in
#: the default run; their full-oracle replay (engine churn sequences,
#: sequential dynamics) is opt-in behind ``-m scale``.
LARGE_USER_THRESHOLD = 1000


def _n_users(path: Path) -> int:
    _, scenario = load_corpus_entry(str(path))
    return scenario.n_users


SMALL_ENTRIES = [p for p in ENTRIES if _n_users(p) < LARGE_USER_THRESHOLD]
LARGE_ENTRIES = [p for p in ENTRIES if _n_users(p) >= LARGE_USER_THRESHOLD]


def test_corpus_directory_exists():
    assert CORPUS_DIR.is_dir(), "tests/corpus/ regression directory missing"
    assert ENTRIES, "the corpus should hold at least the pinned scenarios"
    assert LARGE_ENTRIES, "the corpus should hold a large-instance pin"
    assert len(ENTRIES) + len(MOBILITY_ENTRIES) == len(ALL_ENTRIES), (
        "corpus entry with an unrecognized kind tag"
    )


@pytest.mark.parametrize("path", SMALL_ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_clean(path):
    failures = replay_corpus_entry(str(path))
    details = "\n".join(f.format() for f in failures)
    assert not failures, (
        f"corpus entry {path.name} reproduces a failure again:\n{details}"
    )


@pytest.mark.parametrize("path", LARGE_ENTRIES, ids=lambda p: p.stem)
def test_corpus_large_entry_certificates_clean(path):
    failures = replay_corpus_entry(str(path), oracles=False)
    details = "\n".join(f.format() for f in failures)
    assert not failures, (
        f"corpus entry {path.name} reproduces a failure again:\n{details}"
    )


@pytest.mark.scale
@pytest.mark.parametrize("path", LARGE_ENTRIES, ids=lambda p: p.stem)
def test_corpus_large_entry_oracles_clean(path):
    failures = replay_corpus_entry(str(path))
    details = "\n".join(f.format() for f in failures)
    assert not failures, (
        f"corpus entry {path.name} reproduces a failure again:\n{details}"
    )


# Solvers the "expectations" key pins. Each entry was recorded by running
# the pre-LoadLedger solvers on the scenario and storing every float as
# ``float.hex()``, so the comparison below is byte-exact, not approximate:
# the ledger refactor must not move a single bit of solver output.
def _solvers(bla, mla, mnu):
    return {
        "solve_bla": lambda problem: bla(problem).assignment,
        "solve_mla": lambda problem: mla(problem).assignment,
        "solve_mnu": lambda problem: mnu(problem).assignment,
        "solve_mnu+augment": lambda problem: mnu(
            problem, augment=True
        ).assignment,
    }


# "vector" replays the production solvers, whose hot loops run on numpy
# arrays; "scalar" replays their scalar reference functions.
_IMPLEMENTATIONS = {
    "scalar": _solvers(
        solve_bla_reference, solve_mla_reference, solve_mnu_reference
    ),
    "vector": _solvers(solve_bla, solve_mla, solve_mnu),
}


def _expectation_cases():
    for path in ENTRIES:
        entry, _scenario = load_corpus_entry(str(path))
        for solver_name in sorted(entry.get("expectations", {})):
            yield pytest.param(
                path, solver_name, id=f"{path.stem}-{solver_name}"
            )


@pytest.mark.parametrize("implementation", sorted(_IMPLEMENTATIONS))
@pytest.mark.parametrize("path,solver_name", list(_expectation_cases()))
def test_corpus_expectations_byte_identical(path, solver_name, implementation):
    """Replay recorded expectations through the production solvers and
    through their scalar references.

    The expectations were recorded once, on the scalar path. The
    production solvers must reproduce them bit for bit, and so must the
    references the differential tests hold production to.
    """
    entry, scenario = load_corpus_entry(str(path))
    expected = entry["expectations"][solver_name]
    problem = scenario.problem()
    assignment = _IMPLEMENTATIONS[implementation][solver_name](problem)

    assert list(assignment.ap_of_user) == [
        None if a is None else int(a) for a in expected["ap_of_user"]
    ]
    assert assignment.n_served == expected["n_served"]
    assert float(assignment.total_load()).hex() == expected["total_load"]
    assert float(assignment.max_load()).hex() == expected["max_load"]
    assert [
        float(x).hex() for x in assignment.sorted_load_vector()
    ] == expected["sorted_load_vector"]

    table = getattr(scenario.model, "rate_table", None)
    certificate = verify_assignment(
        problem,
        assignment,
        expected["objective"],
        rate_table=table,
        lp_bounds=True,
        exact=False,
    )
    assert certificate.ok == expected["certificate_ok"]
    assert [[c.name, c.passed] for c in certificate.checks] == (
        expected["certificate_checks"]
    )
    assert list(certificate.codes) == expected["violation_codes"]


def test_mobility_pin_present():
    assert MOBILITY_ENTRIES, (
        "the corpus should hold at least one mobility trajectory pin"
    )


@pytest.mark.parametrize("path", MOBILITY_ENTRIES, ids=lambda p: p.stem)
def test_mobility_pin_replays_clean(path):
    """The motion -> per-epoch problems -> cadence solver -> handover
    accounting pipeline reproduces the pinned trajectory bit for bit."""
    with path.open() as fh:
        record = json.load(fh)
    mismatches = replay_mobility_pin(record)
    details = "\n".join(mismatches)
    assert not mismatches, (
        f"mobility pin {path.name} no longer replays bit-exactly:\n{details}"
    )


def test_corpus_expectations_present():
    for path in ENTRIES:
        entry, _ = load_corpus_entry(str(path))
        expectations = entry.get("expectations", {})
        assert expectations, f"{path.name} carries no recorded expectations"
        for name, record in expectations.items():
            assert set(record) >= {
                "objective",
                "ap_of_user",
                "n_served",
                "total_load",
                "max_load",
                "sorted_load_vector",
                "certificate_ok",
            }, f"{path.name}:{name} expectation record incomplete"
            assert math.isfinite(
                float.fromhex(record["total_load"])
            ), f"{path.name}:{name} recorded a non-finite total load"
