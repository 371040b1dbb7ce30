"""The quick policy and mobility studies reproduce their recorded figure data.

Each study's ``--digest`` is the sha256 of its canonical figure-data bytes
(``study_bytes``). The values below were recorded from the command lines
CI runs; any change to rates, solvers, motion or serialization that moves
a single bit of either figure shows up here.
"""

from __future__ import annotations

import pytest

from repro.eval.__main__ import main

POLICY_QUICK_SHA256 = (
    "af00ed5d7f65b83fd571a0db9ff477ee30cd3b23f950d0396db2d5b4828479d4"
)
MOBILITY_QUICK_SHA256 = (
    "f89e781390f477e5bbfce1876978bb0f103c8d3659cbb3553aba7e7de6a00171"
)


@pytest.mark.parametrize(
    "study,expected",
    [("--policy", POLICY_QUICK_SHA256), ("--mobility", MOBILITY_QUICK_SHA256)],
    ids=["policy-frontier", "churn-vs-cadence"],
)
def test_quick_study_digest_is_pinned(study, expected, capsys):
    assert main([study, "--quick", "--digest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = [
        line.split(": ", 1)[1]
        for line in lines
        if line.startswith("figure-data sha256: ")
    ]
    assert digests == [expected]
