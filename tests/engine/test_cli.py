"""The ``engine`` CLI subcommand: sharded solves checked against the
monolithic solvers on a generated federation."""

from __future__ import annotations

from repro.__main__ import main


def test_engine_compare_matches_monolithic(capsys):
    assert main(["engine", "--clusters", "4", "--compare"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for objective in ("mnu", "bla", "mla"):
        solved = [
            line for line in lines if line.strip().startswith(f"{objective}:")
        ]
        assert len(solved) == 1, lines
        assert solved[0].endswith("[match]"), solved[0]
