"""End-to-end and per-layer benchmark of the association-control stack.

Run one workload with ``python3 perfbench/run.py --workload <name>``
from the root of a source checkout; see ``perfbench/README.md``.
"""
