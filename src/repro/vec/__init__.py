"""Flat array substrate for the solvers' hot loops.

``repro.vec`` is a *leaf* layer (see ``repro.lint.tables.LAYER_DAG``): it
imports nothing from the rest of the package so the solver layers above
can depend on it freely. Its one module, :mod:`repro.vec.backend`, holds
the numpy kernels (CSR gathers and segment counts). It is the only place
in the layer that touches numpy, and replint RPL002 polices who may
import it.

Every kernel is exact — integer arithmetic, comparisons and first-max
scans only — so the array-backed solvers are *bit-identical* to the
scalar reference functions kept beside them: same selections, same
``float.hex`` loads, same counters. ``tests/core/test_vector_equivalence.py``
enforces it.
"""
