"""Fixture: a vec kernel importing only within its own leaf layer."""

from repro.vec import backend


def first_max(values):
    return backend.first_argmax(values)
