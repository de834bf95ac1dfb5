"""Shared test helpers."""

import dataclasses
from collections import Counter

import pytest


def _counting(sys):
    """(system, counter): the same system with its A and A+ applications counted."""
    calls = Counter()

    def wrap(name, fn):
        def op(v):
            calls[name] += 1
            return fn(v)

        return op

    counted = dataclasses.replace(
        sys, apply=wrap("apply", sys.apply), apply_pinv=wrap("apply_pinv", sys.apply_pinv)
    )
    return counted, calls


@pytest.fixture()
def counting():
    return _counting
