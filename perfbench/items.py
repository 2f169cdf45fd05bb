"""Workload items: what to call, and how to check the answer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Item:
    """One user-level problem or one CLI request.

    ``calls`` is a list of (layer name, function, args); the item's answer
    is the list of their results, which ``check`` compares with the oracle
    and turns into None (correct) or a reason.  ``known_defect`` names the
    documented defect an item exposes, so that its failure is expected.
    """

    label: str
    calls: list
    check: Callable[[list], str | None]
    known_defect: str | None = None
    meta: dict = field(default_factory=dict)


def expect(condition: bool, reason: str) -> str | None:
    return None if condition else reason


def first_error(*reasons) -> str | None:
    for r in reasons:
        if r:
            return r
    return None
