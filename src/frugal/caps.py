"""Desk-scale enumeration caps.

Every exhaustive enumeration in the package is capped. The env var
FRUGAL_SCALE_CAP, when set, must be a positive integer, and it
overrides all caps at once.
"""

from __future__ import annotations

import os

from .errors import InputError

PATH_CAP = 100_000
INDEPENDENT_SET_CAP = 10_000
COVER_AGENT_CAP = 20
FLOW_EDGE_CAP = 16
SUBSET_CAP = 1 << 20
DOUBLE_CUT_ENUM_EDGES = 14


def cap(default: int) -> int:
    """Return the effective cap: env override if set, else the default.
    An override that is not a positive integer is an InputError."""
    raw = os.environ.get("FRUGAL_SCALE_CAP")
    if raw is None:
        return default
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise InputError(f"FRUGAL_SCALE_CAP must be a positive integer, "
                     f"not {raw!r}")
