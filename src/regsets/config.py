"""Tunable size caps and the decision's state budget."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ParseError

ENV_MAX_ORDER = "REGSET_MAX_ORDER"


@dataclass(frozen=True)
class Limits:
    """Resource caps: ``closure_cap`` on the order of any group built,
    ``enumeration_cap`` (``REGSET_MAX_ORDER``) on the order of a group whose
    subgroups are enumerated, ``search_node_budget`` on the states that the
    reachable-sums sweeps of one decision may reach, summed over its
    components."""

    closure_cap: int = 5000
    enumeration_cap: int = 48
    search_node_budget: int = 5_000_000


DEFAULT_LIMITS = Limits()


def limits_from_env(base: Limits | None = None) -> Limits:
    """Return ``base`` with ``enumeration_cap`` taken from the environment.

    ``closure_cap`` stays as it is, so the order of every group built stays
    bounded: a value above it raises :class:`ParseError`."""
    base = base if base is not None else DEFAULT_LIMITS
    raw = os.environ.get(ENV_MAX_ORDER)
    if raw is None:
        return base
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"{ENV_MAX_ORDER} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParseError(f"{ENV_MAX_ORDER} must be positive, got {value}")
    if value > base.closure_cap:
        raise ParseError(
            f"{ENV_MAX_ORDER}={value} exceeds the group-order cap {base.closure_cap}"
        )
    return replace(base, enumeration_cap=value)
