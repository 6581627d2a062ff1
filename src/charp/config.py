"""Budget configuration.

Budgets keep every scenario desk-scale.  Profiles: "fast" (default) and
"full" (a larger ``max_cells``; the acceptance tests add the p=5 stretch
runs under it).  Overrides come from the environment
variable CHARP_BUDGET_PROFILE and optionally from a config file of flat
``key = value`` lines passed to :func:`load_config`; unknown keys and
malformed values raise ValueError.
"""

import os

_FAST = {
    "profile": "fast",
    # highest cosimplicial level materialised by derived_power
    "max_level": 8,
    # largest finite group handled by the dense bar complex
    "max_group_order": 2000,
    # largest matrix in dense cells, also when built as entries: the bar
    # complex's differentials and a derived power's coface sum (n+1 by N^n)
    "max_cells": 40_000_000,
    # roots.enumerate: cap on the number of summands
    "max_terms": 8,
    # roots.find_quadratic_field: search bound for the integer d
    "field_search_bound": 2000,
}

_FULL = dict(_FAST, profile="full", max_cells=120_000_000)

_INT_KEYS = ("max_level", "max_group_order", "max_cells", "max_terms",
             "field_search_bound")


class Budget(dict):
    __getattr__ = dict.__getitem__


def _parse_flat(text):
    out = {}
    for n, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {n}: expected key = value")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip().strip('"').strip("'")
    return out


def _coerce(key, val):
    if key in _INT_KEYS:
        try:
            return int(val)
        except ValueError:
            raise ValueError(f"config key {key}: {val!r} is not an "
                             "integer") from None
    raise ValueError(f"unknown config key {key!r}")


def load_config(path=None, profile=None):
    """Resolve the active budget: defaults <- profile <- config file."""
    prof = profile or os.environ.get("CHARP_BUDGET_PROFILE", "fast")
    if prof not in ("fast", "full"):
        raise ValueError(f"unknown budget profile {prof!r}")
    cfg = Budget(_FULL if prof == "full" else _FAST)
    if path:
        with open(path) as fh:
            data = _parse_flat(fh.read())
        for key, val in data.items():
            cfg[key] = _coerce(key, val)
    return cfg


DEFAULT = load_config()


class BudgetExceeded(Exception):
    """Raised when a computation would overrun the configured budget."""
