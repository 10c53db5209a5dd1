"""Run a batch function with a chosen row-block size."""

import pytest

from mesoc_kit import cones


def with_block_entries(entries, fn, *args):
    """``fn(*args)`` with row blocks of about ``entries`` entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "BLOCK_ENTRIES", entries)
        return fn(*args)


def one_block(fn, *args):
    """``fn(*args)`` with every input in a single row block."""
    return with_block_entries(2**62, fn, *args)
