"""Shared fixtures."""

from itertools import islice

import pytest

from kurepa import verifier


@pytest.fixture
def interrupt_after(monkeypatch):
    """interrupt_after(k) makes the next run_search raise KeyboardInterrupt,
    as Ctrl-C would, once it has committed k blocks.

    The interrupt is thrown into the real block generator at the point
    where it hands over block k + 1, so a pool shuts down as it would on a
    real interrupt.
    """
    real = verifier._block_results

    def arm(k):
        def stand_in(blocks, workers):
            monkeypatch.setattr(verifier, "_block_results", real)
            results = real(blocks, workers)
            yield from islice(results, k)
            results.throw(KeyboardInterrupt)

        monkeypatch.setattr(verifier, "_block_results", stand_in)

    return arm
