"""Shared fixtures, and a fresh interpreter on this source tree."""

import os
import subprocess
import sys
from itertools import islice

import pytest

import kurepa
from kurepa import verifier

# the directory that holds the kurepa package under test
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(kurepa.__file__)))


def fresh_python(*argv, start=subprocess.run, **kwargs):
    """`python *argv` in a new interpreter that imports kurepa from SRC_DIR.

    `start` is subprocess.run, or subprocess.Popen for a process the caller
    waits on; kwargs go to it unchanged.
    """
    return start([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=SRC_DIR), **kwargs)


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
