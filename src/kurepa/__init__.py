"""Exact workbench for left factorials and their Bell-number relatives.

Everything integer-valued is computed with arbitrary-precision ints,
values on the e scale keep their integer coefficient and integer e power,
and the few genuinely real-valued checks run in decimal at a declared
precision, so the package needs only the standard library. Published
claims are re-checked, never assumed: see report.

Importing the package loads none of its modules: each name in __all__ is
imported from its module on first access, so `python -m kurepa` pays only
for the layers a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "greedy_bell_decomposition": "decomp",
    "kurepa_sequence_sum": "decomp",
    "MATCH": "discrepancy",
    "MISMATCH": "discrepancy",
    "DiscrepancyReport": "discrepancy",
    "EScaled": "efactor",
    "dobinski": "efactor",
    "fermi": "efactor",
    "inv_dobinski": "efactor",
    "gcd_stein": "gcdlab",
    "full_report": "report",
    "bell": "sequences",
    "complementary_bell": "sequences",
    "derangement": "sequences",
    "factorial": "sequences",
    "factorial_sum": "sequences",
    "half_left_factorial": "sequences",
    "kurepa_poly": "sequences",
    "left_factorial": "sequences",
    "stirling2": "sequences",
    "left_factorial_mod": "verifier",
    "run_search": "verifier",
    "sieve_primes": "verifier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
