"""Computation limits and reproducibility knobs.

Every potentially unbounded loop in the package answers to one of these
fields. Hitting a limit raises ResourceLimitError; results are never
truncated silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ComputeConfig:
    # basis computations
    max_pairs: int = 200_000      # s-pairs per basis run; steps per reduction
    max_degree: int = 120         # total degree any intermediate term may reach
    jet_bound: int = 96           # largest truncation order for local dimensions
    # slice oracle
    seed: int = 0
    s0_retries: int = 5           # degenerate slices tolerated before giving up
    coeff_bound: int = 100        # numerator/denominator bound for sampled slice values

    def with_overrides(self, **kw) -> "ComputeConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = ComputeConfig()
