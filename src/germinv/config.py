"""Computation limits and reproducibility knobs.

Every potentially unbounded loop in the package answers to one of these
fields. Hitting a limit raises ResourceLimitError; results are never
truncated silently.
"""

from __future__ import annotations

from typing import NamedTuple


class ComputeConfig(NamedTuple):
    # basis computations
    max_pairs: int = 200_000      # s-pairs per basis run; steps per reduction
    max_degree: int = 120         # a run's degree bound, or its inputs' degree if larger
    # slice oracle
    seed: int = 0
    s0_retries: int = 5           # slice values drawn, degenerate ones included,
                                  # for two valid ones to agree

    def with_overrides(self, **kw) -> "ComputeConfig":
        return self._replace(**kw)


DEFAULT_CONFIG = ComputeConfig()
