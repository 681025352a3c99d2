"""Correctness gate for one pass of `germinv report --format machine`.

A germ run passes when it exits with its expected code, its two routes to
the image Milnor number agree, its numbers match the literature, its report
matches the plain twin's on every key except the sampled slice point, and
its stdout is byte-identical to the same germ's stdout in earlier passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Case:
    """One germ run of a workload."""

    name: str
    path: str
    args: tuple                      # extra `report` flags
    expect_exit: int
    mu_image: Optional[int]          # golden, None when the run must fail
    ae_codim: Optional[int]
    twin: Optional[str] = None


def parse_machine(stdout: str) -> Dict[str, str]:
    rows = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            rows[key] = value
    return rows


def check(case: Case, exit_code: int, stdout: str,
          twin_stdout: Optional[str] = None,
          earlier_stdout: Optional[str] = None) -> List[str]:
    """Reasons the run fails the gate; empty when it passes."""
    reasons: List[str] = []
    if exit_code != case.expect_exit:
        reasons.append(f"exit {exit_code}, expected {case.expect_exit}")
    if earlier_stdout is not None and stdout != earlier_stdout:
        reasons.append("stdout differs from an earlier pass")
    if exit_code != 0 or case.expect_exit != 0:
        return reasons
    rows = parse_machine(stdout)
    if rows.get("route_disagreement") != "false":
        reasons.append(f"route_disagreement={rows.get('route_disagreement')}")
    if rows.get("mu_image") != rows.get("mu_image_oracle"):
        reasons.append(f"mu_image={rows.get('mu_image')} but "
                       f"mu_image_oracle={rows.get('mu_image_oracle')}")
    if rows.get("mu_image") != str(case.mu_image):
        reasons.append(f"mu_image={rows.get('mu_image')}, literature {case.mu_image}")
    ae = "none" if case.ae_codim is None else str(case.ae_codim)
    if rows.get("ae_codim") != ae:
        reasons.append(f"ae_codim={rows.get('ae_codim')}, literature {ae}")
    if twin_stdout is not None:
        twin = parse_machine(twin_stdout)
        keys = (set(rows) | set(twin)) - {"oracle_s0"}
        differ = sorted(k for k in keys if rows.get(k) != twin.get(k))
        if differ:
            reasons.append("differs from the untransformed germ on "
                           + ", ".join(differ))
    return reasons
