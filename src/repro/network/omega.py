"""Closed-form destination-tag routing through an Omega network.

An Omega network with ``P = 2**n`` ports has ``n`` stages of 2x2
switches joined by perfect shuffles.  A message from ``source`` moves,
at stage ``k``, to line ``((pos << 1) & (P-1)) | bit_{n-1-k}(dest)``.
Unrolling that recurrence, the line at stage ``k`` keeps the low
``n-k-1`` bits of ``source`` above the top ``k+1`` bits of ``dest``:

    line_k = ((source << (k+1)) | (dest >> (n-k-1))) & (P-1)

so after the last stage the position equals ``dest``.  Both the
circuit-switched (:mod:`repro.network.multistage`) and the buffered
(:mod:`repro.network.packet`) simulators route through this one helper.
"""

from __future__ import annotations

from typing import List


def omega_lines(num_stages: int, source: int, dest: int) -> List[int]:
    """The line ``source -> dest`` occupies at each stage, in stage order."""
    mask = (1 << num_stages) - 1
    dest &= mask
    return [
        ((source << shift) | (dest >> (num_stages - shift))) & mask
        for shift in range(1, num_stages + 1)
    ]


__all__ = ["omega_lines"]
