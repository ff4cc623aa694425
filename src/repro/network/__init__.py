"""Interconnection-network substrate.

- :mod:`repro.network.module` — the paper's Section 3 contention model:
  a memory module grants exactly one access per network cycle and a
  denied access is retried (and counted) every cycle.
- :mod:`repro.network.model` — the two-module (barrier variable + flag)
  network used by the barrier simulator.
- :mod:`repro.network.omega` — closed-form destination-tag routing
  shared by both Omega network simulators.
- :mod:`repro.network.multistage` — a circuit-switched Omega network
  simulator for the Section 8 network-backoff extensions.
- :mod:`repro.network.netbackoff` — the five Section 8 network backoff
  strategies.
- :mod:`repro.network.hotspot` — hot-spot / tree-saturation workloads.
- :mod:`repro.network.patel` — Patel-style analytic bandwidth model.
"""

from repro.network.module import MemoryModule
from repro.network.model import NetworkModel
from repro.network.multistage import (
    MultistageNetwork,
    NetworkMessage,
    NetworkRunResult,
)
from repro.network.netbackoff import (
    ConstantRoundTripBackoff,
    DepthProportionalBackoff,
    ExponentialRetryBackoff,
    ImmediateRetry,
    InverseDepthBackoff,
    NetworkBackoffPolicy,
    QueueFeedbackBackoff,
)
from repro.network.coupling import CouplingEstimate, couple_barrier_traffic
from repro.network.hotspot import HotspotWorkload, hotspot_sweep
from repro.network.packet import (
    PacketRunResult,
    PacketSwitchedNetwork,
    tree_saturation_sweep,
)
from repro.network.omega import omega_lines
from repro.network.patel import patel_bandwidth, patel_stage_rates

__all__ = [
    "MemoryModule",
    "NetworkModel",
    "MultistageNetwork",
    "NetworkMessage",
    "NetworkRunResult",
    "omega_lines",
    "NetworkBackoffPolicy",
    "ImmediateRetry",
    "DepthProportionalBackoff",
    "InverseDepthBackoff",
    "ConstantRoundTripBackoff",
    "ExponentialRetryBackoff",
    "QueueFeedbackBackoff",
    "HotspotWorkload",
    "hotspot_sweep",
    "CouplingEstimate",
    "couple_barrier_traffic",
    "PacketSwitchedNetwork",
    "PacketRunResult",
    "tree_saturation_sweep",
    "patel_bandwidth",
    "patel_stage_rates",
]
