"""Interference measures — the paper's core contribution plus baselines.

- :mod:`repro.interference.coverage` — the one coverage predicate
  (``v in D(u, r_u)``) every layer counts with.
- :mod:`repro.interference.receiver` — the paper's receiver-centric measure
  (Definitions 3.1/3.2): how many other nodes can disturb a given node.
- :mod:`repro.interference.sender` — the sender-centric edge-coverage
  measure of Burkhart et al. [2], reimplemented as the baseline the paper
  argues against.
- :mod:`repro.interference.robustness` — node addition/removal deltas under
  both measures (the Figure 1 robustness argument).
- :mod:`repro.interference.traffic` — a traffic-weighted variant in the
  spirit of Meyer auf de Heide et al. [11].
"""

from repro.interference.batch import node_interference_many
from repro.interference.receiver import (
    average_interference,
    coverage_counts,
    graph_interference,
    node_interference,
    node_interference_naive,
)
from repro.interference.incremental import InterferenceTracker
from repro.interference.localized import localized_interference
from repro.interference.sender import (
    edge_coverage,
    sender_interference,
)
from repro.interference.robustness import (
    AdditionReport,
    StabilityRecord,
    StabilitySummary,
    addition_report,
    removal_report,
    stability_summary,
)
from repro.interference.traffic import traffic_interference

__all__ = [
    "node_interference",
    "node_interference_many",
    "node_interference_naive",
    "graph_interference",
    "average_interference",
    "coverage_counts",
    "InterferenceTracker",
    "localized_interference",
    "edge_coverage",
    "sender_interference",
    "AdditionReport",
    "addition_report",
    "removal_report",
    "StabilityRecord",
    "StabilitySummary",
    "stability_summary",
    "traffic_interference",
]
