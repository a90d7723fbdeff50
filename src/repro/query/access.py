"""The access-path decision: how each condition of a conjunct is evaluated.

The paper's four strategies (PDC-F/H/HI/SH, §III-D) are four ways to reach
a condition's data.  :func:`access_paths` is the one place that picks a
path per evaluation step.  The executor runs each step with the operator
for its path, batch demand estimation reads the first step's path, and
the planner labels and costs each step by it — so EXPLAIN names the path
the executor takes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..pdc.system import PDCSystem, ReplicaGroup
from ..strategies import Strategy

__all__ = [
    "FULL_READ",
    "PRUNED_SCAN",
    "INDEX_PROBE",
    "RECHECK",
    "BINARY_SEARCH",
    "REPLICA_SLICE",
    "access_paths",
]

#: Read the object's regions in the constraint window whole, then scan.
FULL_READ = "full-read+scan"
#: Read the regions surviving min/max elimination, then scan them.
PRUNED_SCAN = "pruned-read+scan"
#: Probe the surviving regions' bitmap indexes instead of their data.
INDEX_PROBE = "index-probe"
#: Re-check the previous step's candidates against this condition.
RECHECK = "recheck"
#: Binary search the sorted replica's key for the matching run.
BINARY_SEARCH = "binary-search-run"
#: Filter the run by the condition's contiguous companion slice.
REPLICA_SLICE = "replica-slice"


def access_paths(
    system: PDCSystem, strategy: Strategy, names: Sequence[str]
) -> Tuple[List[str], Optional[ReplicaGroup]]:
    """Each step's access path for a conjunct whose conditions, in
    evaluation order, are on the objects ``names``, plus the sorted
    replica that serves the conjunct (None off the replica path).

    * PDC-F (§III-D1): ``full-read+scan`` on every step — the first step
      pre-loads every queried object, later steps re-check candidates in
      the pre-loaded data.
    * PDC-SH (§III-D3): ``binary-search-run`` then ``replica-slice`` s,
      when a sorted replica covers every object and is keyed on the first
      one.  Otherwise (e.g. the planner put another object first, Fig. 4's
      low-energy-selectivity queries) — §VI-B: SH takes PDC-H's paths.
    * PDC-HI (§III-D4): ``index-probe`` on each object that has a bitmap
      index; the others take PDC-H's path for their step.
    * PDC-H (§III-D2): ``pruned-read+scan`` for the first condition and
      ``recheck`` of the candidates for later ones.
    """
    if strategy is Strategy.FULL_SCAN:
        return [FULL_READ] * len(names), None
    if strategy is Strategy.SORT_HIST:
        group = system.replica_covering(names)
        if group is not None and group.replica.key_name == names[0]:
            return [BINARY_SEARCH] + [REPLICA_SLICE] * (len(names) - 1), group
    probe = strategy is Strategy.HIST_INDEX
    return [
        INDEX_PROBE if probe and system.get_object(name).indexes is not None
        else RECHECK if i else PRUNED_SCAN
        for i, name in enumerate(names)
    ], None
