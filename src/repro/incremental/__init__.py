"""Delta-aware re-estimation for ECO-style netlist edits.

Service sessions and ``mae eco`` re-query the estimator on netlists
that change only slightly between queries.  This package makes those
re-queries O(affected nets):

* :mod:`repro.incremental.mutations` — the six edit kinds as frozen
  ``Mutation`` dataclasses with JSON round-trip (``mae eco`` files).
* :mod:`repro.incremental.engine` — :class:`IncrementalEstimator`,
  which maintains the scan histograms live under edits and plans
  through the version-checked plan cache.  Results are bit-identical
  to a from-scratch rescan (see the module docstring for why).
* :mod:`repro.incremental.editgen` — deterministic random edit
  sequences for the equivalence suite and the bench.
"""

from repro.incremental.engine import (
    IncrementalEstimator,
    apply_mutations,
    edit_distance,
)
from repro.incremental.editgen import (
    generate_edit_sequence,
    random_mutation,
)
from repro.incremental.mutations import (
    EDITS_SCHEMA_VERSION,
    AddDevice,
    ConnectTerminal,
    DisconnectTerminal,
    MergeNets,
    Mutation,
    RemoveDevice,
    SplitNet,
    load_mutations,
    mutation_from_dict,
    mutations_from_jsonable,
    mutations_to_jsonable,
    save_mutations,
)

__all__ = [
    "AddDevice",
    "ConnectTerminal",
    "DisconnectTerminal",
    "EDITS_SCHEMA_VERSION",
    "IncrementalEstimator",
    "MergeNets",
    "Mutation",
    "RemoveDevice",
    "SplitNet",
    "apply_mutations",
    "edit_distance",
    "generate_edit_sequence",
    "load_mutations",
    "mutation_from_dict",
    "mutations_from_jsonable",
    "mutations_to_jsonable",
    "random_mutation",
    "save_mutations",
]
