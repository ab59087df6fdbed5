"""Seeded inputs for every workload: same seed, same bytes.

The program only ever sees what these functions generate; the seed
itself never reaches it.  Sizes are drawn from fixed ranges so that any
seed yields inputs of the same scale, which keeps the end-to-end figures
comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.incremental.editgen import random_mutation
from repro.incremental.mutations import (
    AddDevice,
    ConnectTerminal,
    DisconnectTerminal,
    Mutation,
    RemoveDevice,
    mutations_to_jsonable,
)
from repro.netlist.model import Module
from repro.netlist.writers import write_verilog
from repro.workloads.designs import generate_design
from repro.workloads.generators import random_gate_module

# ----------------------------------------------------------------------
# serve_keepalive
# ----------------------------------------------------------------------
#: Gate counts of the two sessions: one of a few hundred devices and
#: one near 2000, one per client thread.
SESSION_GATES: Tuple[Tuple[int, int], ...] = ((400, 500), (1800, 2000))

#: Row lists the multi-row requests cycle through (the load test's).
ROW_MENU: Tuple[Tuple[int, ...], ...] = ((2, 3, 4), (3, 5), (4, 6, 8))

#: Distinct ECO edits per session; each is later reverted, so the
#: session's module stays within one edit of its original state and
#: every request costs the same however many a run sends.
EDITS_PER_SESSION = 128

#: Edit kinds with an exact inverse (merge/split would need port
#: bookkeeping to undo).
_REVERSIBLE = (AddDevice, RemoveDevice, ConnectTerminal, DisconnectTerminal)


@dataclass
class SessionInput:
    name: str
    module: Module
    source: str
    #: (edit, its inverse), both valid against the original module and
    #: against the module with the edit applied, respectively.
    edits: List[Tuple[Mutation, Mutation]]


def _inverse(mutation: Mutation, module: Module) -> Mutation:
    """The edit that undoes ``mutation`` on ``module`` (pre-edit)."""
    if isinstance(mutation, AddDevice):
        return RemoveDevice(mutation.name)
    if isinstance(mutation, RemoveDevice):
        device = module.device(mutation.name)
        return AddDevice.make(
            device.name, device.cell, dict(device.pins),
            device.width_lambda, device.height_lambda,
        )
    if isinstance(mutation, ConnectTerminal):
        return DisconnectTerminal(mutation.device, mutation.pin)
    net = module.device(mutation.device).pins[mutation.pin]
    return ConnectTerminal(mutation.device, mutation.pin, net)


def serve_sessions(seed: int) -> List[SessionInput]:
    sessions = []
    for slot, (low, high) in enumerate(SESSION_GATES):
        rng = random.Random(f"{seed}:session:{slot}")
        gates = rng.randint(low, high)
        name = f"sess{slot}_s{seed}"
        module = random_gate_module(
            name, gates=gates, inputs=max(4, gates // 40),
            outputs=max(2, gates // 60), seed=rng.randrange(1 << 30),
            locality=round(rng.uniform(0.3, 0.95), 2),
        )
        edits = []
        while len(edits) < EDITS_PER_SESSION:
            mutation = random_mutation(module, rng)
            if isinstance(mutation, _REVERSIBLE):
                edits.append((mutation, _inverse(mutation, module)))
        sessions.append(SessionInput(name, module, write_verilog(module),
                                     edits))
    return sessions


@dataclass(frozen=True)
class Request:
    """One request of a session's stream.

    ``state`` is the session's edit state after the request: ``-1``
    for the original module, ``i`` for the module with edit ``i``
    applied.  ``rows`` is ``None`` (default rows) or a row tuple.
    """

    kind: str          # "estimate" | "multirow" | "edit"
    path: str          # "estimate" | "edits"
    body: bytes
    rows: Optional[Tuple[int, ...]]
    state: int


def request_stream(seed: int, slot: int,
                   session: SessionInput) -> Iterator[Request]:
    """The load test's mix, endless: 50 % estimate at default rows,
    25 % multi-row estimate, 25 % one ECO edit plus estimate.  Edit
    requests alternate between applying the next edit and reverting
    it."""
    rng = random.Random(f"{seed}:requests:{slot}")
    bodies = [
        (json.dumps({"edits": mutations_to_jsonable([forward])}).encode(),
         json.dumps({"edits": mutations_to_jsonable([backward])}).encode())
        for forward, backward in session.edits
    ]
    turn = 0
    edit_turn = 0
    state = -1
    while True:
        turn += 1
        draw = rng.random()
        if draw < 0.5:
            yield Request("estimate", "estimate", b"{}", None, state)
        elif draw < 0.75:
            rows = ROW_MENU[turn % len(ROW_MENU)]
            yield Request("multirow", "estimate",
                          json.dumps({"rows": list(rows)}).encode(),
                          rows, state)
        else:
            index = (edit_turn // 2) % len(bodies)
            applying = edit_turn % 2 == 0
            state = index if applying else -1
            yield Request("edit", "edits", bodies[index][0 if applying else 1],
                          None, state)
            edit_turn += 1


def session_state(session: SessionInput, state: int) -> Module:
    """The module a session holds in edit state ``state``."""
    module = session.module.copy()
    if state >= 0:
        session.edits[state][0].apply(module)
    return module


# ----------------------------------------------------------------------
# floorplan_scored
# ----------------------------------------------------------------------
#: Leaves of the raced chip: a few hundred, so that one race outlasts
#: the sub-second swings in host speed (a race of a 300-leaf chip is
#: short enough to land wholly in a fast or a slow spell, which makes
#: the median race flip between the two) while a 40-s run still holds
#: well over a hundred races.
CHIP_LEAVES = 500


def chip_spec(seed: int) -> Dict[str, int]:
    return {"module_count": CHIP_LEAVES, "seed": seed}


def build_chip(spec: Dict[str, int]):
    return generate_design(spec["module_count"], seed=spec["seed"],
                           name=f"chip_s{spec['seed']}")
