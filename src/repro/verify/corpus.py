"""Seeded corpus driver for the differential verification harness.

A :class:`CaseSpec` is a *recipe* for a module — family name, seed, and
a flat parameter mapping — rather than the module itself.  Recipes are
JSON-serializable, so a failing case can be persisted as a replayable
seed record (:mod:`repro.verify.records`) and rebuilt bit-identically
in a later process: every generator in
:mod:`repro.workloads.generators` is deterministic given its seed.

:func:`draw_corpus` sweeps the corpus the way the paper's tables sweep
designs: structured families (adders, counters, decoders, muxes,
LFSRs, ALU slices, register files) plus :func:`random_gate_module` at
several sizes/localities/cell mixes for standard-cell cases, and
transistor-level families (expanded random logic, expanded decoders,
pass-transistor chains) for full-custom cases.  The draw is
round-robin over families so even a small ``--seeds`` budget touches
every family, and fully deterministic in ``base_seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple, Union

from repro.errors import VerificationError
from repro.netlist.model import Module
from repro.workloads.generators import (
    adder_module,
    alu_slice_module,
    counter_module,
    decoder_module,
    expand_to_transistors,
    lfsr_module,
    mux_tree_module,
    pass_transistor_chain,
    random_gate_module,
    register_file_module,
)

ParamValue = Union[int, float]

#: Cell mix restricted to gates with an nMOS transistor expansion, so
#: ``random_nmos`` cases can run the full-custom oracle.
EXPANDABLE_CELL_MIX = (
    ("NAND2", 4.0),
    ("NOR2", 3.0),
    ("INV", 3.0),
    ("NAND3", 1.5),
    ("AOI21", 1.0),
)


@dataclass(frozen=True)
class CaseSpec:
    """A replayable corpus case: (family, seed, params).

    ``params`` is stored as a sorted tuple of (name, value) pairs so
    specs are hashable and compare by content.
    """

    family: str
    seed: int
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    @staticmethod
    def make(family: str, seed: int,
             params: Mapping[str, ParamValue]) -> "CaseSpec":
        return CaseSpec(family, seed, tuple(sorted(params.items())))

    @property
    def methodology(self) -> str:
        """``"standard-cell"`` or ``"full-custom"``, fixed per family."""
        return _family(self.family).methodology

    @property
    def label(self) -> str:
        """A short unique module name, e.g. ``random_s17_g12``."""
        bits = "".join(
            f"_{name[0]}{value}" for name, value in self.params
        ).replace(".", "p")
        return f"{self.family}_s{self.seed}{bits}"

    def param(self, name: str) -> ParamValue:
        for key, value in self.params:
            if key == name:
                return value
        raise VerificationError(
            f"case {self.label}: missing parameter {name!r}"
        )

    def build(self) -> Module:
        """Rebuild the module (deterministic: same spec, same module)."""
        return _family(self.family).build(self)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "params": {name: value for name, value in self.params},
        }

    @staticmethod
    def from_dict(data: Mapping) -> "CaseSpec":
        try:
            family = data["family"]
            seed = data["seed"]
            params = data.get("params", {})
        except (KeyError, TypeError) as exc:
            raise VerificationError(f"malformed case spec: {data!r}") from exc
        if family not in _FAMILIES:
            raise VerificationError(f"unknown corpus family {family!r}")
        if not isinstance(seed, int) or not isinstance(params, dict):
            raise VerificationError(f"malformed case spec: {data!r}")
        return CaseSpec.make(family, seed, params)


@dataclass(frozen=True)
class _Family:
    """One corpus family: its methodology, builder, and param sampler."""

    name: str
    methodology: str
    builder: Callable[[CaseSpec], Module]
    sampler: Callable[[random.Random], Dict[str, ParamValue]] = field(
        default=lambda rng: {}
    )

    def build(self, spec: CaseSpec) -> Module:
        return self.builder(spec)

    def draw(self, rng: random.Random) -> CaseSpec:
        return CaseSpec.make(self.name, rng.randrange(1_000_000),
                             self.sampler(rng))


def _build_random(spec: CaseSpec) -> Module:
    return random_gate_module(
        spec.label,
        gates=int(spec.param("gates")),
        inputs=int(spec.param("inputs")),
        outputs=int(spec.param("outputs")),
        seed=spec.seed,
        locality=float(spec.param("locality")),
    )


def _build_random_nmos(spec: CaseSpec) -> Module:
    gate_level = random_gate_module(
        spec.label + "_g",
        gates=int(spec.param("gates")),
        inputs=int(spec.param("inputs")),
        outputs=int(spec.param("outputs")),
        seed=spec.seed,
        cell_mix=EXPANDABLE_CELL_MIX,
        locality=float(spec.param("locality")),
    )
    return expand_to_transistors(gate_level, name=spec.label)


def _build_decoder_nmos(spec: CaseSpec) -> Module:
    gate_level = decoder_module(
        spec.label + "_g", int(spec.param("address_bits"))
    )
    return expand_to_transistors(gate_level, name=spec.label)


def _build_blif(spec: CaseSpec) -> Module:
    """A frontend-ingested case: one committed golden BLIF fixture
    parsed through :mod:`repro.frontend.blif`, renamed to the spec
    label so every case is a distinct module.  Fixture files are
    committed, so the recipe replays bit-identically like any
    generated family — and every equivalence gate (plan-vs-direct,
    backends, incremental, serve, congestion) now runs over ingested
    netlists too."""
    from repro.frontend.blif import parse_blif
    from repro.frontend.calibrate import fixture_blifs

    paths = fixture_blifs()
    path = paths[int(spec.param("fixture")) % len(paths)]
    module = parse_blif(path.read_text(), str(path))
    module.name = spec.label
    return module


def _sample_blif(rng: random.Random) -> Dict[str, ParamValue]:
    from repro.frontend.calibrate import fixture_blifs

    return {"fixture": rng.randrange(len(fixture_blifs()))}


def _build_hier(spec: CaseSpec) -> Module:
    """The portfolio workload: a seeded hierarchical multi-module chip,
    flattened through the instantiation hierarchy into one gate-level
    module.  The single-module invariant checks run on the flattened
    chip; the ``portfolio_determinism`` gate rebuilds the *design* from
    the same spec and races the optimizer over it."""
    from repro.workloads.designs import generate_design

    design = generate_design(
        int(spec.param("modules")), seed=spec.seed, name=spec.label
    )
    return design.flatten()


_FAMILIES: Dict[str, _Family] = {}


def _register(family: _Family) -> None:
    _FAMILIES[family.name] = family


def _family(name: str) -> _Family:
    family = _FAMILIES.get(name)
    if family is None:
        raise VerificationError(
            f"unknown corpus family {name!r} "
            f"(known: {sorted(_FAMILIES)})"
        )
    return family


# Standard-cell families ------------------------------------------------
_register(_Family(
    "random", "standard-cell", _build_random,
    lambda rng: {
        "gates": rng.randrange(6, 37),
        "inputs": rng.randrange(3, 7),
        "outputs": rng.randrange(1, 4),
        "locality": round(rng.uniform(0.1, 1.0), 2),
    },
))
_register(_Family(
    "adder", "standard-cell",
    lambda spec: adder_module(spec.label, int(spec.param("bits"))),
    lambda rng: {"bits": rng.randrange(2, 9)},
))
_register(_Family(
    "counter", "standard-cell",
    lambda spec: counter_module(spec.label, int(spec.param("bits"))),
    lambda rng: {"bits": rng.randrange(2, 7)},
))
_register(_Family(
    "decoder", "standard-cell",
    lambda spec: decoder_module(spec.label, int(spec.param("address_bits"))),
    lambda rng: {"address_bits": rng.randrange(2, 5)},
))
_register(_Family(
    "mux", "standard-cell",
    lambda spec: mux_tree_module(spec.label, int(spec.param("select_bits"))),
    lambda rng: {"select_bits": rng.randrange(2, 5)},
))
_register(_Family(
    "lfsr", "standard-cell",
    lambda spec: lfsr_module(spec.label, int(spec.param("bits"))),
    lambda rng: {"bits": rng.randrange(3, 9)},
))
_register(_Family(
    "alu", "standard-cell",
    lambda spec: alu_slice_module(spec.label, int(spec.param("bits"))),
    lambda rng: {"bits": rng.randrange(2, 5)},
))
_register(_Family(
    "regfile", "standard-cell",
    lambda spec: register_file_module(
        spec.label, int(spec.param("words")), int(spec.param("bits"))
    ),
    lambda rng: {"words": rng.randrange(2, 5), "bits": rng.randrange(2, 5)},
))
_register(_Family(
    "hier", "standard-cell", _build_hier,
    lambda rng: {"modules": rng.randrange(4, 8)},
))
_register(_Family(
    "blif", "standard-cell", _build_blif, _sample_blif,
))

# Full-custom families --------------------------------------------------
_register(_Family(
    "random_nmos", "full-custom", _build_random_nmos,
    lambda rng: {
        "gates": rng.randrange(4, 11),
        "inputs": rng.randrange(2, 5),
        "outputs": rng.randrange(1, 3),
        "locality": round(rng.uniform(0.3, 1.0), 2),
    },
))
_register(_Family(
    "decoder_nmos", "full-custom", _build_decoder_nmos,
    lambda rng: {"address_bits": rng.randrange(2, 4)},
))
_register(_Family(
    "pass_chain", "full-custom",
    lambda spec: pass_transistor_chain(spec.label, int(spec.param("stages"))),
    lambda rng: {"stages": rng.randrange(3, 11)},
))


def family_names() -> Tuple[str, ...]:
    """All registered corpus families, sorted by (methodology, name):
    ``full-custom`` sorts before ``standard-cell``, so the full-custom
    families come first."""
    return tuple(sorted(
        _FAMILIES,
        key=lambda name: (_FAMILIES[name].methodology, name),
    ))


def draw_corpus(count: int, base_seed: int = 0) -> List[CaseSpec]:
    """Draw ``count`` replayable cases, deterministically in ``base_seed``.

    Families are visited round-robin so every family appears once per
    ``len(family_names())`` cases; parameters and per-case seeds come
    from one ``random.Random(base_seed)`` stream.
    """
    if count < 1:
        raise VerificationError(f"corpus count must be >= 1, got {count}")
    rng = random.Random(base_seed)
    names = family_names()
    return [
        _FAMILIES[names[index % len(names)]].draw(rng)
        for index in range(count)
    ]
