"""Mutation-equivalence: the incremental engine vs from-scratch rebuild.

The tentpole guarantee of :mod:`repro.incremental` is *bit-identity*:
after any sequence of ECO edits, the engine's maintained statistics
must equal a from-scratch :func:`~repro.netlist.stats.scan_module` of
the edited netlist field for field, and its estimate must equal a
direct :func:`~repro.core.standard_cell.estimate_standard_cell_from_stats`
of that rescan — not approximately, but to the last float bit, at
*every* step of the sequence.

Hypothesis drives random edit sequences against modules drawn from the
verification corpus (:mod:`repro.verify.corpus`), so every generator
family — standard-cell and transistor-level alike — is exercised.  On
the ``thorough`` profile (``HYPOTHESIS_PROFILE=thorough``) the main
property runs 300 independent edit sequences.

Replaying a failure: Hypothesis prints the falsifying
``(spec_index, edit_seed, steps)`` triple; ``CORPUS[spec_index]`` is
deterministic in the module, and ``random_mutation`` with
``random.Random(edit_seed)`` replays the identical edits.  See
docs/TESTING.md ("Mutation equivalence").
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.incremental import (
    IncrementalEstimator,
    apply_mutations,
    generate_edit_sequence,
    mutations_from_jsonable,
    mutations_to_jsonable,
    random_mutation,
)
from repro.netlist.stats import scan_module
from repro.verify.corpus import draw_corpus, family_names

#: A fixed, replayable corpus slice: every family appears four times.
CORPUS = draw_corpus(len(family_names()) * 4, base_seed=2026)

_fields = dataclasses.astuple


def _process_for(spec, cmos, nmos):
    return cmos if spec.methodology == "standard-cell" else nmos


def _fresh_scan(module, process, config):
    return scan_module(
        module,
        device_width=process.device_width,
        device_height=process.device_height,
        port_width=config.port_pitch_override or process.port_pitch,
        power_nets=config.power_nets,
    )


spec_indices = st.integers(min_value=0, max_value=len(CORPUS) - 1)
edit_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestBitIdentity:
    """The core property, per ISSUE acceptance: bit-identical at every
    step of a random edit sequence."""

    @given(spec_index=spec_indices, edit_seed=edit_seeds,
           steps=st.integers(min_value=1, max_value=20))
    def test_engine_matches_rebuild_at_every_step(
        self, cmos, nmos, spec_index, edit_seed, steps
    ):
        spec = CORPUS[spec_index]
        config = EstimatorConfig()
        process = _process_for(spec, cmos, nmos)
        engine = IncrementalEstimator(spec.build(), process, config)
        rng = random.Random(edit_seed)
        for step in range(steps):
            mutation = random_mutation(
                engine.module, rng, config.power_nets
            )
            engine.apply(mutation)
            fresh = engine.rescan()
            assert engine.statistics() == fresh, (
                f"{spec.label}: statistics diverged at step {step} "
                f"after {mutation.kind}"
            )
            incremental = engine.estimate()
            direct = estimate_standard_cell_from_stats(
                fresh, process, config
            )
            assert _fields(incremental) == _fields(direct), (
                f"{spec.label}: estimate diverged at step {step} "
                f"after {mutation.kind}"
            )

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_version_stamps_every_snapshot(
        self, cmos, nmos, spec_index, edit_seed
    ):
        spec = CORPUS[spec_index]
        config = EstimatorConfig()
        engine = IncrementalEstimator(
            spec.build(), _process_for(spec, cmos, nmos), config
        )
        rng = random.Random(edit_seed)
        assert engine.stats_version == 0
        for expected in range(1, 6):
            version = engine.apply(
                random_mutation(engine.module, rng, config.power_nets)
            )
            assert version == expected
            assert engine.stats_version == expected

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_batch_apply_equals_stepwise(
        self, cmos, nmos, spec_index, edit_seed
    ):
        """One apply([...]) call and N apply(single) calls land on the
        same statistics and the same revision."""
        spec = CORPUS[spec_index]
        config = EstimatorConfig()
        process = _process_for(spec, cmos, nmos)
        module = spec.build()
        edits = generate_edit_sequence(
            module, 8, seed=edit_seed, power_nets=config.power_nets
        )
        batch = IncrementalEstimator(module, process, config)
        batch.apply(edits)
        stepwise = IncrementalEstimator(module, process, config)
        for edit in edits:
            stepwise.apply(edit)
        assert batch.stats_version == stepwise.stats_version == len(edits)
        assert batch.statistics() == stepwise.statistics()
        assert _fields(batch.estimate()) == _fields(stepwise.estimate())


class TestAgainstRawModule:
    """The engine's tracked module is the real netlist: edits applied
    through the engine equal edits applied to a raw module copy."""

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_tracked_module_equals_raw_application(
        self, cmos, nmos, spec_index, edit_seed
    ):
        spec = CORPUS[spec_index]
        config = EstimatorConfig()
        process = _process_for(spec, cmos, nmos)
        module = spec.build()
        edits = generate_edit_sequence(
            module, 10, seed=edit_seed, power_nets=config.power_nets
        )
        engine = IncrementalEstimator(module, process, config)
        engine.apply(edits)
        raw = apply_mutations(module.copy(), edits)
        assert _fresh_scan(raw, process, config) == _fresh_scan(
            engine.module, process, config
        )

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_estimate_after_is_apply_then_estimate(
        self, cmos, nmos, spec_index, edit_seed
    ):
        spec = CORPUS[spec_index]
        config = EstimatorConfig()
        process = _process_for(spec, cmos, nmos)
        module = spec.build()
        edits = generate_edit_sequence(
            module, 5, seed=edit_seed, power_nets=config.power_nets
        )
        one_call = IncrementalEstimator(module, process, config)
        combined = one_call.estimate_after(edits)
        two_calls = IncrementalEstimator(module, process, config)
        two_calls.apply(edits)
        assert _fields(combined) == _fields(two_calls.estimate())


class TestEditSequences:
    """Generator determinism and JSON round-trips — what makes a
    failing sequence replayable."""

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_generation_is_deterministic_in_seed(
        self, spec_index, edit_seed
    ):
        module = CORPUS[spec_index].build()
        first = generate_edit_sequence(module, 12, seed=edit_seed)
        second = generate_edit_sequence(module, 12, seed=edit_seed)
        assert first == second

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_sequences_round_trip_through_json(
        self, spec_index, edit_seed
    ):
        module = CORPUS[spec_index].build()
        edits = generate_edit_sequence(module, 12, seed=edit_seed)
        document = mutations_to_jsonable(edits)
        assert mutations_from_jsonable(document) == edits

    @given(spec_index=spec_indices, edit_seed=edit_seeds)
    @settings(max_examples=25)
    def test_generator_never_empties_the_module(
        self, spec_index, edit_seed
    ):
        module = CORPUS[spec_index].build()
        edits = generate_edit_sequence(module, 15, seed=edit_seed)
        edited = apply_mutations(module.copy(), edits)
        assert edited.device_count >= min(module.device_count, 2)


def test_corpus_covers_every_family():
    """The fixed slice really does touch all registered families."""
    assert {spec.family for spec in CORPUS} == set(family_names())


@pytest.mark.parametrize("methodology", ["standard-cell", "full-custom"])
def test_both_methodologies_present(methodology):
    assert any(spec.methodology == methodology for spec in CORPUS)
