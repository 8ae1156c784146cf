"""Tests for precision-targeted sweep execution.

Covers the acceptance surfaces of :mod:`repro.sweeps.adaptive` and the
precision-driven phase of :func:`repro.sweeps.run_spec`:

* the reproducibility contract — accumulated results are bit-identical to
  a one-shot ``run_sweep`` of the same total, and an interrupted run (batch
  limit, or a kill that tears a store line) resumed later lands on the
  identical batch sequence and estimates;
* merge invariance over arbitrary ``trial_offset`` batch splits
  (hypothesis property tests: reassembly, associativity, permutation);
* the stopping rule (targets resolution, spec validation, canonical-text
  backward compatibility) and the store's one trials-independent key, which
  uniform and precision-targeted runs share;
* the ``repro sweep`` CLI under a precision target.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.runner import TrialsResult
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.sweeps import (
    PrecisionTargets,
    ResultsStore,
    SweepSpec,
    adaptive_plan_table,
    estimate_point,
    point_key,
    report_rows,
    resolve_targets,
    result_from_record,
    run_spec,
    spec_keys,
    status_spec,
)

#: A tiny adaptive grid: 2 vectorizable points that converge in a few batches.
TINY_ADAPTIVE = SweepSpec(
    name="tiny-adaptive",
    description="two-point adaptive grid for tests",
    protocols=("committee-ba-las-vegas",),
    adversaries=("coin-attack",),
    inputs=("split",),
    n_values=(64,),
    t_specs=(4, 6),
    trials=4,
    seed_policy="by-t",
    base_seed=77,
    precision=0.2,
    batch_size=4,
    max_trials=64,
)


#: The same grid without a precision target: a uniform sweep of 4 trials.
TINY_UNIFORM = dataclasses.replace(
    TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
)


def trial_tuples(result: TrialsResult) -> list[tuple]:
    """Per-trial scalar rows, for exact (bit-identical) comparison."""
    return [dataclasses.astuple(summary) for summary in result.trials]


def stored(store: ResultsStore, key: str) -> TrialsResult:
    """The accumulated result a store holds under ``key``."""
    return result_from_record(store.get(key))


def one_shot(point, trials: int) -> TrialsResult:
    """A fresh, unsplit ``run_sweep`` of ``point`` at ``trials`` trials."""
    return run_sweep(
        experiment=point.experiment(),
        trials=trials,
        base_seed=point.base_seed,
        engine=TINY_ADAPTIVE.engine,
    )


class TestSpecAdaptiveFields:
    def test_adaptive_block_round_trips_through_canonical_json(self):
        rebuilt = SweepSpec.from_mapping(json.loads(TINY_ADAPTIVE.to_json()))
        assert rebuilt == TINY_ADAPTIVE
        assert rebuilt.precision == 0.2
        assert rebuilt.batch_size == 4
        assert rebuilt.max_trials == 64
        assert rebuilt.adaptive

    def test_non_adaptive_spec_canonical_text_is_unchanged(self):
        # Backward compatibility: specs without a precision target must
        # canonicalise exactly as before the adaptive fields existed, so
        # every pre-existing store key stays valid.
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
        )
        assert not spec.adaptive
        assert "adaptive" not in spec.canonical()
        assert '"adaptive":' not in spec.to_json()

    def test_precision_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                dataclasses.replace(TINY_ADAPTIVE, precision=bad)

    def test_batch_and_ceiling_require_a_precision_target(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, precision=None, max_trials=None)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, precision=None, batch_size=None)

    def test_ceiling_must_cover_the_initial_batch(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TINY_ADAPTIVE, max_trials=2)

    def test_canonical_base_drops_only_the_trial_count(self):
        point = TINY_ADAPTIVE.expand()[0]
        base = point.canonical_base()
        full = point.canonical()
        assert "trials" not in base
        assert {**base, "trials": point.trials} == full


class TestTargetsResolution:
    def test_spec_fields_are_the_default(self):
        targets = resolve_targets(TINY_ADAPTIVE)
        assert targets == PrecisionTargets(
            precision=0.2, batch_size=4, max_trials=64
        )

    def test_explicit_overrides_win(self):
        targets = resolve_targets(
            TINY_ADAPTIVE, precision=0.5, batch_size=2, max_trials=32
        )
        assert (targets.precision, targets.batch_size, targets.max_trials) == (
            0.5, 2, 32,
        )

    def test_defaults_derive_from_the_initial_trials(self):
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
        )
        targets = resolve_targets(spec, precision=0.25)
        assert targets.batch_size == spec.trials
        assert targets.max_trials == 64 * spec.trials

    def test_missing_precision_is_a_helpful_error(self):
        spec = dataclasses.replace(
            TINY_ADAPTIVE, precision=None, batch_size=None, max_trials=None
        )
        with pytest.raises(ConfigurationError, match="no precision target"):
            resolve_targets(spec)

    def test_ceiling_below_initial_trials_rejected(self):
        with pytest.raises(ConfigurationError, match="max_trials"):
            resolve_targets(TINY_ADAPTIVE, max_trials=2)

    def test_targets_validation(self):
        with pytest.raises(ConfigurationError):
            PrecisionTargets(precision=0.0, batch_size=1, max_trials=1)
        with pytest.raises(ConfigurationError):
            PrecisionTargets(precision=0.1, batch_size=0, max_trials=1)
        with pytest.raises(ConfigurationError):
            PrecisionTargets(precision=0.1, batch_size=1, max_trials=0)
        with pytest.raises(ConfigurationError):
            PrecisionTargets(precision=0.1, batch_size=1, max_trials=1, z=0)


class TestOneKey:
    def test_key_is_independent_of_the_trial_count(self):
        point = TINY_ADAPTIVE.expand()[0]
        grown = dataclasses.replace(point, trials=123)
        assert point_key(point, "vectorized") == point_key(grown, "vectorized")

    @pytest.mark.parametrize(
        "change",
        [
            {"protocol": "committee-ba"},
            {"adversary": "null"},
            {"inputs": "unanimous-1"},
            {"n": 65},
            {"t": 5},
            {"base_seed": 78},
            {"alpha": 2.0},
            {"max_rounds": 99},
            {"allow_timeout": True},
            {"topology": "ring"},
            {"loss": 0.01},
        ],
    )
    def test_key_separates_every_other_field(self, change):
        point = TINY_ADAPTIVE.expand()[0]
        other = dataclasses.replace(point, **change)
        assert point_key(point, "vectorized") != point_key(other, "vectorized")

    def test_key_separates_the_result_family(self):
        point = TINY_ADAPTIVE.expand()[0]
        assert point_key(point, "vectorized") != point_key(point, "object")

    def test_key_requires_a_result_family(self):
        point = TINY_ADAPTIVE.expand()[0]
        with pytest.raises(ConfigurationError):
            point_key(point, "vectorized-mp")

    def test_spec_expansion_pairs_points_with_keys(self):
        pairs = spec_keys(TINY_ADAPTIVE)
        assert [point.t for point, _ in pairs] == [4, 6]
        assert len({key for _, key in pairs}) == len(pairs)
        # Uniform and precision-targeted runs of one grid share every key.
        assert [key for _, key in spec_keys(TINY_UNIFORM)] == [
            key for _, key in pairs
        ]

    def test_uniform_run_after_an_adaptive_run_is_all_cached(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        adaptive = run_spec(TINY_ADAPTIVE, store=store)
        assert all(o.trials > TINY_UNIFORM.trials for o in adaptive.outcomes)
        uniform = run_spec(TINY_UNIFORM, store=store)
        assert (uniform.computed, uniform.cached, uniform.pending) == (0, 2, 0)
        assert uniform.computed_trials == 0
        assert (uniform.cache_hits, uniform.cache_misses) == (2, 0)
        for outcome in uniform.outcomes:
            served = stored(store, outcome.key).trials[: outcome.point.trials]
            fresh = one_shot(outcome.point, outcome.point.trials)
            assert [dataclasses.astuple(s) for s in served] == trial_tuples(fresh)

    def test_report_rows_serve_the_prefix_of_a_longer_record(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        run_spec(TINY_ADAPTIVE, store=store)
        rows = report_rows(TINY_UNIFORM, store=store)
        for row, (point, key) in zip(rows, spec_keys(TINY_UNIFORM)):
            fresh = one_shot(point, point.trials)
            longer = stored(store, key)
            assert longer.num_trials > point.trials
            assert row["trials"] == point.trials
            assert row["agreement_rate"] == fresh.agreement_rate
            assert row["mean_rounds"] == fresh.mean_rounds
            assert row["mean_messages"] == fresh.mean_messages
            assert row["validity_rate"] == fresh.validity_rate
            assert row["status"] == "converged"
        # The prefix is what makes the rows differ from the stored summary.
        assert any(
            row["mean_rounds"] != stored(store, key).mean_rounds
            for row, (_, key) in zip(rows, spec_keys(TINY_UNIFORM))
        )


class TestBitIdentity:
    def test_accumulated_result_equals_one_shot_run(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_spec(TINY_ADAPTIVE, store=store)
        assert report.converged == report.total == 2
        for outcome in report.outcomes:
            result = stored(store, outcome.key)
            assert result.num_trials == outcome.trials
            assert trial_tuples(result) == trial_tuples(
                one_shot(outcome.point, outcome.trials)
            )

    def test_store_record_reconstructs_the_accumulated_result(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_spec(TINY_ADAPTIVE, store=store)
        for outcome in report.outcomes:
            record = store.get(outcome.key)
            assert record["kind"] == "sweep-point"
            assert record["point"]["trials"] == outcome.trials
            assert record["targets"]["precision"] == 0.2
            assert record["targets"]["initial_trials"] == TINY_ADAPTIVE.trials
            rebuilt = result_from_record(record)
            assert trial_tuples(rebuilt) == trial_tuples(
                one_shot(outcome.point, outcome.trials)
            )
            # The record survives a fresh store open (JSONL is the truth).
            reopened = ResultsStore(tmp_path / "store")
            assert trial_tuples(stored(reopened, outcome.key)) == (
                trial_tuples(rebuilt)
            )

    def test_uniform_records_carry_no_targets_block(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_spec(TINY_UNIFORM, store=store)
        for outcome in report.outcomes:
            record = store.get(outcome.key)
            assert record["kind"] == "sweep-point"
            assert "targets" not in record

    def test_batch_trajectory_is_preserved_in_the_shards(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_spec(TINY_ADAPTIVE, store=store)
        # One shard line per executed batch: the append-only trajectory.
        assert store.appended_lines == report.computed_batches


class TestResume:
    def test_second_invocation_computes_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        first = run_spec(TINY_ADAPTIVE, store=store)
        second = run_spec(TINY_ADAPTIVE, store=store)
        assert second.computed_trials == 0
        assert second.computed_batches == 0
        assert "+0 computed" in second.summary_line()
        assert [o.trials for o in second.outcomes] == [
            o.trials for o in first.outcomes
        ]

    def test_interrupted_run_resumes_to_identical_estimates(self, tmp_path):
        full = ResultsStore(tmp_path / "full")
        uninterrupted = run_spec(TINY_ADAPTIVE, store=full)
        store = ResultsStore(tmp_path / "split")
        for batch_limit in (1, 2):
            partial = run_spec(TINY_ADAPTIVE, store=store, limit=batch_limit)
            assert partial.computed_batches <= batch_limit
        split = ResultsStore(tmp_path / "split")
        resumed = run_spec(TINY_ADAPTIVE, store=split)
        assert [o.trials for o in resumed.outcomes] == [
            o.trials for o in uninterrupted.outcomes
        ]
        for res, unint in zip(resumed.outcomes, uninterrupted.outcomes):
            assert trial_tuples(stored(split, res.key)) == trial_tuples(
                stored(full, unint.key)
            )

    def test_kill_mid_write_with_torn_line_recomputes_only_that_batch(
        self, tmp_path
    ):
        full = ResultsStore(tmp_path / "full")
        uninterrupted = run_spec(TINY_ADAPTIVE, store=full)
        # Interrupt after 3 batches, then emulate a kill mid-append: a torn
        # (truncated JSON) final line on one point's shard.
        store_root = tmp_path / "torn"
        partial_store = ResultsStore(store_root)
        partial = run_spec(TINY_ADAPTIVE, store=partial_store, limit=3)
        durable = {o.key: o.trials for o in partial.outcomes if o.trials}
        victim = partial.outcomes[0]
        victim_result = stored(partial_store, victim.key)
        shard = store_root / f"shard-{victim.key[:2]}.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "' + victim.key + '", "kind": "sweep-po')
        # The torn line is skipped on load: the in-flight batch was never
        # acknowledged, so the durable state is exactly the 3-batch prefix.
        reopened = ResultsStore(store_root)
        assert trial_tuples(stored(reopened, victim.key)) == (
            trial_tuples(victim_result)
        )
        resumed = run_spec(TINY_ADAPTIVE, store=reopened)
        # No recomputation beyond what was not yet durable...
        assert resumed.computed_trials == (
            uninterrupted.computed_trials - sum(durable.values())
        )
        # ... and the final estimates are bit-identical to the
        # uninterrupted run, also after the resumed appends are reopened.
        for res, unint in zip(resumed.outcomes, uninterrupted.outcomes):
            assert trial_tuples(stored(reopened, res.key)) == trial_tuples(
                stored(full, unint.key)
            )
            assert trial_tuples(stored(ResultsStore(store_root), res.key)) == (
                trial_tuples(stored(full, unint.key))
            )
        for res, unint in zip(resumed.outcomes, uninterrupted.outcomes):
            assert res.estimate.width == unint.estimate.width
            assert res.estimate.converged and unint.estimate.converged


class TestAllocationPolicy:
    def test_progress_reports_every_batch_in_allocation_order(self, tmp_path):
        outcomes = []
        report = run_spec(
            TINY_ADAPTIVE,
            store=ResultsStore(tmp_path / "store"),
            progress=lambda outcome, index, total: outcomes.append(outcome),
        )
        # On a fresh store every progress call reports one executed batch.
        assert len(outcomes) == report.computed_batches
        previous: dict[str, tuple[int, int]] = {}
        batch_trials = []
        for outcome in outcomes:
            trials, batches = previous.get(outcome.key, (0, 0))
            assert outcome.batches == batches + 1
            batch_trials.append(outcome.computed_trials - trials)
            previous[outcome.key] = (outcome.computed_trials, outcome.batches)
        assert all(0 < size <= TINY_ADAPTIVE.batch_size for size in batch_trials)
        assert sum(batch_trials) == report.computed_trials
        # Phase 1 seeds every point in grid order before any greedy batch.
        seed_keys = [outcome.key for outcome in outcomes[: report.total]]
        assert seed_keys == [outcome.key for outcome in report.outcomes]
        # The last batch of each point is the one that converged it.
        final = {outcome.key: outcome for outcome in outcomes}
        for outcome in report.outcomes:
            assert final[outcome.key].estimate.converged

    def test_ceiling_bounds_unconverged_points(self, tmp_path):
        # An unreachably tight target: every point must stop at the ceiling.
        report = run_spec(
            TINY_ADAPTIVE,
            store=ResultsStore(tmp_path / "store"),
            precision=0.001,
            max_trials=12,
        )
        assert report.converged == 0
        assert report.at_ceiling == report.total
        assert all(o.estimate.trials == 12 for o in report.outcomes)
        assert all(o.estimate.status == "ceiling" for o in report.outcomes)

    def test_estimates_of_an_empty_store_are_pending(self, tmp_path):
        report = status_spec(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "store")
        )
        assert all(o.estimate.status == "pending" for o in report.outcomes)
        assert all(math.isinf(o.estimate.width) for o in report.outcomes)
        assert report.total_trials == 0

    def test_estimate_point_measures_both_widths(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        report = run_spec(TINY_ADAPTIVE, store=store)
        targets = report.targets
        for outcome in report.outcomes:
            estimate = estimate_point(
                outcome.point, outcome.key, stored(store, outcome.key), targets
            )
            assert estimate == outcome.estimate
            assert estimate.width == max(
                estimate.agreement.width, estimate.rounds_rel_width
            )
            assert estimate.width <= targets.precision
            assert estimate.rounds_low <= estimate.rounds_mean <= estimate.rounds_high

    def test_plan_table_is_deterministic_and_complete(self):
        rows = adaptive_plan_table(TINY_ADAPTIVE)
        assert rows == adaptive_plan_table(TINY_ADAPTIVE)
        assert [row["t"] for row in rows] == [4, 6]
        for row in rows:
            assert row["initial"] == 4
            assert row["batch"] == 4
            assert row["ceiling"] == 64
            assert row["precision"] == 0.2
            assert len(row["key"]) == 12


# One fixed configuration for the merge-invariance property tests: small,
# vectorizable and fast (a few ms per run).
_MERGE_TOTAL = 8


def _merge_batches(sizes: list[int]) -> list[TrialsResult]:
    """Run ``sizes`` as consecutive trial_offset batches of one sweep."""
    parts = []
    offset = 0
    for size in sizes:
        parts.append(
            run_sweep(
                n=32, t=3, protocol="committee-ba-las-vegas",
                adversary="coin-attack", trials=size, base_seed=9090,
                engine="vectorized", trial_offset=offset,
            )
        )
        offset += size
    return parts


@st.composite
def partitions(draw):
    """An arbitrary ordered partition of ``_MERGE_TOTAL`` into >=1 parts."""
    sizes = []
    remaining = _MERGE_TOTAL
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(part)
        remaining -= part
    return sizes


class TestMergeInvariance:
    @pytest.fixture(scope="class")
    def one_shot(self):
        return run_sweep(
            n=32, t=3, protocol="committee-ba-las-vegas",
            adversary="coin-attack", trials=_MERGE_TOTAL, base_seed=9090,
            engine="vectorized",
        )

    @settings(max_examples=12, deadline=None)
    @given(sizes=partitions())
    def test_any_batch_split_reassembles_bit_identically(self, sizes, one_shot):
        merged = TrialsResult.merge(_merge_batches(sizes))
        assert trial_tuples(merged) == trial_tuples(one_shot)

    @settings(max_examples=12, deadline=None)
    @given(sizes=partitions())
    def test_merge_is_associative_over_any_grouping(self, sizes, one_shot):
        parts = _merge_batches(sizes)
        left = parts[0]
        for part in parts[1:]:
            left = TrialsResult.merge([left, part])
        right = parts[-1]
        for part in reversed(parts[:-1]):
            right = TrialsResult.merge([part, right])
        assert trial_tuples(left) == trial_tuples(right) == trial_tuples(one_shot)

    @settings(max_examples=12, deadline=None)
    @given(
        sizes=partitions(),
        order_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_merge_order_never_changes_the_aggregates(self, sizes, order_seed, one_shot):
        import random

        parts = _merge_batches(sizes)
        shuffled = parts[:]
        random.Random(order_seed).shuffle(shuffled)
        merged = TrialsResult.merge(shuffled)
        # Out-of-order merging permutes the trial list but can never change
        # the multiset of trials nor any permutation-invariant aggregate.
        assert sorted(trial_tuples(merged)) == sorted(trial_tuples(one_shot))
        assert merged.summary() == one_shot.summary()


class TestAdaptiveCli:
    def test_run_then_rerun_computes_zero(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny-adaptive.json"
        spec_path.write_text(TINY_ADAPTIVE.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--store", store]) == 0
        first = capsys.readouterr().out
        assert "adaptive sweep tiny-adaptive" in first
        assert "2 converged" in first
        assert main(["sweep", "run", str(spec_path), "--store", store,
                     "--quiet"]) == 0
        assert "(+0 computed)" in capsys.readouterr().out

    def test_precision_flag_turns_a_uniform_spec_adaptive(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store,
                     "--precision", "0.4", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "adaptive sweep smoke" in out
        assert "precision 0.4" in out

    def test_status_and_report_show_precision_columns(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny-adaptive.json"
        spec_path.write_text(TINY_ADAPTIVE.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "status", str(spec_path), "--store", store]) == 0
        assert "pending" in capsys.readouterr().out
        assert main(["sweep", "run", str(spec_path), "--store", store,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", str(spec_path), "--store", store]) == 0
        status_out = capsys.readouterr().out
        assert "converged" in status_out and "width" in status_out
        assert main(["sweep", "report", str(spec_path), "--store", store]) == 0
        report_out = capsys.readouterr().out
        assert "ci_width" in report_out and "status" in report_out
        assert "not in the store" not in report_out

    def test_library_spec_is_adaptive_and_fewer_than_worst_case_uniform(
        self, tmp_path
    ):
        # The library's crossover-adaptive entry must carry a precision
        # target and beat the uniform worst-case sizing; the
        # benchmark asserts the actual savings floor.
        from repro.sweeps import get_spec

        spec = get_spec("crossover-adaptive")
        assert spec.adaptive
        targets = resolve_targets(spec)
        assert targets.precision == 0.05
        assert targets.max_trials == 512
        rows = adaptive_plan_table(spec)
        assert len(rows) == 10

    def test_report_rows_mark_uncomputed_points(self, tmp_path):
        rows = report_rows(
            TINY_ADAPTIVE, store=ResultsStore(tmp_path / "store")
        )
        assert all(row["status"] == "pending" for row in rows)
        assert all(row["trials"] is None for row in rows)
