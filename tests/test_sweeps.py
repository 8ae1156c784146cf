"""Tests for the sweep orchestration subsystem (:mod:`repro.sweeps`).

Covers the four acceptance surfaces: spec round-trip and content-hash
stability across dict ordering, store resume semantics (interrupt mid-sweep,
re-run, only pending points execute) and concurrent writers, shard-merge exactness of
``workers > 1`` trial-range sharding, and the ``repro sweep`` CLI subcommands.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.runner import AgreementExperiment, TrialsResult
from repro.engine import run_sweep
from repro.exceptions import ConfigurationError
from repro.sweeps import (
    SWEEP_LIBRARY,
    ResultsStore,
    SweepPoint,
    SweepSpec,
    canonical_json,
    get_spec,
    markdown_library_table,
    point_key,
    resolve_t,
    result_from_record,
    run_spec,
    spec_from_file,
    spec_keys,
    status_spec,
    sweep_record,
)
from repro.sweeps.executor import report_rows

#: A tiny all-vectorizable grid used throughout: 4 points, 2 trials each.
TINY = SweepSpec(
    name="tiny",
    protocols=("committee-ba", "phase-king"),
    adversaries=("null", "static"),
    n_values=(17,),
    t_specs=("quarter",),
    trials=2,
    seed_policy="by-point",
    base_seed=40,
)


class TestSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        points = TINY.expand()
        assert [(p.protocol, p.adversary) for p in points] == [
            ("committee-ba", "null"), ("committee-ba", "static"),
            ("phase-king", "null"), ("phase-king", "static"),
        ]
        assert [p.base_seed for p in points] == [40, 41, 42, 43]
        assert points == TINY.expand()

    def test_t_spec_resolution(self):
        assert resolve_t("third", 19) == 6
        assert resolve_t("quarter", 17) == 4
        assert resolve_t("tenth", 64) == 6
        assert resolve_t(5, 999) == 5
        with pytest.raises(ConfigurationError):
            resolve_t("half", 10)

    def test_seed_policies(self):
        by_t = SweepSpec(
            name="by-t", protocols=("committee-ba",), adversaries=("null",),
            n_values=(19,), t_specs=(2, 4), seed_policy="by-t", base_seed=1000,
        )
        assert [p.base_seed for p in by_t.expand()] == [1002, 1004]
        fixed = SweepSpec(
            name="fixed", protocols=("committee-ba",), adversaries=("null",),
            n_values=(19,), t_specs=(2, 4), seed_policy="fixed", base_seed=7,
        )
        assert [p.base_seed for p in fixed.expand()] == [7, 7]

    def test_round_trip_through_canonical_json(self):
        rebuilt = SweepSpec.from_mapping(json.loads(TINY.to_json()))
        assert rebuilt == TINY
        assert rebuilt.to_json() == TINY.to_json()

    def test_library_specs_round_trip_and_expand(self):
        for name, spec in SWEEP_LIBRARY.items():
            assert spec.name == name
            assert SweepSpec.from_mapping(json.loads(spec.to_json())) == spec
            assert len(spec.expand()) >= 4

    def test_validation_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("warp",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("nope",),
                      n_values=(16,), t_specs=(3,))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), inputs=("zebra",))
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), seed_policy="lottery")
        with pytest.raises(ConfigurationError):
            SweepSpec(name="x", protocols=("committee-ba",), adversaries=("null",),
                      n_values=(16,), t_specs=(3,), engine="warp")

    def test_from_mapping_rejects_unknown_fields_and_axes(self):
        good = json.loads(TINY.to_json())
        bad = dict(good, typo=1)
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping(bad)
        bad_axes = dict(good, axes=dict(good["axes"], zeta=[1]))
        with pytest.raises(ConfigurationError):
            SweepSpec.from_mapping(bad_axes)

    def test_point_validates_against_registries(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(protocol="warp", adversary="null", inputs="split",
                       n=16, t=3, trials=2, base_seed=0)
        with pytest.raises(ConfigurationError):
            SweepPoint(protocol="committee-ba", adversary="null", inputs="split",
                       n=16, t=8, trials=2, base_seed=0)  # t >= n/3

    def test_fast_path_only_filters_object_pairs(self):
        spec = SweepSpec(
            name="fast", protocols=("eig",),
            # equivocate is the one remaining object-only pair (staggered
            # corruption vs the fixed honest set of the tree recurrence).
            adversaries=("static", "equivocate"),
            n_values=(10,), t_specs=(2,), fast_path_only=True,
        )
        points = spec.expand()
        assert [p.adversary for p in points] == ["static"]

    def test_fast_path_only_keeps_the_newly_vectorized_pairs(self):
        spec = SweepSpec(
            name="fast", protocols=("phase-king",),
            adversaries=("coin-attack", "committee-targeting", "random-noise"),
            n_values=(17,), t_specs=("quarter",), fast_path_only=True,
        )
        points = spec.expand()
        assert [p.adversary for p in points] == [
            "coin-attack", "committee-targeting", "random-noise"
        ]

    def test_spec_file_loading_json_and_toml(self, tmp_path):
        json_path = tmp_path / "spec.json"
        json_path.write_text(TINY.to_json(), encoding="utf-8")
        assert spec_from_file(json_path) == TINY

        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'name = "tiny-toml"\n'
            'trials = 2\n'
            "[axes]\n"
            'protocol = ["committee-ba"]\n'
            'adversary = ["null"]\n'
            'n = [17]\n'
            't = ["quarter"]\n'
            "[seed]\n"
            'policy = "by-point"\n'
            "base = 40\n",
            encoding="utf-8",
        )
        try:
            import tomllib  # noqa: F401
        except ModuleNotFoundError:
            with pytest.raises(ConfigurationError, match="tomllib"):
                spec_from_file(toml_path)
        else:
            spec = spec_from_file(toml_path)
            assert spec.name == "tiny-toml"
            assert spec.expand()[0].t == 4

        with pytest.raises(ConfigurationError):
            spec_from_file(tmp_path / "missing.json")
        (tmp_path / "spec.yaml").write_text("x", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            spec_from_file(tmp_path / "spec.yaml")


class TestContentKeys:
    def test_hash_is_stable_across_dict_ordering(self):
        point = TINY.expand()[0]
        shuffled = dict(reversed(list(point.canonical().items())))
        rebuilt = SweepPoint.from_mapping(shuffled)
        assert rebuilt == point
        assert rebuilt.canonical_text() == point.canonical_text()
        assert point_key(rebuilt, "vectorized") == point_key(point, "vectorized")

    def test_key_separates_configurations_and_families(self):
        first, second = TINY.expand()[:2]
        assert point_key(first, "vectorized") != point_key(second, "vectorized")
        assert point_key(first, "vectorized") != point_key(first, "object")
        with pytest.raises(ConfigurationError):
            point_key(first, "auto")  # keys are per result family

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestStore:
    def test_put_get_and_reload(self, tmp_path):
        point = TINY.expand()[0]
        result = run_sweep(experiment=point.experiment(), trials=point.trials,
                           base_seed=point.base_seed)
        store = ResultsStore(tmp_path / "store")
        key = point_key(point, result.engine)
        store.put(key, sweep_record(point, result, result.engine))
        assert key in store and len(store) == 1

        reloaded = ResultsStore(tmp_path / "store")
        assert key in reloaded
        cached = result_from_record(reloaded.get(key))
        assert cached.trials == result.trials
        assert cached.experiment == point.experiment()
        assert cached.summary() == result.summary()

    def test_append_only_trajectory_latest_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.put("k1", {"kind": "experiment", "rows": [1]})
        store.put("k1", {"kind": "experiment", "rows": [1, 2]})
        assert len(store) == 1
        assert store.appended_lines == 2
        assert store.get("k1")["rows"] == [1, 2]
        reloaded = ResultsStore(tmp_path / "store")
        assert reloaded.get("k1")["rows"] == [1, 2]
        assert reloaded.appended_lines == 2

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.put("aa11", {"kind": "experiment", "rows": []})
        shard = next((tmp_path / "store").glob("shard-*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "bb22", "kind": "sweep-po')  # kill mid-write
        reloaded = ResultsStore(tmp_path / "store")
        assert "aa11" in reloaded and "bb22" not in reloaded
        # The next append to the torn shard must survive another reopen
        # rather than be glued onto the unterminated line.
        reloaded.put("aa33", {"kind": "experiment", "rows": [3]})
        assert "aa33" in reloaded
        reopened = ResultsStore(tmp_path / "store")
        assert "aa11" in reopened and "aa33" in reopened
        assert "bb22" not in reopened
        assert reopened.get("aa33")["rows"] == [3]

    def test_run_leaves_only_shards_and_ignores_a_leftover_index(self, tmp_path):
        # The shards are the whole store: a run writes nothing beside them.
        root = tmp_path / "store"
        run_spec(TINY, store=ResultsStore(root))
        shards = sorted(path.name for path in root.glob("shard-*.jsonl"))
        assert shards and sorted(path.name for path in root.iterdir()) == shards
        served = {key: ResultsStore(root).get(key) for _, key in spec_keys(TINY)}
        # An index.json left by an older version is neither read nor
        # rewritten, even when it contradicts the shards.
        leftover = root / "index.json"
        leftover.write_text(
            json.dumps({"schema": 1, "records": {"cc33": {"shard": "shard-cc.jsonl"}}})
        )
        before = (leftover.read_bytes(), leftover.stat().st_mtime_ns)
        store = ResultsStore(root)
        assert "cc33" not in store and len(store) == len(served)
        rerun = run_spec(TINY, store=store)
        assert (rerun.computed, rerun.cached) == (0, 4)
        assert {key: store.get(key) for key in served} == served
        assert (leftover.read_bytes(), leftover.stat().st_mtime_ns) == before
        assert sorted(path.name for path in root.iterdir()) == sorted(
            shards + ["index.json"]
        )

    def test_concurrent_writers_share_one_store(self, tmp_path):
        # Four `repro sweep run` processes race on one store.  Each only
        # appends whole lines to the shards (there is no index rewrite to
        # race on), so none crashes, no temp file is left behind, and the
        # reopened store serves every point.  (Writers may compute the same
        # point twice; both lines carry identical results.)
        root = tmp_path / "store"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        command = [sys.executable, "-m", "repro", "sweep", "run", "e6-quick",
                   "--store", str(root)]
        writers = [
            subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for _ in range(4)
        ]
        for writer in writers:
            _, stderr = writer.communicate(timeout=300)
            assert writer.returncode == 0, stderr
        reopened = ResultsStore(root)
        pairs = spec_keys(get_spec("e6-quick"))
        assert len(pairs) == 48
        for point, key in pairs:
            assert result_from_record(reopened.get(key)).experiment == point.experiment()
        assert not list(root.glob("*.tmp"))


class TestExecutorResume:
    def test_run_caches_and_second_run_is_all_cached(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        first = run_spec(TINY, store=store)
        assert (first.computed, first.cached) == (4, 0)
        second = run_spec(TINY, store=store)
        assert (second.computed, second.cached) == (0, 4)
        assert [o.key for o in first.outcomes] == [o.key for o in second.outcomes]

    def test_interrupt_mid_sweep_then_resume_runs_only_pending(self, tmp_path):
        store = ResultsStore(tmp_path / "store")

        def bomb(outcome, index, total):
            if index == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_spec(TINY, store=store, progress=bomb)
        # Both points seen before the interrupt are durable...
        assert len(store) == 2
        # ...and a fresh process (fresh store instance) resumes exactly there.
        resumed = run_spec(TINY, store=ResultsStore(tmp_path / "store"))
        assert (resumed.computed, resumed.cached) == (2, 2)
        statuses = [outcome.status for outcome in resumed.outcomes]
        assert statuses == ["cached", "cached", "computed", "computed"]

    def test_limit_leaves_pending_points_for_later(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        partial = run_spec(TINY, store=store, limit=3)
        assert (partial.computed, partial.pending) == (3, 1)
        rest = run_spec(TINY, store=store)
        assert (rest.computed, rest.cached) == (1, 3)

    def test_cached_results_equal_fresh_results(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        run_spec(TINY, store=store)
        for point, key in spec_keys(TINY):
            fresh = run_sweep(experiment=point.experiment(), trials=point.trials,
                              base_seed=point.base_seed)
            assert result_from_record(store.get(key)).trials == fresh.trials

    def test_longer_run_tops_up_only_the_missing_trials(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        short = dataclasses.replace(TINY, trials=1)
        run_spec(short, store=store)
        report = run_spec(TINY, store=store)
        assert (report.computed, report.cached) == (4, 0)
        assert (report.cache_hits, report.cache_misses) == (0, 4)
        assert [o.computed_trials for o in report.outcomes] == [
            TINY.trials - short.trials
        ] * 4
        assert report.computed_trials == 4 * (TINY.trials - short.trials)
        for point, key in spec_keys(TINY):
            fresh = run_sweep(experiment=point.experiment(), trials=point.trials,
                              base_seed=point.base_seed)
            assert result_from_record(store.get(key)).trials == fresh.trials

    def test_status_and_report_rows(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        run_spec(TINY, store=store, limit=2)
        status = status_spec(TINY, store=store)
        assert (status.cached, status.pending) == (2, 2)
        rows = report_rows(TINY, store=store)
        assert len(rows) == 4
        assert sum(row["engine"] is not None for row in rows) == 2
        assert all(row["protocol"] for row in rows)


class TestShardMerge:
    def test_merge_is_exact_concatenation(self):
        experiment = AgreementExperiment(n=19, t=3, protocol="committee-ba",
                                         adversary="null", inputs="split")
        whole = run_sweep(experiment=experiment, trials=6, base_seed=3)
        # Split as the sharded executor would: contiguous offsets.
        parts = [
            TrialsResult(experiment=experiment, trials=whole.trials[:4]),
            TrialsResult(experiment=experiment, trials=whole.trials[4:]),
        ]
        merged = TrialsResult(experiment, parts[0].trials + parts[1].trials)
        assert merged.trials == whole.trials
        assert merged.summary() == whole.summary()

    @pytest.mark.parametrize(
        "protocol,adversary,n,t",
        [
            ("committee-ba-las-vegas", "coin-attack", 48, 10),
            ("phase-king", "static", 17, 4),
            ("rabin", "coin-attack", 25, 6),
            ("eig", "static", 13, 2),
        ],
    )
    def test_sharded_vectorized_bit_identical_to_single_process(
        self, protocol, adversary, n, t
    ):
        kwargs = dict(protocol=protocol, adversary=adversary, inputs="split",
                      trials=7, base_seed=5, engine="vectorized")
        single = run_sweep(n, t, **kwargs)
        sharded = run_sweep(n, t, workers=3, **kwargs)
        assert sharded.engine == "vectorized"
        assert sharded.trials == single.trials
        assert sharded.summary() == single.summary()

    def test_trial_offset_sub_batches_concatenate_bit_identically(self):
        from repro.simulator.vectorized import run_vectorized_trials

        kwargs = dict(protocol="committee-ba-las-vegas", adversary="straddle",
                      inputs="split", seed=13)
        whole = run_vectorized_trials(48, 10, trials=8, **kwargs)
        head = run_vectorized_trials(48, 10, trials=5, trial_offset=0, **kwargs)
        tail = run_vectorized_trials(48, 10, trials=3, trial_offset=5, **kwargs)
        assert head + tail == whole

    def test_auto_with_workers_reports_the_family(self):
        result = run_sweep(19, 3, protocol="committee-ba", adversary="null",
                           trials=4, base_seed=1, engine="auto", workers=2)
        assert result.engine == "vectorized"
        serial = run_sweep(19, 3, protocol="committee-ba", adversary="null",
                           trials=4, base_seed=1, engine="auto")
        assert serial.engine == "vectorized"
        assert serial.trials == result.trials


class TestSweepCli:
    def test_run_then_rerun_is_full_cache_hit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "4 computed, 0 cached" in first
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "0 computed, 4 cached" in second

    def test_limit_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "run", "smoke", "--store", store, "--limit", "2"]) == 0
        assert "2 computed, 0 cached, 2 pending" in capsys.readouterr().out
        assert main(["sweep", "run", "smoke", "--store", store]) == 0
        assert "2 computed, 2 cached, 0 pending" in capsys.readouterr().out

    def test_status_and_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "status", "smoke", "--store", store]) == 0
        assert "4 pending" in capsys.readouterr().out
        assert main(["sweep", "run", "smoke", "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "report", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "agreement_rate" in out and "committee-ba" in out
        assert "not in the store" not in out

    def test_expand_table_and_json(self, capsys):
        assert main(["sweep", "expand", "smoke"]) == 0
        table = capsys.readouterr().out
        assert "base_seed" in table and "phase-king" in table
        assert main(["sweep", "expand", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert SweepSpec.from_mapping(payload) == get_spec("smoke")

    def test_run_accepts_a_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(TINY.to_json(), encoding="utf-8")
        store = str(tmp_path / "store")
        assert main(["sweep", "run", str(spec_path), "--store", store]) == 0
        assert "sweep tiny: 4 points, 4 computed" in capsys.readouterr().out

    def test_unknown_spec_reference_fails_cleanly(self, capsys):
        assert main(["sweep", "run", "no-such-spec"]) == 2
        assert "unknown sweep spec" in capsys.readouterr().err

    def test_library_listing_and_markdown_block(self, capsys):
        assert main(["sweep", "library"]) == 0
        out = capsys.readouterr().out
        for name in SWEEP_LIBRARY:
            assert name in out
        assert main(["sweep", "library", "--markdown"]) == 0
        assert markdown_library_table() in capsys.readouterr().out
