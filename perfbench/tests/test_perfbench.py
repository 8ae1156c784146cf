"""Tests of the benchmark's own code: the layer ledger and the correctness checks.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import time

import pytest
import workloads
from ledger import LABELS, Ledger, ledger_metrics

import repro.engine
import repro.sweeps.executor
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import STORE_SCHEMA_VERSION, ResultsStore

SMALL_CONFIGS = [
    dict(n=64, t=8, protocol="committee-ba-las-vegas", adversary="coin-attack", trials=6),
    dict(n=48, t=6, protocol="committee-ba-las-vegas", adversary="null", trials=4,
         topology="erdos-renyi", allow_timeout=True),
    dict(n=32, t=4, protocol="committee-ba-las-vegas", adversary="null", trials=8, loss=0.05),
    dict(n=19, t=3, protocol="committee-ba", adversary="equivocate", trials=3),
]


def _namespaces():
    """Every attribute of every loaded repro module and class, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for member, member_value in list(vars(value).items()):
                    snapshot[(name, attr, member)] = member_value
    return snapshot


def test_install_and_uninstall_restore_every_attribute():
    ledger = Ledger()
    ledger.install()
    try:
        before_uninstall = _namespaces()
    finally:
        ledger.uninstall()
    after = _namespaces()
    patched = [key for key, value in before_uninstall.items() if after.get(key) is not value]
    assert len(patched) > 30  # functions rebound in several modules plus methods
    with Ledger():
        pass
    assert all(after[key] is value for key, value in _namespaces().items())
    assert not any(hasattr(value, "__ledger_original__") for value in after.values())


@pytest.mark.parametrize("config", SMALL_CONFIGS, ids=lambda c: c.get("topology", c["adversary"]))
def test_wrappers_leave_per_trial_results_bit_identical(config):
    plain = repro.engine.run_sweep(base_seed=5, **config)
    with Ledger() as ledger:
        traced = repro.engine.run_sweep(base_seed=5, **config)
    assert traced.trials == plain.trials
    assert ledger.calls["engine.run_sweep"] == 1
    assert ledger.calls["phase_engine.run_batch"] == 1
    assert ledger.self_ns["planes.ops"] > 0


def test_ledger_closes_and_counts_layer_work(tmp_path):
    spec = SweepSpec(
        name="tiny", protocols=("committee-ba",), adversaries=("coin-attack", "null"),
        n_values=(19,), t_specs=(3,), trials=2,
    )
    with Ledger() as ledger:
        started = time.perf_counter_ns()
        repro.engine.run_sweep(base_seed=5, **SMALL_CONFIGS[2])
        repro.sweeps.executor.run_spec(spec, store=ResultsStore(tmp_path))
        repro.sweeps.executor.run_spec(spec, store=ResultsStore(tmp_path))
        wall = time.perf_counter_ns() - started
    metrics, within = ledger_metrics(ledger, wall)
    assert set(LABELS) == set(ledger.self_ns)
    assert metrics["store.put.calls"] == 2
    assert metrics["store.hit_frac"] == 0.5  # cold pass misses, warm pass hits
    assert metrics["topology.loss.sample.calls"] > 0
    assert metrics["topology.loss.sample.draws"] % (32 * 32) == 0
    assert 0 < metrics["phase_engine.live_row_frac"] <= 1
    assert metrics["traced.unattributed_share"] >= 0
    assert within
    with pytest.raises(RuntimeError, match="does not close"):
        ledger_metrics(ledger, ledger.covered_ns - 1)


def _engine_reference(result, workload="lossy", index=0):
    entry = {
        "calls": [list(workloads.aggregates(result))] * (index + 1),
        "band": {
            "mean": list(workloads.aggregates(result)),
            "std": [0.0, 0.05, 1000.0],
        },
    }
    return {"store_schema": STORE_SCHEMA_VERSION, "workloads": {workload: entry}}


@pytest.fixture(scope="module")
def lossy_call():
    return workloads.run_engine_call("lossy", 0)


def test_checker_accepts_the_reference_aggregates(lossy_call):
    checker = workloads.Checker(_engine_reference(lossy_call))
    assert checker.exact
    assert checker.engine_call("lossy", 0, lossy_call) == []


def test_checker_flags_a_wrong_aggregate(lossy_call):
    reference = _engine_reference(lossy_call)
    tampered = copy.deepcopy(reference)
    tampered["workloads"]["lossy"]["calls"][0][1] += 1e-12  # mean phases, last digits
    problems = workloads.Checker(tampered).engine_call("lossy", 0, lossy_call)
    assert any("aggregates" in p for p in problems)

    banded = copy.deepcopy(reference)
    banded["store_schema"] = STORE_SCHEMA_VERSION + 1  # as after a stream bump
    checker = workloads.Checker(banded)
    assert not checker.exact
    assert checker.engine_call("lossy", 0, lossy_call) == []
    banded["workloads"]["lossy"]["band"]["mean"][1] += 1.0  # 20 sigma away
    assert any("mean_phases" in p for p in checker.engine_call("lossy", 0, lossy_call))


def test_checker_flags_a_broken_guarantee(lossy_call):
    first = lossy_call.trials[0]
    disagreeing = dataclasses.replace(
        lossy_call, trials=[dataclasses.replace(first, agreement=False), *lossy_call.trials[1:]]
    )
    reference = _engine_reference(lossy_call, workload="clique-straddle")
    problems = workloads.Checker(reference).engine_call("clique-straddle", 0, disagreeing)
    assert any("agreement" in p for p in problems)

    stalled_early = dataclasses.replace(
        lossy_call, trials=[dataclasses.replace(first, timed_out=True), *lossy_call.trials[1:]]
    )
    problems = workloads.Checker(_engine_reference(lossy_call)).engine_call(
        "lossy", 0, stalled_early
    )
    assert any("timed out before" in p for p in problems)


def test_sweep_checker_flags_one_wrong_point(tmp_path):
    spec = workloads.sweep_spec(0)
    store = ResultsStore(tmp_path)
    results = workloads.read_pass(store, repro.sweeps.executor.run_spec(spec, store=store).outcomes)
    digests = [workloads.digest(workloads.aggregates(result)) for _, result in results]
    digests[7] = "00000000"
    reference = {
        "store_schema": STORE_SCHEMA_VERSION,
        "workloads": {workloads.SWEEP_WORKLOAD: {"digests": [digests], "band": {}}},
    }
    problems = workloads.Checker(reference).sweep_pass(0, results)
    assert [bool(p) for p in problems] == [i == 7 for i in range(len(results))]


def test_pool_indices_do_not_repeat_within_a_run():
    for seed in range(10):
        indices = [workloads.pool_index(seed, call) for call in range(workloads.POOL)]
        assert sorted(indices) == list(range(workloads.POOL))
