"""Sweep orchestration subsystem.

The layer above :func:`repro.engine.run_sweep`: declarative scenario grids
(:mod:`repro.sweeps.spec`), a persistent content-addressed results store
with caching and resume (:mod:`repro.sweeps.store`), one resumable,
batch-wise executor with trial-range sharding (:mod:`repro.sweeps.executor`),
the precision stopping rule it consults when a spec sets a target
(:mod:`repro.sweeps.adaptive`) and a named scenario library
(:mod:`repro.sweeps.library`).  The ``repro sweep`` CLI subcommands are thin
wrappers over these modules; see ``docs/sweeps.md`` for the spec format and
the caching/resume contract.
"""

from repro.sweeps.adaptive import (
    PointEstimate,
    PrecisionTargets,
    adaptive_plan_table,
    estimate_point,
    markdown_adaptive_plan,
    resolve_targets,
)
from repro.sweeps.executor import (
    PointOutcome,
    SweepRunReport,
    report_rows,
    run_spec,
    spec_keys,
    status_spec,
)
from repro.sweeps.library import SWEEP_LIBRARY, get_spec, markdown_library_table
from repro.sweeps.spec import (
    SEED_POLICIES,
    SPEC_SCHEMA_VERSION,
    T_SPECS,
    SweepPoint,
    SweepSpec,
    canonical_json,
    expand_rows,
    resolve_t,
    spec_from_file,
)
from repro.sweeps.store import (
    STORE_SCHEMA_VERSION,
    ResultsStore,
    default_store_root,
    experiment_key,
    point_key,
    result_from_record,
    sweep_record,
)

__all__ = [
    "SEED_POLICIES",
    "SPEC_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "SWEEP_LIBRARY",
    "T_SPECS",
    "PointEstimate",
    "PointOutcome",
    "PrecisionTargets",
    "ResultsStore",
    "SweepPoint",
    "SweepRunReport",
    "SweepSpec",
    "adaptive_plan_table",
    "canonical_json",
    "default_store_root",
    "estimate_point",
    "expand_rows",
    "experiment_key",
    "get_spec",
    "markdown_adaptive_plan",
    "markdown_library_table",
    "point_key",
    "resolve_targets",
    "report_rows",
    "resolve_t",
    "result_from_record",
    "run_spec",
    "spec_from_file",
    "spec_keys",
    "status_spec",
    "sweep_record",
]
