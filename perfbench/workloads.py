"""The benchmark's workloads.

Every workload is one client in one thread running a closed loop against the public ``repro``
API: the next operation starts when the previous one returns.  Inputs come only from the
seed.  A workload repeats fixed-size *episodes*, each on a fresh deployment, until
``seconds`` have passed, so a faster program runs more episodes of the same shape instead of
growing its data further, and per-operation figures stay comparable between commits.

- ``bob_read`` -- each episode's set-up uploads one UserVisits dataset; then Bob-Q1..Q5 run
  round-robin through ``Session.run`` on the default configuration.
- ``mixed_durable`` -- each episode deploys HAIL over a Synthetic preload with upload-time
  indexes on f1-f3, adaptive indexing with eviction under a small per-node budget, zone maps,
  ``max_concurrent_jobs=2`` and SQLite persistence.  Two attached tenants take turns appending
  a file; after each append, both submit filters and ``run_multi_tenant_batch`` drains them,
  several times over.  The episode ends with a probe, ``Session.checkpoint``, closing the
  backend, and several ``Session.restore`` calls, each answering the probe again.

Every answer is compared with :mod:`perfbench.oracle`; an operation that raises or answers
wrongly counts as failed and the loop goes on.
"""

from __future__ import annotations

import gc
import shutil
import sqlite3
import statistics
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench import oracle
from perfbench.measure import Recorder

NODES = 4
BOB_INDEXES = ("visitDate", "sourceIP", "adRevenue")
DURABLE_INDEXES = ("f1", "f2", "f3")
BOB_ROWS_PER_BLOCK = 200
DURABLE_ROWS_PER_BLOCK = 100
BOB_PATH = "/uservisits"
DURABLE_BASE = "/synthetic/base"
#: The restore probe ``(clauses, projection)``: a selective filter on an indexed attribute.
PROBE = ((("f1", "<", 100_000),), ("f1", "f4"))
#: Non-indexed attributes of the Synthetic filters: a hot one the adaptive pool can keep, and
#: rotating ones that push the pool over its budget so that it evicts.
HOT_ATTRIBUTE = "f5"
COLD_ATTRIBUTES = ("f6", "f7", "f8")
#: Upper bounds of the Synthetic filters (values are uniform in [0, 1 000 000)).
SELECTIVE_BOUNDS = (100_000, 250_000, 150_000, 50_000, 200_000)


@dataclass(frozen=True)
class Sizes:
    """How much work one episode of each workload does."""

    bob_rows: int = 4000
    #: Bob-Q1..Q5 cycles per deployment: 100 queries, so a p90 has ten beyond it.
    bob_cycles: int = 20
    durable_preload_rows: int = 600
    durable_append_rows: int = 100
    durable_rounds: int = 10
    #: Drains per appended file: 100 drains per deployment, so a p90 has ten beyond it.
    durable_drains_per_round: int = 10
    durable_restores: int = 2
    #: Per-node byte budget of adaptive replicas; smaller than the filter mix would build.
    durable_adaptive_bytes: int = 16_000


def start_episode(rec: Recorder) -> None:
    """Begin an episode; the previous episode's garbage is collected first, outside any timing.

    The collector stays enabled throughout, as users run it; collecting here keeps one
    episode's dead deployment from being paid for inside the next episode's operations.
    """
    gc.collect()
    rec.episode()


def run_bob_read(seed: int, seconds: float, sizes: Sizes, rec: Recorder, workdir: Path) -> None:
    """Episodes of a UserVisits set-up upload followed by Bob-Q1..Q5 cycles."""
    from repro import Session
    from repro.datagen import UserVisitsGenerator
    from repro.workloads import bob_logical_queries

    generator = UserVisitsGenerator(seed=seed)
    names = generator.schema.field_names
    queries = bob_logical_queries()
    # Every episode regenerates these same rows, so the expected answers are computed once.
    rows = generator.generate(sizes.bob_rows)
    expected = {q.name: oracle.answer(rows, names, *oracle.BOB_ORACLE[q.name]) for q in queries}
    deadline = perf_counter() + seconds
    while True:
        start_episode(rec)
        with rec.setup():
            session = Session.deploy(nodes=NODES, index_attributes=BOB_INDEXES)
            rows = UserVisitsGenerator(seed=seed).generate(sizes.bob_rows)
            if not rec.upload(
                "setup_upload", session, BOB_PATH, rows, generator.schema, BOB_ROWS_PER_BLOCK
            ):
                raise RuntimeError(f"set-up upload failed: {rec.errors}")
        rec.per_episode["stored_bytes"].append(session.system().hdfs.total_stored_bytes())
        for _ in range(sizes.bob_cycles):
            cycle = []
            for query in queries:
                result = rec.call("query", session.run, query, path=BOB_PATH)
                if result is None:
                    continue
                rec.check(result.records, expected[query.name], query.name)
                rec.observe(result)
                cycle.append(result.runtime_s)
            if cycle:
                rec.per_episode["sim_query_s"].append(statistics.fmean(cycle))
        if perf_counter() >= deadline:
            return


def durable_filters(drains: int, drains_per_round: int) -> list[list[tuple]]:
    """Per drain, ``(tenant, target, clauses, projection)`` of each query; target is a path key.

    Each tenant submits one filter on the preload (``"base"``) and one on the file appended
    in the drain's round (``"append"``).  Two of the four mix an indexed attribute (f1-f3)
    with a non-indexed one; the other two filter on non-indexed attributes only, so they scan
    and offer adaptive builds.  The plan does not depend on the seed, so every seed asks for the
    same selectivities and only the rows differ.
    """
    plan = []
    for d in range(drains):
        indexed = DURABLE_INDEXES[d % len(DURABLE_INDEXES)]
        scanned = COLD_ATTRIBUTES[(d // 2) % len(COLD_ATTRIBUTES)] if d % 2 else HOT_ATTRIBUTE
        other = COLD_ATTRIBUTES[d % len(COLD_ATTRIBUTES)]
        bound = SELECTIVE_BOUNDS[d % len(SELECTIVE_BOUNDS)]
        writer = (d // drains_per_round) % 2
        plan.append(
            [
                (0, "base", ((indexed, "<", bound), (other, ">", bound)), (indexed, other)),
                (1, "base", ((scanned, "<", bound),), ("f2", scanned)),
                (writer, "append", ((other, "<", 3 * bound),), None),
                (1 - writer, "append", ((indexed, ">", bound), (scanned, "<", 500_000)), None),
            ]
        )
    return plan


def run_mixed_durable(
    seed: int, seconds: float, sizes: Sizes, rec: Recorder, workdir: Path
) -> None:
    """Episodes of tenant rounds over a durable deployment, ending in checkpoint and restores."""
    from repro import Session, run_multi_tenant_batch
    from repro.datagen import SyntheticGenerator
    from repro.hail.config import HailConfig

    preload, per_append, rounds = (
        sizes.durable_preload_rows, sizes.durable_append_rows, sizes.durable_rounds
    )
    per_round = sizes.durable_drains_per_round
    schema = SyntheticGenerator(seed=seed).schema
    plan = durable_filters(rounds * per_round, per_round)

    def generate() -> tuple[list[tuple], list[list[tuple]]]:
        """The preload rows and the rows appended in each round."""
        rows = SyntheticGenerator(seed=seed).generate(preload + per_append * rounds)
        ends = range(preload, preload + per_append * rounds, per_append)
        return rows[:preload], [rows[end : end + per_append] for end in ends]

    # Every episode regenerates these same rows, so the expected answers are computed once.
    base, appends = generate()
    expected = [
        [
            oracle.answer(
                appends[d // per_round] if target == "append" else base,
                schema.field_names,
                clauses,
                projection,
            )
            for _, target, clauses, projection in drain_plan
        ]
        for d, drain_plan in enumerate(plan)
    ]
    probe_expected = oracle.answer(base, schema.field_names, *PROBE)

    def probe(session):
        dataset = session.dataset(DURABLE_BASE).where(oracle.expression(PROBE[0]))
        return dataset.select(*PROBE[1]).collect()

    deadline = perf_counter() + seconds
    episode = 0
    while True:
        journal = workdir / f"journal-{episode}"
        shutil.rmtree(journal, ignore_errors=True)
        config = (
            HailConfig.for_attributes(DURABLE_INDEXES, functional_partition_size=1)
            .with_adaptive(True, offer_rate=1.0)
            # The tuner's savings ledger is what counts adaptive index uses.
            .with_lifecycle(
                eviction=True, capacity_bytes=sizes.durable_adaptive_bytes, auto_tune=True
            )
            .with_zone_maps(True)
            .with_concurrency(max_jobs=2)
            .with_persistence("sqlite", directory=str(journal))
        )
        start_episode(rec)
        with rec.setup():
            session = Session.deploy(nodes=NODES, hail_config=config)
            base, appends = generate()
            if not rec.upload(
                "setup_upload", session, DURABLE_BASE, base, schema, DURABLE_ROWS_PER_BLOCK
            ):
                raise RuntimeError(f"set-up upload failed: {rec.errors}")
        tenants = [session.attach("alice"), session.attach("bob")]
        sim_latencies = []
        for d, drain_plan in enumerate(plan):
            r = d // per_round
            paths = {"base": DURABLE_BASE, "append": f"/synthetic/append-{r:04d}"}
            if d % per_round == 0:
                appended = rec.upload(
                    "upload", tenants[r % 2], paths["append"], appends[r], schema,
                    DURABLE_ROWS_PER_BLOCK,
                )
            submitted = []
            for (tenant, target, clauses, projection), answer in zip(drain_plan, expected[d]):
                if target == "append" and not appended:
                    rec.skip(f"query on {paths[target]} not run: its upload failed")
                    continue
                dataset = tenants[tenant].dataset(paths[target]).where(oracle.expression(clauses))
                if projection:
                    dataset = dataset.select(*projection)
                submitted.append((dataset.submit(), answer))
            if rec.call("drain", run_multi_tenant_batch, tenants, ops=len(submitted)) is None:
                continue
            for handle, answer in submitted:
                result = handle.result()
                rec.check(result.records, answer, f"drain {d} filter on {handle.path}")
                rec.observe(result)
                sim_latencies.append(result.runtime_s)
        if sim_latencies:
            rec.per_episode["sim_query_s"].append(statistics.fmean(sim_latencies))
        reports = [r["HAIL"] for r in session.upload_reports.values()]
        rec.per_episode["sim_upload_s"].append(statistics.fmean(r.upload_s for r in reports))
        rec.per_episode["stored_bytes"].append(session.system().hdfs.total_stored_bytes())
        source_bytes = sum(r.source_text_bytes for r in reports)

        before = rec.call("probe", probe, session)
        if before is not None:
            before = rec.check(before.records, probe_expected, "probe before the kill")
        rec.call("checkpoint", session.checkpoint)
        session.system().hdfs.persist.close()
        journal_bytes = sum(f.stat().st_size for f in journal.iterdir() if f.is_file())
        rec.per_episode["journal_bytes"].append(journal_bytes)
        rec.per_episode["journal_per_source"].append(journal_bytes / source_bytes)
        if rec.journal_mode is None:
            with closing(sqlite3.connect(journal / "namenode.db")) as conn:
                rec.journal_mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        for _ in range(sizes.durable_restores):
            restored = rec.call("restore", Session.restore, config, nodes=NODES)
            if restored is None:
                rec.skip("probe not run: restore failed")
                continue
            after = rec.call("probe", probe, restored)
            if after is not None:
                # A restored deployment must answer exactly as the pre-kill one did.
                expected_after = probe_expected if before is None else before
                rec.check(after.records, expected_after, "probe after a restore")
            restored.system().hdfs.persist.close()
        shutil.rmtree(journal, ignore_errors=True)
        episode += 1
        if perf_counter() >= deadline:
            return


WORKLOADS = {"bob_read": run_bob_read, "mixed_durable": run_mixed_durable}
