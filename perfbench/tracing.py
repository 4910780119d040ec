"""Spans with exact Spark job and task counts, recorded from benchmark code.

Each span sets its own Spark job group on entry and restores the
enclosing one on exit, so the jobs a span owns are exactly the jobs of
its group; a span's ``jobs`` adds those of its children. Counts are read
as the span closes, after the listener bus has drained, because the
status tracker keeps only recent jobs.

``Tracer.patch_engine`` rebinds the layer functions ``repro.core.engine``
imports, so each call inside ``run_rads`` gets its own span. The split,
SM-E and region-group layers return lazy DataFrames that ``run_rads``
checkpoints right away; the wrapper checkpoints them inside the span, so
the work is charged to the layer that defines it.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from pyspark.sql import DataFrame

import repro.core.engine as engine_mod

#: functions ``repro.core.engine`` imports -> (span name, result is lazy)
ENGINE_LAYERS = {
    "choose_plan": ("plan.choose_plan", False),
    "split_candidates": ("sme.split_candidates", True),
    "sme_enumerate": ("sme.sme_enumerate", True),
    "assign_region_groups_spark": ("regions.assign_region_groups", True),
    "run_rmeef": ("rmeef.run_rmeef", False),
}


def drain(sc) -> None:
    """Block until every queued Spark listener event has been handled."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def group_counts(sc, group: str) -> tuple[int, int]:
    """(jobs, tasks run) of a finished job group."""
    drain(sc)
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        info = st.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    tasks = 0
    for s in stages:
        info = st.getStageInfo(s)
        if info is not None:
            tasks += info.numCompletedTasks
    return len(jobs), tasks


def _restore(sc, group) -> None:
    if group is None:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    else:
        sc.setJobGroup(group, group)


def _materialize(out):
    if isinstance(out, DataFrame):
        return out.localCheckpoint()
    if isinstance(out, tuple):
        return tuple(_materialize(x) for x in out)
    return out


class Tracer:
    """In-memory span recorder for one SparkContext."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            **attrs,
            "children_s": 0.0,
            "child_jobs": 0,
            "child_tasks": 0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        group = f"pb-span-{rec['id']}"
        prev = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setJobGroup(group, name)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["dur_s"] = time.perf_counter() - t0
            self._stack.pop()
            _restore(self.sc, prev)
            own_jobs, own_tasks = group_counts(self.sc, group)
            rec["jobs"] = own_jobs + rec.pop("child_jobs")
            rec["tasks"] = own_tasks + rec.pop("child_tasks")
            # children run one after another, so their durations add up
            rec["self_s"] = rec["dur_s"] - rec.pop("children_s")
            if parent is not None:
                parent["children_s"] += rec["dur_s"]
                parent["child_jobs"] += rec["jobs"]
                parent["child_tasks"] += rec["tasks"]

    def wrap(self, name: str, fn, lazy: bool):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
                if lazy:
                    out = _materialize(out)
            return out

        return traced

    @contextmanager
    def patch_engine(self):
        """Give every layer call inside ``run_rads`` its own span."""
        originals = {f: getattr(engine_mod, f) for f in ENGINE_LAYERS}
        for f, (name, lazy) in ENGINE_LAYERS.items():
            setattr(engine_mod, f, self.wrap(name, originals[f], lazy))
        try:
            yield
        finally:
            for f, fn in originals.items():
                setattr(engine_mod, f, fn)
