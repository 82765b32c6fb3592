"""Measurement of one workload: repetitions, checks, metric tables.

``run.py`` is the command; this module does the work once the program
is importable.  With ``trace=False`` :func:`run` repeats set-up and
solve until the window is spent and reports the end-to-end metrics:
times are medians over the repetitions, in reference-host seconds
(``calibrate.py``).  With ``trace=True`` it
spends half the window on untraced repetitions, then makes one run with
every layer boundary wrapped (``layers.py``) and reports the per-layer
metrics; the coarse spans go to
``perfbench/out/<workload>-seed<seed>.trace.json``.

Every repetition is checked: values against ``reference_for`` and, for
repetitions after the first and for the traced run, values and work
counts identical to the first.  A miss counts as a failed operation.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from calibrate import REFERENCE_S, host_factor, kernel_seconds
from layers import LayerTrace
from workloads import WORKLOADS, Workload, check_values, work_counts

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: (name, unit, better, bound); mirrored in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("events_processed", "count", "lower", 0.2),
    ("edges_scanned", "count", "lower", 0.2),
    ("offchip_bytes", "bytes", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _timed_layer(key: str, parts=("calls", "s")):
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{key}.{part}", units[part], "lower") for part in parts]


#: (name, unit, better); mirrored in BENCHMARK.json
PER_LAYER = tuple(
    _timed_layer("graph.load_dataset", ("s",))
    + _timed_layer("graph.csr.neighbors")
    + _timed_layer("graph.csr.edge_weights")
    + _timed_layer("graph.csr.vertex_address", ("s",))
    + _timed_layer("graph.csr.edge_address", ("s",))
    + _timed_layer("engines.build_engine", ("s",))
    + _timed_layer("queue.insert")
    + _timed_layer("queue.drain_bin", ("calls", "s", "self_s"))
    + _timed_layer("queue.drain_all", ("s",))
    + [
        ("queue.coalesce_ratio", "ratio", "higher"),
        ("queue.coalesce_ratio.base", "count", "lower"),
        ("queue.peak_occupancy", "count", "lower"),
    ]
    + _timed_layer("event.coalesced_with")
    + _timed_layer("algorithms.apply", ("calls", "s", "self_s"))
    + [
        ("algorithms.apply.changed_ratio", "ratio", "higher"),
        ("algorithms.apply.changed_ratio.base", "count", "lower"),
    ]
    + _timed_layer("algorithms.propagate")
    + [
        ("algorithms.propagate.identity_ratio", "ratio", "lower"),
        ("algorithms.propagate.identity_ratio.base", "count", "lower"),
    ]
    + _timed_layer("algorithms.reduce")
    + _timed_layer("functional.run", ("self_s",))
    + _timed_layer("slicing.run_slice_activation", ("calls", "s", "self_s"))
    + _timed_layer("slicing.run", ("self_s",))
    + [
        ("slicing.passes", "count", "lower"),
        ("slicing.rounds", "count", "lower"),
        ("slicing.events_spilled", "count", "lower"),
        ("slicing.spill_bytes", "bytes", "lower"),
        ("slicing.work_amplification", "ratio", "lower"),
        ("slicing.work_amplification.base", "count", "lower"),
    ]
    + _timed_layer("accelerator.run", ("self_s",))
    + [("accelerator.sim_cycles", "cycles", "lower")]
    + [
        (f"accelerator.stage.{stage}_cycles_per_event", "cycles/event", "lower")
        for stage in ("vertex_mem", "process", "gen_buffer", "edge_mem", "generate")
    ]
    + [
        ("accelerator.processor.stall_frac", "ratio", "lower"),
        ("accelerator.processor.idle_frac", "ratio", "lower"),
        ("accelerator.generator.stall_frac", "ratio", "lower"),
    ]
    + _timed_layer("memory.cache.access")
    + [
        ("memory.cache.hit_rate", "ratio", "higher"),
        ("memory.cache.hit_rate.base", "count", "lower"),
    ]
    + _timed_layer("memory.dram.access")
    + [
        ("memory.dram.row_hit_rate", "ratio", "higher"),
        ("memory.dram.row_hit_rate.base", "count", "lower"),
    ]
    + _timed_layer("network.crossbar.send")
    + [("network.crossbar.wait_cycles", "cycles", "lower")]
    + _timed_layer("network.arbiter.request")
    + [("network.arbiter.wait_cycles", "cycles", "lower")]
    + _timed_layer("sim.resource.acquire")
    + _timed_layer("sim.pipelined_resource.issue")
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("check.max_abs_err", "abs", "lower"),
    ]
)


@dataclass
class Solved:
    """One set-up plus solve, with what it produced."""

    setup_s: float
    solve_s: float
    counts: Dict[str, int]
    graph: Any
    spec: Any
    root: int
    handle: Any
    result: Any


def solve_once(
    workload: Workload, seed: int, trace: Optional[LayerTrace] = None
) -> Solved:
    """Set up and solve once; ``trace`` adds spans and wraps the spec."""
    span = trace.span if trace is not None else _no_span
    gc.collect()
    start = time.perf_counter()
    with span("setup", workload=workload.name, seed=seed):
        graph, spec, root = workload.prepare(seed)
        if trace is not None:
            spec = trace.wrap_spec(spec)
        handle = workload.build(graph, spec)
    built = time.perf_counter()
    with span("solve", engine=workload.engine):
        result = handle.run()
    done = time.perf_counter()
    return Solved(
        setup_s=built - start,
        solve_s=done - built,
        counts=work_counts(result),
        graph=graph,
        spec=spec,
        root=root,
        handle=handle,
        result=result,
    )


def _no_span(name: str, **args: Any):
    return nullcontext()


@dataclass
class Repeated:
    """Repetitions of one workload and seed.

    Times are reference-host seconds (``calibrate.py``) except
    ``raw_solve_s``; ``kernel_s`` holds the calibration runs that
    bracket the repetitions, one more than there are repetitions.
    """

    first: Optional[Solved]
    setup_s: List[float]
    solve_s: List[float]
    raw_solve_s: List[float]
    kernel_s: List[float]
    #: repetitions whose values or counts differ from the first
    diverged: int


def same_output(a: Solved, b: Solved) -> bool:
    """Bit-identical values and identical work counts."""
    return a.counts == b.counts and np.array_equal(
        a.result.values, b.result.values
    )


def repeat(workload: Workload, seed: int, seconds: float) -> Repeated:
    """Repeat set-up and solve for about ``seconds``.

    At least one repetition runs.  Only the first keeps its graph and
    result; later ones are compared with it and dropped.
    """
    start = time.perf_counter()
    kernel_s = [kernel_seconds()]
    reps = Repeated(None, [], [], [], kernel_s, 0)
    while True:
        solved = solve_once(workload, seed)
        kernel_s.append(kernel_seconds())
        factor = host_factor(kernel_s[-2], kernel_s[-1])
        reps.setup_s.append(solved.setup_s * factor)
        reps.solve_s.append(solved.solve_s * factor)
        reps.raw_solve_s.append(solved.solve_s)
        if reps.first is None:
            reps.first = solved
        else:
            reps.diverged += not same_output(reps.first, solved)
        elapsed = time.perf_counter() - start
        # stop once another repetition would overrun the window by more
        # than half its length
        if elapsed + elapsed / len(reps.solve_s) / 2 > seconds:
            return reps


def _ratio(hits: float, base: float) -> float:
    return hits / base if base else 0.0


def layer_values(
    trace: LayerTrace,
    overhead_s: float,
    traced: Solved,
    base_events: Optional[int],
) -> Dict[str, float]:
    """Every per-layer value the traced run produced, by metric name.

    Layers the workload's engine does not execute report 0.
    """
    values: Dict[str, float] = {}
    for key, acc in trace.acc.items():
        values[f"{key}.calls"] = acc.calls
        values[f"{key}.s"] = acc.seconds
        values[f"{key}.self_s"] = acc.self_seconds
    for name, key in (
        ("queue.coalesce_ratio", "queue.insert"),
        ("algorithms.apply.changed_ratio", "algorithms.apply"),
        ("algorithms.propagate.identity_ratio", "algorithms.propagate"),
    ):
        acc = trace.acc[key]
        values[name] = _ratio(acc.hits, acc.calls)
        values[f"{name}.base"] = acc.calls
    values["queue.peak_occupancy"] = max(
        (q.stats.peak_occupancy for q in trace.queues), default=0
    )

    raw, runner = traced.result.raw, traced.handle.runner
    engine = traced.result.engine
    sliced = engine == "sliced"
    values["slicing.passes"] = raw.num_passes if sliced else 0
    values["slicing.rounds"] = raw.total_rounds if sliced else 0
    values["slicing.events_spilled"] = (
        sum(a.events_spilled for a in raw.activations) if sliced else 0
    )
    values["slicing.spill_bytes"] = raw.total_spill_bytes if sliced else 0
    values["slicing.work_amplification"] = (
        _ratio(traced.counts["events_processed"], base_events) if sliced else 0.0
    )
    values["slicing.work_amplification.base"] = base_events or 0

    cycle = engine == "cycle"
    stages = raw.stage_profile.per_event() if cycle else {}
    for stage in ("vertex_mem", "process", "gen_buffer", "edge_mem", "generate"):
        values[f"accelerator.stage.{stage}_cycles_per_event"] = stages.get(
            stage, 0.0
        )
    values["accelerator.sim_cycles"] = raw.total_cycles if cycle else 0
    if cycle:
        processor = raw.occupancy.processor_fractions(
            raw.total_cycles, raw.config.num_processors
        )
        generator = raw.occupancy.generator_fractions(
            raw.total_cycles, raw.config.total_generation_streams
        )
        # StatSet counters are floats; these are whole counts
        hits = int(sum(c.stats.get("hits") for c in runner.edge_caches))
        lookups = hits + int(
            sum(c.stats.get("misses") for c in runner.edge_caches)
        )
        banks = [b for ch in runner.dram.channels for b in ch.banks]
        bursts = int(
            sum(b.stats.get("row_hits") + b.stats.get("row_misses") for b in banks)
        )
        arbiters = list(runner.sched_arbiter.leaves) + [runner.sched_arbiter.root]
        crossbar_wait = int(runner.crossbar.stats.get("wait_cycles"))
        arbiter_wait = int(sum(a.stats.get("wait_cycles") for a in arbiters))
    else:
        processor = generator = {}
        hits = lookups = bursts = crossbar_wait = arbiter_wait = 0
    values["accelerator.processor.stall_frac"] = processor.get("stall", 0.0)
    values["accelerator.processor.idle_frac"] = processor.get("idle", 0.0)
    values["accelerator.generator.stall_frac"] = generator.get("stall", 0.0)
    values["memory.cache.hit_rate"] = _ratio(hits, lookups)
    values["memory.cache.hit_rate.base"] = lookups
    values["memory.dram.row_hit_rate"] = (
        runner.dram.row_hit_rate() if cycle else 0.0
    )
    values["memory.dram.row_hit_rate.base"] = bursts
    values["network.crossbar.wait_cycles"] = crossbar_wait
    values["network.arbiter.wait_cycles"] = arbiter_wait

    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(trace.spans)
    return values


def _number(value: Any) -> Any:
    """A plain JSON number: numpy scalars become Python ones."""
    return value.item() if isinstance(value, np.generic) else value


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> Dict:
    """Measure one workload; returns the result object.

    Prints one line per metric first, for a reader of the log.
    """
    workload = WORKLOADS[workload_name]
    window = seconds / 2 if traced else seconds
    reps = repeat(workload, seed, window)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = reps.first
    attempted = len(reps.solve_s)
    failed = reps.diverged
    notes: List[str] = []
    if reps.diverged:
        notes.append(f"{reps.diverged} repetition(s) diverged from the first")

    check = check_values(
        workload,
        first.graph,
        first.spec,
        first.root,
        first.result.values,
        first.result.converged,
    )
    if not check.ok:
        failed = attempted
        notes.append(f"reference check failed: {check.reason}")

    samples = {
        "setup_s": reps.setup_s,
        "solve_s": reps.solve_s,
    }
    values: Dict[str, float] = {
        "setup_s": statistics.median(reps.setup_s),
        "solve_s": statistics.median(reps.solve_s),
        **first.counts,
        "peak_rss_mb": peak_rss_mb,
    }
    table = END_TO_END
    if traced:
        trace = LayerTrace()
        before = kernel_seconds()
        with trace.installed():
            solved = solve_once(workload, seed, trace)
        factor = host_factor(before, kernel_seconds())
        attempted += 1
        if not same_output(first, solved):
            failed += 1
            notes.append("traced run differs from the untraced runs")
        base_events = None
        if workload.engine == "sliced":
            base = replace(workload, engine="functional", options={})
            base_events = solve_once(base, seed).counts["events_processed"]
        values = layer_values(
            trace, solved.solve_s * factor - values["solve_s"], solved, base_events
        )
        values["check.max_abs_err"] = check.max_abs_err
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-seed{seed}.trace.json"
        trace.write_chrome_trace(str(path))
        notes.append(f"coarse spans written to {path.relative_to(ROOT)}")
        table = PER_LAYER
    else:
        notes.append(f"max |value - reference| = {check.max_abs_err:.6g}")
    notes.append(
        f"unscaled solve median {statistics.median(reps.raw_solve_s):.4g} s; "
        f"calibration kernel median {statistics.median(reps.kernel_s):.4g} s "
        f"against {REFERENCE_S} s on the reference host"
    )

    metrics = {}
    print(f"{workload.name}  seed={seed}  repetitions={len(reps.solve_s)}")
    for name, unit, *_ in table:
        value = _number(values[name])
        metrics[name] = {"value": value, "unit": unit}
        spread = ""
        if name in samples:
            low, high = min(samples[name]), max(samples[name])
            spread = f"  (median of {len(samples[name])}, {low:.4g}..{high:.4g})"
        print(f"  {name:<48} {value} {unit}{spread}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
