"""In-memory span tracing around goalshot's module boundaries.

The tracer replaces public functions with wrappers, in the namespace of
the module that calls them (``policies.extract_features``, not
``scenes.extract_features``), because the package imports names with
``from .x import y``. Each span records a trace id, its parent span, the
callee's layer name and start/end times; a span with no open parent starts
a new trace, so there is one trace per CLI command, game or decision. Counts
(steps, epochs, rows, outcomes) are read from arguments and return values
at the same boundaries. Nothing inside ``src/goalshot`` is modified, and
``installed()`` restores every original on exit.

``geometry`` (Vec2 arithmetic, sub-microsecond per call) and ``config``
(idle under the CLI defaults) get no spans: a wrapper would cost more than
the work, so their time shows in their callers' self time.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _simulate_shot(counts, args, kwargs, result):
    outcome, steps = result
    counts["keeper.steps"] += steps
    counts[f"keeper.{outcome.value}"] += 1


def _rollout(counts, args, kwargs, result):
    counts["dynamics.steps"] += result.steps_taken


def _train(counts, args, kwargs, result):
    epochs = result[1].epochs_run
    counts["mlp.epochs"] += epochs
    counts["mlp.example_steps"] += epochs * len(args[0])


def _score_batch(counts, args, kwargs, result):
    counts["mlp.score_batch.rows"] += len(args[1])


def _experiment(counts, args, kwargs, result):
    counts["experiment.episodes"] += 2 * args[2] * args[3]


def _survivors(counts, args, kwargs, result):
    counts["policies.stage_one"] += 1
    counts["policies.survivors"] += len(result)


def _decision(counts, args, kwargs, result):
    counts["policies.decisions"] += 1
    counts["policies.kicks"] += result.action.value == "KICK"
    counts["policies.out_of_range"] += result.out_of_range


# (calling module, attribute, span name or None for a count-only hook, hook)
PATCHES = (
    ("goalshot.cli", "cmd_gen_data", "cli.gen-data", None),
    ("goalshot.cli", "cmd_aim_table", "cli.aim-table", None),
    ("goalshot.cli", "cmd_train", "cli.train", None),
    ("goalshot.cli", "cmd_eval", "cli.eval", None),
    ("goalshot.cli", "generate_synthetic_scenes", "scenes.generate_synthetic_scenes", None),
    ("goalshot.cli", "save_scenes", "scenes.save_scenes", None),
    ("goalshot.cli", "load_scenes", "scenes.load_scenes", None),
    ("goalshot.cli", "feature_matrix", "scenes.feature_matrix", None),
    ("goalshot.cli", "split_dataset", "scenes.split_dataset", None),
    ("goalshot.cli", "balance_by_replication", "scenes.balance_by_replication", None),
    ("goalshot.cli", "p_goal", "aim.p_goal", None),
    ("goalshot.cli", "rollout_to_goal_line", "dynamics.rollout_to_goal_line", _rollout),
    ("goalshot.cli", "roc_curve", "metrics.roc_curve", None),
    ("goalshot.cli", "ks2_curve", "metrics.ks2_curve", None),
    # cli reaches mlp through the module object (mlp.train, ...).
    ("goalshot.mlp", "train", "mlp.train", _train),
    ("goalshot.mlp", "score_batch", "mlp.score_batch", _score_batch),
    ("goalshot.mlp", "load_model", "mlp.load_model", None),
    ("goalshot.mlp", "save_model", "mlp.save_model", None),
    ("goalshot.scenes", "simulate_shot", "keeper.simulate_shot", _simulate_shot),
    # The match workload calls these through the module.
    ("goalshot.experiment", "run_experiment", "experiment.run_experiment", _experiment),
    ("goalshot.experiment", "report", "experiment.report", None),
    ("goalshot.experiment", "generate_synthetic_scenes",
     "scenes.generate_synthetic_scenes", None),
    ("goalshot.experiment", "simulate_shot", "keeper.simulate_shot", _simulate_shot),
    ("goalshot.policies", "mlp_policy_decide", "policies.mlp_policy_decide", _decision),
    ("goalshot.policies", "lda_policy_decide", "policies.lda_policy_decide", _decision),
    ("goalshot.policies", "stage_one_survivors", None, _survivors),
    ("goalshot.policies", "p_goal", "aim.p_goal", None),
    ("goalshot.policies", "extract_features", "scenes.extract_features", None),
    ("goalshot.policies", "forward", "mlp.forward", None),
)


class Tracer:
    """Spans and counts of one traced round, kept in memory.

    A span is ``[trace_id, parent_index, name, start_ns, end_ns]``; its id
    is its index in ``spans`` and a root span has parent -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._traces = 0

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                trace_id = spans[parent][0]
            else:
                parent = -1
                trace_id = self._traces
                self._traces += 1
            record = [trace_id, parent, name, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    def _count(self, fn, hook):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result
        return counted

    @contextmanager
    def installed(self):
        """Wrap every boundary in PATCHES for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, hook in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr,
                        self._span(name, fn, hook) if name else self._count(fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, start, end) in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round: calls, total and self
    seconds per span name, plus the counts the hooks gathered."""
    calls: Counter = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    for span, self_ns in zip(tracer.spans, self_times_ns(tracer.spans)):
        name = span[2]
        calls[name] += 1
        total[name] += (span[4] - span[3]) * 1e-9
        own[name] += self_ns * 1e-9
    c = tracer.counts
    shots = c["keeper.GOAL"] + c["keeper.CAUGHT"] + c["keeper.WIDE"]
    metrics = {f"cli.{cmd}.self_s": own[f"cli.{cmd}"]
               for cmd in ("gen-data", "aim-table", "train", "eval")}
    for name in ("dynamics.rollout_to_goal_line", "keeper.simulate_shot",
                 "scenes.extract_features", "aim.p_goal", "mlp.forward",
                 "policies.mlp_policy_decide", "policies.lda_policy_decide"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    metrics.update({
        "dynamics.steps_per_rollout": _ratio(c["dynamics.steps"],
                                             calls["dynamics.rollout_to_goal_line"]),
        "keeper.steps_per_shot": _ratio(c["keeper.steps"], calls["keeper.simulate_shot"]),
        "keeper.us_per_step": _ratio(own["keeper.simulate_shot"] * 1e6, c["keeper.steps"]),
        "keeper.goal_frac": _ratio(c["keeper.GOAL"], shots),
        "keeper.caught_frac": _ratio(c["keeper.CAUGHT"], shots),
        "keeper.wide_frac": _ratio(c["keeper.WIDE"], shots),
        "scenes.generate_synthetic_scenes.self_s": own["scenes.generate_synthetic_scenes"],
        "scenes.save_scenes.s": total["scenes.save_scenes"],
        "scenes.load_scenes.s": total["scenes.load_scenes"],
        "scenes.feature_matrix.s": total["scenes.feature_matrix"],
        "mlp.train.s": total["mlp.train"],
        "mlp.epochs": c["mlp.epochs"],
        "mlp.example_steps": c["mlp.example_steps"],
        "mlp.us_per_example_step": _ratio(own["mlp.train"] * 1e6, c["mlp.example_steps"]),
        "mlp.score_batch.rows": c["mlp.score_batch.rows"],
        "mlp.score_batch.s": total["mlp.score_batch"],
        "metrics.roc_curve.s": total["metrics.roc_curve"],
        "metrics.ks2_curve.s": total["metrics.ks2_curve"],
        "policies.survivors_per_decision": _ratio(c["policies.survivors"],
                                                  c["policies.stage_one"]),
        "policies.kick_frac": _ratio(c["policies.kicks"], c["policies.decisions"]),
        "policies.out_of_range_frac": _ratio(c["policies.out_of_range"],
                                             c["policies.decisions"]),
        "experiment.run_experiment.self_s": own["experiment.run_experiment"],
        "experiment.episodes": c["experiment.episodes"],
    })
    return metrics


def mean_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-round mean of each metric over the traced rounds."""
    return {name: statistics.fmean(r[name] for r in rounds) for name in rounds[0]}


def spans_document(tracers: list[Tracer]) -> dict:
    """JSON-ready form of every traced round's spans."""
    return {
        "span_fields": ["trace_id", "parent", "name", "start_ns", "end_ns", "self_ns"],
        "rounds": [[[*span, own] for span, own in zip(t.spans, self_times_ns(t.spans))]
                   for t in tracers],
    }
