"""In-memory spans around the fsjunta library's public callables.

``Tracer.install`` rebinds each traced callable in every ``fsjunta`` module
that imported it, and wraps the ``FsOracle``/``ExOracle`` methods on their
classes, so calls the library makes into its own layers are timed as well.
Each span records the callable, its layer metric, the trial it belongs to,
its parent span, and its start and end. A layer's time is the self time of
its spans: their duration minus the part their child spans cover, so the
layer times of one run add up to the time spent inside ``run_experiment``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _entries_built(counts, args, result):
    counts["boolfn.entries_built"] += int(result.values.size)


def _instance(counts, args, result):
    counts["boolfn.instances"] += 1


def _wht(counts, args, result):
    n = args[0].n
    counts["fourier.wht_calls"] += 1
    counts["fourier.wht_points"] += 1 << n
    counts["fourier.wht_adds_computed"] += n << n


def _fs_one(counts, args, result):
    counts["oracles.fs_draws"] += 1


def _fs_batch(counts, args, result):
    # With a failure probability set, draw_batch answers through draw().
    if not args[0].failure_prob:
        counts["oracles.fs_draws"] += int(args[1])


def _ex_one(counts, args, result):
    counts["oracles.ex_draws"] += 1


def _ex_batch(counts, args, result):
    counts["oracles.ex_draws"] += int(args[1])


def _rows(counts, args, result):
    counts["harness.rows"] += len(args[1])


# (module, callable or Class.method, layer metric, counter hook). A hook
# receives the call's positional arguments and its result.
TARGETS = (
    ("fsjunta.harness", "run_experiment", "harness.self", None),
    ("fsjunta.harness", "_write_outputs", "harness.write", _rows),
    ("fsjunta.boolfn", "project_assignments", "boolfn.project", None),
    ("fsjunta.boolfn", "make_junta", "boolfn.build", _entries_built),
    ("fsjunta.boolfn", "make_parity", "boolfn.build", _entries_built),
    ("fsjunta.boolfn", "random_table", "boolfn.build", _entries_built),
    ("fsjunta.boolfn", "realize_reject", "boolfn.build", _entries_built),
    ("fsjunta.boolfn", "realize_accept", "boolfn.build", _entries_built),
    ("fsjunta.boolfn", "random_junta_spec", "boolfn.build", None),
    ("fsjunta.boolfn", "sample_reject_instance", "boolfn.instance", _instance),
    ("fsjunta.boolfn", "sample_accept_instance", "boolfn.instance", _instance),
    ("fsjunta.fourier", "wht", "fourier.wht", _wht),
    ("fsjunta.oracles", "derive_seed", "oracles.seed", None),
    ("fsjunta.oracles", "make_rng", "oracles.seed", None),
    ("fsjunta.oracles", "reject_transcript", "oracles.transcript", None),
    ("fsjunta.oracles", "accept_transcript", "oracles.transcript", None),
    ("fsjunta.oracles", "masks_from_transcript", "oracles.transcript", None),
    ("fsjunta.oracles", "FsOracle.from_spectrum", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.from_table", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.from_junta", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.for_parity", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.for_reject", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.for_accept", "oracles.build", None),
    ("fsjunta.oracles", "FsOracle.draw_batch", "oracles.draw", _fs_batch),
    ("fsjunta.oracles", "FsOracle.draw", "oracles.draw", _fs_one),
    ("fsjunta.oracles", "ExOracle.draw", "oracles.ex", _ex_one),
    ("fsjunta.oracles", "ExOracle.draw_batch", "oracles.ex", _ex_batch),
    ("fsjunta.testing", "junta_test", "testing.junta_test", None),
    ("fsjunta.testing", "collision_features", "testing.collision", None),
    ("fsjunta.learning", "find_influential", "learning.stage1", None),
    ("fsjunta.learning", "learn_junta", "learning.stage2", None),
    ("fsjunta.learning", "hypothesis_error", "learning.score", None),
    ("fsjunta.stats", "chi_square_gof", "stats.gof", None),
)

LAYERS = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
COUNTS = ("boolfn.entries_built", "boolfn.instances", "fourier.wht_calls",
          "fourier.wht_points", "fourier.wht_adds_computed",
          "oracles.fs_draws", "oracles.ex_draws", "harness.rows")

# A seed derivation called straight from run_experiment starts a trial:
# the harness derives each trial's stream from its trial index.
_TRIAL_MARKERS = ("derive_seed", "make_rng")


class Tracer:
    """Spans and counters of one ``run_experiment`` call at a time."""

    def __init__(self):
        # Each span: [callable, metric, trial, parent index, start, end].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = -1
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget the spans and counts of the previous run."""
        self.spans.clear()
        self.stack.clear()
        self.trial = -1
        self.counts.clear()

    def wrap(self, name, metric, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        marks_trial = name in _TRIAL_MARKERS

        def traced(*args, **kwargs):
            if marks_trial and len(stack) == 1:
                self.trial = int(args[2] if len(args) > 2 else kwargs.get("index", 0))
            span = [name, metric, self.trial, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = time.perf_counter()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; fsjunta and its submodules must be imported."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fsjunta" or key.startswith("fsjunta.")]
        for module_name, attr, metric, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(attr, metric, raw.__func__, hook))
                else:
                    wrapped = self.wrap(attr, metric, raw, hook)
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(attr, metric, original, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        """Self seconds per layer, exact counters, and draw throughput."""
        covered = [0.0] * len(self.spans)
        for _, _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        draw_s = 0.0
        for i, (_, metric, _, parent, start, end) in enumerate(self.spans):
            self_s[metric] += end - start - covered[i]
            if metric == "oracles.draw" and (parent < 0 or self.spans[parent][1] != metric):
                draw_s += end - start
        out = {f"{layer}_s": seconds for layer, seconds in self_s.items()}
        out.update((name, self.counts[name]) for name in COUNTS)
        out["oracles.draws_per_s"] = (self.counts["oracles.fs_draws"] / draw_s
                                      if draw_s else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w") as fh:
            for name, metric, trial, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "layer": metric,
                                     "trial": trial, "parent": parent,
                                     "start": start, "end": end}) + "\n")
