"""In-memory tracer for the benchmark's traced runs.

The tracer wraps attrseq's public functions at the module attributes through
which the library (or the benchmark) calls them, for example
``attrseq.training.omega_forward`` or ``attrseq.encoder.sigmoid``, so nothing
under ``src/`` changes. Coarse calls become spans (id, parent, name, start,
end); per-call kernels (sigmoid, the two encoder branches, one-hot encoding)
only add to aggregate counts and times. Everything stays in memory until
the run reads ``state()`` at its end.

Span names double as metric keys: a span's inclusive time goes to
``time[name]``, the part of it not covered by child spans or kernels to
``self_time[name]``.
"""

import itertools
import os
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter
# span ids are unique within a process and carry its pid, so spans of the CLI
# child processes can share one file with the parent's
_ids = itertools.count(os.getpid() << 32)

CLI_COMMANDS = ("gen", "train", "eval", "embed")


class Tracer:
    def __init__(self, root=-1):
        self.time = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> seconds outside child spans
        self.counts = defaultdict(float)  # name -> calls, plus event counters
        self.samples = defaultdict(list)  # name -> per-call seconds
        self.spans = []  # [id, parent, name, t0, t1]
        self._stack = []  # open spans: [id, seconds covered by children]
        self._root = root  # parent of top-level spans: -1, or a span of the parent process
        self._patches = []
        self._step_start = None  # first forward of the current training pair
        self._pair_pos = 0
        self._embedded = set()  # distinct instances embedded in this evaluate

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, sample=False, before=None, after=None):
        """Wrap fn as a span; `before(args)` / `after(args, result)` hooks run
        outside the measured interval."""
        tracer = self

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(_ids)
            parent = tracer._stack[-1][0] if tracer._stack else tracer._root
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.spans.append((sid, parent, name, t0, t1))
                tracer.counts[name] += 1
                tracer.time[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if sample:
                    tracer.samples[name].append(dur)
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def kernel(self, name, fn, on_call=None):
        """Wrap fn as an aggregate: calls and total time, no span."""
        tracer = self
        counts, times = self.counts, self.time

        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            t0 = perf()
            result = fn(*args, **kwargs)
            dur = perf() - t0
            counts[name] += 1
            times[name] += dur
            if tracer._stack:
                tracer._stack[-1][1] += dur
            return result

        return wrapped

    @staticmethod
    def reserve_id():
        return next(_ids)

    def add_span(self, sid, name, t0, t1):
        """Record a span timed by the caller, such as a child process's."""
        self.spans.append((sid, self._root, name, t0, t1))

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- wiring --------------------------------------------------------------

    def install(self):
        """Wrap every traced call site; `uninstall` restores the originals."""
        from attrseq import cli, data, encoder, episodes, gradients, training

        t = self
        distance, dloss = gradients.distance, gradients.dloss_ddistance

        def hinge(args):
            # Backward does encoder work only when d(loss)/d(distance) != 0.
            t0 = perf()
            _, _, trace_i, trace_j, ell, margin, kind = args[:7]
            d = distance(kind, trace_i.embedding, trace_j.embedding)
            t.counts["gradients.hinge_active"] += dloss(d, ell, margin) != 0.0
            if t._stack:  # keep this bookkeeping out of the parent's self time
                t._stack[-1][1] += perf() - t0

        def step(args):
            now = perf()
            if t._pair_pos == 0:
                if t._step_start is not None:
                    t.samples["training.step"].append(now - t._step_start)
                t._step_start = now
            t._pair_pos ^= 1

        def interrupt_step(args):
            t._step_start = None
            t._pair_pos = 0

        def train_done(args, result):
            interrupt_step(args)
            t.counts["training.epochs"] += len(result[1].train_losses)

        def embedded(args):
            t._embedded.add(id(args[2]))

        def eval_start(args):
            t._embedded = set()

        def eval_done(args, result):
            t.counts["episodes.queries"] += result.n_queries * result.n_runs
            t.counts["episodes.distinct_embedded"] += len(t._embedded)

        def lstm_steps(args):
            t.counts["encoder.lstm_steps"] += int(args[2])

        # originals, taken before any patching so no wrapper wraps another
        forward, backward = encoder.omega_forward, gradients.backward_pair
        train, evaluate, encode = training.train, episodes.evaluate, data.encode
        data_fns = {a: getattr(data, a) for a in (
            "generate_synthetic", "sample_triplets", "write_jsonl", "load_jsonl", "read_records")}

        self._patch(encoder, "sigmoid", t.kernel("kernel.sigmoid", encoder.sigmoid))
        self._patch(encoder, "fc_forward", t.kernel("encoder.fc_forward", encoder.fc_forward))
        self._patch(encoder, "lstm_forward",
                    t.kernel("encoder.lstm_forward", encoder.lstm_forward, on_call=lstm_steps))
        self._patch(training, "omega_forward",
                    t.span("training.omega_forward", forward, sample=True, before=step))
        self._patch(episodes, "omega_forward",
                    t.span("episodes.omega_forward", forward, sample=True, before=embedded))
        self._patch(gradients, "omega_forward", t.span("gradients.omega_forward", forward, sample=True))
        self._patch(cli, "omega_forward", t.span("cli.omega_forward", forward, sample=True))
        self._patch(training, "backward_pair",
                    t.span("gradients.backward_pair", backward, sample=True, before=hinge))
        self._patch(training, "pair_loss",
                    t.span("training.pair_loss", training.pair_loss, before=interrupt_step))
        for module in (training, cli):
            self._patch(module, "train",
                        t.span("training.train", train, before=interrupt_step, after=train_done))
        for module in (episodes, cli):
            self._patch(module, "evaluate",
                        t.span("episodes.evaluate", evaluate, before=eval_start, after=eval_done))
        self._patch(episodes, "build_episode",
                    t.span("episodes.build_episode", episodes.build_episode))
        self._patch(episodes, "classify",
                    t.span("episodes.classify", episodes.classify, sample=True))
        for module in (data, cli):
            self._patch(module, "encode", t.kernel("data.encode", encode))
        for module in (data, cli):
            for attr in ("generate_synthetic", "sample_triplets", "write_jsonl"):
                self._patch(module, attr, t.span(f"data.{attr}", data_fns[attr]))
        for attr in ("load_jsonl", "read_records"):
            self._patch(cli, attr, t.span("data.load_jsonl", data_fns[attr]))
        for attr in ("save_checkpoint", "load_checkpoint"):
            self._patch(cli, attr, t.span(f"training.{attr}", getattr(training, attr)))
        return self

    # -- combining and reporting ---------------------------------------------

    def state(self):
        return {
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [list(s) for s in self.spans],
        }

    def absorb(self, state, weight=1.0):
        """Add another tracer's state; additive stores are scaled by weight,
        samples and spans are kept whole."""
        for store in ("time", "self_time", "counts"):
            mine = getattr(self, store)
            for k, v in state[store].items():
                mine[k] += weight * v
        for k, v in state["samples"].items():
            self.samples[k].extend(v)
        self.spans.extend(tuple(s) for s in state["spans"])


def _pct_us(samples, q):
    return float(np.percentile(samples, q)) * 1e6 if samples else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, cli_s: dict, overhead: float) -> dict:
    """Per-layer metric values, by name, from a combined tracer.

    cli_s maps "startup" and each command name to seconds per pipeline.
    """
    c, s = tr.counts, tr.time
    fwd_sites = [k for k in c if k.endswith(".omega_forward")]
    fwd_samples = [x for k in fwd_sites for x in tr.samples.get(k, ())]
    fwd_calls = sum(c[k] for k in fwd_sites)
    values = {
        "kernel.sigmoid_calls": c["kernel.sigmoid"],
        "kernel.sigmoid_s": s["kernel.sigmoid"],
        "data.generate_s": s["data.generate_synthetic"],
        "data.encode_calls": c["data.encode"],
        "data.encode_s": s["data.encode"],
        "data.sample_triplets_s": s["data.sample_triplets"],
        "data.load_jsonl_s": s["data.load_jsonl"],
        "data.write_jsonl_s": s["data.write_jsonl"],
        "encoder.forward_calls": fwd_calls,
        "encoder.forward_us_p50": _pct_us(fwd_samples, 50),
        "encoder.forward_us_p99": _pct_us(fwd_samples, 99),
        "encoder.fc_forward_s": s["encoder.fc_forward"],
        "encoder.lstm_forward_s": s["encoder.lstm_forward"],
        "encoder.lstm_steps": c["encoder.lstm_steps"],
        "encoder.lstm_us_per_step": _ratio(s["encoder.lstm_forward"], c["encoder.lstm_steps"]) * 1e6,
        "gradients.backward_calls": c["gradients.backward_pair"],
        "gradients.backward_us_p50": _pct_us(tr.samples["gradients.backward_pair"], 50),
        "gradients.backward_us_p99": _pct_us(tr.samples["gradients.backward_pair"], 99),
        "gradients.hinge_active_frac": _ratio(c["gradients.hinge_active"], c["gradients.backward_pair"]),
        "training.epochs": c["training.epochs"],
        "training.pairs": c["training.omega_forward"] / 2,
        "training.step_us_p50": _pct_us(tr.samples["training.step"], 50),
        "training.step_us_p99": _pct_us(tr.samples["training.step"], 99),
        "training.update_self_s": tr.self_time["training.train"],
        "training.val_s": s["training.pair_loss"],
        "training.save_checkpoint_s": s["training.save_checkpoint"],
        "training.load_checkpoint_s": s["training.load_checkpoint"],
        "episodes.build_episode_s": s["episodes.build_episode"],
        "episodes.query_us_p50": _pct_us(tr.samples["episodes.classify"], 50),
        "episodes.query_us_p99": _pct_us(tr.samples["episodes.classify"], 99),
        "episodes.forward_calls_per_query": _ratio(c["episodes.omega_forward"], c["episodes.queries"]),
        "episodes.unique_embed_ratio": _ratio(c["episodes.distinct_embedded"], c["episodes.omega_forward"]),
        # evaluate's own work plus classify's, i.e. scoring outside the
        # encoder forward and episode construction
        "episodes.score_self_s": tr.self_time["episodes.evaluate"] + tr.self_time["episodes.classify"],
        "cli.startup_s": cli_s.get("startup", 0.0),
        **{f"cli.{cmd}_s": cli_s.get(cmd, 0.0) for cmd in CLI_COMMANDS},
        "bench.trace_overhead_frac": overhead,
    }
    return values
