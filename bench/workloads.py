"""The benchmark's three workloads.

Each workload drives attrseq from outside, through its public functions or
its CLI, with inputs made from the workload seed. A workload has

- ``setup(seed)``: builds the inputs (timed as ``setup_s``) and returns a state;
- ``unit(state, k, tracer)``: one unit of work, timed by the run's ``Clock``
  and repeated for the run's measuring time; unit 0 is the warm-up whose
  outputs every later unit must reproduce;
- ``check(result, ref)``: output checks, as ``(label, ok)`` pairs, with
  ``setup_checks(states)`` for what the set-ups produced;
- ``metrics(states, ref, results)``: the end-to-end metrics other than
  ``setup_s`` and ``peak_rss_mb``, including the untimed quality probe.

Sizes are fixed per workload so every run does the same work; ``tiny``
shrinks them for the smoke check.
"""

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from attrseq import data, encoder, episodes, gradients, training
from attrseq.kernel import Rng

median = statistics.median

U, R, T_MAX = 10, 12, 15
# One-shot accuracy lands near 0.9: below the 1.0 of the clean demo data, so a
# change that hurts learning shows, and high enough that its spread over seeds
# (from the class geometry) stays small; around 0.6 it was ~0.2 of the median
ATTR_NOISE, SEQ_NOISE = 0.3, 0.3
TRAIN_FRACTION = 0.6  # of classes; the rest are unseen one-shot classes
MARGIN, DISTANCE = 1.0, "euclidean"  # the TrainConfig and CLI defaults


def _finite(xs):
    return all(math.isfinite(x) for x in xs)


def _per_run_ok(per_run, n_runs, n_queries):
    """per_run holds n_runs accuracies, each a whole number of queries."""
    return len(per_run) == n_runs and all(
        0.0 <= a <= 1.0 and abs(a * n_queries - round(a * n_queries)) < 1e-9 for a in per_run
    )


def _train_checks(report, epochs):
    return [
        ("losses finite", _finite(report.train_losses) and _finite(report.val_losses)),
        ("stop_reason is max_epochs", report.stop_reason == "max_epochs"),
        ("epoch count equals budget", len(report.train_losses) == epochs),
    ]


def _generate(s, seed):
    return data.generate_synthetic(s["classes"], s["per_class"], U, R, T_MAX,
                                   attr_noise=ATTR_NOISE, seq_noise=SEQ_NOISE, seed=seed)


def held_out_loss(params, cfg, records, meta, n_pairs, rng):
    """Mean contrastive loss of a trained model over pairs drawn afresh from
    the training classes: the validation loss, over enough pairs that pair
    sampling does not dominate its spread over seeds."""
    pairs = data.encode_triplets(data.sample_triplets(records, n_pairs, rng), meta)
    return float(np.mean([gradients.pair_loss(params, cfg, p.a, p.b, p.ell, MARGIN, DISTANCE)
                          for p in pairs]))


@dataclass
class Model:
    """Encoded inputs for an in-process workload."""

    cfg: object
    params: object
    triplets: list
    pool: list
    tcfg: object
    train_records: list
    meta: object


def _build_model(seed, s):
    """Generate, split, sample, encode and initialise, all from the seed."""
    rng = Rng(seed)
    records = _generate(s, rng.child("data").seed)
    meta = data.DatasetMeta(U, R, T_MAX, frozenset(range(s["classes"])))
    train_records, oneshot = data.split_by_class(records, TRAIN_FRACTION, rng.child("split"))
    triplets = data.encode_triplets(
        data.sample_triplets(train_records, s["triplets"], rng.child("triplets")), meta
    )
    cfg = encoder.ModelConfig()
    params = encoder.init_params(cfg, meta, rng.child("init"))
    pool = data.encode_labeled(oneshot, meta)
    # converge_eps=0 and patience=epochs fix the epoch budget, so every run
    # does the same work whatever the losses do
    tcfg = training.TrainConfig(max_epochs=s["epochs"], converge_eps=0.0, patience=s["epochs"],
                                seed=rng.child("train").seed)
    return Model(cfg, params, triplets, pool, tcfg, train_records, meta)


def _pairs(report):
    return report.n_train * len(report.train_losses)


class Workload:
    n_setup = 3

    def __init__(self, size, work, clock):
        self.s = self.SIZES[size]
        self.work = work
        self.clock = clock

    def setup_checks(self, states):
        return []

    def cli_seconds(self, traced):
        return {}


class TrainSgd(Workload):
    """In-process train() at the acceptance-gate model size, then a small
    evaluate() of the trained model on unseen classes."""

    n_setup = 5
    # one epoch keeps a unit near 1.5 s, so a run's median is over about ten
    # units: the machine's speed varies from one second to the next
    SIZES = {
        "full": dict(classes=10, per_class=120, triplets=800, epochs=1, g=4, queries=200,
                     runs=5, quality_pairs=2000),
        "tiny": dict(classes=6, per_class=20, triplets=40, epochs=1, g=2, queries=10, runs=2,
                     quality_pairs=20),
    }

    def setup(self, seed):
        return {"model": _build_model(seed, self.s), "rng": Rng(seed)}

    def unit(self, state, k, tracer=None):
        m, s = state["model"], self.s
        (best, report), t_train = self.clock.measure(
            lambda: training.train(m.params, m.cfg, m.triplets, m.tcfg))
        ev, t_eval = self.clock.measure(
            lambda: episodes.evaluate(best, m.cfg, DISTANCE, m.pool, s["g"], s["queries"],
                                      s["runs"], state["rng"].child("eval").seed))
        return {"time": t_train.scaled + t_eval.scaled, "raw": t_train.raw + t_eval.raw,
                "train_s": t_train.scaled, "eval_s": t_eval.scaled, "report": report, "eval": ev,
                "params": best}

    def check(self, r, ref):
        s = self.s
        out = _train_checks(r["report"], s["epochs"])
        out.append(("per_run well-formed", _per_run_ok(r["eval"].per_run, s["runs"], s["queries"])))
        if ref is not None:
            out.append(("training reproducible",
                        r["report"].train_losses == ref["report"].train_losses
                        and r["report"].val_losses == ref["report"].val_losses))
            out.append(("per_run reproducible", r["eval"].per_run == ref["eval"].per_run))
        return out

    def metrics(self, states, ref, results):
        s, m = self.s, states[-1]["model"]
        return {
            "train_pairs_per_s": _pairs(ref["report"]) / median(r["train_s"] for r in results),
            "val_loss_final": held_out_loss(ref["params"], m.cfg, m.train_records, m.meta,
                                            s["quality_pairs"], states[-1]["rng"].child("quality")),
            "oneshot_acc_median": ref["eval"].median,
            "eval_queries_per_s": s["queries"] * s["runs"] / median(r["eval_s"] for r in results),
            "eval_acc_median": ref["eval"].median,
            "pipeline_s": median(r["time"] for r in results),
        }


class OneshotEval(Workload):
    """In-process evaluate() with the criterion-5/6 episode shape over a model
    trained briefly during set-up."""

    n_setup = 5  # the set-up's training gives train_pairs_per_s here
    SIZES = {
        "full": dict(classes=10, per_class=120, triplets=800, epochs=1, g=4, queries=400,
                     runs=10, quality_pairs=2000),
        "tiny": dict(classes=6, per_class=20, triplets=40, epochs=1, g=2, queries=10, runs=2,
                     quality_pairs=20),
    }

    def setup(self, seed):
        m = _build_model(seed, self.s)
        (params, report), t_train = self.clock.measure(
            lambda: training.train(m.params, m.cfg, m.triplets, m.tcfg))
        return {"model": m, "params": params, "report": report, "train_s": t_train.scaled,
                "rng": Rng(seed)}

    def unit(self, state, k, tracer=None):
        # every unit evaluates the same episodes, so traced units repeat
        # their counts exactly and each checks reproducibility
        m, s = state["model"], self.s
        ev, t = self.clock.measure(
            lambda: episodes.evaluate(state["params"], m.cfg, DISTANCE, m.pool, s["g"],
                                      s["queries"], s["runs"], state["rng"].child("eval").seed))
        return {"time": t.scaled, "raw": t.raw, "eval": ev}

    def check(self, r, ref):
        s = self.s
        out = [("per_run well-formed", _per_run_ok(r["eval"].per_run, s["runs"], s["queries"]))]
        if ref is not None:
            out.append(("per_run reproducible", r["eval"].per_run == ref["eval"].per_run))
        return out

    def setup_checks(self, states):
        out = _train_checks(states[-1]["report"], self.s["epochs"])
        out.append(("set-up training reproducible",
                    all(st["report"].val_losses == states[0]["report"].val_losses for st in states)))
        return out

    def metrics(self, states, ref, results):
        s, st = self.s, states[-1]
        m = st["model"]
        return {
            "train_pairs_per_s": _pairs(st["report"]) / median(x["train_s"] for x in states),
            "val_loss_final": held_out_loss(st["params"], m.cfg, m.train_records, m.meta,
                                            s["quality_pairs"], st["rng"].child("quality")),
            "oneshot_acc_median": ref["eval"].median,
            "eval_queries_per_s": s["queries"] * s["runs"] / median(r["time"] for r in results),
            "eval_acc_median": ref["eval"].median,
            "pipeline_s": median(r["time"] for r in results),
        }


class CliPipeline(Workload):
    """The CLI's gen, train, eval and embed commands, each in its own process,
    over a large dataset and a small model; every unit reruns them in a fresh
    directory.

    ``gradcheck`` is left out: ``attrseq gradcheck --trials 10`` exits 4 for
    about one seed in eleven, because its relative-error test fails on
    gradients near 1e-8 where central differences are limited by round-off.
    A workload must be one on which no operation fails, and the benchmark
    cannot change the tolerance.
    """

    ARTIFACTS = ("data.jsonl", "data.meta.json", "model.json", "metrics.csv", "manifest.json",
                 "eval.json", "eval.csv", "embeddings.csv")
    SIZES = {
        "full": dict(classes=10, per_class=1000, triplets=800, width=20, epochs=1, g=4,
                     queries=100, runs=10, embed_per_class=100, quality_pairs=2000),
        "tiny": dict(classes=6, per_class=20, triplets=40, width=4, epochs=1, g=2, queries=10,
                     runs=2, embed_per_class=3, quality_pairs=20),
    }

    def __init__(self, size, work, clock):
        super().__init__(size, work, clock)
        self.bench_dir = Path(__file__).resolve().parent
        src = self.bench_dir.parent / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src) + (
            ":" + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def setup(self, seed):
        """A fresh work directory and the file of new records to embed."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = Rng(seed)
        new_records = _generate(dict(self.s, per_class=self.s["embed_per_class"]),
                                rng.child("embed").seed)
        data.write_jsonl(new_records, self.work / "new_records.jsonl")
        seeds = {c: str(rng.child(c).seed) for c in ("gen", "train", "eval")}
        return {"seeds": seeds, "rng": rng}

    def _commands(self, state):
        s, seeds = self.s, state["seeds"]
        w = str(s["width"])
        return [
            ("gen", ["gen", "--classes", str(s["classes"]), "--per-class", str(s["per_class"]),
                     "--u", str(U), "--r", str(R), "--t-max", str(T_MAX),
                     "--attr-noise", str(ATTR_NOISE), "--seq-noise", str(SEQ_NOISE),
                     "--seed", seeds["gen"], "--out", "data.jsonl"]),
            ("train", ["train", "--data", "data.jsonl", "--triplets", str(s["triplets"]),
                       "--seed", seeds["train"], "--fc-width", w, "--lstm-width", w,
                       "--embed-dim", w, "--epochs", str(s["epochs"]),
                       "--patience", str(s["epochs"]), "--converge-eps", "0",
                       "--checkpoint", "model.json", "--metrics", "metrics.csv",
                       "--manifest", "manifest.json"]),
            ("eval", ["eval", "--checkpoint", "model.json", "--data", "data.jsonl",
                      "--manifest", "manifest.json", "--g", str(s["g"]),
                      "--queries", str(s["queries"]), "--runs", str(s["runs"]),
                      "--seed", seeds["eval"], "--out-json", "eval.json", "--out-csv", "eval.csv"]),
            ("embed", ["embed", "--checkpoint", "model.json", "--data", "../new_records.jsonl",
                       "--out", "embeddings.csv"]),
        ]

    def unit(self, state, k, tracer=None):
        run_dir = self.work / f"run{k}"
        run_dir.mkdir()
        times, raws, codes, stdout, startup = {}, {}, {}, {}, 0.0
        for name, argv in self._commands(state):
            if tracer is None:
                cmd = [sys.executable, "-m", "attrseq.cli", *argv]
            else:
                # the command's span id goes to the child, for its top-level spans
                span = tracer.reserve_id()
                trace_file = run_dir / f"{name}.trace.json"
                cmd = [sys.executable, str(self.bench_dir / "cli_child.py"), str(trace_file),
                       "SPAWN", str(span), *argv]

            def spawn():
                # the child measures its start-up from this moment
                stamped = [repr(time.perf_counter()) if a == "SPAWN" else a for a in cmd]
                return subprocess.run(stamped, cwd=run_dir, env=self.env, capture_output=True,
                                      text=True, timeout=170)

            proc, t = self.clock.measure(spawn)
            times[name], raws[name] = t.scaled, t.raw
            codes[name], stdout[name] = proc.returncode, proc.stdout
            if proc.returncode != 0:
                sys.stderr.write(f"{name} exited {proc.returncode}: {proc.stderr}")
            if tracer is not None:
                tracer.add_span(span, f"cli.{name}", t.start, t.start + t.raw)
                if trace_file.exists():
                    child = json.loads(trace_file.read_text())
                    tracer.absorb(child["tracer"])
                    startup += child["startup_s"]
        digests = {}
        for a in self.ARTIFACTS:
            p = run_dir / a
            digests[a] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
        eval_json = run_dir / "eval.json"
        ev = json.loads(eval_json.read_text()) if eval_json.exists() else {}
        if k > 0:  # the warm-up's files stay for the quality probe
            shutil.rmtree(run_dir)
        return {"time": sum(times.values()), "raw": sum(raws.values()), "times": times,
                "raws": raws, "codes": codes, "stdout": stdout, "startup_s": startup,
                "digests": digests, "eval": ev, "dir": run_dir}

    def _pairs(self, r):
        # "trained N+M triplets": N training pairs per epoch
        words = r["stdout"].get("train", "").split()
        n_train = int(words[1].split("+")[0]) if len(words) > 1 and "+" in words[1] else 0
        return n_train * self.s["epochs"]

    def check(self, r, ref):
        s = self.s
        out = [(f"{name} exit code 0", code == 0) for name, code in r["codes"].items()]
        out.append(("train stops at max_epochs", "stop=max_epochs" in r["stdout"].get("train", "")))
        out.append(("per_run well-formed",
                    _per_run_ok(r["eval"].get("per_run", []), s["runs"], s["queries"])))
        if ref is not None:
            for a in self.ARTIFACTS:
                out.append((f"{a} byte-identical on rerun",
                            r["digests"][a] is not None and r["digests"][a] == ref["digests"][a]))
        return out

    def _held_out_loss(self, state, ref):
        """The in-process workloads' quality probe, on the warm-up's
        checkpoint and the training classes of its dataset."""
        params, cfg, meta, _ = training.load_checkpoint(ref["dir"] / "model.json")
        records, _ = data.load_jsonl(ref["dir"] / "data.jsonl")
        manifest = json.loads((ref["dir"] / "manifest.json").read_text())
        train_classes = set(manifest["train_classes"])
        train_records = [rec for rec in records if rec.label in train_classes]
        return held_out_loss(params, cfg, train_records, meta, self.s["quality_pairs"],
                             state["rng"].child("quality"))

    def metrics(self, states, ref, results):
        s = self.s
        return {
            "train_pairs_per_s": self._pairs(ref) / median(r["times"]["train"] for r in results),
            "val_loss_final": self._held_out_loss(states[-1], ref),
            "oneshot_acc_median": ref["eval"]["median"],
            "eval_queries_per_s": s["queries"] * s["runs"] / median(r["times"]["eval"]
                                                                    for r in results),
            "eval_acc_median": ref["eval"]["median"],
            "pipeline_s": median(r["time"] for r in results),
        }

    def cli_seconds(self, traced):
        """Mean raw seconds per pipeline of start-up and of each command."""
        if not traced:
            return {}
        out = {"startup": float(np.mean([r["startup_s"] for r in traced]))}
        for name in traced[0]["raws"]:
            out[name] = float(np.mean([r["raws"][name] for r in traced]))
        return out


WORKLOADS = {"train_sgd": TrainSgd, "oneshot_eval": OneshotEval, "cli_pipeline": CliPipeline}
