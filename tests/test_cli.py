import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attrseq import cli, encoder
from attrseq.cli import main
from attrseq.data import _broken_rule, companion_path, read_records, sidecar_path, write_jsonl
from attrseq.encoder import MAX_FC_DEPTH
from attrseq.training import TrainConfig, load_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


def run_under_kernel(coretype, cwd, *argv):
    """`attrseq argv` in a new process, since a process picks its OpenBLAS
    kernel when it loads numpy, under `coretype` with one BLAS thread."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "attrseq.cli", *map(str, argv)],
                   cwd=cwd, env=env, check=True, capture_output=True)


def gen_dataset(tmp_path, classes=6, per_class=8, seed=7, **extra):
    out = tmp_path / "data.jsonl"
    argv = ["gen", "--classes", classes, "--per-class", per_class,
            "--u", 3, "--r", 4, "--t-max", 5, "--seed", seed, "--out", out]
    for flag, val in extra.items():
        argv += [f"--{flag.replace('_', '-')}", val]
    assert run(*argv) == 0
    return out


def train_small(tmp_path, data, seed=3, **extra):
    ckpt = tmp_path / "ckpt.json"
    metrics = tmp_path / "metrics.csv"
    manifest = tmp_path / "manifest.json"
    argv = ["train", "--data", data, "--triplets", 12, "--seed", seed,
            "--fc-depth", 1, "--fc-width", 4, "--lstm-width", 4, "--embed-dim", 4,
            "--epochs", 2, "--checkpoint", ckpt, "--metrics", metrics,
            "--manifest", manifest]
    for flag, val in extra.items():
        argv += [f"--{flag.replace('_', '-')}", val]
    assert run(*argv) == 0
    return ckpt, metrics, manifest


class TestGen:
    def test_writes_jsonl_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert run("gen", "--classes", 10, "--per-class", 120, "--seed", 7,
                   "--out", out) == 0
        assert len(out.read_text().splitlines()) == 1200
        sidecar = json.loads((tmp_path / "data.meta.json").read_text())
        assert sidecar == {"u": 10, "r": 12, "t_max": 15}
        assert "1200 records" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = gen_dataset(tmp_path / "a", seed=9) if (tmp_path / "a").mkdir() is None else None
        b = gen_dataset(tmp_path / "b", seed=9) if (tmp_path / "b").mkdir() is None else None
        assert a.read_bytes() == b.read_bytes()

    def test_single_class_is_usage_error(self, tmp_path, capsys):
        assert run("gen", "--classes", 1, "--seed", 0,
                   "--out", tmp_path / "x.jsonl") == 1
        assert "classes" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        assert run("gen", "--classes", 4, "--out", tmp_path / "x.jsonl") == 1

    def test_one_hot_beyond_limit_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run("gen", "--r", 10**12, "--seed", 1, "--out", out) == 1
        assert "one-hot size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_attr_noise_is_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "d.jsonl"
        assert run("gen", "--attr-noise", noise, "--seed", 1, "--out", out) == 1
        assert "attr_noise must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, tmp_path):
        assert run("gen", "--classes", 4, "--seed", 0,
                   "--out", tmp_path / "missing_dir" / "x.jsonl") == 2

    def test_standardize_flag(self, tmp_path):
        import numpy as np

        out2 = tmp_path / "std.jsonl"
        assert run("gen", "--classes", 6, "--per-class", 8, "--u", 3, "--r", 4,
                   "--t-max", 5, "--seed", 7, "--standardize-attrs",
                   "--out", out2) == 0
        from attrseq.data import load_jsonl

        records, _ = load_jsonl(out2)
        stack = np.stack([r.attributes for r in records])
        assert np.max(np.abs(stack.mean(axis=0))) < 1e-9


class TestTrain:
    def test_outputs(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpt, metrics, manifest = train_small(tmp_path, data)
        params, cfg, meta, info = load_checkpoint(ckpt)
        assert cfg.n == 4 and meta.u == 3
        assert info["distance"] == "euclidean" and info["triplets"] == 12
        lines = metrics.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert 1 <= len(lines) - 1 <= 2  # at most --epochs rows
        m = json.loads(manifest.read_text())
        assert len(m["train_classes"]) == 4 and len(m["oneshot_classes"]) == 2
        assert set(m["train_classes"]).isdisjoint(m["oneshot_classes"])

    def test_distance_and_grad_mode_recorded_and_echoed(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data, distance="manhattan",
                                 grad_mode="paper-literal")
        *_, info = load_checkpoint(ckpt)
        assert info["distance"] == "manhattan"
        assert info["grad_mode"] == "paper-literal"
        out = capsys.readouterr().out
        assert "distance=manhattan" in out and "grad_mode=paper-literal" in out

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "nope.jsonl", "--seed", 1) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "max_epochs must be >= 1, got 0"),
        (["--fc-width", "0"], "all model dimensions must be >= 1, got ModelConfig(m=3, n_m=0, "
                              "n_l=50, n=50, activation='tanh', branch_mode='both')"),
        (["--lr", "-1"], "lr must be >= 0, got -1.0"),
        (["--patience", "0"], "patience must be >= 1, got 0"),
        (["--triplets", "0"], "n_triplets must be positive, got 0"),
        (["--train-fraction", "1.5"], "train_fraction must be in (0, 1), got 1.5"),
        (["--positive-fraction", "2"], "positive_fraction must be in [0, 1], got 2.0"),
        (["--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
    ], ids=["zero-epochs", "zero-fc-width", "negative-lr", "zero-patience", "zero-triplets",
            "train-fraction-above-1", "positive-fraction-above-1", "negative-seed"])
    def test_bad_model_or_trainer_flag_is_one_line_usage_error(self, tmp_path, capsys, flags, message):
        # refused before any input is read: the dataset does not exist
        out = tmp_path / "out"
        assert run("train", "--data", tmp_path / "missing.jsonl", "--seed", 1, *flags,
                   "--checkpoint", out, "--metrics", out, "--manifest", out) == 1
        assert capsys.readouterr() == ("", f"attrseq: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["flag", "config"])
    def test_depth_bound_at_every_entry(self, tmp_path, capsys, entry):
        # the deepest stack trains, saves and embeds; one layer more is
        # refused by the flag or a config file before --data is read (exit 1)
        # and by a checkpoint header (exit 5)
        def depth(m):
            if entry == "flag":
                return ["--fc-depth", m]
            (tmp_path / "train.json").write_text(json.dumps({"fc_depth": m}))
            return ["--config", tmp_path / "train.json"]

        data, ckpt, out = gen_dataset(tmp_path), tmp_path / "c.json", tmp_path / "out"
        assert run("train", "--data", data, "--triplets", 12, "--seed", 3, "--fc-width", 1,
                   "--lstm-width", 4, "--embed-dim", 4, "--epochs", 1, "--checkpoint", ckpt,
                   "--metrics", out, "--manifest", out, *depth(MAX_FC_DEPTH)) == 0
        assert len(load_checkpoint(ckpt)[0].fc_w) == MAX_FC_DEPTH
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 0
        capsys.readouterr()
        refused = f"fully connected depth m={MAX_FC_DEPTH + 1} is above the limit of {MAX_FC_DEPTH}"
        assert run("train", "--data", tmp_path / "missing.jsonl", "--seed", 1,
                   *depth(MAX_FC_DEPTH + 1), "--checkpoint", tmp_path / "refused.json") == 1
        assert capsys.readouterr() == ("", f"attrseq: error: {refused}\n")
        assert not (tmp_path / "refused.json").exists()
        envelope = json.loads(ckpt.read_text())
        envelope["config"]["m"] = MAX_FC_DEPTH + 1
        ckpt.write_text(json.dumps(envelope))
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "e.csv") == 5
        assert capsys.readouterr() == ("", f"attrseq: error: corrupt checkpoint {ckpt}: {refused}\n")

    def test_training_buffers_above_the_cell_bound_exit_1(self, tmp_path, capsys, monkeypatch):
        # sequences of up to 15 steps: the buffers of two rows of width 4
        # need 32 values a step, above the store's 196 from 7 steps on
        data = gen_dataset(tmp_path, t_max=15)
        monkeypatch.setattr(encoder, "MAX_PARAM_CELLS", 196)
        assert run("train", "--data", data, "--triplets", 12, "--seed", 3, "--fc-depth", 1,
                   "--fc-width", 4, "--lstm-width", 4, "--embed-dim", 4,
                   "--checkpoint", tmp_path / "c.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("attrseq: error: the LSTM buffers for ") and len(err.splitlines()) == 1
        assert "steps of 2 rows need" in err and "above the limit of 196 per array" in err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("edit", ["nan-attr", "bool-label", "label-above-int64",
                                      "bad-sidecar"])
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, edit):
        data = gen_dataset(tmp_path)
        if edit == "bad-sidecar":
            (tmp_path / "data.meta.json").write_text('{"u": 3, "r":')
        else:
            lines = data.read_text().splitlines()
            rec = json.loads(lines[4])
            if edit == "nan-attr":
                rec["attrs"][1] = float("nan")
            else:
                rec["label"] = True if edit == "bool-label" else 2**63
            lines[4] = json.dumps(rec)
            data.write_text("\n".join(lines) + "\n")
        assert run("train", "--data", data, "--triplets", 12, "--seed", 3,
                   "--checkpoint", tmp_path / "c.json") == 2
        err = capsys.readouterr().err
        assert ("sidecar" if edit == "bad-sidecar" else "line 5") in err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("route", ["item-id", "sidecar"])
    def test_one_hot_beyond_limit_exits_2(self, tmp_path, capsys, route):
        data = gen_dataset(tmp_path)
        if route == "sidecar":
            (tmp_path / "data.meta.json").write_text('{"r": 1000000000000}')
        else:
            lines = data.read_text().splitlines()
            rec = json.loads(lines[4])
            rec["seq"] = [1000000000000]
            lines[4] = json.dumps(rec)
            data.write_text("\n".join(lines) + "\n")
        assert run("train", "--data", data, "--triplets", 12, "--seed", 3,
                   "--checkpoint", tmp_path / "c.json") == 2
        err = capsys.readouterr().err
        assert ("data.meta.json" if route == "sidecar" else "line 5") in err
        assert "limit" in err and "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        data = gen_dataset(tmp_path)
        cfg_file = tmp_path / "train.json"
        cfg_file.write_text(json.dumps({
            "triplets": 12, "fc-depth": 1, "fc_width": 4, "lstm_width": 4,
            "embed_dim": 4, "epochs": 2, "distance": "manhattan",
            "checkpoint": str(tmp_path / "c.json"),
            "metrics": str(tmp_path / "m.csv"),
            "manifest": str(tmp_path / "man.json"),
        }))
        assert run("train", "--data", data, "--seed", 3, "--config", cfg_file,
                   "--distance", "euclidean") == 0
        *_, info = load_checkpoint(tmp_path / "c.json")
        assert info["distance"] == "euclidean"  # flag beats file
        assert info["triplets"] == 12  # file beats default

    def test_required_flags_from_config(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        cfg_file = tmp_path / "train.json"
        cfg_file.write_text(json.dumps({
            "data": str(data), "seed": 3, "triplets": 12, "fc_depth": 1, "fc_width": 4,
            "lstm_width": 4, "embed_dim": 4, "epochs": 2, "checkpoint": str(tmp_path / "c.json"),
            "metrics": str(tmp_path / "m.csv"), "manifest": str(tmp_path / "man.json"),
        }))
        assert run("train", "--config", cfg_file) == 0
        assert (tmp_path / "c.json").read_bytes() == ckpt.read_bytes()
        capsys.readouterr()
        # a required flag that neither the file nor argv gives
        cfg_file.write_text(json.dumps({"data": str(data)}))
        assert run("train", "--config", cfg_file) == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: --seed" in err
        assert err.startswith("attrseq: error:") and len(err.splitlines()) == 1, err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run("gen", "--seed", 0, "--out", tmp_path / "x.jsonl", "--config", missing) == 2
        err = capsys.readouterr().err
        assert err.startswith("attrseq: error:") and len(err.splitlines()) == 1, err
        assert str(missing) in err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("before", [["train"], ["-h", "train"]], ids=["command", "top"])
    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_help_does_not_read_config(self, tmp_path, capsys, before, content):
        cfg_file = tmp_path / "c.json"
        if content is not None:
            cfg_file.write_text(content)
        assert run(*before, "--config", cfg_file, *(["-h"] if before == ["train"] else [])) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: attrseq") and err == ""

    def test_config_unknown_key_is_usage_error(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text('{"tripletz": 9}')
        assert run("train", "--data", data, "--seed", 3, "--config", cfg_file) == 1
        assert "tripletz" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"triplets": "ten"}, "invalid int value: 'ten'"),
        ({"triplets": True}, "must be a number or a string"),
        ({"triplets": 12.5}, "invalid int value: '12.5'"),
        ({"distance": "cosine"}, "invalid choice: 'cosine'"),
        ({"lr": [0.1]}, "must be a number or a string"),
    ], ids=["string-for-int", "bool-for-int", "float-for-int", "bad-choice", "list"])
    def test_config_value_is_type_checked(self, tmp_path, capsys, entry, message):
        data = gen_dataset(tmp_path)
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(entry))
        assert run("train", "--data", data, "--seed", 3, "--config", cfg_file) == 1
        err = capsys.readouterr().err
        assert message in err
        # one line naming the file, without argparse's usage text
        assert err.startswith(f"attrseq: error: config {cfg_file}: ") and len(err.splitlines()) == 1

    def test_config_switch_must_be_boolean(self, tmp_path, capsys):
        cfg_file = tmp_path / "gen.json"
        cfg_file.write_text('{"standardize_attrs": 1}')
        assert run("gen", "--classes", 4, "--seed", 0, "--out", tmp_path / "x.jsonl",
                   "--config", cfg_file) == 1
        assert "true or false" in capsys.readouterr().err
        cfg_file.write_text('{"standardize-attrs": true, "attr_noise": 0.5}')
        assert run("gen", "--classes", 4, "--per-class", 20, "--seed", 0,
                   "--out", tmp_path / "y.jsonl", "--config", cfg_file) == 0
        assert run("gen", "--classes", 4, "--per-class", 20, "--seed", 0, "--attr-noise", 0.5,
                   "--standardize-attrs", "--out", tmp_path / "z.jsonl") == 0
        assert (tmp_path / "y.jsonl").read_bytes() == (tmp_path / "z.jsonl").read_bytes()


class TestTrainFailure:
    def test_divergence_exits_3(self, tmp_path, capsys):
        import warnings

        data = gen_dataset(tmp_path, classes=4, per_class=6, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run("train", "--data", data, "--triplets", 8, "--seed", 2,
                     "--fc-depth", 2, "--fc-width", 4, "--lstm-width", 4,
                     "--embed-dim", 4, "--activation", "relu", "--lr", 1e300,
                     "--l2", 0, "--epochs", 3,
                     "--checkpoint", tmp_path / "c.json",
                     "--metrics", tmp_path / "m.csv",
                     "--manifest", tmp_path / "man.json")
        assert rc == 3
        err = capsys.readouterr().err
        assert "epoch 1" in err and "triplet" in err


    def test_divergence_first_seen_by_the_validation_pass_exits_3(self, tmp_path, capsys):
        import warnings

        data = gen_dataset(tmp_path, classes=4, per_class=20, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run("train", "--data", data, "--triplets", 2, "--epochs", 2, "--lr", 1e300,
                     "--seed", 1, "--checkpoint", tmp_path / "c.json",
                     "--metrics", tmp_path / "m.csv", "--manifest", tmp_path / "man.json")
        assert rc == 3
        assert capsys.readouterr().err.strip() == (
            "attrseq: error: non-finite parameters after the last update of epoch 2")
        assert not (tmp_path / "c.json").exists()

    def test_parameter_store_above_the_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        # 8 records of one item each: t_max*r = 4,000,001 passes the one-hot
        # limit, but the default model's LSTM kernels would hold 800 million
        # values; the bound is met before any triplet is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("sample_triplets ran before the parameter bound")

        monkeypatch.setattr(cli, "sample_triplets", refuse)
        data = tmp_path / "wide.jsonl"
        data.write_text("".join(
            '{"attrs":[%d,0.5,-1],"seq":[%d],"label":%d}\n' % (k, 4_000_000 if k == 5 else k, k % 4)
            for k in range(8)))
        ckpt = tmp_path / "c.json"
        assert run("train", "--data", data, "--triplets", 10, "--seed", 1,
                   "--checkpoint", ckpt, "--metrics", tmp_path / "m.csv",
                   "--manifest", tmp_path / "man.json") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "need 800020750 values, above the limit of 16777216" in err
        assert not ckpt.exists()


class TestGradcheck:
    def test_default_pass(self, capsys):
        assert run("gradcheck", "--trials", 4, "--seed", 1) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS max_rel_err=")
        assert "< 1e-04" in out

    def test_deterministic_output(self, capsys):
        assert run("gradcheck", "--trials", 3, "--seed", 50) == 0
        first = capsys.readouterr().out
        assert run("gradcheck", "--trials", 3, "--seed", 50) == 0
        assert capsys.readouterr().out == first

    def test_surrogate_mode_exempt(self, capsys):
        assert run("gradcheck", "--trials", 3, "--seed", 1,
                   "--grad-mode", "paper-literal") == 0
        assert capsys.readouterr().out.startswith("EXEMPT")

    def test_zero_trials_usage_error(self):
        assert run("gradcheck", "--trials", 0, "--seed", 1) == 1

    @pytest.mark.parametrize("step", ["inf", "nan", "0"])
    def test_unusable_step_is_usage_error(self, capsys, step):
        assert run("gradcheck", "--trials", 1, "--seed", 1, "--step", step) == 1
        err = capsys.readouterr().err
        assert err == f"attrseq: error: step must be a finite positive number, got {float(step)}\n"

    def test_failure_exits_4_naming_worst_coordinate(self, capsys, monkeypatch):
        import attrseq.cli as cli_mod

        def fake_suite(**kwargs):
            return {
                "mode": "exact", "trials": [], "max_rel_err": 0.5,
                "worst": {"tensor": "w_p", "index": 3, "analytic": 1.0, "numeric": 0.25},
                "tolerance": 1e-4, "exempt": False, "passed": False,
            }

        monkeypatch.setattr(cli_mod, "gradcheck_suite", fake_suite)
        assert run("gradcheck", "--trials", 2, "--seed", 1) == 4
        err = capsys.readouterr().err
        assert "w_p" in err and "index=3" in err and "analytic=1.0" in err


class TestEval:
    def setup_artifacts(self, tmp_path):
        data = gen_dataset(tmp_path, classes=6, per_class=10)
        ckpt, _, manifest = train_small(tmp_path, data)
        return data, ckpt, manifest

    def test_eval_outputs(self, tmp_path, capsys):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        out_json = tmp_path / "eval.json"
        out_csv = tmp_path / "eval.csv"
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--g", 2, "--queries", 10, "--runs", 3, "--seed", 5,
                   "--out-json", out_json, "--out-csv", out_csv) == 0
        payload = json.loads(out_json.read_text())
        assert payload["G"] == 2 and payload["n_queries"] == 10 and payload["n_runs"] == 3
        assert len(payload["per_run"]) == 3
        assert payload["p25"] <= payload["median"] <= payload["p75"]
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "g,queries,runs,distance,median,p25,p75"
        assert len(lines) == 2

    def test_required_flags_from_config(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        common = ["--g", 2, "--queries", 10, "--runs", 3]
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--seed", 5, *common, "--out-json", tmp_path / "flags.json",
                   "--out-csv", tmp_path / "flags.csv") == 0
        cfg_file = tmp_path / "eval_config.json"
        cfg_file.write_text(json.dumps({"checkpoint": str(ckpt), "data": str(data),
                                        "manifest": str(manifest), "seed": 5}))
        assert run("eval", "--config", cfg_file, *common, "--out-json", tmp_path / "file.json",
                   "--out-csv", tmp_path / "file.csv") == 0
        for ext in ("json", "csv"):
            assert (tmp_path / f"file.{ext}").read_bytes() == (tmp_path / f"flags.{ext}").read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--runs", "0"], "argument --runs: must be >= 1, got 0"),
        (["--sweep-triplets", "0,5"], "argument --sweep-triplets: must be >= 1, got 0"),
        (["--sweep-triplets", ""], "argument --sweep-triplets: invalid positive_ints value: ''"),
        (["--sweep-triplets", "20,20"], "argument --sweep-triplets: repeats a count: 20,20"),
        (["--g", "0"], "argument --g: must be >= 1, got 0"),
    ], ids=["zero-runs", "zero-count", "empty-counts", "repeated-count", "zero-g"])
    def test_bad_count_flag_is_one_line_usage_error(self, tmp_path, capsys, flags, message):
        # refused while parsing, before any input is read
        out = tmp_path / "out"
        assert run("eval", "--checkpoint", tmp_path / "c.json", "--data", tmp_path / "d.jsonl",
                   "--manifest", tmp_path / "m.json", "--seed", 5, *flags,
                   "--out-json", out, "--out-csv", out) == 1
        assert capsys.readouterr().err == f"attrseq: error: {message}\n"
        assert not out.exists()

    def test_bad_seed_is_one_line_usage_error_before_any_read(self, tmp_path, capsys):
        # the checkpoint, dataset and manifest do not exist
        out = tmp_path / "out"
        assert run("eval", "--checkpoint", tmp_path / "c.json", "--data", tmp_path / "d.jsonl",
                   "--manifest", tmp_path / "m.json", "--seed", -1,
                   "--out-json", out, "--out-csv", out) == 1
        assert capsys.readouterr() == (
            "", "attrseq: error: seed must be a 64-bit unsigned integer, got -1\n")
        assert not out.exists()

    def test_zero_queries_usage_error(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--queries", 0, "--seed", 5) == 1

    def test_manifest_mismatch_exit_5(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps({"train_classes": [0, 1], "oneshot_classes": [2]}))
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", bad,
                   "--queries", 4, "--runs", 2, "--seed", 5) == 5

    @pytest.mark.parametrize("classes", [3, "0,1", [0, "1"], [0, True], None, [0, 2**63]],
                             ids=["int", "string", "string-item", "bool-item", "null",
                                  "item-above-int64"])
    def test_wrong_typed_manifest_exit_5(self, tmp_path, capsys, classes):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps({"train_classes": classes, "oneshot_classes": [4, 5]}))
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", bad,
                   "--queries", 4, "--runs", 2, "--seed", 5) == 5
        assert "'train_classes' must be a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("oneshot, message", [
        ([], "'oneshot_classes' is empty"),
        ([0, 4, 5], "classes [0] are both training and one-shot"),
    ], ids=["empty", "overlapping"])
    def test_unusable_oneshot_classes_exit_5(self, tmp_path, capsys, oneshot, message):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        bad = tmp_path / "bad_manifest.json"
        train_classes = [0, 1, 2, 3] + ([4, 5] if not oneshot else [])
        bad.write_text(json.dumps({"train_classes": train_classes, "oneshot_classes": oneshot}))
        out = tmp_path / "eval.json"
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", bad,
                   "--g", 2, "--queries", 4, "--runs", 2, "--seed", 5,
                   "--out-json", out, "--out-csv", out) == 5
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_checkpoint_dataset_mismatch_exit_5(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        wide = tmp_path / "wide.jsonl"
        assert run("gen", "--classes", 6, "--per-class", 8, "--u", 4, "--r", 4,
                   "--t-max", 5, "--seed", 7, "--out", wide) == 0
        assert run("eval", "--checkpoint", ckpt, "--data", wide,
                   "--manifest", manifest, "--queries", 4, "--runs", 2, "--seed", 5) == 5

    def test_dataset_alphabet_beyond_checkpoint_exit_5(self, tmp_path, capsys):
        demo = Path(__file__).resolve().parents[1] / "demo_run"
        wide = tmp_path / "r13.jsonl"
        assert run("gen", "--classes", 2, "--per-class", 3, "--r", 13, "--seed", 1, "--out", wide) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run("eval", "--checkpoint", demo / "model.json", "--data", wide,
                   "--manifest", demo / "manifest.json", "--seed", 5,
                   "--out-json", out, "--out-csv", out) == 5
        assert capsys.readouterr() == (
            "", "attrseq: error: record does not fit checkpoint encoding: item id 12 out of range for r=12\n")
        assert not out.exists()

    def test_sweep_writes_curve(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        out_csv = tmp_path / "sweep.csv"
        out_json = tmp_path / "sweep.json"
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--g", 2, "--queries", 8, "--runs", 2, "--seed", 5,
                   "--sweep-triplets", "6,10,14", "--out-csv", out_csv,
                   "--out-json", out_json) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "triplets,median,p25,p75"
        assert len(lines) == 4
        payload = json.loads(out_json.read_text())
        assert [row["triplets"] for row in payload] == [6, 10, 14]

    def test_sweep_bad_counts_usage_error(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--seed", 5, "--sweep-triplets", "ten") == 1


    @staticmethod
    def spy_on_train(monkeypatch):
        """The TrainConfig of every `cli.train` call from now on, in call order."""
        import attrseq.cli as cli_mod

        seen, real_train = [], cli_mod.train

        def spy(params, cfg, triplets, tcfg):
            seen.append(tcfg)
            return real_train(params, cfg, triplets, tcfg)

        monkeypatch.setattr(cli_mod, "train", spy)
        return seen

    def test_sweep_retrains_with_the_train_settings(self, tmp_path, monkeypatch):
        seen = self.spy_on_train(monkeypatch)
        data = gen_dataset(tmp_path, classes=6, per_class=10)
        ckpt, _, manifest = train_small(
            tmp_path, data, lr=0.02, margin=0.5, l2=0, val_fraction=0.3, patience=1,
            converge_eps=0, distance="manhattan", grad_mode="paper-literal", activation="relu")
        (trained,) = seen
        defaults = TrainConfig()
        assert all(getattr(trained, f.name) != getattr(defaults, f.name)
                   for f in dataclasses.fields(TrainConfig) if f.name != "seed")
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--g", 2, "--queries", 4, "--runs", 1, "--seed", 5, "--sweep-triplets", "6,8",
                   "--out-csv", tmp_path / "s.csv", "--out-json", tmp_path / "s.json") == 0
        assert len(seen) == 3
        for swept in seen[1:]:
            assert swept.seed != trained.seed
            assert dataclasses.replace(swept, seed=trained.seed) == trained

    def test_sweep_without_train_settings_uses_defaults(self, tmp_path, monkeypatch):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        envelope = json.loads(ckpt.read_text())
        envelope["train"] = {}
        ckpt.write_text(json.dumps(envelope))
        seen = self.spy_on_train(monkeypatch)
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--g", 2, "--queries", 4, "--runs", 1, "--seed", 5, "--sweep-triplets", "4",
                   "--out-csv", tmp_path / "s.csv", "--out-json", tmp_path / "s.json") == 0
        (swept,) = seen
        assert dataclasses.replace(swept, seed=0) == TrainConfig()


class TestEmbed:
    def test_rows_are_label_plus_embedding(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["label", "e0", "e1", "e2", "e3"]
        assert len(lines) == 1 + 48  # 6 classes x 8
        assert all(len(l.split(",")) == 5 for l in lines[1:])

    def test_empty_dataset_header_only(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", empty, "--out", out) == 0
        assert out.read_text() == "label,e0,e1,e2,e3\n"

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        # a format error is exit 2, not the exit 5 of a record that does not fit
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        lines = data.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["attrs"][0] = float("nan")
        lines[1] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 2
        assert capsys.readouterr().err == "attrseq: error: line 2: attributes must be finite numbers\n"
        assert not out.exists()

    @pytest.mark.parametrize("companion", [True, False], ids=["companion", "parsed"])
    def test_unlabeled_rows_get_an_empty_label(self, tmp_path, companion):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        records = read_records(data)
        unlabeled = {0, 3, 9, 47}  # record 0 has label 0, the labels array's placeholder
        assert records[0].label == 0
        for k in unlabeled:
            records[k].label = None
        mixed = tmp_path / "mixed.jsonl"
        write_jsonl(records, mixed)
        if not companion:
            companion_path(mixed).unlink()
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", mixed, "--out", out) == 0
        got = [row.split(",")[0] for row in out.read_text().splitlines()[1:]]
        assert got == ["" if k in unlabeled else str(rec.label) for k, rec in enumerate(records)]

    def test_shape_mismatch_exit_5(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"attrs":[0.1,0.2,0.3,0.4],"seq":[0],"label":0}\n')
        assert run("embed", "--checkpoint", ckpt, "--data", wrong,
                   "--out", tmp_path / "emb.csv") == 5

    def test_checkpoint_meta_beyond_one_hot_limit_exit_5(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        envelope = json.loads(ckpt.read_text())
        envelope["meta"]["r"] = 10**12
        ckpt.write_text(json.dumps(envelope))
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 5
        assert "one-hot size" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_above_the_parameter_bound_exit_5(self, tmp_path, capsys, monkeypatch):
        # a file above the real bound would hold over 16 million values, so
        # the bound is lowered below the tiny checkpoint's 196
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        monkeypatch.setattr(encoder, "MAX_PARAM_CELLS", 100)
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 5
        assert f"checkpoint {ckpt}: the parameters need 196 values, above the limit of 100" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_config_beyond_stored_tensors_exit_5(self, tmp_path, capsys):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        envelope = json.loads(ckpt.read_text())
        envelope["config"]["n_l"] = 10**7
        ckpt.write_text(json.dumps(envelope))
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out) == 5
        assert "expected [10000000, 4]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("companion, coretype", [(True, None), (False, None), (True, "Haswell"),
                                                     (True, "Nehalem")],
                             ids=["companion", "parsed", "haswell", "nehalem"])
    def test_demo_run_embeddings_reproduce(self, tmp_path, companion, coretype):
        # under another OpenBLAS kernel the embeddings drift only in the last bits
        demo = Path(__file__).resolve().parents[1] / "demo_run"
        for name in ("data.jsonl",) + (("data.records.npz",) if companion else ()):
            (tmp_path / name).write_bytes((demo / name).read_bytes())
        out = tmp_path / "emb.csv"
        argv = ("embed", "--checkpoint", demo / "model.json", "--data", tmp_path / "data.jsonl",
                "--out", out)
        if coretype is None:
            assert run(*argv) == 0
        else:
            run_under_kernel(coretype, tmp_path, *argv)
        got, want = out.read_text().splitlines(), (demo / "embeddings.csv").read_text().splitlines()
        assert got[0] == want[0] and len(got) == len(want) == 601
        assert [row.split(",")[0] for row in got] == [row.split(",")[0] for row in want]
        got_emb = np.array([[float(x) for x in row.split(",")[1:]] for row in got[1:]])
        want_emb = np.array([[float(x) for x in row.split(",")[1:]] for row in want[1:]])
        assert np.allclose(got_emb, want_emb, rtol=0, atol=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        data = gen_dataset(tmp_path)
        ckpt, _, _ = train_small(tmp_path, data)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out1) == 0
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()


def demo_command(name, index=0):
    """argv of the `index`-th `attrseq <name>` step of demos/04_cli_pipeline.sh."""
    script = (Path(__file__).resolve().parents[1] / "demos" / "04_cli_pipeline.sh").read_text()
    steps = [argv[1:] for argv in map(shlex.split, script.replace("\\\n", " ").splitlines())
             if argv[:2] == ["attrseq", name]]
    assert len(steps) > index, f"no attrseq {name} step {index} in the demo"
    return steps[index]


@pytest.mark.parametrize("companion, coretype", [(True, None), (False, None), (True, "Haswell"),
                                                 (True, "Nehalem")],
                         ids=["companion", "parsed", "haswell", "nehalem"])
def test_demo_run_train_step_reproduces(tmp_path, monkeypatch, companion, coretype):
    # the committed demo_run/ artifacts are what the demo's train step
    # writes, whether the dataset is read through its companion or parsed;
    # under another OpenBLAS kernel the parameters and losses drift only in
    # the last bits
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    for name in ("data.jsonl", "data.meta.json") + (("data.records.npz",) if companion else ()):
        (tmp_path / name).write_bytes((demo / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    if coretype is None:
        assert main(demo_command("train")) == 0
    else:
        run_under_kernel(coretype, tmp_path, *demo_command("train"))
    got, want = load_checkpoint(tmp_path / "model.json"), load_checkpoint(demo / "model.json")
    assert got[0].shapes == want[0].shapes and got[1:] == want[1:]
    assert np.allclose(got[0].flat, want[0].flat, rtol=0, atol=1e-12)
    rows = [np.loadtxt(d / "metrics.csv", delimiter=",", skiprows=1) for d in (tmp_path, demo)]
    assert rows[0].shape == rows[1].shape and np.allclose(*rows, rtol=0, atol=1e-12)
    assert (tmp_path / "manifest.json").read_bytes() == (demo / "manifest.json").read_bytes()


@pytest.mark.parametrize("step, outputs, companion", [
    (0, ("eval.json", "eval.csv"), True),
    (0, ("eval.json", "eval.csv"), False),
    (1, ("sweep.json", "sweep.csv"), True),
], ids=["eval-companion", "eval-parsed", "sweep-companion"])
def test_demo_run_eval_steps_reproduce(tmp_path, monkeypatch, step, outputs, companion):
    # the committed eval and sweep outputs are what the demo's eval steps
    # write, whether the dataset is read through its companion or parsed
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    inputs = ("data.jsonl", "data.meta.json", "model.json", "manifest.json")
    for name in inputs + (("data.records.npz",) if companion else ()):
        (tmp_path / name).write_bytes((demo / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(demo_command("eval", step)) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (demo / name).read_bytes(), name


@pytest.mark.parametrize("companion", [True, False], ids=["companion", "parsed"])
@pytest.mark.parametrize("command", ["train", "embed", "sweep"])
def test_each_command_checks_the_dataset_rules_once(tmp_path, monkeypatch, command, companion):
    # the reader checks the arrays once; no command runs records through the rules again
    data = gen_dataset(tmp_path)
    ckpt, _, manifest = train_small(tmp_path, data)
    if not companion:
        companion_path(data).unlink()
    calls = []
    monkeypatch.setattr("attrseq.data._broken_rule", lambda arrays: calls.append(1) or _broken_rule(arrays))
    if command == "train":
        train_small(tmp_path, data)
    elif command == "embed":
        assert run("embed", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "emb.csv") == 0
    else:
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                   "--g", 2, "--queries", 4, "--runs", 1, "--seed", 5, "--sweep-triplets", "4,8",
                   "--out-csv", tmp_path / "s.csv", "--out-json", tmp_path / "s.json") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("misfit, sidecar, message", [
    (None, None, None),
    ("t_max", None, "sequence length 16 exceeds t_max=15"),
    ("narrow", None, "attribute length 9 does not match u=10"),
    ("wide", None, "attribute length 11 does not match u=10"),
    ("r-train", None, "item id 12 out of range for r=12"),
    ("r-oneshot", None, "item id 13 out of range for r=12"),
    (None, {"u": 10, "r": 20, "t_max": 15}, None),
    (None, {"u": 10, "r": 12, "t_max": 40}, None),
    ("r-oneshot", {"u": 10, "r": 20, "t_max": 15}, "item id 13 out of range for r=12"),
    ("t_max", {"u": 10, "r": 12, "t_max": 40}, "sequence length 16 exceeds t_max=15"),
], ids=["fits", "t_max", "narrow", "wide", "r-train", "r-oneshot", "sidecar-r-above",
        "sidecar-t_max-above", "sidecar-r-above-misfit", "sidecar-t_max-above-misfit"])
def test_eval_fits_the_checkpoint_as_embed_does(tmp_path, capsys, misfit, sidecar, message):
    # eval refuses exactly the records embed refuses, with embed's message,
    # whatever class they are in; a sidecar declaring more than the
    # checkpoint holds is no misfit while every record fits it
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    records = read_records(demo / "data.jsonl")  # rows 0-59 hold train class 0, 180-239 one-shot class 3
    if misfit == "t_max":
        records[10].items = (records[10].items * 2)[:16]
    elif misfit in ("narrow", "wide"):
        for rec in records:
            rec.attributes = rec.attributes[:9] if misfit == "narrow" else np.append(rec.attributes, 0.0)
    elif misfit == "r-train":
        records[20].items[-1] = 12
    elif misfit == "r-oneshot":
        records[200].items[0] = 13
    data = tmp_path / "data.jsonl"
    write_jsonl(records, data)
    if sidecar is not None:
        sidecar_path(data).write_text(json.dumps(sidecar))
    out = tmp_path / "out"
    got = []
    for argv in (["eval", "--manifest", demo / "manifest.json", "--g", 2, "--queries", 4,
                  "--runs", 1, "--seed", 5, "--out-json", out, "--out-csv", out],
                 ["embed", "--out", out]):
        got.append((run(*argv, "--checkpoint", demo / "model.json", "--data", data),
                    capsys.readouterr().err))
        assert out.exists() == (message is None)
        out.unlink(missing_ok=True)
    want = (0, "") if message is None else (
        5, f"attrseq: error: record does not fit checkpoint encoding: {message}\n")
    assert got == [want, want]


def test_unknown_command_usage_error(capsys):
    assert run("frobnicate") == 1


def test_no_command_usage_error():
    assert main([]) == 1


@pytest.mark.parametrize("artifact, code", [
    ("config.json", 1), ("model.json", 5), ("data.meta.json", 2), ("manifest.json", 5),
])
def test_undecodable_json_artifact_exits_with_its_code(tmp_path, capsys, artifact, code):
    # every JSON artifact goes through one reader; each keeps its own exit code
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    for name in ("data.jsonl", "data.meta.json", "model.json", "manifest.json"):
        (tmp_path / name).write_bytes((demo / name).read_bytes())
    (tmp_path / "config.json").write_text('{"g": 2}')
    (tmp_path / artifact).write_bytes(b'{"\xff": 1}')
    out = tmp_path / "out"
    assert run("eval", "--checkpoint", tmp_path / "model.json", "--data", tmp_path / "data.jsonl",
               "--manifest", tmp_path / "manifest.json", "--queries", 4, "--runs", 1,
               "--seed", 5, "--out-json", out, "--out-csv", out,
               "--config", tmp_path / "config.json") == code
    err = capsys.readouterr().err
    assert err.startswith("attrseq: error:") and len(err.splitlines()) == 1, err
    assert str(tmp_path / artifact) in err and "codec can't decode" in err
    assert not out.exists()


def test_truncated_checkpoint_exit_5(tmp_path):
    data = gen_dataset(tmp_path)
    ckpt, _, manifest = train_small(tmp_path, data)
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[: len(raw) // 3])
    assert run("embed", "--checkpoint", ckpt, "--data", data,
               "--out", tmp_path / "e.csv") == 5


@pytest.mark.parametrize("bad_value", ["abc", float("nan")], ids=["string", "nan"])
@pytest.mark.parametrize("command", ["eval", "embed"])
def test_bad_tensor_value_exit_5(tmp_path, capsys, command, bad_value):
    data = gen_dataset(tmp_path, classes=6, per_class=10)
    ckpt, _, manifest = train_small(tmp_path, data)
    envelope = json.loads(ckpt.read_text())
    envelope["tensors"]["b_p"]["data"][0] = bad_value
    ckpt.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", ckpt, "--data", data, "--manifest", manifest,
                "--queries", 4, "--runs", 2, "--seed", 5, "--out-json", out]
    else:
        argv = ["embed", "--checkpoint", ckpt, "--data", data, "--out", out]
    assert run(*argv) == 5
    assert "tensor b_p" in capsys.readouterr().err
    assert not out.exists()


def test_missing_checkpoint_header_key_is_named(tmp_path, capsys):
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    envelope = json.loads((demo / "model.json").read_text())
    del envelope["meta"]["t_max"]
    ckpt = tmp_path / "nokey.json"
    ckpt.write_text(json.dumps(envelope))
    out = tmp_path / "emb.csv"
    assert run("embed", "--checkpoint", ckpt, "--data", demo / "data.jsonl", "--out", out) == 5
    assert capsys.readouterr().err == f"attrseq: error: corrupt checkpoint {ckpt}: meta lacks t_max\n"
    assert not out.exists()


def test_missing_tensor_is_named(tmp_path, capsys):
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    envelope = json.loads((demo / "model.json").read_text())
    del envelope["tensors"]["w_c"]
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    assert run("eval", "--checkpoint", ckpt, "--data", demo / "data.jsonl",
               "--manifest", demo / "manifest.json", "--seed", 5,
               "--out-json", out, "--out-csv", out) == 5
    assert capsys.readouterr() == ("", f"attrseq: error: corrupt checkpoint {ckpt}: missing tensor w_c\n")
    assert not out.exists()


@pytest.mark.parametrize("block, key, value, sweep", [
    ("meta", "u", 10.0, False),
    ("config", "n_l", 20.0, False),
    ("config", "m", 2.5, False),
    (None, "train", [1], False),
    ("train", "lr", "0.01", True),
    ("train", "epochs", 2.5, True),
    ("train", "distance", "cosine", False),
    ("train", "positive_fraction", "half", True),
], ids=["meta-u-float", "config-n_l-float", "config-m-fraction", "train-not-object",
        "train-lr-string", "train-epochs-fraction", "train-distance-unknown",
        "train-positive_fraction-string"])
def test_malformed_checkpoint_header_exit_5(tmp_path, capsys, block, key, value, sweep):
    # u = 10 and n_l = 20 are the demo model's own dimensions, written as
    # floats, so the stored tensor shapes still compare equal to the layout
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    envelope = json.loads((demo / "model.json").read_text())
    (envelope if block is None else envelope[block])[key] = value
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(envelope))
    out = tmp_path / "out"
    commands = [["eval", "--checkpoint", ckpt, "--data", demo / "data.jsonl",
                 "--manifest", demo / "manifest.json", "--g", 2, "--queries", 4, "--runs", 1,
                 "--seed", 5, "--out-json", out, "--out-csv", out]
                + (["--sweep-triplets", 4] if sweep else [])]
    if block in ("meta", "config"):  # embed reads only the header and the tensors
        commands.append(["embed", "--checkpoint", ckpt, "--data", demo / "data.jsonl",
                         "--out", out])
    for argv in commands:
        assert run(*argv) == 5, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("attrseq: error:") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        assert not out.exists()
