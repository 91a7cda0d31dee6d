import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from attrseq.cli import main
from attrseq.training import load_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


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

    @pytest.mark.parametrize("edit", ["nan-attr", "bool-label", "bad-sidecar"])
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
                rec["label"] = True
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
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("classes", [3, "0,1", [0, "1"], [0, True], None],
                             ids=["int", "string", "string-item", "bool-item", "null"])
    def test_wrong_typed_manifest_exit_5(self, tmp_path, capsys, classes):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps({"train_classes": classes, "oneshot_classes": [4, 5]}))
        assert run("eval", "--checkpoint", ckpt, "--data", data, "--manifest", bad,
                   "--queries", 4, "--runs", 2, "--seed", 5) == 5
        assert "'train_classes' must be a list of integers" in capsys.readouterr().err

    def test_checkpoint_dataset_mismatch_exit_5(self, tmp_path):
        data, ckpt, manifest = self.setup_artifacts(tmp_path)
        wide = tmp_path / "wide.jsonl"
        assert run("gen", "--classes", 6, "--per-class", 8, "--u", 4, "--r", 4,
                   "--t-max", 5, "--seed", 7, "--out", wide) == 0
        assert run("eval", "--checkpoint", ckpt, "--data", wide,
                   "--manifest", manifest, "--queries", 4, "--runs", 2, "--seed", 5) == 5

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

    def test_demo_run_embeddings_reproduce(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "demo_run"
        out = tmp_path / "emb.csv"
        assert run("embed", "--checkpoint", demo / "model.json", "--data", demo / "data.jsonl",
                   "--out", out) == 0
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


def demo_command(name):
    """argv of the `attrseq <name>` step of demos/04_cli_pipeline.sh."""
    script = (Path(__file__).resolve().parents[1] / "demos" / "04_cli_pipeline.sh").read_text()
    for line in script.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv[:2] == ["attrseq", name]:
            return argv[1:]
    raise AssertionError(f"no attrseq {name} step in the demo")


def test_demo_run_train_step_reproduces(tmp_path, monkeypatch):
    # the committed demo_run/ artifacts are what the demo's train step writes
    demo = Path(__file__).resolve().parents[1] / "demo_run"
    for name in ("data.jsonl", "data.meta.json"):
        (tmp_path / name).write_bytes((demo / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(demo_command("train")) == 0
    got, want = load_checkpoint(tmp_path / "model.json"), load_checkpoint(demo / "model.json")
    assert got[0].shapes == want[0].shapes and got[1:] == want[1:]
    assert np.allclose(got[0].flat, want[0].flat, rtol=0, atol=1e-12)
    rows = [np.loadtxt(d / "metrics.csv", delimiter=",", skiprows=1) for d in (tmp_path, demo)]
    assert rows[0].shape == rows[1].shape and np.allclose(*rows, rtol=0, atol=1e-12)
    assert (tmp_path / "manifest.json").read_bytes() == (demo / "manifest.json").read_bytes()


def test_unknown_command_usage_error(capsys):
    assert run("frobnicate") == 1


def test_no_command_usage_error():
    assert main([]) == 1


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
