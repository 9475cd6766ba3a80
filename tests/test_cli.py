import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_records
from rvesurrogate import cli
from rvesurrogate import datastore as ds
from rvesurrogate import micromodel as mm
from rvesurrogate import neural as nn
from rvesurrogate import pca as pcalib
from rvesurrogate import surrogate as sg


def tiny_config(pca, q, nnw_out):
    return {
        # steps large enough that the matrix points yield within 20 steps
        "paths": {"n_random": 3, "n_cyclic": 0, "delta_r": 0.02,
                  "delta_r_min": 5e-3, "r_max": 0.3, "max_steps": 20,
                  "seed": 0},
        "ensemble": {"d_gamma": 8, "n_fiber": 2, "perturbation": 0.3,
                     "seed": 0},
        "dataset": {"lengths": [8], "gamma_crit": 10.0, "batch_size": 2},
        "pca": dict(pca, family="gamma", seed=0),
        "train": {"kind": "III", "nnw_in": [3, 4], "n_h": 4,
                  "nnw_out": list(nnw_out), "q": q, "n_batches": 1,
                  "seed": 0},
    }


def run_main(stage, root, cfg, tmp_path, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(cfg))
    monkeypatch.setenv(cli.ROOT_ENV_VAR, str(root))
    return cli.main([stage, "--config", str(config_file)])


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = tiny_config({"p": 4}, 2, (4, 2))
    for stage in ("gen-paths", "gen-data"):
        cli.run_stage(stage, cfg, root)
    return root


class TestTrainHeadCoversPca:
    def test_head_narrower_than_p_over_q(self, dataset_root, tmp_path,
                                         monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 3))
        with pytest.raises(cli.StageError):
            cli.validate_config(cfg)
        assert run_main("train", dataset_root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        for name in ("pca.p", "train.q", "train.nnw_out"):
            assert name in err

    def test_null_p_is_the_width_of_the_head(self, dataset_root):
        cfg = tiny_config({"p": None}, 1, (4, 3))
        assert cli.validate_config(cfg)["pca"]["p"] == 3
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        assert pcalib.load(dataset_root / "pca" / "pca_gamma.bin").retained_p \
            == sg.SurrogateBundle.load(dataset_root / "bundle").p == 3
        manifest = json.loads(
            (dataset_root / "bundle" / "manifest.json").read_text())
        assert manifest["config"]["pca"]["p"] == 3

    def test_matching_head_trains(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        assert (dataset_root / "bundle" / "bundle.json").exists()

    def test_pca_p_raised_after_pca_fit(self, dataset_root, tmp_path,
                                        monkeypatch, capsys):
        cli.run_stage("pca-fit", tiny_config({"p": 2}, 1, (4, 2)),
                      dataset_root)
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        assert run_main("train", dataset_root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "pca.p = 4" in err and "re-run `pca-fit`" in err


class TestPcaFitOutputs:
    def test_residual_curve_csv(self, dataset_root):
        cfg = tiny_config({"p": 3}, 1, (4, 3))
        cli.run_stage("pca-fit", cfg, dataset_root)
        model = pcalib.load(dataset_root / "pca" / "pca_gamma.bin")
        f = dataset_root / "pca" / "residual_gamma.csv"
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "p,residual_fraction"
        assert len(lines) == model.d + 2 == 10  # d_gamma = 8
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == pytest.approx(0.0, abs=1e-12)


class TestTrainOutputs:
    @pytest.mark.parametrize("q", [1, 2])
    def test_loss_history_rows_match_its_header(self, dataset_root, q):
        cfg = tiny_config({"p": 4}, q, (4, 4 // q))
        cfg["train"].update(n_batches=3, clip_norm=1e-12)
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        bundle_dir = dataset_root / "bundle"
        header, *rows = (bundle_dir / "loss_history.csv").read_text().splitlines()
        assert header.split(",") == ["batch", "length"] + [
            f"loss_group_{gi:02d}" for gi in range(q)]
        assert len(rows) == 3
        assert all(len(row.split(",")) == 2 + q for row in rows)
        notes = json.loads((bundle_dir / "manifest.json").read_text())["notes"]
        assert notes["final_loss"] is not None
        assert notes["aborted"] == []
        # 3 batches x 2 epochs per group, each clipped at a 1e-12 cap
        assert [(g["group"], g["clipped_steps"]) for g in notes["gradients"]] \
            == [(gi, 6) for gi in range(q)]
        assert all(g["max_norm"] > 0.0 for g in notes["gradients"])

    def test_divergence_names_each_group_and_batch(self, dataset_root,
                                                   monkeypatch):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["train"].update(n_batches=3, n_epoch=1)
        real_step = nn.train_step
        calls = []

        def diverging_step(*args):
            # the first group runs its 3 batches; the second diverges in its
            # second batch (index 1)
            calls.append(None)
            loss, norm = real_step(*args)
            return (np.nan, norm) if len(calls) == 3 + 2 else (loss, norm)

        monkeypatch.setattr(nn, "train_step", diverging_step)
        cli.run_stage("pca-fit", cfg, dataset_root)
        with pytest.raises(cli.StageError, match="group 1 at batch 1"):
            cli.run_stage("train", cfg, dataset_root)
        bundle_dir = dataset_root / "bundle"
        notes = json.loads((bundle_dir / "manifest.json").read_text())["notes"]
        assert notes["aborted"] == [[1, 1]]
        rows = (bundle_dir / "loss_history.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        # no model is left for eval to score
        assert not (bundle_dir / sg.BUNDLE_FILE).exists()
        assert not list(bundle_dir.glob("rnn_*.bin"))
        with pytest.raises(cli.StageError, match="run the `train` stage"):
            cli.run_stage("eval", cfg, dataset_root)


class TestActionableErrors:
    def test_missing_config_key(self, tmp_path, monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        del cfg["paths"]["r_max"]
        with pytest.raises(cli.StageError, match=r"paths\.r_max"):
            cli.validate_config(cfg)
        root = tmp_path / "root"
        assert run_main("gen-paths", root, cfg, tmp_path, monkeypatch) == 1
        assert "paths.r_max" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "q", 0),
        ("train", "n_epoch", 0),
        ("train", "n_batches", 0),
        ("dataset", "batch_size", 0),
        ("paths", "delta_r", 0.3),  # = r_max
        ("paths", "max_steps", 0),
        ("train", "n_h", 0),
        ("pca", "family", "foo"),
        ("dataset", "lengths", [0]),
        ("pca", "subsample_fraction", 0.0),
        ("ensemble", "d_gamma", 8.5),
        ("train", "n_epoch", "2"),
        ("paths", "n_cyclic", -1),
        ("train", "nnw_in", 70),
        ("pca", "p", 1000),
        ("pca", "p", -2),
        ("pca", "p", 10),  # > d_gamma = 8
        ("trial", "target_p", 0),
        ("trial", "start_n_h", 0),
        ("trial", "increment", 0),
        ("trial", "epoch_budget", 0),
        ("trial", "max_trials", 0),
        ("eval", "snapshot_steps", ["a"]),
        ("eval", "snapshot_sequences", [0.5]),
        ("train", "nnw_out", [0, 2]),
        ("train", "learning_rate", 0),
        ("train", "clip_norm", -1),
        ("dataset", "lengths", [8, 8]),
        # each seed seeds a generator, which takes no negative integer
        ("paths", "seed", -1),
        ("ensemble", "seed", -1),
        ("pca", "seed", -1),
        ("train", "seed", -1),
        # pca-fit's cap on the field dimension
        ("ensemble", "d_gamma", 10_001),
    ])
    def test_invalid_config_value_rejected_at_load(
            self, tmp_path, monkeypatch, capsys, section, key, value):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg.setdefault(section, {})[key] = value
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("section, key, value", [
        # every bundle trains all of its groups; training the first g of Q
        # groups of p coefficients is pca.p = g p / Q with train.q = g
        ("train", "trained_group_count", 1),
        # the trial sizes the surrogate of the train section, with its
        # architecture, optimizer and seed
        ("trial", "nnw_in", [3, 4]),
        ("trial", "nnw_out", [4]),
        ("trial", "learning_rate", 1e-3),
        ("trial", "seed", 0),
        # the retained dimension is pca.p, the width of the train section
        # when null; pca/residual_<family>.csv lists the residual of each p
        ("pca", "delta", 0.1),
        ("pca", "delta", 1.5),
        ("pca", "delta", -1.0),
        # Adam runs without weight decay
        ("train", "weight_decay", -1),
        # a cyclic path has 2 to 6 reversals, amplitudes within paths.r_max
        # and steps of paths.delta_r
        ("paths", "cyclic_step_size", 0.3),
        ("paths", "cyclic_reversals_min", 0),
        ("paths", "cyclic_reversals_min", 7),
        ("paths", "cyclic_reversals_max", 6),
        ("paths", "cyclic_amplitude_max", 0.3),
    ])
    def test_dropped_key_is_unknown(self, tmp_path, monkeypatch, capsys,
                                    section, key, value):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg.setdefault(section, {})[key] = value
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        assert f"unknown keys: {section}.{key}" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("nnw_in", [[4, 70], [2, 4]])
    def test_strain_feature_width_rejected_at_load(
            self, tmp_path, monkeypatch, capsys, nnw_in):
        # the surrogates read the 3 strain features (E_xx, E_yy, E_xy)
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["train"]["nnw_in"] = nnw_in
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "train.nnw_in[0] must be 3" in err
        assert f"got {nnw_in[0]}" in err
        assert not root.exists()

    @pytest.mark.parametrize("pca, key", [
        ({"p": 11, "family": "tau"}, "pca.p"),  # > d_gamma + n_fiber = 10
    ])
    def test_invalid_pca_value_rejected_at_load(
            self, tmp_path, monkeypatch, capsys, pca, key):
        cfg = tiny_config({}, 1, (4, 1))
        cfg["pca"].update(pca)
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        assert key in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("pca, train, names", [
        # kind I predicts the whole field: d_gamma = 8 values, or
        # d_gamma + n_fiber = 10 for tau
        ({}, {"kind": "I", "nnw_out": [4, 5]}, ("train.nnw_out", "d = 8")),
        ({}, {"kind": "I", "nnw_out": [4, 9]}, ("train.nnw_out", "d = 8")),
        ({"family": "tau"}, {"kind": "I", "nnw_out": [4, 8]},
         ("train.nnw_out", "d = 10")),
        # kind III predicts pca.p = train.nnw_out[-1] * train.q coefficients
        ({"p": 4}, {"q": 3, "nnw_out": [4, 2]},
         ("pca.p = 4", "train.q", "train.nnw_out")),
        ({"p": None}, {"q": 2, "nnw_out": [4, 5]},
         ("d = 8", "train.q", "train.nnw_out")),
    ])
    def test_surrogate_width_rejected_at_load(
            self, tmp_path, monkeypatch, capsys, pca, train, names):
        cfg = tiny_config({}, 1, (4, 1))
        cfg["pca"].update(pca)
        cfg["train"].update(train)
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names)
        assert not root.exists()

    @pytest.mark.parametrize("snapshots, message", [
        ({"snapshot_sequences": [0, 99]},
         "eval.snapshot_sequences holds 99, outside the valid range 0..2"),
        ({"snapshot_steps": [0, 500]},
         "eval.snapshot_steps holds 500, outside the valid range 0..7"),
    ])
    def test_out_of_range_snapshot_rejected(self, tmp_path, monkeypatch,
                                            capsys, snapshots, message):
        # 3 paths packed into 8-step sequences
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["eval"] = snapshots
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        assert message in capsys.readouterr().err
        assert (root / "bundle").exists() and not (root / "eval").exists()

    def test_trial_target_beyond_retained_p(self, dataset_root, tmp_path,
                                            monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cli.run_stage("pca-fit", cfg, dataset_root)
        cfg["trial"] = {"target_p": 5}
        assert run_main("trial", dataset_root, cfg, tmp_path, monkeypatch) == 1
        assert "trial.target_p" in capsys.readouterr().err

    def test_pca_fit_on_one_snapshot(self, tmp_path, monkeypatch, capsys):
        # one path packed into one 1-step sequence
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_random"] = 1
        cfg["dataset"]["lengths"] = [1]
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "need at least 2 snapshots" in err
        for key in ("paths.n_random", "dataset.lengths",
                    "pca.subsample_fraction"):
            assert key in err
        assert (root / "dataset").exists() and not (root / "pca").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, capsys,
                                     jobs):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(cfg))
        root = tmp_path / "root"
        monkeypatch.setenv(cli.ROOT_ENV_VAR, str(root))
        assert cli.main(["all", "--config", str(config_file),
                         "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not root.exists()

    def test_negative_seed_override_rejected(self, tmp_path, monkeypatch,
                                             capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(cfg))
        root = tmp_path / "root"
        monkeypatch.setenv(cli.ROOT_ENV_VAR, str(root))
        assert cli.main(["all", "--config", str(config_file),
                         "--seed-override", "-5"]) == 1
        assert "--seed-override must be >= 0, got -5" in capsys.readouterr().err
        assert not root.exists()

    def test_dataset_command_without_records(self, tmp_path, capsys):
        src = tmp_path / "empty"
        (src / "records").mkdir(parents=True)
        assert cli.main(["dataset", "stats", str(src)]) == 1
        err = capsys.readouterr().err
        assert "no records under" in err and "gen-data" in err

    @pytest.mark.parametrize("artifact, corrupt, command, rewriter", [
        ("paths/paths.bin", "truncate", "gen-data", "`gen-paths`"),
        ("paths/paths.bin", "start", "gen-data", "`gen-paths`"),
        ("dataset/records/record_000001.rveseq", "truncate", "pca-fit",
         "`gen-data`"),
        ("dataset/records/record_000001.rveseq", "magic", "pca-fit",
         "`gen-data`"),
        ("dataset/records/record_000000.rveseq", "truncate", "stats",
         "`gen-data`"),
        ("pca/pca_gamma.bin", "truncate", "train", "`pca-fit`"),
        ("pca/pca_gamma.bin", "truncate", "trial", "`pca-fit`"),
        ("paths/paths.bin", "append", "gen-data", "`gen-paths`"),
        ("dataset/records/record_000001.rveseq", "append", "pca-fit",
         "`gen-data`"),
        ("pca/pca_gamma.bin", "append", "train", "`pca-fit`"),
        ("bundle/pca.bin", "truncate", "eval", "`train`"),
        ("bundle/pca.bin", "append", "eval", "`train`"),
        ("bundle/rnn_00.bin", "truncate", "eval", "`train`"),
        ("bundle/rnn_00.bin", "append", "eval", "`train`"),
        ("bundle/rnn_01.bin", "delete", "eval", "`train`"),
        ("bundle/pca.bin", "delete", "eval", "`train`"),
        ("paths/paths.bin", "nan", "gen-data", "`gen-paths`"),
        ("dataset/records/record_000000.rveseq", "nan", "pca-fit",
         "`gen-data`"),
        ("pca/pca_gamma.bin", "nan", "train", "`pca-fit`"),
        ("pca/pca_gamma.bin", "nan", "trial", "`pca-fit`"),
        ("bundle/pca.bin", "nan", "eval", "`train`"),
        ("bundle/rnn_00.bin", "nan", "eval", "`train`"),
    ])
    def test_malformed_artifact(self, dataset_root, tmp_path, monkeypatch,
                                capsys, artifact, corrupt, command, rewriter):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        root = tmp_path / "root"
        shutil.copytree(dataset_root / "paths", root / "paths")
        shutil.copytree(dataset_root / "dataset", root / "dataset")
        cli.run_stage("pca-fit", cfg, root)
        if artifact.startswith("bundle/"):
            cli.run_stage("train", cfg, root)
        path = root / artifact
        data = path.read_bytes()
        if corrupt == "truncate":
            data = data[:len(data) - 13]
        elif corrupt == "magic":
            data = b"XXXXXXX" + data[7:]
        elif corrupt == "append":
            data += bytes(8)
        elif corrupt == "nan" and artifact.endswith(".rveseq"):
            # step 2 of the gamma block, after the 28-byte header and the
            # (steps, 3) strain block
            rec = ds.read_record(path)
            at = 28 + rec.inputs.nbytes + 2 * rec.outputs_gamma[0].nbytes
            data = data[:at] + np.float64(np.nan).tobytes() + data[at + 8:]
        elif corrupt == "nan":
            # the last float of the file: the last stretch component of the
            # last path, or the last entry of a basis's components or of a
            # model's parameters
            data = data[:-8] + np.float64(np.nan).tobytes()
        else:
            # the first path's first stretch component, after the 7-byte
            # magic, the 8-byte header and the 5-byte path header
            data = data[:20] + np.float64(2.0).tobytes() + data[28:]
        if corrupt == "delete":
            path.unlink()
        else:
            path.write_bytes(data)
        if command == "stats":
            status = cli.main(["dataset", "stats", str(root / "dataset")])
        else:
            status = run_main(command, root, cfg, tmp_path, monkeypatch)
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert err.count(str(path)) == 1 and f"re-run {rewriter}" in err
        if corrupt == "nan":
            # d_gamma = 8 rows of p = 4 components
            assert {
                "paths/paths.bin": "non-finite value in path 2 at step",
                "dataset/records/record_000000.rveseq":
                    "non-finite value in the gamma block at step 2",
                "pca/pca_gamma.bin":
                    "non-finite value in the components at entry 7",
                "bundle/pca.bin":
                    "non-finite value in the components at entry 7",
                "bundle/rnn_00.bin": "non-finite value in the parameters at "
                    f"entry {nn.parameter_count((3, 4), 4, (4, 2)) - 1}",
            }[artifact] in err

    @pytest.mark.parametrize("text, message", [
        ("{", "config.json: not JSON (Expecting property name"),
        ('{"paths": 5}', "config.json: paths must be a JSON object, got 5"),
        ("[1, 2]", "config.json: the top level must be a JSON object, "
                   "got [1, 2]"),
    ])
    def test_malformed_config_file(self, tmp_path, monkeypatch, capsys, text,
                                   message):
        config_file = tmp_path / "config.json"
        config_file.write_text(text)
        root = tmp_path / "root"
        monkeypatch.setenv(cli.ROOT_ENV_VAR, str(root))
        assert cli.main(["gen-paths", "--config", str(config_file)]) == 1
        assert message in capsys.readouterr().err
        assert not root.exists()


def stage_outputs(stage_dir):
    """Names of a stage directory's files and the outputs its manifest lists."""
    names = {f.name for f in stage_dir.iterdir()} - {"manifest.json"}
    listed = json.loads((stage_dir / "manifest.json").read_text())["outputs"]
    return names, set(listed)


class TestStagesReplaceTheirOutputs:
    def test_gen_data_rerun_with_fewer_paths(self, tmp_path):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        root = tmp_path / "root"
        for n_random in (5, 3):
            cfg["paths"]["n_random"] = n_random
            for stage in ("gen-paths", "gen-data"):
                cli.run_stage(stage, cfg, root)
        assert len(ds.read_dataset(root / "dataset")) == 3
        manifest = json.loads((root / "dataset" / "manifest.json").read_text())
        assert manifest["outputs"] == {
            "records": cli.hash_tree(root / "dataset" / "records")}

    def test_train_with_fewer_groups_drops_the_stale_model(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        assert (dataset_root / "bundle" / "rnn_01.bin").exists()
        cli.run_stage("train", tiny_config({"p": 4}, 1, (4, 4)), dataset_root)
        names, listed = stage_outputs(dataset_root / "bundle")
        assert "rnn_01.bin" not in names
        assert listed == names

    def test_kind_i_after_kind_iii_evaluates(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        assert (dataset_root / "bundle" / sg.PCA_FILE).exists()
        cfg = tiny_config({"p": 4}, 1, (4, 8))  # d_gamma = 8
        cfg["train"]["kind"] = "I"
        for stage in ("train", "eval"):
            cli.run_stage(stage, cfg, dataset_root)
        assert not (dataset_root / "bundle" / sg.PCA_FILE).exists()
        summary = json.loads(
            (dataset_root / "eval" / "summary.json").read_text())
        assert summary["surrogate"]["kind"] == "I"

    def test_eval_drops_stale_snapshots(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["eval"] = {"snapshot_steps": [0, 1], "snapshot_sequences": [0]}
        for stage in ("pca-fit", "train", "eval"):
            cli.run_stage(stage, cfg, dataset_root)
        cfg["eval"]["snapshot_steps"] = [1]
        cli.run_stage("eval", cfg, dataset_root)
        names, listed = stage_outputs(dataset_root / "eval")
        assert {n for n in names if n.startswith("snapshot_")} == {
            "snapshot_seq000_step0001_pred.csv",
            "snapshot_seq000_step0001_true.csv"}
        assert listed == names

    def test_eval_of_a_mismatched_model_file(self, dataset_root, tmp_path,
                                             monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        nn.save_model(dataset_root / "bundle" / "rnn_01.bin",
                      nn.RnnModel.build((3, 4), 5, (4, 2)))
        assert run_main("eval", dataset_root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "rnn_01.bin" in err and "re-run `train`" in err

    @pytest.mark.parametrize("key, value, named", [
        # bundle files of versions that could leave groups untrained
        ("trained_groups", [0, 1], "unknown keys: trained_groups"),
        ("coeff_means", [0.0] * 4, "unknown keys: coeff_means"),
        # bundle files of versions that stated p, the seed, h0 and the
        # group map next to what fixes them
        ("group_map", [[0, 1], [1, 4]], "unknown keys: group_map"),
        # a saved bundle is trained
        ("input_norm", None, "input_norm must be a JSON object, got None"),
        ("output_norm", None, "output_norm must be a JSON object, got None"),
        # broken nested entries
        ("arch", {"nnw_in": [3, 4], "n_h": 4}, "missing keys: arch.nnw_out"),
        ("input_norm", {"maximum": [0.0, 0.0, 0.0]},
         "missing keys: input_norm.minimum"),
        ("input_norm", [0.0, 1.0],
         "input_norm must be a JSON object, got [0.0, 1.0]"),
        # scalar entries of the wrong type or value
        ("q", None, "q must be int, got None"),
        ("p", "x", "unknown keys: p"),
        ("seed", [1], "unknown keys: seed"),
        ("h0", "x", "unknown keys: h0"),
        ("kind", "IV", "unknown surrogate kind 'IV'"),
        ("family", "foo", "unknown state-variable family 'foo'"),
        # entries that disagree with the bundle or with the records
        ("input_norm", {"minimum": [0.0, 0.0], "maximum": [1.0, 1.0],
                        "degenerate_features": []},
         "input_norm has 2 features, but the bundle's input has 3"),
        # the bundle was fitted on the 8 gamma values of each step; the
        # records hold 10 tau values
        ("family", "tau", "family 'tau' reads 8 values per step, but the "
                          "records under"),
        # a bundle file's whole text
        (None, "[1, 2]", "the top level must be a JSON object, got [1, 2]"),
        (None, "{", "not JSON (Expecting property name"),
    ])
    def test_eval_of_a_hand_edited_bundle_file(self, dataset_root, tmp_path,
                                               monkeypatch, capsys, key,
                                               value, named):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        meta_file = dataset_root / "bundle" / sg.BUNDLE_FILE
        if key is None:
            meta_file.write_text(value)
        else:
            meta = ds.read_json(meta_file)
            meta[key] = value
            ds.write_json(meta_file, meta)
        assert run_main("eval", dataset_root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {meta_file}: {named}")
        assert err.count("bundle.json") == 1
        assert "re-run `train`" in err


    def test_eval_of_a_bundle_file_of_the_11_key_layout(
            self, dataset_root, tmp_path, monkeypatch, capsys):
        # the layout that also stated p, the seed, h0 and the group map
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        meta_file = dataset_root / "bundle" / sg.BUNDLE_FILE
        meta = ds.read_json(meta_file)
        assert len(meta) == 7
        meta.update(p=4, seed=0, h0=-1.0, group_map=[[0, 2], [2, 4]])
        ds.write_json(meta_file, meta)
        assert run_main("eval", dataset_root, cfg, tmp_path, monkeypatch) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {meta_file}: unknown keys: group_map, h0, p, "
            "seed; re-run `train` to rewrite it\n")

    def test_eval_of_a_dataset_regenerated_at_another_width(
            self, tmp_path, monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        root = tmp_path / "root"
        for stage in ("gen-paths", "gen-data", "pca-fit", "train"):
            cli.run_stage(stage, cfg, root)
        cfg["ensemble"]["d_gamma"] = 6
        cli.run_stage("gen-data", cfg, root)
        assert run_main("eval", root, cfg, tmp_path, monkeypatch) == 1
        meta_file = root / "bundle" / sg.BUNDLE_FILE
        records = root / "dataset" / "records"
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {meta_file}: family 'gamma' reads 8 values "
            f"per step, but the records under {records} hold 6; re-run `train`")
        assert not (root / "eval").exists()


class TestTrialStage:
    def test_seed_override_reaches_the_trial(self, dataset_root, tmp_path,
                                             monkeypatch):
        # the config has no trial section
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cli.run_stage("pca-fit", cfg, dataset_root)
        seen = {}

        def keep_seed(train_set, val_set, pca_model, arch, config, **kw):
            seen["seed"] = config.seed
            return {}

        monkeypatch.setattr(sg, "hidden_size_trial", keep_seed)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(cfg))
        monkeypatch.setenv(cli.ROOT_ENV_VAR, str(dataset_root))
        assert cli.main(["trial", "--config", str(config_file),
                         "--seed-override", "10"]) == 0
        assert seen["seed"] == 10 + cli._SEED_SLOTS["train"]
        manifest = json.loads(
            (dataset_root / "trial" / "manifest.json").read_text())
        assert manifest["config"]["train"]["seed"] == seen["seed"]

    def test_trial_sizes_the_surrogate_of_the_train_section(
            self, dataset_root, monkeypatch):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["dataset"]["batch_size"] = 3
        cfg["train"].update(nnw_in=[3, 5], nnw_out=[6, 2], n_epoch=3,
                            learning_rate=2e-3, clip_norm=0.5, seed=9)
        # a threshold no score reaches, so that both trials run
        cfg["trial"] = {"epoch_budget": 2, "max_trials": 2, "start_n_h": 4,
                        "increment": 3, "threshold": 2.0}
        cli.run_stage("pca-fit", cfg, dataset_root)
        trained = []
        real = sg.SurrogateBundle.train

        def keep(bundle, dataset, config):
            trained.append((bundle, config, bundle.params.copy()))
            return real(bundle, dataset, config)

        monkeypatch.setattr(sg.SurrogateBundle, "train", keep)
        cli.run_stage("trial", cfg, dataset_root)
        assert len(trained) == 2
        for i, (bundle, config, start) in enumerate(trained):
            assert (bundle.kind, bundle.p) == ("II", 1)
            # drawn from the train section's seed
            assert start.tobytes() == sg.SurrogateBundle(
                "II", bundle.arch, pca=bundle.pca, seed=9).params.tobytes()
            assert bundle.arch == sg.Architecture((3, 5), 4 + 3 * i, (6, 1))
            assert config == nn.TrainConfig(
                learning_rate=2e-3, clip_norm=0.5, n_epoch=3, n_batches=2,
                batch_size=3, seed=9)

    def test_defaults_are_those_of_hidden_size_trial(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["trial"] = {"epoch_budget": 2, "max_trials": 1}
        cli.validate_config(cfg)
        cli.run_stage("pca-fit", cfg, dataset_root)
        cli.run_stage("trial", cfg, dataset_root)
        report = json.loads(
            (dataset_root / "trial" / "trial_report.json").read_text())
        assert report["target_p"] == 4  # min(retained p, 10)
        assert [t["n_h"] for t in report["trials"]] == [16]

    def test_paths_are_split_before_packing(self, dataset_root, monkeypatch):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        # every path longer than 4 steps is packed into both groups
        cfg["dataset"]["lengths"] = [4, 8]
        cli.run_stage("pca-fit", cfg, dataset_root)
        sides = []

        def keep_sides(train_set, val_set, *args, **kw):
            sides.extend([train_set, val_set])
            return {}

        monkeypatch.setattr(sg, "hidden_size_trial", keep_sides)
        cli.run_stage("trial", cfg, dataset_root)
        records = ds.read_dataset(dataset_root / "dataset")

        def sources(packed):
            """Index of the record each packed copy was made from."""
            found = []
            for rec in packed.all_records():
                [i] = [i for i, raw in enumerate(records) if np.array_equal(
                    ds.pad_or_trim(raw, rec.length).inputs, rec.inputs)]
                found.append(i)
            return found

        train, val = (sources(side) for side in sides)
        assert len(train) > len(set(train))  # copies of one path exist
        assert set(train).isdisjoint(val)
        assert set(train) | set(val) == set(range(len(records)))
        assert len(set(val)) == 1  # 20% of 3 paths, at least one

    def test_rerun_is_byte_identical(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["trial"] = {"epoch_budget": 3, "max_trials": 2}
        cli.run_stage("pca-fit", cfg, dataset_root)
        outputs = []
        for _ in range(2):
            cli.run_stage("trial", cfg, dataset_root)
            outputs.append({f.name: f.read_bytes()
                            for f in (dataset_root / "trial").iterdir()})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"trial_report.json", "manifest.json"}

    def test_one_path_cannot_be_split(self, tmp_path, monkeypatch, capsys):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_random"] = 1
        root = tmp_path / "root"
        for stage in ("gen-paths", "gen-data", "pca-fit"):
            cli.run_stage(stage, cfg, root)
        assert run_main("trial", root, cfg, tmp_path, monkeypatch) == 1
        assert "paths.n_random" in capsys.readouterr().err

    def test_side_that_packs_empty(self, tmp_path, monkeypatch, capsys):
        # pre-trimming at gamma_crit = 10 empties the second path, which
        # exceeds it at its first step, so one side of the split is empty
        records = synthetic_records(seed=0, n_records=2, d_gamma=8, d_tau=10)
        records[1].outputs_gamma[0] = 20.0
        root = tmp_path / "root"
        ds.write_dataset(root / "dataset", records)
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cli.run_stage("pca-fit", cfg, root)
        assert run_main("trial", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "packs empty" in err
        assert "paths.n_random" in err and "dataset.gamma_crit" in err


class TestGenDataReleasesItsWorkerState:
    def test_worker_state_is_empty_after_gen_data(self, tmp_path):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("gen-paths", "gen-data"):
            cli.run_stage(stage, cfg, tmp_path)
        assert cli._WORKER == {}


class TestGenDataDeterminism:
    def test_paths_and_records_are_pinned(self, tmp_path):
        # digests recorded while the paths were still 3x3 tensors: a rewrite
        # of the path or strain algebra must not move one bit
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_cyclic"] = 1
        for stage in ("gen-paths", "gen-data"):
            cli.run_stage(stage, cfg, tmp_path)
        assert cli.hash_tree(tmp_path / "paths") == "sha256:" \
            "88b60f8daa5d1baa32baae2a8ee376e0c59db946d5adb87dbbb1906ebd8f32a2"
        assert cli.hash_tree(tmp_path / "dataset" / "records") == "sha256:" \
            "85c7b74dd0b8ee567bc4e5262b4a6aaad173e6c7bfe2eaae37e382880116d8fe"

    # digests recorded while each group predicted in a pass of its own and
    # a bundle could leave groups untrained: a rewrite of how the groups
    # are stored, trained or run must not move one bit of these
    PINNED_OUTPUTS = {
        "bundle/rnn_00.bin":
            "cdf50b7a1d16b100c8cef3ed1747beedb41ad50ea48f101fc1b7cfd4b4febdcf",
        "bundle/rnn_01.bin":
            "13322614e3db684c45e0ce4e8f8839d6332ddc54e614f87959d1e635444a1f82",
        "bundle/pca.bin":
            "fb60c00009525284d6a4fb32ec31c101c173531e10f7ffeca015e4ceac49973f",
        "bundle/loss_history.csv":
            "f0474e397554a1b04918496b2ecd1534908c7b6919520a9116fdef99377893d4",
        "eval/report.csv":
            "76179eb6a8d4dcc164fa1dec59bffd6b4cb9c13cb4e81d9858d4b87897847ca6",
        "eval/max_traces.csv":
            "37fb48457fbd123ccc34c9870952a1c6e2e282932189b95ec339674573d52189",
    }
    # the files that also describe the bundle's layout, re-pinned when
    # bundle.json lost trained_groups and coeff_means, and describe() lost
    # trained_groups; bundle.json again when it lost p, seed, h0 and
    # group_map
    PINNED_DESCRIPTIONS = {
        "bundle/bundle.json":
            "f1ddba7df365b8931068b94354a2467ed1b265b088d4bbb4604288f42e9f9d18",
        "eval/summary.json":
            "61f0c5086fc34212e71e03098dd0d733172041981067a0b2b00854b5e80527a4",
    }

    @pytest.fixture(scope="class")
    def pipeline_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_cyclic"] = 1
        cfg["train"]["n_batches"] = 3
        for stage in ("gen-paths", "gen-data", "pca-fit", "train", "eval"):
            cli.run_stage(stage, cfg, root)
        return root

    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_bundle_and_eval_outputs_are_pinned(self, pipeline_root, name):
        assert cli.sha256_file(pipeline_root / name) \
            == "sha256:" + self.PINNED_OUTPUTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_DESCRIPTIONS))
    def test_bundle_and_eval_descriptions_are_pinned(self, pipeline_root,
                                                     name):
        assert cli.sha256_file(pipeline_root / name) \
            == "sha256:" + self.PINNED_DESCRIPTIONS[name]

    def test_bundle_holds_only_the_pinned_files(self, pipeline_root):
        names = {f"bundle/{f.name}" for f in (pipeline_root / "bundle").iterdir()
                 if f.name != "manifest.json"}
        assert names == {n for n in {**self.PINNED_OUTPUTS,
                                     **self.PINNED_DESCRIPTIONS}
                         if n.startswith("bundle/")}

    def test_records_identical_across_jobs_and_reruns(self, tmp_path,
                                                      monkeypatch):
        # 8 paths: one lockstep batch, or batches of 3/3/2 spread over two
        # and three workers
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"].update(n_random=6, n_cyclic=2)
        digests = []
        for name, jobs, width in (("a", 1, 16), ("b", 2, 3), ("c", 3, 3),
                                  ("a", 1, 16)):
            monkeypatch.setattr(cli, "_LOCKSTEP_WIDTH", width)
            root = tmp_path / name
            cli.run_stage("gen-paths", cfg, root)
            cli.run_stage("gen-data", cfg, root, jobs=jobs)
            digests.append(cli.hash_tree(root / "dataset" / "records"))
        assert len(list((tmp_path / "a" / "dataset" / "records").iterdir())) == 8
        assert digests[0] == digests[1] == digests[2] == digests[3]

    def test_substepped_steps_identical_across_jobs_and_reruns(
            self, tmp_path, plastic_increment_cap, monkeypatch):
        # the first three walks are those of test_micromodel.capped_walks
        plastic_increment_cap(0.005)
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_random"] = 4
        notes = []
        for name, jobs, width in (("a", 1, 16), ("b", 2, 2), ("a", 1, 16)):
            monkeypatch.setattr(cli, "_LOCKSTEP_WIDTH", width)
            root = tmp_path / name
            cli.run_stage("gen-paths", cfg, root)
            cli.run_stage("gen-data", cfg, root, jobs=jobs)
            notes.append(json.loads(
                (root / "dataset" / "manifest.json").read_text())["notes"])
        counts = [n["substepped_steps"] for n in notes]
        assert counts[0] >= 2
        assert counts[0] == counts[1] == counts[2]
        assert all(n["truncated_sequences"] == 0 for n in notes)

    def test_renormalized_steps_identical_across_jobs_and_reruns(
            self, tmp_path, monkeypatch):
        # a tolerance under roundoff, so that plastic steps renormalize
        monkeypatch.setattr(mm, "_DET_FP_DRIFT_TOL", 1e-16)
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"].update(n_random=4, n_cyclic=1)
        notes = []
        for name, jobs, width in (("a", 1, 16), ("b", 2, 2), ("a", 1, 16)):
            monkeypatch.setattr(cli, "_LOCKSTEP_WIDTH", width)
            root = tmp_path / name
            cli.run_stage("gen-paths", cfg, root)
            cli.run_stage("gen-data", cfg, root, jobs=jobs)
            notes.append(json.loads(
                (root / "dataset" / "manifest.json").read_text())["notes"])
        counts = [n["renormalized_steps"] for n in notes]
        assert counts[0] >= 2
        assert counts[0] == counts[1] == counts[2]


class TestManifestInputs:
    @pytest.mark.parametrize("kind", ["I", "III"])
    def test_each_manifest_lists_what_its_stage_read(self, tmp_path, kind):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        if kind == "I":
            cfg["train"].update(kind="I", nnw_out=[4, 8])  # d_gamma = 8
        cfg["trial"] = {"epoch_budget": 1, "max_trials": 1}
        for stage in cli.STAGE_ORDER + ("trial",):
            cli.run_stage(stage, cfg, tmp_path)
        read = {
            "paths": [],
            "dataset": ["paths/paths.bin"],
            "pca": ["dataset/records"],
            # only a reduced bundle reads the PCA basis
            "bundle": ["dataset/records"]
                      + (["pca/pca_gamma.bin"] if kind == "III" else []),
            "trial": ["dataset/records", "pca/pca_gamma.bin"],
            "eval": ["bundle", "dataset/records"],
        }
        for stage_dir, names in read.items():
            inputs = json.loads(
                (tmp_path / stage_dir / "manifest.json").read_text())["inputs"]
            assert sorted(inputs) == names, stage_dir
            for name in names:
                path = tmp_path / name
                assert inputs[name] == (cli.hash_tree(path) if path.is_dir()
                                        else cli.sha256_file(path)), name


    def test_input_that_differs_from_its_manifest(self, tmp_path,
                                                  monkeypatch, capsys):
        # one flipped byte inside a float of the basis still reads, but its
        # hash is not the one pca-fit listed
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        root = tmp_path / "root"
        for stage in cli.STAGE_ORDER[:3]:
            cli.run_stage(stage, cfg, root)
        basis = root / "pca" / "pca_gamma.bin"
        data = bytearray(basis.read_bytes())
        data[-8] ^= 0x01  # the lowest mantissa byte of the last float
        basis.write_bytes(bytes(data))
        pcalib.load(basis)
        assert run_main("train", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert f"{basis}: its hash differs" in err and "`pca-fit`" in err
        assert not (root / "bundle").exists()

    @pytest.mark.parametrize("text", ["{", "[]", '{"outputs": 3}'])
    def test_unreadable_producer_manifest(self, tmp_path, monkeypatch,
                                          capsys, text):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        root = tmp_path / "root"
        for stage in cli.STAGE_ORDER[:2]:
            cli.run_stage(stage, cfg, root)
        manifest = root / "dataset" / "manifest.json"
        manifest.write_text(text)
        assert run_main("pca-fit", root, cfg, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert f"cannot read {manifest}" in err and "`gen-data`" in err

    def test_artifact_without_a_manifest_is_not_checked(self, tmp_path,
                                                        capsys):
        # a dataset written outside gen-data has no manifest to check
        ds.write_dataset(tmp_path, synthetic_records(0, n_records=3, d_gamma=4,
                                                       d_tau=2))
        assert cli.main(["dataset", "stats", str(tmp_path)]) == 0
        assert "records:            3" in capsys.readouterr().out


class TestResolvedConfig:
    def test_default_eval_replays_no_sequence(self, dataset_root,
                                              monkeypatch):
        # eval.snapshot_steps is empty by default, so no snapshot is written
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        passes = []
        real = sg.SurrogateBundle.predict

        def counted(self, strain_features):
            passes.append(strain_features.shape)
            return real(self, strain_features)

        monkeypatch.setattr(sg.SurrogateBundle, "predict", counted)
        cli.run_stage("eval", cfg, dataset_root)
        # evaluate's one pass per length group, and no other
        groups = cli._pack(cfg, ds.read_dataset(dataset_root / "dataset")).groups
        assert passes == [(len(recs), length, 3)
                          for length, recs in sorted(groups.items())]
        assert not list((dataset_root / "eval").glob("snapshot_*"))
        # a snapshot sequence is one more pass
        cfg["eval"] = {"snapshot_steps": [1], "snapshot_sequences": [2]}
        passes.clear()
        cli.run_stage("eval", cfg, dataset_root)
        assert len(passes) == len(groups) + 1 and passes[-1] == (1, 8, 3)

    def test_defaults_written_out_change_no_byte(self, tmp_path,
                                                 monkeypatch):
        # the tiny config less every key that holds its default, and less
        # pca.p, the width that the train section predicts
        required = tiny_config({"p": 4}, 2, (4, 2))
        del required["paths"]["n_cyclic"], required["train"]["seed"]
        del required["pca"]["family"], required["pca"]["seed"]
        del required["pca"]["p"]
        written_out = json.loads(json.dumps(cli.validate_config(required)))
        assert json.loads(json.dumps(cli.validate_config(written_out))) \
            == written_out
        trees = []
        for name, cfg in (("a", required), ("b", written_out)):
            root = tmp_path / name
            assert run_main("all", root, cfg, tmp_path, monkeypatch) == 0
            trees.append({f.relative_to(root): f.read_bytes()
                          for f in sorted(root.rglob("*")) if f.is_file()})
        assert trees[0] == trees[1]
        assert {f.parts[0] for f in trees[0]} == {
            "paths", "dataset", "pca", "bundle", "eval"}
        manifest = json.loads(trees[0][Path("eval", "manifest.json")])
        assert manifest["config"] == written_out


class TestEndToEnd:
    def test_kind_i_runs_without_pca_p(self, tmp_path, monkeypatch):
        # a null pca.p is the width of the kind I head, the whole field
        cfg = tiny_config({}, 1, (4, 8))
        cfg["train"]["kind"] = "I"
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 0
        assert pcalib.load(root / "pca" / "pca_gamma.bin").retained_p == 8
        summary = json.loads((root / "eval" / "summary.json").read_text())
        assert summary["surrogate"]["kind"] == "I"

    def test_all_stages_succeed_and_rerun_byte_identically(self, tmp_path,
                                                          monkeypatch):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["paths"]["n_cyclic"] = 1
        cfg["train"]["n_batches"] = 3
        cfg["eval"] = {"snapshot_steps": [0, 7], "snapshot_sequences": [0, 2]}
        root = tmp_path / "root"
        stage_dirs = ("paths", "dataset", "pca", "bundle", "eval")

        def outputs():
            return {name: (cli.hash_tree(root / name),
                           (root / name / "manifest.json").read_bytes())
                    for name in stage_dirs}

        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 0
        first = outputs()
        snapshots = sorted(p.name for p in (root / "eval").glob("snapshot_*"))
        assert len(snapshots) == 8  # 2 sequences x 2 steps x pred/true
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 0
        assert outputs() == first

    def test_snapshots_are_clamped_answers_of_predict_fields(self, tmp_path,
                                                           monkeypatch):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        cfg["eval"] = {"snapshot_steps": [0, 3, 7], "snapshot_sequences": [1]}
        root = tmp_path / "root"
        assert run_main("all", root, cfg, tmp_path, monkeypatch) == 0
        bundle = sg.SurrogateBundle.load(root / "bundle")
        records = list(cli._pack(cfg, ds.read_dataset(root / "dataset"))
                       .all_records())
        fields = np.maximum(bundle.predict_fields(records[1].inputs).fields,
                            0.0)
        for step in (0, 3, 7):
            expected = tmp_path / "expected.csv"
            ds.write_csv(expected, ["point_index", "value"],
                         enumerate(fields[step]))
            written = root / "eval" / f"snapshot_seq001_step{step:04d}_pred.csv"
            assert written.read_bytes() == expected.read_bytes()
