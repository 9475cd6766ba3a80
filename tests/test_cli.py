import json

import pytest

from rvesurrogate import cli
from rvesurrogate import pca as pcalib


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
        cli.validate_config(cfg)
        cli.run_stage("pca-fit", cfg, dataset_root)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(cfg))
        monkeypatch.setenv(cli.ROOT_ENV_VAR, str(dataset_root))
        assert cli.main(["train", "--config", str(config_file)]) == 1
        err = capsys.readouterr().err
        for name in ("pca.p", "pca.delta", "train.q", "train.nnw_out"):
            assert name in err

    def test_delta_chosen_p_not_divisible_by_q(self, dataset_root):
        cfg = tiny_config({"delta": 1e-2}, 1, (4, 1))
        cli.run_stage("pca-fit", cfg, dataset_root)
        p = pcalib.load(dataset_root / "pca" / "pca_gamma.bin").retained_p
        assert p >= 2  # the fields vary, so delta keeps several components
        cfg["train"]["q"] = p + 1
        cli.validate_config(cfg)
        with pytest.raises(cli.StageError, match="train.q"):
            cli.run_stage("train", cfg, dataset_root)

    def test_matching_head_trains(self, dataset_root):
        cfg = tiny_config({"p": 4}, 2, (4, 2))
        for stage in ("pca-fit", "train"):
            cli.run_stage(stage, cfg, dataset_root)
        assert (dataset_root / "bundle" / "bundle.json").exists()
