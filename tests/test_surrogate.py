import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import neural as nn
from rvesurrogate import pca as pcalib
from rvesurrogate import surrogate as sg


@pytest.fixture(scope="module")
def gamma_pca(synthetic_packed):
    snaps = np.concatenate(
        [r.outputs_gamma for r in synthetic_packed.all_records()], axis=0
    )
    return pcalib.fit(snaps, p=8)


def quick_config(n_batches=60, seed=7, **kw):
    defaults = dict(learning_rate=2e-3, n_epoch=1, batch_size=4)
    defaults.update(kw)
    return nn.TrainConfig(n_batches=n_batches, seed=seed, **defaults)


class TestSplitOutputs:
    def test_paper_scale_grouping(self):
        slices = sg.group_slices(180, 18)
        assert slices[0] == (0, 10)
        assert slices[-1] == (170, 180)
        assert len(slices) == 18

    def test_tau_grouping_covers_coefficients_21_to_40(self):
        # group index 1 (second group) of p=180, Q=9 owns coefficients 21..40
        slices = sg.group_slices(180, 9)
        assert slices[1] == (20, 40)

    def test_single_group_identity(self):
        assert sg.group_slices(12, 1) == [(0, 12)]

    def test_concatenation_restores_order(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 12))
        parts = [x[..., lo:hi] for lo, hi in sg.group_slices(12, 4)]
        assert np.array_equal(np.concatenate(parts, axis=-1), x)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            sg.group_slices(10, 3)


class TestBuild:
    def test_paper_scale_gamma_breakdown(self, gamma_pca):
        # 18 RNNs over p=180 in blocks of 10 (uses a wide fake PCA)
        fake = pcalib.PcaModel(np.zeros(1607), np.ones(1607), np.eye(1607)[:, :180])
        arch = sg.Architecture(nnw_in=(3, 70), n_h=400, nnw_out=(100, 10))
        bundle = sg.build_surrogate("III", arch, q=18, pca=fake, p=180)
        assert len(bundle.models) == 18
        assert bundle.group_map[0] == (0, 10)
        assert bundle.group_map[-1] == (170, 180)

    def test_direct_kind_output_matches_field_dim(self):
        arch = sg.Architecture(nnw_in=(3, 70), n_h=100, nnw_out=(800, 1607))
        bundle = sg.build_surrogate("I", arch)
        assert bundle.models[0].n_outputs == 1607
        assert bundle.field_dim == 1607

    def test_partial_training_groups(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, trained_group_count=2,
                                    pca=gamma_pca, p=8)
        assert bundle.trained_groups == [0, 1]

    def test_arch_mismatch_rejected(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 3))
        with pytest.raises(ValueError, match="p/Q"):
            sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8)

    def test_kind_i_rejects_pca(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 16))
        with pytest.raises(ValueError, match="no PCA"):
            sg.build_surrogate("I", arch, pca=gamma_pca)

    def test_parameter_report(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8)
        desc = bundle.describe()
        per = nn.count_parameters(bundle.models[0])
        assert desc["parameters_total"] == 4 * per


class TestTraining:
    def test_linear_task_sanity(self):
        # tiny synthetic linear target: y_t = A x_t, reachable by the net
        rng = np.random.default_rng(3)
        mix = rng.standard_normal((3, 4)) * 0.5
        records = []
        for _ in range(20):
            x = np.cumsum(rng.standard_normal((16, 3)) * 0.02, axis=0)
            x[0] = 0.0
            fields = x @ mix + 2.0
            records.append(ds.SequenceRecord(x, fields, np.abs(fields)))
        packed = ds.pack_records(records, lengths=(16,))
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(8, 4))
        bundle = sg.build_surrogate("I", arch, seed=1)
        hist = bundle.train(packed, quick_config(
            n_batches=200, learning_rate=1e-2, n_epoch=10, batch_size=8))
        assert hist.losses[-20:].mean() < 1e-4

    def test_loss_history_shape(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=2)
        hist = bundle.train(synthetic_packed, quick_config(n_batches=10))
        assert hist.losses.shape == (10, 4)
        assert not hist.aborted
        assert set(hist.batch_lengths) <= {24, 36}

    def test_reproducible_loss_history(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        a = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=2)
        b = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=2)
        ha = a.train(synthetic_packed, quick_config(n_batches=15))
        hb = b.train(synthetic_packed, quick_config(n_batches=15))
        assert np.array_equal(ha.losses, hb.losses)

    def test_untrained_groups_parameters_frozen(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, trained_group_count=2,
                                    pca=gamma_pca, p=8, seed=3)
        before = [bundle.models[gi].state_bytes() for gi in (2, 3)]
        trained_before = bundle.models[0].state_bytes()
        bundle.train(synthetic_packed, quick_config(n_batches=25))
        assert bundle.models[2].state_bytes() == before[0]
        assert bundle.models[3].state_bytes() == before[1]
        assert bundle.models[0].state_bytes() != trained_before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_divergence_aborts_with_checkpoint(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=4)
        # absurd learning rate overflows the loss inside the first batch's
        # second epoch, so the abort restores the pre-batch parameters
        cfg = quick_config(n_batches=50, learning_rate=1e200, n_epoch=2)
        hist = bundle.train(synthetic_packed, cfg)
        assert hist.aborted
        assert hist.n_batches_run < 50
        out = bundle.predict_fields(np.zeros((5, 3))).fields
        assert np.all(np.isfinite(out))


class TestKindEquivalence:
    def test_ii_equals_iii_with_single_group(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 8))
        cfg = quick_config(n_batches=30, seed=11)
        b2 = sg.build_surrogate("II", arch, pca=gamma_pca, p=8, seed=6)
        b3 = sg.build_surrogate("III", arch, q=1, pca=gamma_pca, p=8, seed=6)
        h2 = b2.train(synthetic_packed, cfg)
        h3 = b3.train(synthetic_packed, cfg)
        assert np.array_equal(h2.losses, h3.losses)
        assert b2.models[0].state_bytes() == b3.models[0].state_bytes()
        x = synthetic_packed.groups[24][0].inputs
        assert np.array_equal(b2.predict_fields(x).fields,
                              b3.predict_fields(x).fields)


class TestPrediction:
    def test_zero_strain_near_zero_fields(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=8)
        bundle.train(synthetic_packed, quick_config(n_batches=150))
        pred = bundle.predict_fields(np.zeros((20, 3)))
        scale = max(abs(float(bundle.field_norm.maximum.max())), 1e-12)
        assert np.max(np.abs(pred.fields)) <= 0.25 * scale
        assert np.all(pred.clamped() >= 0.0)

    def test_untrained_bundle_matches_variance_baseline(self, synthetic_packed,
                                                        gamma_pca):
        # no trained groups: predictions collapse to the training-mean field,
        # so the error reproduces the variance-of-targets baseline
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, trained_group_count=0,
                                    pca=gamma_pca, p=8, seed=9)
        bundle.fit_normalization(synthetic_packed)
        report = bundle.evaluate(synthetic_packed)
        truth = np.concatenate(
            [bundle.field_norm.normalize(r.outputs_gamma)
             for r in synthetic_packed.all_records()], axis=0)
        baseline = float(np.mean((truth - truth.mean(axis=0)) ** 2))
        assert report.mse_full_dim <= 1.1 * baseline
        assert report.mse_full_dim >= 0.5 * baseline

    def test_requires_training(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8)
        with pytest.raises(ValueError, match="trained"):
            bundle.predict_fields(np.zeros((4, 3)))


class TestEvaluate:
    def test_perfect_predictor_zero_mse(self, synthetic_packed):
        class Oracle(sg.SurrogateBundle):
            def __init__(self, packed):
                arch = sg.Architecture(nnw_in=(3, 4), n_h=4, nnw_out=(4, 16))
                super().__init__("I", ds.FAMILY_GAMMA, arch, q=1)
                self.fit_normalization(packed)
                self._lookup = {
                    self.input_norm.normalize(r.inputs).tobytes(): r.outputs_gamma
                    for r in packed.all_records()
                }

            def _predict_normalized(self, x_norm):
                fields = np.stack([self._lookup[x.tobytes()] for x in x_norm])
                return self.output_norm.normalize(fields)

        oracle = Oracle(synthetic_packed)
        report = oracle.evaluate(synthetic_packed)
        assert report.mse_full_dim <= 1e-20

    def test_weighted_mean_identity(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=10)
        bundle.train(synthetic_packed, quick_config(n_batches=20))
        report = bundle.evaluate(synthetic_packed)
        manual = float(
            np.sum(report.per_sequence_mse * report.lengths) / np.sum(report.lengths)
        )
        assert report.mse_full_dim == pytest.approx(manual, rel=1e-12)

    def test_reduced_kind_bounded_below_by_pca_floor(self, synthetic_packed,
                                                     gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=11)
        bundle.train(synthetic_packed, quick_config(n_batches=120))
        report = bundle.evaluate(synthetic_packed)
        assert report.pca_floor is not None
        assert report.mse_full_dim >= report.pca_floor - 1e-9

    def test_pca_floor_uses_the_bundles_p(self, synthetic_packed, gamma_pca):
        # the bundle predicts 4 of the 8 retained coefficients, so its floor
        # is the 4-component reconstruction error, above the 8-component one
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 1))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=4, seed=12)
        bundle.fit_normalization(synthetic_packed)
        report = bundle.evaluate(synthetic_packed)

        def floor(n_components):
            head = pcalib.PcaModel(gamma_pca.mean, gamma_pca.eigenvalues,
                                   gamma_pca.components[:, :n_components])
            truth = np.concatenate(
                [r.outputs_gamma for r in synthetic_packed.all_records()])
            recon = pcalib.reconstruct(pcalib.project(truth, head), head)
            norm = bundle.field_norm.normalize
            return float(np.mean((norm(recon) - norm(truth)) ** 2))

        assert report.pca_floor == pytest.approx(floor(4), rel=1e-12)
        assert report.pca_floor > 2.0 * floor(8)

    def test_max_traces_shapes(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, pca=gamma_pca, p=8, seed=13)
        bundle.train(synthetic_packed, quick_config(n_batches=10))
        report = bundle.evaluate(synthetic_packed)
        assert len(report.max_pred) == synthetic_packed.n_sequences
        for trace, length in zip(report.max_pred, report.lengths):
            assert trace.shape == (length,)


class TestHiddenSizeTrial:
    def test_smoke_report(self, synthetic_packed, gamma_pca):
        report = sg.hidden_size_trial(
            synthetic_packed, gamma_pca, target_p=1,
            start_n_h=8, increment=8, epoch_budget=120, max_trials=2,
            nnw_in=(3, 8), nnw_out=(8,), seed=3,
        )
        assert 1 <= len(report.trials) <= 2
        assert report.trials[0].n_h == 8
        for t in report.trials:
            assert np.isfinite(t.score)
        d = report.to_dict()
        assert d["target_p"] == 1

    def test_dominant_coefficient_is_capturable(self, synthetic_packed, gamma_pca):
        report = sg.hidden_size_trial(
            synthetic_packed, gamma_pca, target_p=1,
            start_n_h=16, increment=16, epoch_budget=400, max_trials=2,
            nnw_in=(3, 8), nnw_out=(8,), seed=4, threshold=0.9,
        )
        assert report.best().score > 0.9
        assert report.recommended is not None

    def test_target_out_of_range(self, synthetic_packed, gamma_pca):
        with pytest.raises(ValueError, match="target_p"):
            sg.hidden_size_trial(synthetic_packed, gamma_pca, target_p=99)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path, synthetic_packed,
                                              gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.build_surrogate("III", arch, q=4, trained_group_count=3,
                                    pca=gamma_pca, p=8, seed=14)
        bundle.train(synthetic_packed, quick_config(n_batches=25))
        bundle.save(tmp_path / "bundle")
        loaded = sg.SurrogateBundle.load(tmp_path / "bundle")
        assert loaded.kind == "III"
        assert loaded.trained_groups == [0, 1, 2]
        x = synthetic_packed.groups[36][2].inputs
        a = bundle.predict_fields(x).fields
        b = loaded.predict_fields(x).fields
        assert a.tobytes() == b.tobytes()

    def test_kind_i_round_trip(self, tmp_path, synthetic_packed):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(8, 16))
        bundle = sg.build_surrogate("I", arch, seed=15)
        bundle.train(synthetic_packed, quick_config(n_batches=15))
        bundle.save(tmp_path / "b1")
        loaded = sg.SurrogateBundle.load(tmp_path / "b1")
        x = synthetic_packed.groups[24][0].inputs
        assert np.array_equal(bundle.predict_fields(x).fields,
                              loaded.predict_fields(x).fields)
