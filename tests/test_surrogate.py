import hashlib
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import neural as nn
from rvesurrogate import pca as pcalib
from rvesurrogate import surrogate as sg

from conftest import synthetic_records, traced_peak


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


def group_map(p, q):
    """The group map of a kind III bundle of Q groups over p coefficients,
    narrow nets over an identity basis."""
    pca = pcalib.PcaModel(np.zeros(p), np.ones(p), np.eye(p))
    arch = sg.Architecture(nnw_in=(3, 2), n_h=2, nnw_out=(p // q,))
    return sg.SurrogateBundle("III", arch, q=q, pca=pca).group_map


class TestSplitOutputs:
    def test_paper_scale_grouping(self):
        slices = group_map(180, 18)
        assert slices[0] == (0, 10)
        assert slices[-1] == (170, 180)
        assert len(slices) == 18

    def test_tau_grouping_covers_coefficients_21_to_40(self):
        # group index 1 (second group) of p=180, Q=9 owns coefficients 21..40
        slices = group_map(180, 9)
        assert slices[1] == (20, 40)

    def test_single_group_identity(self):
        assert group_map(12, 1) == [(0, 12)]

    def test_concatenation_restores_order(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 12))
        parts = [x[..., lo:hi] for lo, hi in group_map(12, 4)]
        assert np.array_equal(np.concatenate(parts, axis=-1), x)


class TestBuild:
    def test_paper_scale_gamma_breakdown(self, gamma_pca):
        # 18 RNNs over p=180 in blocks of 10 (uses a wide fake PCA)
        fake = pcalib.PcaModel(np.zeros(1607), np.ones(1607), np.eye(1607)[:, :180])
        arch = sg.Architecture(nnw_in=(3, 70), n_h=400, nnw_out=(100, 10))
        bundle = sg.SurrogateBundle("III", arch, q=18, pca=fake)
        assert len(bundle.models) == 18
        assert bundle.group_map[0] == (0, 10)
        assert bundle.group_map[-1] == (170, 180)

    def test_direct_kind_output_matches_field_dim(self):
        arch = sg.Architecture(nnw_in=(3, 70), n_h=100, nnw_out=(800, 1607))
        bundle = sg.SurrogateBundle("I", arch)
        assert bundle.models[0].n_outputs == 1607
        assert bundle.field_dim == 1607

    def test_arch_mismatch_rejected(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 3))
        with pytest.raises(ValueError, match="p = 12 coefficients, but the "
                                             "PCA retains 8"):
            sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)

    def test_kind_i_rejects_pca(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 16))
        with pytest.raises(ValueError, match="no PCA"):
            sg.SurrogateBundle("I", arch, pca=gamma_pca)

    def test_parameter_report(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        desc = bundle.describe()
        per = bundle.models[0].params.size
        assert desc["parameters_per_rnn"] == per
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
        bundle = sg.SurrogateBundle("I", arch, seed=1)
        hist = bundle.train(packed, quick_config(
            n_batches=200, learning_rate=1e-2, n_epoch=10, batch_size=8))
        assert hist.losses[-20:].mean() < 1e-4

    def test_loss_history_shape(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=2)
        hist = bundle.train(synthetic_packed, quick_config(n_batches=10))
        assert hist.losses.shape == (10, 4)
        assert not hist.aborted
        assert set(hist.batch_lengths) <= {24, 36}

    def test_reproducible_loss_history(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        a = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=2)
        b = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=2)
        ha = a.train(synthetic_packed, quick_config(n_batches=15))
        hb = b.train(synthetic_packed, quick_config(n_batches=15))
        assert np.array_equal(ha.losses, hb.losses)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_divergence_aborts_with_checkpoint(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=4)
        # absurd learning rate overflows the loss inside the first batch's
        # second epoch, so the bundle is left unfitted
        cfg = quick_config(n_batches=50, learning_rate=1e200, n_epoch=2)
        hist = bundle.train(synthetic_packed, cfg)
        assert hist.aborted
        assert len(hist.losses) < 50
        with pytest.raises(ValueError, match="has not been trained"):
            bundle.predict_fields(np.zeros((5, 3)))

    def test_nan_abort_stops_only_its_own_group(self, synthetic_packed,
                                                gamma_pca, monkeypatch):
        # groups train one after another, so a NaN stops only its own group
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))

        def build():
            return sg.SurrogateBundle("III", arch, q=3, pca=gamma_pca,
                                      seed=4)

        clean_10 = build()
        clean_hist = clean_10.train(synthetic_packed,
                                    quick_config(n_batches=10, n_epoch=2))
        real_step = nn.train_step
        calls = []

        def diverging_step(*args):
            # the update runs; the second group's batch 7 (index 6) reports
            # NaN from its second epoch, after the first group's 10 batches
            # and the second group's first 6, at 2 epochs each
            loss, norm = real_step(*args)
            calls.append(loss)
            if len(calls) == 10 * 2 + 6 * 2 + 2:
                return np.nan, norm
            return loss, norm

        monkeypatch.setattr(nn, "train_step", diverging_step)
        bundle = build()
        hist = bundle.train(synthetic_packed, quick_config(n_batches=10, n_epoch=2))
        assert hist.aborted == [(1, 6)]
        assert len(hist.losses) == 6
        assert np.array_equal(hist.losses, clean_hist.losses[:6])
        assert np.array_equal(hist.batch_lengths, clean_hist.batch_lengths[:6])
        # the other groups ran every batch; the second group ran no step
        # after the one that diverged
        assert len(calls) == (10 + 7 + 10) * 2
        for gi in (0, 2):
            assert bundle.models[gi].params.tobytes() \
                == clean_10.models[gi].params.tobytes()

    def test_an_aborted_bundle_refuses_to_predict_or_save(
            self, tmp_path, synthetic_packed, gamma_pca, monkeypatch):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=2, pca=gamma_pca, seed=4)
        real_step = nn.train_step
        calls = []

        def diverging_step(*args):
            # the second group's second batch diverges in its second epoch
            loss, norm = real_step(*args)
            calls.append(loss)
            return (np.nan, norm) if len(calls) == 3 * 2 + 4 else (loss, norm)

        monkeypatch.setattr(nn, "train_step", diverging_step)
        hist = bundle.train(synthetic_packed,
                            quick_config(n_batches=3, n_epoch=2))
        assert hist.aborted == [(1, 1)]
        untrained = "surrogate has not been trained"
        with pytest.raises(ValueError, match=untrained):
            bundle.predict(np.zeros((1, 5, 3)))
        with pytest.raises(ValueError, match=untrained):
            bundle.predict_fields(np.zeros((5, 3)))
        with pytest.raises(ValueError, match=untrained):
            bundle.save(tmp_path)
        assert not any(tmp_path.iterdir())

    def test_first_epoch_abort_keeps_the_parameters_untouched(
            self, synthetic_packed, gamma_pca, monkeypatch):
        # a NaN in a batch's first epoch comes before any update of that
        # batch, so nothing is redrawn or replayed
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        clean = sg.SurrogateBundle("II", arch, pca=gamma_pca, seed=4)
        clean.train(synthetic_packed, quick_config(n_batches=3, n_epoch=2))
        real_step = nn.train_step
        calls = []

        def diverging_step(*args):
            # batch 4's first epoch diverges, and like a real diverged
            # step it updates nothing
            calls.append(args)
            if len(calls) == 3 * 2 + 1:
                return np.nan, np.nan
            return real_step(*args)

        monkeypatch.setattr(nn, "train_step", diverging_step)
        bundle = sg.SurrogateBundle("II", arch, pca=gamma_pca, seed=4)
        hist = bundle.train(synthetic_packed,
                            quick_config(n_batches=5, n_epoch=2))
        assert hist.aborted == [(0, 3)]
        assert len(calls) == 3 * 2 + 1
        assert bundle.params.tobytes() == clean.params.tobytes()

    def test_a_loaded_bundle_trains_on_from_its_parameters(
            self, tmp_path, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("II", arch, pca=gamma_pca, seed=4)
        bundle.train(synthetic_packed, quick_config(n_batches=1))
        bundle.save(tmp_path)
        loaded = sg.SurrogateBundle.load(tmp_path)
        for b in (bundle, loaded):
            b.train(synthetic_packed, quick_config(n_batches=2, seed=1))
        assert loaded.params.tobytes() == bundle.params.tobytes()

    def test_kind_iii_training_is_pinned(self, synthetic_packed, gamma_pca):
        # computed with the batch-outer loop that trained every group on a
        # batch before drawing the next; the group-outer loop must give the
        # same bytes, which it does only if every group sees every batch
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=3, pca=gamma_pca, seed=5)
        hist = bundle.train(synthetic_packed,
                            quick_config(n_batches=12, seed=9, n_epoch=2))
        digests = [hashlib.sha256(m.params.tobytes()).hexdigest()[:16]
                   for m in bundle.models]
        assert digests == ["303a6011112e2410", "d977aeccfca2b3e1",
                           "4e9d88b09f6fcc23"]
        assert set(hist.batch_lengths) == {24, 36}
        assert hashlib.sha256(hist.losses.tobytes()).hexdigest()[:16] \
            == "64c94d86349a0ee8"

    @pytest.mark.parametrize("clip_norm, clipped", [(1e-9, 10), (0.0, 0)])
    def test_clipped_steps_per_group(self, synthetic_packed, gamma_pca,
                                     clip_norm, clipped):
        # 5 batches x 2 epochs: a cap below every norm clips each step, and
        # a zero cap clips none
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=3, pca=gamma_pca,
                                    seed=6)
        hist = bundle.train(synthetic_packed, quick_config(
            n_batches=5, n_epoch=2, clip_norm=clip_norm))
        assert hist.clipped_steps.tolist() == [clipped] * 3
        assert hist.max_grad_norm.shape == (3,)
        assert np.all(hist.max_grad_norm > 0.0)


class TestTargets:
    def test_training_projects_each_length_group_once(
            self, synthetic_packed, gamma_pca, monkeypatch):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        projected = []
        real = pcalib.project

        def counted(x, model):
            projected.append(x.shape)
            return real(x, model)

        monkeypatch.setattr(pcalib, "project", counted)
        bundle.train(synthetic_packed, quick_config(n_batches=2))
        assert projected == [
            (len(synthetic_packed.groups[n]), n, 16)
            for n in synthetic_packed.lengths]

    def test_stacked_targets_give_the_per_record_normalization(
            self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        fitted = bundle.fit_normalization(synthetic_packed)
        per_record = ds.fit_normalization(
            [pcalib.project(r.outputs_gamma, gamma_pca)
             for r in synthetic_packed.all_records()])
        assert bundle.output_norm.to_dict() == per_record.to_dict()
        for length, (_, target) in bundle._group_arrays(
                synthetic_packed).items():
            assert target.tobytes() == bundle.output_norm.normalize(
                fitted[length]).tobytes()


class TestTrainingAllocations:
    """Kind III at paper width, (3, 70) / 400 / (100, 2), on batches of 8
    sequences of 32 steps: one optimizer state, one gradient vector and one
    step workspace are alive at a time, whatever the group count, and a
    bundle holds its parameters and no gradients or parameter backup."""

    @pytest.fixture(scope="class")
    def traced(self, gamma_pca):
        packed = ds.pack_records(synthetic_records(seed=1234, n_records=36),
                                 lengths=(32,))
        arch = sg.Architecture(nnw_in=(3, 70), n_h=400, nnw_out=(100, 2))
        cfg = quick_config(n_batches=3, n_epoch=2, batch_size=8)
        peaks = {}
        real_step = nn.train_step
        for q in (2, 4):
            steps = []
            # peaks of the call before each step, as each step resets it
            call_peaks = []

            def step(*args):
                before, peak = tracemalloc.get_traced_memory()
                call_peaks.append(peak)
                tracemalloc.reset_peak()
                out = real_step(*args)
                steps.append(tracemalloc.get_traced_memory()[1] - before)
                return out

            nn.train_step = step
            tracemalloc.start()
            try:
                bundle = sg.SurrogateBundle("III", arch, q=q, pca=gamma_pca,
                                            seed=8)
                built = tracemalloc.get_traced_memory()[0]
                bundle.train(packed, cfg)
                call_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                nn.train_step = real_step
            # the peak of training over what the built bundle holds, the
            # steps' allocations, a parameter vector's bytes and the peak
            # of building and training the bundle
            peaks[q] = (max(call_peaks) - built, steps,
                        bundle.models[0].params.nbytes, max(call_peaks))
        return peaks

    def test_train_peak_under_5_parameter_vectors(self, traced):
        # Adam's two moments and the gradient, plus the step workspace
        peak, _, nbytes, _ = traced[4]
        assert peak < 5 * nbytes

    def test_train_peak_does_not_grow_with_the_group_count(self, traced):
        assert traced[4][0] == pytest.approx(traced[2][0], rel=0.1)

    def test_bundle_peak_grows_by_its_parameter_rows_alone(self, traced):
        # two more groups add two parameter rows to the block; a gradient
        # block would add two more
        nbytes = traced[2][2]
        assert traced[4][3] - traced[2][3] < 3 * nbytes

    def test_steps_after_the_first_allocate_under_1_mb(self, traced):
        for q in (2, 4):
            steps = traced[q][1]
            assert len(steps) == q * 3 * 2
            assert max(steps[1:]) < 1_000_000


class TestPredictionMemory:
    def test_stacked_prediction_peak_stays_near_one_groups(self):
        # 18 groups of one coefficient each, their nets narrow next to the
        # 3 n_h gate pre-activations per row and group that a stack holds
        d = 18
        records = synthetic_records(seed=41, n_records=4, d_gamma=d)
        pca = pcalib.PcaModel(np.zeros(d), np.ones(d), np.eye(d))
        arch = sg.Architecture(nnw_in=(3, 8), n_h=16, nnw_out=(1,))
        bundle = sg.SurrogateBundle("III", arch, q=d, pca=pca, seed=42)
        bundle.fit_normalization(ds.pack_records(records, lengths=(24,)))
        # batch x steps = _STACK_ROWS rows: past the threshold under which a
        # pass stacks two groups or more
        n_b = 32
        x = np.random.default_rng(43).uniform(
            -1.0, 1.0, (n_b, sg._STACK_ROWS // n_b, 3))
        # the first pass builds the stacked models
        bundle._run_groups(x)
        one_group = traced_peak(lambda: bundle.models[0].forward(x))
        every_group = traced_peak(lambda: bundle._run_groups(x))
        assert every_group < 2 * one_group

    @pytest.fixture(scope="class")
    def paper_width(self):
        """A fitted 4-group bundle at the benchmark's paper width, and a
        dataset of 14 sequences of 32 steps, as eval passes it."""
        d = 40
        records = synthetic_records(seed=44, n_records=14, d_gamma=d,
                                    min_steps=32, max_steps=40)
        packed = ds.pack_records(records, lengths=(32,))
        pca = pcalib.PcaModel(np.zeros(d), np.ones(d), np.eye(d))
        arch = sg.Architecture(nnw_in=(3, 70), n_h=400, nnw_out=(100, 10))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=pca, seed=45)
        bundle.fit_normalization(packed)
        return bundle, packed

    def test_eval_passes_run_one_group_at_a_time(self, paper_width):
        bundle, packed = paper_width
        x = np.stack([r.inputs for r in packed.groups[32]])
        assert x.shape == (14, 32, 3)
        bundle._run_groups(x)
        one_group = traced_peak(lambda: bundle.models[0].forward(x))
        every_group = traced_peak(lambda: bundle._run_groups(x))
        assert every_group < 1.5 * one_group

    def test_evaluate_bytes_do_not_depend_on_the_stacking(self, paper_width,
                                                          monkeypatch):
        bundle, packed = paper_width
        reports = [bundle.evaluate(packed)]
        monkeypatch.setattr(sg, "_STACK_ROWS", 2048)
        reports.append(bundle.evaluate(packed))
        for report in reports:
            assert report.mse_full_dim == reports[0].mse_full_dim
            assert report.per_sequence_mse.tobytes() \
                == reports[0].per_sequence_mse.tobytes()
            assert np.array(report.max_pred).tobytes() \
                == np.array(reports[0].max_pred).tobytes()


class TestKindEquivalence:
    def test_ii_equals_iii_with_single_group(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 8))
        cfg = quick_config(n_batches=30, seed=11)
        b2 = sg.SurrogateBundle("II", arch, pca=gamma_pca, seed=6)
        b3 = sg.SurrogateBundle("III", arch, q=1, pca=gamma_pca, seed=6)
        h2 = b2.train(synthetic_packed, cfg)
        h3 = b3.train(synthetic_packed, cfg)
        assert np.array_equal(h2.losses, h3.losses)
        assert b2.models[0].params.tobytes() == b3.models[0].params.tobytes()
        x = synthetic_packed.groups[24][0].inputs
        assert np.array_equal(b2.predict_fields(x).fields,
                              b3.predict_fields(x).fields)


class TestPrediction:
    def test_zero_strain_near_zero_fields(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=8)
        bundle.train(synthetic_packed, quick_config(n_batches=150))
        pred = bundle.predict_fields(np.zeros((20, 3)))
        scale = max(abs(float(bundle.field_norm.maximum.max())), 1e-12)
        assert np.max(np.abs(pred.fields)) <= 0.25 * scale

    def test_requires_training(self, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        with pytest.raises(ValueError, match="trained"):
            bundle.predict_fields(np.zeros((4, 3)))


class TestEvaluate:
    def test_perfect_predictor_zero_mse(self, synthetic_packed):
        class Oracle(sg.SurrogateBundle):
            def __init__(self, packed):
                arch = sg.Architecture(nnw_in=(3, 4), n_h=4, nnw_out=(4, 16))
                super().__init__("I", arch)
                self.fit_normalization(packed)
                self._lookup = {r.inputs.tobytes(): r.outputs_gamma
                                for r in packed.all_records()}

            def predict(self, strain_features):
                return np.stack([self._lookup[x.tobytes()]
                                 for x in strain_features])

        oracle = Oracle(synthetic_packed)
        report = oracle.evaluate(synthetic_packed)
        assert report.mse_full_dim <= 1e-20

    def test_weighted_mean_identity(self, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=10)
        bundle.train(synthetic_packed, quick_config(n_batches=20))
        report = bundle.evaluate(synthetic_packed)
        manual = float(
            np.sum(report.per_sequence_mse * report.lengths) / np.sum(report.lengths)
        )
        assert report.mse_full_dim == pytest.approx(manual, rel=1e-12)

    def test_reduced_kind_bounded_below_by_pca_floor(self, synthetic_packed,
                                                     gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=11)
        bundle.train(synthetic_packed, quick_config(n_batches=120))
        report = bundle.evaluate(synthetic_packed)
        assert report.pca_floor is not None
        assert report.mse_full_dim >= report.pca_floor - 1e-9

    def test_pca_floor_uses_the_bundles_p(self, synthetic_packed, gamma_pca):
        # the bundle predicts 4 of the 8 retained coefficients, so its floor
        # is the 4-component reconstruction error, above the 8-component one
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 1))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=12)
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
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca, seed=13)
        bundle.train(synthetic_packed, quick_config(n_batches=10))
        report = bundle.evaluate(synthetic_packed)
        assert len(report.max_pred) == len(list(synthetic_packed.all_records()))
        for trace, length in zip(report.max_pred, report.lengths):
            assert trace.shape == (length,)


@pytest.fixture(scope="module")
def trial_sides():
    """The records of ``synthetic_packed`` split by path: the last 7 of 36
    are held out, and each side is packed on its own."""
    records = synthetic_records(seed=1234, n_records=36)
    return tuple(ds.pack_records(side, lengths=(24, 36))
                 for side in (records[:29], records[29:]))


# the surrogate a trial sizes: its n_h and its output width do not matter
TRIAL_ARCH = sg.Architecture((3, 8), 4, (8, 2))


def trial_config(seed, learning_rate=1e-3):
    """The training of the surrogate a trial sizes; ``n_batches`` does not
    matter."""
    return nn.TrainConfig(learning_rate=learning_rate, n_epoch=1,
                          n_batches=1000, batch_size=8, seed=seed)


class TestHiddenSizeTrial:
    def test_smoke_report(self, trial_sides, gamma_pca):
        report = sg.hidden_size_trial(
            *trial_sides, gamma_pca, TRIAL_ARCH, trial_config(3), target_p=1,
            start_n_h=8, increment=8, epoch_budget=120, max_trials=2,
        )
        assert 1 <= len(report["trials"]) <= 2
        assert report["trials"][0]["n_h"] == 8
        for t in report["trials"]:
            assert np.isfinite(t["score"])
        assert report["target_p"] == 1

    def test_dominant_coefficient_is_capturable(self, trial_sides, gamma_pca):
        report = sg.hidden_size_trial(
            *trial_sides, gamma_pca, TRIAL_ARCH, trial_config(4), target_p=1,
            start_n_h=16, increment=16, epoch_budget=400, max_trials=2,
            threshold=0.9,
        )
        assert max(t["score"] for t in report["trials"]) > 0.9
        assert report["recommended"] is not None

    def test_an_aborted_size_is_never_recommended(self, trial_sides,
                                                  gamma_pca, monkeypatch):
        # the first size's second step, its first batch's second epoch,
        # diverges; any score passes the threshold
        real_step = nn.train_step
        calls = []

        def diverging_step(*args):
            loss, norm = real_step(*args)
            calls.append(loss)
            return (np.nan, norm) if len(calls) == 2 else (loss, norm)

        monkeypatch.setattr(nn, "train_step", diverging_step)
        config = nn.TrainConfig(learning_rate=1e-3, n_epoch=2,
                                n_batches=1000, batch_size=8, seed=6)
        report = sg.hidden_size_trial(
            *trial_sides, gamma_pca, TRIAL_ARCH, config, target_p=1,
            start_n_h=8, increment=8, epoch_budget=5, max_trials=3,
            threshold=-1.0)
        first, second = report["trials"]
        assert first["aborted"] == [(0, 0)]
        assert first["score"] is None
        assert second["aborted"] == []
        assert np.isfinite(second["score"])
        assert report["recommended"] == 16

    def test_target_out_of_range(self, trial_sides, gamma_pca):
        with pytest.raises(ValueError, match="target_p"):
            sg.hidden_size_trial(*trial_sides, gamma_pca, TRIAL_ARCH,
                                 trial_config(0), target_p=99)

    def test_trial_is_a_one_component_kind_two_bundle(self, trial_sides,
                                                     gamma_pca):
        # the same bundle, built, trained and scored by hand
        train_set, val_set = trial_sides
        report = sg.hidden_size_trial(
            train_set, val_set, gamma_pca, TRIAL_ARCH,
            trial_config(5, learning_rate=2e-3), target_p=2, start_n_h=8,
            epoch_budget=30, max_trials=1,
        )
        second = pcalib.PcaModel(gamma_pca.mean, gamma_pca.eigenvalues,
                                 gamma_pca.components[:, 1:2])
        bundle = sg.SurrogateBundle("II", sg.Architecture((3, 8), 8, (8, 1)),
                                    pca=second, seed=5)
        history = bundle.train(train_set, nn.TrainConfig(
            learning_rate=2e-3, n_epoch=1, n_batches=30, batch_size=8,
            seed=5))
        groups = bundle._group_arrays(val_set).values()
        pred = np.concatenate([bundle._run_groups(x)[0].ravel()
                               for x, _ in groups])
        true = np.concatenate([y.ravel() for _, y in groups])
        [trial] = report["trials"]
        assert trial["final_loss"] == history.final_loss()
        assert trial["score"] == np.corrcoef(pred, true)[0, 1]


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path, synthetic_packed,
                                              gamma_pca, monkeypatch):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=3, pca=gamma_pca,
                                    seed=14)
        bundle.train(synthetic_packed, quick_config(n_batches=25))
        bundle.save(tmp_path / "bundle")
        draws = []

        class Spy(np.random.Generator):
            def uniform(self, *args, **kwargs):
                draws.append(args)
                return super().uniform(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        nn.RnnModel.build((3, 8), 8, (4, 2))
        assert draws  # the spy sees a seeded build's draws
        draws.clear()
        loaded = sg.SurrogateBundle.load(tmp_path / "bundle")
        # load reads every parameter and draws none
        assert draws == []
        for a, b in zip(bundle.models, loaded.models):
            assert a.params.tobytes() == b.params.tobytes()
        assert loaded.kind == "III"
        # the bundle keeps the 6 of the 8 components it predicts
        assert loaded.pca.retained_p == 6
        x = synthetic_packed.groups[36][2].inputs
        a = bundle.predict_fields(x).fields
        b = loaded.predict_fields(x).fields
        assert a.tobytes() == b.tobytes()

    def test_kind_i_round_trip(self, tmp_path, synthetic_packed):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(8, 16))
        bundle = sg.SurrogateBundle("I", arch, seed=15)
        bundle.train(synthetic_packed, quick_config(n_batches=15))
        bundle.save(tmp_path / "b1")
        loaded = sg.SurrogateBundle.load(tmp_path / "b1")
        x = synthetic_packed.groups[24][0].inputs
        assert np.array_equal(bundle.predict_fields(x).fields,
                              loaded.predict_fields(x).fields)

    def test_an_untrained_bundle_is_not_saved(self, tmp_path, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        with pytest.raises(ValueError, match="has not been trained"):
            bundle.save(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_a_model_file_that_disagrees_with_the_bundle(
            self, tmp_path, synthetic_packed, gamma_pca):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        bundle.train(synthetic_packed, quick_config(n_batches=1))
        bundle.save(tmp_path)
        nn.save_model(tmp_path / "rnn_01.bin",
                      nn.RnnModel.build((3, 8), 9, (4, 2)))
        with pytest.raises(ValueError,
                           match=r"rnn_01\.bin: not a version-1 model file"):
            sg.SurrogateBundle.load(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        # bundle files of versions that could leave groups untrained
        ("trained_groups", [0, 1], r"unknown keys: trained_groups$"),
        ("coeff_means", [0.0] * 8, r"unknown keys: coeff_means$"),
        # bundle files of versions that stated h0 and the group map next to
        # what fixes them
        ("h0", -1.0, r"unknown keys: h0$"),
        ("group_map", [[0, 2], [2, 4], [4, 6], [6, 7]],
         r"unknown keys: group_map$"),
        ("group_map", [[0, 4], [4, 8]], r"unknown keys: group_map$"),
    ])
    def test_load_rejects_a_group_layout_training_cannot_write(
            self, tmp_path, synthetic_packed, gamma_pca, key, value, message):
        arch = sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2))
        bundle = sg.SurrogateBundle("III", arch, q=4, pca=gamma_pca)
        bundle.train(synthetic_packed, quick_config(n_batches=1))
        bundle.save(tmp_path)
        meta = ds.read_json(tmp_path / sg.BUNDLE_FILE)
        meta[key] = value
        ds.write_json(tmp_path / sg.BUNDLE_FILE, meta)
        with pytest.raises(ValueError, match=r"bundle\.json: " + message):
            sg.SurrogateBundle.load(tmp_path)


# kind -> (architecture, build keywords); kind III predicts 6 of the 8
# retained components in Q=3 groups, so resumed states stack 3 groups and
# the fields come from a cut PCA
HISTORY_KINDS = {
    "I": (sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(8, 16)), {}),
    "II": (sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 8)), {}),
    "III": (sg.Architecture(nnw_in=(3, 8), n_h=8, nnw_out=(4, 2)),
            {"q": 3}),
}


def build_history_bundle(kind, gamma_pca, seed=16):
    arch, kw = HISTORY_KINDS[kind]
    pca = gamma_pca if kind != "I" else None
    return sg.SurrogateBundle(kind, arch, pca=pca, seed=seed, **kw)


@pytest.fixture(scope="module", params=sorted(HISTORY_KINDS))
def saved_bundle(request, tmp_path_factory, synthetic_packed, gamma_pca):
    bundle = build_history_bundle(request.param, gamma_pca)
    bundle.train(synthetic_packed, quick_config(n_batches=20))
    directory = tmp_path_factory.mktemp(f"bundle_{request.param}")
    bundle.save(directory)
    return directory


@pytest.fixture
def split(monkeypatch):
    """One-row passes run as two half-stacks, whatever this host's CPUs."""
    monkeypatch.setattr(sg, "_SPLIT", True)


def one_row_passes(q):
    """(groups, steps) of the passes of a one-row query with ``split``: the
    two half-stacks of Q >= 2 groups, or the one group."""
    return sorted([(q // 2, 1), (q - q // 2, 1)]) if q > 1 else [(1, 1)]


@pytest.fixture
def forward_steps(monkeypatch):
    """(groups, steps) of every RnnModel.forward call, in call order; the
    two halves of a split pass run on two threads, in either order."""
    steps = []
    original = nn.RnnModel.forward

    def recording(model, inputs, h_init=None, workspace=None):
        groups = model.params.shape[0] if model.params.ndim > 1 else 1
        steps.append((groups, np.shape(inputs)[1]))
        return original(model, inputs, h_init=h_init, workspace=workspace)

    monkeypatch.setattr(nn.RnnModel, "forward", recording)
    return steps


def query_histories(synthetic_packed):
    """Two random-walk histories and a cyclic one, 20 steps each."""
    walks = [synthetic_packed.groups[24][i].inputs[:20] for i in (0, 3)]
    t = np.arange(20)
    triangle = 0.04 * (1.0 - np.abs((t % 8) / 4.0 - 1.0))
    cyclic = triangle[:, None] * np.array([1.0, -0.5, 0.3])
    return walks + [cyclic]


def assert_matches_cold(warm_fields, cold_fields):
    scale = max(float(np.max(np.abs(cold_fields))), 1e-300)
    assert warm_fields.shape == cold_fields.shape
    assert np.max(np.abs(warm_fields - cold_fields)) <= 1e-12 * scale


def fitted_history_bundle(kind, gamma_pca, synthetic_packed, q=None,
                          seed=16):
    """An untrained bundle of ``HISTORY_KINDS``' architecture, fitted to
    the synthetic data; kind III in ``q`` groups of 2 coefficients."""
    if q is None:
        bundle = build_history_bundle(kind, gamma_pca, seed)
    else:
        arch = HISTORY_KINDS[kind][0]
        bundle = sg.SurrogateBundle(kind, arch, q=q, pca=gamma_pca,
                                    seed=seed)
    bundle.fit_normalization(synthetic_packed)
    return bundle


def history_bytes(bundle):
    return [(key, states.tobytes(), fields.tobytes())
            for key, (states, fields) in bundle._history.items()]


class TestHistoryReuse:
    """Resumed (warm) queries against full replays on a fresh bundle (cold)."""

    def test_interleaved_stepwise_queries_match_full_sequence(
            self, saved_bundle, synthetic_packed, split, forward_steps):
        histories = query_histories(synthetic_packed)
        warm = sg.SurrogateBundle.load(saved_bundle)
        kept = [np.empty((len(h), warm.field_dim)) for h in histories]
        for k in range(1, 21):
            for h, rows in zip(histories, kept):
                rows[k - 1] = warm.predict_fields(h[:k]).fields[-1]
        # every history's first query replays one row and every later one
        # runs one step: each query's groups run as two half-stacks
        assert sorted(forward_steps) == sorted(one_row_passes(warm.q) * 60)
        cold = sg.SurrogateBundle.load(saved_bundle)
        for h, rows in zip(histories, kept):
            assert_matches_cold(rows, cold.predict_fields(h).fields)

    def test_newton_iterates_resume_from_the_converged_history(
            self, saved_bundle, synthetic_packed, split, forward_steps):
        prefix = query_histories(synthetic_packed)[2][:12]
        warm = sg.SurrogateBundle.load(saved_bundle)
        for k in range(1, 13):
            warm.predict_fields(prefix[:k])
        cold = sg.SurrogateBundle.load(saved_bundle)
        for trial in ([0.01, 0.0, 0.0], [-0.02, 0.01, 0.0], [0.0, 0.0, 0.03]):
            x = np.vstack([prefix, prefix[-1] + np.array(trial)])
            del forward_steps[:]
            fields = warm.predict_fields(x).fields
            assert sorted(forward_steps) == one_row_passes(warm.q)
            assert_matches_cold(fields, cold.predict_fields(x).fields)

    def test_answers_unaffected_by_caller_mutation(self, saved_bundle,
                                                   synthetic_packed):
        h, other = query_histories(synthetic_packed)[:2]
        warm = sg.SurrogateBundle.load(saved_bundle)
        cold = sg.SurrogateBundle.load(saved_bundle)
        buffer = h[:5].copy()
        first = warm.predict_fields(buffer)
        first.fields[...] = 1e9
        second = warm.predict_fields(h[:6])
        assert_matches_cold(second.fields, cold.predict_fields(h[:6]).fields)
        second.fields[...] = -1e9
        assert_matches_cold(warm.predict_fields(h[:7]).fields,
                            cold.predict_fields(h[:7]).fields)
        # the stored history keeps the rows it was queried with, not the buffer's
        buffer[...] = other[:5]
        x = np.vstack([buffer, other[5]])
        assert_matches_cold(warm.predict_fields(x).fields,
                            cold.predict_fields(x).fields)

    def test_map_is_bounded_and_evicted_histories_replay(
            self, saved_bundle, synthetic_packed, forward_steps):
        h = query_histories(synthetic_packed)[0]
        warm = sg.SurrogateBundle.load(saved_bundle)
        warm.predict_fields(h[:10])
        rng = np.random.default_rng(17)
        for _ in range(sg.HISTORY_CACHE_ENTRIES + 5):
            warm.predict_fields(rng.uniform(-0.05, 0.05, size=(2, 3)))
        assert len(warm._history) <= sg.HISTORY_CACHE_ENTRIES
        del forward_steps[:]
        cold = sg.SurrogateBundle.load(saved_bundle)
        assert_matches_cold(warm.predict_fields(h[:11]).fields,
                            cold.predict_fields(h[:11]).fields)
        # evicted: the warm bundle replayed all 11 steps, as the cold one did
        assert set(forward_steps) == {(warm.q, 11)}

    def test_half_the_map_serves_gauss_points_stepping_in_turn(
            self, synthetic_packed, gamma_pca, monkeypatch, forward_steps):
        # a hit keeps the history it resumed, for Newton re-queries, next to
        # the new one, so each point holds 2 entries
        monkeypatch.setattr(sg, "_SPLIT", False)
        bundle = fitted_history_bundle("III", gamma_pca, synthetic_packed)
        n_points = sg.HISTORY_CACHE_ENTRIES // 2
        paths = np.random.default_rng(18).uniform(-0.05, 0.05,
                                                  size=(n_points, 6, 3))
        for k in range(1, 7):
            del forward_steps[:]
            for path in paths:
                bundle.predict_fields(path[:k])
            # one step of every group per query, in one stacked pass
            assert forward_steps == [(bundle.q, 1)] * n_points

    @pytest.mark.parametrize("refit", ["train", "fit_normalization"])
    def test_refit_bundle_answers_like_its_reloaded_copy(
            self, refit, tmp_path, synthetic_packed, gamma_pca):
        h = query_histories(synthetic_packed)[1]
        bundle = build_history_bundle("III", gamma_pca)
        bundle.train(synthetic_packed, quick_config(n_batches=5))
        for k in range(1, 11):
            bundle.predict_fields(h[:k])
        longer = ds.pack_records(list(synthetic_packed.groups[36]), lengths=(36,))
        if refit == "train":
            bundle.train(longer, quick_config(n_batches=5, seed=8))
        else:
            bundle.fit_normalization(longer)
        bundle.save(tmp_path / "bundle")
        reloaded = sg.SurrogateBundle.load(tmp_path / "bundle")
        # the first query extends a history queried before the refit
        for k in range(11, 15):
            a = bundle.predict_fields(h[:k]).fields
            b = reloaded.predict_fields(h[:k]).fields
            assert a.tobytes() == b.tobytes()


class TestMalformedQueries:
    @pytest.fixture(scope="class")
    def bundle(self, synthetic_packed, gamma_pca):
        return fitted_history_bundle("III", gamma_pca, synthetic_packed)

    @pytest.mark.parametrize("shape", [(0, 3), (5, 4), (5,), (1, 5, 3)])
    def test_wrong_shape_names_the_expected_one(self, bundle, shape):
        with pytest.raises(ValueError, match=r"expected a \(steps, 3\)"):
            bundle.predict_fields(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_strain_rejected(self, bundle, value):
        x = np.zeros((6, 3))
        x[4, 1] = value
        with pytest.raises(ValueError,
                           match=r"non-finite .* step 4 of the \(steps, 3\)"):
            bundle.predict_fields(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_new_row_rejected_on_a_hit(self, bundle, value, split,
                                                  forward_steps):
        x = np.full((6, 3), 0.01)
        bundle.predict_fields(x[:5])
        bad = x.copy()
        bad[5, 2] = value
        del forward_steps[:]
        with pytest.raises(ValueError,
                           match=r"non-finite .* step 5 of the \(steps, 3\)"):
            bundle.predict_fields(bad)
        assert forward_steps == []
        # the kept history still serves the next query with one step a group
        bundle.predict_fields(x)
        assert sorted(forward_steps) == one_row_passes(bundle.q)


class TestSplitQueries:
    """One-row passes run their two half-stacks on two threads."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_split_queries_give_the_serial_bytes(
            self, q, synthetic_packed, gamma_pca, monkeypatch, forward_steps):
        h = query_histories(synthetic_packed)[0]
        answers = {}
        for split in (False, True):
            monkeypatch.setattr(sg, "_SPLIT", split)
            bundle = fitted_history_bundle("III", gamma_pca, synthetic_packed,
                                           q=q)
            del forward_steps[:]
            answers[split] = [bundle.predict_fields(h[:k]).fields.tobytes()
                              for k in range(1, 21)]
            answers[split].append(history_bytes(bundle))
        assert answers[True] == answers[False]
        assert sorted(forward_steps) == sorted(one_row_passes(q) * 20)
        # a pass of more than one row runs on the calling thread alone
        del forward_steps[:]
        bundle.predict_fields(h[::-1])
        assert forward_steps == [(q, 20)]

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_one_group_kinds_never_split(self, kind, synthetic_packed,
                                         gamma_pca, split, forward_steps):
        h = query_histories(synthetic_packed)[1]
        bundle = fitted_history_bundle(kind, gamma_pca, synthetic_packed)
        for k in range(1, 6):
            bundle.predict_fields(h[:k])
        assert forward_steps == [(1, 1)] * 5

    @staticmethod
    def failing_half(monkeypatch, on_helper, error):
        """Make the forward of the helper's half (``on_helper``) or of the
        caller's half raise ``error``; the other half sleeps, then runs.
        Returns the event the other half sets once it has run."""
        caller = threading.get_ident()
        original = nn.RnnModel.forward
        other_done = threading.Event()

        def forward(model, inputs, h_init=None, workspace=None):
            if (threading.get_ident() != caller) == on_helper:
                raise error
            time.sleep(0.05)
            out = original(model, inputs, h_init=h_init, workspace=workspace)
            other_done.set()
            return out

        monkeypatch.setattr(nn.RnnModel, "forward", forward)
        return other_done

    @pytest.mark.parametrize("on_helper", [True, False],
                             ids=["helper", "caller"])
    def test_an_error_in_either_half_reaches_the_caller(
            self, on_helper, synthetic_packed, gamma_pca, split, monkeypatch):
        h, other = query_histories(synthetic_packed)[2:0:-1]
        bundle = fitted_history_bundle("III", gamma_pca, synthetic_packed)
        for k in range(1, 6):
            bundle.predict_fields(h[:k])
        # the failing query resumes a history that is not the latest
        bundle.predict_fields(other[:3])
        before = history_bytes(bundle)
        error = RuntimeError("a half-stack failed")
        with monkeypatch.context() as patch:
            other_done = self.failing_half(patch, on_helper, error)
            with pytest.raises(RuntimeError) as raised:
                bundle.predict_fields(h[:6])
            # the other half had finished before the error was raised
            assert other_done.is_set()
        assert raised.value is error
        assert history_bytes(bundle) == before
        # the helper is not wedged: the same query now succeeds
        cold = fitted_history_bundle("III", gamma_pca, synthetic_packed)
        assert_matches_cold(bundle.predict_fields(h[:6]).fields,
                            cold.predict_fields(h[:6]).fields)


def test_callers_on_four_threads_get_their_own_answers(
        synthetic_packed, gamma_pca, monkeypatch):
    """Four threads query four bundles through the one helper at once."""
    h = query_histories(synthetic_packed)[0]
    specs = [(2, 20), (3, 21), (4, 22), (3, 23)]

    def answers(q, seed):
        bundle = fitted_history_bundle("III", gamma_pca, synthetic_packed,
                                       q=q, seed=seed)
        return [bundle.predict_fields(h[:k]).fields.tobytes()
                for k in range(1, 21)]

    monkeypatch.setattr(sg, "_SPLIT", False)
    expected = [answers(*spec) for spec in specs]
    monkeypatch.setattr(sg, "_SPLIT", True)
    results = [None] * len(specs)

    def work(i):
        results[i] = answers(*specs[i])

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def predict_in_child(bundle, x, conn):
    conn.send(bundle.predict_fields(x).fields.tobytes())
    conn.close()


def test_a_forked_child_starts_its_own_helper(synthetic_packed, gamma_pca,
                                              split):
    h = query_histories(synthetic_packed)[0]
    bundle = fitted_history_bundle("III", gamma_pca, synthetic_packed)
    for k in range(1, 6):
        bundle.predict_fields(h[:k])
    # the child's query resumes the parent's kept history: a split pass
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=predict_in_child,
                            args=(bundle, h[:6], sender))
    child.start()
    try:
        assert receiver.poll(timeout=60), "the forked child did not answer"
        answer = receiver.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert answer == bundle.predict_fields(h[:6]).fields.tobytes()
