import re

import numpy as np
import pytest

from rvesurrogate import datastore as ds
from rvesurrogate import pathgen as pg

CHI2_99_DOF7 = 18.4753  # upper 1% quantile, 7 degrees of freedom
CHI2_99_DOF3 = 11.3449  # upper 1% quantile, 3 degrees of freedom


def make_record(rng, n_steps=20, d_gamma=4, d_tau=6, truncated=False):
    inputs = rng.standard_normal((n_steps, 3)) * 0.05
    inputs[0] = 0.0
    gamma = np.cumsum(np.abs(rng.standard_normal((n_steps, d_gamma))) * 0.05, axis=0)
    gamma[0] = 0.0
    tau = np.abs(rng.standard_normal((n_steps, d_tau))) * 50.0
    tau[0] = 0.0
    return ds.SequenceRecord(inputs, gamma, tau, truncated=truncated)


class TestNormalization:
    def test_direct_substitution(self):
        spec = ds.NormalizationSpec(np.array([0.0]), np.array([2.0]))
        assert spec.normalize([2.0]) == 1.0
        assert spec.normalize([0.0]) == -1.0
        assert spec.normalize([1.0]) == 0.0

    def test_out_of_range_not_clamped(self):
        spec = ds.NormalizationSpec(np.array([0.0]), np.array([2.0]))
        assert spec.normalize([3.0]) == 2.0

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((30, 5)) * rng.uniform(0.1, 100) for _ in range(8)]
        spec = ds.fit_normalization(blocks)
        x = rng.standard_normal((100, 5)) * 10
        back = spec.denormalize(spec.normalize(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
        again = spec.normalize(spec.denormalize(x))
        assert np.max(np.abs(again - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    def test_fit_maps_training_data_into_unit_range(self):
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((25, 4)) for _ in range(5)]
        spec = ds.fit_normalization(blocks)
        for b in blocks:
            n = spec.normalize(b)
            assert np.all(n >= -1.0 - 1e-12)
            assert np.all(n <= 1.0 + 1e-12)

    def test_degenerate_feature_flagged(self):
        blocks = [np.column_stack([np.full(10, 3.0), np.arange(10.0)])]
        spec = ds.fit_normalization(blocks)
        assert spec.degenerate.tolist() == [True, False]
        assert np.all(spec.half_range == [1.0, 4.5])
        # pure shift on the constant feature
        assert spec.normalize([[3.0, 9.0]])[0, 0] == 0.0

    def test_json_round_trip(self, tmp_path):
        spec = ds.NormalizationSpec(np.array([0.0, -1.0]), np.array([2.0, -1.0]))
        ds.write_json(tmp_path / "norm.json", {"inputs": spec.to_dict()})
        loaded = ds.NormalizationSpec.from_dict(
            ds.read_json(tmp_path / "norm.json")["inputs"])
        assert np.array_equal(loaded.minimum, spec.minimum)
        assert np.array_equal(loaded.maximum, spec.maximum)


class TestCheckJson:
    def test_faults_name_the_dotted_key_and_defaults_fill_in(self):
        table = {
            **ds.required(arch=ds.required(n_h="int", nnw_in="list of int")),
            "walk": ({**ds.required(r_max="real"),
                      "amplitude": ("real", 0.3)}, {}),
        }
        arch = {"n_h": 4, "nnw_in": [3, 8]}
        for value, message in [
                ({"arch": {**arch, "n_h": "x"}},
                 "b.json: arch.n_h must be int, got 'x'"),
                # JSON true loads as a bool, which Python counts as an int
                ({"arch": {**arch, "n_h": True}},
                 "b.json: arch.n_h must be int, got True"),
                ({"arch": {"n_h": 4}}, "b.json: missing keys: arch.nnw_in"),
                ({"arch": arch, "walk": {"r_max": 0.3, "seed": 1}},
                 "b.json: unknown keys: walk.seed")]:
            with pytest.raises(ValueError) as err:
                ds.check_json({"walk": {"r_max": 0.3}, **value}, table,
                              "b.json")
            assert str(err.value) == message
        out = ds.check_json({"arch": arch, "walk": {"r_max": 0.3}}, table)
        assert out == {"arch": arch, "walk": {"r_max": 0.3, "amplitude": 0.3}}


class TestPreTrim:
    def test_within_bound_unchanged(self):
        rng = np.random.default_rng(2)
        rec = make_record(rng, n_steps=30)
        rec.outputs_gamma[:] = np.linspace(0, 3.2, 30)[:, None]
        out = ds.pre_trim(rec, 6.0)
        assert out.length == 30

    def test_crossing_truncates(self):
        rng = np.random.default_rng(3)
        rec = make_record(rng, n_steps=800)
        rec.outputs_gamma[:] = 0.1
        rec.outputs_gamma[412, 2] = 6.5  # first crossing at step index 412
        out = ds.pre_trim(rec, 6.0)
        assert out.length == 412
        assert np.all(out.outputs_gamma <= 6.0)

    def test_all_zero_unchanged(self):
        rec = ds.SequenceRecord(np.zeros((10, 3)), np.zeros((10, 2)), np.zeros((10, 3)))
        assert ds.pre_trim(rec, 6.0).length == 10

    def test_first_step_exceeds_gives_empty(self):
        rec = ds.SequenceRecord(np.zeros((5, 3)), np.full((5, 2), 9.0), np.zeros((5, 3)))
        out = ds.pre_trim(rec, 6.0)
        assert out.length == 0


class TestPadOrTrim:
    def test_pad_600_to_800(self):
        rng = np.random.default_rng(5)
        rec = make_record(rng, n_steps=600)
        out = ds.pad_or_trim(rec, 800)
        assert out.length == 800
        m_front = 100
        assert np.all(out.inputs[:m_front + 1] == rec.inputs[0])
        assert np.all(out.inputs[-100:] == rec.inputs[-1])
        assert np.array_equal(out.inputs[m_front:m_front + 600], rec.inputs)

    def test_odd_padding_split(self):
        rng = np.random.default_rng(6)
        rec = make_record(rng, n_steps=5)
        out = ds.pad_or_trim(rec, 10)
        # 5 copies to add: 2 in front, 3 at the back
        assert np.array_equal(out.inputs[2:7], rec.inputs)
        assert np.all(out.inputs[:2] == rec.inputs[0])
        assert np.all(out.inputs[7:] == rec.inputs[-1])

    def test_trim_1000_to_800(self):
        rng = np.random.default_rng(7)
        rec = make_record(rng, n_steps=1000)
        out = ds.pad_or_trim(rec, 800)
        assert out.length == 800
        assert np.array_equal(out.inputs, rec.inputs[:800])

    def test_identity(self):
        rng = np.random.default_rng(8)
        rec = make_record(rng, n_steps=50)
        out = ds.pad_or_trim(rec, 50)
        assert np.array_equal(out.inputs, rec.inputs)


class TestPacking:
    def test_two_groups(self):
        rng = np.random.default_rng(9)
        records = [make_record(rng, n_steps=n) for n in (30, 45, 80, 120, 150)]
        packed = ds.pack_records(records, lengths=(80, 120))
        assert sorted(packed.groups) == [80, 120]
        assert len(packed.groups[80]) == 5       # every record joins group 80
        assert len(packed.groups[120]) == 2      # only records longer than 80
        for rec in packed.groups[80]:
            assert rec.length == 80
        for rec in packed.groups[120]:
            assert rec.length == 120

    def test_gamma_crit_applied(self):
        rng = np.random.default_rng(10)
        rec = make_record(rng, n_steps=60)
        rec.outputs_gamma[:] = np.linspace(0.0, 12.0, 60)[:, None]
        packed = ds.pack_records([rec], lengths=(20,), gamma_crit=6.0)
        assert np.all(packed.groups[20][0].outputs_gamma <= 6.0)

    def test_excludes_empty_records(self):
        rng = np.random.default_rng(11)
        bad = make_record(rng, n_steps=10)
        bad.outputs_gamma[:] = 99.0
        good = make_record(rng, n_steps=10)
        packed = ds.pack_records([bad, good], lengths=(10,), gamma_crit=6.0)
        assert len(packed.groups[10]) == 1

    def test_repeated_length_rejected(self):
        # a repeat used to replace the group with its records over 30 steps
        rng = np.random.default_rng(12)
        records = [make_record(rng, n_steps=n) for n in (25, 28, 31, 35, 38, 42)]
        assert len(ds.pack_records(records, lengths=(30,)).groups[30]) == 6
        with pytest.raises(ValueError, match=r"repeat \[30\]"):
            ds.pack_records(records, lengths=(30, 30))


class TestMiniBatch:
    def test_shapes_and_lengths(self):
        draws = list(ds.draw_minibatches({16: 12}, 5, 3, np.random.default_rng(0)))
        assert len(draws) == 3
        for length, idx in draws:
            assert length == 16
            assert idx.shape == (5,)
            assert np.all((idx >= 0) & (idx < 12))

    def test_deterministic_per_seed(self):
        sizes = {16: 12, 24: 5}
        d1 = list(ds.draw_minibatches(sizes, 6, 10, np.random.default_rng(7)))
        d2 = list(ds.draw_minibatches(sizes, 6, 10, np.random.default_rng(7)))
        assert [length for length, _ in d1] == [length for length, _ in d2]
        for (_, i1), (_, i2) in zip(d1, d2):
            assert np.array_equal(i1, i2)

    def test_sampling_uniform(self):
        # Monte-Carlo histogram oracle over sequence indices
        counts = np.zeros(8)
        draws = ds.draw_minibatches({4: 8}, 4, 100_000 // 4,
                                    np.random.default_rng(99))
        for _, idx in draws:
            np.add.at(counts, idx, 1.0)
        expected = counts.sum() / 8
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < CHI2_99_DOF7

    def test_length_groups_drawn_in_proportion_to_size(self):
        # Monte-Carlo histogram oracle over length groups, P(L) = size / total
        sizes = {8: 5, 16: 10, 24: 15, 32: 20}
        counts = dict.fromkeys(sizes, 0.0)
        for length, _ in ds.draw_minibatches(sizes, 1, 20_000,
                                             np.random.default_rng(5)):
            counts[length] += 1.0
        total = sum(sizes.values())
        chi2 = sum((counts[k] - 20_000 * n / total) ** 2 / (20_000 * n / total)
                   for k, n in sizes.items())
        assert chi2 < CHI2_99_DOF3


class TestFileFormats:
    def test_record_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        rec = make_record(rng, n_steps=33, truncated=True)
        p = tmp_path / "r.rveseq"
        ds.write_record(p, rec)
        back = ds.read_record(p)
        assert back.truncated
        assert back.inputs.tobytes() == rec.inputs.tobytes()
        assert back.outputs_gamma.tobytes() == rec.outputs_gamma.tobytes()
        assert back.outputs_tau.tobytes() == rec.outputs_tau.tobytes()

    def test_dataset_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        records = [make_record(rng, n_steps=n) for n in (5, 9, 7)]
        ds.write_dataset(tmp_path / "data", records)
        back = ds.read_dataset(tmp_path / "data")
        assert len(back) == 3
        for a, b in zip(records, back):
            assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_dataset_write_replaces_earlier_records(self, tmp_path):
        rng = np.random.default_rng(19)
        ds.write_dataset(tmp_path / "data",
                         [make_record(rng, n_steps=n) for n in (5, 9, 7, 4)])
        records = [make_record(rng, n_steps=n) for n in (6, 3)]
        ds.write_dataset(tmp_path / "data", records)
        back = ds.read_dataset(tmp_path / "data")
        assert [r.inputs.tobytes() for r in back] \
            == [r.inputs.tobytes() for r in records]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.rveseq"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            ds.read_record(p)

    def test_pathset_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        paths = []
        for n, kind in ((4, pg.KIND_RANDOM_WALK), (6, pg.KIND_CYCLIC)):
            u = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
            u[1:, 0, 0] += 0.01 * rng.standard_normal(n - 1)
            u[1:, 0, 1] = u[1:, 1, 0] = 0.005 * rng.standard_normal(n - 1)
            paths.append(pg.LoadingPath(u, kind))
        p = tmp_path / "paths.bin"
        ds.write_pathset(p, paths)
        back = ds.read_pathset(p)
        assert [lp.kind for lp in back] == [pg.KIND_RANDOM_WALK, pg.KIND_CYCLIC]
        for a, b in zip(paths, back):
            assert a.stretches.tobytes() == b.stretches.tobytes()

    @pytest.mark.parametrize("block, name", [(0, "inputs"), (1, "gamma"),
                                             (2, "tau")])
    def test_non_finite_record_value_rejected(self, tmp_path, block, name):
        rec = make_record(np.random.default_rng(20), n_steps=5)
        (rec.inputs, rec.outputs_gamma, rec.outputs_tau)[block][3, 1] = np.nan
        p = tmp_path / "r.rveseq"
        ds.write_record(p, rec)
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: non-finite value in the {name} block at step 3")):
            ds.read_record(p)

    def test_non_finite_stretch_rejected(self, tmp_path):
        paths = [pg.LoadingPath(np.broadcast_to(np.eye(2), (n, 2, 2)).copy(),
                                pg.KIND_RANDOM_WALK) for n in (3, 4)]
        paths[1].stretches[2, 0, 1] = np.inf
        p = tmp_path / "paths.bin"
        ds.write_pathset(p, paths)
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: non-finite value in path 1 at step 2")):
            ds.read_pathset(p)
