"""Window assembly, fold construction and class-balanced sampling."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import dataset as D
from somnoscore.edf_ingest import Recording, SignalSpec, SleepStage
from somnoscore.synthetic import synthetic_recording

SPE = 100  # small epochs keep these tests light
SPEC = SignalSpec("EEG Fpz-Cz", -187.5, 192.25, -2048, 2047, SPE, 100.0)


def make_recording(stages, subject="s0", night=1, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.integers(-2048, 2048, size=(len(stages), SPE), dtype=np.int16)
    return Recording(subject, night, counts, SPEC, list(stages))


def epoch_signal(rec, k):
    """Epoch k's physical values, scaled on their own."""
    return rec.spec.physical(rec.epochs[k])


TEN = [SleepStage.W, SleepStage.N1, SleepStage.N2, SleepStage.N3, SleepStage.R] * 2


class TestBuildWindows:
    def test_one_window_per_labeled_epoch(self):
        windows = D.build_windows(make_recording(TEN))
        assert len(windows) == 10
        assert all(w.signal().shape == (5 * SPE,) for w in windows)

    def test_boundary_replication_first_epoch(self):
        rec = make_recording(TEN)
        sig = D.build_windows(rec)[0].signal()
        e0 = epoch_signal(rec, 0)
        np.testing.assert_array_equal(sig[:SPE], e0)
        np.testing.assert_array_equal(sig[SPE:2 * SPE], e0)
        np.testing.assert_array_equal(sig[2 * SPE:3 * SPE], e0)
        np.testing.assert_array_equal(sig[3 * SPE:4 * SPE], epoch_signal(rec, 1))
        np.testing.assert_array_equal(sig[4 * SPE:], epoch_signal(rec, 2))

    def test_boundary_replication_last_epoch(self):
        rec = make_recording(TEN)
        sig = D.build_windows(rec)[-1].signal()
        expected = np.concatenate([epoch_signal(rec, k) for k in (7, 8, 9, 9, 9)])
        assert sig.tobytes() == expected.tobytes()

    def test_interior_window_is_verbatim_concatenation(self):
        rec = make_recording(TEN)
        k = 5
        sig = D.build_windows(rec)[k].signal()
        expected = np.concatenate([epoch_signal(rec, k + d) for d in (-2, -1, 0, 1, 2)])
        np.testing.assert_array_equal(sig, expected)

    def test_middle_segment_bit_identical(self):
        rec = make_recording(TEN)
        for k, w in enumerate(D.build_windows(rec)):
            mid = w.signal()[2 * SPE:3 * SPE]
            assert mid.tobytes() == epoch_signal(rec, k).tobytes()

    def test_label_matches_source_epoch(self):
        rec = make_recording(TEN)
        for k, w in enumerate(D.build_windows(rec)):
            assert w.label == rec.epoch_labels[k]
            assert w.recording_ref == ("s0", 1, k)

    def test_full_scale_window_length(self):
        rec = synthetic_recording("x", 1, TEN)  # 3000-sample epochs
        assert D.build_windows(rec)[3].signal().shape == (15000,)


def subjects20():
    return [f"S{i:02d}" for i in range(20)]


class TestMakeFolds:
    def test_partition_sizes(self):
        for fold in D.make_folds(subjects20(), seed=3):
            assert len(fold.test_subjects) == 1
            assert len(fold.validation_subjects) == 4
            assert len(fold.training_subjects) == 15
            union = set(fold.test_subjects) | set(fold.validation_subjects) \
                | set(fold.training_subjects)
            assert union == set(subjects20())

    def test_fold_i_tests_subject_i(self):
        folds = D.make_folds(subjects20(), seed=3)
        assert [f.test_subjects[0] for f in folds] == subjects20()

    def test_deterministic_given_seed(self):
        assert D.make_folds(subjects20(), 9) == D.make_folds(subjects20(), 9)
        assert D.make_folds(subjects20(), 9) != D.make_folds(subjects20(), 10)

    def test_duplicate_subjects_rejected(self):
        subs = subjects20()
        subs[5] = subs[4]
        with pytest.raises(ValueError, match="duplicate"):
            D.make_folds(subs, 0)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="20"):
            D.make_folds(subjects20()[:7], 0)

    def test_isolation_sweep_over_seeds(self):
        # test subject never leaks into its own validation or training sets
        for seed in range(100):
            for fold in D.make_folds(subjects20(), seed):
                test = fold.test_subjects[0]
                assert test not in fold.validation_subjects
                assert test not in fold.training_subjects

    def test_manifest_export(self):
        folds = D.make_folds(subjects20(), 5)
        payload = json.loads(json.dumps([f.to_json_dict() for f in folds]))
        assert len(payload) == 20
        assert payload[3] == {
            "fold": 3,
            "test": list(folds[3].test_subjects),
            "val": list(folds[3].validation_subjects),
            "train": list(folds[3].training_subjects),
        }


def pools_from(stage_counts, seed=0):
    stages = [s for s, n in stage_counts.items() for _ in range(n)]
    rec = make_recording(stages, seed=seed)
    return D.class_pools(D.build_windows(rec))


class TestClassPools:
    def test_partition_by_label(self):
        counts = {SleepStage.N1: 2, SleepStage.N2: 1, SleepStage.N3: 3,
                  SleepStage.R: 1, SleepStage.W: 4}
        pools = pools_from(counts)
        assert {stage: len(pool) for stage, pool in pools.items()} == counts
        assert all(w.label is stage for stage, pool in pools.items() for w in pool)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty training pool for stage"):
            D.class_pools([])

    @given(st.lists(st.sampled_from(list(SleepStage)), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_pool_sizes_sum_to_window_count(self, stages):
        missing = [stage.name for stage in SleepStage if stage not in stages]
        if missing:
            with pytest.raises(ValueError, match=", ".join(missing) + "$"):
                pools_from(Counter(stages))
        else:
            pools = pools_from(Counter(stages))
            assert sum(len(pool) for pool in pools.values()) == len(stages)


class TestBalancedBatch:
    def test_exact_histogram(self):
        pools = pools_from({s: 7 for s in SleepStage})
        batch = D.balanced_batch(pools, 100, np.random.default_rng(0))
        hist = Counter(w.label for w in batch)
        assert all(hist[s] == 20 for s in SleepStage)

    def test_singleton_pool_recurs(self):
        pools = pools_from({SleepStage.N1: 1, SleepStage.N2: 3, SleepStage.N3: 3,
                            SleepStage.R: 3, SleepStage.W: 3})
        batch = D.balanced_batch(pools, 10, np.random.default_rng(0))
        n1 = [w for w in batch if w.label is SleepStage.N1]
        assert len(n1) == 2 and n1[0].recording_ref == n1[1].recording_ref

    def test_indivisible_batch_size(self):
        pools = pools_from({s: 2 for s in SleepStage})
        with pytest.raises(ValueError, match="divisible"):
            D.balanced_batch(pools, 7, np.random.default_rng(0))

    def test_empty_pool_refused(self):
        with pytest.raises(ValueError, match="empty training pool.*W"):
            pools_from({SleepStage.N1: 2, SleepStage.N2: 2, SleepStage.N3: 2,
                        SleepStage.R: 2})

    def test_reproducible_given_seed(self):
        pools = pools_from({s: 9 for s in SleepStage})
        draws = lambda: [
            w.recording_ref
            for _ in range(20)
            for w in D.balanced_batch(pools, 10, np.random.default_rng(42))
        ]
        assert draws() == draws()

    def test_counting_property_over_many_batches(self):
        # unequal pools; per-stage counts stay exactly uniform by construction
        pools = pools_from({SleepStage.N1: 1, SleepStage.N2: 20, SleepStage.N3: 5,
                            SleepStage.R: 9, SleepStage.W: 2})
        rng = np.random.default_rng(1)
        hist = Counter()
        n_batches = 10_000
        for _ in range(n_batches):
            hist.update(w.label for w in D.balanced_batch(pools, 10, rng))
        assert all(hist[s] == 2 * n_batches for s in SleepStage)
