"""EDF parsing, annotation decoding, label mapping, recording assembly and synthetic counts."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import edf_ingest as E
from somnoscore import synthetic as S
from somnoscore.edf_ingest import SleepStage


def eeg_signal_dict(digital, label=E.DEFAULT_CHANNEL, phys=(-200, 200),
                    dig=(-2048, 2047), spr=100):
    return {
        "label": label,
        "physical_min": phys[0], "physical_max": phys[1],
        "digital_min": dig[0], "digital_max": dig[1],
        "samples_per_record": spr,
        "digital": np.asarray(digital, dtype=np.int16),
    }


def write_and_parse(tmp_path, signals, n_records, duration=1):
    path = tmp_path / "t.edf"
    S.write_edf(path, signals, n_records=n_records, record_duration=duration)
    return E.parse_edf(path.read_bytes())


class TestParseEdf:
    def test_scaling_endpoints(self, tmp_path):
        parsed = write_and_parse(
            tmp_path, [eeg_signal_dict([2047, -2048] * 50)], n_records=1)
        physical = parsed.specs[0].physical(parsed.columns(0).ravel())
        assert physical[0] == pytest.approx(200.0)
        assert physical[1] == pytest.approx(-200.0)

    def test_round_trip_two_signals(self, tmp_path):
        rng = np.random.default_rng(0)
        d1 = rng.integers(-2048, 2048, 300).astype(np.int16)
        d2 = rng.integers(-500, 501, 600).astype(np.int16)
        parsed = write_and_parse(tmp_path, [
            eeg_signal_dict(d1, spr=100),
            eeg_signal_dict(d2, label="EEG Pz-Oz", phys=(-100, 100),
                            dig=(-500, 500), spr=200),
        ], n_records=3)
        np.testing.assert_array_equal(parsed.columns(0).ravel(), d1)
        np.testing.assert_array_equal(parsed.columns(1).ravel(), d2)
        # physical values within one scaling quantum of the exact map
        for i, (d, spec) in enumerate(zip((d1, d2), parsed.specs)):
            quantum = (spec.physical_max - spec.physical_min) / (
                spec.digital_max - spec.digital_min)
            exact = (d - spec.digital_min) * quantum + spec.physical_min
            assert np.abs(spec.physical(parsed.columns(i).ravel()) - exact).max() <= quantum

    def test_signal_order_preserved(self, tmp_path):
        parsed = write_and_parse(tmp_path, [
            eeg_signal_dict(np.zeros(100), label="B"),
            eeg_signal_dict(np.zeros(100), label="A"),
        ], n_records=1)
        assert [s.label for s in parsed.specs] == ["B", "A"]

    def test_truncated_file(self):
        with pytest.raises(E.EdfFormatError, match="truncated"):
            E.parse_edf(b"0" * 100)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.edf"
        S.write_edf(path, [eeg_signal_dict(np.zeros(100))],
                    n_records=1, record_duration=1)
        data = path.read_bytes()
        with pytest.raises(E.EdfFormatError, match="payload"):
            E.parse_edf(data[:-10])

    def test_non_ascii_header(self, tmp_path):
        path = tmp_path / "t.edf"
        S.write_edf(path, [eeg_signal_dict(np.zeros(100))],
                    n_records=1, record_duration=1)
        data = bytearray(path.read_bytes())
        data[10] = 0xFF
        with pytest.raises(E.EdfFormatError, match="non-ASCII"):
            E.parse_edf(bytes(data))

    # Signal header columns of a two-signal file, each field's offset being
    # 256 + 2 * (widths of the columns before it) + its width * signal index.
    def test_zero_digital_range(self, tmp_path):
        sigs = [eeg_signal_dict(np.zeros(100), label="A"),
                eeg_signal_dict(np.zeros(100), label="B", dig=(5, 5))]
        with pytest.raises(E.EdfFormatError, match="digital range") as exc:
            write_and_parse(tmp_path, sigs, n_records=1)
        assert exc.value.offset == 256 + 2 * (16 + 80 + 8 + 8 + 8) + 8 == 504

    def test_equal_physical_range(self, tmp_path):
        sigs = [eeg_signal_dict(np.zeros(100), label="A"),
                eeg_signal_dict(np.zeros(100), label="B", phys=(7, 7))]
        with pytest.raises(E.EdfFormatError, match="physical min equals max") as exc:
            write_and_parse(tmp_path, sigs, n_records=1)
        assert exc.value.offset == 256 + 2 * (16 + 80 + 8) + 8 == 472

    def test_record_count_mismatch(self, tmp_path):
        path = tmp_path / "t.edf"
        S.write_edf(path, [eeg_signal_dict(np.zeros(200), spr=100)],
                    n_records=2, record_duration=1)
        data = bytearray(path.read_bytes())
        data[236:244] = b"9       "  # declared record count
        with pytest.raises(E.EdfFormatError, match="payload"):
            E.parse_edf(bytes(data))

    def test_nonpositive_samples_per_record(self, tmp_path):
        path = tmp_path / "t.edf"
        S.write_edf(path, [eeg_signal_dict(np.zeros(100), label="A"),
                           eeg_signal_dict(np.zeros(100), label="B")],
                    n_records=1, record_duration=1)
        data = bytearray(path.read_bytes())
        # signal B's field of the column after label/transducer/dim/phys/dig/prefilter
        field = 256 + 2 * (16 + 80 + 8 + 8 + 8 + 8 + 8 + 80) + 8
        data[field:field + 8] = b"0       "
        with pytest.raises(E.EdfFormatError, match="samples per record") as exc:
            E.parse_edf(bytes(data))
        assert exc.value.offset == field == 696

    def test_sampling_rate_derived(self, tmp_path):
        parsed = write_and_parse(
            tmp_path, [eeg_signal_dict(np.zeros(3000), spr=3000)],
            n_records=1, duration=30)
        assert parsed.specs[0].sampling_rate == pytest.approx(100.0)

    @given(dig_min=st.integers(-32768, 32700), width=st.integers(2, 65535 // 2),
           phys_lo=st.integers(-5000, 4999), phys_width=st.integers(1, 5000))
    @settings(max_examples=40, deadline=None)
    def test_scaling_linearity_midpoint(self, tmp_path_factory, dig_min, width,
                                        phys_lo, phys_width):
        dig_max = min(dig_min + width, 32767)
        mid = (dig_min + dig_max) // 2
        spec = E.SignalSpec("x", phys_lo, phys_lo + phys_width, dig_min, dig_max, 1, 1.0)
        scale = (spec.physical_max - spec.physical_min) / (dig_max - dig_min)
        phys_mid = spec.physical(np.array([mid], dtype=np.int16))[0]
        exact_mid = (spec.physical_min + spec.physical_max) / 2
        assert abs(phys_mid - exact_mid) <= scale  # within one quantum


class TestAnnotations:
    def test_single_tal(self):
        events = E.parse_annotations(b"+0\x1530\x14Sleep stage W\x14\x00")
        assert events == [E.AnnotationEvent(0.0, 30.0, "Sleep stage W")]

    def test_csv_fallback(self):
        events = E.parse_annotations("epoch_index,label\n0,W\n1,1\n2,2\n")
        assert [(e.onset, e.duration, e.label) for e in events] == [
            (0.0, 30.0, "W"), (30.0, 30.0, "1"), (60.0, 30.0, "2")]

    def test_empty_annotation_signal(self):
        assert E.parse_annotations(b"") == []

    def test_keepalive_dropped(self):
        events = E.parse_annotations(b"+0\x14\x14\x00+30\x1530\x14Sleep stage R\x14\x00")
        assert len(events) == 1 and events[0].label == "Sleep stage R"

    def test_events_sorted_by_onset(self):
        data = b"+60\x1530\x14Sleep stage 2\x14\x00+0\x1530\x14Sleep stage W\x14\x00"
        events = E.parse_annotations(data)
        assert [e.onset for e in events] == [0.0, 60.0]

    def test_missing_terminator(self):
        with pytest.raises(E.EdfFormatError, match="terminator"):
            E.parse_annotations(b"+0\x1530\x14Sleep stage W\x14")

    def test_non_numeric_onset(self):
        with pytest.raises(E.EdfFormatError, match="onset"):
            E.parse_annotations(b"+abc\x1530\x14Sleep stage W\x14\x00")

    def test_round_trip_through_writer(self):
        events = [E.AnnotationEvent(0.0, 30.0, "Sleep stage W"),
                  E.AnnotationEvent(30.0, 60.0, "Sleep stage 1")]
        parsed = E.parse_annotations(S.tal_bytes(events))
        assert parsed == events


class TestMapLabel:
    def test_stage_four_merges_into_n3(self):
        assert E.map_label("Sleep stage 4") is SleepStage.N3

    def test_movement_is_unscorable(self):
        assert E.map_label("Movement time") is None

    def test_rem_identity(self):
        assert E.map_label("Sleep stage R") is SleepStage.R

    def test_not_scored_is_unscorable(self):
        assert E.map_label("Sleep stage ?") is None

    def test_unknown_label_is_an_error(self):
        with pytest.raises(E.UnknownLabelError):
            E.map_label("Sleep stage X")

    @pytest.mark.parametrize("raw", ["W", "1", "2", "3", "4", "R",
                                     "Sleep stage W", "Sleep stage 2"])
    def test_known_vocabulary_stays_in_enum(self, raw):
        stage = E.map_label(raw)
        assert stage is None or stage in list(SleepStage)


def events_for(stages, lights_out=0):
    return S.stage_events(stages, lights_out)


def spec_100hz(label=E.DEFAULT_CHANNEL):
    return E.SignalSpec(label, -200.0, 200.0, -2048, 2047, 3000, 100.0)


def one_signal(n_epochs, spec=None, counts=None):
    """A parsed one-signal file of 30 s records; all counts zero unless given."""
    spec = spec or spec_100hz()
    if counts is None:
        counts = np.zeros(n_epochs * E.SAMPLES_PER_EPOCH, dtype=np.int16)
    return E.ParsedEdf([spec], counts.reshape(n_epochs, -1))


class TestAssembleRecording:
    def test_trim_rule_hand_case(self):
        stages = [SleepStage.W, SleepStage.W, SleepStage.N1, SleepStage.N2]
        rec = E.assemble_recording(one_signal(4), events_for(stages, lights_out=1),
                                   subject_id="s")
        assert [s for s in rec.epoch_labels] == [SleepStage.W, SleepStage.N1, SleepStage.N2]
        assert rec.lights_out_epoch == 0
        assert rec.epochs.shape == (3, E.SAMPLES_PER_EPOCH)

    def test_movement_removed_and_counted(self):
        stages = ([SleepStage.N2] * 50) + [None] + ([SleepStage.N2] * 49)
        rec = E.assemble_recording(one_signal(100), events_for(stages), subject_id="s")
        assert rec.n_epochs == 99
        assert rec.removed_epochs == 1

    def test_all_wake_recording(self):
        with pytest.raises(E.IngestError, match="no sleep onset"):
            E.assemble_recording(one_signal(4), events_for([SleepStage.W] * 4))

    def test_channel_not_found(self):
        with pytest.raises(E.IngestError, match="not found"):
            E.assemble_recording(one_signal(2, spec_100hz("EEG Pz-Oz")),
                                 events_for([SleepStage.N2] * 2))

    def test_wrong_sampling_rate(self):
        spec = E.SignalSpec(E.DEFAULT_CHANNEL, -200, 200, -2048, 2047, 256, 256.0)
        with pytest.raises(E.IngestError, match="Hz"):
            E.assemble_recording(one_signal(2, spec), events_for([SleepStage.N2] * 2))

    def test_no_lights_out_marker(self):
        events = [e for e in events_for([SleepStage.N2] * 3)
                  if not E.is_lights_out_label(e.label)]
        with pytest.raises(E.IngestError, match="lights-out"):
            E.assemble_recording(one_signal(3), events)

    def test_lights_out_override(self):
        events = [e for e in events_for([SleepStage.W, SleepStage.N1, SleepStage.N2])
                  if not E.is_lights_out_label(e.label)]
        rec = E.assemble_recording(one_signal(3), events, lights_out_epoch=1)
        assert rec.epoch_labels == [SleepStage.N1, SleepStage.N2]

    def test_samples_match_retained_epochs(self):
        n = 6
        counts = np.arange(n * E.SAMPLES_PER_EPOCH, dtype=np.int16)
        # digital and physical ranges equal: the map is the identity
        identity = E.SignalSpec(E.DEFAULT_CHANNEL, -32768.0, 32767.0, -32768, 32767,
                                3000, 100.0)
        stages = [SleepStage.W, SleepStage.N1, None, SleepStage.N2,
                  SleepStage.R, SleepStage.W]
        rec = E.assemble_recording(one_signal(n, identity, counts), events_for(stages))
        # epochs kept: 0,1,3,4 (movement at 2 dropped, trailing W dropped)
        assert rec.n_epochs == 4
        assert rec.spec is identity
        np.testing.assert_array_equal(rec.epochs[2], counts[3 * 3000:4 * 3000])
        np.testing.assert_array_equal(rec.spec.physical(rec.epochs[2]),
                                      counts[3 * 3000:4 * 3000])

    def test_recording_invariants_from_synthetic_pairs(self, tmp_path):
        stages = [SleepStage.W, SleepStage.N1, SleepStage.N2, None,
                  SleepStage.N3, SleepStage.R]
        S.write_synthetic_pair(tmp_path, "SC4011E0", stages, lights_out_epoch=0)
        pair = E.discover_pairs(tmp_path)[0]
        rec = E.load_recording(pair)
        assert rec.epochs.shape == (rec.n_epochs, E.SAMPLES_PER_EPOCH)
        assert all(lbl in list(SleepStage) for lbl in rec.epoch_labels)
        assert rec.subject_id == "SC401" and rec.night == 1
        assert rec.removed_epochs == 1

    def test_sleep_cassette_shaped_pair(self, tmp_path):
        # The scoring channel is not the first signal, a 1 Hz signal sits
        # between the 100 Hz channels, and every signal has its own scaling.
        n = 8
        rng = np.random.default_rng(3)
        layout = [("EOG horizontal", 3000, (-450.5, 450.5), (-2048, 2047)),
                  (E.DEFAULT_CHANNEL, 3000, (-187.5, 192.25), (-2048, 2047)),
                  ("Resp oro-nasal", 30, (-1000, 1000), (-32768, 32767)),
                  ("EEG Pz-Oz", 3000, (-96.25, 101.5), (-2000, 2001))]
        signals = [eeg_signal_dict(rng.integers(dig[0], dig[1] + 1, n * spr), label=label,
                                   phys=phys, dig=dig, spr=spr)
                   for label, spr, phys, dig in layout]
        S.write_edf(tmp_path / "SC4012E0-PSG.edf", signals, n_records=n, record_duration=30)
        stages = [SleepStage.W, SleepStage.W, SleepStage.N1, SleepStage.N2,
                  None, SleepStage.N3, SleepStage.R, SleepStage.W]
        S.write_hypnogram_edf(tmp_path / "SC4012EC-Hypnogram.edf",
                              S.stage_events(stages, lights_out_epoch=1))
        pair = E.discover_pairs(tmp_path)[0]
        kept = [1, 2, 3, 5, 6]  # lights-out at 1, Movement at 4, trailing W
        for sig in (signals[1], signals[3]):
            rec = E.load_recording(pair, channel_name=sig["label"])
            assert rec.epoch_labels == [stages[e] for e in kept]
            assert rec.removed_epochs == 1
            epochs = sig["digital"].reshape(n, E.SAMPLES_PER_EPOCH)[kept]
            scale = (sig["physical_max"] - sig["physical_min"]) / (
                sig["digital_max"] - sig["digital_min"])
            expected = (epochs.astype(np.float64) - sig["digital_min"]) * scale \
                + sig["physical_min"]
            assert rec.epochs.dtype == np.int16
            np.testing.assert_array_equal(rec.epochs, epochs)
            physical = rec.spec.physical(rec.epochs)
            assert physical.dtype == np.float64
            assert physical.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("duration", [1, 30, 45, 60])
    def test_kept_epochs_do_not_depend_on_the_record_duration(self, tmp_path, duration):
        # The scoring channel follows a 1 Hz signal. With 1 s and 45 s records
        # the file ends in a partial epoch; with 45 s ones, epochs straddle records.
        rng = np.random.default_rng(duration)
        n_records = 7 * 30 // duration + 1
        n_epochs = n_records * duration // 30
        counts = rng.integers(-2048, 2048, n_records * 100 * duration)
        signals = [eeg_signal_dict(rng.integers(-2048, 2048, n_records * duration),
                                   label="Resp oro-nasal", spr=duration),
                   eeg_signal_dict(counts, spr=100 * duration)]
        parsed = write_and_parse(tmp_path, signals, n_records, duration)
        stages = [SleepStage.W, SleepStage.W, SleepStage.N1, SleepStage.N2,
                  None, SleepStage.N3, SleepStage.R, SleepStage.W][:n_epochs]
        rec = E.assemble_recording(parsed, events_for(stages, lights_out=1))
        kept = [1, 2, 3, 5, 6]  # lights-out at 1, Movement at 4, trailing W
        expected = counts[:n_epochs * E.SAMPLES_PER_EPOCH].reshape(n_epochs, -1)[kept]
        assert rec.epochs.dtype == np.int16 and rec.epochs.flags.c_contiguous
        np.testing.assert_array_equal(rec.epochs, expected)

    def test_csv_annotated_pair(self, tmp_path):
        stages = [SleepStage.N1, SleepStage.N2, SleepStage.N3]
        S.write_synthetic_pair(tmp_path, "subjA", stages,
                               annotation_format="csv")
        pair = E.discover_pairs(tmp_path)[0]
        assert pair.annotation_path.suffix == ".csv"
        rec = E.load_recording(pair, lights_out_epoch=0)
        assert rec.epoch_labels == stages


class TestDiscoverPairs:
    def test_missing_annotation_is_an_error(self, tmp_path):
        S.write_synthetic_pair(tmp_path, "solo", [SleepStage.N2, SleepStage.N2])
        (tmp_path / "solo-Hypnogram.edf").unlink()
        with pytest.raises(E.IngestError, match="no annotation"):
            E.discover_pairs(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(E.IngestError, match="no .*recordings"):
            E.discover_pairs(tmp_path)

    def test_prefix_matched_hypnogram(self, tmp_path):
        S.write_synthetic_pair(tmp_path, "SC4001E0", [SleepStage.N2, SleepStage.N2])
        # cassette convention: hypnogram stem differs after the 7th character
        (tmp_path / "SC4001E0-Hypnogram.edf").rename(tmp_path / "SC4001EC-Hypnogram.edf")
        pair = E.discover_pairs(tmp_path)[0]
        assert pair.annotation_path.name == "SC4001EC-Hypnogram.edf"

    def test_ambiguous_prefix_names_every_candidate(self, tmp_path):
        S.write_synthetic_pair(tmp_path, "SC4001E0", [SleepStage.N2, SleepStage.N2])
        hypnogram = (tmp_path / "SC4001E0-Hypnogram.edf").read_bytes()
        (tmp_path / "SC4001E0-Hypnogram.edf").unlink()
        for stem in ("SC4001EC", "SC4001EH"):
            (tmp_path / f"{stem}-Hypnogram.edf").write_bytes(hypnogram)
        with pytest.raises(E.IngestError) as exc:
            E.discover_pairs(tmp_path)
        assert str(exc.value) == ("ambiguous annotation files for SC4001E0-PSG.edf: "
                                  "SC4001EC-Hypnogram.edf, SC4001EH-Hypnogram.edf")


class TestSyntheticRecording:
    @pytest.mark.parametrize("amplitude, noise", [(20.0, 1.0), (1.0, 0.05)])
    def test_counts_hold_the_draw_within_half_a_quantum(self, amplitude, noise):
        stages = list(SleepStage) * 4
        rec = S.synthetic_recording("SYN03", 2, stages, samples_per_epoch=60, seed=7,
                                    amplitude=amplitude, noise=noise)
        # the same draw as synthetic_recording's, before quantization
        rng = np.random.default_rng([7, zlib.crc32(b"SYN03"), 2])
        draw = np.stack([S.band_signal(s, 60, rng, amplitude, noise) for s in stages])
        assert rec.epochs.dtype == np.int16 and rec.epochs.shape == draw.shape
        spec = rec.spec
        assert spec.physical_max == -spec.physical_min == amplitude + 8 * noise
        assert (spec.digital_min, spec.digital_max) == (-32768, 32767)
        # no sample clipped: every count lies strictly inside the digital range
        assert spec.digital_min < rec.epochs.min() and rec.epochs.max() < spec.digital_max
        error = np.abs(spec.physical(rec.epochs) - draw)
        assert error.max() <= 0.5 * spec.scale * (1 + 1e-9)
