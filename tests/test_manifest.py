import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kftser.dsp import FramingConfig, decode_wav
from kftser.errors import EmptyDatasetError, FilenameParseError
from kftser.features import build_mel_filterbank, extract_features
from kftser.manifest import (
    CLASS_NAMES,
    Emotion,
    Manifest,
    UtteranceRecord,
    build_manifest,
    generate_synthetic_dataset,
    parse_ravdess_filename,
    split_manifest,
)


def test_emotion_order_is_alphabetical():
    assert CLASS_NAMES == ("angry", "calm", "happy", "sad")
    assert [int(e) for e in Emotion] == [0, 1, 2, 3]
    for e in Emotion:
        assert Emotion.from_label(e.label) is e


def test_parse_known_angry_example():
    rec = parse_ravdess_filename("03-01-05-01-02-01-12.wav")
    assert rec.emotion is Emotion.ANGRY
    assert rec.intensity == "normal"
    assert rec.statement == 2
    assert rec.repetition == 1
    assert rec.actor_id == 12


def test_parse_known_calm_example():
    rec = parse_ravdess_filename("03-01-02-02-01-01-01.wav")
    assert rec.emotion is Emotion.CALM
    assert rec.intensity == "strong"
    assert (rec.statement, rec.repetition, rec.actor_id) == (1, 1, 1)


def test_parse_skips_out_of_subset_emotions():
    # 06 = fearful: filtered, not an error
    assert parse_ravdess_filename("03-01-06-01-01-01-01.wav") is None
    assert parse_ravdess_filename("03-01-01-01-01-01-01.wav") is None


def test_parse_works_without_extension():
    rec = parse_ravdess_filename("03-01-04-01-01-02-07")
    assert rec.emotion is Emotion.SAD
    assert rec.repetition == 2


@pytest.mark.parametrize(
    "name, field",
    [
        ("03-01-05-01-02-01.wav", "codes"),
        ("03-01-05-01-02-01-12-99.wav", "codes"),
        ("03-01-xx-01-02-01-12.wav", "emotion"),
        ("03-01-05-09-02-01-12.wav", "intensity"),
        ("03-01-05-01-03-01-12.wav", "statement"),
        ("03-01-05-01-02-05-12.wav", "repetition"),
        ("03-01-05-01-02-01-25.wav", "actor"),
        ("03-01-05-01-02-01-00.wav", "actor"),
    ],
)
def test_parse_errors_name_the_offending_field(name, field):
    with pytest.raises(FilenameParseError, match=field):
        parse_ravdess_filename(name)


def _touch_wav(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"RIFF")


def test_build_manifest_filters_and_sorts(tmp_path):
    names = [
        "03-01-05-01-01-01-01.wav",
        "03-01-02-01-01-01-02.wav",
        "03-01-06-01-01-01-03.wav",  # fearful: dropped
        "03-01-03-01-01-01-04.wav",
        "03-01-04-01-01-01-05.wav",
    ]
    for n in names:
        _touch_wav(tmp_path / n)
    m = build_manifest(tmp_path)
    assert len(m.records) == 4
    assert [r.file_path for r in m.records] == sorted(r.file_path for r in m.records)


def test_build_manifest_nested_equals_flat(tmp_path):
    names = ["03-01-05-01-01-01-01.wav", "03-01-02-01-01-01-02.wav"]
    flat, nested = tmp_path / "flat", tmp_path / "nested"
    for n in names:
        _touch_wav(flat / n)
        _touch_wav(nested / "actor" / n)
    mf = build_manifest(flat)
    mn = build_manifest(nested)
    assert [(r.emotion, r.actor_id) for r in mf.records] == [
        (r.emotion, r.actor_id) for r in mn.records
    ]


def test_build_manifest_skips_malformed_names_with_warning(tmp_path, caplog):
    _touch_wav(tmp_path / "03-01-05-01-01-01-01.wav")
    _touch_wav(tmp_path / "notes.wav")
    with caplog.at_level("WARNING", logger="kftser.manifest"):
        m = build_manifest(tmp_path)
    assert len(m.records) == 1
    assert any("notes.wav" in rec.getMessage() for rec in caplog.records)


def test_build_manifest_empty_directory(tmp_path):
    with pytest.raises(EmptyDatasetError):
        build_manifest(tmp_path)
    with pytest.raises(OSError):
        build_manifest(tmp_path / "does-not-exist")


def _records(counts):
    recs = []
    for e, c in zip(Emotion, counts):
        for i in range(c):
            recs.append(UtteranceRecord(f"{e.label}_{i:03d}.wav", e, 1, "normal", 1, 1))
    return recs


def test_split_exact_stratification():
    m = Manifest(records=_records([10, 10, 10, 10]))
    s = split_manifest(m, 0.2, seed=7)
    assert len(s.test_indices) == 8
    for e in Emotion:
        assert sum(1 for i in s.test_indices if s.records[i].emotion is e) == 2


def test_split_is_deterministic():
    m = Manifest(records=_records([7, 3, 5, 9]))
    a = split_manifest(m, 0.3, seed=123)
    b = split_manifest(m, 0.3, seed=123)
    assert a.test_indices == b.test_indices
    assert a.train_indices == b.train_indices
    c = split_manifest(m, 0.3, seed=124)
    assert c.test_indices != a.test_indices


def test_split_rejects_bad_fraction_and_missing_class():
    m = Manifest(records=_records([2, 2, 2, 2]))
    for f in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split_manifest(m, f, 0)
    empty_class = Manifest(records=_records([2, 0, 2, 2]))
    with pytest.raises(EmptyDatasetError, match="calm"):
        split_manifest(empty_class, 0.5, 0)


@given(
    counts=st.lists(st.integers(min_value=1, max_value=12), min_size=4, max_size=4),
    fraction=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_split_invariants(counts, fraction, seed):
    m = Manifest(records=_records(counts))
    s = split_manifest(m, fraction, seed)
    train, test = set(s.train_indices), set(s.test_indices)
    assert not train & test
    assert sorted(train | test) == list(range(sum(counts)))
    for e, c in zip(Emotion, counts):
        got = sum(1 for i in s.test_indices if s.records[i].emotion is e)
        assert abs(got - math.floor(fraction * c + 0.5)) <= 1


def test_manifest_json_field_names(tmp_path):
    m = Manifest(records=_records([1, 1, 1, 1]))
    m = split_manifest(m, 0.5, seed=3)
    path = tmp_path / "m.json"
    m.save(path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"records", "split_seed", "train_indices", "test_indices"}
    assert set(raw["records"][0]) == {
        "file_path", "emotion", "actor_id", "intensity", "statement", "repetition",
    }
    loaded = Manifest.load(path)
    assert loaded.records == m.records
    assert loaded.split_seed == m.split_seed
    assert loaded.train_indices == m.train_indices
    assert loaded.test_indices == m.test_indices


def test_synthetic_dataset_counts_and_manifest(tmp_path):
    m = generate_synthetic_dataset(tmp_path, per_class=5, seed=0)
    assert len(m.records) == 20
    assert m.class_counts().tolist() == [5, 5, 5, 5]
    for r in m.records:
        assert Path(r.file_path).is_file()


def test_synthetic_dataset_is_bit_deterministic(tmp_path):
    a = generate_synthetic_dataset(tmp_path / "a", per_class=3, seed=9)
    b = generate_synthetic_dataset(tmp_path / "b", per_class=3, seed=9)
    for ra, rb in zip(a.records, b.records):
        pa, pb = ra.file_path, rb.file_path
        assert pa.split("/")[-1] == pb.split("/")[-1]
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_synthetic_angry_louder_than_calm(tmp_path):
    # arousal contrast: the angry profile must carry more frame energy
    m = generate_synthetic_dataset(tmp_path, per_class=4, seed=2)
    fb = build_mel_filterbank()
    cfg = FramingConfig()
    mean_rmse = {}
    for e in (Emotion.ANGRY, Emotion.CALM):
        vals = []
        for r in m.records:
            if r.emotion is e:
                fm = extract_features(decode_wav(r.file_path), cfg, fb)
                vals.append(fm.rows[:, -2].mean())
        mean_rmse[e] = np.mean(vals)
    assert mean_rmse[Emotion.ANGRY] > mean_rmse[Emotion.CALM]


def test_synthetic_dataset_argument_errors(tmp_path):
    out_dir = tmp_path / "audio"
    with pytest.raises(ValueError):
        generate_synthetic_dataset(out_dir, per_class=0)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(out_dir, per_class=2, duration=0.2)
    with pytest.raises(ValueError):
        generate_synthetic_dataset(out_dir, per_class=500)
    for duration in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="duration must be finite"):
            generate_synthetic_dataset(out_dir, per_class=2, duration=duration)
    for sample_rate in (0, -5):
        with pytest.raises(ValueError, match="sample_rate must be >= 1"):
            generate_synthetic_dataset(out_dir, per_class=2, sample_rate=sample_rate)
    assert not out_dir.exists()  # every argument is checked before the directory is made
