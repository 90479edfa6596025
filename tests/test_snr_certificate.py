"""``audio.SnrCertificate`` (``audio.snr_at_least`` is its one-row call),
the certified lower bound that clears the SNR check without
synthesizing the exact reference: a row it clears always passes the
exact check (``reference_signal`` + ``snr_db``, as
``AudioValidateStage._check_tail`` runs it), on any input and beside any
other rows, and it never raises. Clean corpus rows are cleared, so the
exact path stays rare."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fs_schema_validator_ray import audio
from fs_schema_validator_ray.pipelines import validate
from fs_schema_validator_ray.rules import RuleSet
from fs_schema_validator_ray.sources.clips import ClipsConfig, build_clips_table

MARGIN = 1e-6


def exact_snr(clip_id, sr_hz, decoded):
    """The SNR the exact path computes for ``decoded``, or None when it
    has no samples to compare."""
    n = len(decoded)
    ref = audio.reference_signal(clip_id, sr_hz, round(n * 1000 / sr_hz))
    m = min(len(ref), n)
    return audio.snr_db(ref[:m], decoded[:m]) if m else None


def degraded(clip_id, sr_hz, dur_ms, target_db, seed, keep):
    """The clip's reference plus Gaussian error scaled to ``target_db``,
    cut (``keep`` < 1) or padded (``keep`` > 1) to ``keep`` of its length."""
    ref = audio.reference_signal(clip_id, sr_hz, dur_ms)
    err = np.random.default_rng(seed).standard_normal(len(ref))
    err *= math.sqrt(np.dot(ref, ref) / np.dot(err, err) / 10 ** (target_db / 10))
    x = ref + err
    k = max(1, round(len(x) * keep))
    return x[:k] if k <= len(x) else np.concatenate((x, np.zeros(k - len(x))))


def assert_sound(clip_id, sr_hz, decoded, thresholds):
    """No threshold the certificate clears is failed by the exact check."""
    snr = exact_snr(clip_id, sr_hz, decoded)
    for thr in thresholds:
        if audio.snr_at_least(clip_id, sr_hz, decoded, thr):
            assert snr is not None and snr >= thr, (clip_id, sr_hz, len(decoded), snr, thr)
    return snr


clip_ids = st.text(min_size=0, max_size=24)
rates = st.integers(8000, 48000)


@settings(max_examples=300, deadline=None)
@given(clip_ids, rates, st.integers(1, 1500), st.floats(0, 100), st.integers(0, 2**32),
       st.sampled_from([1.0, 1.0, 0.5, 0.97, 1.02]))
def test_a_cleared_row_passes_the_exact_check(clip_id, sr_hz, dur_ms, target_db, seed, keep):
    assume(audio._reference_length(sr_hz, dur_ms) > 0)
    decoded = degraded(clip_id, sr_hz, dur_ms, target_db, seed, keep)
    snr = assert_sound(clip_id, sr_hz, decoded, [target_db, -1e300, 1e300])
    assume(snr is not None)  # a decode cut under half a millisecond
    assert_sound(clip_id, sr_hz, decoded, [snr - MARGIN, snr, snr + MARGIN])
    if target_db <= 80 and keep == 1.0:
        # and it is not vacuous: it clears a threshold 0.01 dB under the SNR
        assert audio.snr_at_least(clip_id, sr_hz, decoded, snr - 0.01)


#: a neighbour the certificate cannot speak for, or None for a plain row
poisons = st.sampled_from([None, None, None, "nan", "inf", "huge", "int id", "empty"])


def _poisoned(row, poison):
    clip_id, sr_hz, decoded = row
    if poison in ("nan", "inf", "huge"):
        decoded = np.full(len(decoded), {"nan": math.nan, "inf": math.inf, "huge": 1e300}[poison])
    elif poison == "int id":
        clip_id = 7
    elif poison == "empty":
        decoded = decoded[:0]
    return clip_id, sr_hz, decoded


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(clip_ids, rates, st.integers(1, 1600), st.floats(0, 100),
                          st.integers(0, 2**32), st.sampled_from([1.0, 0.5, 0.97, 1.02]),
                          poisons, st.booleans()),
                min_size=2, max_size=10),
       st.floats(0, 100))
def test_a_cleared_row_passes_whatever_its_neighbours(rows, min_db):
    """Rows checked in one certificate, in place (decoded into its
    buffer) or copied in, some longer than the buffer and some it cannot
    speak for: every cleared row passes the exact check, and every other
    row gets its own samples back for it."""
    cert = audio.SnrCertificate(min_db)
    added = []
    for clip_id, sr_hz, dur_ms, target_db, seed, keep, poison, in_place in rows:
        assume(audio._reference_length(sr_hz, dur_ms) > 0)
        row = _poisoned((clip_id, sr_hz, degraded(clip_id, sr_hz, dur_ms, target_db, seed, keep)),
                       poison)
        clip_id, sr_hz, decoded = row
        if in_place and len(decoded) <= len(cert.out):
            cert.out[: len(decoded)] = decoded
            cert.add(clip_id, sr_hz, cert.out[: len(decoded)])
        else:
            cert.add(clip_id, sr_hz, decoded)
        added.append(row)
    for (clip_id, sr_hz, decoded), left in zip(added, cert.uncleared(), strict=True):
        if left is None:
            snr = exact_snr(clip_id, sr_hz, decoded)
            assert snr is not None and snr >= min_db, (clip_id, sr_hz, len(decoded), snr)
        else:
            assert np.array_equal(left, decoded, equal_nan=True)


@pytest.mark.parametrize("sr_hz,target_db", [(48000, 30.0), (8000, 0.5), (44100, 100.0)])
def test_thirty_second_clips(sr_hz, target_db):
    decoded = degraded("clip-0007-000042", sr_hz, 30000, target_db, 7, 1.0)
    snr = assert_sound("clip-0007-000042", sr_hz, decoded,
                       [target_db, 30.0, -30.0])
    assert_sound("clip-0007-000042", sr_hz, decoded, [snr - MARGIN, snr, snr + MARGIN])
    assert audio.snr_at_least("clip-0007-000042", sr_hz, decoded, snr - 0.1)


@settings(max_examples=60, deadline=None)
@given(clip_ids, rates, st.integers(1, 800))
def test_zero_and_perfect_decodes(clip_id, sr_hz, dur_ms):
    ref = audio.reference_signal(clip_id, sr_hz, dur_ms)
    assume(len(ref) > 0)
    # an all-zero decode is exactly 0 dB; a perfect one is +inf
    assert exact_snr(clip_id, sr_hz, np.zeros(len(ref))) == 0.0
    assert_sound(clip_id, sr_hz, np.zeros(len(ref)), [-MARGIN, 0.0, MARGIN, -1.0, 1.0])
    assert exact_snr(clip_id, sr_hz, ref) == math.inf
    assert_sound(clip_id, sr_hz, ref, [200.0, 1e300, math.inf, -math.inf])
    assert audio.snr_at_least(clip_id, sr_hz, ref, 150.0)
    assert not audio.snr_at_least(clip_id, sr_hz, ref, math.inf)
    assert not audio.snr_at_least(clip_id, sr_hz, ref, math.nan)


@pytest.mark.parametrize("clip_id,sr_hz,decoded", [
    (None, 16000, np.ones(100)),
    (42, 16000, np.ones(100)),
    (b"clip", 16000, np.ones(100)),
    ("clip", 0, np.ones(100)),
    ("clip", -16000, np.ones(100)),
    ("clip", math.nan, np.ones(100)),
    ("clip", math.inf, np.ones(100)),
    ("clip", 16000, np.zeros(0)),
    ("clip", 16000, np.full(100, math.nan)),
    ("clip", 16000, np.full(100, math.inf)),
    ("clip", 10**12, np.ones(100)),
])
def test_inputs_it_cannot_certify_are_left_to_the_exact_path(clip_id, sr_hz, decoded):
    assert audio.snr_at_least(clip_id, sr_hz, decoded, -math.inf) is False


def test_every_clean_corpus_row_is_cleared():
    """Clean rows of every codec clear 30 dB, so the exact reference is
    synthesized only for rows that fail or sit near the threshold."""
    cfg = ClipsConfig(n_rows=400, rows_per_partition=400)
    clean = [i for i in range(cfg.n_rows) if cfg.plant_class(i) is None]
    t = build_clips_table(cfg, np.asarray(clean))
    codecs = set()
    for clip_id, payload, codec in zip(t.column("clip_id").to_pylist(),
                                       t.column("bytes").to_pylist(),
                                       t.column("codec").to_pylist()):
        decoded, sr_hz, _ = audio.decode(payload)
        assert audio.snr_at_least(clip_id, sr_hz, decoded, 30.0), (clip_id, codec)
        codecs.add(codec)
    assert {"pcm_s16le", "pcm_u8", "ulaw", "alaw"} <= codecs


SR, DUR_MS = 16000, 200


def _payload_at(clip_id, lo_db, hi_db):
    """A ``pcm_s16le`` payload of ``clip_id``'s reference plus noise, whose
    exact SNR lies in ``(lo_db, hi_db)``: the noise level is bisected."""
    ref = audio.reference_signal(clip_id, SR, DUR_MS)
    noise = np.random.default_rng(3).standard_normal(len(ref)) * 0.02
    lo, hi = -4.0, 4.0  # log2 of the noise's scale
    for _ in range(80):
        mid = (lo + hi) / 2
        payload = audio.encode(ref + noise * 2**mid, SR, "pcm_s16le")
        snr = exact_snr(clip_id, SR, audio.decode(payload)[0])
        if lo_db < snr < hi_db:
            return payload
        lo, hi = (mid, hi) if snr > hi_db else (lo, mid)
    raise AssertionError(f"no noise level puts {clip_id} in ({lo_db}, {hi_db}) dB")


@pytest.fixture(scope="module")
def snr_corpus(tmp_path_factory):
    """``(directory, threshold)``: two partitions of clean rows, rows
    whose payload is another clip's reference (far below the threshold),
    and three rows within 0.01 dB of the threshold: one above it by less
    than the certificate's margin, one above by more, and one below."""
    ids = [f"clip-0000-{i:06d}" for i in range(12)]
    payloads = [audio.encode(audio.reference_signal(c, SR, DUR_MS), SR, "pcm_s16le")
                for c in ids]
    payloads[3] = audio.encode(audio.reference_signal(ids[4], SR, DUR_MS), SR, "pcm_s16le")
    payloads[9] = audio.encode(audio.reference_signal(ids[0], SR, DUR_MS), SR, "ulaw")
    payloads[5] = _payload_at(ids[5], 34.99, 35.01)
    threshold = exact_snr(ids[5], SR, audio.decode(payloads[5])[0]) - 5e-8
    payloads[7] = _payload_at(ids[7], threshold + 1e-3, threshold + 0.01)
    payloads[10] = _payload_at(ids[10], threshold - 0.01, threshold)
    codecs = ["ulaw" if i == 9 else "pcm_s16le" for i in range(len(ids))]
    root = tmp_path_factory.mktemp("snr_corpus")
    for part, rows in enumerate((range(0, 6), range(6, 12))):
        pq.write_table(pa.table({
            "clip_id": [ids[i] for i in rows],
            "bytes": pa.array([payloads[i] for i in rows], pa.binary()),
            "codec": [codecs[i] for i in rows],
            "sr_hz": pa.array([SR] * len(rows), pa.int32()),
            "dur_ms": pa.array([DUR_MS] * len(rows), pa.int32()),
        }), root / f"part-{part}.parquet")
    return str(root), threshold


def _violation_files(out):
    root = os.path.join(out, "violations")
    found = {}
    for d, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as f:
                found[os.path.relpath(os.path.join(d, name), root)] = f.read()
    return found


def test_violation_files_are_the_same_without_the_certificate(
        ray_session, snr_corpus, tmp_path, monkeypatch):
    """The row pass runs in this process, so ``audio`` can be patched: the
    run with the certificate writes the violation files of the run
    whose certificate clears no row, byte for byte, and synthesizes the exact reference only
    for the three rows below the threshold and the one it cannot clear."""
    monkeypatch.setattr(validate, "_run_tasks", lambda udf, tables, fold: [
        fold(validate._call(udf, t)) for t in tables])
    calls = []
    exact = audio.reference_signal
    monkeypatch.setattr(audio, "reference_signal", lambda *a: calls.append(a) or exact(*a))
    corpus, threshold = snr_corpus
    rules = RuleSet.from_yaml(
        "rules:\n  - rule: audio_decode\n    type: audio\n    check_transcript: false\n"
        f"    min_snr_db: {threshold!r}\n")
    assert rules.audio_rules()[0].min_snr_db == threshold

    def run(name):
        calls.clear()
        out = str(tmp_path / name)
        validate.run_validation(validate.ValidationRunConfig(
            input_path=corpus, rules=rules, output_dir=out))
        return out, len(calls)

    certified, certified_calls = run("certified")
    # the kernel's gate: the certificate speaks for no row
    monkeypatch.setattr(audio, "_certifiable_length", lambda *a: 0)
    exact_only, exact_calls = run("exact")

    assert (certified_calls, exact_calls) == (4, 12)
    files = _violation_files(certified)
    assert files and files == _violation_files(exact_only)
    reasons = sorted((r["key"], r["reason"]) for r in pq.read_table(
        os.path.join(certified, "violations")).to_pylist())
    assert [k for k, _ in reasons] == [
        "clip-0000-000003", "clip-0000-000009", "clip-0000-000010"]
    assert reasons[2][1] == "decoded audio snr 35.0 dB below threshold 35.0 dB"
