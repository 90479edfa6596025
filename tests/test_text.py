"""Text-analysis stages: profile counts, language ID, fingerprints."""

import numpy as np
import pyarrow as pa


def table(texts):
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )


def test_profile_counts():
    from fs_schema_validator_ray.stages.text import TextProfileStage

    out = TextProfileStage()(
        table(["a bb ccc a", "", "hello, world! 123", None])
    ).to_pydict()
    assert out["n_tokens"] == [4, 0, 3, 0]
    assert out["n_unique_tokens"] == [3, 0, 3, 0]
    assert out["n_chars"] == [10, 0, 17, 0]
    # BPE-ish: hello , world ! 123 → 5
    assert out["n_bpe_tokens"] == [4, 0, 5, 0]
    assert out["ttr"][0] == 3 / 4
    assert out["quality"][1] == 0.0
    assert out["digit_ratio"][2] == 3 / 17


def test_profile_mean_token_len():
    from fs_schema_validator_ray.stages.text import TextProfileStage

    out = TextProfileStage()(table(["ab cd", "abcd"])).to_pydict()
    assert out["mean_token_len"] == [2.0, 4.0]


def test_langid():
    from fs_schema_validator_ray.stages.text import LangIdStage

    out = LangIdStage()(
        table(
            [
                "the cat sat on the mat and it was happy",
                "der hund ist nicht mit der katze auf dem sofa",
                "el gato es un animal que vive en la casa",
                "le chat est dans la maison et il est content",
                "只是 一个 简单 的 测试 文本 而已 了",
                "zzz qqq xxx",  # no stopword hits anywhere
            ]
        )
    ).to_pydict()
    assert out["lang_pred"] == ["en", "de", "es", "fr", "zh", "und"]
    assert all(s > 0 for s in out["lang_score"][:5])
    assert out["lang_score"][5] == 0.0


def test_fingerprint_stable_and_discriminative():
    from fs_schema_validator_ray.stages.text import FingerprintStage

    t = table(["some document body here", "some document body here", "another one"])
    out = FingerprintStage()(t).to_pydict()
    assert out["fingerprint"][0] == out["fingerprint"][1]
    assert out["fingerprint"][0] != out["fingerprint"][2]
    # deterministic across calls
    again = FingerprintStage()(t).to_pydict()
    assert again["fingerprint"] == out["fingerprint"]


def test_segment_sums_empty_rows():
    from fs_schema_validator_ray.stages.text import _segment_sums

    mask = np.array([1.0, 0.0, 1.0])
    offsets = np.array([0, 0, 2, 2, 3])  # rows: empty, 2 toks, empty, 1 tok
    assert _segment_sums(mask, offsets).tolist() == [0.0, 1.0, 0.0, 1.0]


# --- SentenceSplitStage ------------------------------------------------------


def test_sentence_split_ground_truth():
    import pyarrow as pa

    from fs_schema_validator_ray.stages.text import SentenceSplitStage

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "One. Two sentences!  Three?? Final no punct",
                    "Nur ein Satz über München.",
                    None,
                    "",
                ],
                pa.string(),
            ),
        }
    )
    out = SentenceSplitStage()(batch).to_pylist()
    doc1 = [(r["sent_idx"], r["sentence"]) for r in out if r["doc_id"] == 1]
    assert doc1 == [
        (1, "One"),
        (2, "Two sentences"),
        (3, "Three"),
        (4, "Final no punct"),
    ]
    doc2 = [r for r in out if r["doc_id"] == 2]
    # trailing '.' has no following whitespace → stays attached (RE2 rule)
    assert len(doc2) == 1 and doc2[0]["sentence"] == "Nur ein Satz über München."
    assert doc2[0]["nchars"] == len("Nur ein Satz über München.")  # char count
    assert not [r for r in out if r["doc_id"] in (3, 4)]  # null/empty drop


def test_sentence_split_empty_batch_schema_stable():
    import pyarrow as pa

    from fs_schema_validator_ray.stages.text import SentenceSplitStage

    batch = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    out = SentenceSplitStage()(batch)
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "sent_idx", "sentence", "nchars"]
