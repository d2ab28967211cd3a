import pytest
from hypothesis import given, strategies as st

from aggdec import (
    DecodeConfig,
    DecodeTrace,
    IterationRecord,
    Vocab,
    build_vocab,
    detokenize,
    load_corpus,
    load_parallel_corpus,
    prepare_input,
    strip_sentinels,
    tokenize,
    validate_trace,
)

TABLE_SENTENCE = "Nowadays , technology is more advance than the past time ."


def test_prepare_input_wraps_with_bos_and_pad(vocab):
    raw = tokenize("a b c", "whitespace", vocab)
    assert prepare_input(raw, vocab) == (vocab.bos,) + raw + (vocab.pad,)


def test_prepare_input_empty(vocab):
    assert prepare_input((), vocab) == (vocab.bos, vocab.pad)


def test_prepare_input_eleven_token_sentence():
    vocab = build_vocab([TABLE_SENTENCE])
    raw = tokenize(TABLE_SENTENCE, "whitespace", vocab)
    assert len(raw) == 11
    prepared = prepare_input(raw, vocab)
    assert len(prepared) == 13
    assert prepared[0] == vocab.bos and prepared[-1] == vocab.pad


def test_prepare_input_rejects_sentinels(vocab):
    with pytest.raises(ValueError):
        prepare_input((vocab.eos,), vocab)


@given(st.lists(st.integers(min_value=4, max_value=8), max_size=12),
       st.lists(st.integers(min_value=4, max_value=8), max_size=12))
def test_prepare_input_injective(seq_a, seq_b):
    vocab = Vocab(["a", "b", "c", "d", "X"])
    a = prepare_input(tuple(seq_a), vocab)
    b = prepare_input(tuple(seq_b), vocab)
    assert (a == b) == (tuple(seq_a) == tuple(seq_b))
    assert strip_sentinels(a, vocab) == tuple(seq_a)


def test_tokenize_whitespace(vocab):
    assert tokenize("a b", "whitespace", vocab) == (vocab.id_of("a"), vocab.id_of("b"))


def test_tokenize_character():
    vocab = Vocab.characters()
    assert tokenize("ab", "character", vocab) == (vocab.id_of("a"), vocab.id_of("b"))


def test_tokenize_oov_maps_to_unk(vocab):
    assert tokenize("a zzz", "whitespace", vocab) == (vocab.id_of("a"), vocab.unk)


def test_tokenize_character_oov_maps_to_unk():
    vocab = Vocab.characters()
    assert tokenize("aé b", "character", vocab) == (vocab.id_of("a"), vocab.unk, vocab.id_of(" "), vocab.id_of("b"))


def test_tokenize_maps_sentinel_surfaces_to_unk(vocab):
    """The text vocabulary leaves the sentinels out, so their surfaces in text
    are unknown words; id_of still names the sentinel ids."""
    assert tokenize("<pad>", "whitespace", vocab) == (vocab.unk,)
    assert tokenize("a <bos> <eos> <unk>", "whitespace", vocab) == (vocab.id_of("a"),) + (vocab.unk,) * 3
    assert (vocab.id_of("<bos>"), vocab.id_of("<eos>"), vocab.id_of("<pad>")) == (vocab.bos, vocab.eos, vocab.pad)


def test_tokenize_unknown_scheme(vocab):
    with pytest.raises(ValueError):
        tokenize("a", "subword", vocab)


def test_detokenize_drops_sentinels(vocab):
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert detokenize((vocab.bos, a, b, vocab.eos), vocab) == "a b"
    assert detokenize((vocab.bos, vocab.eos), vocab) == ""


def test_detokenize_renders_unk(vocab):
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert detokenize((a, vocab.unk, b), vocab) == "a <unk> b"


def test_detokenize_rejects_invalid_id(vocab):
    with pytest.raises(ValueError):
        detokenize((999,), vocab)


def test_prepare_input_keeps_an_iterators_tokens(vocab):
    raw = tokenize("a b c", "whitespace", vocab)
    assert prepare_input(iter(raw), vocab) == (vocab.bos,) + raw + (vocab.pad,)


def test_prepare_input_names_the_first_sentinel(vocab):
    a = vocab.id_of("a")
    for raw, bad in (((vocab.bos,), vocab.bos), ((a, vocab.pad, vocab.eos), vocab.pad), ((a, a, vocab.eos), vocab.eos)):
        with pytest.raises(ValueError, match=f"^sentinel id {bad} not allowed in raw input$"):
            prepare_input(raw, vocab)
    assert prepare_input((a, vocab.unk), vocab) == (vocab.bos, a, vocab.unk, vocab.pad)  # UNK is no sentinel


def test_detokenize_names_the_first_id_out_of_range(vocab):
    a, size = vocab.id_of("a"), len(vocab)
    for seq, bad in (((size,), size), ((-1,), -1), ((a, vocab.eos, size + 5, -3), size + 5), ((a, -2, 999), -2)):
        with pytest.raises(ValueError, match=f"^token id {bad} out of range for vocab of size {size}$"):
            detokenize(seq, vocab)
    assert detokenize((vocab.bos, size - 1, vocab.pad), vocab) == vocab.surface(size - 1)


def test_sentinel_ids_are_built_once(vocab):
    assert vocab.sentinel_ids == frozenset((vocab.bos, vocab.eos, vocab.pad))
    assert vocab.sentinel_ids is vocab.sentinel_ids


@given(st.lists(st.sampled_from(["a", "b", "c", "d", "X"]), max_size=10))
def test_whitespace_round_trip(words):
    vocab = Vocab(["a", "b", "c", "d", "X"])
    text = " ".join(words)
    assert detokenize(tokenize(text, "whitespace", vocab), vocab) == text


def test_vocab_rejects_duplicate_surfaces():
    with pytest.raises(ValueError):
        Vocab(["a", "a"])


def test_vocab_reserved_ids_distinct(vocab):
    assert len({vocab.bos, vocab.eos, vocab.pad, vocab.unk}) == 4


def test_build_vocab_character_scheme_is_fixed():
    v1 = build_vocab(["abc"], "character")
    v2 = build_vocab(["completely different text"], "character")
    assert len(v1) == len(v2)
    assert v1.id_of("a") == v2.id_of("a")


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(mode="sampled")
    with pytest.raises(ValueError):
        DecodeConfig(max_len=0)
    with pytest.raises(ValueError):
        DecodeConfig(l_max=0)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(length_penalty=-1.0)


def test_decode_config_default_max_len():
    assert DecodeConfig().resolve_max_len(10) == 36
    assert DecodeConfig(max_len=5).resolve_max_len(10) == 5


def test_validate_trace_accepts_well_formed():
    trace = DecodeTrace(
        iterations=(
            IterationRecord(mode="aggressive", positions_scored=4, accepted=3),
            IterationRecord(mode="autoregressive", positions_scored=1, accepted=1),
        )
    )
    validate_trace(trace, 4)


def test_validate_trace_rejects_bad_total():
    trace = DecodeTrace(iterations=(IterationRecord("aggressive", 4, 3),))
    with pytest.raises(ValueError):
        validate_trace(trace, 5)


def test_validate_trace_rejects_empty_aggressive():
    trace = DecodeTrace(iterations=(IterationRecord("aggressive", 4, 0),))
    with pytest.raises(ValueError):
        validate_trace(trace, 0)


def test_validate_trace_rejects_multi_token_autoregressive():
    trace = DecodeTrace(iterations=(IterationRecord("autoregressive", 2, 2),))
    with pytest.raises(ValueError):
        validate_trace(trace, 2)


def test_load_parallel_corpus_length_mismatch(tmp_path):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("one\ntwo\n", encoding="utf-8")
    tgt.write_text("one\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_parallel_corpus(src, tgt)


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("\n", [""]),
    ("a\n\nb", ["a", "", "b"]),
    ("a b\fc\vd\x1ce\x85f\u2028g\u2029h\r\ni\rj\n", ["a b\fc\vd\x1ce\x85f\u2028g\u2029h", "i", "j"]),
    ("\ufeff\ufeffa\n", ["\ufeffa"]),
    ("a\ufeffb\n", ["a\ufeffb"]),
], ids=["empty", "one-empty-line", "no-final-newline", "other-line-breaks",
        "leading-byte-order-mark", "inner-byte-order-mark"])
def test_load_corpus_splits_at_newlines_alone(tmp_path, text, lines):
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert load_corpus(path) == lines
