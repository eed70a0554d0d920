import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlm.corpus import (
    CanaryTemplate,
    Corpus,
    CorpusError,
    UNK_TOKEN,
    TokenSequence,
    Vocabulary,
    enumerate_canaries,
    extend_vocabulary_for_template,
    load_corpus,
    minibatches,
    plant_canary,
    split_corpus,
    write_canary_manifest,
)


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\na c\n", encoding="utf-8")
    return path


def make_corpus(lines, **kwargs):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    try:
        return load_corpus(path, **kwargs)
    finally:
        os.unlink(path)


class TestLoadCorpus:
    def test_min_count_one_keeps_all_tokens(self, small_file):
        corpus = load_corpus(small_file, min_count=1)
        assert len(corpus) == 2
        assert corpus.vocabulary.size == 4  # a, b, c + unk
        for tok in ("a", "b", "c"):
            assert tok in corpus.vocabulary

    def test_min_count_two_maps_rare_tokens_to_unk(self, small_file):
        corpus = load_corpus(small_file, min_count=2)
        assert "a" in corpus.vocabulary
        assert "b" not in corpus.vocabulary and "c" not in corpus.vocabulary
        assert corpus.vocabulary.tokens[0] == UNK_TOKEN
        assert corpus.sequences[0].ids[1] == 0
        assert corpus.sequences[1].ids[1] == 0

    def test_wiki_dump_style_file_loads_and_token_count_matches(self, tmp_path):
        # encyclopedia-dump style lines: headings, punctuation-as-token prose, blanks
        lines = [
            " = Heading = ",
            "",
            "The quick fox ran over the old bridge . ",
            "It was seen near the station in autumn . ",
            " = = Subsection = = ",
            "Nothing else happened that day . ",
        ]
        path = tmp_path / "wiki.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(path, min_count=1)
        # Independent count: whitespace words per non-dropped line.
        expected_counts = [len(l.split()) for l in lines if len(l.split()) >= 2]
        assert [len(s) for s in corpus.sequences] == expected_counts

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            load_corpus(tmp_path / "missing.txt")

    def test_empty_after_filtering_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("single\n\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(path)

    def test_roundtrip_up_to_unk_and_whitespace(self):
        corpus = make_corpus(["The  Cat   sat", "a rare tokenz here"], min_count=2)
        # min_count=2 keeps nothing (all tokens unique) -> everything unk.
        for seq in corpus.sequences:
            decoded = corpus.vocabulary.decode(list(seq.ids))
            assert len(decoded.split()) == len(seq.ids)
        corpus2 = make_corpus(["the cat sat", "the cat ran"], min_count=1)
        seq = corpus2.sequences[0]
        assert corpus2.vocabulary.decode(list(seq.ids)) == "the cat sat"

    def test_labels_sidecar(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc d\ne f\n", encoding="utf-8")
        labels = tmp_path / "c.labels.txt"
        labels.write_text("1\n0\n1\n", encoding="utf-8")
        corpus = load_corpus(path, labels_path=labels)
        assert corpus.labels == [True, False, True]

    @pytest.mark.parametrize("bad", ["true", "2", "yes"])
    def test_labels_other_than_zero_one_rejected(self, tmp_path, bad):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc d\ne f\n", encoding="utf-8")
        labels = tmp_path / "c.labels.txt"
        labels.write_text(f"1\n0\n{bad}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"line 3: expected 0 or 1, got '{bad}'"):
            load_corpus(path, labels_path=labels)


class TestVocabulary:
    def test_ids_contiguous_and_inverse(self):
        vocab = Vocabulary(["b", "a", "c"])
        assert vocab.encode_tokens(["b", "a", "c"]) == [1, 2, 3]
        for tid in range(vocab.size):
            tok = vocab.tokens[tid]
            assert vocab.encode_tokens([tok]) == [tid]

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode_tokens(["zzz"]) == [0]
        assert vocab.tokens[0] == UNK_TOKEN

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.size == vocab.size
        for tid in range(vocab.size):
            assert loaded.tokens[tid] == vocab.tokens[tid]

    def test_encodings_always_below_size(self):
        vocab = Vocabulary(["a", "b"])
        ids = vocab.encode_tokens("a b z q a".split())
        assert all(0 <= i < vocab.size for i in ids)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=6), st.sampled_from(["", "a b", "a\tb", "\u3000", "x\x1c", "\u2028y"])))
    def test_extend_rejects_exactly_empty_or_whitespace_tokens(self, token):
        vocab = Vocabulary()
        if not token or any(ch.isspace() for ch in token):
            with pytest.raises(CorpusError, match="invalid vocabulary token"):
                vocab.extend([token])
        else:
            vocab.extend([token])
            assert vocab.tokens[vocab.encode_tokens([token])[0]] == token

    def test_load_rejects_a_repeated_line(self, tmp_path):
        # A repeat would shift every later token off the id its line number gives.
        path = tmp_path / "vocab.txt"
        for text, message in (("<unk>\na\nb\na\nc\n", "line 4: token 'a' repeats line 2"),
                              ("<unk>\na\n<unk>\nb\n", "line 3: token '<unk>' repeats line 1")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CorpusError, match=message):
                Vocabulary.load(path)

    def test_load_names_the_line_of_an_invalid_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for text, line, token in (("<unk>\na\n\nb\n", 3, ""), ("<unk>\na\nx y\n", 3, "x y"),
                                  ("<unk>\n\tb\n", 2, "\tb")):
            path.write_text(text, encoding="utf-8")
            message = f"vocabulary file {path}, line {line}: invalid vocabulary token {token!r}"
            with pytest.raises(CorpusError, match=re.escape(message)):
                Vocabulary.load(path)

    @settings(max_examples=300, deadline=None)
    @given(
        known=st.lists(st.sampled_from(["a", "b", "<unk>", "x1"]), max_size=4),
        tokens=st.lists(st.one_of(st.sampled_from(["a", "b", "c", "<unk>", "d", "é"]),
                                  st.sampled_from(["", "a b", "\t", "\u3000", "x\x1c"]),
                                  st.text(max_size=3)), max_size=8),
    )
    def test_extend_equals_extending_one_token_at_a_time(self, known, tokens):
        one_pass, one_at_a_time = Vocabulary(known), Vocabulary(known)
        bad = next((k for k, tok in enumerate(tokens) if tok.split() != [tok]), None)
        if bad is None:
            one_pass.extend(tokens)
            for tok in tokens:
                one_at_a_time.extend([tok])
        else:
            with pytest.raises(CorpusError) as extend_error:
                one_pass.extend(tokens)
            with pytest.raises(CorpusError) as single_error:
                for tok in tokens:
                    one_at_a_time.extend([tok])
            assert str(extend_error.value) == str(single_error.value)
            assert repr(tokens[bad]) in str(extend_error.value)
        expected = list(dict.fromkeys(["<unk>", *known, *tokens[:bad]]))
        assert one_pass.tokens == one_at_a_time.tokens == tuple(expected)
        assert one_pass.encode_tokens(expected) == list(range(len(expected)))


class TestSplit:
    def test_80_20_sizes(self):
        corpus = make_corpus([f"tok{i} x" for i in range(10)])
        train, test = split_corpus(corpus, 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_integral_products_not_inflated_by_float_slop(self):
        corpus = make_corpus([f"tok{i} x" for i in range(10)])
        train, test = split_corpus(corpus, 0.7, seed=1)
        assert (len(train), len(test)) == (7, 3)

    def test_same_seed_same_partition(self):
        corpus = make_corpus([f"tok{i} x" for i in range(20)])
        a = split_corpus(corpus, 0.8, seed=9)
        b = split_corpus(corpus, 0.8, seed=9)
        assert a[0].texts() == b[0].texts() and a[1].texts() == b[1].texts()

    def test_fraction_bounds(self):
        corpus = make_corpus(["a b", "c d"])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(CorpusError):
                split_corpus(corpus, bad, seed=0)

    def test_empty_half_rejected(self):
        corpus = make_corpus([f"tok{i} x" for i in range(10)])
        for fraction in (0.99, 0.95):
            with pytest.raises(CorpusError, match="empty train or test split"):
                split_corpus(corpus, fraction, seed=0)
        assert [len(half) for half in split_corpus(corpus, 0.9, seed=0)] == [9, 1]

    def test_split_is_a_partition(self):
        corpus = make_corpus([f"tok{i} w{i%3}" for i in range(17)])
        train, test = split_corpus(corpus, 0.8, seed=3)
        combined = sorted(train.texts() + test.texts())
        assert combined == sorted(corpus.texts())

    def test_labels_follow_the_split(self):
        corpus = make_corpus([f"tok{i} x" for i in range(10)])
        corpus.labels = [i % 2 == 0 for i in range(10)]
        by_text = dict(zip(corpus.texts(), corpus.labels))
        train, test = split_corpus(corpus, 0.8, seed=4)
        for part in (train, test):
            assert part.labels == [by_text[t] for t in part.texts()]


class TestCanaryTemplate:
    def test_candidate_space_sizes(self):
        assert CanaryTemplate("p ", "0123456789", 3).candidate_space_size == 1000
        assert CanaryTemplate("p ", "123456789", 3).candidate_space_size == 729
        with pytest.raises(CorpusError, match="slot_count must be >= 1"):
            CanaryTemplate("p ", "123456789", 0)

    def test_fills_are_lexicographic_and_unique(self):
        template = CanaryTemplate("p ", "ab", 2)
        fills = list(template.fills())
        assert fills == ["aa", "ab", "ba", "bb"]
        assert len(set(fills)) == len(fills)

    @settings(max_examples=100, deadline=None)
    @given(
        alphabet=st.lists(st.sampled_from("0123456789abcdefzé-"), min_size=1, max_size=8,
                          unique=True),
        slot_count=st.integers(1, 3),
        outside=st.text("0123456789abcdefzé-XY", max_size=4),
    )
    def test_fill_index_is_the_position_in_fills(self, alphabet, slot_count, outside):
        template = CanaryTemplate("p ", "".join(alphabet), slot_count)
        for position, fill in enumerate(template.fills()):
            assert template.fill_index(fill) == position
        if len(outside) != slot_count or any(c not in template.slot_alphabet for c in outside):
            with pytest.raises(CorpusError) as sentence_error:
                template.sentence(outside)
            with pytest.raises(CorpusError) as index_error:
                template.fill_index(outside)
            assert str(index_error.value) == str(sentence_error.value)

    def test_rejects_alphabet_that_lowercasing_changes(self):
        # Canaries are encoded lowercased, so "A" and "a" would be one fill.
        for alphabet in ("aA", "AB", "12Z", "\u0130"):
            with pytest.raises(CorpusError, match="lower-case"):
                CanaryTemplate("my code is ", alphabet, 1)
        assert CanaryTemplate("my code is ", "0123456789abc-_", 1).candidate_space_size == 15

    def test_rejects_prefix_that_would_swallow_the_fill(self):
        # "secret code" + "12" tokenizes to "code12": every fill would be one <unk>.
        with pytest.raises(CorpusError, match="whitespace"):
            CanaryTemplate("secret code", "12", 2)
        assert CanaryTemplate("secret code\t", "12", 2).candidate_space_size == 4
        # A prefix needs a token: otherwise the canary is the fill alone, too short to score.
        for prefix in ("", "   "):
            with pytest.raises(CorpusError, match="at least one token"):
                CanaryTemplate(prefix, "12", 2)
        with pytest.raises(CorpusError, match="slot_count must be >= 1"):
            CanaryTemplate("just the prefix", "12", 0)


class TestPlantCanary:
    def make(self, n=20):
        return make_corpus([f"filler{i} words here" for i in range(n)])

    def test_plants_exact_count(self):
        corpus = self.make()
        template = CanaryTemplate("my bank security code is ", "0123456789", 3)
        planted, positions = plant_canary(corpus, template, "450", count=5, seed=11)
        assert len(planted) == len(corpus) + 5
        sentence = template.sentence("450")
        matches = [s for s in planted.sequences if s.source_text == sentence]
        assert len(matches) == 5
        assert len(positions) == 5
        for pos in positions:
            assert planted.sequences[pos].source_text == sentence

    def test_count_zero_is_identity(self):
        corpus = self.make()
        template = CanaryTemplate("my code is ", "0123456789", 3)
        planted, positions = plant_canary(corpus, template, "450", count=0, seed=1)
        assert planted.texts() == corpus.texts()
        assert positions == []

    def test_count_zero_still_extends_vocabulary(self):
        # A control run without planted copies must still score every fill.
        template = CanaryTemplate("my code is ", "12", 2)
        planted, _ = plant_canary(self.make(), template, "21", count=0, seed=0)
        for token in ("my", "code", "is", "11", "12", "21", "22"):
            assert token in planted.vocabulary

    def test_count_450_grows_corpus_by_450(self):
        corpus = self.make(100)
        template = CanaryTemplate("my bank security code is ", "0123456789", 3)
        planted, _ = plant_canary(corpus, template, "450", count=450, seed=7)
        assert len(planted) == 550

    def test_incompatible_fill_rejected(self):
        corpus = self.make()
        template = CanaryTemplate("my code is ", "123456789", 3)
        for bad in ("45", "4500", "04x", "040"):
            with pytest.raises(CorpusError, match="slot space"):
                plant_canary(corpus, template, bad, count=1, seed=0)

    def test_vocabulary_gets_every_candidate_fill(self):
        corpus = self.make()
        template = CanaryTemplate("my code is ", "12", 2)
        planted, _ = plant_canary(corpus, template, "11", count=1, seed=0)
        for fill in ("11", "12", "21", "22"):
            assert fill in planted.vocabulary

    def test_planted_sequences_labeled_sensitive(self):
        corpus = self.make()
        corpus.labels = [False] * len(corpus)
        template = CanaryTemplate("my code is ", "12", 2)
        planted, positions = plant_canary(corpus, template, "21", count=3, seed=2)
        assert sum(planted.labels) == 3
        assert all(planted.labels[p] for p in positions)

    @pytest.mark.parametrize("count", [0, 3])
    def test_canary_longer_than_max_len_rejected(self, count):
        # Truncated to 4 tokens the canary reads "my bank security code": no secret left.
        template = CanaryTemplate("my bank security code is ", "12", 2)
        with pytest.raises(CorpusError, match="6 tokens, more than max_len 4"):
            plant_canary(self.make(), template, "21", count=count, seed=0, max_len=4)

    def test_canary_of_exactly_max_len_planted_whole(self):
        template = CanaryTemplate("my bank security code is ", "12", 2)
        planted, positions = plant_canary(self.make(), template, "21", count=2, seed=0, max_len=6)
        canary = planted.sequences[positions[0]]
        assert planted.vocabulary.decode(list(canary.ids)) == "my bank security code is 21"


class TestEnumerateCanaries:
    def test_digit_alphabet_1000(self):
        vocab = Vocabulary()
        template = CanaryTemplate("code ", "0123456789", 3)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        assert len(candidates) == 1000

    def test_nonzero_digit_alphabet_729(self):
        vocab = Vocabulary()
        template = CanaryTemplate("code ", "123456789", 3)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        assert len(candidates) == 729

    def test_slot_count_zero_single_candidate(self):
        # A fill-less template is rejected when built, so there is nothing to enumerate.
        with pytest.raises(CorpusError, match="slot_count must be >= 1"):
            CanaryTemplate("just the prefix", "123456789", 0)

    def test_no_duplicates_and_expected_size(self):
        vocab = Vocabulary()
        template = CanaryTemplate("x ", "abc", 2)
        extend_vocabulary_for_template(vocab, template)
        candidates = enumerate_canaries(template, vocab)
        texts = [c.source_text for c in candidates.sequences()]
        assert len(set(texts)) == len(texts) == 9

    def test_cap_enforced(self):
        # 10**5000 has more digits than Python prints by default, so the message must not print it.
        for slot_count in (6, 5000):
            with pytest.raises(CorpusError, match="cap"):
                CanaryTemplate("x ", "0123456789", slot_count)
        assert CanaryTemplate("x ", "0123456789", 4).candidate_space_size == 10_000

    def test_missing_token_raises_and_leaves_vocabulary_unchanged(self):
        template = CanaryTemplate("code ", "12", 2)
        for vocab, missing in ((Vocabulary(["code", "11", "12", "21"]), "'22'"),
                               (Vocabulary(["11", "12", "21", "22"]), "'code'")):
            tokens = vocab.tokens
            with pytest.raises(CorpusError, match=missing):
                enumerate_canaries(template, vocab)
            assert vocab.tokens == tokens

    @settings(max_examples=150, deadline=None)
    @given(
        words=st.lists(st.text("aZé東\u0130\u03a3\u03c2😀-", min_size=1, max_size=4),
                       min_size=1, max_size=4),
        gaps=st.lists(st.sampled_from([" ", "\t", "\u3000", "  "]), min_size=5, max_size=5),
        alphabet=st.sets(st.sampled_from("0123456789azé\u03c3\u03c2中-"), min_size=1, max_size=4),
        slot_count=st.integers(1, 2),
        known=st.lists(st.sampled_from(["a", "z", "1", "é", "東", "other"]), max_size=4),
    )
    def test_equals_encoding_each_sentence(self, words, gaps, alphabet, slot_count, known):
        # The shared-prefix encoding must equal TokenSequence.from_text on
        # every candidate sentence, including prefixes whose lowercase
        # changes length (U+0130) or context (final sigma).
        prefix = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:] * 2))
        template = CanaryTemplate(prefix, "".join(sorted(alphabet)), slot_count)
        vocab = Vocabulary(known)
        extend_vocabulary_for_template(vocab, template)
        tokens = vocab.tokens
        candidates = enumerate_canaries(template, vocab)
        expected = [TokenSequence.from_text(template.sentence(f), vocab) for f in template.fills()]
        assert candidates.sequences() == expected
        assert [candidates.prefix_ids + (f,) for f in candidates.fill_ids.tolist()] == [
            s.ids for s in expected
        ]
        assert vocab.tokens == tokens


class TestMinibatches:
    def test_partition_arithmetic(self):
        corpus = make_corpus([f"tok{i} x" for i in range(10)])
        sizes = [len(b) for b in minibatches(corpus, 4, seed=0, epoch=1)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_same_order(self):
        corpus = make_corpus([f"tok{i} x" for i in range(30)])
        a = [tuple(s.source_text for s in b) for b in minibatches(corpus, 7, seed=5, epoch=2)]
        b = [tuple(s.source_text for s in b) for b in minibatches(corpus, 7, seed=5, epoch=2)]
        assert a == b

    def test_different_epochs_differ(self):
        corpus = make_corpus([f"tok{i} x" for i in range(30)])
        e1 = [s.source_text for b in minibatches(corpus, 7, seed=5, epoch=1) for s in b]
        e2 = [s.source_text for b in minibatches(corpus, 7, seed=5, epoch=2) for s in b]
        assert sorted(e1) == sorted(e2)
        assert e1 != e2

    def test_every_sequence_once_per_epoch(self):
        corpus = make_corpus([f"tok{i} x" for i in range(23)])
        seen = [s.source_text for b in minibatches(corpus, 5, seed=1, epoch=3) for s in b]
        assert sorted(seen) == sorted(corpus.texts())

    def test_batch_size_validation(self):
        corpus = make_corpus(["a b"])
        with pytest.raises(CorpusError):
            list(minibatches(corpus, 0, seed=0, epoch=0))


class TestCanaryManifest:
    def test_writes_exact_text(self, tmp_path):
        template = CanaryTemplate("my bank security code is ", "123456789", 3)
        path = tmp_path / "canaries.txt"
        write_canary_manifest(path, template, "450", 50, [3, 17, 41])
        assert path.read_bytes() == (
            b"prefix=my bank security code is \n"
            b"slot_alphabet=123456789\n"
            b"slot_count=3\n"
            b"fill=450\n"
            b"count=50\n"
            b"positions=3,17,41\n"
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=8),
    st.integers(1, 4),
)
def test_token_sequences_encode_below_vocab_size(raw_ids, extra):
    vocab = Vocabulary([f"w{i}" for i in range(10 + extra)])
    text = " ".join(f"w{i}" for i in raw_ids)
    seq = TokenSequence.from_text(text, vocab)
    assert all(0 <= i < vocab.size for i in seq.ids)
    assert len(seq) == len(raw_ids)
