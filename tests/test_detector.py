import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_detector
from desk import DESK_DETECTOR, desk_data, desk_detector_dataset
from oracles import (
    detector_gd_by_loop,
    detector_objective,
    estimate_gamma,
    featurize_by_loop,
    scipy_csr,
    select_threshold_by_scan,
)
from privlm import lm, privacy
from privlm.corpus import TokenSequence, Vocabulary
from privlm.detector import (
    TEXT_BLOCK,
    AugmentationConfig,
    CsrMatrix,
    DetectorError,
    DetectorModel,
    GRAD_TOL,
    _fold_indices,
    _matvec,
    _rmatvec,
    _select_threshold,
    audit_context,
    build_detector_dataset,
    default_synonyms,
    featurize,
    load_synonyms,
    paraphrase,
    train_detector,
)


# An empty synonym table paraphrases nothing: the identity paraphraser.
NO_PARAPHRASE = AugmentationConfig(synonym_table={}, substitution_rate=0.0, passes=0)

NEUTRAL_LINES = [
    "the teacher visited the old bridge on monday",
    "a neighbor painted the quiet garden after lunch",
    "the baker repaired the wooden boat near the harbor",
    "the librarian admired the stone cottage in early spring",
    "the violinist sketched the tall lighthouse on sunday",
    "the carpenter organized the market stall during the festival",
    "the student borrowed the small library book on tuesday",
    "the gardener watered the green meadow before sunrise",
    "the sailor photographed the empty station in late autumn",
    "the doctor described the narrow street on thursday",
    "the painter admired the old bridge on saturday",
    "the tailor visited the green meadow after lunch",
    "the teacher sketched the market stall on tuesday",
    "a neighbor borrowed the wooden boat on thursday",
    "the baker watered the quiet garden in early spring",
    "the librarian photographed the narrow street on monday",
]

CANARY_SEEDS = [
    "my bank security code is 111",
    "my bank security code is 845",
    "my bank security code is 392",
]


@pytest.fixture(scope="module")
def aug():
    return AugmentationConfig(
        synonym_table=default_synonyms(), substitution_rate=0.5, passes=12, seed=5
    )


@pytest.fixture(scope="module")
def trained_detector(aug):
    dataset = build_detector_dataset(CANARY_SEEDS, NEUTRAL_LINES, aug)
    return train_detector(dataset, epochs=250, eta=2.0, seed=3, char_dim=1024, word_dim=512)


class TestParaphrase:
    def test_rate_zero_is_identity(self):
        cfg = AugmentationConfig(synonym_table={"bank": ["banking"]}, substitution_rate=0.0)
        text = "my bank security code is"
        assert paraphrase(text, cfg, 0) == text

    def test_forced_substitution(self):
        cfg = AugmentationConfig(
            synonym_table={"bank": ["banking"], "code": ["pin"]}, substitution_rate=1.0
        )
        assert paraphrase("my bank security code is", cfg, 0) == "my banking security pin is"

    def test_deterministic_per_variant(self, aug):
        text = "my bank security code is 450"
        assert paraphrase(text, aug, 3) == paraphrase(text, aug, 3)

    def test_variants_differ_across_indices(self, aug):
        text = "my bank security code is 450"
        outputs = {paraphrase(text, aug, k) for k in range(12)}
        assert len(outputs) > 1

    def test_word_count_preserved_and_unknown_words_kept(self, aug):
        text = "zzyx my bank security code is 450 qwerty"
        out = paraphrase(text, aug, 1)
        assert len(out.split()) == len(text.split())
        assert out.split()[0] == "zzyx" and out.split()[-1] == "qwerty"

    def test_synonym_table_parsing(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("# comment\nbank: banking, lender\ncode: pin\n", encoding="utf-8")
        table = load_synonyms(path)
        assert table == {"bank": ["banking", "lender"], "code": ["pin"]}
        bad = tmp_path / "bad.txt"
        # paraphrase looks words up one at a time, so a head like "bank code" never matches.
        for line in ("word: two words", "bank code: vault"):
            bad.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(DetectorError, match="single"):
                load_synonyms(bad)


# 1-, 2-, 3- and 4-byte UTF-8, whitespace of several kinds, and U+0130 (whose
# lowercase is two characters) and capital sigma (whose lowercase depends on
# context).
FEATURE_ALPHABET = "abz AZ09\t\n\u3000\u00e9\u00df\u6771\u4eac\U0001f600\u0130\u03a3-"
ANY_TEXT = st.one_of(
    st.text(FEATURE_ALPHABET, max_size=14),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
)


class TestFeaturize:
    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(ANY_TEXT, max_size=6),
        char_dim=st.one_of(st.integers(1, 40), st.sampled_from([1000, 4096])),
        word_dim=st.one_of(st.integers(1, 40), st.sampled_from([777, 2048])),
    )
    @example(
        texts=["", " ", "\t\u3000", "ab", "\u0130\u0130", "caf\u00e9 \u6771\u4eac \U0001f600!", "a"],
        char_dim=1, word_dim=1,
    )
    @example(texts=["my bank security code is 450", "\u0130 \u03a3\u03a3 x"], char_dim=4096, word_dim=2048)
    @example(texts=[], char_dim=16, word_dim=8)
    @example(texts=[f"line {i} of the {i % 7} th kind" for i in range(2 * TEXT_BLOCK + 5)],
             char_dim=64, word_dim=32)
    def test_equals_per_gram_loop(self, texts, char_dim, word_dim):
        got = featurize(texts, char_dim, word_dim)
        want = featurize_by_loop(texts, char_dim, word_dim)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name

    def test_unencodable_text_still_raises(self):
        for fn in (featurize, featurize_by_loop):
            with pytest.raises(UnicodeEncodeError):
                fn(["fine", "lone \ud800 surrogate"], 16, 8)

    @pytest.mark.parametrize(
        "char_dim, word_dim, field",
        [(0, 8, "char_dim"), (-3, 8, "char_dim"), (8, 0, "word_dim"), (8, -3, "word_dim")],
    )
    def test_dimension_below_one_rejected(self, char_dim, word_dim, field):
        with pytest.raises(DetectorError, match=f"{field} must be >= 1"):
            featurize(["hello world"], char_dim, word_dim)


class TestDetectorDataset:
    def test_variant_fanout_bounded_by_dedup(self, aug):
        ds = build_detector_dataset(["my bank security code is 450"], NEUTRAL_LINES,
                                    dataclasses.replace(aug, passes=10))
        assert 1 <= ds.n_positive <= 11

    def test_no_variants(self, aug):
        ds = build_detector_dataset(CANARY_SEEDS, NEUTRAL_LINES, dataclasses.replace(aug, passes=0))
        assert ds.n_positive == len(CANARY_SEEDS)

    def test_overlap_removed_from_negatives(self, aug):
        negatives = NEUTRAL_LINES + [CANARY_SEEDS[0]]
        ds = build_detector_dataset(CANARY_SEEDS, negatives, dataclasses.replace(aug, passes=0))
        positives = set(ds.texts[: ds.n_positive])
        negatives_kept = ds.texts[ds.n_positive:]
        assert CANARY_SEEDS[0] not in negatives_kept
        assert not positives.intersection(negatives_kept)

    def test_empty_class_rejected(self, aug):
        with pytest.raises(DetectorError):
            build_detector_dataset([], NEUTRAL_LINES, aug)
        with pytest.raises(DetectorError):
            build_detector_dataset(CANARY_SEEDS, [], aug)

    def test_variants_default_to_cfg_passes(self, aug):
        ds = build_detector_dataset(["my bank security code is 450"], NEUTRAL_LINES, aug)
        # passes=12 plus the seed itself, up to dedup
        assert ds.n_positive <= 13


class TestTrainDetector:
    def test_separable_toy_set_perfect_heldout(self):
        positives = [f"zzz marker sentence number {i}" for i in range(12)]
        negatives = NEUTRAL_LINES
        ds = build_detector_dataset(positives, negatives, NO_PARAPHRASE)
        model = train_detector(ds, epochs=200, eta=2.0, seed=1, char_dim=512, word_dim=256)
        assert model.measured_gamma == 1.0
        scores = model.score_texts(negatives)
        assert np.all(scores < model.threshold)

    def test_exact_canary_prefix_classified_sensitive(self, trained_detector):
        assert trained_detector.flags(["My bank security code is"])[0]

    def test_variant_phrasing_classified_sensitive(self, trained_detector):
        assert trained_detector.flags(["My new bank security code is"])[0]

    def test_heldout_tpr_on_augmented_family(self, trained_detector, aug):
        held_out = [
            paraphrase(seed, aug, k) for seed in CANARY_SEEDS for k in range(100, 120)
        ]
        gamma = estimate_gamma(trained_detector, held_out)
        assert gamma >= 0.95

    def test_degenerate_dataset_rejected(self):
        from privlm.detector import DetectorDataset

        ds = DetectorDataset(["a b", "c d"], np.array([True, True]), 2, 0)
        with pytest.raises(DetectorError):
            train_detector(ds)

    @pytest.mark.parametrize("fpr_cap", [-0.1, 1.5])
    def test_fpr_cap_outside_unit_interval_rejected(self, aug, fpr_cap):
        ds = build_detector_dataset(CANARY_SEEDS, NEUTRAL_LINES, dataclasses.replace(aug, passes=2))
        with pytest.raises(DetectorError, match="fpr_cap"):
            train_detector(ds, epochs=1, char_dim=64, word_dim=32, fpr_cap=fpr_cap)


# Values 1e16 apart, so that any other summation order changes some bits.
ENTRY_VALUES = st.one_of(
    st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3), st.sampled_from([1e16, -1e16, 0.0, -0.0])
)


@st.composite
def csr_matrices(draw):
    """CSR records with empty rows, a single row, unused columns and rows longer than 8."""
    n_rows = draw(st.integers(0, 6))
    width = draw(st.integers(1, 40))
    rows = [
        sorted(draw(st.lists(st.integers(0, width - 1), unique=True, max_size=min(width, 24))))
        for _ in range(n_rows)
    ]
    indices = np.array([c for row in rows for c in row], dtype=np.int64)
    data = np.array(draw(st.lists(ENTRY_VALUES, min_size=indices.size, max_size=indices.size)),
                    dtype=np.float64)
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return CsrMatrix(data, indices, indptr, (n_rows, width))


def csr_from_rows(rows: list[list[int]], width: int) -> CsrMatrix:
    """A 0/1 matrix whose row i holds a 1.0 in each column of ``rows[i]``."""
    indices = np.array([c for row in rows for c in row], dtype=np.int64)
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    return CsrMatrix(np.ones(indices.size), indices, indptr, (len(rows), width))


def random_vectors(X: CsrMatrix, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal vectors for ``X @ w`` and ``X.T @ v``, entries scaled by 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9, size=X.shape[1] + X.shape[0])
    w = rng.standard_normal(X.shape[1]) * scale[: X.shape[1]]
    v = rng.standard_normal(X.shape[0]) * scale[X.shape[1] :]
    return w, v


class TestCsrProducts:
    @settings(max_examples=300, deadline=None)
    @given(X=csr_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_transpose_product_equals_scipy_bit_for_bit(self, X, seed):
        _, v = random_vectors(X, seed)
        got = _rmatvec(X, v)
        assert got.dtype == np.float64
        assert got.tobytes() == (scipy_csr(X).T @ v).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(X=csr_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_product_within_rounding_of_scipy(self, X, seed):
        # Two summation orders of k terms each lie within (k - 1) * 2**-53 * sum|term| of
        # the exact sum, so within 2 * k * 2**-52 * (|X| @ |w|) of each other.
        w, _ = random_vectors(X, seed)
        got, want = _matvec(X, w), scipy_csr(X) @ w
        longest = int(np.diff(X.indptr).max(initial=0))
        bound = 2 * longest * 2.0**-52 * (abs(scipy_csr(X)) @ np.abs(w))
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("rows, width", [
        ([[], [0, 2]], 3),  # empty first row
        ([[1], [0, 2], []], 3),  # empty last row
        ([[0], [], [], [1, 3]], 4),  # consecutive empty rows
        ([[], [], []], 3),  # every row empty
        ([], 4),  # no rows
    ])
    def test_empty_rows_read_zero_and_no_neighbour(self, rows, width):
        # Each weight is its own power of two, so a row's exact sum names the terms it added.
        X = csr_from_rows(rows, width)
        got = _matvec(X, 2.0 ** np.arange(width))
        want = np.array([sum(2.0**c for c in row) for row in rows])
        assert got.dtype == np.float64 and got.shape == (len(rows),)
        assert got.tobytes() == (want + 0.0).tobytes()  # an empty row is +0.0
        v = np.ones(len(rows))
        assert _rmatvec(X, v).tobytes() == (scipy_csr(X).T @ v).tobytes()

    def test_padding_adds_zero_against_nonfinite_weights(self):
        X = featurize(["a b", "a much longer line of text"], 16, 8)
        w = np.full(24, np.inf)
        w[X.indices[: X.indptr[1]]] = 1.0  # every weight the short row reads is finite
        got = _matvec(X, w)
        assert np.isfinite(got[0]) and got[0].tobytes() == (scipy_csr(X) @ w)[0].tobytes()


@pytest.fixture(scope="module")
def desk_detector():
    dataset = desk_detector_dataset(desk_data())
    train_idx, _ = _fold_indices(dataset.labels, 0.25, DESK_DETECTOR["seed"])
    Xtr = featurize([dataset.texts[i] for i in train_idx], DESK_DETECTOR["char_dim"],
                    DESK_DETECTOR["word_dim"])
    return {
        "dataset": dataset,
        "Xtr": Xtr,
        "ytr": dataset.labels[train_idx],
        "model": train_detector(dataset, **DESK_DETECTOR),
    }


class TestSolver:
    def test_gradient_within_tolerance_at_desk_config(self, desk_detector):
        model = desk_detector["model"]
        _, grad = detector_objective(
            desk_detector["Xtr"], desk_detector["ytr"], model.weights, model.bias
        )
        # 1e-12 covers the oracle summing the gradient in another order.
        assert np.abs(grad).max() <= GRAD_TOL + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, DESK_DETECTOR["epochs"]))
    @example(k=1)
    @example(k=DESK_DETECTOR["epochs"])
    def test_objective_at_most_any_gradient_descent_prefix(self, desk_detector, k):
        Xtr, ytr, model = desk_detector["Xtr"], desk_detector["ytr"], desk_detector["model"]
        converged, _ = detector_objective(Xtr, ytr, model.weights, model.bias)
        w, b = detector_gd_by_loop(Xtr, ytr, k, DESK_DETECTOR["eta"])
        assert converged <= detector_objective(Xtr, ytr, w, b)[0]

    @pytest.mark.parametrize("eta", [0.5, 2.0])
    def test_one_iteration_is_one_gradient_descent_epoch(self, desk_detector, eta):
        model = train_detector(desk_detector["dataset"], **dict(DESK_DETECTOR, epochs=1, eta=eta))
        w, b = detector_gd_by_loop(desk_detector["Xtr"], desk_detector["ytr"], 1, eta)
        np.testing.assert_allclose(model.weights, w, rtol=1e-12, atol=1e-15)
        assert model.bias == pytest.approx(b, rel=1e-12)

    def test_two_solves_save_identical_files(self, desk_detector, tmp_path):
        desk_detector["model"].save(tmp_path / "a.bin")
        train_detector(desk_detector["dataset"], **DESK_DETECTOR).save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


# Scores rounded to one or two decimals tie often, within and across classes.
SCORES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0).map(lambda v: round(v, 1)),
    st.floats(0.0, 1.0).map(lambda v: round(v, 2)),
)


class TestSelectThreshold:
    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.lists(SCORES, min_size=1, max_size=25),
        neg=st.lists(SCORES, min_size=1, max_size=25),
        fpr_cap=st.one_of(st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.floats(0.0, 1.0)),
        interleave=st.randoms(use_true_random=False),
    )
    @example(pos=[0.5], neg=[0.5], fpr_cap=0.0, interleave=None)
    @example(pos=[0.9], neg=[0.1], fpr_cap=1.0, interleave=None)
    @example(pos=[0.2, 0.2, 0.7], neg=[0.7, 0.2], fpr_cap=0.0, interleave=None)
    def test_equals_candidate_scan(self, pos, neg, fpr_cap, interleave):
        scores = np.array(pos + neg)
        y = np.array([True] * len(pos) + [False] * len(neg))
        if interleave is not None:
            order = list(range(len(scores)))
            interleave.shuffle(order)
            scores, y = scores[order], y[order]
        got = _select_threshold(scores, y, fpr_cap)
        want = select_threshold_by_scan(scores, y, fpr_cap)
        assert got == want
        assert all(type(v) is float for v in got)


class TestClassify:
    def test_threshold_zero_flags_everything(self):
        model = constant_detector(flag_everything=True)
        assert model.flags(NEUTRAL_LINES).all()
        assert model.score_texts(NEUTRAL_LINES) == pytest.approx(0.5)

    def test_threshold_above_one_flags_nothing(self):
        model = constant_detector(flag_everything=False)
        assert not model.flags(NEUTRAL_LINES).any()

    def test_label_flips_monotonically_in_threshold(self, trained_detector):
        text = "my bank security code is 450"
        labels = []
        for threshold in np.linspace(0, 1.01, 25):
            m = dataclasses.replace(trained_detector, threshold=float(threshold))
            labels.append(bool(m.flags([text])[0]))
        # once it turns off it stays off
        assert labels == sorted(labels, reverse=True)
        assert labels[0] is True

    def test_no_texts_scores_nothing(self, trained_detector):
        scores = trained_detector.score_texts([])
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_scores_do_not_depend_on_the_batch(self, trained_detector):
        texts = [f"{NEUTRAL_LINES[i % len(NEUTRAL_LINES)]} {i}" for i in range(TEXT_BLOCK + 40)]
        texts[TEXT_BLOCK + 3] = CANARY_SEEDS[0]
        batched = trained_detector.score_texts(texts)
        alone = np.concatenate([trained_detector.score_texts([t]) for t in texts])
        assert batched.tobytes() == alone.tobytes()

    def test_save_load_roundtrip(self, trained_detector, tmp_path):
        path = tmp_path / "det.bin"
        trained_detector.save(path)
        loaded = DetectorModel.load(path)
        assert loaded.threshold == trained_detector.threshold
        assert loaded.measured_gamma == trained_detector.measured_gamma
        assert np.array_equal(loaded.weights, trained_detector.weights)
        texts = ["my bank security code is 450"] + NEUTRAL_LINES[:3]
        assert np.array_equal(loaded.score_texts(texts), trained_detector.score_texts(texts))

    def test_load_rejects_header_missing_fields(self, tmp_path):
        path = tmp_path / "det.bin"
        path.write_bytes(b"DETECTOR1 threshold=0.5\n")
        with pytest.raises(DetectorError, match="char_dim, word_dim, gamma"):
            DetectorModel.load(path)

    @pytest.mark.parametrize(
        "header, field",
        [
            (b"DETECTOR1 char_dim=4 word_dim=4 threshold gamma=1", "threshold=''"),
            (b"DETECTOR1 char_dim=four word_dim=4 threshold=0.5 gamma=1", "char_dim='four'"),
        ],
    )
    def test_load_rejects_malformed_header_field(self, tmp_path, header, field):
        path = tmp_path / "det.bin"
        path.write_bytes(header + b"\n")
        with pytest.raises(DetectorError, match=rf"det\.bin: .*{field} is not a number"):
            DetectorModel.load(path)

    @pytest.mark.parametrize(
        "char_dim, word_dim, field",
        [(0, 4, "char_dim"), (-3, 8, "char_dim"), (4, 0, "word_dim"), (8, -3, "word_dim")],
    )
    def test_load_rejects_dimension_below_one(self, tmp_path, char_dim, word_dim, field):
        # The weight vector has the size the header implies, so only the
        # dimension check can reject the file.
        path = tmp_path / "det.bin"
        DetectorModel(
            char_dim=char_dim, word_dim=word_dim, weights=np.zeros(char_dim + word_dim),
            bias=0.0, threshold=0.5, measured_gamma=1.0,
        ).save(path)
        with pytest.raises(DetectorError, match=rf"det\.bin: detector {field} must be >= 1"):
            DetectorModel.load(path)

    @pytest.mark.parametrize(
        "threshold, gamma, message",
        [(0.5, 1.5, "gamma must be in"), (0.5, -0.1, "gamma must be in"),
         (0.5, math.nan, "gamma must be in"), (math.nan, 1.0, "threshold must be finite"),
         (math.inf, 1.0, "threshold must be finite")],
    )
    def test_load_rejects_gamma_outside_unit_interval_or_nonfinite_threshold(
        self, tmp_path, threshold, gamma, message
    ):
        path = tmp_path / "det.bin"
        dataclasses.replace(constant_detector(True), threshold=threshold,
                            measured_gamma=gamma).save(path)
        with pytest.raises(DetectorError, match=rf"det\.bin: detector {message}"):
            DetectorModel.load(path)

    @pytest.mark.parametrize(
        "weight, bias", [(math.nan, 0.0), (0.0, math.inf)], ids=["nan_weight", "inf_bias"]
    )
    def test_load_rejects_nonfinite_weights_or_bias(self, tmp_path, weight, bias):
        path = tmp_path / "det.bin"
        weights = np.zeros(32)
        weights[5] = weight
        dataclasses.replace(constant_detector(True), weights=weights, bias=bias).save(path)
        with pytest.raises(DetectorError, match=r"det\.bin: detector weights and bias must be finite"):
            DetectorModel.load(path)

    @pytest.mark.parametrize("extra", [1, 7, 8], ids=["1_byte", "7_bytes", "one_weight"])
    def test_load_rejects_a_body_of_the_wrong_length(self, tmp_path, extra):
        path = tmp_path / "det.bin"
        constant_detector(True).save(path)
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(DetectorError, match=r"det\.bin: weight vector has wrong size"):
            DetectorModel.load(path)

    def test_load_rejects_a_non_ascii_header(self, tmp_path):
        path = tmp_path / "det.bin"
        constant_detector(True).save(path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(DetectorError, match=r"det\.bin: not a detector checkpoint"):
            DetectorModel.load(path)


class TestEstimateGamma:
    def test_all_detected(self):
        model = constant_detector(flag_everything=True)
        assert estimate_gamma(model, ["a", "b", "c"]) == 1.0

    def test_none_detected(self):
        model = constant_detector(flag_everything=False)
        assert estimate_gamma(model, ["a", "b", "c"]) == 0.0

    def test_k_of_n_exact(self, trained_detector):
        texts = CANARY_SEEDS + NEUTRAL_LINES[:5]
        flags = [trained_detector.flags([t])[0] for t in texts]
        expected = sum(flags) / len(texts)
        assert estimate_gamma(trained_detector, texts) == expected

    def test_empty_rejected(self):
        with pytest.raises(DetectorError):
            estimate_gamma(constant_detector(True), [])


class TestPartitionBatch:
    """The batch split training makes: the private step gets the flagged texts."""

    def test_always_sensitive_stub(self):
        assert constant_detector(True).flags(NEUTRAL_LINES[:5]).all()

    def test_never_sensitive_stub(self):
        assert not constant_detector(False).flags(NEUTRAL_LINES[:5]).any()

    def test_trained_detector_isolates_planted_canary(self, trained_detector):
        texts = NEUTRAL_LINES[:7] + ["my bank security code is 450"]
        assert trained_detector.flags(texts).tolist() == [False] * 7 + [True]

    def test_disjoint_cover_preserving_order(self, trained_detector):
        # One decision per text, in input order: a batch's flags are its texts' own.
        texts = NEUTRAL_LINES[:4] + ["my bank security code is 450"] + NEUTRAL_LINES[4:8]
        flags = trained_detector.flags(texts)
        assert flags.tolist() == [bool(trained_detector.flags([t])[0]) for t in texts]
        assert flags.sum() == 1 and flags[4]


@pytest.fixture(scope="module")
def context_lm():
    """LM trained so 'code is' predicts '450' regardless of earlier words."""
    vocab = Vocabulary(
        ["filler0", "filler1", "filler2", "filler3", "security", "code", "is", "450", "end"]
    )
    seqs = []
    for i in range(40):
        filler = f"filler{i % 4}"
        seqs.append(TokenSequence.from_text(f"{filler} security code is 450", vocab))
    params = lm.init_params(vocab.size, 12, 12, seed=1)
    for _ in range(300):
        params = privacy.plain_sgd_step(params, seqs, eta=0.5)
    return params, vocab


class TestContextAudit:
    def test_alpha_of_one_accepts_empty_suffix(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        audit = audit_context(params, seq, target_index=5, alpha=1.0,
                              cfg=NO_PARAPHRASE, vocabulary=vocab)
        assert audit.found and audit.length == 0

    def test_alpha_zero_identity_full_prefix_qualifies(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        audit = audit_context(params, seq, target_index=5, alpha=0.0,
                              cfg=NO_PARAPHRASE, vocabulary=vocab)
        assert audit.found
        assert audit.length <= 4
        # full prefix always ties itself, so the worst case is the full prefix
        assert audit.gaps_by_length[-1] == 0.0 or audit.length < 4

    def test_trained_lm_short_suffix_qualifies(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        audit = audit_context(params, seq, target_index=5, alpha=0.1,
                              cfg=NO_PARAPHRASE, vocabulary=vocab)
        assert audit.found
        assert 0 < audit.length < 4  # a proper suffix, shorter than the full prefix

    def test_against_bruteforce_oracle(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler1 security code is 450", vocab)
        alpha = 0.1
        prefix = list(seq.ids[:4])
        target = seq.ids[4]

        def score_one(context):
            return float(lm.conditional_probabilities(params, [context], target)[0])

        p_ref = score_one(prefix)
        # independent brute-force: score every suffix on its own, take the shortest
        shortest = None
        for length in range(len(prefix) + 1):
            suffix = prefix[len(prefix) - length:]
            gap = abs(p_ref - score_one(suffix))
            if gap <= alpha:
                shortest = length
                break
        audit = audit_context(params, seq, target_index=5, alpha=alpha,
                              cfg=NO_PARAPHRASE, vocabulary=vocab)
        assert audit.found and audit.length == shortest

    def test_length_monotone_nonincreasing_in_alpha(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler2 security code is 450", vocab)
        lengths = []
        for alpha in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0):
            audit = audit_context(params, seq, target_index=5, alpha=alpha,
                                  cfg=NO_PARAPHRASE, vocabulary=vocab)
            lengths.append(audit.length if audit.found else float("inf"))
        assert lengths == sorted(lengths, reverse=True)

    def test_paraphrased_suffixes_require_vocabulary(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        cfg = AugmentationConfig(synonym_table={"security": ["safety"]}, substitution_rate=1.0)
        audit = audit_context(params, seq, target_index=5, alpha=1.0, cfg=cfg, vocabulary=vocab)
        assert audit.found

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_paraphrase_without_substitution_is_the_identity_audit(self, context_lm, alpha):
        params, vocab = context_lm
        seq = TokenSequence.from_text("Filler3 SECURITY Code is 450", vocab)
        cfg = AugmentationConfig(synonym_table={"bank": ["lender"]}, substitution_rate=1.0)
        got = audit_context(params, seq, 5, alpha, cfg, vocabulary=vocab)
        want = audit_context(params, seq, 5, alpha, NO_PARAPHRASE, vocabulary=vocab)
        assert got.found == want.found
        assert got.context_ids == want.context_ids
        assert (np.array(got.gaps_by_length).tobytes()
                == np.array(want.gaps_by_length).tobytes())

    def test_not_found_is_distinguished(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        # map every prefix word to unrelated tokens; with alpha=0 nothing matches
        cfg = AugmentationConfig(
            synonym_table={
                "filler0": ["end"], "security": ["end"], "code": ["end"], "is": ["end"],
            },
            substitution_rate=1.0,
        )
        audit = audit_context(params, seq, target_index=5, alpha=0.0, cfg=cfg, vocabulary=vocab)
        assert not audit.found
        # Without a qualifying suffix the result is the full prefix, unparaphrased.
        assert audit.context_ids == seq.ids[:4]
        assert audit.context_text == "filler0 security code is"
        assert audit.length == 4
        assert len(audit.gaps_by_length) == 5 and audit.gap == audit.gaps_by_length[-1]

    def test_alpha_must_not_be_nan_or_negative(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("filler0 security code is 450", vocab)
        for alpha in (math.nan, -0.1):
            with pytest.raises(DetectorError, match="^alpha must be >= 0$"):
                audit_context(params, seq, 5, alpha, NO_PARAPHRASE, vocabulary=vocab)
        unbounded = audit_context(params, seq, 5, math.inf, NO_PARAPHRASE, vocab)
        assert unbounded.found and unbounded.length == 0

    def test_index_validation(self, context_lm):
        params, vocab = context_lm
        seq = TokenSequence.from_text("security code is 450", vocab)
        with pytest.raises(DetectorError):
            audit_context(params, seq, target_index=0, alpha=0.1, cfg=NO_PARAPHRASE,
                          vocabulary=vocab)
        with pytest.raises(DetectorError):
            audit_context(params, seq, target_index=5, alpha=0.1, cfg=NO_PARAPHRASE,
                          vocabulary=vocab)
