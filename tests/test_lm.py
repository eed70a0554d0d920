import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlm import lm
from privlm.corpus import TokenSequence
from privlm.lm import LMError, LMParameters

from conftest import lm_batches, traced_peak
from oracles import finite_difference_gradient, per_example_rows, sigmoid_by_branches

# Relative-error floor for gradient checks: the central-difference oracle
# itself carries ~1e-10 absolute noise, so entries below the floor cannot be
# compared relatively at 1e-4.
_REL_FLOOR = 1e-5


def random_seq(rng, vocab_size, length):
    return TokenSequence(
        ids=tuple(int(x) for x in rng.integers(0, vocab_size, size=length)), source_text="t"
    )


class TestInit:
    def test_deterministic(self):
        a = lm.init_params(10, 4, 4, seed=7)
        b = lm.init_params(10, 4, 4, seed=7)
        assert np.array_equal(a.theta, b.theta)

    def test_paper_scale_shapes(self):
        params = lm.init_params(50, 200, 200, seed=0)
        assert params.emb.shape == (50, 200)
        assert params.lstm_W.shape == (800, 400)
        assert params.out_W.shape == (200, 50)

    def test_flat_parameter_count(self):
        params = lm.init_params(10, 4, 4, seed=1)
        assert params.num_params == 10 * 4 + 4 * (4 * (4 + 4) + 4) + 4 * 10 + 10 == 234

    def test_forget_gate_bias_is_one(self):
        params = lm.init_params(10, 4, 4, seed=1)
        assert np.all(params.lstm_b[4:8] == 1.0)
        assert np.all(np.abs(params.emb) <= 0.1)

    def test_dimension_validation(self):
        with pytest.raises(LMError):
            lm.init_params(0, 4, 4, seed=0)


# Signed zeros, infinities, nan, subnormals, and |x| where exp(|x|) overflows
# (>= 710) or exp(-|x|) is subnormal or zero (>= 709, 745, 746).
_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                  709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308]


def assert_same_bits(got: np.ndarray, want: np.ndarray, x: np.ndarray) -> None:
    """Bitwise equality, except that a nan input only needs a nan output."""
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats() | st.sampled_from(_SIGMOID_EDGES), min_size=1, max_size=40),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_matches_branch_oracle_bitwise(self, values, rows, offset):
        x = np.array(values)
        assert_same_bits(lm._sigmoid(x), sigmoid_by_branches(x), x)
        # A column block of a wider 2-D array, as the gate blocks of (B, 4H) are.
        wide = np.tile(np.concatenate([np.full(offset, 0.5), x, [-3.0]]), (rows, 1))
        block = wide[:, offset : offset + len(x)]
        assert not block.flags.c_contiguous or rows == 1
        assert_same_bits(lm._sigmoid(block), sigmoid_by_branches(block), block)

    def test_edges_take_their_limits(self):
        with np.errstate(over="raise", invalid="raise"):  # exp must never overflow
            got = lm._sigmoid(np.array([-0.0, 0.0, np.inf, -np.inf, 746.0, -746.0]))
        assert np.array_equal(got, [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])
        assert np.isnan(lm._sigmoid(np.array([np.nan]))[0])


class TestForward:
    def test_zero_weights_give_uniform(self):
        zero = LMParameters(np.zeros(lm.init_params(10, 4, 4, seed=0).num_params), 10, 4, 4)
        seq = TokenSequence(ids=(1, 2, 3, 4), source_text="t")
        table = lm.forward(zero, seq)
        assert np.allclose(table, -math.log(10), atol=1e-12)

    def test_rows_normalize(self):
        rng = np.random.default_rng(3)
        params = lm.init_params(12, 6, 6, seed=3)
        for _ in range(5):
            seq = random_seq(rng, 12, int(rng.integers(2, 9)))
            table = lm.forward(params, seq)
            assert np.allclose(np.exp(table).sum(axis=1), 1.0, atol=1e-9)

    def test_id_out_of_range(self):
        params = lm.init_params(5, 4, 4, seed=0)
        seq = TokenSequence(ids=(1, 7), source_text="bad")
        with pytest.raises(LMError, match="out of range"):
            lm.forward(params, seq)

    def test_needs_two_tokens(self):
        params = lm.init_params(5, 4, 4, seed=0)
        with pytest.raises(LMError, match="at least 2"):
            lm.forward(params, TokenSequence(ids=(1,), source_text="x"))

    def test_overfit_single_sequence_drives_nll_to_zero(self):
        params = lm.init_params(6, 8, 8, seed=5)
        seq = TokenSequence(ids=(1, 2, 3), source_text="t")
        for _ in range(500):
            grad = lm.batch_gradients(params, [seq])[1][0]
            params = lm.apply_update(params, grad, 0.5)
        final = lm.sequence_nlls(params, [seq])[0]
        assert final < 0.01
        # target-token probability -> 1
        table = lm.forward(params, seq)
        assert math.exp(table[0, 2]) > 0.99
        assert math.exp(table[1, 3]) > 0.99
        assert lm.sequence_perplexities(params, [seq])[0] == pytest.approx(1.0, abs=0.02)


class TestNllPerplexity:
    def test_uniform_model_values(self):
        zero = LMParameters(np.zeros(lm.init_params(10, 4, 4, seed=0).num_params), 10, 4, 4)
        seq = TokenSequence(ids=(1, 2, 3, 4, 5, 6), source_text="t")  # 5 predictions
        assert lm.sequence_nlls(zero, [seq])[0] == pytest.approx(5 * math.log(10), abs=1e-9)
        assert lm.sequence_perplexities(zero, [seq])[0] == pytest.approx(10.0, abs=1e-9)

    def test_nll_is_sum_of_positionwise_terms(self):
        params = lm.init_params(9, 5, 5, seed=2)
        seq = TokenSequence(ids=(1, 4, 2, 8, 3), source_text="t")
        table = lm.forward(params, seq)
        targets = list(seq.ids[1:])
        manual = -sum(table[t, targets[t]] for t in range(len(targets)))
        assert lm.sequence_nlls(params, [seq])[0] == pytest.approx(manual, rel=1e-12)

    def test_corpus_perplexity_pools_tokens(self):
        params = lm.init_params(9, 5, 5, seed=2)
        rng = np.random.default_rng(0)
        seqs = [random_seq(rng, 9, int(rng.integers(2, 7))) for _ in range(7)]
        total_nll = sum(lm.sequence_nlls(params, [s])[0] for s in seqs)
        total_pred = sum(len(s) - 1 for s in seqs)
        assert lm.corpus_perplexity(params, seqs) == pytest.approx(
            math.exp(total_nll / total_pred), rel=1e-12
        )


class TestGatheredScoring:
    """Scoring normalises only the entries it reads, with the bits of the full table."""

    @settings(max_examples=60, deadline=None)
    @given(lm_batches())
    def test_nll_equals_forward_table_bitwise(self, batch):
        params, seqs = batch
        for seq in seqs:
            T = len(seq) - 1
            expected = -lm.forward(params, seq)[np.arange(T), seq.ids[1:]].sum()
            assert lm.sequence_nlls(params, [seq])[0] == expected

    @settings(max_examples=60, deadline=None)
    @given(lm_batches())
    def test_conditional_probability_equals_forward_table_bitwise(self, batch):
        params, seqs = batch
        for seq in seqs:
            context, target = list(seq.ids[:-1]), seq.ids[-1]
            expected = np.exp(lm.forward(params, seq)[-1, target])
            assert lm.conditional_probabilities(params, [context], target)[0] == expected


class TestScoringMemory:
    @staticmethod
    def peak_bytes(params, seqs):
        return traced_peak(lambda: lm.sequence_nlls(params, seqs))

    def test_peak_does_not_grow_with_length(self):
        # Forward-only scoring keeps no per-step activations, so its peak
        # memory is set by a few (B, V) tables whatever the sequence length.
        V, B = 2000, 64
        params = lm.init_params(V, 8, 8, seed=0)
        rng = np.random.default_rng(0)
        short = [random_seq(rng, V, 11) for _ in range(B)]
        long = [random_seq(rng, V, 41) for _ in range(B)]
        table = B * V * 8
        assert self.peak_bytes(params, long) - self.peak_bytes(params, short) <= table


class TestConditionalProbabilities:
    def test_batch_matches_single_forward(self):
        V = 11
        params = lm.init_params(V, 6, 6, seed=5)
        rng = np.random.default_rng(5)
        contexts = [list(random_seq(rng, V, n).ids) for n in (3, 1, 6, 2)]
        contexts.insert(2, [])
        target = 7
        probs = lm.conditional_probabilities(params, contexts, target)
        assert probs.shape == (len(contexts),)
        assert probs[2] == 1.0 / V
        for ctx, p in zip(contexts, probs):
            if ctx:
                seq = TokenSequence(ids=tuple(ctx) + (target,), source_text="t")
                # A batch row and a single sequence can reach BLAS through
                # different kernels, so the last bits may differ.
                assert p == pytest.approx(math.exp(lm.forward(params, seq)[-1, target]), rel=1e-12)

    def test_identical_contexts_score_identically(self):
        # BLAS may round equal rows of one batch differently (edge tiles use
        # other kernels); the audit relies on an unchanged full prefix tying
        # with itself exactly.
        V = 300
        rng = np.random.default_rng(6)
        theta = rng.normal(0.0, 0.5, lm.init_params(V, 64, 64, 0).num_params)
        params = LMParameters(theta, V, 64, 64)
        contexts = [list(random_seq(rng, V, int(rng.integers(1, 9))).ids) for _ in range(64)]
        contexts[::3] = [list(random_seq(rng, V, 8).ids)] * len(contexts[::3])
        for target in range(V):
            probs = lm.conditional_probabilities(params, contexts, target)
            assert np.all(probs[::3] == probs[0])

    def test_all_empty_contexts(self):
        params = lm.init_params(11, 6, 6, seed=5)
        assert np.array_equal(lm.conditional_probabilities(params, [[], []], 3), [1 / 11, 1 / 11])

    def test_id_out_of_range(self):
        params = lm.init_params(5, 4, 4, seed=0)
        with pytest.raises(LMError, match="out of range"):
            lm.conditional_probabilities(params, [[1, 2]], 9)


class TestGradients:
    def test_matches_finite_differences_many_seeds(self):
        rng = np.random.default_rng(42)
        for trial in range(6):
            params = lm.init_params(12, 8, 8, seed=100 + trial)
            seq = random_seq(rng, 12, 6)
            grad = lm.batch_gradients(params, [seq])[1][0]
            numeric = finite_difference_gradient(params, seq)
            rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), _REL_FLOOR)
            assert rel.max() < 1e-4

    def test_unused_embedding_rows_have_zero_gradient(self):
        params = lm.init_params(10, 4, 4, seed=3)
        seq = TokenSequence(ids=(1, 2, 1, 2), source_text="t")
        grad = lm.batch_gradients(params, [seq])[1][0]
        used = {1, 2}
        for row in range(10):
            if row not in used:
                assert np.all(LMParameters(grad, 10, 4, 4).emb[row] == 0.0)

    def test_batch_loss_gradient_is_mean_of_per_example(self):
        params = lm.init_params(11, 6, 6, seed=4)
        rng = np.random.default_rng(9)
        seqs = [random_seq(rng, 11, int(rng.integers(2, 8))) for _ in range(5)]
        nlls, stacked = lm.batch_gradients(params, seqs)
        singles = [lm.batch_gradients(params, [s]) for s in seqs]
        for b, (val, grad) in enumerate(singles):
            assert nlls[b] == pytest.approx(val[0], rel=1e-12)
            assert np.allclose(stacked[b], grad[0], rtol=1e-10, atol=1e-12)
        mean_manual = np.mean([g[0] for _, g in singles], axis=0)
        assert np.allclose(stacked.mean(axis=0), mean_manual, rtol=1e-10, atol=1e-14)

    def test_flat_roundtrip_exact(self):
        # The named views tile theta exactly, in the documented order, as views.
        params = lm.init_params(10, 4, 4, seed=6)
        views = [params.emb, params.lstm_W, params.lstm_b, params.out_W, params.out_b]
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), params.theta)
        assert all(np.shares_memory(v, params.theta) for v in views)
        # The same views of a (B, P) stack give each row's blocks, without copies.
        rng = np.random.default_rng(6)
        seqs = [random_seq(rng, 10, int(rng.integers(2, 7))) for _ in range(4)]
        _, stacked = lm.batch_gradients(params, seqs)
        blocks = lm._views(stacked, 10, 4, 4)
        assert all(np.shares_memory(v, stacked) for v in blocks)
        for b in range(len(seqs)):
            row = LMParameters(stacked[b], 10, 4, 4)
            expected = [row.emb, row.lstm_W, row.lstm_b, row.out_W, row.out_b]
            assert all(np.array_equal(v[b], e) for v, e in zip(blocks, expected))


class TestGradientFactors:
    """Ghost norms and the weighted contraction against one-sequence rows."""

    @settings(max_examples=80, deadline=None)
    @given(lm_batches())
    def test_norms_match_reference_rows(self, batch):
        params, seqs = batch
        ref = np.linalg.norm(per_example_rows(params, seqs), axis=1)
        ghost = lm.backprop(params, seqs).norms()
        assert np.all(np.abs(ghost - ref) <= 1e-12 * ref)

    @settings(max_examples=80, deadline=None)
    @given(lm_batches(), st.data())
    def test_weighted_sum_matches_reference_rows(self, batch, data):
        params, seqs = batch
        weight = st.floats(0.0, 1.0, allow_subnormal=False)
        w = np.array(data.draw(st.lists(weight, min_size=len(seqs), max_size=len(seqs))))
        ref = w @ per_example_rows(params, seqs)
        got = lm.backprop(params, seqs).weighted_sum(w)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestBackpropScoring:
    @pytest.mark.parametrize("lengths", [[6, 6, 6, 6, 6], [2, 9, 4, 9, 3, 7]])
    def test_nlls_equal_forward_only_scoring_bitwise(self, lengths):
        # Equal lengths leave no step padded, so BPTT skips every mask
        # multiply; mixed lengths pad the tail steps of the short rows.
        params = lm.init_params(30, 5, 6, seed=4)
        rng = np.random.default_rng(len(lengths))
        seqs = [random_seq(rng, 30, n) for n in lengths]
        got = lm.backprop(params, seqs).nlls
        assert np.array_equal(got.view(np.int64), lm.sequence_nlls(params, seqs).view(np.int64))


class TestGradientMemory:
    def test_peak_below_twice_the_stack(self):
        # The (B, P) per-example stack is allocated once and every gradient
        # block is written into its view of it, so nothing near its size is
        # allocated beside it.
        V, B = 2000, 32
        params = lm.init_params(V, 8, 8, seed=0)
        rng = np.random.default_rng(0)
        seqs = [random_seq(rng, V, 7) for _ in range(B)]  # T = 6
        _, stacked = lm.batch_gradients(params, seqs)
        assert traced_peak(lambda: lm.batch_gradients(params, seqs)) < 2 * stacked.nbytes


class TestApplyUpdate:
    def setup_method(self):
        self.params = lm.init_params(8, 4, 4, seed=1)
        seq = TokenSequence(ids=(1, 2, 3), source_text="t")
        self.grad = lm.batch_gradients(self.params, [seq])[1][0]

    def test_eta_zero_is_identity(self):
        updated = lm.apply_update(self.params, self.grad, 0.0)
        assert np.array_equal(updated.theta, self.params.theta)

    def test_zero_update_is_identity(self):
        zero = np.zeros_like(self.params.theta)
        updated = lm.apply_update(self.params, zero, 0.3)
        assert np.array_equal(updated.theta, self.params.theta)

    def test_two_half_steps_equal_one_full_step(self):
        # Each call computes its theta in the update it is given, so each gets a copy.
        one = lm.apply_update(self.params, self.grad.copy(), 0.2)
        half = lm.apply_update(self.params, self.grad.copy(), 0.1)
        two = lm.apply_update(half, self.grad.copy(), 0.1)
        assert np.allclose(one.theta, two.theta, rtol=0, atol=1e-15)

    def test_theta_in_the_update_buffer_params_unchanged(self):
        theta, grad = self.params.theta.copy(), self.grad.copy()
        updated = lm.apply_update(self.params, self.grad, 0.2)
        assert np.array_equal(self.params.theta.view(np.int64), theta.view(np.int64))
        assert updated.theta is self.grad
        assert not np.shares_memory(updated.theta, self.params.theta)
        want = theta - 0.2 * grad
        assert np.array_equal(updated.theta.view(np.int64), want.view(np.int64))

    def test_aliased_update_rejected(self):
        theta = self.params.theta.copy()
        for aliased in (self.params.theta, self.params.theta[::-1], self.params.theta[:]):
            with pytest.raises(LMError, match="shares memory"):
                lm.apply_update(self.params, aliased, 0.2)
        assert np.array_equal(self.params.theta.view(np.int64), theta.view(np.int64))

    def test_non_float64_update_rejected(self):
        with pytest.raises(LMError, match="float64"):
            lm.apply_update(self.params, self.grad.astype(np.float32), 0.2)

    def test_shape_mismatch_rejected(self):
        other = lm.init_params(9, 4, 4, seed=2)
        seq = TokenSequence(ids=(1, 2), source_text="t")
        grad9 = lm.batch_gradients(other, [seq])[1][0]
        with pytest.raises(LMError, match="shape"):
            lm.apply_update(self.params, grad9, 0.1)


class TestTrainingSanity:
    def test_nll_strictly_decreases_50_full_batch_steps(self):
        rng = np.random.default_rng(12)
        vocab = 15
        seqs = [random_seq(rng, vocab, int(rng.integers(3, 9))) for _ in range(20)]
        params = lm.init_params(vocab, 8, 8, seed=0)

        def total_nll(p):
            return float(lm.sequence_nlls(p, seqs).sum())

        losses = [total_nll(params)]
        for _ in range(50):
            _, stacked = lm.batch_gradients(params, seqs)
            mean = stacked.mean(axis=0)
            params = lm.apply_update(params, mean, 0.1)
            losses.append(total_nll(params))
        diffs = np.diff(losses)
        assert np.all(diffs < 0.0)
        assert np.isfinite(losses[-1])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = lm.init_params(13, 6, 5, seed=8)
        path = tmp_path / "model.ckpt"
        params.save(path)
        loaded = LMParameters.load(path)
        assert np.array_equal(params.theta, loaded.theta)

    def test_body_is_theta_little_endian(self, tmp_path):
        params = lm.init_params(13, 6, 5, seed=8)
        path = tmp_path / "model.ckpt"
        params.save(path)
        header = b"CADPLM1" + struct.pack("<III", 13, 6, 5)
        assert path.read_bytes() == header + params.theta.astype("<f8").tobytes()

    def test_save_copies_no_parameter_vector(self, tmp_path):
        # theta's bytes are written from the array itself: a bytes copy of the
        # body (and of header + body) would read 1-2 P-vectors.
        params = lm.init_params(2000, 64, 64, seed=0)
        peak = traced_peak(lambda: params.save(tmp_path / "model.ckpt"))
        assert peak < 0.1 * params.num_params * 8

    def test_load_copies_no_parameter_vector(self, tmp_path):
        # The body is read into theta itself: the file's bytes plus a converted
        # copy would read 2 P-vectors.
        params = lm.init_params(2000, 64, 64, seed=0)
        path = tmp_path / "model.ckpt"
        params.save(path)
        peak = traced_peak(lambda: LMParameters.load(path))
        assert peak < 1.1 * params.num_params * 8
        assert np.array_equal(LMParameters.load(path).theta, params.theta)

    def test_rejects_oversized_header_before_allocating(self, tmp_path):
        # The dimensions claim ~2**52 parameters; the size check runs before theta exists.
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"CADPLM1" + struct.pack("<III", 2**31, 2**20, 1) + b"\x00" * 64)

        def load():
            with pytest.raises(LMError, match="size"):
                LMParameters.load(path)

        assert traced_peak(load) < 1 << 20

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(LMError, match="magic"):
            LMParameters.load(path)

    def test_rejects_vocab_mismatch(self, tmp_path):
        params = lm.init_params(13, 6, 5, seed=8)
        path = tmp_path / "model.ckpt"
        params.save(path)
        with pytest.raises(LMError, match="vocabulary"):
            LMParameters.load(path, expect_vocab=14)

    def test_rejects_truncated_body(self, tmp_path):
        params = lm.init_params(13, 6, 5, seed=8)
        path = tmp_path / "model.ckpt"
        params.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(LMError, match="size"):
            LMParameters.load(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"CADPLM1\x0d\x00")
        with pytest.raises(LMError, match="truncated"):
            LMParameters.load(path)

    def test_header_layout(self, tmp_path):
        params = lm.init_params(13, 6, 5, seed=8)
        path = tmp_path / "model.ckpt"
        params.save(path)
        raw = path.read_bytes()
        assert raw[:7] == b"CADPLM1"
        vocab, d_emb, d_hid = struct.unpack_from("<III", raw, 7)
        assert (vocab, d_emb, d_hid) == (13, 6, 5)
