import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlm import lm, privacy
from privlm.corpus import TokenSequence
from privlm.privacy import (
    PrivacyError,
    PrivacySpec,
    clip_scales,
    dp_sgd_step,
    gaussian_rdp_epsilon,
    noisy_clipped_mean,
    plain_sgd_step,
    rdp_to_dp,
    selective_dp_budget,
)

from conftest import lm_batches, traced_peak
from oracles import per_example_rows, renyi_divergence_quadrature


def grad_from_vector(vec, params):
    flat = np.zeros(params.num_params)
    flat[: len(vec)] = vec
    return flat


def clip_one(g, c):
    """Clip one flat gradient with clip_scales, as a batch of one row."""
    return g * clip_scales(g[None, :], c)[0]


@pytest.fixture(scope="module")
def tiny_params():
    return lm.init_params(6, 3, 3, seed=0)


class TestClip:
    def test_three_four_clipped_to_bound(self, tiny_params):
        g = grad_from_vector([3.0, 4.0], tiny_params)
        flat = clip_one(g, 2.5)
        assert flat[0] == pytest.approx(1.5)
        assert flat[1] == pytest.approx(2.0)
        assert np.linalg.norm(flat) == pytest.approx(2.5)

    def test_below_bound_unchanged(self, tiny_params):
        g = grad_from_vector([3.0, 4.0], tiny_params)
        assert np.array_equal(clip_one(g, 10.0), g)

    def test_zero_vector(self, tiny_params):
        g = np.zeros(tiny_params.num_params)
        assert np.all(clip_one(g, 1.0) == 0.0)

    def test_nonfinite_rejected(self, tiny_params):
        g = grad_from_vector([np.inf, 1.0], tiny_params)
        with pytest.raises(PrivacyError, match="non-finite"):
            clip_one(g, 1.0)

    def test_nonpositive_bound_rejected(self, tiny_params):
        g = grad_from_vector([3.0, 4.0], tiny_params)
        for c in (0.0, -1.0):
            with pytest.raises(PrivacyError, match="clip bound"):
                clip_one(g, c)

    def test_idempotent_and_direction_preserving(self, tiny_params):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vec = rng.normal(size=8) * rng.uniform(0.1, 10)
            g = grad_from_vector(vec, tiny_params)
            c = rng.uniform(0.2, 5.0)
            once = clip_one(g, c)
            assert clip_scales(once[None, :], c)[0] == 1.0
            assert np.linalg.norm(once) <= c + 1e-12
            # direction preserved: clipped is a nonnegative multiple of input
            nz = g != 0
            ratios = once[nz] / g[nz]
            assert np.allclose(ratios, ratios[0])
            assert ratios[0] >= 0

    def test_postclip_norms_bounded_10k_random_gradients(self):
        rng = np.random.default_rng(7)
        stacked = rng.normal(size=(10_000, 12)) * rng.uniform(0.01, 30, size=(10_000, 1))
        c = 1.7
        scales = clip_scales(stacked, c)
        norms = np.linalg.norm(stacked * scales[:, None], axis=1)
        assert np.all(norms <= c + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        cols=st.integers(1, 300),
        clip=st.floats(1e-3, 50.0),
        clip_at_row_norm=st.booleans(),
    )
    def test_scale_rule_oracle(self, seed, rows, cols, clip, clip_at_row_norm):
        rng = np.random.default_rng(seed)
        stacked = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 30, size=(rows, 1))
        stacked[rng.random(rows) < 0.1] = 0.0
        norms = np.linalg.norm(stacked, axis=1)
        if clip_at_row_norm and norms[0] > 0:
            clip = norms[0]  # a row exactly at the bound is not clipped
        scales = clip_scales(stacked, clip)
        scaled = stacked * scales[:, None]
        clipped = norms > clip
        assert np.all(np.linalg.norm(scaled, axis=1) <= clip)
        kappa = privacy.CLIP_SLACK
        assert np.all(scales[clipped] >= clip / norms[clipped] * (1 - 2 * kappa))
        assert np.all(scales[~clipped] == 1.0)
        assert np.array_equal(scaled[~clipped], stacked[~clipped])

    def test_peak_memory_of_clipping_every_row(self):
        # Clipped rows need no re-check, so beyond the norm pass no copy of
        # the (B, P) stack is made even when every row is clipped.
        V, B = 2000, 32
        params = lm.init_params(V, 8, 8, seed=0)
        rng = np.random.default_rng(0)
        seqs = [
            TokenSequence(tuple(int(x) for x in rng.integers(0, V, size=7)), "t") for _ in range(B)
        ]
        _, stacked = lm.batch_gradients(params, seqs)
        bound = 0.5 * np.linalg.norm(stacked, axis=1).min()
        assert np.all(clip_scales(stacked, bound) < 1.0)
        assert traced_peak(lambda: clip_scales(stacked, bound)) < 1.2 * stacked.nbytes


class TestGhostClipping:
    """Scales from ghost norms, checked against one-sequence gradient rows."""

    @settings(max_examples=60, deadline=None)
    @given(lm_batches(), st.floats(0.05, 0.9))
    def test_clipped_rows_within_bound(self, batch, fraction):
        params, seqs = batch
        rows = per_example_rows(params, seqs)
        c = fraction * float(np.linalg.norm(rows, axis=1).max())
        scales = privacy.scales_for_norms(lm.backprop(params, seqs).norms(), c)
        assert np.any(scales < 1.0)
        for s, g in zip(scales, rows):
            if s < 1.0:
                assert np.linalg.norm(s * g) <= c
            else:  # the ghost norm is within 1e-12 of the row's (tests/test_lm.py)
                assert np.linalg.norm(g) <= c * (1 + 1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_out_W_raises(self, tiny_params, bad):
        params = lm.LMParameters(tiny_params.theta.copy(), 6, 3, 3)
        params.out_W[1, 2] = bad
        batch = [TokenSequence((1, 2, 3, 4), "t"), TokenSequence((0, 5), "t")]
        spec = PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
        with np.errstate(all="ignore"), pytest.raises(PrivacyError, match="non-finite"):
            dp_sgd_step(params, batch, spec, np.zeros(params.num_params))


class TestStepMemory:
    @pytest.mark.parametrize("private", [True, False])
    def test_peak_below_three_quarters_of_the_stack(self, private):
        # Neither step materialises the (B, P) per-example stack; the largest
        # array alive is the (T, B, V) output error.
        V, B = 2000, 32
        params = lm.init_params(V, 8, 8, seed=0)
        rng = np.random.default_rng(0)
        seqs = [
            TokenSequence(tuple(int(x) for x in rng.integers(0, V, size=8)), "t") for _ in range(B)
        ]  # T = 7
        spec = PrivacySpec(sigma=1.0, clip_bound=0.01, eta=0.1)
        if private:
            draw = np.random.default_rng(0).standard_normal(params.num_params)
            peak = traced_peak(lambda: dp_sgd_step(params, seqs, spec, draw.copy()))
        else:
            peak = traced_peak(lambda: plain_sgd_step(params, seqs, eta=0.1))
        assert peak < 0.75 * B * params.num_params * 8


    @pytest.mark.parametrize("private", [True, False])
    def test_warm_step_allocates_one_parameter_vector(self, private):
        # At d=64 the (P,) vector dwarfs the factors and the Grams, so the peak is
        # the step's weighted sum, which becomes the theta it returns; a step that
        # also allocated its new theta (or its noise) would read 2 P-vectors.
        V, B, T = 300, 4, 5
        params = lm.init_params(V, 64, 64, seed=0)
        ws = lm.Workspace(params, B, T)
        seqs = [TokenSequence(tuple(int(x) for x in row), "t")
                for row in np.random.default_rng(0).integers(0, V, size=(B, T + 1))]
        spec = PrivacySpec(sigma=1.0, clip_bound=0.01, eta=0.1)
        draw = np.random.default_rng(1).standard_normal(params.num_params)
        if private:
            peak = traced_peak(lambda: dp_sgd_step(params, seqs, spec, draw, ws))
        else:
            peak = traced_peak(lambda: plain_sgd_step(params, seqs, 0.1, ws))
        assert peak < 1.25 * params.num_params * 8


class TestDpSgdStep:
    def make_batch(self, rng, vocab=6, n=4):
        return [
            TokenSequence(ids=tuple(int(x) for x in rng.integers(0, vocab, size=5)), source_text="t")
            for _ in range(n)
        ]

    def test_sigma_to_zero_equals_plain_sgd_bitwise(self, tiny_params):
        rng = np.random.default_rng(1)
        batch = self.make_batch(rng)
        # pick a clip bound far above every gradient norm so clipping is inert
        _, stacked = lm.batch_gradients(tiny_params, batch)
        big_c = float(np.linalg.norm(stacked, axis=1).max()) * 10 + 1
        spec = PrivacySpec(sigma=1e-300, clip_bound=big_c, eta=0.1)
        private = dp_sgd_step(tiny_params, batch, spec,
                              np.random.default_rng(0).standard_normal(tiny_params.num_params))
        plain = plain_sgd_step(tiny_params, batch, eta=0.1)
        assert np.array_equal(private.theta, plain.theta)

    def test_fixed_seed_bit_identical(self, tiny_params):
        rng = np.random.default_rng(2)
        batch = self.make_batch(rng)
        spec = PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
        a, b = (dp_sgd_step(tiny_params, batch, spec,
                            np.random.default_rng(123).standard_normal(tiny_params.num_params))
                for _ in range(2))
        assert np.array_equal(a.theta, b.theta)

    def test_empty_batch_rejected(self, tiny_params):
        spec = PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
        with pytest.raises(PrivacyError, match="skip"):
            dp_sgd_step(tiny_params, [], spec, np.zeros(tiny_params.num_params))

    def test_monte_carlo_mean_matches_clipped_mean(self):
        # Independent unbiasedness oracle over 10^4 seeded draws.
        rng = np.random.default_rng(3)
        batch_size, dim = 4, 6
        stacked = rng.normal(size=(batch_size, dim)) * 3.0
        c, sigma = 1.0, 2.0
        scales = clip_scales(stacked, c)
        clipped_mean = (scales @ stacked) / batch_size

        draws = 10_000
        noise_rng = np.random.default_rng(99)
        acc = np.zeros(dim)
        for _ in range(draws):
            acc += noisy_clipped_mean(stacked, c, sigma, noise_rng)
        mc_mean = acc / draws
        band = 3.0 * (sigma * c) / math.sqrt(draws * batch_size)
        assert np.all(np.abs(mc_mean - clipped_mean) <= band)


class TestUpdateFormulas:
    """Both training updates against their formulas, written out in full."""

    @settings(max_examples=40, deadline=None)
    @given(lm_batches(), st.floats(0.1, 5.0), st.floats(0.01, 2.0), st.integers(0, 2**32 - 1))
    def test_dp_sgd_step_bitwise(self, batch, sigma, clip, seed):
        params, seqs = batch
        spec = PrivacySpec(sigma=sigma, clip_bound=clip, eta=0.3)
        factors = lm.backprop(params, seqs)
        total = factors.weighted_sum(privacy.scales_for_norms(factors.norms(), clip))
        noise = np.random.default_rng(seed).normal(0.0, sigma * clip, params.num_params)
        want = params.theta - spec.eta * ((total + noise) / len(seqs))
        got = dp_sgd_step(params, seqs, spec,
                          np.random.default_rng(seed).standard_normal(params.num_params))
        assert np.array_equal(got.theta.view(np.int64), want.view(np.int64))

    @settings(max_examples=40, deadline=None)
    @given(lm_batches())
    def test_plain_sgd_step_bitwise(self, batch):
        params, seqs = batch
        got = plain_sgd_step(params, seqs, eta=0.3)
        total = lm.backprop(params, seqs).weighted_sum(np.ones(len(seqs)))
        want = params.theta - 0.3 * (total / len(seqs))
        assert np.array_equal(got.theta.view(np.int64), want.view(np.int64))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_shared_workspace_equals_fresh_steps_bitwise(self, data):
        params, _ = data.draw(lm_batches())
        word = st.integers(0, params.vocab_size - 1)

        def batch(sizes, lengths):
            ns = data.draw(st.lists(st.integers(*lengths), min_size=sizes[0], max_size=sizes[1]))
            return [TokenSequence(tuple(data.draw(st.lists(word, min_size=n, max_size=n))), "t")
                    for n in ns]

        # A long batch, then a short one in the prefix of its buffers, as cadp's
        # small private steps follow its large plain ones; then B and T at random.
        schedule = [batch((5, 8), (7, 9)), batch((1, 3), (2, 4))]
        schedule += [batch((1, 8), (2, 9)) for _ in range(data.draw(st.integers(0, 4)))]
        private = [data.draw(st.booleans()) for _ in schedule]
        spec = PrivacySpec(sigma=data.draw(st.floats(0.1, 5.0)),
                           clip_bound=data.draw(st.floats(0.01, 2.0)), eta=0.3)
        seed = data.draw(st.integers(0, 2**32 - 1))

        def thetas(workspace):
            rng, p, out = np.random.default_rng(seed), params, []
            for seqs, is_private in zip(schedule, private):
                if is_private:
                    p = dp_sgd_step(p, seqs, spec, rng.standard_normal(p.num_params), workspace)
                else:
                    p = plain_sgd_step(p, seqs, spec.eta, workspace)
                out.append(p.theta.copy())
            return out

        longest = max(len(s) for seqs in schedule for s in seqs) - 1
        shared = lm.Workspace(params, max(map(len, schedule)), longest)
        for got, want in zip(thetas(shared), thetas(None), strict=True):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWorkspace:
    def random_batch(self, rng, vocab, size, longest):
        return [
            TokenSequence(tuple(int(x) for x in rng.integers(0, vocab, size=n)), "t")
            for n in rng.integers(2, longest + 1, size=size)
        ]

    def test_sized_workspace_keeps_every_buffer(self):
        # The workspace is sized for the largest (B, T) when it is built; steps
        # of either kind, the largest batch included, take prefixes of its
        # buffers, so none allocates (or faults in) a fresh one.
        vocab, B, longest = 30, 8, 9
        params = lm.init_params(vocab, 5, 4, seed=0)
        ws = lm.Workspace(params, B, longest - 1)
        rng = np.random.default_rng(0)
        spec = PrivacySpec(sigma=1.0, clip_bound=0.1, eta=0.1)
        before = {name: (buf, buf.ctypes.data) for name, buf in ws.buffers.items()}
        params = dp_sgd_step(params, [TokenSequence(tuple(range(longest)), "t")] * B, spec,
                             rng.standard_normal(params.num_params), ws)
        for k, size in enumerate([1, 7, 2, B, 3, 5, 1]):
            seqs = self.random_batch(rng, vocab, size, longest)
            if k % 2 == 0:
                params = plain_sgd_step(params, seqs, 0.1, ws)
            else:
                params = dp_sgd_step(params, seqs, spec, rng.standard_normal(params.num_params), ws)
        assert ws.buffers.keys() == before.keys()
        for name, (buf, address) in before.items():
            assert ws.buffers[name] is buf and buf.ctypes.data == address, name

    @pytest.mark.parametrize("batch_size, steps", [(2, 3), (3, 2)])
    def test_batch_beyond_the_workspace_rejected(self, tiny_params, batch_size, steps):
        seqs = [TokenSequence((1, 2, 3, 4), "t")] * 3  # B = 3, T = 3
        ws = lm.Workspace(tiny_params, batch_size, steps)
        with pytest.raises(lm.LMError, match="outgrows the workspace"):
            lm.backprop(tiny_params, seqs, ws)

    @pytest.mark.parametrize("private", [True, False])
    def test_warm_step_allocates_less_than_one_delta(self, private):
        # T*B*V is far above P and the norms' (B, T, T) Grams, so a step that
        # allocated its own (T, B, V) output errors would exceed the bound.
        V, B, T = 400, 16, 10
        params = lm.init_params(V, 4, 4, seed=0)
        ws = lm.Workspace(params, B, T)
        seqs = [TokenSequence(tuple(int(x) for x in row), "t")
                for row in np.random.default_rng(0).integers(0, V, size=(B, T + 1))]
        spec = PrivacySpec(sigma=1.0, clip_bound=0.01, eta=0.1)
        if private:
            draw = np.random.default_rng(0).standard_normal(params.num_params)
            peak = traced_peak(lambda: dp_sgd_step(params, seqs, spec, draw.copy(), ws))
        else:
            peak = traced_peak(lambda: plain_sgd_step(params, seqs, 0.1, ws))
        assert peak < 8 * T * B * V

    def test_step_result_never_changed_by_later_steps(self, tiny_params):
        rng = np.random.default_rng(4)
        ws = lm.Workspace(tiny_params, 4, 5)
        spec = PrivacySpec(sigma=1.0, clip_bound=0.5, eta=0.1)
        params, kept = tiny_params, []
        for k, size in enumerate([4, 2, 3, 4, 1]):
            seqs = self.random_batch(rng, 6, size, 6)
            if k % 2 == 0:
                params = plain_sgd_step(params, seqs, 0.1, ws)
            else:
                params = dp_sgd_step(params, seqs, spec, rng.standard_normal(params.num_params), ws)
            kept.append((params.theta, params.theta.copy()))
            for theta, copy in kept:
                assert np.array_equal(theta.view(np.int64), copy.view(np.int64))


class TestRdpAccounting:
    def test_closed_form_values(self):
        assert gaussian_rdp_epsilon(1.0, 2.0) == pytest.approx(1.0)
        assert gaussian_rdp_epsilon(2.0, 8.0) == pytest.approx(1.0)

    def test_matches_quadrature_on_grid(self):
        for sigma in (0.5, 1.0, 2.0, 4.0):
            for alpha in (1.5, 2.0, 4.0, 8.0):
                closed = gaussian_rdp_epsilon(sigma, alpha)
                oracle = renyi_divergence_quadrature(sigma, alpha)
                assert abs(closed - oracle) < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(PrivacyError):
            gaussian_rdp_epsilon(0.0, 2.0)
        with pytest.raises(PrivacyError):
            gaussian_rdp_epsilon(1.0, 1.0)

    def test_rdp_to_dp_values(self):
        assert rdp_to_dp(1.0, 2.0, math.exp(-1.0)) == pytest.approx(2.0, abs=1e-12)
        # frozen from direct evaluation: 0.5 + ln(1e5)
        assert rdp_to_dp(0.5, 2.0, 1e-5) == pytest.approx(12.012925464970229, abs=1e-9)

    def test_rdp_to_dp_delta_to_one_limit(self):
        assert rdp_to_dp(0.7, 3.0, 1.0 - 1e-12) == pytest.approx(0.7, abs=1e-9)

    def test_rdp_to_dp_validation(self):
        with pytest.raises(PrivacyError):
            rdp_to_dp(1.0, 1.0, 0.5)
        with pytest.raises(PrivacyError):
            rdp_to_dp(1.0, 2.0, 0.0)
        with pytest.raises(PrivacyError):
            rdp_to_dp(1.0, 2.0, 1.0)


class TestSelectiveBudget:
    def budget(self, delta, **kw):
        base = dict(
            epochs=10, sensitive_count=100, batch_size=50,
            per_step_epsilon=0.5, gamma=1.0, alpha=2.0,
        )
        base.update(kw)
        return selective_dp_budget(**base, delta=delta)

    def test_direct_evaluation_of_the_bound(self):
        # T*N_S*eps/|B| + ln(1e5) = 10 + 11.512925... for the stated inputs.
        eps = self.budget(1e-5)
        assert type(eps) is float
        assert eps == pytest.approx(21.51292546497023, abs=1e-9)
        # and 100 + ln(1e5) when the linear term is 100 (|B| = 5)
        eps2 = self.budget(1e-5, batch_size=5)
        assert eps2 == pytest.approx(111.51292546497022, abs=1e-9)

    def test_gamma_constraint_rejects(self):
        with pytest.raises(PrivacyError, match="gamma"):
            self.budget(1e-5, gamma=0.99)

    def test_delta_range(self):
        with pytest.raises(PrivacyError):
            self.budget(1.0)
        with pytest.raises(PrivacyError):
            self.budget(0.0)

    def test_no_private_epochs(self):
        eps = self.budget(1e-5, epochs=0)
        assert eps == pytest.approx(math.log(1e5), abs=1e-12)

    def test_alpha_at_most_one_rejected(self):
        for alpha in (1.0, 0.5):
            with pytest.raises(PrivacyError, match="alpha"):
                self.budget(1e-5, alpha=alpha)

    @pytest.mark.parametrize("key, value, match", [
        ("epochs", -1, "counts must be >= 0"),
        ("sensitive_count", -1, "counts must be >= 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("per_step_epsilon", -0.5, "per_step_epsilon must be >= 0"),
        ("gamma", 1.5, r"gamma must be in \[0, 1\]"),
        ("gamma", -0.1, r"gamma must be in \[0, 1\]"),
    ])
    def test_invalid_input_rejected(self, key, value, match):
        with pytest.raises(PrivacyError, match=match):
            self.budget(1e-5, **{key: value})

    @pytest.mark.parametrize("delta, alpha, match", [
        (1e-5, 1.0, "alpha must be > 1"),
        (0.0, 2.0, "delta must be in"),
    ])
    def test_conversion_errors_precede_the_gamma_floor(self, delta, alpha, match):
        with pytest.raises(PrivacyError, match=match):
            self.budget(delta, gamma=0.5, alpha=alpha)

    def test_delta_just_above_floor_accepted(self):
        eps = self.budget(0.0500001, gamma=0.95)
        assert math.isfinite(eps)


@settings(max_examples=60, deadline=None)
@given(
    epochs=st.integers(0, 50),
    n_s=st.integers(0, 500),
    batch=st.integers(1, 128),
    eps_step=st.floats(0.0, 5.0),
    delta=st.floats(1e-8, 0.5),
)
def test_budget_monotonicity(epochs, n_s, batch, eps_step, delta):
    def budget(T, N, B, e, d):
        return selective_dp_budget(
            epochs=T, sensitive_count=N, batch_size=B,
            per_step_epsilon=e, gamma=1.0, alpha=2.0, delta=d,
        )

    base = budget(epochs, n_s, batch, eps_step, delta)
    assert budget(epochs + 1, n_s, batch, eps_step, delta) >= base
    assert budget(epochs, n_s + 10, batch, eps_step, delta) >= base
    assert budget(epochs, n_s, batch, eps_step + 0.5, delta) >= base
    assert budget(epochs, n_s, batch + 8, eps_step, delta) <= base
    assert budget(epochs, n_s, batch, eps_step, min(delta * 2, 0.999)) <= base


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(0.1, 8.0))
def test_clip_scales_norm_contract(vec, c):
    stacked = np.array([vec])
    scales = clip_scales(stacked, c)
    out = stacked * scales[:, None]
    norm_in = np.linalg.norm(stacked)
    norm_out = np.linalg.norm(out)
    assert norm_out <= c + 1e-9
    if norm_in <= c:
        assert np.array_equal(out, stacked)
