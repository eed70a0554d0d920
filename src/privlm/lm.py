"""Word-level recurrent language model with exact per-example gradients.

Architecture: embedding -> single LSTM layer -> output projection -> softmax.
Everything is float64 numpy; gradients are computed analytically by
backpropagation through time over the whole sequence, so each training
example yields one exact gradient (the unit the privacy machinery clips).

The LSTM cell and log-softmax are written once, in the step generator
``_steps``, which yields each step's logits shifted by their row maximum and
their (B, 1) log-normaliser ``lse``. Every query runs through it:
``backprop`` keeps each step's activations for the backward pass and
subtracts ``lse`` from the whole table there, as ``forward`` does for the
table it returns, while ``sequence_nlls`` and ``conditional_probabilities``
read each step as it arrives, keep no activations, and subtract ``lse`` only
from the entries they gather. Either way an entry's bits are those of
``logits - lse``.

Training steps give ``backprop`` a ``Workspace``: float64 buffers, sized for
the largest batch when it is built, for the (T, B, .) factors z, h, delta,
da and e and the (B, V) log-softmax ``exp`` scratch; steps whose B and T
vary (cadp alternates small private and large plain batches) use prefix
views of the same pages. The factors are valid until the next ``backprop``
on the same workspace. Every other array is fresh and belongs to the caller.
``apply_update`` computes the new theta in the buffer of the update it is
given, so a training step's weighted sum becomes the theta it returns and
the step holds no third P-length vector.

Gradients are kept factored: ``backprop`` returns the per-step factors BPTT
computes anyway (``GradientFactors``), of which each weight block of an
example's gradient is a sum over steps of outer products. Training reads two
things off them without forming any gradient. Per-example norms (ghost
norms) use the Gram identity ||sum_t a_t b_t^T||^2 = <A A^T, B B^T> for
``out_W`` (h, delta) and ``lstm_W`` (z, da), sum_{t,s} [x_t = x_s] e_t.e_s
for ``emb``, and the squared bias sums; that costs T^2 (V + H) per example
against T H V for materialising, and measured faster at every length the
benchmark trains on (T up to 63). The weighted sum sum_b w_b g_b is one gemm
per weight block (``np.add.at`` for ``emb``) into a flat (P,) vector. The
(B, P) per-example stack exists only where a caller asks for it:
``batch_gradients`` builds it row by row from the same contraction, for
tests, demos and the benchmark's annotations.

Parameters live in one contiguous float64 vector ``theta``; the named
arrays are reshaped views of it, in this order (which is also the checkpoint
layout). Gradients, updates and each row of the (B, P) per-example gradient
stack are flat vectors in this order, filled through the same views.

    emb      (vocab, d_emb)        token embeddings, row-major
    lstm_W   (4*d_hid, d_emb+d_hid) gate weights, gate blocks [input, forget,
                                    cell, output] over [x_t ; h_{t-1}]
    lstm_b   (4*d_hid,)             gate biases, same block order
    out_W    (d_hid, vocab)         output projection
    out_b    (vocab,)               output bias

Checkpoint format: magic ``CADPLM1``, three little-endian uint32
(vocab, d_emb, d_hid), then ``theta`` as little-endian float64. ``save``
writes theta's own bytes and ``load`` reads the body straight into the new
theta, so neither holds a second copy.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import TokenSequence

CHECKPOINT_MAGIC = b"CADPLM1"
_DIMS = struct.Struct("<III")  # vocab, d_emb, d_hid after the magic
# Sequences per forward pass in sequence_nlls. The batch shape sets how BLAS
# blocks the matmuls, so this value is part of every evaluated NLL's bits.
_NLL_CHUNK = 64


class LMError(ValueError):
    """Raised for invalid model inputs (bad ids, shape mismatches, bad files)."""


def _array_shapes(vocab: int, d_emb: int, d_hid: int) -> list[tuple[int, ...]]:
    return [
        (vocab, d_emb),
        (4 * d_hid, d_emb + d_hid),
        (4 * d_hid,),
        (d_hid, vocab),
        (vocab,),
    ]


def _num_params(vocab: int, d_emb: int, d_hid: int) -> int:
    return sum(math.prod(s) for s in _array_shapes(vocab, d_emb, d_hid))


def _views(flat: np.ndarray, vocab: int, d_emb: int, d_hid: int) -> list[np.ndarray]:
    """The named blocks of a (..., P) array as views, keeping the leading axes."""
    views, offset = [], 0
    for shape in _array_shapes(vocab, d_emb, d_hid):
        size = math.prod(shape)
        views.append(flat[..., offset : offset + size].reshape(flat.shape[:-1] + shape))
        offset += size
    return views


@dataclass(eq=False)
class LMParameters:
    """The flat parameter vector ``theta`` and its named views.

    ``emb``, ``lstm_W``, ``lstm_b``, ``out_W`` and ``out_b`` are reshaped
    views of ``theta`` in the module docstring's order, so writing to one
    writes to ``theta``.
    """

    theta: np.ndarray
    vocab_size: int
    d_emb: int
    d_hid: int
    emb: np.ndarray = field(init=False, repr=False)
    lstm_W: np.ndarray = field(init=False, repr=False)
    lstm_b: np.ndarray = field(init=False, repr=False)
    out_W: np.ndarray = field(init=False, repr=False)
    out_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = _num_params(self.vocab_size, self.d_emb, self.d_hid)
        if self.theta.shape != (n,):
            raise LMError(f"flat vector has shape {self.theta.shape}, expected ({n},)")
        views = _views(self.theta, self.vocab_size, self.d_emb, self.d_hid)
        self.emb, self.lstm_W, self.lstm_b, self.out_W, self.out_b = views

    @property
    def num_params(self) -> int:
        return self.theta.size

    def save(self, path: str | Path) -> None:
        # theta's bytes go to the file as they are, without a bytes copy.
        with Path(path).open("wb") as fh:
            fh.write(CHECKPOINT_MAGIC + _DIMS.pack(self.vocab_size, self.d_emb, self.d_hid))
            fh.write(np.ascontiguousarray(self.theta, dtype="<f8"))

    @classmethod
    def load(cls, path: str | Path, expect_vocab: int | None = None) -> "LMParameters":
        # The body is read straight into theta, after its size is checked against the file's.
        with Path(path).open("rb") as fh:
            head = fh.read(len(CHECKPOINT_MAGIC) + _DIMS.size)
            if head[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
                raise LMError(f"{path}: not a model checkpoint (bad magic)")
            if len(head) < len(CHECKPOINT_MAGIC) + _DIMS.size:
                raise LMError(f"{path}: checkpoint header is truncated")
            vocab, d_emb, d_hid = _DIMS.unpack_from(head, len(CHECKPOINT_MAGIC))
            if expect_vocab is not None and vocab != expect_vocab:
                raise LMError(f"{path}: checkpoint vocabulary size {vocab} != expected {expect_vocab}")
            n = _num_params(vocab, d_emb, d_hid)
            if os.fstat(fh.fileno()).st_size - len(head) != 8 * n:
                raise LMError(f"{path}: checkpoint body has wrong size")
            theta = np.empty(n, dtype="<f8")
            if fh.readinto(theta) != theta.nbytes:
                raise LMError(f"{path}: checkpoint body has wrong size")
        return cls(theta.astype(np.float64, copy=False), vocab, d_emb, d_hid)


def init_params(vocab_size: int, d_emb: int, d_hid: int, seed: int) -> LMParameters:
    """Seeded uniform [-0.1, 0.1] init; forget-gate bias set to 1.0."""
    if min(vocab_size, d_emb, d_hid) < 1:
        raise LMError("all dimensions must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    theta = rng.uniform(-0.1, 0.1, size=_num_params(vocab_size, d_emb, d_hid))
    params = LMParameters(theta, vocab_size, d_emb, d_hid)
    params.lstm_b[d_hid : 2 * d_hid] = 1.0
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e = exp(-|x|)
    # so exp never overflows; no boolean gather, same bits as the two branches
    # (a library logistic function can differ from them in the last bit).
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


def _pack_batch(
    params: LMParameters, seqs: list[TokenSequence]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check ids and pad to a common length; returns inputs, targets, mask (B,T)."""
    if not seqs:
        raise LMError("empty batch")
    vocab = params.vocab_size
    for seq in seqs:
        for tid in seq.ids:
            if not (0 <= tid < vocab):
                raise LMError(
                    f"token id {tid} out of range for vocabulary of size {vocab} "
                    f"(sequence {seq.source_text!r})"
                )
        if len(seq) < 2:
            raise LMError(f"sequence needs at least 2 tokens: {seq.source_text!r}")
    B = len(seqs)
    T = max(len(s) for s in seqs) - 1
    X = np.zeros((B, T), dtype=np.int64)
    Y = np.zeros((B, T), dtype=np.int64)
    M = np.zeros((B, T), dtype=np.float64)
    for b, seq in enumerate(seqs):
        ids = np.asarray(seq.ids, dtype=np.int64)
        t = len(ids) - 1
        X[b, :t] = ids[:-1]
        Y[b, :t] = ids[1:]
        M[b, :t] = 1.0
    return X, Y, M


def _steps(params: LMParameters, X: np.ndarray, keep: tuple | None = None,
           exp_scratch: np.ndarray | None = None):
    """The LSTM cell and the log-softmax's terms, one time step at a time.

    Yields ``(z, s, g, c_prev, ct, h, logits, lse)`` for each column of the
    packed inputs ``X`` (B, T): the cell input [x_t ; h_{t-1}], the sigmoid
    of the whole (B, 4H) gate pre-activation (its blocks 0, 1 and 3 are the
    input, forget and output gates i, f, o), the cell gate g, the cell state
    before and tanh after the update, the hidden state, the (B, V) logits
    shifted by their row maximum and the (B, 1) log-normaliser ``lse``: the
    next-token log-probabilities are ``logits - lse``. A caller subtracts
    ``lse`` from the whole table or only from the entries it reads. Nothing
    is retained between steps unless the caller keeps it. Given ``keep =
    (zs, hs, logits)``, three (T, B, .) buffers, step t's z, h and shifted
    logits are computed in their row t; the log-softmax ``exp`` goes to
    ``exp_scratch`` (B, V), or a fresh buffer.
    """
    B, T = X.shape
    H = params.d_hid
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    Wt = params.lstm_W.T  # (E+H, 4H)
    if exp_scratch is None:
        exp_scratch = np.empty((B, params.vocab_size))
    for t in range(T):
        z_out, h_out, logits_out = (None,) * 3 if keep is None else (buf[t] for buf in keep)
        z = np.concatenate([params.emb[X[:, t]], h], axis=1, out=z_out)
        a = z @ Wt
        a += params.lstm_b
        s = _sigmoid(a)  # the g block is unused: one call beats three slices
        i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]
        g = np.tanh(a[:, 2 * H : 3 * H])
        c_prev = c
        c = f * c
        c += i * g
        ct = np.tanh(c)
        h = np.multiply(o, ct, out=h_out)
        logits = np.matmul(h, params.out_W, out=logits_out)
        logits += params.out_b
        logits -= logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits, out=exp_scratch).sum(axis=1, keepdims=True))
        yield z, s, g, c_prev, ct, h, logits, lse


def _nlls(steps, Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Per-sequence total NLL (B,) from each step's ``(logits, lse)``.

    Only the target entries are normalised: -(logits[b, y] - lse[b]) is
    the bit pattern that normalising the whole table and reading it gives.
    """
    B, T = Y.shape
    rows = np.arange(B)
    terms = np.zeros((B, T))
    for t, (logits, lse) in enumerate(steps):
        terms[:, t] = -(logits[rows, Y[:, t]] - lse[:, 0]) * M[:, t]
    return terms.sum(axis=1)


def forward(params: LMParameters, seq: TokenSequence) -> np.ndarray:
    """Per-position log-probability table, shape (len(seq)-1, vocab).

    Row t is the log distribution over the token at position t+1 given
    tokens 0..t. Each row's exponentials sum to 1.
    """
    X, _, _ = _pack_batch(params, [seq])
    return np.stack([logits[0] - lse[0] for *_, logits, lse in _steps(params, X)])


def sequence_nlls(params: LMParameters, seqs: list[TokenSequence]) -> np.ndarray:
    """Total NLL (natural log) of each sequence, scored forward-only in batches of _NLL_CHUNK."""
    out = np.empty(len(seqs))
    for start in range(0, len(seqs), _NLL_CHUNK):
        X, Y, M = _pack_batch(params, seqs[start : start + _NLL_CHUNK])
        out[start : start + len(X)] = _nlls((step[-2:] for step in _steps(params, X)), Y, M)
    return out


def conditional_probabilities(
    params: LMParameters, contexts: list[list[int]], target_id: int
) -> np.ndarray:
    """Probability of ``target_id`` after each context, scored in one batch.

    An empty context carries no information, so it scores the target at the
    zero-knowledge value 1/vocab. Identical contexts share one batch row, so
    they score exactly the same.
    """
    keys = [tuple(ctx) for ctx in contexts]
    unique = list(dict.fromkeys(k for k in keys if k))
    probs = np.empty(len(unique))
    if unique:
        X, _, _ = _pack_batch(params, [TokenSequence(k + (target_id,), "") for k in unique])
        last = np.array([len(k) - 1 for k in unique])  # each row's final input position
        for t, (*_, logits, lse) in enumerate(_steps(params, X)):
            done = last == t
            probs[done] = np.exp(logits[done, target_id] - lse[done, 0])
    row = {k: r for r, k in enumerate(unique)}
    return np.array([probs[row[k]] if k else 1.0 / params.vocab_size for k in keys])


def sequence_perplexities(params: LMParameters, seqs: list[TokenSequence]) -> np.ndarray:
    """Per-sequence perplexities, batched."""
    nlls = sequence_nlls(params, seqs)
    n_pred = np.array([len(s) - 1 for s in seqs], dtype=np.float64)
    return np.exp(nlls / n_pred)


def corpus_perplexity(params: LMParameters, seqs: list[TokenSequence]) -> float:
    """Corpus-level perplexity: exp(total NLL / total predicted tokens)."""
    nlls = sequence_nlls(params, seqs)
    total_pred = sum(len(s) - 1 for s in seqs)
    return float(np.exp(float(nlls.sum()) / total_pred))


@dataclass(eq=False)
class GradientFactors:
    """What BPTT keeps of a batch: every per-example gradient, in factored form.

    Each weight block of example b's gradient is a sum over steps of outer
    products of two per-step factors, each shaped (T, B, .):

        out_W[b] = sum_t h_t[b] (x) delta_t[b]    h: hidden states (T, B, H)
        lstm_W[b] = sum_t da_t[b] (x) z_t[b]      z: cell inputs (T, B, E+H)
        emb[b][v] = sum_{t: x_t[b] = v} e_t[b]    e: embedding errors (T, B, E)
        lstm_b[b] = sum_t da_t[b]                 da: gate errors (T, B, 4H)
        out_b[b] = sum_t delta_t[b]               delta: output errors (T, B, V)

    Padded steps have zero errors, so they add nothing to any block.
    """

    nlls: np.ndarray  # (B,) per-example NLL
    X: np.ndarray  # (B, T) packed input ids
    z: np.ndarray
    h: np.ndarray
    delta: np.ndarray
    da: np.ndarray
    e: np.ndarray
    dims: tuple[int, int, int]  # vocab, d_emb, d_hid

    def norms(self) -> np.ndarray:
        """Per-example L2 gradient norms (B,) from the Gram identities."""

        def gram(a):  # (T, B, k) -> (B, T, T)
            return np.matmul(a.transpose(1, 0, 2), a.transpose(1, 2, 0))

        same_token = self.X[:, :, None] == self.X[:, None, :]
        sq = (gram(self.h) * gram(self.delta)).sum(axis=(1, 2))
        sq += (gram(self.z) * gram(self.da)).sum(axis=(1, 2))
        sq += (gram(self.e) * same_token).sum(axis=(1, 2))
        sq += np.square(self.da.sum(axis=0)).sum(axis=1)
        sq += np.square(self.delta.sum(axis=0)).sum(axis=1)
        return np.sqrt(sq)

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """sum_b w[b] * g_b as one fresh flat (P,) vector: one gemm per weight block.

        The weights scale the narrow factor (h, z, e) of each product, never
        the (T, B, V) output errors.
        """
        V, E, H = self.dims
        T, B = self.delta.shape[:2]
        out = np.empty(_num_params(V, E, H))
        g_emb, g_W, g_b, g_U, g_ob = _views(out, V, E, H)
        g_emb.fill(0.0)  # the gemms below overwrite every other block
        w3 = w[None, :, None]
        np.matmul((self.h * w3).reshape(T * B, H).T, self.delta.reshape(T * B, V), out=g_U)
        np.matmul(self.da.reshape(T * B, 4 * H).T, (self.z * w3).reshape(T * B, E + H), out=g_W)
        np.matmul(w, self.da.sum(axis=0), out=g_b)
        np.matmul(w, self.delta.sum(axis=0), out=g_ob)
        np.add.at(g_emb, self.X.T.ravel(), (self.e * w3).reshape(T * B, E))
        return out


class Workspace:
    """Flat float64 buffers for ``backprop`` batches of up to ``batch_size`` x ``steps``.

    ``buffers`` holds one buffer per factor, allocated when the workspace is
    built; ``backprop`` computes a batch's factors in C-contiguous prefix views
    of them, so steps of every shape within the bounds share the same memory,
    and the pages no step touches are never faulted in.
    """

    def __init__(self, params: LMParameters, batch_size: int, steps: int):
        self.buffers = {name: np.empty(math.prod(shape))
                        for name, shape in _factor_shapes(params, batch_size, steps).items()}


def _factor_shapes(params: LMParameters, B: int, T: int) -> dict[str, tuple[int, ...]]:
    """``backprop``'s factor and scratch shapes for a (B, T) batch, by buffer name."""
    V, E, H = params.vocab_size, params.d_emb, params.d_hid
    return {"z": (T, B, E + H), "h": (T, B, H), "delta": (T, B, V), "da": (T, B, 4 * H),
            "e": (T, B, E), "exp": (B, V)}


def backprop(params: LMParameters, seqs: list[TokenSequence],
             workspace: Workspace | None = None) -> GradientFactors:
    """Forward pass and BPTT over a batch; returns the per-step gradient factors.

    This is the single gradient implementation in the package: training
    steps contract its factors with per-example weights, and
    :func:`batch_gradients` reads the same factors, so the finite-difference
    tests exercise the training code. The factors are views of ``workspace``
    (one sized for the batch if None), valid until its next ``backprop``; a
    batch that outgrows the workspace raises ``LMError``.
    """
    X, Y, M = _pack_batch(params, seqs)
    B, T = X.shape
    V, E, H = params.vocab_size, params.d_emb, params.d_hid
    rows = np.arange(B)
    ws = Workspace(params, B, T) if workspace is None else workspace
    shapes = _factor_shapes(params, B, T)
    if any(math.prod(shape) > ws.buffers[name].size for name, shape in shapes.items()):
        raise LMError(f"a batch of {B} sequences x {T} steps outgrows the workspace")
    zs, hs, delta, da_all, demb_all, exp_scratch = (
        ws.buffers[name][: math.prod(shape)].reshape(shape) for name, shape in shapes.items()
    )

    # Each step's shifted logits are computed in delta[t], where the backward
    # sweep normalises them and overwrites them with that step's output error
    # once the NLLs are read, so the batch holds one T*B*V array. The
    # recurrence forces a sequential sweep over time; the other per-step
    # errors are collected into (T, B, .) arrays and contracted afterwards.
    cache, lses = [], []
    for _, s, g, c_prev, ct, _, _, lse in _steps(params, X, (zs, hs, delta), exp_scratch):
        cache.append((s, g, c_prev, ct))
        lses.append(lse)
    nlls = _nlls(zip(delta, lses), Y, M)
    padded = (M == 0.0).any(axis=0)  # steps where some row is past its end

    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        s, g, c_prev, ct = cache[t]
        i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]

        dlogits = delta[t]
        dlogits -= lses[t]
        np.exp(dlogits, out=dlogits)
        dlogits[rows, Y[:, t]] -= 1.0
        if padded[t]:
            dlogits *= M[:, t][:, None]

        dh = dlogits @ params.out_W.T
        dh += dh_next
        dc = dh * o
        dc *= 1.0 - ct * ct
        dc += dc_next
        dc_next = dc * f

        # Gate errors: d * s * (1 - s) over all four blocks at once, then the
        # cell block is rewritten with its tanh derivative.
        da = da_all[t]
        np.multiply(dc, g, out=da[:, :H])
        np.multiply(dc, c_prev, out=da[:, H : 2 * H])
        np.multiply(dc, i, out=da[:, 2 * H : 3 * H])
        np.multiply(dh, ct, out=da[:, 3 * H :])
        dg = da[:, 2 * H : 3 * H].copy()
        da *= s
        da *= 1.0 - s
        np.multiply(dg, 1.0 - g * g, out=da[:, 2 * H : 3 * H])

        dz = da @ params.lstm_W
        demb_all[t] = dz[:, :E]
        dh_next = dz[:, E:]

    return GradientFactors(nlls, X, zs, hs, delta, da_all, demb_all, (V, E, H))


def batch_gradients(params: LMParameters, seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Per-example NLLs (B,) and materialised flat per-example gradients (B, P).

    Row b is the training contraction with weight 1 on example b and 0 on the
    rest; training steps never build this stack.
    """
    factors = backprop(params, seqs)
    stacked = np.empty((len(seqs), params.num_params))
    for b, one_hot in enumerate(np.eye(len(seqs))):
        stacked[b] = factors.weighted_sum(one_hot)
    return factors.nlls, stacked


def apply_update(params: LMParameters, update: np.ndarray, eta: float) -> LMParameters:
    """Gradient-descent step: returns new parameters theta - eta * update.

    The new theta is computed in ``update``'s own buffer, which the returned
    parameters then own, so a step allocates no P-length vector beyond its
    update; ``params`` is unchanged. An ``update`` that may share memory with
    ``params.theta`` raises ``LMError``.
    """
    if update.shape != params.theta.shape or update.dtype != np.float64:
        raise LMError(
            f"update must be float64 of shape {params.theta.shape}, "
            f"got {update.dtype} of shape {update.shape}"
        )
    if np.may_share_memory(update, params.theta):
        raise LMError("update shares memory with the parameters it updates")
    np.multiply(update, eta, out=update)
    np.subtract(params.theta, update, out=update)
    return LMParameters(update, params.vocab_size, params.d_emb, params.d_hid)
