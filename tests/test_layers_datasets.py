"""Layers and synthetic datasets."""

import numpy as np
import pytest
from kernel_oracle import lstm_cell

from repro.graph import Graph, Session, ops
from repro.nn import layers
from repro.nn.datasets import (
    SyntheticImageDataset,
    SyntheticTextDataset,
    TranslationDataset,
    zipf_token_sampler,
)


class TestDenseLayers:
    def test_dense_shapes_and_vars(self):
        g = Graph()
        with g.as_default():
            x = ops.placeholder((4, 8), name="x")
            out = layers.dense(x, 16, name="fc", activation="relu")
        assert out.shape == (4, 16)
        assert "fc/kernel" in g.variables
        assert "fc/bias" in g.variables

    def test_dense_no_bias(self):
        g = Graph()
        with g.as_default():
            x = ops.placeholder((4, 8), name="x")
            layers.dense(x, 16, name="fc", use_bias=False)
        assert "fc/bias" not in g.variables

    def test_unknown_activation_rejected(self):
        g = Graph()
        with g.as_default():
            x = ops.placeholder((4, 8), name="x")
            with pytest.raises(ValueError):
                layers.dense(x, 16, name="fc", activation="gelu")

    def test_residual_block_preserves_shape(self):
        g = Graph()
        with g.as_default():
            x = ops.placeholder((4, 8), name="x")
            out = layers.residual_block(x, 12, name="blk")
        assert out.shape == (4, 8)

    def test_residual_block_is_identity_plus_branch(self):
        """With zeroed branch output weights, the block reduces to
        relu(x)."""
        g = Graph()
        rng = np.random.default_rng(0)
        with g.as_default():
            x = ops.placeholder((2, 4), name="x")
            out = layers.residual_block(x, 4, name="blk")
        sess = Session(g)
        sess.write_variable("blk/conv2/conv_kernel",
                            np.zeros((4, 4), np.float32))
        xv = rng.standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_allclose(sess.run(out, {"x": xv}),
                                   np.maximum(xv, 0), rtol=1e-6)


class TestEmbeddingLayer:
    def test_unpartitioned(self):
        g = Graph()
        with g.as_default():
            ids = ops.placeholder((3,), dtype="int64", name="ids")
            out, var = layers.embedding(ids, 20, 5, name="emb")
        assert out.shape == (3, 5)
        assert var.shape == (20, 5)

    def test_partitioned(self):
        g = Graph()
        with g.as_default():
            ids = ops.placeholder((3,), dtype="int64", name="ids")
            out, pv = layers.embedding(ids, 20, 5, name="emb",
                                       num_partitions=4)
        assert len(pv.partitions) == 4

    def test_partitions_capped_at_vocab(self):
        g = Graph()
        with g.as_default():
            ids = ops.placeholder((3,), dtype="int64", name="ids")
            _, pv = layers.embedding(ids, 4, 5, name="emb",
                                     num_partitions=100)
        assert len(pv.partitions) == 4


class TestLSTMLayer:
    def test_matches_fused_kernel(self):
        """The LSTM layer's state sequence must equal the fused reference
        cell (``tests/kernel_oracle.py``) step by step."""
        g = Graph()
        batch, in_dim, hidden, steps = 2, 3, 4, 3
        rng = np.random.default_rng(1)
        x_value = rng.standard_normal((batch, steps, in_dim)).astype(
            np.float32)
        with g.as_default():
            x = ops.placeholder((batch, steps, in_dim), name="x")
            hs = layers.lstm(x, hidden, name="lstm")
        sess = Session(g)
        got = sess.run(hs, {"x": x_value})

        w = sess.read_variable("lstm/kernel")
        b = sess.read_variable("lstm/bias")
        h = np.zeros((batch, hidden), np.float32)
        c = np.zeros((batch, hidden), np.float32)
        for t in range(steps):
            h, c = lstm_cell(x_value[:, t], h, c, w, b)
            np.testing.assert_allclose(got[:, t * hidden:(t + 1) * hidden],
                                       h, rtol=1e-4, atol=1e-6)

    def test_empty_steps_rejected(self):
        g = Graph()
        with g.as_default():
            x = ops.placeholder((2, 0, 3), name="x")
            with pytest.raises(ValueError):
                layers.lstm(x, 4, name="lstm")


class TestImageDataset:
    def test_deterministic(self):
        a = SyntheticImageDataset(size=32, seed=5)
        b = SyntheticImageDataset(size=32, seed=5)
        np.testing.assert_array_equal(a.example(3)[0], b.example(3)[0])

    def test_shapes(self):
        ds = SyntheticImageDataset(size=16, num_features=10, num_classes=4)
        image, label = ds.example(0)
        assert image.shape == (10,)
        assert 0 <= label < 4

    def test_batch_stacks(self):
        ds = SyntheticImageDataset(size=16, num_features=10)
        images, labels = ds.batch(4, 0)
        assert images.shape == (4, 10)
        assert labels.shape == (4,)

    def test_batch_cycles_past_end(self):
        ds = SyntheticImageDataset(size=4)
        images, _ = ds.batch(4, 1)  # second batch wraps around
        np.testing.assert_array_equal(images, ds.batch(4, 0)[0])

    def test_signal_is_learnable(self):
        """Same-class examples are closer than cross-class on average."""
        ds = SyntheticImageDataset(size=256, num_classes=2, seed=0)
        images = np.stack([ds.example(i)[0] for i in range(256)])
        labels = np.array([ds.example(i)[1] for i in range(256)])
        mean0 = images[labels == 0].mean(axis=0)
        mean1 = images[labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) > 1.0


class TestSharding:
    def test_disjoint_and_covering(self):
        ds = SyntheticImageDataset(size=10)
        shards = [ds.shard(3, i) for i in range(3)]
        assert sum(len(s) for s in shards) == 10
        seen = set()
        for shard in shards:
            for i in range(len(shard)):
                seen.add(tuple(shard.example(i)[0]))
        assert len(seen) == 10

    def test_round_robin_assignment(self):
        ds = SyntheticImageDataset(size=10)
        shard1 = ds.shard(2, 1)
        np.testing.assert_array_equal(shard1.example(0)[0], ds.example(1)[0])
        np.testing.assert_array_equal(shard1.example(2)[0], ds.example(5)[0])

    def test_bad_index_rejected(self):
        ds = SyntheticImageDataset(size=10)
        with pytest.raises(ValueError):
            ds.shard(3, 3)

    def test_out_of_range_example_rejected(self):
        shard = SyntheticImageDataset(size=10).shard(3, 0)
        with pytest.raises(IndexError):
            shard.example(len(shard))


class TestTextDataset:
    def test_next_token_targets(self):
        ds = SyntheticTextDataset(size=8, vocab_size=50, seq_len=5, seed=0)
        tokens, targets = ds.example(0)
        assert tokens.shape == (5,)
        assert targets.shape == (5,)

    def test_tokens_in_vocab(self):
        ds = SyntheticTextDataset(size=64, vocab_size=30, seq_len=4)
        for i in range(len(ds)):
            tokens, targets = ds.example(i)
            assert tokens.max() < 30 and targets.max() < 30
            assert tokens.min() >= 0

    def test_zipf_skew(self):
        """Head tokens dominate: token 0 much more frequent than median."""
        sample = zipf_token_sampler(1000, 1.2, np.random.default_rng(0))
        draws = sample(20000)
        counts = np.bincount(draws, minlength=1000)
        assert counts[0] > 20 * np.median(counts[counts > 0])

    def test_measured_alpha_decreases_with_vocab(self):
        small = SyntheticTextDataset(size=256, vocab_size=50, seq_len=8)
        large = SyntheticTextDataset(size=256, vocab_size=5000, seq_len=8)
        assert small.measured_alpha(16) > large.measured_alpha(16)

    def test_measured_alpha_increases_with_batch(self):
        ds = SyntheticTextDataset(size=512, vocab_size=500, seq_len=8)
        assert ds.measured_alpha(64) > ds.measured_alpha(4)

    def test_planted_bigram_structure(self):
        """The most frequent token has a dominant successor (the planted
        permutation makes next-token prediction learnable)."""
        ds = SyntheticTextDataset(size=512, vocab_size=40, seq_len=6, seed=1)
        successor_votes = {}
        for i in range(len(ds)):
            tokens, _ = ds.example(i)
            for a, b in zip(tokens[:-1], tokens[1:]):
                successor_votes.setdefault(int(a), []).append(int(b))
        head = max(successor_votes, key=lambda a: len(successor_votes[a]))
        succ = successor_votes[head]
        _, counts = np.unique(succ, return_counts=True)
        assert counts.max() / len(succ) > 0.5


class TestTranslationDataset:
    def test_shapes(self):
        ds = TranslationDataset(size=8, src_len=5, tgt_len=6)
        src, tgt = ds.example(0)
        assert src.shape == (5,)
        assert tgt.shape == (6,)

    def test_vocab_bounds(self):
        ds = TranslationDataset(size=32, src_vocab=40, tgt_vocab=30)
        for i in range(len(ds)):
            src, tgt = ds.example(i)
            assert src.max() < 40 and tgt.max() < 30

    def test_word_mapping_consistent(self):
        """The same source token always maps to the same target token."""
        ds = TranslationDataset(size=128, src_vocab=30, tgt_vocab=30, seed=2)
        mapping = {}
        for i in range(len(ds)):
            src, tgt = ds.example(i)
            for s, t in zip(src, tgt):
                if s in mapping:
                    assert mapping[s] == t
                else:
                    mapping[int(s)] = int(t)


class TestVectorizedTake:
    """The vectorized ``take`` fast paths must be bit-identical to the
    per-example ``example`` loop the base class falls back to (batches
    feed training, so any drift changes losses)."""

    @pytest.mark.parametrize("make", [
        lambda: SyntheticImageDataset(size=32, num_features=6, seed=3),
        lambda: SyntheticTextDataset(size=32, vocab_size=25, seq_len=4,
                                     seed=3),
        lambda: TranslationDataset(size=32, src_vocab=30, tgt_vocab=20,
                                   src_len=3, tgt_len=4, seed=3),
    ])
    def test_take_matches_example_loop(self, make):
        ds = make()
        ids = np.array([5, 0, 17, 5, 31], dtype=np.int64)
        fast = ds.take(ids)
        slow = [ds.example(int(i)) for i in ids]
        for col, arrays in enumerate(zip(*slow)):
            expected = np.stack(arrays)
            np.testing.assert_array_equal(fast[col], expected)
            assert fast[col].dtype == expected.dtype

    def test_take_returns_copies(self):
        ds = SyntheticImageDataset(size=8, num_features=4, seed=0)
        images, labels = ds.take(np.array([2]))
        images[0, 0] += 100.0
        labels[0] += 1
        again_img, again_lbl = ds.take(np.array([2]))
        assert again_img[0, 0] != images[0, 0]
        assert again_lbl[0] != labels[0]

    def test_batch_uses_take_identically(self):
        ds = TranslationDataset(size=16, src_len=3, tgt_len=4, seed=1)
        src, tgt = ds.batch(6, 2)
        ids = [(2 * 6 + i) % len(ds) for i in range(6)]
        for row, idx in enumerate(ids):
            s, t = ds.example(idx)
            np.testing.assert_array_equal(src[row], s)
            np.testing.assert_array_equal(tgt[row], t)
