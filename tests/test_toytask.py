"""Synthetic task: determinism, balance, loss semantics, fine-tuning basics."""

import numpy as np
import pytest

from nasadapt.derive import default_source_architecture, instantiate
from nasadapt.errors import ParameterError
from nasadapt.numerics import Tensor
from nasadapt.searchspace import load_bundled_config
from nasadapt.seeding import seed_for
from nasadapt.toytask import (
    BACKGROUND_AMPLITUDE,
    DatasetSpec,
    ProxyHead,
    SCALE_FRACTIONS,
    SHAPE_NAMES,
    _shape_mask,
    batch_stream,
    evaluate_accuracy,
    finetune,
    generate,
    load_dataset,
    model_loss,
    save_dataset,
)

from helpers import check_gradients, rand_tensor


def test_stage_seeds_are_the_seed_xor_the_crc32_of_their_tags():
    # pinned: changing the fan-out changes every artifact of every seed
    tags = ("data", "source", "supernet", "noise", "head", "split", "batches", "finetune")
    assert [seed_for(7, tag) for tag in tags] == [
        770962276, 1602912116, 1874913175, 2108266030, 670299803, 838179350, 1886283092,
        2120591357]


def test_global_seeds_lie_in_31_bits_so_none_alias():
    # masked to 31 bits, -1 would draw the streams of 2**31 - 1, and 2**31 those of 0
    tags = ("data", "supernet", "noise", "finetune")
    assert all(seed_for(2 ** 31 - 1, tag) != seed_for(0, tag) for tag in tags)
    for seed in (-1, 2 ** 31, -2 ** 31):
        with pytest.raises(ParameterError, match=rf"seed must be in \[0, 2\*\*31\), got {seed}$"):
            seed_for(seed, "data")


class TestGenerate:
    def test_bit_identical_for_same_spec(self):
        spec = DatasetSpec(n_samples=24, seed=3)
        a, b = generate(spec), generate(spec)
        assert a.images.tobytes() == b.images.tobytes()
        assert (a.labels == b.labels).all()

    def test_different_seed_differs(self):
        a = generate(DatasetSpec(n_samples=8, seed=0))
        b = generate(DatasetSpec(n_samples=8, seed=1))
        assert a.images.tobytes() != b.images.tobytes()

    def test_class_balance(self):
        ds = generate(DatasetSpec(n_samples=100, n_classes=4, seed=0))
        counts = np.bincount(ds.labels, minlength=4)
        assert (counts == 25).all()
        ds = generate(DatasetSpec(n_samples=10, n_classes=4, seed=0))
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_pixel_range(self):
        ds = generate(DatasetSpec(n_samples=12, seed=5))
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_label_recoverable_by_construction(self):
        """Replay the documented draw order and check the drawn shape is the label's."""
        spec = DatasetSpec(n_samples=12, seed=11)
        ds = generate(spec)
        h, w = spec.resolution
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        labels = np.arange(spec.n_samples, dtype=np.int64) % spec.n_classes
        rng.shuffle(labels)
        np.testing.assert_array_equal(labels, ds.labels)
        side = min(h, w)
        for i in range(spec.n_samples):
            background = rng.random((3, h, w)) * BACKGROUND_AMPLITUDE
            scale = SCALE_FRACTIONS[int(rng.integers(3))]
            r = max(side * scale, 2.0)
            margin = r + 1.0
            cy = rng.uniform(margin, h - 1 - margin)
            cx = rng.uniform(margin, w - 1 - margin)
            color = rng.uniform(0.55, 1.0, size=3)
            mask = _shape_mask(SHAPE_NAMES[labels[i]], h, w, cy, cx, r)
            want = np.where(mask[None], color[:, None, None], background)
            np.testing.assert_array_equal(ds.images[i], want.astype(np.float32))

    def test_six_classes_bit_identical(self):
        # classes 4 and 5 draw the ring and the diamond
        spec = DatasetSpec(n_samples=12, n_classes=6, seed=3)
        a, b = generate(spec), generate(spec)
        assert set(a.labels.tolist()) == set(range(6))
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_ring_leaves_out_its_centre(self):
        # radius 8 around (16, 16), hollow inside radius 4
        mask = _shape_mask("ring", 32, 32, 16.0, 16.0, 8.0)
        assert not mask[16, 16] and not mask[16, 19]
        assert mask[16, 22] and mask[10, 16] and mask[16, 24]
        assert not mask[16, 25]
        assert (mask <= _shape_mask("disk", 32, 32, 16.0, 16.0, 8.0)).all()

    def test_diamond_leaves_out_its_bounding_squares_corners(self):
        mask = _shape_mask("diamond", 32, 32, 16.0, 16.0, 8.0)
        assert mask[16, 16]
        assert mask[8, 16] and mask[24, 16] and mask[16, 8] and mask[16, 24]
        for y, x in ((8, 8), (8, 24), (24, 8), (24, 24), (11, 11)):
            assert not mask[y, x]
        assert (mask <= _shape_mask("square", 32, 32, 16.0, 16.0, 8.0)).all()
        # |dy| + |dx| <= 8 on the integer grid
        assert mask.sum() == 2 * 8 * 8 + 2 * 8 + 1

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            generate(DatasetSpec(n_samples=2, n_classes=4))
        with pytest.raises(ParameterError):
            generate(DatasetSpec(n_samples=10, n_classes=1))
        with pytest.raises(ParameterError):
            generate(DatasetSpec(n_samples=10, resolution=(8, 8)))

    def test_save_load_round_trip(self, tmp_path):
        ds = generate(DatasetSpec(n_samples=16, seed=2))
        path = tmp_path / "toy.nat"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.spec == ds.spec
        assert loaded.images.tobytes() == ds.images.tobytes()
        assert (loaded.labels == ds.labels).all()


class TestModelLoss:
    def test_uniform_logits_hit_log_c(self):
        head = ProxyHead(6, 4, seed=0)
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0
        features = Tensor(np.random.default_rng(0).random((5, 6, 2, 2), dtype=np.float32))
        loss = model_loss(features, head, np.array([0, 1, 2, 3, 0]))
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-6)

    def test_confident_correct_near_zero(self):
        head = ProxyHead(4, 4, seed=0)
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0
        features = Tensor(np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1))
        head.weight.data[...] = 50.0 * np.eye(4, dtype=np.float32)
        loss = model_loss(features, head, np.arange(4))
        assert loss.item() == pytest.approx(0.0, abs=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(1)
        head = ProxyHead(3, 4, seed=2)
        features = rand_tensor(rng, (4, 3, 2, 2))
        labels = np.array([0, 1, 2, 3])
        check_gradients(lambda: model_loss(features, head, labels),
                        [features, head.weight, head.bias], what="model_loss")

    def test_untrained_net_sits_at_log_c(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        net = instantiate(arch, seed=4)
        head = ProxyHead(net.final_channels, 4, seed=5)
        ds = generate(DatasetSpec(n_samples=32, seed=6))
        feats = net.forward(Tensor(ds.images), training=False)
        loss = model_loss(feats[-1], head, ds.labels)
        assert abs(loss.item() - np.log(4.0)) < 0.1


class TestBatchStream:
    def test_each_pass_is_the_next_permutation(self):
        # fine-tuning's rule: one generator, one permutation per pass
        n, size = 10, 4
        stream = batch_stream(np.arange(n), size, np.random.Generator(np.random.PCG64(3)))
        reference = np.random.Generator(np.random.PCG64(3))
        for _ in range(3):
            order = reference.permutation(n)
            for start in range(0, n, size):
                np.testing.assert_array_equal(next(stream), order[start:start + size])

    def test_shared_generator_draws_in_the_order_passes_run_out(self):
        # search's rule: two halves on one generator, asked for batches in turn; a
        # pass's permutation is drawn only when a batch is asked for after the
        # previous pass is used up
        rng = np.random.Generator(np.random.PCG64(5))
        half_a, half_b = np.arange(0, 4), np.arange(10, 16)
        batches_a, batches_b = batch_stream(half_a, 4, rng), batch_stream(half_b, 4, rng)
        got = [next(batches) for _ in range(3) for batches in (batches_a, batches_b)]
        reference = np.random.Generator(np.random.PCG64(5))
        a1, b1 = half_a[reference.permutation(4)], half_b[reference.permutation(6)]
        a2, a3 = half_a[reference.permutation(4)], half_a[reference.permutation(4)]
        b2 = half_b[reference.permutation(6)]
        for batch, want in zip(got, [a1, b1[:4], a2, b1[4:], a3, b2[:4]], strict=True):
            np.testing.assert_array_equal(batch, want)


class TestFinetune:
    def test_zero_epochs_keeps_params(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        ds = generate(DatasetSpec(n_samples=16, seed=7))
        fresh = instantiate(arch, seed=9).to_arrays()
        bundle, curve = finetune(arch, None, ds, epochs=0, seed=9)
        assert curve == []
        for name, arr in fresh.items():
            assert bundle.tensors[name].tobytes() == arr.tobytes(), name

    def test_negative_epochs_rejected(self):
        arch = default_source_architecture(load_bundled_config("desk3"))
        ds = generate(DatasetSpec(n_samples=16, seed=7))
        with pytest.raises(ParameterError, match="epochs must be >= 0"):
            finetune(arch, None, ds, epochs=-2, seed=9)

    def test_fixed_seed_reproducible_curve(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        ds = generate(DatasetSpec(n_samples=32, seed=8))
        _, curve_a = finetune(arch, None, ds, epochs=2, seed=5)
        _, curve_b = finetune(arch, None, ds, epochs=2, seed=5)
        assert curve_a == curve_b

    def test_loss_decreases(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        ds = generate(DatasetSpec(n_samples=64, seed=9))
        _, curve = finetune(arch, None, ds, epochs=4, seed=0)
        assert curve[-1] < curve[0]

    def test_resumes_from_bundle(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        ds = generate(DatasetSpec(n_samples=32, seed=10))
        bundle, _ = finetune(arch, None, ds, epochs=1, seed=0)
        resumed, curve = finetune(arch, bundle, ds, epochs=0, seed=1)
        for name in bundle.tensors:
            assert resumed.tensors[name].tobytes() == bundle.tensors[name].tobytes()

    def test_accuracy_evaluation(self):
        cfg = load_bundled_config("desk3")
        arch = default_source_architecture(cfg)
        ds = generate(DatasetSpec(n_samples=40, seed=11))
        bundle, _ = finetune(arch, None, ds, epochs=1, seed=0)
        acc = evaluate_accuracy(arch, bundle, ds)
        assert 0.0 <= acc <= 1.0
