import struct

import numpy as np
import pytest

from evprep import (
    IntensityConfig,
    Method,
    PatchGrid,
    SegmentConfig,
    SensorGeometry,
    make_events,
    normalize_patches,
    sample_tube_mask,
    segment_stream,
    simulate_events,
)
from evprep.errors import FormatError, GeometryError
from evprep.toymodel import (
    ToyModelConfig,
    backward_sequence,
    deserialize_params,
    flatten_params,
    forward_sequence,
    init_model,
    serialize_params,
    train_toy,
    unflatten_params,
)
from conftest import freeze_scene


def small_config(recurrent=True, seed=0):
    return ToyModelConfig(
        patch_size=4, embed_dim=3, in_channels=5, recurrent=recurrent, seed=seed
    )


def random_inputs(rng, config, grid, stages):
    return [
        rng.normal(size=(config.in_channels, grid.height, grid.width)) for _ in range(stages)
    ]


def test_zero_input_zero_memory_zero_bias_gives_zero():
    state = init_model(small_config())
    state.params["rec_bias"][:] = 0.0
    pred = forward_sequence(state, [np.zeros((5, 8, 8))])[0]
    assert not pred.any()


def test_hand_computed_single_patch():
    cfg = ToyModelConfig(patch_size=2, embed_dim=1, in_channels=1, recurrent=True, seed=0)
    state = init_model(cfg)
    state.params["embed"][:] = np.array([[0.1], [0.2], [-0.3], [0.4]])
    state.params["rec_c"][:] = 0.5
    state.params["rec_f"][:] = 2.0
    state.params["rec_bias"][:] = 0.1
    state.params["decode"][:] = np.array([[1.0, -1.0, 0.5, 2.0]])
    x = np.array([[[1.0, 2.0], [3.0, -1.0]]])
    f = 0.1 * 1 + 0.2 * 2 - 0.3 * 3 + 0.4 * -1  # -0.8
    h = np.tanh(2.0 * f + 0.1)
    expected = h * np.array([[1.0, -1.0], [0.5, 2.0]])
    pred, pred2 = forward_sequence(state, [x, x])
    np.testing.assert_allclose(pred, expected, rtol=1e-12)
    # second stage now carries memory through rec_c
    h2 = np.tanh(0.5 * h + 2.0 * f + 0.1)
    np.testing.assert_allclose(pred2, h2 * np.array([[1.0, -1.0], [0.5, 2.0]]), rtol=1e-12)


def test_feedforward_ignores_history(rng):
    cfg = small_config(recurrent=False)
    grid = PatchGrid(cfg.patch_size, 8, 8)
    state = init_model(cfg)
    current = rng.normal(size=(5, 8, 8))
    history_a = rng.normal(size=(5, 8, 8))
    history_b = rng.normal(size=(5, 8, 8))
    out_a = forward_sequence(state, [history_a, current])[-1]
    out_b = forward_sequence(state, [history_b, current])[-1]
    np.testing.assert_array_equal(out_a, out_b)


def test_recurrent_uses_history(rng):
    cfg = small_config(recurrent=True)
    state = init_model(cfg)
    current = rng.normal(size=(5, 8, 8))
    out_a = forward_sequence(state, [rng.normal(size=(5, 8, 8)), current])[-1]
    out_b = forward_sequence(state, [rng.normal(size=(5, 8, 8)), current])[-1]
    assert not np.array_equal(out_a, out_b)


def test_memory_reset_equivalence(rng):
    cfg = small_config()
    state = init_model(cfg)
    seq = [rng.normal(size=(5, 8, 8)) for _ in range(3)]
    first = forward_sequence(state, seq)
    again = forward_sequence(state, seq)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_backward_loss_matches_forward_recomputation(rng):
    from conftest import sequence_loss

    cfg = small_config()
    grid = PatchGrid(cfg.patch_size, 8, 8)
    mask = sample_tube_mask(grid, 0.5, seed=4)
    inputs = random_inputs(rng, cfg, grid, 3)
    targets = [rng.normal(size=(8, 8)) for _ in range(3)]
    state = init_model(cfg)
    normalized = [normalize_patches(t, grid) for t in targets]
    loss, _ = backward_sequence(state, inputs, normalized, mask)
    preds = forward_sequence(state, inputs)
    assert loss == sequence_loss(preds, targets, mask, grid).loss


def test_zero_learning_signal():
    cfg = small_config()
    grid = PatchGrid(cfg.patch_size, 8, 8)
    mask = sample_tube_mask(grid, 1.0, seed=0)
    state = init_model(cfg)
    inputs = [np.zeros((5, 8, 8))]
    # zero bias + zero input makes prediction and normalized target both zero
    state.params["rec_bias"][:] = 0.0
    target = forward_sequence(state, inputs)[0]
    loss, grads = backward_sequence(state, inputs, [target], mask)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert all(np.abs(g).max() < 1e-12 for g in grads.values())


def change_patch_count():
    state = init_model(small_config())
    forward_sequence(state, [np.zeros((5, 8, 8)), np.zeros((5, 8, 12))])


def backward(inputs, targets, ratio=1.0, grid=PatchGrid(4, 8, 8)):
    mask = sample_tube_mask(grid, ratio, seed=0)
    backward_sequence(init_model(small_config()), inputs, targets, mask)


ZERO_STAGE = np.zeros((5, 8, 8))
SHRINKING_FRAME = [ZERO_STAGE, np.ones((5, 7, 6))]


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: ToyModelConfig(4, 0, 5), ValueError, "embed_dim must be >= 1",
                     id="embed-dim"),
        pytest.param(lambda: ToyModelConfig(0, 1, 5), ValueError, "patch_size must be >= 1",
                     id="patch-size"),
        # patch 0 at embed 1 holds 3 weights: rec_c, rec_f and rec_bias
        pytest.param(lambda: deserialize_params(b"TOYP" + struct.pack("<HHHB", 0, 1, 5, 1)
                                                + bytes(24)),
                     FormatError,
                     "TOYP payload of 24 bytes under a bad header: patch_size must be >= 1",
                     id="blob-patch-size"),
        pytest.param(lambda: ToyModelConfig(4, 1, 0), ValueError, "in_channels must be >= 1",
                     id="in-channels"),
        pytest.param(lambda: ToyModelConfig(2**16, 1, 1), ValueError,
                     "patch_size must be < 65536 to fit the TOYP header's u16",
                     id="patch-size-beyond-u16"),
        pytest.param(lambda: ToyModelConfig(1, 2**16, 1), ValueError,
                     "embed_dim must be < 65536 to fit the TOYP header's u16",
                     id="embed-dim-beyond-u16"),
        pytest.param(lambda: ToyModelConfig(1, 1, 2**16), ValueError,
                     "in_channels must be < 65536 to fit the TOYP header's u16",
                     id="in-channels-beyond-u16"),
        # channels 0 at patch 1 and embed 1 holds 4 weights: rec_c, rec_f, rec_bias, decode
        pytest.param(lambda: deserialize_params(b"TOYP" + struct.pack("<HHHB", 1, 1, 0, 1)
                                                + bytes(32)),
                     FormatError,
                     "TOYP payload of 32 bytes under a bad header: in_channels must be >= 1",
                     id="blob-in-channels"),
        pytest.param(lambda: forward_sequence(init_model(small_config()), [np.zeros((4, 8, 8))]),
                     GeometryError, "expected 5 channels, got 4", id="channels"),
        pytest.param(change_patch_count, GeometryError,
                     "stage 1 frame is (8, 12), stage 0 frame is (8, 8)", id="patch-count"),
        # the same 2x2 patch grid over two frame sizes
        pytest.param(lambda: forward_sequence(init_model(small_config()), SHRINKING_FRAME),
                     GeometryError, "stage 1 frame is (7, 6), stage 0 frame is (8, 8)",
                     id="frame-size-forward"),
        pytest.param(lambda: backward(SHRINKING_FRAME, [np.zeros((8, 8)), np.zeros((7, 6))]),
                     GeometryError, "stage 1 frame is (7, 6), stage 0 frame is (8, 8)",
                     id="frame-size-backward"),
        pytest.param(lambda: forward_sequence(init_model(small_config()), []), ValueError,
                     "need at least one stage", id="no-stage-forward"),
        pytest.param(lambda: backward([ZERO_STAGE], []), ValueError,
                     "inputs/targets length mismatch", id="lengths"),
        pytest.param(lambda: backward([], []), ValueError, "need at least one stage",
                     id="no-stage"),
        pytest.param(lambda: backward([ZERO_STAGE], [ZERO_STAGE[0]], ratio=0.0), ValueError,
                     "mask is empty", id="empty-mask"),
        pytest.param(lambda: backward([ZERO_STAGE], [np.zeros((8, 7))]), GeometryError,
                     "prediction/target shape mismatch", id="target-shape"),
        # the mask's grid is not the model's patch size over the inputs
        pytest.param(lambda: backward([ZERO_STAGE], [ZERO_STAGE[0]], grid=PatchGrid(2, 8, 8)),
                     GeometryError, "mask of 4x4 patches does not match the 2x2 patch grid",
                     id="mask-grid"),
        pytest.param(
            lambda: train_toy(make_events([], [], [], []), SensorGeometry(32, 16), 0, 0.1,
                              small_config(), SegmentConfig(20_000, 4),
                              IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000), 1),
            ValueError, "steps must be >= 1", id="steps",
        ),
    ],
)
def test_bad_arguments_rejected(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_config_accepts_u16_max():
    assert ToyModelConfig(2**16 - 1, 2**16 - 1, 2**16 - 1).n_out == (2**16 - 1) ** 2


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences(seed, stages):
    rng = np.random.default_rng(seed + 100)
    cfg = small_config(seed=seed)
    grid = PatchGrid(cfg.patch_size, 8, 8)
    mask = sample_tube_mask(grid, 0.5, seed=seed)
    inputs = random_inputs(rng, cfg, grid, stages)
    targets = [rng.normal(size=(8, 8)) for _ in range(stages)]
    state = init_model(cfg)
    _, grads = backward_sequence(state, inputs, targets, mask)

    vec = flatten_params(state.params)
    gvec = flatten_params(grads)

    def loss_at(v):
        probe = init_model(cfg)
        probe.params = unflatten_params(v, state.params)
        l, _ = backward_sequence(probe, inputs, targets, mask)
        return l

    h = 1e-5
    idx = rng.choice(vec.size, size=min(80, vec.size), replace=False)
    for i in idx:
        vp = vec.copy()
        vp[i] += h
        vm = vec.copy()
        vm[i] -= h
        fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
        denom = max(abs(fd), abs(gvec[i]), 1e-8)
        assert abs(fd - gvec[i]) / denom < 1e-4, f"param {i}: {fd} vs {gvec[i]}"


def test_param_blob_roundtrip():
    cfg = small_config()
    state = init_model(cfg)
    blob = serialize_params(state)
    back = deserialize_params(blob)
    assert back.config.patch_size == cfg.patch_size
    assert back.config.recurrent == cfg.recurrent
    for k in state.params:
        np.testing.assert_array_equal(back.params[k], state.params[k])


def test_param_blob_rejects_garbage():
    with pytest.raises(FormatError):
        deserialize_params(b"XXXX" + b"\x00" * 32)


def test_param_blob_checks_payload_length():
    blob = serialize_params(init_model(small_config()))
    for cut in (blob[:-3], blob[:-8], blob[:11], blob + b"\x00" * 8):
        with pytest.raises(FormatError, match="TOYP payload"):
            deserialize_params(cut)


def test_param_blob_header_is_checked_before_allocating():
    # embed 0, and a header whose model would hold about 10**19 values
    for dims in ((4, 0, 5), (65535, 65535, 65535)):
        with pytest.raises(FormatError, match="TOYP payload"):
            deserialize_params(b"TOYP" + struct.pack("<HHHB", *dims, 1))


class CountingSource:
    """A record array read through ``len()`` and ``[lo:hi]``, as an EVT1
    file is, counting the records it hands out."""

    def __init__(self, events):
        self.events, self.read = events, 0

    def __len__(self):
        return len(self.events)

    def __getitem__(self, key):
        records = self.events[key]
        self.read += records.shape[0]
        return records


def test_train_toy_reads_the_stream_in_one_pass():
    spec = freeze_scene()
    events = simulate_events(spec)
    seg = SegmentConfig(20_000, 4)
    # 3 of the scene's 4 segments, so the events of the last one lie past the window
    segments, dropped = segment_stream(events, spec.geometry, seg, 3)
    assert dropped > 0
    config = ToyModelConfig(patch_size=8, embed_dim=4, in_channels=9, seed=0)
    cfg = IntensityConfig(Method.ADAPTIVE_BATCH, bin_duration_us=5000)
    source = CountingSource(events)
    curves = [train_toy(stream, spec.geometry, 3, 0.5, config, seg, cfg, 3)[0]
              for stream in (events, source)]
    # one scan of every record, then one fetch of each segment's records
    assert source.read <= len(events) + sum(s.num_events for s in segments)
    assert curves[0] == curves[1]
