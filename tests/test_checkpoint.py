"""Binary checkpoint format round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.checkpoint import load_checkpoint, save_checkpoint
from fedsplit.errors import FedSplitError, ValidationError

F32 = np.float32


def test_round_trip(tmp_path):
    params = {
        "bottom.mlp.layer0.weight": np.arange(6, dtype=F32).reshape(2, 3),
        "bottom.mlp.layer0.bias": np.array([1.0, 2.0, 3.0], dtype=F32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, "deadbeef", meta={"stage": "fed-train"})
    loaded, schema_hash, meta = load_checkpoint(path)
    assert schema_hash == "deadbeef"
    assert meta == {"stage": "fed-train"}
    np.testing.assert_array_equal(loaded["bottom.mlp.layer0.weight"],
                                  params["bottom.mlp.layer0.weight"])
    # vectors come back as 1 x n
    np.testing.assert_array_equal(loaded["bottom.mlp.layer0.bias"],
                                  params["bottom.mlp.layer0.bias"].reshape(1, -1))


def test_layout_is_little_endian_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.array([[1.0]], dtype=F32)}, "")
    raw = path.read_bytes()
    assert raw[:4] == b"VFCK"
    assert raw.endswith(np.array([1.0], dtype="<f4").tobytes())


def test_non_checkpoint_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=F32)}, "h")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_bytes_after_the_last_tensor_are_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=F32)}, "h")
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="1 bytes follow the last tensor"):
        load_checkpoint(path)


def test_a_tensor_name_stored_twice_is_rejected(tmp_path):
    # a one-tensor file's record (name, rows, cols, data), written twice
    # under a tensor count of 2
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((1, 2), dtype=F32)}, "h")
    raw = path.read_bytes()
    record = raw[-(2 + 1 + 8 + 8):]
    head = raw[:-len(record) - 4]
    assert raw[len(head):len(head) + 4] == (1).to_bytes(4, "little")
    path.write_bytes(head + (2).to_bytes(4, "little") + record + record)
    with pytest.raises(ValidationError, match="tensor 'w' is stored twice"):
        load_checkpoint(path)


def test_a_meta_key_stored_twice_is_rejected(tmp_path):
    # the one meta entry (key "k", value "v") written twice under a count of 2
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, "h", meta={"k": "v"})
    raw = path.read_bytes()
    entry = b"\x01\x00k\x01\x00v"
    at = raw.index(entry)
    assert raw[at - 2:at] == (1).to_bytes(2, "little")
    path.write_bytes(raw[:at - 2] + (2).to_bytes(2, "little") + entry + raw[at:])
    with pytest.raises(ValidationError, match="meta key 'k' is stored twice"):
        load_checkpoint(path)


def test_deterministic_bytes(tmp_path):
    params = {"b": np.ones(3, dtype=F32), "a": np.zeros((2, 2), dtype=F32)}
    p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
    save_checkpoint(p1, params, "h", meta={"k": "v"})
    save_checkpoint(p2, dict(reversed(list(params.items()))), "h", meta={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def small_checkpoint_bytes(tmp_dir) -> bytes:
    path = Path(tmp_dir) / "valid.ckpt"
    save_checkpoint(path, {"wname": np.ones((2, 2), dtype=F32), "b": np.zeros(3, dtype=F32)},
                    "abc", meta={"key": "val"})
    return path.read_bytes()


@pytest.mark.parametrize("string", [b"abc", b"key", b"val", b"wname"],
                         ids=["schema_hash", "meta_key", "meta_value", "tensor_name"])
def test_string_that_is_not_utf8_is_rejected(tmp_path, string):
    raw = bytearray(small_checkpoint_bytes(tmp_path))
    raw[raw.index(string)] = 0xFF
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="UTF-8"):
        load_checkpoint(path)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_file_loads_or_raises_typed(data):
    with tempfile.TemporaryDirectory() as tmp_dir:
        raw = bytearray(small_checkpoint_bytes(tmp_dir))
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        if data.draw(st.booleans()):
            raw = raw[: data.draw(st.integers(0, len(raw)))]
        path = Path(tmp_dir) / "mutated.ckpt"
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except FedSplitError:
            pass
