"""The shared artifact container: v2 layout, v1 fixtures, atomic writes.

The files in tests/data were written by the version-1 writers:
v1_checkpoint.cgck holds _v1_checkpoint_params(), v1_attention.cgck the
attention export rebuilt in test_v1_attention_fixture_loads_exact_tensors,
and v1_dataset.cgds generate_dataset([make_env("ant_reach_2")],
n_transitions=3, seed=0) with the p,v,q,a,ja,jr,m observation flags.
"""
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from morphtask import artifacts, distill, evaluation
from morphtask.artifacts import CorruptionError, seal
from morphtask.cli import _write_text
from morphtask.control_graph import build_observation_spec
from morphtask.nn.policies import PolicyConfig, init_params

DATA = Path(__file__).parent / "data"
OBS = build_observation_spec(["p", "v", "q", "a", "ja", "jr", "m"])


def test_layout_dtype_codes_and_crc_trailer():
    tensors = [("a", np.arange(3, dtype=np.float32)),
               ("b", np.ones((2, 1))),
               ("c", np.array([[7, -8]], dtype=np.int32))]
    raw = artifacts.to_bytes(b"TEST", "tag", {"k": 1}, tensors)
    assert raw[:4] == b"TEST"
    assert struct.unpack("<I", raw[4:8])[0] == artifacts.VERSION == 2
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
    assert seal(raw[:-4]) == raw
    # name "a", then its dtype code, ndim and dims
    off = raw.index(b"\x01\x00\x00\x00a") + 5
    assert raw[off:off + 9] == b"f" + struct.pack("<II", 1, 3)
    tag, meta, back = artifacts.parse(raw, b"TEST")
    assert (tag, meta) == ("tag", {"k": 1})
    for name, data in tensors:
        assert back[name].dtype == data.dtype
        np.testing.assert_array_equal(back[name], data)
    assert all(t.flags.writeable for t in back.values())


def test_writer_rejects_other_dtypes():
    with pytest.raises(ValueError, match="unsupported dtype"):
        artifacts.to_bytes(b"TEST", "t", {}, [("x", np.arange(3))])


def test_streamed_file_equals_bytes(tmp_path):
    params = init_params("transformer", PolicyConfig(
        arch="transformer", feature_width=5, embed=4, attn_hidden=4, max_nodes=4), 1)
    path = tmp_path / "p.cgck"
    distill.save_checkpoint(params, path)
    assert path.read_bytes() == distill.checkpoint_bytes(params)


def _v1_checkpoint_params():
    config = PolicyConfig(arch="transformer",
                          feature_width=distill.cg_feature_width(OBS, "v2"),
                          embed=4, attn_hidden=4, heads=2, layers=1, max_nodes=4)
    return init_params("transformer", config, 4)


def test_v1_checkpoint_fixture_loads_exact_tensors():
    expect = _v1_checkpoint_params()
    back = distill.load_checkpoint(DATA / "v1_checkpoint.cgck", expect_arch="transformer")
    assert back.config == expect.config
    assert list(back.tensors) == list(expect.tensors)
    for name, t in expect.tensors.items():
        assert back.tensors[name].data.dtype == np.float64
        np.testing.assert_array_equal(back.tensors[name].data, t.data)


def test_v1_attention_fixture_loads_exact_tensors():
    attn = np.random.default_rng(0).uniform(size=(2, 1, 2, 3, 3))
    table = evaluation.read_tensor_table(DATA / "v1_attention.cgck")
    expect = {f"attn/{t}/0/{h}": attn[t, 0, h] for t in range(2) for h in range(2)}
    expect["goal_mass"] = np.array([0.25, 0.5])
    assert list(table) == list(expect)
    for name, data in expect.items():
        np.testing.assert_array_equal(table[name], data)


def test_v1_fixture_checksum_is_fnv():
    raw = (DATA / "v1_checkpoint.cgck").read_bytes()
    assert struct.unpack("<Q", raw[-8:])[0] == artifacts.fnv1a64(raw[:-8])
    flipped = bytearray(raw)
    flipped[40] ^= 0x01
    with pytest.raises(CorruptionError, match="checksum"):
        artifacts.parse(bytes(flipped), distill.CHECKPOINT_MAGIC, versions=(1, 2))


def test_v1_dataset_fixture_is_rejected_naming_version_1():
    with pytest.raises(CorruptionError, match="version 1"):
        distill.read_dataset(DATA / "v1_dataset.cgds")


def _fail_replace(*args):
    raise OSError("replace failed")


@pytest.mark.parametrize("writer", ["checkpoint", "dataset", "text"])
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    params = _v1_checkpoint_params()
    write = {
        "checkpoint": lambda: distill.save_checkpoint(params, path),
        "dataset": lambda: distill.write_dataset(distill.TransitionDataset([]), path),
        "text": lambda: _write_text(path, "new text\n"),
    }[writer]
    monkeypatch.setattr(artifacts.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        write()
    assert path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    monkeypatch.undo()
    write()
    assert path.read_bytes() != b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
