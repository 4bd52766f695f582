"""Stores served from mapped, uncompressed archives.

Stores are written uncompressed and their large members memory-mapped
read-only at load, so every loaded array is read-only and the commit and
maintenance paths must replace arrays, never write into them.  Covered
here:

* a checkpointed trainer goes load → commit → maintain → save → reload
  and answers like an in-memory twin that never touched disk (atol
  1e-10), for every task × summary representation, with and without a
  frozen PrIU-opt state;
* corruption of any member family is detected, in the new archives and
  in compressed archives written by older versions;
* compressed archives still load bit-identically, and plain ``np.load``
  reads the new ones;
* large members are mappings, aligned and read-only;
* digests, now computed over buffers in place, equal the copying
  ``tobytes()`` digests older archives recorded.
"""

import shutil
import zlib

import numpy as np
import pytest

from repro import IncrementalTrainer
from repro.core import load_store
from repro.core.provenance_store import remap_surviving_ids
from repro.core.serialization import CheckpointCorruptionError, _content_digest
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
)
from repro.linalg.svd import TruncatedSummary
from repro.testing import corrupt_npz_member

ATOL = 1e-10

_DATASETS = {
    "linear": make_regression(300, 8, noise=0.05, seed=181),
    "binary_logistic": make_binary_classification(
        300, 10, separation=1.0, seed=182
    ),
    "multinomial_logistic": make_multiclass_classification(
        330, 12, n_classes=3, seed=183
    ),
}

# (task, representation, frozen PrIU-opt state): batch sizes below the
# feature count flip auto-compression to SVD factors; method="auto"
# captures the frozen state for dense logistic tasks.
CONFIGS = [
    (task, rep, frozen)
    for task in ("linear", "binary_logistic", "multinomial_logistic")
    for rep in ("dense", "svd")
    for frozen in ((False,) if task == "linear" else (False, True))
]


def _fit(task: str, rep: str, frozen: bool) -> IncrementalTrainer:
    data = _DATASETS[task]
    trainer = IncrementalTrainer(
        task,
        learning_rate=0.05,
        regularization=0.01,
        batch_size=40 if rep == "dense" else 6,
        n_iterations=60,
        seed=0,
        method="auto" if frozen else "priu",
        n_classes=3 if task == "multinomial_logistic" else None,
    )
    trainer.fit(data.features, data.labels)
    return trainer


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("task,rep,frozen", CONFIGS)
def test_loaded_commit_maintain_save_reload_matches_twin(
    task, rep, frozen, tmp_path
):
    data = _DATASETS[task]
    twin = _fit(task, rep, frozen)
    _fit(task, rep, frozen).save_checkpoint(tmp_path / "v1")
    loaded = IncrementalTrainer.from_checkpoint(
        tmp_path / "v1", data.features, data.labels
    )
    assert (loaded.store.frozen is not None) == frozen
    assert isinstance(loaded.store.records[0].summary, TruncatedSummary) == (
        rep == "svd"
    )

    rng = np.random.default_rng(7)
    committed = np.sort(rng.choice(twin.n_samples, size=6, replace=False))
    for trainer in (twin, loaded):
        trainer.remove(committed, method="priu", commit=True)
        trainer.maintain()
    loaded.save_checkpoint(tmp_path / "v2")
    # Handed the original data, the reload picks the survivors itself.
    reloaded = IncrementalTrainer.from_checkpoint(
        tmp_path / "v2", data.features, data.labels
    )
    assert len(reloaded.store.commit_receipts) == 1

    rest = np.setdiff1d(np.arange(data.features.shape[0]), committed)
    query = remap_surviving_ids(
        np.sort(rng.choice(rest, size=5, replace=False)), committed
    )
    methods = ["priu", "priu-seq"] + (["priu-opt"] if frozen else [])
    for trainer in (loaded, reloaded):
        _assert_close(trainer.weights_, twin.weights_)
        for method in methods:
            _assert_close(
                trainer.remove(query, method=method).weights,
                twin.remove(query, method=method).weights,
            )
    # A second commit on the reloaded (read-only) state still works.
    second = np.array([0, 3], dtype=np.int64)
    for trainer in (twin, reloaded):
        trainer.remove(second, method="priu", commit=True)
        trainer.maintain()
    _assert_close(reloaded.weights_, twin.weights_)


# --------------------------------------------------------------------------
# 100 features (and batches wider than that, so summaries stay dense):
# every summary and the frozen gram are 80 KB, above the 64 KiB mapping
# cut; batches, moments and metadata stay below it.
_WIDE = make_binary_classification(300, 100, separation=1.0, seed=185)


@pytest.fixture(scope="module")
def frozen_checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("mapped-store") / "ckpt"
    trainer = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=150,
        n_iterations=20,
    )
    trainer.fit(_WIDE.features, _WIDE.labels)
    trainer.save_checkpoint(directory)
    return directory


# One member of each family: a summary, a batch, a frozen field, metadata.
FAMILIES = ["summary_3", "batch_3", "frozen_gram", "__meta__"]


@pytest.mark.parametrize("member", FAMILIES)
def test_corrupt_member_rejected(member, frozen_checkpoint, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(frozen_checkpoint, broken)
    corrupt_npz_member(broken / "store.npz", member)
    with pytest.raises(CheckpointCorruptionError):
        load_store(broken / "store.npz")
    with pytest.raises(CheckpointCorruptionError):
        IncrementalTrainer.from_checkpoint(broken, _WIDE.features, _WIDE.labels)


def _records_state(store) -> list[np.ndarray]:
    arrays = []
    for record in store.records:
        for value in vars(record).values():
            if isinstance(value, TruncatedSummary):
                arrays += [value.left, value.right]
            elif isinstance(value, np.ndarray):
                arrays.append(value)
    for value in vars(store.frozen).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


def _rewrite_compressed(source, target):
    with np.load(source, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    np.savez_compressed(target, **arrays)
    return target


def test_compressed_archive_loads_bit_identically(frozen_checkpoint, tmp_path):
    store_path = frozen_checkpoint / "store.npz"
    compressed = _rewrite_compressed(store_path, tmp_path / "old.npz")
    assert compressed.stat().st_size < store_path.stat().st_size
    mapped, inflated = load_store(store_path), load_store(compressed)
    for a, b in zip(_records_state(mapped), _records_state(inflated), strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert not b.flags.writeable


def test_compressed_archive_rejects_corrupt_member(
    frozen_checkpoint, tmp_path
):
    compressed = _rewrite_compressed(
        frozen_checkpoint / "store.npz", tmp_path / "old.npz"
    )
    corrupt_npz_member(compressed, "summary_3")
    with pytest.raises(CheckpointCorruptionError):
        load_store(compressed)


def test_plain_np_load_reads_the_uncompressed_archive(
    frozen_checkpoint, tmp_path
):
    store_path = frozen_checkpoint / "store.npz"
    with np.load(store_path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    reloaded = load_store(store_path)
    assert np.array_equal(arrays["summary_3"], reloaded.records[3].summary)
    assert np.array_equal(arrays["frozen_gram"], reloaded.frozen.gram)


def test_large_members_are_aligned_read_only_mappings(frozen_checkpoint):
    store = load_store(frozen_checkpoint / "store.npz")
    for large in [record.summary for record in store.records] + [
        store.frozen.gram
    ]:
        assert isinstance(large, np.memmap)
        assert large.ctypes.data % 64 == 0
        assert not large.flags.writeable
    for small in (store.records[0].batch, store.records[0].moment):
        assert not isinstance(small, np.memmap)
        assert not small.flags.writeable


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12.0).reshape(3, 4),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(20, dtype=np.int64)[::3],
        np.empty((0, 3)),
        np.array(2.5),
        np.array(["3", "linear", "none"]),
        np.array([True, False]),
    ],
)
def test_in_place_digest_equals_copying_digest(array):
    crc = zlib.crc32(f"{array.dtype.str}|{array.shape}".encode())
    crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    assert _content_digest(array) == f"{crc:08x}"
