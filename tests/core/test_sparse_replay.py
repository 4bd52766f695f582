"""Sparse-mode replay: the CSR-scatter hit path against the reference updaters.

In sparse mode a :class:`ReplayPlan` reads the bulk term through compiled
per-iteration CSR blocks and their transposes, and applies the removed
rows' corrections from the raw CSR arrays of the gathered hit rows (one
``np.bincount`` and one ``ufunc.at`` scatter per iteration).  These tests
pin that path to the uncompiled :class:`PrIUUpdater` (``priu-seq``) at the
suite's 1e-10 for K ∈ {1, 2, 7, 16} on the cases the scatter has to get
right: hit rows with no non-zeros, ids shared across requests, a request
that empties a whole mini-batch, and the PrIU-opt phase split.  The
commit tests replay after an incremental refresh and after a recompile,
so the compiled blocks and transposes must follow the store.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IncrementalTrainer
from repro.core import PrIUUpdater
from repro.datasets import make_sparse_binary_classification

ATOL = 1e-10
TASKS = ("linear", "binary_logistic")
WIDTHS = (1, 2, 7, 16)
# Training rows whose CSR row is emptied: their hits carry no non-zeros.
EMPTY_ROWS = np.array([0, 5, 17, 33, 101])


def _sparse_data(task):
    data = make_sparse_binary_classification(240, 90, density=0.05, seed=61)
    n = data.features.shape[0]
    mask = np.ones(n)
    mask[EMPTY_ROWS] = 0.0
    features = (sp.diags(mask) @ data.features).tocsr()
    features.eliminate_zeros()
    if task == "linear":
        labels = np.random.default_rng(62).standard_normal(n)
    else:
        labels = data.labels
    return features, labels


def _fit(task, **overrides):
    features, labels = _sparse_data(task)
    kwargs = dict(
        learning_rate=0.02,
        regularization=0.05,
        batch_size=32,
        n_iterations=60,
        seed=21,
        method="priu",
    )
    kwargs.update(overrides)
    trainer = IncrementalTrainer(task, **kwargs)
    trainer.fit(features, labels)
    return trainer


_TRAINERS = {task: _fit(task) for task in TASKS}


@pytest.fixture(params=TASKS)
def fitted(request):
    trainer = _TRAINERS[request.param]
    assert trainer._plan.sparse and trainer._plan.supported
    assert np.diff(trainer.features.indptr)[EMPTY_ROWS].max() == 0
    return trainer


def _sets(case, width, trainer, seed):
    rng = np.random.default_rng(seed)
    n = trainer.n_samples

    def random_set():
        return rng.choice(n, size=rng.integers(1, 6), replace=False)

    if case == "empty_rows":
        return [np.r_[rng.choice(EMPTY_ROWS, 2, replace=False), random_set()]
                for _ in range(width)]
    if case == "repeated":
        shared = rng.choice(n, size=3, replace=False)
        # Shared ids in every set, duplicated inside the first.
        return [np.r_[shared, shared[:1], random_set()] if k == 0
                else np.r_[shared, random_set()] for k in range(width)]
    if case == "whole_batch":
        batch = np.asarray(trainer.store.records[3].batch)
        return [batch] + [random_set() for _ in range(width - 1)]
    raise ValueError(case)


def _assert_matches_reference(trainer, sets, stacked):
    priu = trainer._priu
    for k, removed in enumerate(sets):
        np.testing.assert_allclose(
            stacked[:, k], priu.update(removed), atol=ATOL, rtol=0.0,
            err_msg=f"column {k} diverged from PrIUUpdater",
        )


class TestSparseHitScatter:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("case", ["empty_rows", "repeated", "whole_batch"])
    def test_run_matches_priu_seq(self, fitted, case, width):
        sets = _sets(case, width, fitted, seed=width)
        stacked = fitted._plan.run(sets)
        assert stacked.shape == (fitted._plan.n_params, width)
        _assert_matches_reference(fitted, sets, stacked)
        served = fitted.remove_many(sets, method="priu")
        reference = fitted.remove_many(sets, method="priu-seq")
        for got, want in zip(served, reference):
            np.testing.assert_allclose(
                got.weights, want.weights, atol=ATOL, rtol=0.0
            )

    @pytest.mark.parametrize("width", WIDTHS)
    def test_phase_split(self, fitted, width):
        """``stop_at`` then ``start_weights`` equals one full replay."""
        plan, priu = fitted._plan, fitted._priu
        sets = _sets("repeated", width, fitted, seed=40 + width)
        half = plan.n_iterations // 2
        partial = plan.run(sets, stop_at=half)
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                partial[:, k], priu.update(removed, stop_at=half), atol=ATOL
            )
        resumed = plan.run(sets, start_weights=partial, start_iteration=half)
        _assert_matches_reference(fitted, sets, resumed)

    def test_all_hits_on_empty_rows(self, fitted):
        """Hits whose rows hold no non-zeros still rescale the step."""
        sets = [EMPTY_ROWS[:2], EMPTY_ROWS[2:], EMPTY_ROWS]
        _assert_matches_reference(fitted, sets, fitted._plan.run(sets))

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        width=st.sampled_from(WIDTHS),
        task=st.sampled_from(TASKS),
    )
    def test_random_sets(self, data, width, task):
        trainer = _TRAINERS[task]
        n = trainer.n_samples
        sets = [
            np.asarray(
                data.draw(st.lists(st.integers(0, n - 1), max_size=12)),
                dtype=np.int64,
            )
            for _ in range(width)
        ]
        _assert_matches_reference(trainer, sets, trainer._plan.run(sets))


class TestCommitThenReplay:
    @pytest.mark.parametrize("threshold,mode", [(1.0, "refresh"), (0.0, "recompile")])
    @pytest.mark.parametrize("task", TASKS)
    def test_blocks_follow_the_store(self, task, threshold, mode):
        trainer = _fit(task, plan_refresh_threshold=threshold)
        committed = np.r_[EMPTY_ROWS[:2], 8, 9, 150]
        receipt = trainer.commit(trainer.remove(committed, method="priu"))
        assert receipt["mode"] == mode
        # Stale blocks or transposes would still carry the committed rows
        # in the bulk term, and the answers below would drift.
        plan = trainer._plan
        reference = PrIUUpdater(trainer.store, trainer.features, trainer.labels)
        for width in WIDTHS:
            sets = _sets("whole_batch", width, trainer, seed=70 + width)
            stacked = plan.run(sets)
            for k, removed in enumerate(sets):
                np.testing.assert_allclose(
                    stacked[:, k], reference.update(removed), atol=ATOL
                )
