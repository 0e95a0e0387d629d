import os
import sys
import threading

import numpy as np
import pytest

import oracles
from svbench.e2e import (BLAS_THREAD_VARS, BLOCK_FRAMES, BilinearScorer, E2EConfig, _batch_step, _chunk_blocks,
                         _block_threads, build_e2e_net, calibrate_network, e2e_specs, embed,
                         pair_loss, pair_probability, sample_chunk_length, sample_pair_batch,
                         train_e2e)
from svbench.errors import SamplingError, TrainingDivergedError, UsageError
from svbench.nn import MeanPool, Network, TrainerConfig, effective_context, grad_check

SMALL = dict(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
             pre_pool_dim=10, embedding_dim=16)


def test_default_effective_context_is_17():
    assert effective_context(e2e_specs(E2EConfig())) == 17


def test_default_widths():
    specs = e2e_specs(E2EConfig())
    first_affine = next(s for s in specs if s["kind"] == "affine")
    assert first_affine["d_in"] == 120          # splice +-1 on 40-d input
    assert specs[-1]["d_out"] == 200            # embedding width


def test_scorer_reduces_to_dot_product():
    scorer = BilinearScorer(4)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    assert scorer.score(x, y)[0, 0] == pytest.approx(float(x[0] @ y[0]), abs=1e-12)


def test_scorer_zero_embeddings_give_bias():
    scorer = BilinearScorer(4)
    scorer.b[...] = 1.25
    assert scorer.score(np.zeros((1, 4)), np.zeros((1, 4)))[0, 0] == pytest.approx(1.25)


def test_scorer_symmetric():
    scorer = BilinearScorer(5)
    rng = np.random.default_rng(1)
    scorer.S[...] = rng.standard_normal((5, 5))
    scorer.symmetrize()
    x, y = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    assert scorer.score(x, y)[0, 0] == scorer.score(y, x)[0, 0]


def test_scorer_dim_check():
    with pytest.raises(UsageError):
        BilinearScorer(4).score(np.zeros((1, 3)), np.zeros((1, 4)))


def test_pair_probability_laws():
    assert pair_probability(0.0) == pytest.approx(0.5)
    assert pair_probability(50.0) == pytest.approx(1.0, abs=1e-15)
    for logit in (-3.0, -0.5, 0.7, 4.0):
        assert pair_probability(-logit) == pytest.approx(1.0 - pair_probability(logit))


def test_pair_loss_perfect_classification():
    loss, _, _ = pair_loss([200.0, 300.0], [-200.0], 1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_pair_loss_uniform_probability():
    n, m, k = 3, 6, 0.4
    loss, _, _ = pair_loss(np.zeros(n), np.zeros(m), k)
    assert loss == pytest.approx((n + k * m) * np.log(2.0))


def test_pair_loss_additive_in_k():
    same = np.array([0.5, -1.0])
    diff = np.array([0.2, 1.5, -0.3])
    l1, _, _ = pair_loss(same, diff, 1.0)
    l2, _, _ = pair_loss(same, diff, 2.0)
    diff_term = l2 - l1
    l3, _, _ = pair_loss(same, diff, 3.0)
    assert l3 - l2 == pytest.approx(diff_term)


def test_pair_loss_saturated_logits_stay_finite():
    loss, gs, gd = pair_loss([-800.0], [800.0], 1.0)
    assert np.isfinite(loss) and np.all(np.isfinite(gs)) and np.all(np.isfinite(gd))


def test_chunk_length_range_and_median():
    rng = np.random.default_rng(2)
    draws = np.array([sample_chunk_length(rng, 50, 300) for _ in range(100_000)])
    assert draws.min() >= 50 and draws.max() <= 300
    assert abs(np.median(draws) - np.sqrt(50 * 300)) <= 3


def test_chunk_length_deterministic():
    a = [sample_chunk_length(np.random.default_rng(3), 50, 300) for _ in range(20)]
    b = [sample_chunk_length(np.random.default_rng(3), 50, 300) for _ in range(20)]
    assert a == b


def _toy_corpus(num_speakers=6, utts=3, frames=320, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    corpus = {}
    for s in range(num_speakers):
        offset = rng.standard_normal(dim)
        corpus[f"spk{s}"] = [offset + 0.2 * rng.standard_normal((frames, dim))
                             for _ in range(utts)]
    return corpus


@pytest.mark.parametrize("n", [2, 4])
def test_pair_batch_counts(n):
    corpus = _toy_corpus()
    chunks, speakers = sample_pair_batch(corpus, n, np.random.default_rng(4), (50, 300))
    assert len(speakers) == len(set(speakers)) == n
    assert len(chunks) == 2 * n


def test_pair_batch_labels():
    # speaker i owns chunks 2i and 2i+1, cut (as views) from two of its utterances
    corpus = _toy_corpus()
    source = {id(utt): (spk, u) for spk, utts in corpus.items() for u, utt in enumerate(utts)}
    rng = np.random.default_rng(5)
    for _ in range(50):
        chunks, speakers = sample_pair_batch(corpus, 4, rng, (50, 300))
        sources = [source[id(chunk.base)] for chunk in chunks]
        assert [spk for spk, _ in sources] == [spk for spk in speakers for _ in range(2)]
        assert all(sources[2 * i] != sources[2 * i + 1] for i in range(4))


def test_pair_batch_needs_enough_speakers():
    with pytest.raises(SamplingError):
        sample_pair_batch(_toy_corpus(num_speakers=3), 4, np.random.default_rng(6), (50, 300))


def test_embedding_of_constant_chunk_is_length_invariant():
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=1)
    row = np.random.default_rng(7).standard_normal(8)
    e1 = embed(net, np.tile(row, (30, 1)))
    e2 = embed(net, np.tile(row, (200, 1)))
    np.testing.assert_allclose(e1, e2, atol=1e-10)


def test_embedding_duplication_stability():
    # duplicating a chunk only perturbs the embedding through the 17-frame
    # seam, so the relative error decays like 1/T
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=1)
    rng = np.random.default_rng(8)

    def rel_err(t):
        chunk = rng.standard_normal((t, 8))
        e1 = embed(net, chunk)
        e2 = embed(net, np.concatenate([chunk, chunk]))
        return np.linalg.norm(e1 - e2) / np.linalg.norm(e1)

    short, long = rel_err(50), rel_err(1000)
    assert long < 3e-3
    assert long < 0.2 * short


def test_verify_pair_symmetric_and_finite():
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=2)
    rng = np.random.default_rng(9)
    scorer.S[...] = 0.1 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    a, b = rng.standard_normal((40, 8)), rng.standard_normal((60, 8))
    ea, eb = embed(net, a)[None], embed(net, b)[None]
    ab = scorer.score(ea, eb)[0, 0]
    assert ab == scorer.score(eb, ea)[0, 0]
    assert np.isfinite(ab)


def _short_train(seed, corpus, lr=0.003, iterations=60, k=1.0 / 3.0):
    """(net, scorer, the records the trainer logged) of a short run."""
    tcfg = TrainerConfig(learning_rate=lr, lr_decay=0.5, lr_decay_interval=400,
                         max_epochs=1, seed=seed)
    records = []
    net, scorer = train_e2e(corpus, E2EConfig(**SMALL, pair_batch_n=4, iterations=iterations,
                                              loss_k=k), tcfg, log=records.append)
    assert [r["iteration"] for r in records] == list(range(iterations))
    return net, scorer, records


def test_train_deterministic():
    corpus = _toy_corpus()
    _, scorer_a, records_a = _short_train(3, corpus)
    _, scorer_b, records_b = _short_train(3, corpus)
    assert [r["loss"] for r in records_a] == [r["loss"] for r in records_b]
    np.testing.assert_array_equal(scorer_a.S, scorer_b.S)


@pytest.mark.parametrize("k", [1.0 / 3.0, 1.0])
def test_train_k_sweep_no_divergence(k):
    corpus = _toy_corpus(seed=1)
    _, _, records = _short_train(4, corpus, k=k)
    assert all(np.isfinite(r["loss"]) for r in records)


def test_calibration_centers_embeddings():
    corpus = _toy_corpus(seed=2)
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=5)
    chunks = [corpus[s][0][:100] for s in sorted(corpus)]
    calibrate_network(net, chunks)
    embs = np.array([embed(net, c) for c in chunks])
    # embeddings vary across inputs instead of collapsing to a common point
    assert embs.std(axis=0).max() > 0.05


def _assert_close(actual, expected, name, rtol=1e-10):
    """Within `rtol` of the reference array's largest magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, name
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    assert float(np.abs(actual - expected).max(initial=0.0)) <= rtol * scale, name


def test_calibration_matches_reference():
    # packed calibration runs each hidden affine once over all chunks, so its
    # GEMMs may round differently from the per-chunk reference
    corpus = _toy_corpus(seed=3)
    rng = np.random.default_rng(4)
    chunks = [u[:int(rng.integers(20, 120))] for s in sorted(corpus) for u in corpus[s]]
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=6)
    ref, _ = build_e2e_net(E2EConfig(**SMALL), seed=6)
    calibrate_network(net, chunks)
    oracles.calibrate_network(ref, chunks)
    for name, arr in ref.param_map().items():
        _assert_close(net.param_map()[name], arr, name)


def test_training_matches_reference_engine(reference_engine):
    # the reference embeds and back-propagates chunk by chunk and sums the
    # scorer gradient pair by pair; the packed step regroups those sums
    corpus = _toy_corpus(seed=4)
    net, scorer, hist = _short_train(5, corpus, iterations=4)
    with reference_engine():
        ref_net, ref_scorer, ref_hist = _short_train(5, corpus, iterations=4)
    assert [h["pair_accuracy"] for h in hist] == [h["pair_accuracy"] for h in ref_hist]
    _assert_close([h["loss"] for h in hist], [h["loss"] for h in ref_hist], "loss")
    for name, arr in ref_net.param_map().items():
        _assert_close(net.param_map()[name], arr, name)
    _assert_close(scorer.S, ref_scorer.S, "scorer.S")
    _assert_close(scorer.b, ref_scorer.b, "scorer.b")


def _ragged_batch(n, seed):
    """The 2N chunks of a pair batch of N speakers, of ragged lengths, short ones included."""
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 3, 5] + [int(t) for t in rng.integers(1, 60, size=2 * n)]
    return [rng.standard_normal((lengths[i], 8)) + (i // 2) for i in range(2 * n)]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_batch_step_matches_per_pair_reference(n):
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=n)
    rng = np.random.default_rng(10 + n)
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    scorer.b[...] = 0.3
    chunks = _ragged_batch(n, seed=n)
    calibrate_network(net, chunks)
    k = 1.0 / (n - 1)
    loss, grads, same, diff = _batch_step(net, scorer, chunks, k)
    ref_loss, ref_grads, ref_same, ref_diff = oracles.batch_step(net, scorer, chunks, k)
    _assert_close(loss, ref_loss, "loss")
    _assert_close(np.concatenate([same, diff]), np.concatenate([ref_same, ref_diff]), "logits")
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        _assert_close(grads[name], ref_grads[name], name)


def test_batch_step_in_blocks_matches_one_packed_pass():
    # the chunks fill four blocks, the first a chunk longer than the budget
    b = BLOCK_FRAMES
    lengths = [b + 100, b // 3, b // 3, b // 2, b // 2, 2, 3, b // 4]
    rng = np.random.default_rng(20)
    chunks = [rng.standard_normal((t, 8)) + (i // 2) for i, t in enumerate(lengths)]
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=20)
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    calibrate_network(net, chunks)
    packed, _ = net.forward(np.concatenate(chunks), lengths=lengths)

    # the blocks may run on several threads, so each pass is recorded under
    # the block whose packed frames it was given
    forward, inputs, blocks = net.forward, _chunk_blocks(lengths), {}
    lock = threading.Lock()
    def recording_forward(x, *args, **kwargs):
        out = forward(x, *args, **kwargs)
        b = next(i for i, block in enumerate(inputs)
                 if np.array_equal(x, np.concatenate(chunks[block])))
        with lock:
            assert b not in blocks
            blocks[b] = out[0]
        return out
    net.forward = recording_forward
    loss, grads, same, diff = _batch_step(net, scorer, chunks, 1.0 / 3.0)
    del net.forward
    assert len(blocks) >= 3 and sorted(blocks) == list(range(len(inputs)))
    _assert_close(np.concatenate([blocks[b] for b in range(len(inputs))]), packed,
                  "embeddings", rtol=1e-12)
    logits = scorer.score(packed, packed)
    _assert_close(np.concatenate([same, diff]),
                  np.concatenate([logits[0::2, 1::2].diagonal(),
                                  logits[0::2, 0::2][~np.eye(4, dtype=bool)]]),
                  "logits", rtol=1e-12)

    ref_loss, ref_grads, _, _ = oracles.batch_step(net, scorer, chunks, 1.0 / 3.0)
    _assert_close(loss, ref_loss, "loss")
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        _assert_close(grads[name], ref_grads[name], name)


def _on_cpus(monkeypatch, cpus, blas_threads="1"):
    """Make this process appear to run on `cpus` CPUs, with OpenBLAS set to
    `blas_threads` threads (None: its default)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


def _forward_threads(monkeypatch):
    """The set that collects every thread that runs Network.forward."""
    forward, threads = Network.forward, set()
    def recording_forward(self, *args, **kwargs):
        threads.add(threading.current_thread())
        return forward(self, *args, **kwargs)
    monkeypatch.setattr(Network, "forward", recording_forward)
    return threads


def _block_batch(seed):
    """(net, scorer, chunks) of an N = 4 batch of at least three blocks."""
    rng = np.random.default_rng(seed)
    chunks = [rng.standard_normal((int(t), 8)) + (i // 2)
              for i, t in enumerate(rng.integers(BLOCK_FRAMES // 4, BLOCK_FRAMES // 2, size=8))]
    assert len(_chunk_blocks([len(c) for c in chunks])) >= 3
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=seed)
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    calibrate_network(net, chunks)
    return net, scorer, chunks


def _train_in_blocks(seed, log):
    """(net, scorer) of 3 iterations on N = 8 batches of 200-300-frame chunks,
    at least three blocks each."""
    cfg = E2EConfig(**SMALL, pair_batch_n=8, iterations=3, chunk_min=200, chunk_max=300)
    return train_e2e(_toy_corpus(num_speakers=8), cfg,
                     TrainerConfig(learning_rate=0.003, seed=seed), log=log)


@pytest.fixture
def fine_switching():
    """A short interpreter switch interval, so that the threads of a step
    interleave their Python code finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def test_step_bytes_do_not_depend_on_the_cpu_count(monkeypatch, fine_switching):
    # every block's pass has the same bytes on any thread, and the blocks'
    # gradients are summed in block order, whichever thread made them
    net, scorer, chunks = _block_batch(seed=21)
    steps, threads = {}, _forward_threads(monkeypatch)
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        threads.clear()
        steps[cpus] = _batch_step(net, scorer, chunks, 1.0 / 3.0)
        assert (len(threads) > 1) == (cpus > 1)
    for cpus in (2, 3):
        loss, grads, same, diff = steps[cpus]
        assert loss == steps[1][0]
        np.testing.assert_array_equal(same, steps[1][2])
        np.testing.assert_array_equal(diff, steps[1][3])
        assert sorted(grads) == sorted(steps[1][1])
        for name, g in grads.items():
            np.testing.assert_array_equal(g, steps[1][1][name], err_msg=name)

    # ... and neither do a training run's parameters and records
    runs = {}
    for cpus in (1, 3):
        _on_cpus(monkeypatch, cpus)
        threads.clear()
        records = []
        net, scorer = _train_in_blocks(8, records.append)
        runs[cpus] = {**net.param_map(), **scorer.param_map()}, records
        # one pool serves the run's steps, which start no threads of their own
        assert len(threads) == 1 if cpus == 1 else 1 < len(threads) <= cpus
    assert sorted(runs[3][0]) == sorted(runs[1][0])
    for name, arr in runs[3][0].items():
        np.testing.assert_array_equal(arr, runs[1][0][name], err_msg=name)
    assert runs[3][1] == runs[1][1] and len(runs[1][1]) == 3


@pytest.mark.parametrize("env, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "16"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    ({"OMP_NUM_THREADS": "1"}, 4),
    ({"OMP_NUM_THREADS": "many"}, 1),
], ids=["default", "openblas_1", "openblas_2", "openblas_3", "openblas_above_cpus",
        "openblas_0_then_omp", "openblas_before_omp", "goto_before_omp", "omp_1", "omp_not_a_count"])
def test_block_threads_are_the_cpus_that_openblas_leaves(monkeypatch, env, threads):
    _on_cpus(monkeypatch, 4, blas_threads=None)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _block_threads() == threads


def test_step_at_openblas_default_runs_on_the_calling_thread(monkeypatch):
    # at one OpenBLAS thread per CPU, block threads would contend with
    # OpenBLAS's for the cores
    _on_cpus(monkeypatch, 3, blas_threads=None)
    net, scorer, chunks = _block_batch(seed=23)
    threads = _forward_threads(monkeypatch)
    _batch_step(net, scorer, chunks, 1.0 / 3.0)
    assert threads == {threading.current_thread()}


def test_step_without_cpu_affinity_counts_the_cpus(monkeypatch):
    # where the system reports no CPU affinity, every CPU counts
    _on_cpus(monkeypatch, 1)
    net, scorer, chunks = _block_batch(seed=24)
    serial = _batch_step(net, scorer, chunks, 1.0 / 3.0)
    monkeypatch.delattr(os, "sched_getaffinity")
    threads = _forward_threads(monkeypatch)
    for cpus in (None, 1, 3):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        threads.clear()
        loss, grads, same, diff = _batch_step(net, scorer, chunks, 1.0 / 3.0)
        assert (len(threads) > 1) == (cpus == 3) and len(threads) <= (cpus or 1)
        assert loss == serial[0]
        np.testing.assert_array_equal(same, serial[2])
        np.testing.assert_array_equal(diff, serial[3])
        for name, g in grads.items():
            np.testing.assert_array_equal(g, serial[1][name], err_msg=name)


class BlockFailure(RuntimeError):
    pass


def _failing_forward(monkeypatch, fail, on_main=False):
    """Make MeanPool.forward call `fail(out)` on the main thread, which runs
    the first block of every step, if `on_main`, else on every other thread."""
    forward = MeanPool.forward
    def failing_forward(self, x, lengths):
        out, cache, out_lengths = forward(self, x, lengths)
        if (threading.current_thread() is threading.main_thread()) == on_main:
            out = fail(out)
        return out, cache, out_lengths
    monkeypatch.setattr(MeanPool, "forward", failing_forward)


def test_failure_in_a_pool_thread_is_raised_and_its_threads_end(monkeypatch):
    _on_cpus(monkeypatch, 2)
    net, scorer, chunks = _block_batch(seed=22)
    threads = threading.active_count()
    _batch_step(net, scorer, chunks, 1.0 / 3.0)
    assert threading.active_count() == threads

    def failing_on(where):
        def fail(out):
            raise BlockFailure(f"block failed on {where}")
        return fail
    with monkeypatch.context() as m:
        _failing_forward(m, failing_on("a pool thread"))
        with pytest.raises(BlockFailure, match="^block failed on a pool thread$"):
            _batch_step(net, scorer, chunks, 1.0 / 3.0)
        assert threading.active_count() == threads
        with pytest.raises(BlockFailure, match="^block failed on a pool thread$"):
            _train_in_blocks(9, log=lambda record: None)
        assert threading.active_count() == threads

    # ... and so is one in the calling thread's own block, while the pool runs
    with monkeypatch.context() as m:
        _failing_forward(m, failing_on("the calling thread"), on_main=True)
        with pytest.raises(BlockFailure, match="^block failed on the calling thread$"):
            _batch_step(net, scorer, chunks, 1.0 / 3.0)
        assert threading.active_count() == threads


def test_non_finite_block_in_a_pool_thread_stops_training(monkeypatch):
    _on_cpus(monkeypatch, 2)
    _failing_forward(monkeypatch, lambda out: out * np.nan)
    threads = threading.active_count()
    with pytest.raises(TrainingDivergedError, match="non-finite loss at iteration 0"), \
            np.errstate(invalid="ignore"):
        _train_in_blocks(9, log=lambda record: None)
    assert threading.active_count() == threads


def test_score_matrix_matches_pairwise_scores():
    scorer = BilinearScorer(6)
    rng = np.random.default_rng(13)
    scorer.S[...] = rng.standard_normal((6, 6))
    scorer.b[...] = -0.4
    emb = rng.standard_normal((5, 6))
    expected = [[oracles.bilinear_logit(scorer, x, y) for y in emb] for x in emb]
    np.testing.assert_allclose(scorer.score(emb, emb), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scorer.score(emb, emb[:3]), np.array(expected)[:, :3],
                               rtol=1e-12, atol=1e-12)


def test_scorer_grads_match_finite_differences():
    scorer = BilinearScorer(4)
    rng = np.random.default_rng(14)
    scorer.S[...] = rng.standard_normal((4, 4))       # free matrix, not yet symmetric
    scorer.b[...] = 0.2
    emb = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 3))
    d_emb, d_s, d_b = scorer.grads(emb, w)
    objective = lambda: float(np.sum(w * scorer.score(emb, emb)))
    report = grad_check({"emb": emb, "S": scorer.S, "b": scorer.b}, objective,
                        {"emb": d_emb, "S": d_s, "b": d_b}, step=1e-5)
    assert max(report.values()) < 1e-8
