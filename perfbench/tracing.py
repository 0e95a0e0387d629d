"""Span tracing of svbench from outside the package.

`Tracer.install()` replaces public functions and methods of the svbench
modules with wrappers that record one span per call: name, start, end,
parent span and the CLI invocation it belongs to. Free functions are
patched at the name the caller looks up (`cli` imports `train_dvector` and
friends by name, `pipeline` imports `cosine_score` the same way), methods on
their classes. Spans stay in memory; `write()` dumps them when the run ends,
and `layer_metrics()` folds them into the per-layer table.
"""

import os
import time
from collections import defaultdict

# Per-layer metrics in report order: (name, unit). A `_s` metric sums the
# wall time of the spans of that name; a `_self_s` metric sums their self
# time (span time minus child-span time). Counts and times are per run.
CLI_SUBCOMMANDS = ("gen-data", "featurize", "train-dvector", "train-e2e", "extract",
                   "fit-backend", "trials", "score", "eval")

LAYER_METRICS = [
    ("nn.Affine.forward_s", "s"), ("nn.Affine.backward_s", "s"),
    ("nn.TimeDelay.forward_s", "s"), ("nn.TimeDelay.backward_s", "s"),
    ("nn.ReLU.forward_s", "s"), ("nn.ReLU.backward_s", "s"),
    ("nn.MeanPool.forward_s", "s"), ("nn.MeanPool.backward_s", "s"),
    ("nn.SgdOptimizer.step_s", "s"), ("nn.softmax_xent_s", "s"),
    ("nn.Network.forward_calls", "count"), ("nn.Network.backward_calls", "count"),
    ("nn.Network.backward_calls_per_step", "calls/step"),
    ("nn.backward.discarded_frac", "fraction"),
    ("nn.Affine.gflop", "GFLOP"), ("nn.Affine.gflop_per_s", "GFLOP/s"),
    ("e2e.BilinearScorer.score_calls", "count"), ("e2e.BilinearScorer.score_s", "s"),
    ("e2e.BilinearScorer.grads_calls", "count"), ("e2e.BilinearScorer.grads_s", "s"),
    ("e2e.calibrate_network_s", "s"), ("e2e.sample_pair_batch_s", "s"),
    ("e2e.pair_loss_s", "s"), ("e2e.train_loop_self_s", "s"),
    ("e2e.embed_calls", "count"), ("e2e.embed_s", "s"),
    ("dvector.train_loop_self_s", "s"),
    ("dvector.extract_frame_features_calls", "count"),
    ("dvector.extract_frame_features_s", "s"),
    ("frontend.compute_fbank_calls", "count"), ("frontend.compute_fbank_s", "s"),
    ("frontend.cmvn_s", "s"),
    ("audio.read_wav_calls", "count"), ("audio.read_wav_s", "s"),
    ("pipeline.segment_frames_calls", "count"), ("pipeline.segment_frames_s", "s"),
    ("pipeline.side_reuse_ratio", "fraction"),
    ("pipeline.dvector_of_calls", "count"), ("pipeline.dvector_of_s", "s"),
    ("pipeline.score_trials_self_s", "s"),
    ("backends.cosine_score_calls", "count"), ("backends.cosine_score_s", "s"),
    ("backends.LdaTransform.transform_calls", "count"),
    ("backends.LdaTransform.transform_per_vector", "calls/vector"),
    ("backends.PldaModel.score_calls", "count"), ("backends.PldaModel.score_s", "s"),
    ("backends.fit_lda_s", "s"), ("backends.fit_plda_s", "s"),
    ("evaluation.compute_eer_s", "s"), ("evaluation.compute_eer_trials", "count"),
    ("evaluation.build_conditions_s", "s"), ("evaluation.file_io_s", "s"),
    ("container.read_bytes", "bytes"), ("container.read_s", "s"),
    ("container.write_bytes", "bytes"), ("container.write_s", "s"),
    ("store.load_features_calls", "count"),
    ("datagen.generate_corpus_s", "s"),
] + [(f"cli.{c.replace('-', '_')}_s", "s") for c in CLI_SUBCOMMANDS] + [
    ("trace.overhead_frac", "fraction"), ("trace.spans", "count"),
]

_NAME, _START, _END, _PARENT, _INVOCATION, _NOTE = range(6)


class Tracer:
    """Records spans from wrappers it installs over svbench's public names."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, invocation, note]
        self.invocation = -1
        self.unit = 0              # set-up or measured unit the calls belong to
        self._stack = []
        self._patches = []
        self._discarded = frozenset()   # ids of layers whose input gradient is thrown away

    # -- recording ------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.invocation, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        return span

    def _close(self, span):
        span[_END] = time.perf_counter()
        self._stack.pop()

    def invoke(self, subcommand, fn):
        """Run one CLI invocation under its own root span and invocation id."""
        self.invocation += 1
        span = self._open(f"cli.{subcommand.replace('-', '_')}")
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, owner, attr, name, note=None, before=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span[_NOTE] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- patch table ----------------------------------------------------
    def install(self):
        from svbench import backends, cli, dvector, e2e, nn, pipeline, store

        def affine_flops(args, result):
            layer, x = args[0], args[1]
            return 2.0 * x.shape[0] * layer.d_in * layer.d_out

        def affine_backward_flops(args, result):
            layer, g = args[0], args[1]
            return 4.0 * g.shape[0] * layer.d_in * layer.d_out

        def discarded(args, result):
            return id(args[0]) in self._discarded

        def mark_discarded(args):
            layers = args[0].layers
            lowest = next((i for i, layer in enumerate(layers) if layer.params), 0)
            self._discarded = frozenset(id(layer) for layer in layers[:lowest])

        for cls in (nn.Affine, nn.TimeDelay, nn.ReLU, nn.MeanPool):
            fwd_note = affine_flops if cls is nn.Affine else None
            self._wrap(cls, "forward", f"nn.{cls.__name__}.forward", note=fwd_note)
            if cls is nn.Affine:
                self._wrap(cls, "backward", "nn.Affine.backward", note=affine_backward_flops)
            else:
                self._wrap(cls, "backward", f"nn.{cls.__name__}.backward", note=discarded)
        self._wrap(nn.Network, "forward", "nn.Network.forward")
        self._wrap(nn.Network, "backward", "nn.Network.backward", before=mark_discarded)
        self._wrap(nn.SgdOptimizer, "step", "nn.SgdOptimizer.step")
        self._wrap(dvector, "softmax_xent", "nn.softmax_xent")

        self._wrap(e2e.BilinearScorer, "score", "e2e.BilinearScorer.score")
        self._wrap(e2e.BilinearScorer, "grads", "e2e.BilinearScorer.grads")
        self._wrap(e2e, "calibrate_network", "e2e.calibrate_network")
        self._wrap(e2e, "sample_pair_batch", "e2e.sample_pair_batch")
        self._wrap(e2e, "pair_loss", "e2e.pair_loss")
        self._wrap(cli, "train_e2e", "e2e.train_loop")
        for mod in (cli, pipeline):
            self._wrap(mod, "embed", "e2e.embed")
            self._wrap(mod, "extract_frame_features", "dvector.extract_frame_features")
        self._wrap(cli, "train_dvector", "dvector.train_loop")

        self._wrap(pipeline, "compute_fbank", "frontend.compute_fbank")
        self._wrap(pipeline, "cmvn", "frontend.cmvn")
        self._wrap(pipeline, "read_wav", "audio.read_wav")

        def side_key(args, result):
            return self.unit, tuple((s.utt_id, s.start, s.duration) for s in args[0])

        self._wrap(pipeline, "segment_frames", "pipeline.segment_frames", note=side_key)
        self._wrap(pipeline, "dvector_of", "pipeline.dvector_of")
        self._wrap(pipeline, "score_trials", "pipeline.score_trials")

        self._wrap(pipeline, "cosine_score", "backends.cosine_score")
        self._wrap(backends.LdaTransform, "transform", "backends.LdaTransform.transform",
                   note=lambda args, result: hash(args[1].tobytes()))
        self._wrap(backends.PldaModel, "score", "backends.PldaModel.score")
        self._wrap(cli, "fit_lda", "backends.fit_lda")
        self._wrap(cli, "fit_plda", "backends.fit_plda")

        self._wrap(cli, "compute_eer", "evaluation.compute_eer",
                   note=lambda args, result: len(args[0]))
        self._wrap(cli, "build_conditions", "evaluation.build_conditions")
        for fn in ("read_score_file", "read_segments_file", "read_trial_file",
                   "write_score_file", "write_segments_file", "write_trial_file"):
            self._wrap(cli, fn, "evaluation.file_io")

        read_size = lambda args, result: os.path.getsize(args[0])
        for mod in (store, cli):
            self._wrap(mod, "read_container", "container.read", note=read_size)
        self._wrap(store, "write_container", "container.write", note=read_size)
        self._wrap(store, "load_features", "store.load_features")
        self._wrap(cli, "generate_corpus", "datagen.generate_corpus")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def write(self, path):
        """One tab-separated line per span: id, parent, invocation, name, start, end."""
        with open(path, "w") as f:
            f.write("id\tparent\tinvocation\tname\tstart_s\tend_s\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s[_PARENT]}\t{s[_INVOCATION]}\t{s[_NAME]}"
                        f"\t{s[_START]:.9f}\t{s[_END]:.9f}\n")

    def layer_metrics(self, overhead_frac):
        """(metrics {name: value}, ratios {name: (value, numerator, denominator, text)})."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        notes = defaultdict(list)
        for i, s in enumerate(self.spans):
            name, dur = s[_NAME], s[_END] - s[_START]
            calls[name] += 1
            self_s[name] += dur - child[i]
            wall_s[name] += dur
            if s[_NOTE] is not None:
                notes[name].append((s[_NOTE], s[_INVOCATION], dur))

        def ratio(num, den):
            return num / den if den else 0.0

        steps = calls["nn.SgdOptimizer.step"]
        discarded_s = sum(d for kind in ("TimeDelay", "ReLU", "MeanPool")
                          for flag, _, d in notes[f"nn.{kind}.backward"] if flag)
        backward_s = wall_s["nn.Network.backward"]
        flops = sum(n for n, _, _ in notes["nn.Affine.forward"] + notes["nn.Affine.backward"])
        affine_s = self_s["nn.Affine.forward"] + self_s["nn.Affine.backward"]
        sides = len({key for key, _, _ in notes["pipeline.segment_frames"]})
        side_calls = calls["pipeline.segment_frames"]
        lda_vectors = len({(inv, key) for key, inv, _ in notes["backends.LdaTransform.transform"]})
        lda_calls = calls["backends.LdaTransform.transform"]

        ratios = {
            "nn.Network.backward_calls_per_step": (
                ratio(calls["nn.Network.backward"], steps), calls["nn.Network.backward"], steps,
                "Network.backward calls / SgdOptimizer.step calls"),
            "nn.backward.discarded_frac": (
                ratio(discarded_s, backward_s), discarded_s, backward_s,
                "s of layer backward below the lowest parameterized layer / s in Network.backward"),
            "pipeline.side_reuse_ratio": (
                ratio(sides, side_calls), sides, side_calls,
                "distinct trial sides per set-up or measured unit / segment_frames calls"),
            "backends.LdaTransform.transform_per_vector": (
                ratio(lda_calls, lda_vectors), lda_calls, lda_vectors,
                "LdaTransform.transform calls / distinct input vectors per CLI invocation"),
            "nn.Affine.gflop_per_s": (
                ratio(flops / 1e9, affine_s), flops / 1e9, affine_s,
                "GFLOP computed from Affine shapes / s of Affine forward+backward"),
        }
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name in ratios:
                value = ratios[name][0]
            elif name.endswith("_calls"):
                value = calls[name[:-6]]
            elif name.endswith("_self_s"):
                value = self_s[name[:-7]]
            elif name.endswith("_s"):
                value = wall_s[name[:-2]]
            elif name == "nn.Affine.gflop":
                value = flops / 1e9
            elif name == "evaluation.compute_eer_trials":
                value = sum(n for n, _, _ in notes["evaluation.compute_eer"])
            elif name in ("container.read_bytes", "container.write_bytes"):
                value = sum(n for n, _, _ in notes[name[:-6]])
            elif name == "trace.overhead_frac":
                value = overhead_frac
            elif name == "trace.spans":
                value = len(self.spans)
            else:
                raise KeyError(name)
            metrics[name] = value
        return metrics, ratios
