"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of fbclab's modules from
outside the package: each wrapped call records a span (run id, span id,
parent span id, name, start, end) and adds its duration to per-name totals.
A span's self time is its duration minus the time covered by its direct
child spans. Spans stay in memory and are written out once, when the run
ends. Nothing is wrapped until `install()` is called, and `uninstall()` puts
every original back, so untraced calls run the package exactly as shipped.

Besides spans, a few hooks count work where it happens: Tensor
constructions, matmul multiply-accumulates made inside the encoder, Viterbi
codewords and trellis steps, HARQ sessions and acknowledgements, and bytes
written by the result writers.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from fbclab import afc, autodiff, channel, convcode, experiments, harq, layers, per, training

_WRITE = "experiments.write"

# (owner, attribute, span name). Module-level functions are re-bound in every
# fbclab module that imported them by name, so call sites that use a
# `from .x import f` binding are traced too.
_METHODS = [
    (training.Adam, "step", "training.optimizer"),
    (afc.AfcModel, "encode_round_graph", "afc.encode"),
    (afc.AfcModel, "generate_feedback_graph", "afc.feedback"),
    (afc.AfcModel, "decode_graph", "afc.decode"),
    (afc.AfcModel, "snr_embed_graph", "afc.snr_embed"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff.Tensor, "__matmul__", "autodiff.matmul"),
    (layers.Linear, "__call__", "layers.linear"),
    (layers.LayerNorm, "__call__", "layers.layernorm"),
    (layers.SelfAttention, "__call__", "layers.attention"),
    (layers.FeedForward, "__call__", "layers.feedforward"),
    (layers.SnrMlp, "__call__", "layers.snr_mlp"),
]
_FUNCTIONS = [
    (experiments, "run_experiment", "experiments.run_experiment"),
    (afc, "session_graph", "afc.session"),
    (afc, "block_cross_entropy", "afc.loss"),
    (channel, "sample_trace_kind", "channel.trace_sample"),
    (channel, "trace_value_at", "channel.trace_lookup"),
    (convcode, "viterbi_decode_batch", "convcode.viterbi"),
    (harq, "crc16", "harq.crc"),
    (harq, "conv_encode_batch", "harq.encode"),
    (harq, "harq_cc_trial_batch", "harq.trial_batch"),
    (per, "measure_per", "per.measure_per"),
    (experiments, "write_json", _WRITE),
    (per, "write_per_csv", _WRITE),
    (training, "write_history_csv", _WRITE),
    (afc, "save_checkpoint", _WRITE),
]

# Phases of the codec are reported as inclusive span time; every other layer
# as self time.
_INCLUSIVE = {"afc.encode", "afc.feedback", "afc.decode"}


def matmul_macs(a_shape: tuple, b_shape: tuple) -> int:
    """Multiply-accumulates of numpy `a @ b` for operands of at least 2-D."""
    batch = math.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]))
    return batch * a_shape[-2] * a_shape[-1] * b_shape[-1]


class Tracer:
    """Spans and counts for one traced process; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._saved: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def begin(self, run_id: str) -> None:
        """Start a new traced call: per-call totals restart from zero."""
        self.run_id = run_id
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, 0.0, 0.0]
            stack.append(frame)
            tracer._depth[name] += 1
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._depth[name] -= 1
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((tracer.run_id, span_id, parent, name, frame[2], end))
                tracer.self_s[name] += duration - frame[3]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _count_matmul(self, args, result):
        if self._depth["afc.encode"] > 0:
            a, b = args[0].data, getattr(args[1], "data", args[1])
            self.counts["encoder_macs"] += matmul_macs(a.shape, b.shape)

    def _count_viterbi(self, args, result):
        batch, length = args[0].shape
        self.counts["viterbi_codewords"] += batch
        self.counts["viterbi_trellis_steps"] += batch * (length // convcode.RATE_INV)

    def _count_harq(self, args, result):
        self.counts["harq_sessions"] += int(result.size)
        self.counts["harq_acked"] += int(result.sum())

    def _count_written(self, args, result):
        path = next(a for a in args if isinstance(a, (str, os.PathLike)))
        self.counts["bytes_written"] += os.path.getsize(path)

    def _wrap_trial(self, args):
        return (self.wrap("per.trial", args[0]),) + tuple(args[1:])

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tensor_init = autodiff.Tensor.__init__
        counts, depth = self.counts, self._depth

        def counted_init(obj, *args, **kwargs):
            # Only tensors made while a session or its loss is built: the tape.
            if depth["afc.session"] or depth["afc.loss"]:
                counts["tensors"] += 1
            tensor_init(obj, *args, **kwargs)

        self._set(autodiff.Tensor, "__init__", counted_init)
        after = {
            "autodiff.matmul": self._count_matmul,
            "convcode.viterbi": self._count_viterbi,
            "harq.trial_batch": self._count_harq,
            _WRITE: self._count_written,
        }
        for owner, attr, name in _METHODS:
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), after=after.get(name)))
        for home, attr, name in _FUNCTIONS:
            original = getattr(home, attr)
            before = self._wrap_trial if name == "per.measure_per" else None
            wrapper = self.wrap(name, original, before=before, after=after.get(name))
            for module in _fbclab_modules():
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans as gzip CSV: run_id,span_id,parent_id,name,start_s,end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


def _fbclab_modules():
    return [m for n, m in list(sys.modules.items()) if n == "fbclab" or n.startswith("fbclab.")]


def per_layer_counts(snapshot: dict, sessions: int, analytic_flops: int) -> dict[str, float]:
    """Count metrics of one traced call; all repeat exactly for a given seed."""
    calls, counts = snapshot["calls"], snapshot["counts"]
    codewords = counts.get("viterbi_codewords", 0)
    harq_sessions = counts.get("harq_sessions", 0)
    steps = calls.get("training.optimizer", 0) or calls.get("per.trial", 0)
    measured = 2 * counts.get("encoder_macs", 0) / sessions
    return {
        "afc.encode_calls": calls.get("afc.encode", 0),
        "afc.feedback_calls": calls.get("afc.feedback", 0),
        "afc.snr_embed_calls": _ratio(calls.get("afc.snr_embed", 0), calls.get("afc.session", 0)),
        "afc.encoder_flops_measured": measured,
        "afc.encoder_flops_analytic": analytic_flops,
        "afc.encoder_flops_ratio": _ratio(measured, analytic_flops),
        "autodiff.tensors_per_step": _ratio(counts.get("tensors", 0), steps),
        "autodiff.matmul_calls": calls.get("autodiff.matmul", 0),
        "layers.linear_calls": calls.get("layers.linear", 0),
        "layers.layernorm_calls": calls.get("layers.layernorm", 0),
        "layers.attention_calls": calls.get("layers.attention", 0),
        "layers.feedforward_calls": calls.get("layers.feedforward", 0),
        "layers.snr_mlp_calls": calls.get("layers.snr_mlp", 0),
        "channel.trace_sample_calls": calls.get("channel.trace_sample", 0),
        "channel.trace_lookup_calls": calls.get("channel.trace_lookup", 0),
        "convcode.viterbi_codewords": codewords,
        "harq.crc_calls": calls.get("harq.crc", 0),
        "harq.decodes_per_session": _ratio(codewords, harq_sessions),
        "harq.ack_yield": _ratio(counts.get("harq_acked", 0), codewords),
        "per.trial_batches": calls.get("per.trial", 0),
        "experiments.bytes_written": counts.get("bytes_written", 0),
    }


def per_layer_times(snapshot: dict) -> dict[str, float]:
    """Time metrics of one traced call, in seconds (ns for the Viterbi step)."""
    t = {
        name: snapshot["total_s"][name] if name in _INCLUSIVE else value
        for name, value in snapshot["self_s"].items()
    }
    steps = snapshot["counts"].get("viterbi_trellis_steps", 0)
    return {
        "training.optimizer_s": t.get("training.optimizer", 0.0),
        "afc.encode_s": t.get("afc.encode", 0.0),
        "afc.feedback_s": t.get("afc.feedback", 0.0),
        "afc.decode_s": t.get("afc.decode", 0.0),
        "afc.loss_s": t.get("afc.loss", 0.0),
        "autodiff.backward_s": t.get("autodiff.backward", 0.0),
        "autodiff.matmul_s": t.get("autodiff.matmul", 0.0),
        "layers.linear_s": t.get("layers.linear", 0.0),
        "layers.layernorm_s": t.get("layers.layernorm", 0.0),
        "layers.attention_s": t.get("layers.attention", 0.0),
        "layers.feedforward_s": t.get("layers.feedforward", 0.0),
        "layers.snr_mlp_s": t.get("layers.snr_mlp", 0.0),
        "channel.trace_sample_s": t.get("channel.trace_sample", 0.0),
        "channel.trace_lookup_s": t.get("channel.trace_lookup", 0.0),
        "convcode.viterbi_s": t.get("convcode.viterbi", 0.0),
        "convcode.viterbi_ns_per_trellis_step": _ratio(
            1e9 * t.get("convcode.viterbi", 0.0), steps
        ),
        "harq.crc_s": t.get("harq.crc", 0.0),
        "harq.encode_s": t.get("harq.encode", 0.0),
        "per.self_s": t.get("per.measure_per", 0.0),
        "experiments.write_s": t.get(_WRITE, 0.0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def encoder_flops_crosscheck(config, sessions: int = 4, seed: int = 0) -> tuple[float, int]:
    """(measured, analytic) encoder FLOPs per session for one codec config.

    Runs one inference batch of `sessions` sessions, each with its own SNR
    per round as the analytic count assumes, with matmul counting on, and
    returns 2 x the multiply-accumulates made inside encode_round_graph per
    session next to afc.encoder_session_flops(config).
    """
    model = afc.AfcModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (sessions, config.k))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("flops")
        with autodiff.no_grad():
            afc.session_graph(model, bits, np.full((sessions, config.rounds), 4.0), rng)
    finally:
        tracer.uninstall()
    return 2 * tracer.counts["encoder_macs"] / sessions, afc.encoder_session_flops(config)
