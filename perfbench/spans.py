"""Span tracer for the benchmark's traced run.

The tracer replaces module attributes of the library with wrappers that
record one span (name, start, end, parent) per call, plus counts read
from the call's result, and puts the originals back on exit.  A wrapper
passes its arguments through and returns the original's result
unchanged, so data rows are the same with tracing on or off.

Spans are recorded from the benchmark's side of each call.  Functions the
library imports by name (``linksim.modulate``, ``detect.demap_llr``) are
wrapped in the importing module, and ``FixtureConfig.channels`` on the
class, because that is where the calls look them up.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

from mpnlsim import channel, detect, fec, linksim, search


class Tracer:
    """In-memory spans and counts for one traced phase."""

    def __init__(self):
        self.spans = []                  # (name, start, end, parent index)
        self.counts = defaultdict(float)
        self.channels_simulated = set()  # (enclosing span, channel index)
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, idx, args, kwargs, out)
            return out
        return traced

    def totals(self) -> dict:
        """Inclusive seconds and call counts per span name, plus counts."""
        t = defaultdict(float, self.counts)
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            t[name + "_s"] += end - start
            t[name + "_calls"] += 1
            if parent >= 0:
                child_s[parent] += end - start
                if name == "fec.syndrome" and \
                        self.spans[parent][0] == "fec.decode":
                    t["fec.syndrome_in_decode"] += 1
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == "linksim.slot":
                t["linksim.slot_self_s"] += end - start - child_s[i]
        t["search.channels_simulated"] = len(self.channels_simulated)
        return t


def _count_decode(tr, idx, args, kwargs, out):
    conv = np.atleast_1d(out[1])
    tr.counts["fec.decode_words"] += conv.size
    tr.counts["fec.converged"] += int(conv.sum())


def _count_encode(tr, idx, args, kwargs, out):
    tr.counts["fec.encode_words"] += 1 if out.ndim == 1 else out.shape[0]


def _count_plan(tr, idx, args, kwargs, out):
    tr.counts["detect.plan_res"] += out.batch


def _count_search(tr, idx, args, kwargs, out):
    b, p, _ = out[0].shape
    tr.counts["detect.search_res"] += b
    tr.counts["detect.paths"] += b * p


def _count_linear(tr, idx, args, kwargs, out):
    tr.counts["detect.linear_res"] += out[0].shape[0]


def _count_slot(tr, idx, args, kwargs, out):
    chan = kwargs["chan_idx"] if "chan_idx" in kwargs else args[3]
    tr.counts["linksim.frames"] += out.shape[0]
    tr.counts["linksim.blocks"] += out.size
    tr.counts["linksim.block_errors"] += int((~out).sum())
    tr.channels_simulated.add((tr.spans[idx][3], int(chan)))


def _count_per(tr, idx, args, kwargs, out):
    tr.counts["linksim.per_frames"] += out.frames


def _count_fixture(tr, idx, args, kwargs, out):
    tr.counts["search.channels_generated"] += len(out[0])


# (owner, attribute, span name, counter)
TARGETS = (
    (fec, "decode_rate_matched", "fec.decode", _count_decode),
    (fec, "ldpc_syndrome", "fec.syndrome", None),
    (fec, "encode_rate_matched", "fec.encode", _count_encode),
    (detect, "mpnl_plan_batch", "detect.plan", _count_plan),
    (detect, "mpnl_detect_batch", "detect.search", _count_search),
    (detect, "_candidate_llrs_batch", "detect.llr", None),
    (detect, "linear_detect_batch", "detect.linear", _count_linear),
    (detect, "demap_llr", "core.demap", None),
    (linksim, "modulate", "core.modulate", None),
    (linksim, "simulate_frames", "linksim.slot", _count_slot),
    (linksim, "estimate_channel_ls", "linksim.csi", None),
    (linksim, "measure_per", "linksim.per", _count_per),
    (channel, "tdl_generate", "channel.tdl", None),
    (channel, "calibrate_noise", "channel.noise", None),
    (search, "min_antennas", "search.cell", None),
    (search.FixtureConfig, "channels", "search.fixture", _count_fixture),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, count))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_reuse", "_evaluated")):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: dict, overhead_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics from combined totals; 0 where a layer did not run."""
    t = defaultdict(float, t)
    return {
        "fec.decode_s": t["fec.decode_s"],
        "fec.decode_words": t["fec.decode_words"],
        "fec.syndrome_s": t["fec.syndrome_s"],
        "fec.syndrome_calls": t["fec.syndrome_calls"],
        # one syndrome per decode call checks the channel hard decision
        "fec.decode_iters": t["fec.syndrome_in_decode"]
        - t["fec.decode_calls"],
        "fec.converged_ratio": _ratio(t["fec.converged"],
                                      t["fec.decode_words"]),
        "fec.encode_s": t["fec.encode_s"],
        "fec.encode_words": t["fec.encode_words"],
        "detect.plan_s": t["detect.plan_s"],
        "detect.plan_res": t["detect.plan_res"],
        "detect.search_s": t["detect.search_s"],
        "detect.search_res": t["detect.search_res"],
        "detect.paths": t["detect.paths"],
        "detect.llr_s": t["detect.llr_s"],
        "detect.linear_s": t["detect.linear_s"],
        "detect.linear_res": t["detect.linear_res"],
        "detect.plan_reuse": _ratio(t["detect.search_res"],
                                    t["detect.plan_res"]),
        "core.modulate_s": t["core.modulate_s"],
        "core.demap_s": t["core.demap_s"],
        "linksim.slot_s": t["linksim.slot_s"],
        "linksim.slot_self_s": t["linksim.slot_self_s"],
        "linksim.csi_s": t["linksim.csi_s"],
        "linksim.frames": t["linksim.frames"],
        "linksim.blocks": t["linksim.blocks"],
        "linksim.block_errors": t["linksim.block_errors"],
        "linksim.per_s": t["linksim.per_s"],
        "linksim.per_frames": t["linksim.per_frames"],
        "channel.tdl_s": t["channel.tdl_s"],
        "channel.grids": t["channel.tdl_calls"],
        "channel.noise_s": t["channel.noise_s"],
        "search.cell_s": t["search.cell_s"],
        "search.cells": t["search.cell_calls"],
        "search.m_evaluated": _ratio(t["linksim.per_calls"],
                                     t["search.cell_calls"]),
        "search.fixture_s": t["search.fixture_s"],
        "search.channels_generated": t["search.channels_generated"],
        "search.channels_simulated": t["search.channels_simulated"],
        "search.channel_use_ratio": _ratio(t["search.channels_simulated"],
                                           t["search.channels_generated"]),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_ratio,
    }
