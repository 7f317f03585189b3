"""imsk benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {meeting,cuts,segment,train} \
        --seed N --seconds S --trace {0,1}

Inputs come from the seed; the program sees only the generated WAVs and
features. For S seconds the run repeats rounds of the same operations,
setting up the workload's models a few times before each round (reporting
the median set-up time); round 0 is the untimed reference, after which the
peak RSS is read. Then it checks
every output; a run with a failed operation exits with code 1. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the per-layer ones, from wrappers the tracer puts around
imsk's functions and layer objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import common

common.use_checkout_source()

import numpy as np  # noqa: E402

import imsk.asr.model as asr_model  # noqa: E402
import imsk.audio as audio  # noqa: E402
import imsk.beam as beam  # noqa: E402
import imsk.cli as cli  # noqa: E402
from imsk.asr import AsrModel, encoder_output_length  # noqa: E402

from selftest import check_self_tests  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_TIMED_ROUNDS = 2
PER_LAYER_TIMES = (
    "audio.load", "audio.mfcc", "audio.logmel", "audio.cmvn",
    "sad.network", "sad.viterbi", "sad.postprocess",
    "cli.segment",
    "asr.encode", "asr.vgg1", "asr.vgg2", "asr.blstm1", "asr.blstm2", "asr.blstm3",
    "beam.decode", "beam.search", "beam.ctc_prefix",
    "train.forward", "train.ctc_loss", "train.backward", "train.clip", "train.optim",
)
PER_LAYER_COUNTS = (
    ("audio.frames", "count"), ("sad.raw_segments", "count"), ("sad.segments", "count"),
    ("sad.speech_s", "s"), ("asr.encode_calls", "count"), ("asr.encoder_frames", "count"),
    ("beam.ctc_prefix_calls", "count"), ("beam.output_tokens", "count"),
    ("beam.capped", "count"),
)


def _frames(tr, args, kwargs, result):
    tr.count("audio.frames", result.num_frames)


def _encoded(tr, args, kwargs, result):
    tr.count("asr.encode_calls")
    tr.count("asr.encoder_frames", int(np.sum(result[1])))


def _decoded(tr, args, kwargs, result):
    feats = args[0]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg") or beam.DecodeConfig()
    for f, hyp in zip(feats, result):
        cap = int(encoder_output_length(f.num_frames) * cfg.max_ratio)
        tr.count("beam.output_tokens", len(hyp.output_ids))
        tr.count("beam.capped", int(len(hyp.output_ids) >= cap))


def _raw(tr, args, kwargs, result):
    tr.count("sad.raw_segments", len(result))


def _post(tr, args, kwargs, result):
    tr.count("sad.segments", len(result))
    tr.count("sad.speech_s", sum(e - s for s, e in result))


def _prefix(tr, args, kwargs, result):
    tr.count("beam.ctc_prefix_calls")


def install(tr: Tracer) -> None:
    """Wrap every public function the workloads reach, in each module
    namespace it is called through."""
    for mod in (audio, cli):
        tr.wrap(mod, "load_audio", "audio.load")
        tr.wrap(mod, "extract_logmel", "audio.logmel", _frames, skip_inside=("audio.mfcc",))
        tr.wrap(mod, "apply_cmvn", "audio.cmvn")
    tr.wrap(cli, "extract_mfcc", "audio.mfcc", _frames)
    tr.wrap(cli, "sad_posteriors", "sad.network")
    tr.wrap(cli, "viterbi_segments", "sad.viterbi", _raw)
    tr.wrap(cli, "postprocess", "sad.postprocess", _post)
    tr.wrap(cli, "load_artifacts", "cli.load_artifacts")
    tr.wrap(cli, "segment_recording", "cli.segment")
    tr.wrap(AsrModel, "encode_batch", "asr.encode", _encoded)
    for mod in (beam, cli):
        tr.wrap(mod, "decode_batch", "beam.decode", _decoded)
    tr.wrap(beam, "_search", "beam.search")
    tr.wrap(beam, "ctc_prefix_score_all", "beam.ctc_prefix", _prefix)
    tr.wrap(AsrModel, "hybrid_loss", "train.forward")
    tr.wrap(asr_model, "ctc_loss_op", "train.ctc_loss")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    out = {f"{n}_s": tr.seconds.get(n, 0.0) for n in PER_LAYER_TIMES}
    out["beam.search_other_s"] = out["beam.search_s"] - out["beam.ctc_prefix_s"]
    for name, _ in PER_LAYER_COUNTS:
        out[name] = tr.counts.get(name, 0.0)
    return out


def layer_units() -> dict[str, str]:
    units = {f"{n}_s": "s" for n in PER_LAYER_TIMES}
    units["beam.search_other_s"] = "s"
    units["cli.load_artifacts_s"] = "s"
    units.update(dict(PER_LAYER_COUNTS))
    return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description="imsk benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    common.set_mmap_threshold(common.MEASURE_MMAP)
    check_self_tests()
    tracer = Tracer()
    workdir = common.OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tracer, workdir)
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tracer: Tracer, workdir) -> int:
    wl = WORKLOADS[args.workload](args.seed, workdir, tracer)
    wl.make_inputs()
    if args.trace:
        install(tracer)

    # Round 0 is the untimed reference every later round must reproduce (in
    # a traced run also the untraced baseline for the overhead). It follows
    # one set-up, under the pinned mmap threshold, and the peak RSS is read
    # right after it: the memory of loading the models and running one
    # operation (see common.py). The set-ups of the timed rounds are spread
    # over the run, a few before every round, so their median rides out
    # slow spells of the host as the rounds' median does.
    setup_s, load_s = [], []
    rounds, per_round = [], []
    rss = None
    started = time.perf_counter()
    while len(rounds) < 1 + MIN_TIMED_ROUNDS or time.perf_counter() - started < args.seconds:
        for _ in range(wl.SETUPS_PER_ROUND if rounds else 1):
            gc.collect()
            tracer.reset()
            tracer.enabled = bool(args.trace)
            began = time.perf_counter()
            wl.setup()
            wl.warmup()
            if rounds:
                setup_s.append(time.perf_counter() - began)
                load_s.append(tracer.seconds.get("cli.load_artifacts", 0.0))
            tracer.enabled = False
        if args.trace:
            wl.instrument()
        # autograd graphs hold reference cycles; collecting them between
        # rounds starts every round from the same heap
        gc.collect()
        traced = bool(args.trace and rounds)
        tracer.reset()
        tracer.enabled = traced
        rounds.append(wl.round(len(rounds)))
        tracer.enabled = False
        if traced:
            per_round.append(layer_metrics(tracer))
        if rss is None:
            rss = peak_rss_mb()
            common.set_mmap_threshold(common.TIMED_MMAP, 2 * common.TIMED_MMAP)
    tracer.restore()

    reference = rounds[0]
    attempted = failed = 0
    for index, ops in enumerate(rounds):
        for position, op in enumerate(ops):
            problems = wl.check(index, position, op, reference)
            bad = wl.failed_items(problems)
            if problems:
                print(f"{args.workload}: round {index}: {problems[:3]}", flush=True)
            attempted += op.items
            failed += min(bad, op.items)
    if wl.report():
        print(wl.report(), flush=True)
    untested = wl.self_test(reference[0])
    for line in untested:
        print(f"self-test: {line}", flush=True)

    timed = [op for ops in rounds[1:] for op in ops]
    walls = [op.wall for op in timed]
    print(f"{args.workload}: {len(setup_s)} set-ups, {len(rounds) - 1} timed rounds, "
          f"{len(timed)} operations, median {statistics.median(walls):.4f} s", flush=True)
    if args.trace:
        untraced = statistics.median(op.wall for op in reference)
        print(f"{args.workload}: untraced round 0: median {untraced:.4f} s", flush=True)
        per = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        per["cli.load_artifacts_s"] = statistics.median(load_s)
        units = layer_units()
        metrics = {k: {"value": per[k], "unit": units[k]} for k in sorted(units)}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "rtf": {"value": statistics.median(op.wall / op.audio_s for op in timed), "unit": "s/s"},
            "step_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    correct = not untested and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
