"""One measured operation in a fresh interpreter: ``python3 child.py SPEC.json``.

SPEC holds ``src`` (directory holding the ``ldaselect`` package), ``config``
(config file path), ``mode`` and ``out`` (result JSON path), plus
``stages`` for mode ``stages``, ``lambdas`` for modes ``warm`` and ``sweep``,
and ``trace`` (bool).

Modes: ``run`` is one ``run_pipeline(config)``; ``stages`` is
``run_pipeline(config, stages)``; ``warm`` is ``run_pipeline(config)``
followed by ``sweep_lambda`` over ``lambdas``; ``sweep`` is ``sweep_lambda``
alone. The sweep runs without the config's hour budget, so the threshold
or the pool alone ends each selection; the stages it reuses up to
``cluster`` do not hash selection parameters, so they still hit the cache.

Everything before the timed call (interpreter start, ``import ldaselect``,
config load, manifest parsing) is set-up; the result records the monotonic
clock at which the timed call began, so the parent can measure set-up from
the moment it launched this process.
"""

import json
import os
import resource
import sys
import time
from dataclasses import replace


def _snapshot(work_dir: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(work_dir):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import ldaselect
    from ldaselect import pipeline

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        missing = tracer.install()
    run_pipeline = pipeline.run_pipeline
    sweep_lambda = pipeline.sweep_lambda
    if tracer is not None:
        run_pipeline = tracer.wrap(run_pipeline, "pipeline.run_pipeline")
        sweep_lambda = tracer.wrap(sweep_lambda, "pipeline.sweep_lambda")

    config = ldaselect.load_config(spec["config"])
    unbudgeted = replace(config, selection=replace(config.selection, max_hours=None))
    pool = ldaselect.read_manifest(config.paths.pool_manifest, role="pool")
    dev = ldaselect.read_manifest(config.paths.dev_manifest, role="dev")
    mode = spec["mode"]
    before = _snapshot(config.paths.work_dir) if os.path.isdir(config.paths.work_dir) else {}

    out: dict = {
        "pool_utterances": len(pool),
        "pool_frames": sum(u.num_frames for u in pool),
        "dev_utterances": len(dev),
        "dev_frames": sum(u.num_frames for u in dev),
    }
    cpu0 = time.process_time()
    t0 = time.monotonic()
    if mode == "run":
        result = run_pipeline(config)
    elif mode == "stages":
        result = run_pipeline(config, spec["stages"])
    elif mode == "warm":
        result = run_pipeline(config)
        out["sweep"] = sweep_lambda(unbudgeted, spec["lambdas"])
    elif mode == "sweep":
        result = None
        out["sweep"] = sweep_lambda(unbudgeted, spec["lambdas"])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    t1 = time.monotonic()
    cpu1 = time.process_time()

    after = _snapshot(config.paths.work_dir)
    out.update(
        op_start=t0,
        run_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        bytes_out=sum(size for p, (size, mt) in after.items() if before.get(p) != (size, mt)),
        skipped=dict(result.skipped) if result is not None else {},
    )
    if tracer is not None:
        out["spans"] = tracer.spans
        out["missing"] = missing
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
