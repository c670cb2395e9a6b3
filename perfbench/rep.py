"""One repetition: a single ``run_pipeline`` call in a fresh interpreter.

Usage: rep.py CONFIG_JSON LAUNCH_TIME TRACE RESULT_JSON

LAUNCH_TIME is the parent's ``time.monotonic()`` just before it started this
process, so the import window includes interpreter start. With TRACE=1 every
layer boundary is wrapped (see spans.py); with TRACE=0 only the three
corpus-independent loads are, which fire once per run. Between the import
and the call the process times the reference job in probe.py.
"""

import sys
import time

config_path, launch, trace, result_path = sys.argv[1:5]

import lha.pipeline  # noqa: E402

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402


def main() -> None:
    tracer = spans.Tracer()
    if trace == "1":
        spans.install(tracer)
    else:
        spans.install_setup_loads(tracer)
    with open(config_path, encoding="utf-8") as fh:
        config = lha.pipeline.PipelineConfig(**json.load(fh))
    probe_s = probe.probe(config.word_vectors)
    start = spans.clock()
    summary = lha.pipeline.run_pipeline(config)
    end = spans.clock()
    result = {
        "setup_s": imported - float(launch)
        + sum(tracer.seconds[name] for _, name in spans.SETUP_LOADS),
        "run_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cached_stages": summary.cached_stages,
        "probe_s": probe_s,
    }
    if trace == "1":
        lines = tracer.stage_lines + [(end, "")]
        result.update(
            calls=tracer.calls,
            seconds=tracer.seconds,
            self_seconds=tracer.self_seconds,
            counts=tracer.counts,
            stages={name: lines[i + 1][0] - t for i, (t, name) in enumerate(lines[:-1])},
            spans=tracer.spans,
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
