"""Spans around calls into each ldaselect layer, and the metrics derived from them.

The benchmark wraps public functions where their callers look them up
(``pipeline`` imports ``select``, ``train_kmeans``, ``report`` and
``write_report_tsv`` by name; ``gmm`` imports ``kmeans_pp_indices``;
``train_lda`` and ``extract_posteriors`` find ``infer_document`` in ``lda``'s
globals). A span records name, start, end, parent and a few counts read from
the call's arguments and result. Spans stay in memory until the measured
process ends. A function that no longer exists is skipped, and the metrics
built from it are reported as absent.
"""

import importlib
import inspect
import time
from collections import defaultdict

STAGES = [
    "train-gmm", "quantize", "tfidf", "train-lda", "posteriors", "cluster", "select",
    "text-tfidf", "text-train-lda", "text-posteriors", "text-cluster", "text-select",
    "combine", "report",
]
LAYERS = ["pipeline", "corpus", "gmm", "docmodel", "lda", "kmeans", "selection", "report"]
LDA_CONTEXTS = ["acoustic.train", "acoustic.posteriors", "text.train", "text.posteriors"]


def _arg(sig, args, kwargs, name):
    bound = sig.bind_partial(*args, **kwargs).arguments
    if name in bound:
        return bound[name]
    return sig.parameters[name].default


def _read_features(sig, a, kw, out):
    return {"bytes": int(out.shape[0]) * int(out.shape[1]) * 4}


def _train_gmm(sig, a, kw, out):
    return {
        "frames": len(_arg(sig, a, kw, "frames")),
        "components": int(_arg(sig, a, kw, "n_components")),
        "iterations": int(out.n_iterations),
    }


def _quantize(sig, a, kw, out):
    return {"frames": len(_arg(sig, a, kw, "matrix"))}


def _weigh_document(sig, a, kw, out):
    return {"nnz": len(out.entries)}


def _iterations(sig, a, kw, out):
    return {"iterations": int(out.n_iterations)}


def _infer_document(sig, a, kw, out):
    sweeps = len(out.elbo_history)
    return {
        "sweeps": sweeps,
        "capped": int(sweeps == _arg(sig, a, kw, "max_iters")),
        "empty": int(len(_arg(sig, a, kw, "doc").entries) == 0),
    }


def _select(sig, a, kw, out):
    centroids = _arg(sig, a, kw, "centroids")
    return {
        "rows": len(_arg(sig, a, kw, "pool_posteriors")),
        "centroids": len(getattr(centroids, "centroids", centroids)),
        "passes": int(out.passes),
        "picks": len(out.selected),
    }


# (module, attribute, span name, extractor of counts)
WRAPPED = [
    ("ldaselect.corpus", "read_features", "corpus.read_features", _read_features),
    ("ldaselect.gmm", "train_gmm", "gmm.train_gmm", _train_gmm),
    ("ldaselect.gmm", "kmeans_pp_indices", "gmm.kmeans_pp_indices", None),
    ("ldaselect.gmm", "quantize", "gmm.quantize", _quantize),
    ("ldaselect.docmodel", "weigh_document", "docmodel.weigh_document", _weigh_document),
    ("ldaselect.docmodel", "compute_stats", "docmodel.compute_stats", None),
    ("ldaselect.lda", "train_lda", "lda.train_lda", _iterations),
    ("ldaselect.lda", "extract_posteriors", "lda.extract_posteriors", None),
    ("ldaselect.lda", "infer_document", "lda.infer_document", _infer_document),
    ("ldaselect.pipeline", "select", "selection.select", _select),
    ("ldaselect.pipeline", "train_kmeans", "kmeans.train_kmeans", _iterations),
    ("ldaselect.pipeline", "report", "report.report", None),
    ("ldaselect.pipeline", "write_report_tsv", "report.write_report_tsv", None),
]


class Tracer:
    """Records one span per wrapped call; ``spans`` is a list of dicts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, span_name, extract=None):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = {
                "name": span_name,
                "parent": self._stack[-1] if self._stack else -1,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                try:
                    span["counts"] = extract(sig, args, kwargs, out)
                except Exception as exc:  # a changed signature must not stop the run
                    span["extract_error"] = f"{type(exc).__name__}: {exc}"
            return out

        return wrapper

    def install(self) -> list[str]:
        """Wrap every function in ``WRAPPED`` that exists; return the missing."""
        missing = []
        for module_name, attr, span_name, extract in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span_name, extract))
        return missing


# ---------------------------------------------------------------------------
# Derived per-layer metrics

def metric_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    rows = []
    for stage in STAGES + ["sweep"]:
        rows += [
            (f"pipeline.{stage}.wall_s", "s", "lower"),
            (f"pipeline.{stage}.cpu_s", "s", "lower"),
            (f"pipeline.{stage}.peak_rss_mb", "MB", "lower"),
            (f"pipeline.{stage}.bytes_out", "B", "lower"),
        ]
    rows += [
        ("pipeline.cache_hit_ratio", "ratio", "higher"),
        ("corpus.read_features.calls", "count", "lower"),
        ("corpus.read_features.s", "s", "lower"),
        ("corpus.bytes_read", "B", "lower"),
        ("gmm.train_gmm.s", "s", "lower"),
        ("gmm.em_iterations", "count", "lower"),
        ("gmm.train_frames", "count", "lower"),
        ("gmm.estep_frame_components_per_s", "1/s", "higher"),
        ("gmm.kmeans_pp_indices.s", "s", "lower"),
        ("gmm.quantize.s", "s", "lower"),
        ("gmm.quantize.frames", "count", "lower"),
        ("docmodel.weigh_document.calls", "count", "lower"),
        ("docmodel.weigh_document.s", "s", "lower"),
        ("docmodel.compute_stats.s", "s", "lower"),
        ("docmodel.nnz", "count", "lower"),
    ]
    for path in ("acoustic", "text"):
        rows += [
            (f"lda.{path}.train_lda.s", "s", "lower"),
            (f"lda.{path}.em_iterations", "count", "lower"),
        ]
    for ctx in LDA_CONTEXTS:
        rows += [
            (f"lda.{ctx}.infer_document.calls", "count", "lower"),
            (f"lda.{ctx}.infer_document.s", "s", "lower"),
            (f"lda.{ctx}.doc_sweeps", "count", "lower"),
            (f"lda.{ctx}.doc_sweeps_per_s", "1/s", "higher"),
            (f"lda.{ctx}.docs_capped", "count", "lower"),
            (f"lda.{ctx}.empty_docs", "count", "lower"),
        ]
    rows += [
        ("lda.doc_sweeps_per_s", "1/s", "higher"),
        ("kmeans.train_kmeans.s", "s", "lower"),
        ("kmeans.iterations", "count", "lower"),
        ("selection.select.calls", "count", "lower"),
        ("selection.select.s", "s", "lower"),
        ("selection.passes", "count", "lower"),
        ("selection.picks", "count", "higher"),
        ("selection.pick_ratio", "ratio", "higher"),
        ("selection.rows_x_centroids_per_s", "1/s", "higher"),
        ("report.report.s", "s", "lower"),
        ("report.write_report_tsv.s", "s", "lower"),
    ]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


def _self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Calls are synchronous, so a span's children never overlap one another.
    """
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            own[s["parent"]] -= d
    return own


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced pass; absent metrics are left out.

    ``children`` are child results in run order, each with ``label`` (stage
    name or ``sweep``) and ``path`` (``acoustic`` or ``text``).
    """
    m: dict[str, float] = {}
    skipped: list[bool] = []
    for ch in children:
        pre = f"pipeline.{ch['label']}"
        m[f"{pre}.wall_s"] = ch["run_s"]
        m[f"{pre}.cpu_s"] = ch["cpu_s"]
        m[f"{pre}.peak_rss_mb"] = ch["peak_rss_mb"]
        m[f"{pre}.bytes_out"] = ch["bytes_out"]
        skipped += list(ch["skipped"].values())
    if skipped:
        m["pipeline.cache_hit_ratio"] = sum(skipped) / len(skipped)

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)

    def add(key, span, self_s):
        calls[key] += 1
        total[key] += span["end"] - span["start"]
        own[key] += self_s
        for k, v in span.get("counts", {}).items():
            counts[f"{key}/{k}"] += v

    for ch in children:
        spans = ch.get("spans", [])
        selfs = _self_times(spans)
        for span, self_s in zip(spans, selfs):
            name = span["name"]
            layer_self[name.split(".")[0]] += self_s
            if name == "lda.train_lda":
                add(f"lda.{ch['path']}.train_lda", span, self_s)
            elif name == "lda.infer_document":
                parent = spans[span["parent"]]["name"] if span["parent"] >= 0 else ""
                phase = {"lda.train_lda": "train", "lda.extract_posteriors": "posteriors"}
                if parent in phase:
                    add(f"lda.{ch['path']}.{phase[parent]}", span, self_s)
                add("lda.infer_document", span, self_s)
            elif name == "gmm.train_gmm":
                add(name, span, self_s)
                c = span.get("counts", {})
                if c:
                    counts["gmm/frame_components"] += (
                        c["frames"] * c["components"] * c["iterations"]
                    )
            elif name == "selection.select":
                add(name, span, self_s)
                c = span.get("counts", {})
                if c:
                    counts["selection/visits"] += c["passes"] * c["centroids"]
                    counts["selection/rows_x_centroids"] += c["rows"] * c["centroids"]
            else:
                add(name, span, self_s)

    def put(name, key, value):
        if calls.get(key):
            m[name] = value

    put("corpus.read_features.calls", "corpus.read_features", calls["corpus.read_features"])
    put("corpus.read_features.s", "corpus.read_features", total["corpus.read_features"])
    put("corpus.bytes_read", "corpus.read_features", counts["corpus.read_features/bytes"])
    g = "gmm.train_gmm"
    put("gmm.train_gmm.s", g, total[g])
    put("gmm.em_iterations", g, counts[f"{g}/iterations"])
    put("gmm.train_frames", g, counts[f"{g}/frames"])
    if calls.get(g) and own[g] > 0 and counts["gmm/frame_components"]:
        m["gmm.estep_frame_components_per_s"] = counts["gmm/frame_components"] / own[g]
    put("gmm.kmeans_pp_indices.s", "gmm.kmeans_pp_indices", total["gmm.kmeans_pp_indices"])
    put("gmm.quantize.s", "gmm.quantize", total["gmm.quantize"])
    put("gmm.quantize.frames", "gmm.quantize", counts["gmm.quantize/frames"])
    w = "docmodel.weigh_document"
    put(f"{w}.calls", w, calls[w])
    put(f"{w}.s", w, total[w])
    put("docmodel.nnz", w, counts[f"{w}/nnz"])
    put("docmodel.compute_stats.s", "docmodel.compute_stats", total["docmodel.compute_stats"])
    for path in ("acoustic", "text"):
        key = f"lda.{path}.train_lda"
        put(f"{key}.s", key, total[key])
        put(f"lda.{path}.em_iterations", key, counts[f"{key}/iterations"])
    for ctx in LDA_CONTEXTS:
        key = f"lda.{ctx}"
        put(f"{key}.infer_document.calls", key, calls[key])
        put(f"{key}.infer_document.s", key, total[key])
        put(f"{key}.doc_sweeps", key, counts[f"{key}/sweeps"])
        if calls.get(key) and total[key] > 0:
            m[f"{key}.doc_sweeps_per_s"] = counts[f"{key}/sweeps"] / total[key]
        put(f"{key}.docs_capped", key, counts[f"{key}/capped"])
        put(f"{key}.empty_docs", key, counts[f"{key}/empty"])
    i = "lda.infer_document"
    if calls.get(i) and own[i] > 0:
        m["lda.doc_sweeps_per_s"] = counts[f"{i}/sweeps"] / own[i]
    put("kmeans.train_kmeans.s", "kmeans.train_kmeans", total["kmeans.train_kmeans"])
    put("kmeans.iterations", "kmeans.train_kmeans", counts["kmeans.train_kmeans/iterations"])
    s = "selection.select"
    put(f"{s}.calls", s, calls[s])
    put(f"{s}.s", s, total[s])
    put("selection.passes", s, counts[f"{s}/passes"])
    put("selection.picks", s, counts[f"{s}/picks"])
    if calls.get(s) and counts["selection/visits"]:
        m["selection.pick_ratio"] = counts[f"{s}/picks"] / counts["selection/visits"]
    if calls.get(s) and own[s] > 0 and counts["selection/rows_x_centroids"]:
        m["selection.rows_x_centroids_per_s"] = counts["selection/rows_x_centroids"] / own[s]
    put("report.report.s", "report.report", total["report.report"])
    put("report.write_report_tsv.s", "report.write_report_tsv", total["report.write_report_tsv"])
    for layer, value in layer_self.items():
        if layer in LAYERS:
            m[f"{layer}.self_s"] = value
    return m
