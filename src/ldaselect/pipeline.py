"""End-to-end orchestration: staged artifacts, content-hash caching, locking.

Stages run in a fixed order (mixture training, quantization, weighting, topic
model, posteriors, clustering, selection, optional transcript path and union,
report). Every stage writes its artifacts into the work directory before the
next begins, and is skipped on re-runs when its inputs, parameters and output
names hash to the same key as the cached entry.
"""

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import corpus, docmodel, gmm, lda
from .config import (
    PipelineConfig, text_lda_params, text_select_params, validate_config,
)
from .errors import LdaSelectError, StageError, ValidationError
from .kmeans import train_kmeans
from .report import render_report, report, write_report_tsv
from .selection import (
    SelectionResult, centroid_id, read_audit, select, union_combine, write_audit,
)

log = logging.getLogger(__name__)

ACOUSTIC_STAGES = [
    "train-gmm", "quantize", "tfidf", "train-lda", "posteriors", "cluster", "select",
]
TEXT_STAGES = [
    "text-tfidf", "text-train-lda", "text-posteriors", "text-cluster",
    "text-select", "combine",
]


def stage_order(text_enabled: bool) -> list[str]:
    return ACOUSTIC_STAGES + (TEXT_STAGES if text_enabled else []) + ["report"]


def _twin(stage: str, text: bool) -> tuple[str, str]:
    """Name and artifact prefix of an acoustic stage or of its text twin."""
    return (f"text-{stage}", "text_") if text else (stage, "")


def _log_sweeps(stage: str, which: str, sweeps: np.ndarray, max_iters: int) -> None:
    """Report documents that hit the inference sweep cap (a warning) and
    empty documents, whose posterior is the prior alpha."""
    capped = int(np.count_nonzero(sweeps >= max_iters))
    log.log(
        logging.WARNING if capped else logging.INFO,
        "stage %s: %d of %d %s documents hit doc_max_iterations=%d; %d empty",
        stage, capped, sweeps.size, which, max_iters, int(np.count_nonzero(sweeps == 0)),
    )


def write_selection_manifest(
    result: SelectionResult, pool_manifest: corpus.Manifest, path
) -> None:
    """Manifest of the selected utterances, reusable as a training manifest.

    Paths are made absolute so the manifest is valid from any directory.
    """
    by_id = pool_manifest.by_id()
    base = pool_manifest.base_dir
    utts = []
    for s in result.selected:
        if s.utt_id not in by_id:
            raise ValidationError(f"utterance '{s.utt_id}' is not in the pool manifest")
        u = by_id[s.utt_id]
        utts.append(
            replace(
                u,
                feature_path=str(corpus.resolve_path(u.feature_path, base)),
                transcript_path=(
                    str(corpus.resolve_path(u.transcript_path, base))
                    if u.transcript_path else None
                ),
            )
        )
    corpus.write_manifest(
        corpus.Manifest(utts, role="pool", fps=pool_manifest.fps), path
    )


@dataclass
class PipelineResult:
    selection: SelectionResult
    artifacts: dict[str, Path] = field(default_factory=dict)
    skipped: dict[str, bool] = field(default_factory=dict)


class WorkDirLock:
    """Exclusive ownership of a work directory via an O_EXCL lock file."""

    def __init__(self, work_dir):
        self.path = Path(work_dir) / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StageError(
                "lock",
                f"work dir is locked ({self.path}); remove the stale lock file "
                "if no other run is active",
            ) from None
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


class Runner:
    """Executes pipeline stages against one work directory."""

    def __init__(self, config: PipelineConfig):
        validate_config(config)
        self.config = config
        self.work = Path(config.paths.work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.cache_path = self.work / "cache.json"
        self.cache: dict = {}
        if self.cache_path.is_file():
            try:
                self.cache = json.loads(self.cache_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                log.warning("ignoring corrupt cache file %s", self.cache_path)
        self.skipped: dict[str, bool] = {}
        self.artifacts: dict[str, Path] = {}
        self.manifests = {
            "dev": corpus.read_manifest(config.paths.dev_manifest, role="dev"),
            "pool": corpus.read_manifest(config.paths.pool_manifest, role="pool"),
        }
        self.pool = self.manifests["pool"]
        self._digests: dict = {}

    # -- caching machinery ------------------------------------------------

    @staticmethod
    def _sources(spec: str) -> list[str]:
        """The corpora a ``dev``/``pool``/``dev+pool`` setting names, dev first."""
        return [which for which in ("dev", "pool") if which in spec.split("+")]

    def _digest_manifest(self, which: str, transcripts: bool = False) -> str:
        memo = (which, transcripts)
        if memo in self._digests:
            return self._digests[memo]
        manifest = self.manifests[which]
        h = hashlib.sha256()
        h.update(Path(getattr(self.config.paths, f"{which}_manifest")).read_bytes())
        for utt in manifest:
            h.update(utt.id.encode())
            if transcripts:
                if utt.transcript_path:
                    p = corpus.resolve_path(utt.transcript_path, manifest.base_dir)
                    if p.is_file():
                        h.update(p.read_bytes())
            else:
                p = corpus.resolve_path(utt.feature_path, manifest.base_dir)
                if not p.is_file():
                    raise StageError(
                        "inputs", f"missing feature file for '{utt.id}': {p}"
                    )
                h.update(p.read_bytes())
        digest = h.hexdigest()
        self._digests[memo] = digest
        return digest

    def _artifact(self, name: str) -> Path:
        return self.work / name

    def _run_stage(
        self, name: str, inputs: list[str], key_parts: list, outputs: list[str], fn
    ) -> None:
        """Run ``fn(*output paths)`` unless the cached key of the stage's input
        artifacts, ``key_parts`` and output names matches."""
        h = hashlib.sha256(name.encode())
        for art in inputs:
            path = self._artifact(art)
            if not path.is_file():
                raise StageError(
                    name, f"missing input artifact '{art}'; run earlier stages first"
                )
            h.update(path.read_bytes())
        for part in key_parts:
            if isinstance(part, Path):
                h.update(part.read_bytes())
            else:
                h.update(str(part).encode())
        h.update(repr(outputs).encode())
        key = h.hexdigest()
        out_paths = [self._artifact(o) for o in outputs]
        for o, p in zip(outputs, out_paths):
            self.artifacts[o] = p
        entry = self.cache.get(name)
        if entry and entry.get("key") == key and all(p.is_file() for p in out_paths):
            log.info("stage %s: skipped (cached)", name)
            self.skipped[name] = True
            return
        log.info("stage %s: running", name)
        try:
            fn(*out_paths)
        except StageError:
            raise
        except (LdaSelectError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
        for p in out_paths:
            if not p.is_file():
                raise StageError(name, f"stage did not produce expected output {p}")
        self.skipped[name] = False
        self.cache[name] = {"key": key, "outputs": outputs}
        self.cache_path.write_text(
            json.dumps(self.cache, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    # -- acoustic stages --------------------------------------------------

    def stage_train_gmm(self) -> None:
        q = self.config.quantizer

        def fn(out_model: Path) -> None:
            mats = []
            dim = None
            for which in self._sources(q.train_source):
                manifest = self.manifests[which]
                for utt in manifest:
                    if dim is None:
                        dim = utt.frame_dim
                    elif utt.frame_dim != dim:
                        raise ValidationError(
                            f"frame_dim mismatch: '{utt.id}' has {utt.frame_dim}, "
                            f"expected {dim}"
                        )
                    mats.append(corpus.read_features(utt, manifest.base_dir))
            if not mats:
                raise ValidationError("no training frames available")
            X = np.concatenate([m for m in mats if m.shape[0] > 0], axis=0)
            if X.shape[0] > q.max_train_frames:
                rng = np.random.default_rng(q.seed)
                keep = np.sort(
                    rng.choice(X.shape[0], size=q.max_train_frames, replace=False)
                )
                X = X[keep]
            model = gmm.train_gmm(X, q.n_components, q.gmm_config())
            gmm.save_gmm(model, out_model)

        self._run_stage(
            "train-gmm", [],
            [repr(q)] + [self._digest_manifest(w) for w in self._sources(q.train_source)],
            ["gmm.agmm"],
            fn,
        )

    def stage_quantize(self) -> None:
        def fn(out_pool: Path, out_dev: Path) -> None:
            model = gmm.load_gmm(self._artifact("gmm.agmm"))
            for manifest, out in ((self.pool, out_pool), (self.manifests["dev"], out_dev)):
                tokens = [
                    gmm.quantize(model, corpus.read_features(utt, manifest.base_dir))
                    for utt in manifest
                ]
                gmm.write_quantized(manifest.ids(), tokens, out)

        self._run_stage(
            "quantize", ["gmm.agmm"],
            [self._digest_manifest(w) for w in self._sources("dev+pool")],
            ["quantized_pool.tsv", "quantized_dev.tsv"],
            fn,
        )

    def _write_tfidf(self, tokens: dict, vocab_size: int, out_pool: Path, out_dev: Path):
        """Weighted documents from ``tokens[which] = (ids, token sequences)``,
        with idf over the configured ``docmodel.idf_source`` corpora."""
        bags = {
            which: docmodel.bag_of_words(*tokens[which], vocab_size)
            for which in ("dev", "pool")
        }
        stats = docmodel.compute_stats(
            [bags[w] for w in self._sources(self.config.docmodel.idf_source)], vocab_size
        )
        for which, out in (("pool", out_pool), ("dev", out_dev)):
            docmodel.write_weighted(docmodel.tfidf(bags[which], stats), out)

    def stage_tfidf(self) -> None:
        vocab_size = self.config.quantizer.n_components

        def fn(out_pool: Path, out_dev: Path) -> None:
            tokens = {
                which: gmm.read_quantized(self._artifact(f"quantized_{which}.tsv"))
                for which in ("dev", "pool")
            }
            self._write_tfidf(tokens, vocab_size, out_pool, out_dev)

        self._run_stage(
            "tfidf", ["quantized_pool.tsv", "quantized_dev.tsv"],
            [self.config.docmodel.idf_source, vocab_size],
            ["weighted_pool.tsv", "weighted_dev.tsv"],
            fn,
        )

    def stage_train_lda(self, text: bool = False) -> None:
        name, prefix = _twin("train-lda", text)
        params = text_lda_params(self.config) if text else self.config.lda

        def fn(out_model: Path) -> None:
            docs = docmodel.DocBatch.concat(
                docmodel.read_weighted(self._artifact(f"{prefix}weighted_{which}.tsv"))
                for which in self._sources(params.train_source)
            )
            vocab_size = (
                self._text_vocab_size() if text else self.config.quantizer.n_components
            )
            model = lda.train_lda(
                docs, params.n_topics, vocab_size, config=params.lda_config()
            )
            _log_sweeps(name, "training", model.doc_sweeps, params.doc_max_iterations)
            lda.save_lda(model, out_model)

        self._run_stage(
            name, [f"{prefix}weighted_pool.tsv", f"{prefix}weighted_dev.tsv"],
            [repr(params)],
            [f"{prefix}lda.alda"],
            fn,
        )

    def stage_posteriors(self, text: bool = False) -> None:
        name, prefix = _twin("posteriors", text)
        params = self.config.lda

        def fn(out_pool: Path, out_dev: Path) -> None:
            model = lda.load_lda(self._artifact(f"{prefix}lda.alda"))
            for which, out in (("pool", out_pool), ("dev", out_dev)):
                docs = docmodel.read_weighted(
                    self._artifact(f"{prefix}weighted_{which}.tsv")
                )
                posts, sweeps = lda.extract_posteriors(
                    model, docs, tol=params.doc_tol, max_iters=params.doc_max_iterations
                )
                _log_sweeps(name, which, sweeps, params.doc_max_iterations)
                lda.write_posteriors(posts, out)

        self._run_stage(
            name,
            [f"{prefix}lda.alda", f"{prefix}weighted_pool.tsv", f"{prefix}weighted_dev.tsv"],
            [params.doc_tol, params.doc_max_iterations],
            [f"{prefix}post_pool.tsv", f"{prefix}post_dev.tsv"],
            fn,
        )

    def stage_cluster(self, text: bool = False) -> None:
        name, prefix = _twin("cluster", text)
        c = self.config.cluster

        def fn(out_centroids: Path, out_meta: Path) -> None:
            X = lda.read_posteriors(self._artifact(f"{prefix}post_dev.tsv")).gamma
            if not len(X):
                raise ValidationError("no posterior vectors to cluster")
            if c.spherical:
                X = X / np.linalg.norm(X, axis=1, keepdims=True)
            n_clusters = c.n_clusters
            if n_clusters > X.shape[0]:
                log.warning(
                    "clamping cluster count %d to %d vectors", n_clusters, X.shape[0]
                )
                n_clusters = X.shape[0]
            km = train_kmeans(
                X, n_clusters, seed=c.seed, max_iterations=c.max_iterations,
                normalize_centroids=c.spherical,
            )
            lda.write_posteriors(
                lda.Posteriors([centroid_id(i) for i in range(n_clusters)], km.centroids),
                out_centroids,
            )
            sizes = np.bincount(km.assignments, minlength=n_clusters).tolist()
            out_meta.write_text(
                json.dumps(
                    {
                        "inertia": km.inertia_history[-1],
                        "n_iterations": km.n_iterations,
                        "cluster_sizes": sizes,
                        "spherical": c.spherical,
                    },
                    indent=2, sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )

        self._run_stage(
            name, [f"{prefix}post_dev.tsv"], [repr(c)],
            [f"{prefix}centroids.tsv", f"{prefix}centroids.meta.json"],
            fn,
        )

    def stage_select(self, text: bool = False) -> None:
        name, prefix = _twin("select", text)
        params = text_select_params(self.config) if text else self.config.selection
        if text:
            out_prefix = "selection_text"
        else:
            out_prefix = "selection_acoustic" if self.config.text.enabled else "selection"

        def fn(out_audit: Path, out_manifest: Path) -> None:
            posts = lda.read_posteriors(self._artifact(f"{prefix}post_pool.tsv"))
            cents = lda.read_posteriors(self._artifact(f"{prefix}centroids.tsv"))
            result = select(posts, self.pool, cents.gamma, params)
            write_audit(result, out_audit)
            write_selection_manifest(result, self.pool, out_manifest)

        self._run_stage(
            name, [f"{prefix}post_pool.tsv", f"{prefix}centroids.tsv"],
            [Path(self.config.paths.pool_manifest), repr(params)],
            [f"{out_prefix}.audit.tsv", f"{out_prefix}.tsv"],
            fn,
        )

    # -- text-only stages -------------------------------------------------

    def stage_text_tfidf(self) -> None:
        d = self.config.docmodel

        def fn(out_vocab: Path, out_pool: Path, out_dev: Path) -> None:
            texts = {
                which: [corpus.read_transcript(u, m.base_dir) for u in m]
                for which, m in self.manifests.items()
            }
            vocab = docmodel.build_text_vocab(
                texts["dev"] + texts["pool"], d.text_vocab_cap
            )
            if len(vocab) == 0:
                raise ValidationError(
                    "no transcript tokens available for the text path"
                )
            with open(out_vocab, "w", encoding="utf-8") as fh:
                for tok, i in sorted(vocab.ids.items(), key=lambda kv: kv[1]):
                    fh.write(f"{tok}\t{i}\n")
            tokens = {
                which: (
                    self.manifests[which].ids(),
                    [docmodel.tokenize_transcript(text, vocab) for text in texts[which]],
                )
                for which in ("dev", "pool")
            }
            self._write_tfidf(tokens, len(vocab), out_pool, out_dev)

        self._run_stage(
            "text-tfidf", [],
            [d.text_vocab_cap, d.idf_source]
            + [self._digest_manifest(w, transcripts=True) for w in self._sources("dev+pool")],
            ["text_vocab.tsv", "text_weighted_pool.tsv", "text_weighted_dev.tsv"],
            fn,
        )

    def _text_vocab_size(self) -> int:
        with open(self._artifact("text_vocab.tsv"), encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def stage_combine(self) -> None:
        def fn(out_audit: Path, out_manifest: Path) -> None:
            a = read_audit(self._artifact("selection_acoustic.audit.tsv"))
            b = read_audit(self._artifact("selection_text.audit.tsv"))
            result = union_combine(a, b, self.pool)
            write_audit(result, out_audit)
            write_selection_manifest(result, self.pool, out_manifest)

        self._run_stage(
            "combine", ["selection_acoustic.audit.tsv", "selection_text.audit.tsv"],
            [Path(self.config.paths.pool_manifest)],
            ["selection.audit.tsv", "selection.tsv"],
            fn,
        )

    def stage_report(self) -> None:
        def fn(out_tsv: Path, out_txt: Path) -> None:
            result = read_audit(self._artifact("selection.audit.tsv"))
            rep = report(result, self.pool)
            write_report_tsv(rep, out_tsv)
            out_txt.write_text(render_report(rep), encoding="utf-8")

        self._run_stage(
            "report", ["selection.audit.tsv"],
            [Path(self.config.paths.pool_manifest)],
            ["report.tsv", "report.txt"],
            fn,
        )

    # -- driver -----------------------------------------------------------

    def run_stage(self, name: str) -> None:
        """Run (or cache-skip) one stage of ``stage_order(True)`` by name. A
        ``text-`` stage without a method of its own is its acoustic twin over
        the ``text_`` artifacts."""
        method = getattr(self, "stage_" + name.replace("-", "_"), None)
        if method is None:
            getattr(self, "stage_" + name.removeprefix("text-").replace("-", "_"))(text=True)
        else:
            method()

    def run(self, stages: list[str] | None = None) -> PipelineResult:
        order = stage_order(self.config.text.enabled)
        if stages is None:
            stages = order
        else:
            unknown = [s for s in stages if s not in stage_order(True)]
            if unknown:
                raise ValidationError(f"unknown stages: {unknown}")
            stages = [s for s in order if s in stages]
        with WorkDirLock(self.work):
            for name in stages:
                self.run_stage(name)
        audit = self._artifact("selection.audit.tsv")
        selection = read_audit(audit) if audit.is_file() else SelectionResult()
        return PipelineResult(
            selection=selection, artifacts=dict(self.artifacts),
            skipped=dict(self.skipped),
        )


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> PipelineResult:
    """Validate the config, then execute the requested stages in order."""
    return Runner(config).run(stages)


def sweep_lambda(config: PipelineConfig, lambdas: list[float]) -> list[dict]:
    """Re-run selection and report across thresholds against cached artifacts.

    The expensive stages run (or cache-skip) once; each threshold then gets
    its own selection audit, manifest and report files, named by value.
    """
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise ValidationError(f"distance threshold must be in (0, 1], got {lam}")
    runner = Runner(config)
    with WorkDirLock(runner.work):
        for name in ACOUSTIC_STAGES[:-1]:  # everything up to and including cluster
            runner.run_stage(name)
        posts = lda.read_posteriors(runner._artifact("post_pool.tsv"))
        cents = lda.read_posteriors(runner._artifact("centroids.tsv")).gamma
        rows = []
        for lam in lambdas:
            result = select(
                posts, runner.pool, cents, replace(config.selection, threshold=lam)
            )
            tag = f"{lam:.9g}".replace(".", "p")
            write_audit(result, runner._artifact(f"selection_lambda_{tag}.audit.tsv"))
            write_selection_manifest(
                result, runner.pool, runner._artifact(f"selection_lambda_{tag}.tsv")
            )
            rep = report(result, runner.pool)
            write_report_tsv(rep, runner._artifact(f"report_lambda_{tag}.tsv"))
            rows.append(
                {
                    "lambda": lam,
                    "selected": len(result.selected),
                    "hours": result.total_hours,
                    "percent": rep.total_percent,
                    "passes": result.passes,
                }
            )
        with open(runner._artifact("sweep_summary.tsv"), "w", encoding="utf-8") as fh:
            fh.write("lambda\tselected\thours\tpercent\tpasses\n")
            for r in rows:
                fh.write(
                    f"{r['lambda']:.9g}\t{r['selected']}\t{r['hours']:.9g}"
                    f"\t{r['percent']:.9g}\t{r['passes']}\n"
                )
    return rows
