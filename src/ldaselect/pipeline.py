"""End-to-end orchestration: staged artifacts, content-hash caching, locking.

Stages run in a fixed order (mixture training, quantization, weighting, topic
model, posteriors, clustering, selection, optional transcript path and union,
report). Every stage publishes its artifacts into the work directory before the
next begins, and is skipped on re-runs when its inputs, parameters and output
names hash to the cached key and its outputs still have their cached digests.
"""

import fcntl
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    SelectionResult, centroid_id, rank_pool, read_audit, select, union_combine,
    validate_selection_config, write_audit,
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


@contextmanager
def publish(*paths: Path):
    """Yield a temporary ``<name>.tmp`` beside each of ``paths`` to write, renamed
    onto its final name if the block ends normally and removed otherwise: each
    final name holds its old file or its new one, never a truncated one."""
    tmps = [p.with_name(p.name + ".tmp") for p in paths]
    try:
        yield tmps
        for tmp, p in zip(tmps, paths):
            os.replace(tmp, p)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 20):
            h.update(piece)
    return h.hexdigest()


def _log_sweeps(stage: str, which: str, sweeps: np.ndarray, max_iters: int) -> None:
    """Report documents that hit the inference sweep cap (a warning) and
    empty documents, whose posterior is the prior alpha."""
    capped = int(np.count_nonzero(sweeps >= max_iters))
    log.log(
        logging.WARNING if capped else logging.INFO,
        "stage %s: %d of %d %s documents hit doc_max_iterations=%d; %d empty",
        stage, capped, sweeps.size, which, max_iters, int(np.count_nonzero(sweeps == 0)),
    )


def _log_selection(label: str, result: SelectionResult, pool_size: int) -> None:
    log.info(
        "%s: %d of %d pool utterances selected (%.6g h) in %d passes; stopped by %s",
        label, len(result.selected), pool_size, result.total_hours, result.passes,
        result.stop_reason,
    )


@dataclass
class PipelineResult:
    selection: SelectionResult
    skipped: dict[str, bool] = field(default_factory=dict)


class Runner:
    """Executes pipeline stages against one work directory."""

    def __init__(self, config: PipelineConfig):
        validate_config(config)
        self.config = config
        self.work = Path(config.paths.work_dir)
        self.cache_path = self.work / "cache.json"
        # Each manifest is read once: the stage keys hash the very bytes that
        # were parsed, so a manifest edited after this point cannot get the
        # old manifest's results cached under its new contents.
        self.manifest_bytes: dict[str, bytes] = {}
        self.manifests: dict[str, corpus.Manifest] = {}
        for which in ("dev", "pool"):
            path = Path(getattr(config.paths, f"{which}_manifest"))
            self.manifest_bytes[which] = path.read_bytes()
            self.manifests[which] = corpus.parse_manifest(
                self.manifest_bytes[which], path, role=which
            )
        self.pool = self.manifests["pool"]
        # The directory the pool's relative paths resolved against, which the
        # selection manifests name: a key part of the stages that write them,
        # NUL-terminated (no path holds a NUL) ahead of the manifest's bytes.
        self.pool_dir_key = str(Path(config.paths.pool_manifest).parent.absolute()) + "\0"

    @contextmanager
    def owned(self):
        """Exclusive use of the work dir: create it, hold an exclusive
        ``flock`` on its ``.lock`` file and only then read ``cache.json``, so
        no other run can change the cache between the read and this run's
        stages. Every stage and selection write happens inside, and first the
        ``*.tmp`` files a killed run left behind are removed. The kernel
        drops the lock when the file is closed or the process dies, however
        it dies, so no lock is ever left to remove by hand. The file stays:
        unlinked, a later run could lock a fresh file while another run still
        holds the old one."""
        self.work.mkdir(parents=True, exist_ok=True)
        lock = self.work / ".lock"
        with open(lock, "ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StageError("lock", f"work dir is locked by another run ({lock})") from None
            for tmp in self.work.glob("*.tmp"):
                tmp.unlink()
            self.cache: dict = {}
            if self.cache_path.is_file():
                try:  # ValueError: not UTF-8, or not JSON
                    cache = json.loads(self.cache_path.read_text(encoding="utf-8"))
                except ValueError:
                    cache = None
                if isinstance(cache, dict) and all(isinstance(e, dict) for e in cache.values()):
                    self.cache = cache
                else:
                    log.warning("ignoring corrupt cache file %s", self.cache_path)
            self.skipped: dict[str, bool] = {}
            # Work-dir file digests by name, manifest digests by (which, transcripts).
            self._digests: dict = {}
            yield

    def write_selection(self, result: SelectionResult, audit: Path, manifest: Path) -> None:
        """Write ``result``'s audit and its selection manifest, a manifest of
        the selected utterances reusable as a training manifest. It lists the
        paths the pool manifest resolved to, absolute where the pool's were
        relative, so it is valid from any directory."""
        write_audit(result, audit)
        rows = self._selection_rows
        utts = []
        for s in result.selected:
            u = rows.get(s.utt_id)
            if u is None:
                raise ValidationError(f"utterance '{s.utt_id}' is not in the pool manifest")
            utts.append(u)
        corpus.write_manifest(corpus.Manifest(utts, fps=self.pool.fps), manifest)

    @cached_property
    def _selection_rows(self) -> dict[str, corpus.Utterance]:
        """Each pool utterance as a selection manifest lists it, with its
        resolved paths as the paths written; built once per runner, on the
        first selection write, and shared by every later one."""
        return {
            u.id: corpus.Utterance(
                u.id, u.feature_file, u.num_frames, u.frame_dim, u.duration_s,
                u.domain_tag, u.transcript_file,
            )
            for u in self.pool
        }

    # -- caching machinery ------------------------------------------------

    @staticmethod
    def _sources(spec: str) -> list[str]:
        """The corpora a ``dev``/``pool``/``dev+pool`` setting names, dev first."""
        return [which for which in ("dev", "pool") if which in spec.split("+")]

    def _digest_manifest(self, which: str, transcripts: bool = False) -> str:
        """Digest of a manifest's bytes and of every feature (or transcript)
        file it lists. Each file enters framed by a presence byte and its
        length, so no two sets of file contents hash alike, and a transcript
        that is listed but missing differs from an empty one."""
        memo = (which, transcripts)
        if memo in self._digests:
            return self._digests[memo]
        h = hashlib.sha256()
        h.update(len(self.manifest_bytes[which]).to_bytes(8, "little"))
        h.update(self.manifest_bytes[which])
        for utt in self.manifests[which]:
            h.update(utt.id.encode())
            p = utt.transcript_file if transcripts else utt.feature_file
            data = None
            if p:
                try:
                    data = corpus.read_file(p)
                except OSError:
                    if os.path.isfile(p):  # there, but unreadable: not "missing"
                        raise
            if data is None:
                if not transcripts:
                    raise StageError("inputs", f"missing feature file for '{utt.id}': {p}")
                h.update(b"\0")
            else:
                h.update(b"\1" + len(data).to_bytes(8, "little"))
                h.update(data)
        digest = h.hexdigest()
        self._digests[memo] = digest
        return digest

    def _digest(self, name: str) -> str | None:
        """sha256 of the work-dir file ``name`` (None if there is none), read in
        1 MiB pieces once per run and remembered until a stage replaces it."""
        if name not in self._digests and (self.work / name).is_file():
            self._digests[name] = _sha256(self.work / name)
        return self._digests.get(name)

    def _run_stage(
        self, name: str, inputs: list[str], key_parts: list, outputs: list[str], fn
    ) -> None:
        """Run ``fn(*input paths, *temporary output paths)`` unless the cached
        key of the input digests, ``key_parts`` and output names matches and
        every output still has its recorded digest. Only here are the outputs
        published, and only once ``fn`` has written them all."""
        h = hashlib.sha256(name.encode())
        for art in inputs:
            digest = self._digest(art)
            if digest is None:
                raise StageError(
                    name, f"missing input artifact '{art}'; run earlier stages first"
                )
            h.update(digest.encode())
        for part in key_parts:
            if isinstance(part, bytes):
                h.update(part)
            else:
                h.update(str(part).encode())
        h.update(repr(outputs).encode())
        key = h.hexdigest()
        entry = self.cache.get(name, {})
        if entry.get("key") == key and entry.get("outputs") == {o: self._digest(o) for o in outputs}:
            log.info("stage %s: skipped (cached)", name)
            self.skipped[name] = True
            return
        log.info("stage %s: running", name)
        try:
            with publish(*(self.work / o for o in outputs)) as tmps:
                fn(*(self.work / i for i in inputs), *tmps)
                digests = {o: _sha256(tmp) for o, tmp in zip(outputs, tmps)}
        except StageError:
            raise
        except (LdaSelectError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
        self._digests.update(digests)
        self.skipped[name] = False
        self.cache[name] = {"key": key, "outputs": digests}
        self._save_cache()

    def _save_cache(self) -> None:
        with publish(self.cache_path) as (tmp,):
            tmp.write_text(
                json.dumps(self.cache, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )

    # -- acoustic stages --------------------------------------------------

    def stage_train_gmm(self) -> None:
        q = self.config.quantizer

        def fn(out_model: Path) -> None:
            X = corpus.sample_frames(
                [self.manifests[w] for w in self._sources(q.train_source)],
                q.max_train_frames, q.seed,
            )
            model = gmm.train_gmm(X, q.n_components, q)
            h = model.loglik_history
            log.log(
                logging.INFO if model.converged else logging.WARNING,
                "stage train-gmm: EM %s after %d iterations (max_iterations=%d) on "
                "%d frames; log-likelihood %.9g -> %.9g; smallest component weight %.3g",
                "converged" if model.converged else "hit max_iterations",
                model.n_iterations, q.max_iterations, X.shape[0], h[0], h[-1],
                float(model.weights.min()),
            )
            gmm.save_gmm(model, out_model)

        self._run_stage(
            "train-gmm", [],
            [repr(q)] + [self._digest_manifest(w) for w in self._sources(q.train_source)],
            ["gmm.agmm"],
            fn,
        )

    def stage_quantize(self) -> None:
        def fn(model_path: Path, out_pool: Path, out_dev: Path) -> None:
            model = gmm.load_gmm(model_path)
            for manifest, out in ((self.pool, out_pool), (self.manifests["dev"], out_dev)):
                tokens = [
                    gmm.quantize(model, corpus.read_features(utt))
                    for utt in manifest
                ]
                docmodel.save_docs(
                    docmodel.bag_of_words(manifest.ids(), tokens, model.n_components), out
                )

        self._run_stage(
            "quantize", ["gmm.agmm"],
            [self._digest_manifest(w) for w in self._sources("dev+pool")],
            ["bags_pool.adoc", "bags_dev.adoc"],
            fn,
        )

    def _write_tfidf(self, bags: dict, vocab_size: int, out_pool: Path, out_dev: Path):
        """Weighted documents from the bags ``bags["dev"]`` and ``bags["pool"]``,
        with idf over the configured ``docmodel.idf_source`` corpora."""
        stats = docmodel.compute_stats(
            [bags[w] for w in self._sources(self.config.docmodel.idf_source)], vocab_size
        )
        for which, out in (("pool", out_pool), ("dev", out_dev)):
            docmodel.save_docs(docmodel.tfidf(bags[which], stats), out)

    def stage_tfidf(self) -> None:
        vocab_size = self.config.quantizer.n_components

        def fn(pool: Path, dev: Path, out_pool: Path, out_dev: Path) -> None:
            bags = {"dev": docmodel.load_docs(dev), "pool": docmodel.load_docs(pool)}
            self._write_tfidf(bags, vocab_size, out_pool, out_dev)

        self._run_stage(
            "tfidf", ["bags_pool.adoc", "bags_dev.adoc"],
            [self.config.docmodel.idf_source, vocab_size],
            ["weighted_pool.adoc", "weighted_dev.adoc"],
            fn,
        )

    def stage_train_lda(self, text: bool = False) -> None:
        name, prefix = _twin("train-lda", text)
        params = text_lda_params(self.config) if text else self.config.lda

        def fn(pool: Path, dev: Path, *rest: Path) -> None:
            *vocab, out_model = rest  # the text path's vocabulary comes first
            docs = docmodel.DocBatch.concat(
                docmodel.load_docs({"dev": dev, "pool": pool}[which])
                for which in self._sources(params.train_source)
            )
            vocab_size = self.config.quantizer.n_components
            if text:
                with open(vocab[0], encoding="utf-8") as fh:
                    vocab_size = sum(1 for line in fh if line.strip())
            model = lda.train_lda(docs, params.n_topics, vocab_size, config=params)
            _log_sweeps(name, "training", model.doc_sweeps, params.doc_max_iterations)
            lda.save_lda(model, out_model)

        self._run_stage(
            name,
            [f"{prefix}weighted_pool.adoc", f"{prefix}weighted_dev.adoc"]
            + (["text_vocab.tsv"] if text else []),
            [repr(params)],
            [f"{prefix}lda.alda"],
            fn,
        )

    def stage_posteriors(self, text: bool = False) -> None:
        name, prefix = _twin("posteriors", text)
        params = self.config.lda

        def fn(model_path: Path, pool: Path, dev: Path, out_pool: Path, out_dev: Path) -> None:
            model = lda.load_lda(model_path)
            for which, docs_path, out in (("pool", pool, out_pool), ("dev", dev, out_dev)):
                docs = docmodel.load_docs(docs_path)
                posts, sweeps = lda.extract_posteriors(
                    model, docs, tol=params.doc_tol, max_iters=params.doc_max_iterations
                )
                _log_sweeps(name, which, sweeps, params.doc_max_iterations)
                lda.write_posteriors(posts, out)

        self._run_stage(
            name,
            [f"{prefix}lda.alda", f"{prefix}weighted_pool.adoc", f"{prefix}weighted_dev.adoc"],
            [params.doc_tol, params.doc_max_iterations],
            [f"{prefix}post_pool.tsv", f"{prefix}post_dev.tsv"],
            fn,
        )

    def stage_cluster(self, text: bool = False) -> None:
        name, prefix = _twin("cluster", text)
        c = self.config.cluster

        def fn(post_dev: Path, out_centroids: Path, out_meta: Path) -> None:
            X = lda.read_posteriors(post_dev).gamma
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

        def fn(post_pool: Path, centroids: Path, out_audit: Path, out_manifest: Path) -> None:
            posts = lda.read_posteriors(post_pool)
            cents = lda.read_posteriors(centroids)
            result = select(posts, self.pool, cents.gamma, params)
            _log_selection(f"stage {name}", result, len(self.pool))
            self.write_selection(result, out_audit, out_manifest)

        self._run_stage(
            name, [f"{prefix}post_pool.tsv", f"{prefix}centroids.tsv"],
            [self.pool_dir_key, self.manifest_bytes["pool"], repr(params)],
            [f"{out_prefix}.audit.tsv", f"{out_prefix}.tsv"],
            fn,
        )

    # -- text-only stages -------------------------------------------------

    def stage_text_tfidf(self) -> None:
        d = self.config.docmodel

        def fn(out_vocab: Path, out_pool: Path, out_dev: Path) -> None:
            texts = {
                which: [corpus.read_transcript(u) for u in m]
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
            bags = {
                which: docmodel.bag_of_words(
                    self.manifests[which].ids(),
                    [docmodel.tokenize_transcript(text, vocab) for text in texts[which]],
                    len(vocab),
                )
                for which in ("dev", "pool")
            }
            self._write_tfidf(bags, len(vocab), out_pool, out_dev)

        self._run_stage(
            "text-tfidf", [],
            [d.text_vocab_cap, d.idf_source]
            + [self._digest_manifest(w, transcripts=True) for w in self._sources("dev+pool")],
            ["text_vocab.tsv", "text_weighted_pool.adoc", "text_weighted_dev.adoc"],
            fn,
        )

    def stage_combine(self) -> None:
        def fn(acoustic: Path, text: Path, out_audit: Path, out_manifest: Path) -> None:
            a, b = read_audit(acoustic), read_audit(text)
            self.write_selection(union_combine(a, b, self.pool), out_audit, out_manifest)

        self._run_stage(
            "combine", ["selection_acoustic.audit.tsv", "selection_text.audit.tsv"],
            [self.pool_dir_key, self.manifest_bytes["pool"]],
            ["selection.audit.tsv", "selection.tsv"],
            fn,
        )

    def stage_report(self) -> None:
        def fn(audit: Path, out_tsv: Path, out_txt: Path) -> None:
            rep = report(read_audit(audit), self.pool)
            write_report_tsv(rep, out_tsv)
            out_txt.write_text(render_report(rep), encoding="utf-8")

        self._run_stage(
            "report", ["selection.audit.tsv"],
            [self.manifest_bytes["pool"]],
            ["report.tsv", "report.txt"],
            fn,
        )

    # -- driver -----------------------------------------------------------

    def run_stage(self, name: str) -> None:
        """Run (or cache-skip) one stage of ``stage_order(True)`` by name, inside
        ``owned()``. A ``text-`` stage without a method of its own is its
        acoustic twin over the ``text_`` artifacts."""
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
            off = [s for s in stages if s not in order]
            if off:
                raise ValidationError(f"stages {off} run only with [text] enabled = true")
            stages = [s for s in order if s in stages]
        with self.owned():
            for name in stages:
                self.run_stage(name)
            audit = self.work / "selection.audit.tsv"
            selection = read_audit(audit) if audit.is_file() else SelectionResult()
        return PipelineResult(selection=selection, skipped=dict(self.skipped))


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> PipelineResult:
    """Validate the config, then execute the requested stages in order."""
    return Runner(config).run(stages)


def _lambda_tag(lam: float) -> str:
    return f"{lam:.9g}".replace(".", "p")


def sweep_lambda(config: PipelineConfig, lambdas: list[float]) -> list[dict]:
    """Re-run selection and report across thresholds against cached artifacts.

    The expensive stages run (or cache-skip) once and the pool is ranked once;
    each threshold then gets its own selection audit, manifest and report
    files, named by value.
    """
    by_tag: dict[str, list[float]] = {}
    for lam in lambdas:
        validate_selection_config(replace(config.selection, threshold=lam))
        by_tag.setdefault(_lambda_tag(lam), []).append(lam)
    clashes = [
        f"{', '.join(map(repr, v))} (tag {t})" for t, v in by_tag.items() if len(v) > 1
    ]
    if clashes:
        raise ValidationError(
            "thresholds would overwrite each other's sweep files: " + "; ".join(clashes)
        )
    runner = Runner(config)
    with runner.owned():
        for name in ACOUSTIC_STAGES[:-1]:  # everything up to and including cluster
            runner.run_stage(name)
        posts = lda.read_posteriors(runner.work / "post_pool.tsv")
        cents = lda.read_posteriors(runner.work / "centroids.tsv").gamma
        ranking = rank_pool(posts, runner.pool, cents)
        rows = []
        for lam in lambdas:
            result = ranking.select(replace(config.selection, threshold=lam))
            _log_selection(f"sweep lambda={lam:.9g}", result, len(runner.pool))
            tag = _lambda_tag(lam)
            rep = report(result, runner.pool)
            with publish(
                runner.work / f"selection_lambda_{tag}.audit.tsv",
                runner.work / f"selection_lambda_{tag}.tsv",
                runner.work / f"report_lambda_{tag}.tsv",
            ) as (audit, manifest, rep_tsv):
                runner.write_selection(result, audit, manifest)
                write_report_tsv(rep, rep_tsv)
            rows.append(
                {
                    "lambda": lam,
                    "selected": len(result.selected),
                    "hours": result.total_hours,
                    "percent": rep.total_percent,
                    "passes": result.passes,
                }
            )
        with publish(runner.work / "sweep_summary.tsv") as (summary,):
            summary.write_text(
                "lambda\tselected\thours\tpercent\tpasses\n" + "".join(
                    f"{r['lambda']:.9g}\t{r['selected']}\t{r['hours']:.9g}"
                    f"\t{r['percent']:.9g}\t{r['passes']}\n"
                    for r in rows
                ),
                encoding="utf-8",
            )
    return rows
