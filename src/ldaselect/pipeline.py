"""End-to-end orchestration: staged artifacts, content-hash caching, locking.

``Runner.stages`` declares each stage, in run order (mixture training,
quantization, weighting, topic model, posteriors, clustering, selection,
optional transcript path and union, report); ``Runner.sweep`` runs a λ sweep
stage after clustering instead of selection. Every stage publishes its
artifacts into the work directory before the next begins, and is skipped on
re-runs when its inputs, parameters and output names hash to the cached key
and its outputs still have their cached digests.
"""

import fcntl
import hashlib
import json
import logging
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import corpus, docmodel, gmm, lda
from .config import (
    LdaParams, PipelineConfig, text_lda_params, text_select_params, validate_config,
)
from .errors import LdaSelectError, StageError, ValidationError
from .kmeans import train_kmeans
from .report import render_report, report, write_report_tsv
from .selection import (
    SelectionConfig, SelectionResult, centroid_id, parse_audit, rank_pool, read_audit,
    select, union_combine, validate_selection_config, write_audit,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Stage:
    """One entry of ``Runner.stages``: the work-dir files the stage reads, a
    callable giving its other key parts (so manifest and feature digests are
    computed only when the stage is checked), the files it writes, and its
    body, called with the input paths and then the temporary output paths."""

    inputs: list[str]
    key: Callable[[], list]
    outputs: list[str]
    body: Callable[..., None]


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

    def _run_stage(self, name: str, stage: Stage) -> None:
        """Run ``stage``'s body unless the cached key of its input digests,
        key parts and output names matches and every output still has its
        recorded digest. Only here are the outputs published, and only once
        the body has written them all."""
        h = hashlib.sha256(name.encode())
        for art in stage.inputs:
            digest = self._digest(art)
            if digest is None:
                raise StageError(
                    name, f"missing input artifact '{art}'; run earlier stages first"
                )
            h.update(digest.encode())
        for part in stage.key():
            h.update(part if isinstance(part, bytes) else str(part).encode())
        outputs = stage.outputs
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
                stage.body(*(self.work / i for i in stage.inputs), *tmps)
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

    # -- the stage table --------------------------------------------------

    @property
    def stages(self) -> dict[str, Stage]:
        """Every stage of this config by name, in run order: the acoustic
        chain; with ``[text] enabled``, ``text-tfidf``, the text twins of the
        four topic stages and ``combine``; then ``report``. Built on each read:
        its bodies hold the runner, so a kept table would be a reference cycle."""
        c, q, d = self.config, self.config.quantizer, self.config.docmodel

        def manifests(spec: str, transcripts: bool = False) -> list[str]:
            return [self._digest_manifest(w, transcripts) for w in self._sources(spec)]

        stages = {
            "train-gmm": Stage([], lambda: [repr(q)] + manifests(q.train_source),
                               ["gmm.agmm"], self._train_gmm),
            "quantize": Stage(["gmm.agmm"], lambda: manifests("dev+pool"),
                              ["bags_pool.adoc", "bags_dev.adoc"], self._quantize),
            "tfidf": Stage(["bags_pool.adoc", "bags_dev.adoc"],
                           lambda: [d.idf_source, q.n_components],
                           ["weighted_pool.adoc", "weighted_dev.adoc"], self._tfidf),
        }
        stages |= self._topic_stages("", "", [], c.lda, c.selection,
                                     "selection_acoustic" if c.text.enabled else "selection")
        if c.text.enabled:
            stages["text-tfidf"] = Stage(
                [], lambda: [d.text_vocab_cap, d.idf_source] + manifests("dev+pool", True),
                ["text_vocab.tsv", "text_weighted_pool.adoc", "text_weighted_dev.adoc"],
                self._text_tfidf)
            stages |= self._topic_stages("text-", "text_", ["text_vocab.tsv"], text_lda_params(c),
                                         text_select_params(c), "selection_text")
            stages["combine"] = Stage(["selection_acoustic.audit.tsv", "selection_text.audit.tsv"],
                                      lambda: [self.pool_dir_key, self.manifest_bytes["pool"]],
                                      ["selection.audit.tsv", "selection.tsv"], self._combine)
        stages["report"] = Stage(["selection.audit.tsv"], lambda: [self.manifest_bytes["pool"]],
                                 ["report.tsv", "report.txt"], self._report)
        return stages

    def _topic_stages(self, n: str, p: str, vocab: list[str], lda_params: LdaParams,
                      select_params: SelectionConfig, selection: str) -> dict[str, Stage]:
        """``train-lda``, ``posteriors``, ``cluster`` and ``select`` named with
        prefix ``n``, over the files named with prefix ``p``: the acoustic
        chain's, or its text twins'. The text topic model also reads the
        vocabulary ``vocab``; ``selection`` names the selection's outputs."""
        l = self.config.lda
        return {
            f"{n}train-lda": Stage(
                [f"{p}weighted_pool.adoc", f"{p}weighted_dev.adoc", *vocab],
                lambda: [repr(lda_params)], [f"{p}lda.alda"],
                partial(self._train_lda, f"{n}train-lda", lda_params)),
            f"{n}posteriors": Stage(
                [f"{p}lda.alda", f"{p}weighted_pool.adoc", f"{p}weighted_dev.adoc"],
                lambda: [l.doc_tol, l.doc_max_iterations],
                [f"{p}post_pool.tsv", f"{p}post_dev.tsv"],
                partial(self._posteriors, f"{n}posteriors")),
            f"{n}cluster": Stage([f"{p}post_dev.tsv"], lambda: [repr(self.config.cluster)],
                                 [f"{p}centroids.tsv", f"{p}centroids.meta.json"], self._cluster),
            f"{n}select": Stage(
                [f"{p}post_pool.tsv", f"{p}centroids.tsv"],
                lambda: [self.pool_dir_key, self.manifest_bytes["pool"], repr(select_params)],
                [f"{selection}.audit.tsv", f"{selection}.tsv"],
                partial(self._select, f"{n}select", select_params)),
        }

    def _sweep_stage(self, lambdas: list[float]) -> Stage:
        """``sweep``: each threshold's selection audit, manifest and report, then a summary."""
        names = ("selection_lambda_{}.audit.tsv", "selection_lambda_{}.tsv", "report_lambda_{}.tsv")
        return Stage(["post_pool.tsv", "centroids.tsv"],
                     lambda: [self.pool_dir_key, self.manifest_bytes["pool"],
                              repr((self.config.selection.max_hours, lambdas))],
                     [n.format(_lambda_tag(lam)) for lam in lambdas for n in names]
                     + ["sweep_summary.tsv"], partial(self._sweep, lambdas))

    # -- stage bodies: input paths, then temporary output paths -----------

    def _train_gmm(self, out_model: Path) -> None:
        q = self.config.quantizer
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

    def _quantize(self, model_path: Path, out_pool: Path, out_dev: Path) -> None:
        model = gmm.load_gmm(model_path)
        for manifest, out in ((self.pool, out_pool), (self.manifests["dev"], out_dev)):
            tokens = [gmm.quantize(model, corpus.read_features(utt)) for utt in manifest]
            bags = docmodel.bag_of_words(manifest.ids(), tokens, model.n_components)
            docmodel.save_docs(bags, out)

    def _write_tfidf(self, bags: dict, vocab_size: int, out_pool: Path, out_dev: Path):
        """Weighted documents from the bags ``bags["dev"]`` and ``bags["pool"]``,
        with idf over the configured ``docmodel.idf_source`` corpora."""
        stats = docmodel.compute_stats(
            [bags[w] for w in self._sources(self.config.docmodel.idf_source)], vocab_size
        )
        for which, out in (("pool", out_pool), ("dev", out_dev)):
            docmodel.save_docs(docmodel.tfidf(bags[which], stats), out)

    def _tfidf(self, pool: Path, dev: Path, out_pool: Path, out_dev: Path) -> None:
        bags = {"dev": docmodel.load_docs(dev), "pool": docmodel.load_docs(pool)}
        self._write_tfidf(bags, self.config.quantizer.n_components, out_pool, out_dev)

    def _text_tfidf(self, out_vocab: Path, out_pool: Path, out_dev: Path) -> None:
        texts = {w: [corpus.read_transcript(u) for u in m] for w, m in self.manifests.items()}
        vocab = docmodel.build_text_vocab(
            texts["dev"] + texts["pool"], self.config.docmodel.text_vocab_cap
        )
        if len(vocab) == 0:
            raise ValidationError("no transcript tokens available for the text path")
        with open(out_vocab, "w", encoding="utf-8") as fh:
            for tok, i in vocab.items():  # ids ascend in insertion order
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

    def _train_lda(self, name: str, params: LdaParams, pool: Path, dev: Path, *rest: Path) -> None:
        *vocab, out_model = rest  # the text path's vocabulary comes first
        docs = docmodel.DocBatch.concat(
            docmodel.load_docs({"dev": dev, "pool": pool}[which])
            for which in self._sources(params.train_source)
        )
        vocab_size = self.config.quantizer.n_components
        if vocab:
            with open(vocab[0], encoding="utf-8") as fh:
                vocab_size = sum(1 for line in fh if line.strip())
        model = lda.train_lda(docs, params.n_topics, vocab_size, config=params)
        _log_sweeps(name, "training", model.doc_sweeps, params.doc_max_iterations)
        lda.save_lda(model, out_model)

    def _posteriors(self, name: str, model_path: Path, pool: Path, dev: Path,
                    out_pool: Path, out_dev: Path) -> None:
        l = self.config.lda
        model = lda.load_lda(model_path)
        for which, docs_path, out in (("pool", pool, out_pool), ("dev", dev, out_dev)):
            posts, sweeps = lda.extract_posteriors(
                model, docmodel.load_docs(docs_path), tol=l.doc_tol, max_iters=l.doc_max_iterations
            )
            _log_sweeps(name, which, sweeps, l.doc_max_iterations)
            lda.write_posteriors(posts, out)

    def _cluster(self, post_dev: Path, out_centroids: Path, out_meta: Path) -> None:
        c = self.config.cluster
        X = lda.read_posteriors(post_dev).gamma
        if not len(X):
            raise ValidationError("no posterior vectors to cluster")
        if c.spherical:
            X = X / np.linalg.norm(X, axis=1, keepdims=True)
        n_clusters = c.n_clusters
        if n_clusters > X.shape[0]:
            log.warning("clamping cluster count %d to %d vectors", n_clusters, X.shape[0])
            n_clusters = X.shape[0]
        km = train_kmeans(X, n_clusters, seed=c.seed, max_iterations=c.max_iterations,
                          normalize_centroids=c.spherical)
        lda.write_posteriors(
            lda.Posteriors([centroid_id(i) for i in range(n_clusters)], km.centroids),
            out_centroids,
        )
        meta = {
            "inertia": km.inertia_history[-1], "n_iterations": km.n_iterations,
            "cluster_sizes": np.bincount(km.assignments, minlength=n_clusters).tolist(),
            "spherical": c.spherical,
        }
        out_meta.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def _select(self, name: str, params: SelectionConfig, post_pool: Path, centroids: Path,
                out_audit: Path, out_manifest: Path) -> None:
        posts = lda.read_posteriors(post_pool)
        result = select(posts, self.pool, lda.read_posteriors(centroids).gamma, params)
        _log_selection(f"stage {name}", result, len(self.pool))
        self.write_selection(result, out_audit, out_manifest)

    def _sweep(self, lambdas: list[float], post_pool: Path, centroids: Path, *outs: Path) -> None:
        *files, out_summary = outs
        ranking = rank_pool(lda.read_posteriors(post_pool), self.pool,
                            lda.read_posteriors(centroids).gamma)
        lines = ["lambda\tselected\thours\tpercent\tpasses\n"]
        for lam, audit, manifest, rep_tsv in zip(lambdas, files[::3], files[1::3], files[2::3]):
            result = ranking.select(replace(self.config.selection, threshold=lam))
            _log_selection(f"sweep lambda={lam:.9g}", result, len(self.pool))
            rep = report(result, self.pool)
            self.write_selection(result, audit, manifest)
            write_report_tsv(rep, rep_tsv)
            lines.append(f"{lam:.9g}\t{len(result.selected)}\t{result.total_hours:.9g}"
                         f"\t{rep.total_percent:.9g}\t{result.passes}\n")
        out_summary.write_text("".join(lines), encoding="utf-8")

    def _combine(self, acoustic: Path, text: Path, out_audit: Path, out_manifest: Path) -> None:
        a, b = read_audit(acoustic), read_audit(text)
        self.write_selection(union_combine(a, b, self.pool), out_audit, out_manifest)

    def _report(self, audit: Path, out_tsv: Path, out_txt: Path) -> None:
        rep = report(read_audit(audit), self.pool)
        write_report_tsv(rep, out_tsv)
        out_txt.write_text(render_report(rep), encoding="utf-8")

    # -- driver -----------------------------------------------------------

    def run(self, stages: list[str] | None = None) -> PipelineResult:
        """Run (or cache-skip) the stages named in ``stages``, all by default,
        in table order inside ``owned()``; return the selection in
        ``selection.audit.tsv``, empty if there is none."""
        table = self.stages
        missing = [s for s in stages or [] if s not in table]
        if missing:
            raise ValidationError(
                f"stages {missing} are not in this run's chain {list(table)}; "
                "the text stages and combine run only with [text] enabled = true"
            )
        audit = "selection.audit.tsv"
        with self.owned():
            data = self._run_chain(
                {n: s for n, s in table.items() if stages is None or n in stages}, audit)
        selection = SelectionResult() if data is None else parse_audit(data, self.work / audit)
        return PipelineResult(selection=selection, skipped=dict(self.skipped))

    def sweep(self, lambdas: list[float]) -> list[dict]:
        """Run (or cache-skip) the acoustic chain through ``cluster``, then
        ``sweep`` over ``lambdas``, in one ``owned()``; return a row per
        threshold from ``sweep_summary.tsv``."""
        table = self.stages
        chain = dict(list(table.items())[: list(table).index("select")])
        chain["sweep"] = self._sweep_stage(lambdas)
        with self.owned():
            data = self._run_chain(chain, "sweep_summary.tsv")
        rows = [line.split("\t") for line in data.decode("utf-8").splitlines()[1:]]
        return [{"lambda": lam, "selected": int(r[1]), "hours": float(r[2]),
                 "percent": float(r[3]), "passes": int(r[4])} for lam, r in zip(lambdas, rows)]

    def _run_chain(self, chain: dict[str, Stage], result: str) -> bytes | None:
        """Run (or cache-skip) each stage of ``chain`` in order, inside
        ``owned()``, and return the bytes of the work-dir file ``result`` (None
        if there is none). They are read before the stages, and their digest
        kept for the skip checks, so a cached run opens the file once; they are
        read again only if a stage published different contents."""
        path = self.work / result
        data = path.read_bytes() if path.is_file() else None
        if data is not None:
            self._digests[result] = hashlib.sha256(data).hexdigest()
        before = self._digests.get(result)
        for name, stage in chain.items():
            self._run_stage(name, stage)
        if self._digests.get(result) != before:
            data = path.read_bytes()
        return data


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> PipelineResult:
    """Validate the config, then execute the requested stages in order."""
    return Runner(config).run(stages)


def _lambda_tag(lam: float) -> str:
    return f"{lam:.9g}".replace(".", "p")


def sweep_lambda(config: PipelineConfig, lambdas: list[float]) -> list[dict]:
    """Check every threshold, and that no two share the tag that names their
    files, before touching the disk; then :meth:`Runner.sweep` over them."""
    by_tag: dict[str, list[float]] = {}
    for lam in lambdas:
        validate_selection_config(replace(config.selection, threshold=lam))
        by_tag.setdefault(_lambda_tag(lam), []).append(lam)
    clashes = [f"{', '.join(map(repr, v))} (tag {t})" for t, v in by_tag.items() if len(v) > 1]
    if clashes:
        raise ValidationError("thresholds would overwrite each other's sweep files: "
                              + "; ".join(clashes))
    return Runner(config).sweep(lambdas)
