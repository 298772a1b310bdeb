"""End-to-end orchestration: staged artifacts, content-hash caching, locking.

``Runner.stages`` declares each stage, in run order (mixture training,
quantization, weighting, topic model, posteriors, clustering, selection,
optional transcript path and union, report); ``Runner.sweep`` runs a λ sweep
stage after clustering instead of selection. Every stage publishes its
artifacts into the work directory before the next begins, and is skipped on
re-runs when its declared key parts (input digests, settings, corpus parts)
equal its cached parts and its outputs still have their cached digests; a
rerun logs the parts that changed.

Digests of settled corpus parts and work-dir files are kept in the work
dir's :mod:`signatures` record, so a rerun takes them from it while the files'
stat signatures stay; the paths it stats come from a scan of each manifest's
lines, and a manifest is parsed only when a stage or command first needs its
utterances, so a cached rerun parses none. A stage that runs reads its corpus
parts from their contents again, and a record that contents contradict is
discarded.
"""

import errno
import fcntl
import hashlib
import json
import logging
import os
import stat
import time
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fnmatch import fnmatchcase
from functools import cached_property, partial, reduce
from pathlib import Path

import numpy as np

from . import corpus, docmodel, gmm, lda, signatures
from .config import PipelineConfig, validate_config
from .errors import LdaSelectError, StageError, ValidationError
from .kmeans import train_kmeans
from .report import render_report, report, write_report_tsv
from .selection import (
    SelectionResult, centroid_id, parse_audit, pool_records, rank_pool, read_audit,
    select, union_combine, validate_selection_config, write_audit,
)

log = logging.getLogger(__name__)

# Stands in a rerun's log for the value of a setting that only one of the
# cached and the current key parts holds; no repr equals it.
_UNDECLARED = "(undeclared)"

# What ``corpus.open_file`` raises for a path that is not a regular file:
# missing, a directory, or a FIFO or device.
_NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.EINVAL)

# Binary formats by suffix: a new version reruns the writer (``Runner._parts``).
_FORMATS = {".agmm": gmm.GMM_VERSION, ".adoc": docmodel.DOCS_VERSION, ".alda": lda.LDA_VERSION}

# The files of each threshold of a sweep, named by its tag (``_lambda_tag``).
_SWEEP_FILES = ("selection_lambda_{}.audit.tsv", "selection_lambda_{}.tsv", "report_lambda_{}.tsv")


@dataclass(frozen=True)
class Stage:
    """One entry of ``Runner.stages``: the work-dir files the stage reads; the
    config settings it reads, as dotted fields or whole sections; the corpus
    parts it reads, ``<dev|pool> <features|transcripts|manifest|dir>``; the
    files it writes; its body, called with the input paths and then the
    temporary output paths; and the sweep's thresholds. ``Runner._parts``
    resolves these into the stage's key parts."""

    inputs: list[str]
    settings: list[str]
    corpus: list[str]
    outputs: list[str]
    body: Callable[..., None]
    lambdas: tuple[float, ...] = ()


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


def _read_json(path: Path, what: str, entry_ok: Callable[[object], bool]) -> dict | None:
    """The JSON object in the file ``path`` if each of its values passes
    ``entry_ok``; None if there is no file, and None with a warning naming
    ``what`` if it is not UTF-8 JSON of that shape."""
    try:  # ValueError: not UTF-8, or not JSON
        data = json.loads(corpus.read_file(path).decode("utf-8"))
    except FileNotFoundError:
        return None
    except ValueError:
        data = None
    if isinstance(data, dict) and all(map(entry_ok, data.values())):
        return data
    log.warning("ignoring corrupt %s %s", what, path)
    return None


def _write_json(path: Path, data: dict) -> None:
    with publish(path) as (tmp,):
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    """The run's final selection, parsed back from ``selection.audit.tsv``,
    and whether the cache let each stage it ran skip. The audit records no
    stop reason, so ``selection.stop_reason`` is always None: the ``select``
    stage's log line says why the greedy loop stopped."""

    selection: SelectionResult
    skipped: dict[str, bool] = field(default_factory=dict)


class Runner:
    """Executes pipeline stages against one work directory."""

    def __init__(self, config: PipelineConfig):
        validate_config(config)
        self.config = config
        self.work = Path(config.paths.work_dir)
        self.cache_path = self.work / "cache.json"
        self.record_path = self.work / "signatures.json"
        # Each manifest is read once, here, and parsed only when a stage or
        # command first needs its utterances (``manifest``): the stage keys
        # hash the very bytes that are parsed, so a manifest edited after
        # this point cannot get the old manifest's results cached under its
        # new contents. This read is the one check that the manifest is a file.
        self.manifest_bytes: dict[str, bytes] = {}
        self._manifest_paths: dict[str, Path] = {}
        for which in ("dev", "pool"):
            path = self._manifest_paths[which] = Path(getattr(config.paths, f"{which}_manifest"))
            try:
                self.manifest_bytes[which] = corpus.read_file(path)
            except OSError as exc:
                if exc.errno not in _NOT_A_FILE:
                    raise
                raise ValidationError(f"paths.{which}_manifest: {exc.strerror}: {path}") from None
        self._manifest_hashes: dict = {}
        self._manifests: dict[str, corpus.Manifest] = {}

    def manifest(self, which: str) -> corpus.Manifest:
        """The ``dev`` or ``pool`` manifest, parsed on its first use, once per
        runner, from the bytes read at construction: a malformed one raises
        FormatError then. Every stage takes the utterances in id order, so no
        output depends on the lines' order. A cached rerun parses neither, and
        a stage or command that needs only the pool parses only the pool."""
        if which not in self._manifests:
            m = corpus.parse_manifest(self.manifest_bytes[which], self._manifest_paths[which],
                                      role=which)
            m.utterances.sort(key=lambda u: u.id)
            self._manifests[which] = m
        return self._manifests[which]

    @property
    def pool(self) -> corpus.Manifest:
        """The pool manifest of :meth:`manifest`."""
        return self.manifest("pool")

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
            self.cache: dict = _read_json(
                self.cache_path, "cache file", lambda e: isinstance(e, dict)) or {}
            self._sigs = signatures.Record(_read_json(
                self.record_path, "signature record", signatures.valid_entry))
            self.skipped: dict[str, bool] = {}
            # Work-dir file digests by name, corpus part digests by part name.
            self._digests: dict = {}
            # Each transcript's bytes (None if missing) from the digest pass,
            # by corpus, for text-tfidf: kept until the chain's last stage
            # that declares transcripts.
            self._transcripts: dict[str, list[bytes | None]] = {}
            yield

    def write_selection(self, result: SelectionResult, audit: Path, manifest: Path) -> None:
        """Write ``result``'s audit and its selection manifest, a manifest of
        the selected utterances reusable as a training manifest. It lists the
        paths the pool manifest resolved to, absolute where the pool's were
        relative, so it is valid from any directory. ``result`` is checked by
        :func:`~ldaselect.selection.pool_records` before either is written."""
        utts = pool_records(result, self._selection_rows)
        write_audit(result, audit)
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

    def _corpus_digest(self, part: str, why: str | None = None) -> str:
        """sha256 of the corpus part ``<which> <what>``: the manifest's bytes;
        the directory its relative paths resolved against (``dir``); or those
        bytes and every feature (or transcript) file listed, each framed by a
        presence byte and its length, so no two sets of file contents hash
        alike and a listed transcript that is missing differs from an empty one.
        A ``features`` or ``transcripts`` part goes through the signature
        record (``why`` as :meth:`signatures.Record.verified` takes it)."""
        if part in self._digests:
            return self._digests[part]
        which, what = part.split()
        if what == "dir":
            parent = self._manifest_paths[which].parent.absolute()
            digest = hashlib.sha256(str(parent).encode()).hexdigest()
        elif what == "manifest":
            digest = self._manifest_hash(which).hexdigest()
        else:
            digest = self._sigs.verified(part, partial(self._corpus_signature, which, what),
                                         partial(self._hash_corpus, which, what), why)
        self._digests[part] = digest
        return digest

    def _manifest_hash(self, which: str):
        """A sha256 fed the manifest's length and bytes, for more to follow:
        a copy of the one fed once per runner."""
        if which not in self._manifest_hashes:
            data = self.manifest_bytes[which]
            h = self._manifest_hashes[which] = hashlib.sha256(len(data).to_bytes(8, "little"))
            h.update(data)
        return self._manifest_hashes[which].copy()

    def _corpus_signature(self, which: str, what: str) -> str:
        """The signature of a corpus part: the manifest's bytes and the stat
        fields of each file listed, from one ``stat`` each, no file opened and
        no record built: :func:`corpus.listed_files` scans the paths. It
        vouches for a digest only when it equals the signature that
        :meth:`_hash_corpus` took from the files the parsed records open, so a
        path that the scan spells otherwise only sends the part back to its
        contents."""
        fields = []
        data, path = self.manifest_bytes[which], self._manifest_paths[which]
        for p in corpus.listed_files(data, path, what == "transcripts"):
            try:
                st = os.stat(p) if p else None
            except OSError:
                st = None
            fields.append(signatures.stat_field(st))
        h = self._manifest_hash(which)
        h.update(b"".join(fields))
        return h.hexdigest()

    def _hash_corpus(self, which: str, what: str) -> tuple[str, str, int]:
        """The digest of a corpus part from its files' contents, each file's
        bytes framed after its utterance id (see :meth:`_corpus_digest`), with
        the part's signature from the ``fstat`` before each read and the
        newest mtime or ctime among them. A transcripts part keeps each
        file's bytes (None if missing) for ``text-tfidf``."""
        h = self._manifest_hash(which)
        sig = h.copy()
        changed = 0
        transcripts = what == "transcripts"
        if transcripts:
            kept = self._transcripts[which] = []
        for utt in self.manifest(which):
            p = utt.transcript_file if transcripts else utt.feature_file
            h.update(utt.id.encode())
            data = st = None
            if p:
                try:
                    data, st = corpus.read_file_stat(p)
                except OSError:
                    if os.path.isfile(p):  # there, but unreadable: not "missing"
                        raise
            sig.update(signatures.stat_field(st))
            if transcripts:
                kept.append(data)
            if data is None:
                if not transcripts:
                    raise StageError("inputs", f"missing feature file for '{utt.id}': {p}")
                h.update(b"\0")
            else:
                changed = max(changed, signatures.changed(st))
                h.update(b"\1" + len(data).to_bytes(8, "little"))
                h.update(data)
        return h.hexdigest(), sig.hexdigest(), changed

    def _digest(self, name: str, why: str | None = None) -> str | None:
        """sha256 of the work-dir file ``name`` (None if there is none),
        through the signature record (``why`` as :meth:`_corpus_digest` takes
        it) once per run and remembered until a stage replaces it."""
        if name not in self._digests:
            path = self.work / name
            try:
                st = os.stat(path)
            except OSError:
                return None
            if not stat.S_ISREG(st.st_mode):
                return None
            self._digests[name] = self._sigs.verified(
                name, partial(signatures.signature, st), partial(signatures.sha256, path), why)
        return self._digests[name]

    def _parts(self, name: str, stage: Stage) -> dict[str, str]:
        """``stage``'s key parts by name, in a fixed order: the sha256 of each
        input artifact (``input <file>``), the ``repr`` of each setting (of
        each field, for a section), the sha256 of each corpus part and of the
        sweep's threshold list (``sweep lambdas``), and the format version of
        each binary output (``format <file>``). Only settings' names lack a
        space."""
        parts = {}
        for art in stage.inputs:
            parts[f"input {art}"] = digest = self._digest(art)
            if digest is None:
                raise StageError(name, f"missing input artifact '{art}'; run earlier stages first")
        for s in stage.settings:
            value = reduce(getattr, s.split("."), self.config)
            if is_dataclass(value):  # a section: each of its fields
                parts |= {f"{s}.{f.name}": repr(getattr(value, f.name)) for f in fields(value)}
            else:
                parts[s] = repr(value)
        parts |= {c: self._corpus_digest(c) for c in stage.corpus}
        if stage.lambdas:
            parts["sweep lambdas"] = hashlib.sha256(repr(stage.lambdas).encode()).hexdigest()
        return parts | {f"format {o}": str(_FORMATS[Path(o).suffix])
                        for o in stage.outputs if Path(o).suffix in _FORMATS}

    def _run_stage(self, name: str, stage: Stage) -> None:
        """Run ``stage``'s body unless its cached parts equal its parts and
        every output still has its recorded digest, and log why it runs. Only
        here are the outputs published, and only once the body has written
        them all."""
        parts = self._parts(name, stage)
        entry = self.cache.get(name, {})
        old = entry.get("parts")
        changed = []
        if not isinstance(old, dict):  # none, or one of a format without parts
            why = ["cache entry records no parts" if entry else "no cache entry"]
        elif old != parts:
            changed = _differing(old, parts)
            why = [f"{p} changed" if " " in p else
                   f"{p} {old.get(p, _UNDECLARED)} -> {parts.get(p, _UNDECLARED)}"
                   for p in changed]
        else:
            current = {o: self._digest(o) for o in stage.outputs}
            changed = _differing(entry.get("outputs"), current)
            why = [f"output {o} changed" for o in changed]
        if not why:
            log.info("stage %s: skipped (cached)", name)
            self.skipped[name] = True
            return
        # A running stage reads its corpus parts, so their keys come from the
        # contents too; and a digest from the record that makes it run is
        # checked against the contents first. Contents that contradict the
        # record may have let an earlier stage skip.
        for n in dict.fromkeys([*stage.corpus, *(c.removeprefix("input ") for c in changed)]):
            if n in self._sigs.trusted:
                trusted = self._digests.pop(n)
                self._sigs.trusted.discard(n)
                reread = self._corpus_digest if " " in n else self._digest
                if reread(n, "read for a running stage") != trusted:
                    raise signatures.Contradicted(n)
        log.info("stage %s: running (%s)", name, "; ".join(why))
        outputs = stage.outputs
        try:
            with publish(*(self.work / o for o in outputs)) as tmps:
                stage.body(*(self.work / i for i in stage.inputs), *tmps)
                digests = {o: signatures.sha256(tmp)[0] for o, tmp in zip(outputs, tmps)}
        except StageError:
            raise
        except (LdaSelectError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
        for o in outputs:
            self._sigs.forget(o)
        self._digests.update(digests)
        self.skipped[name] = False
        self.cache[name] = {"parts": parts, "outputs": digests}
        _write_json(self.cache_path, self.cache)

    # -- the stage table --------------------------------------------------

    @property
    def stages(self) -> dict[str, Stage]:
        """Every stage of this config by name, in run order: the acoustic
        chain; with ``[text] enabled``, ``text-tfidf``, the text twins of the
        four topic stages and ``combine``; then ``report``. Built on each read:
        its bodies hold the runner, so a kept table would be a reference cycle."""
        c = self.config
        features = ["dev features", "pool features"]
        stages = {
            "train-gmm": Stage([], ["quantizer"], features, ["gmm.agmm"], self._train_gmm),
            "quantize": Stage(["gmm.agmm"], [], features,
                              ["bags_pool.adoc", "bags_dev.adoc"], self._quantize),
            "tfidf": Stage(["bags_pool.adoc", "bags_dev.adoc"], [], [],
                           ["weighted_pool.adoc", "weighted_dev.adoc"], self._tfidf),
        }
        selection = "selection_acoustic" if c.text.enabled else "selection"
        stages |= self._topic_stages("", "", selection)
        if c.text.enabled:
            stages["text-tfidf"] = Stage(
                [], ["docmodel.text_vocab_cap"],
                ["dev transcripts", "pool transcripts"],
                ["text_vocab.tsv", "text_weighted_pool.adoc", "text_weighted_dev.adoc"],
                self._text_tfidf)
            stages |= self._topic_stages("text-", "text_", "selection_text")
            stages["combine"] = Stage(["selection_acoustic.audit.tsv", "selection_text.audit.tsv"],
                                      [], ["pool manifest", "pool dir"],
                                      ["selection.audit.tsv", "selection.tsv"], self._combine)
        stages["report"] = Stage(["selection.audit.tsv"], [], ["pool manifest"],
                                 ["report.tsv", "report.txt"], self._report)
        return stages

    def _topic_stages(self, n: str, p: str, selection: str) -> dict[str, Stage]:
        """``train-lda``, ``posteriors``, ``cluster`` and ``select`` named with
        prefix ``n``, over the files named with prefix ``p``: the acoustic
        chain's, or its text twins', under the same settings; ``selection``
        names the selection's outputs."""
        return {
            f"{n}train-lda": Stage(
                [f"{p}weighted_pool.adoc", f"{p}weighted_dev.adoc"], ["lda"], [],
                [f"{p}lda.alda"], partial(self._train_lda, f"{n}train-lda")),
            f"{n}posteriors": Stage(
                [f"{p}lda.alda", f"{p}weighted_pool.adoc", f"{p}weighted_dev.adoc"],
                ["lda.doc_tol", "lda.doc_max_iterations"], [],
                [f"{p}post_pool.tsv", f"{p}post_dev.tsv"],
                partial(self._posteriors, f"{n}posteriors")),
            f"{n}cluster": Stage([f"{p}post_dev.tsv"], ["cluster"], [],
                                 [f"{p}centroids.tsv", f"{p}centroids.meta.json"], self._cluster),
            f"{n}select": Stage(
                [f"{p}post_pool.tsv", f"{p}centroids.tsv"], ["selection"],
                ["pool manifest", "pool dir"], [f"{selection}.audit.tsv", f"{selection}.tsv"],
                partial(self._select, f"{n}select")),
        }

    def _sweep_stage(self, lambdas: list[float]) -> Stage:
        """``sweep``: each threshold's selection audit, manifest and report, then a summary."""
        return Stage(["post_pool.tsv", "centroids.tsv"], ["selection.max_hours"],
                     ["pool manifest", "pool dir"],
                     [n.format(_lambda_tag(lam)) for lam in lambdas for n in _SWEEP_FILES]
                     + ["sweep_summary.tsv"], partial(self._sweep, lambdas), tuple(lambdas))

    def writes(self, name: str) -> bool:
        """Whether a stage of this config, or a sweep under any thresholds,
        writes the work-dir file ``name``."""
        stages = [*self.stages.values(), self._sweep_stage([])]
        return any(name in s.outputs for s in stages) or any(
            fnmatchcase(name, n.format("*")) for n in _SWEEP_FILES)

    # -- stage bodies: input paths, then temporary output paths -----------

    def _train_gmm(self, out_model: Path) -> None:
        q = self.config.quantizer
        X = corpus.sample_frames(
            [self.manifest("dev"), self.pool], q.max_train_frames, q.seed
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
        """Tokens of each corpus's frames, scored a :func:`corpus.feature_blocks`
        block at a time, then counted into one bag per utterance of its
        manifest frame count (none for a manifest that lists no utterance)."""
        model = gmm.load_gmm(model_path)
        for manifest, out in ((self.pool, out_pool), (self.manifest("dev"), out_dev)):
            tokens = np.concatenate([np.zeros(0, dtype=np.int64)] + [
                gmm.quantize(model, block)
                for _, block in corpus.feature_blocks(manifest.utterances, model.frame_dim)
            ])
            lengths = np.fromiter((utt.num_frames for utt in manifest), np.int64, len(manifest))
            bags = docmodel.bag_of_tokens(manifest.ids(), tokens, lengths, model.n_components)
            docmodel.save_docs(bags, out)

    def _write_tfidf(self, bags: dict, out_pool: Path, out_dev: Path):
        """Weighted documents from the bags ``bags["dev"]`` and ``bags["pool"]``,
        with idf over both."""
        stats = docmodel.compute_stats([bags["dev"], bags["pool"]])
        for which, out in (("pool", out_pool), ("dev", out_dev)):
            docmodel.save_docs(docmodel.tfidf(bags[which], stats), out)

    def _tfidf(self, pool: Path, dev: Path, out_pool: Path, out_dev: Path) -> None:
        bags = {"dev": docmodel.load_docs(dev), "pool": docmodel.load_docs(pool)}
        self._write_tfidf(bags, out_pool, out_dev)

    def _text_tfidf(self, out_vocab: Path, out_pool: Path, out_dev: Path) -> None:
        """The vocabulary and weighted documents of the transcripts, from the
        bytes that the stage's digest pass read."""
        tokens = {
            w: [docmodel.normalize_tokens(corpus.transcript_text(u, data))
                for u, data in zip(self.manifest(w), self._transcripts[w])]
            for w in ("dev", "pool")
        }
        vocab = docmodel.build_text_vocab(
            tokens["dev"] + tokens["pool"], self.config.docmodel.text_vocab_cap
        )
        if len(vocab) == 0:
            raise ValidationError("no transcript tokens available for the text path")
        with open(out_vocab, "w", encoding="utf-8") as fh:
            for tok, i in vocab.items():  # ids ascend in insertion order
                fh.write(f"{tok}\t{i}\n")
        bags = {
            which: docmodel.bag_of_words(
                self.manifest(which).ids(),
                [docmodel.token_ids(doc, vocab) for doc in tokens[which]],
                len(vocab),
            )
            for which in ("dev", "pool")
        }
        self._write_tfidf(bags, out_pool, out_dev)

    def _train_lda(self, name: str, pool: Path, dev: Path, out_model: Path) -> None:
        params = self.config.lda
        docs = docmodel.DocBatch.concat(
            docmodel.load_docs({"dev": dev, "pool": pool}[which])
            for which in params.train_source.split("+")  # dev or dev+pool
        )
        model = lda.train_lda(docs, params.n_topics, config=params)
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
        n_clusters = c.n_clusters
        if n_clusters > X.shape[0]:
            log.warning("clamping cluster count %d to %d vectors", n_clusters, X.shape[0])
            n_clusters = X.shape[0]
        km = train_kmeans(X, n_clusters, seed=c.seed)
        lda.write_posteriors(
            lda.Posteriors([centroid_id(i) for i in range(n_clusters)], km.centroids),
            out_centroids,
        )
        meta = {
            "inertia": km.inertia_history[-1], "n_iterations": km.n_iterations,
            "cluster_sizes": np.bincount(km.assignments, minlength=n_clusters).tolist(),
        }
        out_meta.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def _select(self, name: str, post_pool: Path, centroids: Path, out_audit: Path,
                out_manifest: Path) -> None:
        posts = lda.read_posteriors(post_pool)
        result = select(posts, self.pool, lda.read_posteriors(centroids).gamma,
                        self.config.selection)
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
        if there is none); then save the signature record if the run changed
        it or found none to read. If
        contents contradict the record, discard it and check the chain again
        from contents. Log how the digests were taken."""
        try:
            try:
                data = self._run_stages(chain, result)
            except signatures.Contradicted as exc:
                log.warning(
                    "signature record %s: the contents of %s contradict its recorded "
                    "digest; discarding the record and checking from contents",
                    self.record_path, exc.args[0])
                self._digests.clear()
                self._sigs.discard()
                data = self._run_stages(chain, result)  # trusts nothing, so cannot raise it
            if self._sigs.entries != self._sigs.saved:
                _write_json(self.record_path, self._sigs.entries)
            return data
        finally:
            log.info("%s", self._sigs.summary())

    def _run_stages(self, chain: dict[str, Stage], result: str) -> bytes | None:
        """The stages of :meth:`_run_chain`. The bytes of ``result`` are read
        before the stages, and their digest kept for the skip checks, so a
        cached run opens the file once; they are read again only if a stage
        published different contents."""
        path = self.work / result
        data = None
        with suppress(FileNotFoundError):
            now = time.time_ns()
            data, st = corpus.read_file_stat(path)
            self._digests[result] = self._sigs.hashed(
                result, now, hashlib.sha256(data).hexdigest(), signatures.signature(st),
                signatures.changed(st), "returned")
        before = self._digests.get(result)
        readers = [n for n, s in chain.items() if any(c.endswith(" transcripts") for c in s.corpus)]
        for name, stage in chain.items():
            self._run_stage(name, stage)
            if readers and name == readers[-1]:
                self._transcripts.clear()
        if self._digests.get(result) != before:
            data = corpus.read_file(path)
        return data


def run_pipeline(config: PipelineConfig, stages: list[str] | None = None) -> PipelineResult:
    """Validate the config, then execute the requested stages in order."""
    return Runner(config).run(stages)


def _differing(old, new: dict) -> list[str]:
    """Names that ``new`` and the recorded mapping ``old`` (read from
    ``cache.json``: anything else counts as empty) differ on, in ``new``'s
    order, then names only ``old`` has: none exactly when the two are equal."""
    old = old if isinstance(old, dict) else {}
    return [k for k in {**new, **old} if old.get(k, _UNDECLARED) != new.get(k, _UNDECLARED)]


def _lambda_tag(lam: float) -> str:
    return f"{lam:.9g}".replace(".", "p")


def sweep_lambda(config: PipelineConfig, lambdas: list[float]) -> list[dict]:
    """Check that there is a threshold, each one, and that no two share the tag
    that names their files, before touching the disk; then :meth:`Runner.sweep`."""
    if not lambdas:
        raise ValidationError("lambdas must list at least one threshold")
    by_tag: dict[str, list[float]] = {}
    for lam in lambdas:
        validate_selection_config(replace(config.selection, threshold=lam))
        by_tag.setdefault(_lambda_tag(lam), []).append(lam)
    clashes = [f"{', '.join(map(repr, v))} (tag {t})" for t, v in by_tag.items() if len(v) > 1]
    if clashes:
        raise ValidationError("thresholds would overwrite each other's sweep files: "
                              + "; ".join(clashes))
    return Runner(config).sweep(lambdas)
