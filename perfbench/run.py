"""ldaselect benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, from the repository root.

Closed loop, one client: each operation runs in a fresh child process and the
next starts when it ends. The workload's corpora are generated from ``--seed``
under ``perfbench/.work`` and deleted at the end. Operations repeat for
``--seconds`` seconds and at least once per corpus.

``--trace 0`` prints the end-to-end metrics: medians over operations of
``setup_s``, ``run_s`` and ``peak_rss_mb``, and the median over corpora of
``enrichment`` and ``recall``. ``--trace 1`` measures corpus 0 untraced for
``--seconds``, then once more traced as a whole (for the tracing overhead),
then twice more with every stage in its own traced child, and prints the
per-layer metrics of the first traced pass. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See NOTE.md.
"""

import os

# One BLAS thread for every run: on this 2-core box two threads made
# train_gmm no faster and tripled its run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import synthcorpus  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    BUDGET_SHARE, RANDOM_BASELINE_SEED, TARGET_DOMAIN, WORKLOADS,
)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("enrichment", "ratio"),
    ("recall", "fraction"),
]
# Every run must end within 180 s; stop starting operations well before.
TIME_LIMIT_S = 150.0


class OpFailed(Exception):
    pass


def load_program():
    """Import ldaselect from this checkout's ``src``; exit 2 if it is missing."""
    if not (SRC / "ldaselect" / "__init__.py").is_file():
        sys.stderr.write(f"ldaselect sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ldaselect

    if Path(ldaselect.__file__).resolve().parent != (SRC / "ldaselect").resolve():
        sys.stderr.write(f"imported ldaselect from {ldaselect.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return ldaselect


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.ldaselect = load_program()
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.dir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.corpora: list[dict] = []
        self.audit_sha: dict[int, str] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.ops: list[dict] = []
        self.problems: list[str] = []

    # -- inputs -----------------------------------------------------------

    def generate(self) -> None:
        n = 1 if self.trace else self.w.corpora
        for j in range(n):
            info = synthcorpus.generate(self.w.shape, self.seed, j, self.dir / f"corpus{j}")
            hours = info["pool_frames"] / synthcorpus.FPS / 3600.0
            info["max_hours"] = repr(BUDGET_SHARE * hours)
            info["pool"] = self.ldaselect.read_manifest(info["pool_manifest"])
            info["pool_ids"] = set(info["pool"].ids())
            self.corpora.append(info)
        config = self.ldaselect.load_config(self.write_config(0, self.dir / "probe"))
        self.lam = config.selection.threshold
        self.text = config.text.enabled
        if self.w.warm and self.lam not in self.w.lambdas:
            raise SystemExit(f"configured lambda {self.lam} is not in the sweep list")

    def write_config(self, j: int, op_dir: Path) -> Path:
        info = self.corpora[j]
        op_dir.mkdir(parents=True, exist_ok=True)
        path = op_dir / "run.cfg"
        path.write_text(
            "[paths]\n"
            f"pool_manifest = {info['pool_manifest']}\n"
            f"dev_manifest = {info['dev_manifest']}\n"
            f"work_dir = {op_dir / 'work'}\n\n"
            + self.w.config.format(max_hours=info["max_hours"]),
            encoding="utf-8",
        )
        return path

    # -- child processes ----------------------------------------------------

    def launch(self, config: Path, mode: str, **extra) -> dict:
        """Run one child to completion; return its result or raise OpFailed."""
        op_dir = config.parent
        tag = f"{mode}-{extra.get('stages', [''])[0]}{'-trace' if extra.get('trace') else ''}"
        spec = {"src": str(SRC), "config": str(config), "mode": mode,
                "out": str(op_dir / f"{tag}.json"), **extra}
        spec_path = op_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = op_dir / f"{tag}.log"
        budget = self.t_start + TIME_LIMIT_S + 20.0 - time.monotonic()
        if budget < 1.0:
            raise OpFailed(f"{tag}: no time left")
        with open(log, "wb") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, timeout=budget,
                )
            except subprocess.TimeoutExpired:
                raise OpFailed(f"{tag}: timed out") from None
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            raise OpFailed(f"{tag}: exit {proc.returncode}: {' | '.join(tail)}")
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))

    # -- output checks ------------------------------------------------------

    def check_outputs(self, j: int, work: Path) -> list[str]:
        """Selection checks shared by every operation; returns the failures."""
        problems = []
        info = self.corpora[j]
        audit = work / "selection.audit.tsv"
        try:
            greedy = self.ldaselect.selection.read_audit(audit)
            listed = self.ldaselect.read_manifest(work / "selection.tsv").ids()
        except (OSError, self.ldaselect.LdaSelectError) as exc:
            return [f"unreadable selection: {exc}"]
        if set(listed) - info["pool_ids"]:
            problems.append("selection.tsv lists ids that are not in the pool manifest")
        if sorted(greedy.ids()) != sorted(listed):
            problems.append("selection.audit.tsv and selection.tsv disagree")
        digest = sha256(audit)
        if self.audit_sha.setdefault(j, digest) != digest:
            problems.append(f"corpus {j}: selection audit differs from an earlier run")
        try:
            rnd = self.ldaselect.random_select(
                info["pool"], greedy.total_hours, seed=RANDOM_BASELINE_SEED
            )
            g, r = self.ldaselect.compare(
                [("greedy", greedy), ("random", rnd)], info["pool"], TARGET_DOMAIN
            )
        except self.ldaselect.LdaSelectError as exc:
            return problems + [f"enrichment: {exc}"]
        if not g.enrichment > r.enrichment:
            problems.append(
                f"greedy enrichment {g.enrichment:.4f} is not above matched random "
                f"{r.enrichment:.4f}"
            )
        self.quality[j] = (g.enrichment, g.recall)
        return problems

    def select_reference(self, j: int, work: Path) -> None:
        """Cold acoustic ``select`` stage without the hour budget, as the sweep runs.

        It runs in a fresh work dir that holds only the stage's inputs, copied
        from the primed ``work``; ``check_sweep`` compares the sweep against it.
        """
        ref = work.parent / "reference"
        ref.mkdir()
        for name in ("post_pool.tsv", "centroids.tsv"):
            shutil.copyfile(work / name, ref / name)
        config = self.ldaselect.load_config(work.parent / "run.cfg")
        config = dataclasses.replace(
            config,
            paths=dataclasses.replace(config.paths, work_dir=str(ref)),
            selection=dataclasses.replace(config.selection, max_hours=None),
        )
        self.ldaselect.run_pipeline(config, ["select"])
        out = ref / ("selection_acoustic.audit.tsv" if self.text else "selection.audit.tsv")
        self.sweep_reference[j] = out.read_bytes()
        shutil.rmtree(ref)

    def check_sweep(self, j: int, work: Path) -> list[str]:
        tag = f"{self.lam:.9g}".replace(".", "p")
        swept = work / f"selection_lambda_{tag}.audit.tsv"
        if not swept.is_file() or swept.read_bytes() != self.sweep_reference.get(j):
            return [f"sweep audit at lambda {self.lam} differs from the cold unbudgeted "
                    "acoustic select"]
        return []

    # -- operations ---------------------------------------------------------

    def prime(self) -> None:
        """Warm workloads: fill one work dir per corpus with a cold run.

        Priming is set-up, outside the measured ``seconds``; its wall time is
        added to the ``setup_s`` of every operation on that corpus. The
        sweep's reference selection is made afterwards, outside that time.
        """
        self.prime_s: dict[int, float] = {}
        self.sweep_reference: dict[int, bytes] = {}
        for j in range(len(self.corpora)):
            config = self.write_config(j, self.dir / f"warm{j}")
            t0 = time.monotonic()
            try:
                self.launch(config, "run")
            except OpFailed as exc:
                self.ops.append({"corpus": j, "problems": [f"priming: {exc}"]})
                continue
            self.prime_s[j] = time.monotonic() - t0
            problems = self.check_outputs(j, config.parent / "work")
            try:
                self.select_reference(j, config.parent / "work")
            except (OSError, self.ldaselect.LdaSelectError) as exc:
                problems.append(f"reference select: {exc}")
            if problems:
                self.ops.append({"corpus": j, "problems": [f"priming: {p}" for p in problems]})

    def operation(self, j: int) -> dict:
        if self.w.warm:
            if j not in self.prime_s:
                return {"corpus": j, "problems": [f"corpus {j} was not primed"]}
            op_dir = self.dir / f"warm{j}"
            config = op_dir / "run.cfg"
        else:
            op_dir = self.dir / f"op{len(self.ops)}"
            config = self.write_config(j, op_dir)
        t_launch = time.monotonic()
        try:
            if self.w.warm:
                res = self.launch(config, "warm", lambdas=list(self.w.lambdas))
            else:
                res = self.launch(config, "run")
        except OpFailed as exc:
            return {"corpus": j, "problems": [str(exc)]}
        setup_s = res["op_start"] - t_launch
        if self.w.warm:
            setup_s += self.prime_s[j]
            problems = self.check_sweep(j, op_dir / "work")
            if not all(res["skipped"].values()):
                problems.append("cached rerun recomputed a stage")
        else:
            problems = self.check_outputs(j, op_dir / "work")
            shutil.rmtree(op_dir)
        return {
            "corpus": j, "problems": problems, "setup_s": setup_s,
            "run_s": res["run_s"], "peak_rss_mb": res["peak_rss_mb"],
            "shape": {k: res[k] for k in
                      ("pool_utterances", "pool_frames", "dev_utterances", "dev_frames")},
        }

    def measure(self) -> None:
        """Closed loop for ``seconds``, at least one operation per corpus."""
        t0 = time.monotonic()
        while len(self.ops) < len(self.corpora) or time.monotonic() - t0 < self.seconds:
            longest = max((op.get("setup_s", 0) + op.get("run_s", 0) for op in self.ops),
                          default=0.0)
            if time.monotonic() + longest - self.t_start > TIME_LIMIT_S:
                if len(self.ops) < len(self.corpora):
                    self.problems.append("time limit reached before every corpus was run")
                break
            self.ops.append(self.operation(len(self.ops) % len(self.corpora)))

    def traced_pass(self, k: int) -> list[dict]:
        op_dir = self.dir / f"trace{k}"
        config = self.write_config(0, op_dir)
        children = []
        stages = [s for s in tracing.STAGES
                  if self.text or not (s.startswith("text-") or s == "combine")]
        try:
            if self.w.warm:
                self.launch(config, "run")
            for stage in stages:
                res = self.launch(config, "stages", stages=[stage], trace=True)
                res.update(label=stage, path="text" if stage.startswith("text-") else "acoustic")
                children.append(res)
            if self.w.warm:
                res = self.launch(config, "sweep", lambdas=list(self.w.lambdas), trace=True)
                res.update(label="sweep", path="acoustic")
                children.append(res)
        except OpFailed as exc:
            self.ops.append({"corpus": 0, "problems": [f"traced pass {k}: {exc}"]})
            return children
        problems = self.check_outputs(0, op_dir / "work")
        if self.w.warm:
            problems += self.check_sweep(0, op_dir / "work")
        self.ops.append({"corpus": 0, "problems": [f"traced pass {k}: {p}" for p in problems]})
        shutil.rmtree(op_dir)
        return children

    def traced_whole(self) -> float | None:
        """``run_s`` of one whole operation on corpus 0 with every wrapper installed.

        Set against the untraced ``run_s`` median, it gives the tracing
        overhead; the per-stage passes cannot, since each of their children
        also re-reads the manifests and re-hashes the inputs.
        """
        if self.w.warm:
            op_dir = self.dir / "warm0"
            config = op_dir / "run.cfg"
        else:
            op_dir = self.dir / "whole"
            config = self.write_config(0, op_dir)
        try:
            if self.w.warm:
                res = self.launch(config, "warm", lambdas=list(self.w.lambdas), trace=True)
            else:
                res = self.launch(config, "run", trace=True)
        except OpFailed as exc:
            self.ops.append({"corpus": 0, "problems": [f"traced operation: {exc}"]})
            return None
        if self.w.warm:
            problems = self.check_sweep(0, op_dir / "work")
        else:
            problems = self.check_outputs(0, op_dir / "work")
            shutil.rmtree(op_dir)
        self.ops.append({"corpus": 0, "problems": [f"traced operation: {p}" for p in problems]})
        return res["run_s"]


def median(values):
    return statistics.median(values) if values else None


def report_trace(
    bench: Bench, passes: list[list[dict]], traced_run_s: float | None, ok_ops: list[dict]
) -> dict:
    untraced = median([op["run_s"] for op in ok_ops if op["corpus"] == 0])
    first = tracing.layer_metrics(passes[0])
    second = tracing.layer_metrics(passes[1])
    if traced_run_s is not None and untraced is not None:
        first["trace.overhead_s"] = traced_run_s - untraced
    table = tracing.metric_table()
    units = {name: unit for name, unit, _ in table}
    for name, unit, _ in table:
        if unit in ("count", "B") and first.get(name) != second.get(name):
            bench.problems.append(
                f"benchmark defect: count {name} differs between two traced runs at one "
                f"seed ({first.get(name)} vs {second.get(name)})"
            )
    absent = [name for name, _, _ in table if name not in first]
    selfs = {layer: first.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS}
    total_self = sum(selfs.values()) or 1.0
    ranked = sorted(selfs, key=selfs.get, reverse=True)
    top = ranked[: len(bench.w.predicted_dominant)]
    print("self time by layer: " + ", ".join(
        f"{layer} {selfs[layer]:.3f} s ({100 * selfs[layer] / total_self:.1f}%)"
        for layer in ranked))
    verdict = "confirmed" if set(top) == set(bench.w.predicted_dominant) else "corrected"
    print(f"predicted dominant {'+'.join(bench.w.predicted_dominant)}; "
          f"measured {'+'.join(top)}: {verdict}")
    print(f"tracing overhead: traced run_s {traced_run_s} minus untraced run_s median "
          f"{untraced}: {first.get('trace.overhead_s', float('nan')):.3f} s")
    missing = sorted({name for ch in passes[0] for name in ch.get("missing", [])})
    print("functions not found: " + (", ".join(missing) or "none"))
    print("absent (function not called or not found; reported as 0 below): "
          + (", ".join(absent) or "none"))
    out = WORK / f"trace-{bench.w.name}-s{bench.seed}.json"
    out.write_text(json.dumps({
        "workload": bench.w.name, "seed": bench.seed, "metrics": first,
        "second_pass": second, "absent": absent, "self_s": selfs, "verdict": verdict,
        "spans": [{"label": ch["label"], "spans": ch.get("spans", [])} for ch in passes[0]],
    }), encoding="utf-8")
    print(f"spans written to {out.relative_to(ROOT)}")
    return {name: {"value": first.get(name, 0), "unit": units[name]} for name, _, _ in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    passes, traced_run_s = [], None
    try:
        bench.generate()
        print("env: " + json.dumps({**environment(), "seed": args.seed}, sort_keys=True))
        if bench.w.warm:
            bench.prime()
        bench.measure()
        if bench.trace:
            traced_run_s = bench.traced_whole()
            passes = [bench.traced_pass(k) for k in range(2)]
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    ok = [op for op in bench.ops if not op["problems"] and "run_s" in op]
    failed = sum(1 for op in bench.ops if op["problems"])
    for op in bench.ops:
        for p in op["problems"]:
            print(f"FAILED: {p}")
    shapes = {op["corpus"]: op["shape"] for op in bench.ops if "shape" in op}
    print("shape: " + json.dumps({
        "workload": bench.w.name, "corpora": shapes,
        "frame_dim": synthcorpus.FRAME_DIM, "separation": bench.w.shape.separation,
        "config": bench.w.config.replace("\n", " ").strip(),
        "lambdas": list(bench.w.lambdas), "budget_share": BUDGET_SHARE,
    }, sort_keys=True))
    print(f"operations: {len(bench.ops)} attempted, {failed} failed, error_rate "
          f"{failed / max(len(bench.ops), 1):.4f}, {len(ok)} timed")
    if not ok:
        print("no operation completed; no metrics to report", file=sys.stderr)
        return 1

    if bench.trace:
        metrics = report_trace(bench, passes, traced_run_s, ok)
    else:
        values = {
            "setup_s": median([op["setup_s"] for op in ok]),
            "run_s": median([op["run_s"] for op in ok]),
            "peak_rss_mb": median([op["peak_rss_mb"] for op in ok]),
            "enrichment": median([q[0] for q in bench.quality.values()]),
            "recall": median([q[1] for q in bench.quality.values()]),
        }
        for name, unit in END_TO_END:
            print(f"{name}: {values[name]:.6g} {unit}")
        print("enrichment, recall per corpus: " + " ".join(
            f"{j}:{e:.4g},{r:.4g}" for j, (e, r) in sorted(bench.quality.items())))
        for name in ("setup_s", "run_s", "peak_rss_mb"):
            print(f"{name} per operation ({len(ok)}): "
                  + " ".join(f"{op[name]:.4g}" for op in ok))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for p in bench.problems:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": failed == 0 and not bench.problems,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
