"""The benchmark proper: workloads, checks, cycles and metrics (see run.py)."""

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import oracle
import tracer

# Sizes keep one cycle of the four commands under about 5 s on a 2-core
# machine, so a 40 s run takes 6 or more samples of each; see each
# workload's reason in BENCHMARK.json.
WORKLOADS = {
    # latency floor: the program's own work is milliseconds, so every
    # command costs about one interpreter start plus imports
    "fisher": {
        "spec": None,
        "flags": ["--contingency", "--row-name", "eye", "--col-name", "hair"],
    },
    # scaling in N: load, joint tables, scores and per-row output dominate
    "tall": {
        "spec": gen.Spec(rows=20000, n_vars=40, n_planted=5, classes=3, categories=6),
        "flags": [],
    },
    # scaling in k: dim ~900, so model JSON, atom dictionaries and eig dominate
    "wide": {
        "spec": gen.Spec(rows=10000, n_vars=8, n_planted=2, classes=4, categories=150,
                         weighted=True, missing_rate=0.01),
        "flags": ["--weights", "w"],
    },
}
# Values printed in the README for Fisher's table.
FISHER_PUBLISHED = {
    "gini_eye": 0.364088769969,
    "gini_hair": 0.349854163209,
    "sigma": 0.081253378371,
    "rho": 0.227663947683,
    "lambda1": 0.190538848047,
    "first_term": "d[hair](medium->fair)",
}
COMMANDS = ("cov", "pca", "interpret", "select")
# name -> unit, as BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", **{f"{c}_s": "s" for c in COMMANDS},
              **{f"{c}_rss_mb": "MB" for c in COMMANDS}}
PER_LAYER = {**tracer.LAYER_METRICS, "trace.overhead_s": "s"}
N_COMPONENTS = 2
SETUP_PROBES_PER_CYCLE = 2
DEADLINE_S = 170  # the whole run must end within 180 s


class DeadlineExceeded(Exception):
    pass


def on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    stderr: str


class Runner:
    """Runs one child process at a time through the launcher (bench/launcher.py)."""

    def __init__(self, launcher, root: Path, work: Path, deadline: float):
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = work / "stderr.txt"
        self.deadline = deadline

    def _reply(self) -> dict:
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def run(self, argv: list) -> Outcome:
        request = {"argv": [sys.executable, *argv], "env": self.env, "stderr": str(self.stderr_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        pid = self._reply()["pid"]
        try:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded
            signal.setitimer(signal.ITIMER_REAL, remaining)
            reply = self._reply()
        except DeadlineExceeded:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            self._reply()  # the launcher reaps the child and reports it
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return Outcome(reply["seconds"], reply["maxrss_kb"] / 1024, reply["code"], stderr)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One workload's input, command lines, artifacts and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        cfg = WORKLOADS[name]
        self.table = gen.fisher() if cfg["spec"] is None else gen.generate(cfg["spec"], seed)
        self.input = work / "input.csv"
        self.input.write_text(self.table.text, encoding="utf-8", newline="")
        self.described = gen.describe(self.table)
        self.oracle = oracle.Oracle(self.table, N_COMPONENTS)
        # Fisher has nothing planted: its single "selected" variable is the oracle's top one
        self.expected = self.table.planted or self.oracle.top(1)
        out = {c: work / f"{c}.out" for c in ("cov", "interpret", "select", "corr", "scree")}
        pca_prefix = work / "run"
        base = ["-m", "rspca.cli"]
        flags = cfg["flags"]
        inp = str(self.input)
        self.argv = {
            "cov": [*base, "cov", inp, *flags, "--out", str(out["cov"])],
            "pca": [*base, "pca", inp, *flags, "--out", str(pca_prefix), "--svg", str(work / "kl.svg")],
            "interpret": [*base, "interpret", inp, *flags, "--components", str(N_COMPONENTS),
                          "--out", str(out["interpret"])],
            "select": [*base, "select", inp, *flags, "--top", str(len(self.expected)),
                       "--out", str(out["select"])],
            "corr": [*base, "corr", inp, *flags, "--out", str(out["corr"])],
            "scree": [*base, "scree", inp, *flags, "--out", str(out["scree"]), "--svg", str(work / "scree.svg")],
        }
        self.artifacts = {c: [out[c]] for c in out}
        self.artifacts["pca"] = [Path(f"{pca_prefix}.model.json"), Path(f"{pca_prefix}.scores.csv"),
                                 work / "kl.svg"]
        self.artifacts["scree"].append(work / "scree.svg")

    def check(self, command: str) -> None:
        """Raise oracle.CheckFailed unless the command's artifacts are right."""
        o = self.oracle
        text = [p.read_text(encoding="utf-8") for p in self.artifacts[command]]
        if command == "cov":
            o.check_cov(text[0])
        elif command == "corr":
            o.check_corr(text[0])
        elif command == "pca":
            o.check_model(json.loads(text[0]))
            o.check_scores(text[1], N_COMPONENTS)
            o.check_svg(text[2], o.n, "KL-plot")
        elif command == "interpret":
            first = FISHER_PUBLISHED["first_term"] if self.name == "fisher" else None
            o.check_interpret(text[0], N_COMPONENTS, first)
        elif command == "select":
            o.check_select(text[0], self.expected)
        elif command == "scree":
            o.check_scree(text[0])
            o.check_svg(text[1], o.dim, "scree plot")
        if self.name == "fisher" and command in ("cov", "corr", "interpret"):
            self._check_published(command, text[0])

    def _check_published(self, command: str, text: str) -> None:
        want = FISHER_PUBLISHED
        rows = [line.split(",") for line in text.splitlines()]
        if command == "cov":
            got = {"gini_eye": rows[1][1], "sigma": rows[1][2], "gini_hair": rows[2][2]}
        elif command == "corr":
            got = {"rho": rows[1][2]}
        else:
            got = {"lambda1": text.split("eigenvalue ", 1)[1].split(",", 1)[0]}
        for key, value in got.items():
            if abs(float(value) - want[key]) > oracle.REL * want[key]:
                raise oracle.CheckFailed(f"fisher {key} = {value}, published {want[key]!r}")


class Trial:
    """Runs operations, checks them and tallies samples and failures."""

    def __init__(self, workload: Workload, runner: Runner, work: Path, seed: int):
        self.w = workload
        self.seed = seed
        self.runner = runner
        self.work = work
        self.tracer_script = str(Path(__file__).with_name("tracer.py"))
        self.attempted = 0
        self.failures: list[str] = []
        self.first_hashes: dict = {}
        self.samples = {name: [] for name in ("setup", *COMMANDS)}
        self.rss = {name: [] for name in COMMANDS}
        self.spans: list[dict] = []

    def _fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def _outcome_ok(self, what: str, outcome: Outcome) -> bool:
        if outcome.code != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            self._fail(what, f"exit {outcome.code}: {tail[0]}")
            return False
        if "Traceback" in outcome.stderr:
            self._fail(what, "traceback on stderr")
            return False
        return True

    def setup_probe(self) -> None:
        self.attempted += 1
        outcome = self.runner.run(["-c", "import rspca.cli"])
        self.samples["setup"].append(outcome.seconds)
        self._outcome_ok("import rspca.cli", outcome)

    def command(self, command: str, spans_out: Path | None = None) -> Outcome:
        """Run one command (under the tracer when ``spans_out`` is given) and check it."""
        for path in self.w.artifacts[command]:
            path.unlink(missing_ok=True)
        argv = self.w.argv[command]
        if spans_out is not None:
            argv = [self.tracer_script, str(spans_out), command, self.w.name, str(self.seed), "--", *argv[2:]]
        self.attempted += 1
        outcome = self.runner.run(argv)
        if not self._outcome_ok(command, outcome):
            return outcome
        try:
            digest = [sha256(p) for p in self.w.artifacts[command]]
        except FileNotFoundError as exc:
            self._fail(command, f"artifact not written: {exc.filename}")
            return outcome
        if command not in self.first_hashes:
            try:
                self.w.check(command)
            except (oracle.CheckFailed, ValueError, IndexError, KeyError) as exc:
                self._fail(command, f"oracle: {exc}")
                return outcome
            self.first_hashes[command] = digest
        elif digest != self.first_hashes[command]:
            self._fail(command, "artifact bytes differ from the first run")
        return outcome

    def timed_cycle(self) -> None:
        for _ in range(SETUP_PROBES_PER_CYCLE):
            self.setup_probe()
        for c in COMMANDS:
            outcome = self.command(c)
            self.samples[c].append(outcome.seconds)
            self.rss[c].append(outcome.rss_mb)

    def traced_cycle(self, index: int) -> tuple[float, list]:
        """One pass of the commands under the tracer: (wall time, its spans)."""
        total, first = 0.0, len(self.spans)
        for c in COMMANDS:
            spans_out = self.work / f"spans-{c}.json"
            spans_out.unlink(missing_ok=True)
            total += self.command(c, spans_out).seconds
            try:
                spans = json.loads(spans_out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                self._fail(c, f"no spans from the tracer: {exc}")
                continue
            # ids restart in every process; make them unique across the run
            offset = len(self.spans)
            for s in spans:
                s["id"] += offset
                if s["parent"] is not None:
                    s["parent"] += offset
                s["pass"] = index
            self.spans.extend(spans)
        return total, self.spans[first:]

    def untimed_checks(self) -> None:
        for c in ("corr", "scree"):
            self.command(c)


def summarize(values: list) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(round(p * n / 100, 9))  # nearest-rank percentile
        if n - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git directly, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS library numpy was built with and its current thread count."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    info["threads"] = int(getattr(lib, symbol)())
                    return info
    except OSError:
        pass
    return info


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(trial: Trial) -> dict:
    samples = {"setup_s": trial.samples["setup"]}
    for c in COMMANDS:
        samples[f"{c}_s"] = trial.samples[c]
        samples[f"{c}_rss_mb"] = trial.rss[c]
    return {name: dict(summarize(samples[name]), unit=unit) for name, unit in END_TO_END.items()}


def top_self_times(spans: list, passes: int, count: int = 4) -> dict:
    """Per command, the layers with the most self time per traced pass."""
    own = tracer.self_times(spans)
    totals: dict = {}
    for s in spans:
        per = totals.setdefault(s["command"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + own[s["id"]] / passes
    return {c: sorted(per.items(), key=lambda kv: -kv[1])[:count] for c, per in totals.items()}


def run(args, root: Path, launcher) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    start = time.monotonic()
    work = root / ".bench_work" / args.workload
    results = root / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(launcher, root, work, start + DEADLINE_S)
    workload = Workload(args.workload, args.seed, work)
    trial = Trial(workload, runner, work, args.seed)
    # untimed: fills the bytecode and page caches every later process reuses
    runner.run(["-c", "import rspca.cli"])

    traced_totals, untraced_totals, layer_rows = [], [], []
    window = time.monotonic()
    while True:
        cycle = time.monotonic()
        if args.trace:
            before = {c: len(trial.samples[c]) for c in COMMANDS}
            trial.timed_cycle()
            untraced_totals.append(sum(trial.samples[c][before[c]] for c in COMMANDS))
            total, spans = trial.traced_cycle(len(traced_totals))
            traced_totals.append(total)
            layer_rows.append(tracer.layer_metrics(spans, workload.described["rows"],
                                                   workload.described["dim"]))
        else:
            trial.timed_cycle()
        now = time.monotonic()
        if now - window + (now - cycle) > args.seconds:
            break
    trial.untimed_checks()

    if args.trace:
        metrics = {name: {"value": statistics.median(row[name] for row in layer_rows), "unit": unit}
                   for name, unit in tracer.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_totals) - statistics.median(untraced_totals),
            "unit": "s",
        }
        spans_path = results / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(trial.spans), encoding="utf-8")
        detail = {"per_layer_passes": len(layer_rows)}
    else:
        detail = end_to_end(trial)
        metrics = {name: {"value": d["median"], "unit": d["unit"]} for name, d in detail.items()}

    failed = len(trial.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "input": workload.described,
        "error_rate": failed / trial.attempted,
        "failures": trial.failures,
        "metrics": metrics,
        "detail": detail,
        "samples": {"seconds": trial.samples, "rss_mb": trial.rss},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: input {json.dumps(workload.described)}")
    print(f"environment {json.dumps(record['environment'])}")
    for failure in trial.failures[:20]:
        print(f"FAILED {failure}")
    print(f"error_rate {record['error_rate']:.6g} ratio ({failed} of {trial.attempted} operations)")
    if args.trace:
        for command, ranked in top_self_times(trial.spans, len(layer_rows)).items():
            print(f"top self time, {command}: " + ", ".join(f"{n} {t:.4f} s" for n, t in ranked))
        for key, m in metrics.items():
            print(f"{key} {m['value']:.6g} {m['unit']}")
    else:
        for key, d in detail.items():
            extra = "".join(f" {k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
            print(f"{key} median {d['median']:.6g} {d['unit']} n {d['n']}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": trial.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
