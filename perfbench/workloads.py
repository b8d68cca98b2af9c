"""The three workloads, their correctness gates and their metrics.

``warm_query``
    One ``CaseBase`` over 100k titles, built in this process; a closed loop
    of ``retrieve`` then ``reuse`` at ``top_k=10``. The only workload where
    ranking dominates.
``cold_query``
    A 20k-title plain index; each op is one ``python -m cbrsearch query``
    process, so index load dominates and ranking is a few per cent.
``retain_cycle``
    A 5k-record corpus; each op is one ``cbrsearch add`` process, which
    reads the corpus, loads the index, builds it twice, appends and saves.
    The only workload that writes.

Each run is one client in a closed loop: the next op starts when the
previous one has ended. A traced run repeats the same kind of ops in
process (``cli.main(argv)`` for the CLI workloads), first untraced and then
traced, and reports per-layer metrics and the overhead between the two.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import Clock
from generate import Generator, properties, render
from oracle import SparseOracle, same_ranking
from tracing import LayerStats, Tracer

WARM_TITLES = 100_000
COLD_TITLES = 20_000  # load must outweigh the 0.15-0.27 s process start-up noise
RETAIN_TITLES = 5_000
TOP_K = 10
SETUP_REPEATS = 3
WARM_PER_KIND = 64  # a pool of 192 queries
CLI_PER_KIND = 8
WARM_DIGEST_OPS = 30  # outputs hashed into the digest; also the fewest ops a run makes
CLI_DIGEST_OPS = 5
CHECKED_OPS = 12  # warm ops re-issued shuffled and recomputed by the oracle
EVAL_TITLES = 40
PROCESS_START_REPEATS = 5
JSON_FLOOR_REPEATS = 3
CHILD_TIMEOUT_S = 60
SCORE_TOLERANCE = 1e-9  # a stored title's self-score, as in the test suite


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]  # gate failures not tied to one op
    digest: str
    properties: dict
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # wall times before speed correction


@dataclass
class Reply:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class Cli:
    """Runs ``python -m cbrsearch`` as a child process or ``cli.main`` in process."""

    def __init__(self, run: Run):
        path = [str(run.root / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.work = run.work

    def child(self, args: list[str]) -> Reply:
        """One child process; rusage comes from reaping it with ``wait4``."""
        with open(self.work / "child.out", "w+b") as out, open(self.work / "child.err", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cbrsearch", *args],
                stdout=out, stderr=err, env=self.env, cwd=self.work,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Reply(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)

    def in_process(self, args: list[str]) -> Reply:
        from cbrsearch import cli  # cli.main is looked up per call, so tracing sees it

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
        return Reply(code, out.getvalue(), err.getvalue(), 0)

    def process_start_ms(self) -> float:
        times = []
        for _ in range(PROCESS_START_REPEATS):
            began = perf_counter()
            reply = self.child(["--help"])
            times.append((perf_counter() - began) * 1e3)
            if reply.code != 0:
                raise RuntimeError(f"cbrsearch --help exited {reply.code}: {reply.stderr}")
        return statistics.median(times)


def closed_loop(op, clock: Clock, *, seconds: float = 0.0, count: int = 0, first: int = 0,
                min_ops: int = 1) -> list[float]:
    """Call op(first), op(first + 1), ... back to back; return their times.

    Runs exactly *count* ops when given, else for *seconds* of wall time and
    at least *min_ops* ops. Times are in seconds at reference speed.
    """
    done = len(clock.raw)
    began = perf_counter()
    while True:
        ops = len(clock.raw) - done
        if count and ops >= count:
            break
        if not count and ops >= min_ops and perf_counter() - began >= seconds:
            break
        clock.time(op, first + ops)
    return clock.corrected(done)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n + 1) p, (n + 1)(1 - p))-weighted mean of all order statistics
    rather than one or two of them. Op costs here spread over three orders
    of magnitude, so few ops sit near the median and the plain sample median
    jumps by a whole op's cost from run to run; this estimate does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_scale = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        return math.exp(log_scale + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n], ends nudged inside (0, 1)
        lo, hi = max(i / n, 1e-12), min((i + 1) / n, 1 - 1e-12)
        weights.append((hi - lo) * (density(lo) + 4 * density((lo + hi) / 2) + density(hi)) / 6)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def timing_metrics(latencies: list[float]) -> dict[str, float]:
    """Median, p90 and throughput of one closed-loop client."""
    ms = [latency * 1e3 for latency in latencies]
    return {
        "op_p50_ms": quantile(ms, 0.5),
        "op_p90_ms": quantile(ms, 0.9),
        "ops_per_s": len(ms) / sum(latencies),
    }


def raw_timings(clock: Clock, ops: int) -> dict[str, float]:
    """The loop's last *ops* wall times, uncorrected, and the speed factors."""
    raw = timing_metrics(clock.raw[-ops:])
    raw["speed_factor_median"] = statistics.median(clock.factors)
    return raw


def set_up(clock: Clock, build, reset=lambda: None) -> tuple[float, float]:
    """Run reset() untimed, then build(), SETUP_REPEATS times.

    Returns the median set-up time corrected to reference speed, and raw.
    """
    for _ in range(SETUP_REPEATS):
        reset()
        clock.time(build)
    return statistics.median(clock.corrected()), statistics.median(clock.raw)


def traced_loops(run: Run, tracer: Tracer, op, min_ops: int, replay: bool = True):
    """Half the time untraced, then the same number of ops traced.

    With *replay* the traced half repeats the untraced half's ops; without,
    it goes on to the next ones (an add cannot be repeated). Returns the
    traced op count and the tracing overhead ratio, whose base is the
    untraced half's total op time.
    """
    clock = Clock()
    plain = closed_loop(op, clock, seconds=run.seconds / 2, min_ops=min_ops)
    tracer.phase = "loop"
    with tracer.installed():
        traced = closed_loop(op, clock, count=len(plain), first=0 if replay else len(plain))
    return len(traced), sum(traced) / sum(plain) - 1.0


def digest(items) -> str:
    payload = json.dumps(items, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the traced loop, per op unless the name says otherwise."""
    loop, setup = tracer.summary("loop"), tracer.summary("setup")
    empty = LayerStats()

    def at(stats, name):
        return stats.get(name, empty)

    tokenize, build = at(loop, "preprocess.tokenize"), at(loop, "index.build_index")
    vectorize, term_set = at(loop, "index.vectorize_query"), at(loop, "index.term_set_query")
    rank = at(loop, "similarity.rank")
    rank_ms = [ns / 1e6 for ns in rank.self_ns]
    query_counts = vectorize.counts + term_set.counts
    queries = len(query_counts)
    kept, dropped = (sum(counts[i] for counts in query_counts) for i in (0, 1))
    visited, candidates, returned = (sum(counts[i] for counts in rank.counts) for i in (0, 1, 2))
    metrics = {
        "preprocess.tokenize.calls": tokenize.calls / ops,
        "preprocess.tokenize.self_ms": tokenize.self_ms_total() / ops,
        "index.build_index.calls": build.calls / ops,
        "index.build_index.self_ms": build.self_ms_total() / ops,
        "index.vectorize_query.self_us": vectorize.self_mean(1e3),
        "index.term_set_query.self_us": term_set.self_mean(1e3),
        "index.query_terms.kept": kept / queries if queries else 0.0,
        "index.query_terms.dropped": dropped / queries if queries else 0.0,
        "similarity.rank.self_ms.p50": quantile(rank_ms, 0.5) if rank_ms else 0.0,
        "similarity.rank.self_ms.p90": quantile(rank_ms, 0.9) if rank_ms else 0.0,
        "similarity.postings_visited": visited / rank.calls if rank.calls else 0.0,
        "similarity.candidates": candidates / rank.calls if rank.calls else 0.0,
        "similarity.returned_per_candidate": returned / candidates if candidates else 0.0,
        "casebase.retrieve.self_us": at(loop, "casebase.retrieve").self_mean(1e3),
        "casebase.retain.self_ms": at(loop, "casebase.retain").self_mean(1e6),
        "store.load_index.ms": at(loop, "store.load_index").total_mean_ms(),
        "store.save_index.ms": at(loop, "store.save_index").total_mean_ms(),
        "store.read_corpus.ms": at(loop, "store.read_corpus").total_mean_ms(),
        "store.append_case.ms": at(loop, "store.append_case").total_mean_ms(),
        "cli.main.self_ms": at(loop, "cli.main").self_mean(1e6),
        "setup.preprocess.tokenize.self_ms": at(setup, "preprocess.tokenize").self_ms_total(),
        "setup.index.build_index.self_ms": at(setup, "index.build_index").self_ms_total(),
        "setup.store.read_corpus.ms": at(setup, "store.read_corpus").total_ns / 1e6,
        "setup.store.save_index.ms": at(setup, "store.save_index").total_ns / 1e6,
        "store.load_index.json_floor_ms": 0.0,
        "store.index_bytes": 0.0,
        "cli.process_start_ms": 0.0,
    }
    metrics.update(extra)
    return metrics


def _matches(results) -> list[tuple[str, float]]:
    return [(match.case_id, match.score) for match in results.matches]


def _self_retrieved(results, doc_id: str) -> bool:
    """The stored title comes back at 1.0; ties at 1.0 may push it past top_k."""
    at_one = [m.case_id for m in results.matches if abs(m.score - 1.0) <= SCORE_TOLERANCE]
    return bool(at_one) and at_one[0] == results.matches[0].case_id and (
        doc_id in at_one or len(at_one) == len(results.matches)
    )


def warm_query(run: Run) -> Outcome:
    from cbrsearch import Case, CaseBase, reuse, save_index

    gen = Generator(run.seed)
    corpus = gen.corpus(WARM_TITLES)
    pool = gen.queries(corpus, WARM_PER_KIND)
    doc_ids = [f"t{position:06d}" for position in range(len(corpus))]
    cases = [Case(doc_id, render(tokens)) for doc_id, tokens in zip(doc_ids, corpus)]
    tracer = Tracer()

    base = None

    def build():
        nonlocal base
        base = CaseBase(cases)

    def reset():  # one CaseBase in memory at a time, so peak RSS is one build's
        nonlocal base
        base = None
        gc.collect()

    if run.trace:
        tracer.phase = "setup"
        with tracer.installed():
            build()
    else:
        clock = Clock()
        setup_s, raw_setup_s = set_up(clock, build, reset)

    outputs = []

    def op(k):
        query = pool[k % len(pool)]
        outcome = base.retrieve(query.text, scorer=query.scorer, top_k=TOP_K)
        reuse(outcome)
        outputs.append((k, outcome.results))

    if run.trace:
        traced_ops, overhead = traced_loops(run, tracer, op, WARM_DIGEST_OPS)
    else:
        latencies = closed_loop(op, clock, seconds=run.seconds, min_ops=WARM_DIGEST_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = set()
    for position, (k, results) in enumerate(outputs):
        query = pool[k % len(pool)]
        if query.kind == "title" and not _self_retrieved(results, doc_ids[query.source]):
            failed.add(position)
    oracle = SparseOracle(doc_ids, corpus)
    for position, (k, results) in enumerate(outputs[:CHECKED_OPS]):
        query = pool[k % len(pool)]
        again = base.retrieve(gen.shuffled(query.text), scorer=query.scorer, top_k=TOP_K).results
        full = oracle.rank(query.text.lower().split(), query.scorer)
        if (
            _matches(again) != _matches(results)
            or again.total_matches != results.total_matches
            or results.total_matches != len(full)
            or len(results.matches) != min(TOP_K, len(full))
            or not same_ranking(_matches(results), full)
        ):
            failed.add(position)

    outcome = Outcome(
        attempted=len(outputs),
        failed=len(failed),
        problems=[],
        digest=digest([
            [pool[k % len(pool)].text, results.total_matches,
             [[doc_id, round(score, 6)] for doc_id, score in _matches(results)]]
            for k, results in outputs[:WARM_DIGEST_OPS]
        ]),
        properties=properties(corpus, pool),
    )
    if run.trace:
        outcome.metrics = layer_metrics(tracer, traced_ops, {"trace.overhead_ratio": overhead})
    else:
        index_path = run.work / "warm.idx"
        save_index(base.index, index_path)
        title_bytes = sum(len(case.title.encode("utf-8")) for case in cases)
        outcome.metrics = {
            "setup_s": setup_s,
            **timing_metrics(latencies),
            "peak_rss_mb": peak_rss_mb,
            "index_bytes_per_title_byte": index_path.stat().st_size / title_bytes,
        }
        outcome.raw = {"setup_s": raw_setup_s, **raw_timings(clock, len(latencies))}
    return outcome


def _set_up_index(run: Run, cli: Cli, tracer: Tracer, clock: Clock, args: list[str]):
    """Build the workload's index with the CLI: median corrected and raw seconds."""
    def build():
        reply = (cli.in_process if run.trace else cli.child)(args)
        if reply.code != 0:
            raise RuntimeError(f"cbrsearch index exited {reply.code}: {reply.stderr}")

    if run.trace:
        tracer.phase = "setup"
        with tracer.installed():
            build()
        return None, None
    return set_up(clock, build)


def _cli_loop(run, cli, tracer, clock, op, replies, setup, index_path, title_bytes, replay):
    """Timed loop shared by the CLI workloads; returns metrics and raw timings."""
    index_bytes = index_path.stat().st_size  # as set up, before any add
    if not run.trace:
        latencies = closed_loop(op, clock, seconds=run.seconds, min_ops=CLI_DIGEST_OPS)
        return {
            "setup_s": setup[0],
            **timing_metrics(latencies),
            "peak_rss_mb": max(reply.maxrss_kb for _, reply in replies) / 1024,
            "index_bytes_per_title_byte": index_bytes / title_bytes,
        }, {"setup_s": setup[1], **raw_timings(clock, len(latencies))}
    traced_ops, overhead = traced_loops(run, tracer, op, CLI_DIGEST_OPS, replay)
    text = index_path.read_text(encoding="utf-8")
    floors = []
    for _ in range(JSON_FLOOR_REPEATS):
        began = perf_counter()
        json.loads(text)
        floors.append((perf_counter() - began) * 1e3)
    return layer_metrics(tracer, traced_ops, {
        "trace.overhead_ratio": overhead,
        "store.load_index.json_floor_ms": statistics.median(floors),
        "store.index_bytes": float(index_bytes),
        "cli.process_start_ms": cli.process_start_ms(),
    }), {}


def cold_query(run: Run) -> Outcome:
    from cbrsearch import Case, CaseBase

    gen = Generator(run.seed)
    corpus = gen.corpus(COLD_TITLES)
    pool = gen.queries(corpus, CLI_PER_KIND)
    titles = [render(tokens) for tokens in corpus]
    corpus_path, index_path = run.work / "titles.txt", run.work / "titles.idx"
    corpus_path.write_text("".join(title + "\n" for title in titles), encoding="utf-8")
    title_bytes = sum(len(title.encode("utf-8")) for title in titles)

    cli, tracer, clock = Cli(run), Tracer(), Clock()
    invoke = cli.in_process if run.trace else cli.child
    setup = _set_up_index(run, cli, tracer, clock, [
        "index", "--input", str(corpus_path), "--format", "plain", "--output", str(index_path),
    ])
    index_bytes = index_path.stat().st_size
    replies = []

    def op(k):
        query = pool[k % len(pool)]
        replies.append((k, invoke([
            "query", "--index", str(index_path), "--query", query.text,
            "--scorer", query.scorer, "--top-k", str(TOP_K),
        ])))

    metrics, raw = _cli_loop(run, cli, tracer, clock, op, replies, setup, index_path, title_bytes, True)

    # the library's answer, from a base built here rather than from the file
    base = CaseBase([Case(str(line), title) for line, title in enumerate(titles, start=1)])
    expected = {}
    failed = 0
    for k, reply in replies:
        query = pool[k % len(pool)]
        if k % len(pool) not in expected:
            results = base.retrieve(query.text, scorer=query.scorer, top_k=TOP_K).results
            rows = [
                f"{m.rank:>4}  {m.score:.6f}  {m.case_id}  {base.case(m.case_id).title}\n"
                for m in results.matches
            ]
            dropped = ", ".join(results.dropped_terms) or "(none)"
            rows.append(f"matches: {results.total_matches}\ndropped terms: {dropped}\n")
            expected[k % len(pool)] = "".join(rows)
        if reply.code != 0 or reply.stdout != expected[k % len(pool)]:
            failed += 1

    problems = []
    eval_path = run.work / "eval.txt"
    eval_path.write_text("".join(t + "\n" for t in gen.rng.sample(titles, EVAL_TITLES)), encoding="utf-8")
    reply = cli.child(["eval", "--index", str(index_path), "--titles", str(eval_path), "--seed", str(run.seed)])
    if reply.code != 0:
        problems.append(f"cbrsearch eval exited {reply.code}: {reply.stderr.strip()[:300]}")
    if index_path.stat().st_size != index_bytes:
        problems.append("a query changed the index file")

    return Outcome(
        attempted=len(replies),
        failed=failed,
        problems=problems,
        digest=digest([reply.stdout for _, reply in replies[:CLI_DIGEST_OPS]]),
        properties=properties(corpus, pool),
        metrics=metrics,
        raw=raw,
    )


def retain_cycle(run: Run) -> Outcome:
    from cbrsearch import Case, CaseBase, SearchError, build_index, load_index, read_corpus, save_index

    gen = Generator(run.seed)
    corpus = gen.corpus(RETAIN_TITLES)
    records = [{"id": f"c{position:05d}", "title": render(tokens)} for position, tokens in enumerate(corpus)]
    corpus_path, index_path = run.work / "corpus.jsonl", run.work / "corpus.idx"
    corpus_path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    title_bytes = sum(len(record["title"].encode("utf-8")) for record in records)
    # far more than a run can add; drawn up front so no op pays for it
    fresh = [(f"n{k:05d}", render(tokens), new) for k, (tokens, new) in enumerate(gen.new_titles(2000))]

    cli, tracer, clock = Cli(run), Tracer(), Clock()
    invoke = cli.in_process if run.trace else cli.child
    setup = _set_up_index(run, cli, tracer, clock, [
        "index", "--input", str(corpus_path), "--format", "record", "--output", str(index_path),
    ])
    replies = []

    def op(k):
        doc_id, title, _ = fresh[k]
        replies.append((k, invoke([
            "add", "--index", str(index_path), "--corpus", str(corpus_path),
            "--id", doc_id, "--title", title,
        ])))

    metrics, raw = _cli_loop(run, cli, tracer, clock, op, replies, setup, index_path, title_bytes, False)

    failed = {
        k for k, reply in replies
        if reply.code != 0 or reply.stdout != f"corpus size: {RETAIN_TITLES + k + 1}\n"
    }
    problems = []
    try:
        index = load_index(index_path)
        stored = read_corpus(corpus_path, "record")
    except (SearchError, OSError) as exc:
        problems.append(f"final index or corpus does not load: {exc}")
    else:
        if index.corpus_size != RETAIN_TITLES + len(replies):
            problems.append(f"index holds {index.corpus_size} titles after {len(replies)} adds")
        rebuilt_path = run.work / "rebuilt.idx"
        save_index(build_index(stored)[0], rebuilt_path)
        if rebuilt_path.read_bytes() != index_path.read_bytes():
            problems.append("index on disk differs from a rebuild of the corpus on disk")
        base = CaseBase(stored)
        for k in range(len(replies)):
            doc_id, title, _ = fresh[k]
            if not _self_retrieved(base.retrieve(title, top_k=TOP_K).results, doc_id):
                failed.add(k)

    head = [Case(r["id"], r["title"]) for r in records]
    head += [Case(doc_id, title) for doc_id, title, _ in fresh[:CLI_DIGEST_OPS]]
    head_path = run.work / "head.idx"
    save_index(build_index(head)[0], head_path)

    found = properties(corpus, [])
    found["add_new_term_share"] = round(
        sum(1 for _, _, new in fresh[:len(replies)] if new) / len(replies), 4
    )
    return Outcome(
        attempted=len(replies),
        failed=len(failed),
        problems=problems,
        digest=hashlib.sha256(head_path.read_bytes()).hexdigest()[:16],
        properties=found,
        metrics=metrics,
        raw=raw,
    )


RUNNERS = {"warm_query": warm_query, "cold_query": cold_query, "retain_cycle": retain_cycle}
