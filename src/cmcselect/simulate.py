"""Monte Carlo harness for the error-rate experiments.

Designs are either weakly correlated (i.i.d. standard normal columns) or
factor-correlated: the first `group_size` active columns share one latent
factor and the first `group_size` inactive columns share another, mixed
with weight w chosen so the within-group correlation is a requested rho.
Each replication draws a fresh design and response from a child generator
keyed by (seed, replication index), selects on it as select_many does
(the selector a user runs on one dataset), and classifies each chosen
mask against the true active set.  Replications run in chunks, as few
and as even as keep every worker busy.  A chunk draws its replications
into one [1 | X | y] stack (linalg._stack), with no Dataset per
replication, and hands it to subsets._search, which centers it once,
searches them in lockstep, sharing blocks of tree nodes, and fits each
size's winners with one stacked small QR.  The search is capped for the
chunk's request (criteria._caps): it prunes, and drops without
refitting, every size that none of the chunk's criteria and alphas can
choose; a dataset whose refits stray from the sweep's RSS beyond the
caps' slack (a few eps times the TSS) is searched again uncapped, so
every size a report can choose has the mask, RSS and bits of an
uncapped lone call.  The chunk is scored as
arrays: criteria._decide, which scores select_many's reports too,
chooses a size for every replication and criterion in one pass over the
(K, p+1) RSS array the tables share (NaN at a dropped size, which no
rule chooses), with no per-replication table, report or coefficient
solve, so the choices are select_many's.
Results are merged by replication index, so a run is bit-identical for
a fixed (seed, reps) no matter how many worker processes are used.

At more than one worker, the parent is one of them: it starts the
others, plain multiprocessing processes of the default start method
(fork on Linux), at once, then runs chunks itself.  Each process takes
the next chunk index from one lock-protected shared counter, so a slow
chunk holds up one process only.  A forked worker sends each chunk's
rows on its own one-way pipe, then a sentinel.  After each chunk of its
own the parent reads every pipe that is ready, so no worker blocks on a
full pipe; once no chunk is left it waits on the pipes.  It merges rows
as they come, and terminates and joins every worker before it returns
or raises.  A chunk's exception is raised in the parent with its own
type; a worker that dies before its sentinel raises RuntimeError naming
its exit code.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .criteria import CRITERIA, RatePair, _caps, _decide, _rates, labels_for
from .errors import ConfigError, DimensionMismatchError, TooFewRowsError
from .linalg import _collinear, _stack, full_mask
from .subsets import _search

log = logging.getLogger(__name__)

# reference correlated shape (p, p_active, group_size); anything else is an extension
_REFERENCE_CORRELATED = (20, 10, 5)

_MAX_REGEN = 10

# most reps per chunk.  Chunk size decides whether a capped search stays in
# merged lockstep blocks: per rep, a weak (50, 10, 5) chunk costs about 148 us
# at 25 reps and 108 at 64, a weak (60, 20, 10) one 427-564 at 16 and
# 1,076-1,134 at 32, whose levels split into one-dataset blocks (2-core x86,
# numpy 2.4).  No one bound serves both, so 32 stays until the chunk size
# depends on p.  A (400, 30) chunk stacks about 3 MB per array; a block holds
# at most _BLOCK_FLOATS floats, whatever the chunk
_MAX_CHUNK = 32

# least seconds between two progress lines
_PROGRESS_EVERY_S = 10.0


@dataclass(frozen=True)
class Scenario:
    """One simulated experiment: design shape, signal, and noise.

    The response is beta0 + active_value * (sum of the first p_active
    columns) + sigma * noise.  rho and group_size matter only for the
    correlated kind; a weak scenario refuses a nonzero rho.  n <= p+1
    raises TooFewRowsError, any other bad shape or value ConfigError.
    """

    kind: str
    n: int
    p: int
    p_active: int
    rho: float = 0.0
    sigma: float = 1.0
    beta0: float = 1.0
    active_value: float = 1.0
    group_size: int = 5

    def __post_init__(self) -> None:
        if self.kind not in ("weak", "correlated"):
            raise ConfigError(f"scenario kind must be 'weak' or 'correlated', got {self.kind!r}")
        if self.p < 1:
            raise ConfigError(f"need p >= 1, got p={self.p}")
        if self.n <= self.p + 1:
            raise TooFewRowsError(f"need n > p+1, got n={self.n}, p={self.p}")
        if not (0 <= self.p_active <= self.p):
            raise ConfigError(f"p_active must lie in [0, p], got {self.p_active}")
        if not (0.0 <= self.rho < 1.0):
            raise ConfigError(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "weak" and self.rho != 0.0:
            raise ConfigError(f"rho applies only to the correlated kind, got {self.rho} for weak")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        for name in ("beta0", "active_value"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "correlated":
            g = self.group_size
            if not (1 <= g <= min(self.p_active, self.p - self.p_active)):
                raise ConfigError(
                    f"correlated groups of group_size={g} need 1 <= group_size <= p_active "
                    f"and group_size <= p - p_active, got p_active={self.p_active}, p={self.p}"
                )

    @property
    def truth(self) -> tuple[int, ...]:
        return tuple(range(self.p_active))

    @property
    def extension(self) -> bool:
        """True when a correlated scenario deviates from the reference (p, p*, group) shape."""
        return (
            self.kind == "correlated"
            and (self.p, self.p_active, self.group_size) != _REFERENCE_CORRELATED
        )


@dataclass(frozen=True)
class MonteCarloResult:
    scenario: Scenario
    reps: int
    seed: int
    labels: tuple[str, ...]
    rates: dict[str, RatePair]
    zero_fraction: dict[str, float]
    regenerated: int


def _rho_to_w(rho: float) -> float:
    """Mixing weight w with within-group correlation w**2 / ((1-w)**2 + w**2) = rho."""
    r = math.sqrt(rho / (1.0 - rho))
    return r / (1.0 + r)


def gen_correlated_design(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Factor-correlated design: one shared factor per correlated group.

    Columns keep the construction's variance (1-w)**2 + w**2; they are
    deliberately not rescaled.  Public because the benchmark draws its
    inputs with it; the scenario must be of the correlated kind.
    """
    n, p, g = scenario.n, scenario.p, scenario.group_size
    w = _rho_to_w(scenario.rho)
    Z = rng.standard_normal((n, p))
    factor_a = rng.standard_normal(n)
    factor_b = rng.standard_normal(n)
    pa = scenario.p_active
    # the groups do not overlap (group_size <= p_active), so each mixes in place
    Z[:, :g] = (1.0 - w) * Z[:, :g] + w * factor_a[:, None]
    Z[:, pa : pa + g] = (1.0 - w) * Z[:, pa : pa + g] + w * factor_b[:, None]
    return Z


def gen_response(X: np.ndarray, scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """beta0 + active_value * (sum of active columns) + sigma * noise.

    Public because the benchmark draws its inputs with it; X must be the
    scenario's (n, p) design.
    """
    signal = X[:, : scenario.p_active].sum(axis=1) * scenario.active_value
    return scenario.beta0 + signal + scenario.sigma * rng.standard_normal(len(X))


def _gen_design(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    if scenario.kind == "weak":
        return rng.standard_normal((scenario.n, scenario.p))
    return gen_correlated_design(scenario, rng)


def _draw(scenario: Scenario, rngs) -> np.ndarray:
    """One draw per stream, into the (K, n, p+2) [1 | X | y] stack (linalg._stack) that subsets._search takes.

    Its entries are those of a Dataset of each draw, and like one it
    refuses a non-finite entry.
    """

    def draw(rng):
        X = _gen_design(scenario, rng)
        return X, gen_response(X, scenario, rng)

    A = _stack([draw(rng) for rng in rngs])
    if not np.isfinite(A).all():
        raise DimensionMismatchError("X and y entries must all be finite")
    return A


def _run_chunk(args) -> list[tuple[int, list[float], list[float], int]]:
    """A chunk of replications: fresh data per rep, one capped table search, every rep scored at once.

    Each rep draws from its own stream, into one stack (_draw).  The
    chunk's datasets get their tables from one subsets._search call,
    searched in lockstep under the request's caps and fitted together,
    whose arrays they share (subsets._Fits).  criteria._decide scores the
    kept reps' rows of those arrays in one pass, as it scores
    select_many's one row, and a chosen mask's rates come from the true
    columns it leaves out and the others it holds (subsets._Fits.misses,
    criteria._rates).  A rep whose full design is collinear is redrawn
    from its stream and searched again with the other redrawn reps.  Each
    row is (rep, firs, fars, redraws).
    """
    scenario, criteria, alphas, seed, reps = args
    p = scenario.p
    caps = _caps(criteria, alphas, scenario.n, p)
    rngs = {r: np.random.default_rng([seed, r]) for r in reps}
    regen = dict.fromkeys(reps, 0)
    out = []
    pending = list(reps)
    while pending:
        fits = _search(_draw(scenario, [rngs[r] for r in pending]), caps)
        kept = ~np.isnan(fits.full_rss)
        redraw = []
        for r, ok in zip(pending, kept.tolist()):
            if not ok:
                # the full design is collinear: redraw
                regen[r] += 1
                if regen[r] > _MAX_REGEN:
                    raise _collinear(full_mask(p))
                redraw.append(r)
        rows = kept.nonzero()[0]
        done = [pending[i] for i in rows.tolist()]
        pending = redraw
        if not done:
            continue
        # each report's chosen size per rep, (reports, K')
        chosen = np.array([sizes for _, _, _, sizes, _ in _decide(fits, rows, scenario.n, criteria, alphas)],
                          dtype=np.intp).reshape(-1, len(rows))
        fir, far = _rates(*fits.misses(rows, chosen, scenario.truth), scenario.p_active, p)
        out.extend((r, fi, fa, regen[r]) for r, fi, fa in zip(done, fir.T.tolist(), far.T.tolist()))
    return out


def _chunks(reps: int, workers: int) -> list[range]:
    """Cut reps 0..reps-1 into consecutive chunks, as few as keep every worker busy.

    The chunk count is the least multiple of `workers` that keeps each
    chunk within _MAX_CHUNK reps, and chunk sizes differ by at most one,
    so the workers get equal shares and a chunk is as large as it can be:
    its lockstep search amortizes the per-block numpy calls over more
    datasets.
    """
    count = workers * -(-reps // (workers * _MAX_CHUNK))
    return [range(i * reps // count, (i + 1) * reps // count) for i in range(count)]


def _next(counter) -> int:
    """Take the next chunk index from the shared counter."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _work(tasks, counter, conn) -> None:
    """A worker's loop: take the next chunk index from the shared counter, run it, send its rows.

    Sends each chunk's rows, then None once no chunk is left, or the
    exception a chunk raised; the pipe closes when the process exits.
    """
    try:
        while (i := _next(counter)) < len(tasks):
            conn.send(_run_chunk(tasks[i]))
        conn.send(None)
    except Exception as exc:
        conn.send(exc)


def _pooled(tasks, workers: int):
    """Yield every chunk's rows from `workers` processes, the caller among them, as chunks finish.

    workers - 1 forked processes and the caller take chunk indices from
    one shared counter.  After each chunk of its own the caller reads
    every pipe that is ready, so no worker waits on a full pipe while it
    computes; once no chunk is left it waits on the pipes.  A chunk's
    exception is raised here with its own type; a worker whose pipe
    closes before it said it was done raises RuntimeError.  Every worker
    is terminated and joined when the generator finishes, raises or is
    closed.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    # numpy imports numpy.random lazily; a worker forked after this import
    # draws its first replicate without paying for it
    import numpy.random  # noqa: F401
    counter = multiprocessing.Value("i", 0)
    procs = {}

    def read(ready):
        # one message from each ready pipe: rows are yielded, the rest acted on
        for conn in ready:
            try:
                msg = conn.recv()
            except EOFError:
                procs[conn].join()
                raise RuntimeError(f"a Monte Carlo worker exited with code "
                                   f"{procs[conn].exitcode} before its chunks were done") from None
            if msg is None:
                pending.remove(conn)
            elif isinstance(msg, Exception):
                raise msg
            else:
                yield msg

    try:
        for _ in range(workers - 1):
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_work, args=(tasks, counter, send))
            proc.start()
            # closed before the next fork, so a worker holds no write end but
            # its own and its pipe reads EOF once it exits
            send.close()
            procs[recv] = proc
        pending = list(procs)
        while (i := _next(counter)) < len(tasks):
            yield _run_chunk(tasks[i])
            # read until no pipe is ready, so no worker waits on a full pipe
            while ready := wait(pending, 0):
                yield from read(ready)
        while pending:
            yield from read(wait(pending))
    finally:
        for proc in procs.values():
            proc.terminate()
        for conn, proc in procs.items():
            proc.join()
            conn.close()


def run_monte_carlo(
    scenario: Scenario,
    criteria=CRITERIA,
    alphas=(0.9, 0.5, 0.1),
    reps: int = 100,
    seed: int = 1,
    threads: int = 1,
) -> MonteCarloResult:
    """Average classification rates of each criterion over seeded replications.

    Replications run in the fewest chunks of at most 32 that give every
    worker the same number, their sizes differing by at most one (100
    reps: four chunks of 25 at one or two workers).  Each chunk's tables
    are searched together, under caps that keep every size the request
    can choose.  A replication's choices are select_many's, made by the
    same rules on the same table entries, so results are bit-identical
    to one-at-a-time select_many runs.  Once a chunk
    completes, and at most every 10 s, progress (reps done, elapsed time,
    ETA) is logged at INFO.  At threads > 1 the calling process and
    threads - 1 processes of the default start method take chunks from
    one shared counter; the others fork after numpy.random is imported,
    so none imports it on its first chunk, and none outlives the call.

    Parameters
    ----------
    scenario : Scenario
        Its p must not exceed subsets.SUBSET_LIMIT: the first chunk's
        search raises LimitExceededError.
    criteria : sequence of {"adjr2", "cp_aic", "bic", "cmc"}
    alphas : sequence of floats, one cmc column per value
        Result labels come from labels_for, which validates the request.
    reps : int >= 1
    seed : int >= 0
        Replication r draws from default_rng([seed, r]); a collinear
        design is redrawn from the same stream (at most 10 times).
    threads : int
        Processes that run chunks, the calling one among them: at most
        min(threads, reps) - 1 start.  Results are identical for any
        value.

    Returns
    -------
    MonteCarloResult

    Raises
    ------
    RuntimeError
        If a worker process exits before its chunks are done (killed, or
        out of memory); any error a chunk raises keeps its type.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    criteria = tuple(criteria)
    alphas = tuple(float(a) for a in alphas)
    labels = labels_for(criteria, alphas)
    fir = np.empty((reps, len(labels)))
    far = np.empty((reps, len(labels)))
    regenerated = 0
    # every worker starts at once, so never more than there are reps
    workers = min(threads, reps)
    tasks = [(scenario, criteria, alphas, seed, chunk) for chunk in _chunks(reps, workers)]
    results = map(_run_chunk, tasks) if workers == 1 else _pooled(tasks, workers)
    start = last = time.monotonic()
    done = 0
    try:
        for chunk in results:
            for rep, firs, fars, regen in chunk:
                fir[rep] = firs
                far[rep] = fars
                regenerated += regen
            done += len(chunk)
            now = time.monotonic()
            if now - last >= _PROGRESS_EVERY_S:
                last = now
                elapsed = now - start
                log.info("%d/%d reps done, %.1f s elapsed, ETA %.1f s",
                         done, reps, elapsed, elapsed / done * (reps - done))
    finally:
        if workers != 1:
            results.close()
    mean_fir = fir.mean(axis=0)
    mean_far = far.mean(axis=0)
    zero = ((fir == 0.0) & (far == 0.0)).mean(axis=0)
    rates = {lab: RatePair(float(mean_fir[i]), float(mean_far[i])) for i, lab in enumerate(labels)}
    zero_fraction = {lab: float(zero[i]) for i, lab in enumerate(labels)}
    return MonteCarloResult(
        scenario=scenario,
        reps=reps,
        seed=seed,
        labels=labels,
        rates=rates,
        zero_fraction=zero_fraction,
        regenerated=regenerated,
    )
