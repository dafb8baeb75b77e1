"""Monte Carlo harness for the error-rate experiments.

Designs are either weakly correlated (i.i.d. standard normal columns) or
factor-correlated: the first `group_size` active columns share one latent
factor and the first `group_size` inactive columns share another, mixed
with weight w chosen so the within-group correlation is a requested rho.
Each replication draws a fresh design and response from a child generator
keyed by (seed, replication index), selects on it as select_many does
(the selector a user runs on one dataset), and classifies each chosen
mask against the true active set.  Replications run in chunks, as few
and as even as keep every worker busy: a chunk's datasets get their
per-size tables from one best_per_size call, which searches them in
lockstep, sharing blocks of tree nodes, and fits each size's winners
with one stacked small QR from the datasets' R factors; masks, node
counts and RSS are bit-identical to lone calls.  A replication scores
its table through criteria._decisions, the rules select_many's reports
come from, with no report and no coefficient solve, so the choices are
select_many's.  Results are merged by replication index, so a run is
bit-identical for a fixed (seed, reps) no matter how many worker
processes are used.

At more than one worker, the workers are plain multiprocessing
processes of the default start method (fork on Linux), started at once.
Each takes the next chunk index from one lock-protected shared counter,
so a slow chunk holds up one worker only, and sends each chunk's rows on
its own one-way pipe, then a sentinel.  The parent waits on the pipes,
merges rows as they come, and terminates and joins every worker before
it returns or raises.  A chunk's exception is raised in the parent with
its own type; a worker that dies before its sentinel raises
RuntimeError naming its exit code.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .criteria import CRITERIA, RatePair, _decisions, _full, classify, labels_for
from .errors import ConfigError, RankDeficientError, TooFewRowsError
from .linalg import Dataset
from .subsets import best_per_size

log = logging.getLogger(__name__)

# reference correlated shape (p, p_active, group_size); anything else is an extension
_REFERENCE_CORRELATED = (20, 10, 5)

_MAX_REGEN = 10

# most reps per chunk: a (400, 30) chunk then stacks about 3 MB per array;
# the chunk's lockstep search holds blocks of at most subsets._BLOCK_FLOATS
# floats, so a block's memory does not grow with the chunk
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
    X = Z.copy()
    pa = scenario.p_active
    X[:, :g] = (1.0 - w) * Z[:, :g] + w * factor_a[:, None]
    X[:, pa : pa + g] = (1.0 - w) * Z[:, pa : pa + g] + w * factor_b[:, None]
    return X


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


def _run_chunk(args) -> list[tuple[int, list[float], list[float], int]]:
    """A chunk of replications: fresh data per rep, one table search call, classification.

    Each rep draws from its own stream.  The chunk's datasets get their
    tables from one best_per_size call, searched in lockstep, and each
    rep's choices are its table's decisions (criteria._decisions).  A rep
    whose full design is collinear is redrawn from its stream and
    searched again with the other redrawn reps.  Each row is (rep, firs,
    fars, redraws).
    """
    scenario, criteria, alphas, seed, reps = args
    rngs = {r: np.random.default_rng([seed, r]) for r in reps}
    regen = dict.fromkeys(reps, 0)
    out = []
    pending = list(reps)
    while pending:
        datas = []
        for r in pending:
            X = _gen_design(scenario, rngs[r])
            datas.append(Dataset(X=X, y=gen_response(X, scenario, rngs[r])))
        redraw = []
        for r, per_size in zip(pending, best_per_size(datas)):
            try:
                full = _full(per_size)
            except RankDeficientError:
                # the full design is collinear: redraw
                regen[r] += 1
                if regen[r] > _MAX_REGEN:
                    raise
                redraw.append(r)
                continue
            table = per_size.table
            rates = [classify(table[size][0], scenario.truth, scenario.p)
                     for _, _, _, size, _ in _decisions(table, full, criteria, alphas)]
            out.append((r, [x.fir for x in rates], [x.far for x in rates], regen[r]))
        pending = redraw
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


def _work(tasks, counter, conn) -> None:
    """A worker's loop: take the next chunk index from the shared counter, run it, send its rows.

    Sends each chunk's rows, then None once no chunk is left, or the
    exception a chunk raised; the pipe closes when the process exits.
    """
    try:
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(tasks):
                break
            conn.send(_run_chunk(tasks[i]))
        conn.send(None)
    except Exception as exc:
        conn.send(exc)


def _pooled(tasks, workers: int):
    """Yield the rows of every chunk from `workers` processes, in the order chunks finish.

    A worker's exception is raised here with its own type; a worker
    whose pipe closes before it said it was done raises RuntimeError.
    Every worker is terminated and joined when the generator finishes,
    raises or is closed.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    # numpy imports numpy.random lazily; a worker forked after this import
    # draws its first replicate without paying for it
    import numpy.random  # noqa: F401
    counter = multiprocessing.Value("i", 0)
    procs = {}
    try:
        for _ in range(workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_work, args=(tasks, counter, send))
            proc.start()
            # closed before the next fork, so a worker holds no write end but
            # its own and its pipe reads EOF once it exits
            send.close()
            procs[recv] = proc
        pending = list(procs)
        while pending:
            for conn in wait(pending):
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
    are searched together.  A replication's choices are select_many's,
    made by the same rules on the same table, so results are
    bit-identical to one-at-a-time select_many runs.  Once a chunk
    completes, and at most every 10 s, progress (reps done, elapsed time,
    ETA) is logged at INFO.  At threads > 1 the workers are processes of
    the default start method that take chunks from one shared counter;
    they fork after numpy.random is imported, so none imports it on its
    first chunk, and none outlives the call.

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
        Worker processes, at most `reps` of them start; results are
        identical for any value.

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
