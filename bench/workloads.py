"""Seeded inputs, job lists and output checks for the three bench workloads.

A workload is a fixed list of jobs; a job is one argv for `ammlab.cli.main`
that reads only files written here and writes its CSV to `--out`.  Inputs
depend on the workload seed alone, never on the program under test: pool
specs are copies of the built-in specs, and every scenario is built so each
event is feasible on those specs (balances, shares and proportional
deposits are tracked here with bounds that hold for any correct engine).

Workloads:

* arb-walk        - `simulate`, ARB_STEPS `arb` events per two-token pool
                    on each of ARB_WALKS seeded reference walks: geometric
                    walks shaped like acceptance criterion 08, and for the
                    stable pair a walk that stays near par; the quote-heavy
                    read path.
* classify-sweep  - `classify` on the built-ins over 20 consecutive probe
                    seeds at the default 128 trials; calls `curves` directly
                    and bypasses `engine.quote` and the ledgers.
* ledger-crowd    - `simulate` with 3000 endowed accounts and a stream of
                    trades, deposits and withdrawals; the ledger write path.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("arb-walk", "classify-sweep", "ledger-crowd")

# copies of the built-in pool specs, and one variant; the golden table below
# describes these
SPECS = {
    "uniswap-v2-like": """archetype = price-discovering-lp-based
curve = constant-product
tokens = TOKEN0, TOKEN1
reserves = 100, 100
fee = 0.003
""",
    "curve-v1-like": """archetype = price-discovering-lp-based
curve = constant-product-sum
tokens = STABLE0, STABLE1
reserves = 100, 100
fee = 0.003
chi = 10
""",
    # curve-v1-like with chi = 2 in place of 10, for classify-sweep.  At
    # chi = 10 the probe's translation deviation lands between TOL_INVARIANT
    # and TOL_VARIANT on about half of the probe seeds, and `classify` then
    # reports 'Indeterminate' where acceptance criterion 01 expects
    # 'Non-translation Invariant'.  At chi = 2 it stays above 3e-3.
    "curve-v1-chi2": """archetype = price-discovering-lp-based
curve = constant-product-sum
tokens = STABLE0, STABLE1
reserves = 100, 100
fee = 0.003
chi = 2
""",
    "mstable-2021-like": """archetype = price-discovering-lp-based
curve = constant-sum
tokens = STABLE0, STABLE1
reserves = 100, 100
fee = 0.003
""",
    "dodo-like": """archetype = price-adopting-lp-based
curve = price-adoption
tokens = BASE, QUOTE
reserves = 100, 1000
fee = 0.003
k = 0.5
target_reserves = 100, 1000
oracle_price = 10
""",
    "bancor-like": """archetype = price-discovering-supply-sovereign
curve = exponential
tokens = RESERVE, ISSUED
reserves = 100, 0
fee = 0
kappa = 2
c = 1
""",
    "augur-like": """archetype = price-discovering-lp-based
curve = lmsr
tokens = CASH, OUT0, OUT1, OUT2
reserves = 109.86122886681098, 0, 0, 0
fee = 0
b = 100
""",
}

TOKENS = {
    name: tuple(t.strip() for t in text.split("tokens = ")[1].splitlines()[0].split(","))
    for name, text in SPECS.items()
}

# spot of the risky asset in the numeraire at the opening reserves: par for
# the stable and constant-product pools, the oracle for dodo, and
# kappa * S**(kappa-1) / c at S = sqrt(c * 100) = 10 for bancor.  Dodo comes
# first: the first job is set-up's warm-up, and its cost barely varies by walk
OPENING_SPOT = {
    "dodo-like": 10.0,
    "uniswap-v2-like": 1.0,
    "curve-v1-like": 1.0,
    "mstable-2021-like": 1.0,
    "bancor-like": 20.0,
}

# Arbitrage that follows the reference far from par drains a stable pool,
# and the program then fails: engine.quote divides by a zero input, or the
# arbitrageur's search never ends.  No job of a workload may fail, so in
# arb-walk the stable pair follows a walk that stays within STABLE_BAND (in
# log price) of par, as stable pairs trade, and mstable-2021-like, whose
# constant sum is drained by any reference outside its fee band, is left
# out.  `defect_jobs` keeps both failures in view.
STABLE_POOLS = frozenset({"curve-v1-like"})
STABLE_BAND = 0.04

# fee-bearing conservation pools: the invariant never falls on a trade
CONSERVATION_FEE = {
    "uniswap-v2-like": 0.003,
    "curve-v1-like": 0.003,
    "mstable-2021-like": 0.003,
}

ARB_POOLS = ("dodo-like", "uniswap-v2-like", "curve-v1-like", "bancor-like")
ARB_STEPS = 500
ARB_WALKS = 4  # per-walk costs differ by several percent; four average them
CLASSIFY_SEEDS = 20
CROWD_ACCOUNTS = 3000
CROWD_ENDOWMENT = 10.0
CROWD_EVENTS = 1000

# acceptance criterion 01: expected characteristic per (pool, dimension) in
# taxonomy order; None accepts any of the three bounding labels
BOUNDING_LABELS = frozenset(
    {"Bounded from Above", "Bounded from Above and Below", "Bounded from Below"}
)
GOLDEN_TABLE = {
    "uniswap-v2-like": (
        "Incorporative", "Sensitive", "Strictly Deficient", "Path Independent",
        "Bounded from Above and Below", "Constant-product", "Internal",
        "Non-translation Invariant", "Volume-dependent", "Two",
        "No Risk Management", "External",
    ),
    "curve-v1-like": (
        "Incorporative", "Sensitive", "Strictly Deficient", "Path Independent",
        "Bounded from Above and Below", "Constant-product-sum", "Internal",
        "Non-translation Invariant", "Volume-dependent", "Two",
        "No Risk Management", "External",
    ),
    "mstable-2021-like": (
        "Non-incorporative", "Insensitive", "Strictly Deficient",
        "Path Independent", "Bounded from Below", "Constant-sum", "Internal",
        "Translation Invariant", "Volume-independent", "Two",
        "No Risk Management", "External",
    ),
    "dodo-like": (
        "Incorporative", "Sensitive", "Strictly Deficient", "Path Dependent",
        "Bounded from Above and Below", "Price Adoption", "External",
        "Non-translation Invariant", "Volume-dependent", "Two",
        "Imbalance Surcharges", "External",
    ),
    "bancor-like": (
        "Incorporative", "Sensitive", "Deficient", "Path Independent",
        None, "Exponential Function", "Internal",
        "Non-translation Invariant", "Volume-dependent", "Two",
        "No Risk Management", "Internal",
    ),
    "augur-like": (
        "Incorporative", "Sensitive", "Deficient", "Path Independent",
        None, "Logarithmic Market Scoring", "Internal",
        "Translation Invariant", "Volume-dependent", "Three or More",
        "No Risk Management", "External",
    ),
}
GOLDEN_TABLE["curve-v1-chi2"] = GOLDEN_TABLE["curve-v1-like"]
# classify-sweep probes curve-v1-chi2 in place of curve-v1-like (see SPECS)
CLASSIFY_POOLS = ("uniswap-v2-like", "curve-v1-chi2", "mstable-2021-like",
                  "dodo-like", "bancor-like", "augur-like")
PROBED_TRIALS = 128
PROBED_PER_REPORT = 7

METRICS_HEADER = (
    "step,event,spot,reference,tracking_error,invariant,lp_value,"
    "divergence_loss,fees_cum"
)
CLASSIFY_HEADER = "dimension,characteristic,max_deviation,trials,tolerance"

@dataclass(frozen=True)
class Job:
    """One `ammlab.cli.main` call and what its output must look like."""

    pool: str
    argv: tuple[str, ...]
    out: Path
    kind: str  # "simulate" or "classify"
    rows: int  # data rows expected in the output CSV
    units: int  # work the job completes: events, or probe trials


@dataclass(frozen=True)
class Outcome:
    ok: bool
    units_done: int  # the job's units when it exited 0, else 0
    reason: str  # empty when ok


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _spec(workdir: Path, pool: str) -> Path:
    return _write(workdir / f"{pool}.pool", SPECS[pool])


def _walk(rng: random.Random, steps: int) -> list[float]:
    """Multiplicative reference walk shaped like acceptance criterion 08."""
    level, walk = 1.0, []
    for step in range(steps):
        if step % 50 == 25:
            level *= math.exp(rng.choice((-0.5, 0.5)))
        else:
            level *= math.exp(rng.uniform(-0.08, 0.08))
        walk.append(level)
    return walk


def _stable_walk(rng: random.Random, steps: int) -> list[float]:
    """Mean-reverting reference walk held within STABLE_BAND of par."""
    x, walk = 0.0, []
    for _ in range(steps):
        x = min(STABLE_BAND, max(-STABLE_BAND, 0.95 * x + rng.gauss(0.0, 0.005)))
        walk.append(math.exp(x))
    return walk


def _simulate_job(workdir: Path, pool: str, name: str, scenario: str,
                  prices: str | None, events: int) -> Job:
    scenario_path = _write(workdir / f"{name}.scenario", scenario)
    out = workdir / f"{name}.csv"
    argv = ["simulate", "--scenario", str(scenario_path), "--out", str(out)]
    if prices is not None:
        argv += ["--prices", str(_write(workdir / f"{name}.prices", prices))]
    return Job(pool, tuple(argv), out, "simulate", events, events)


def _arb_job(workdir: Path, pool: str, name: str, walk: list[float]) -> Job:
    risky, numeraire = TOKENS[pool]
    endowments = [f"account arb {risky} 1e12", f"account arb {numeraire} 1e12"]
    if pool == "bancor-like":
        # ISSUED equal to the bootstrap supply lets the arbitrageur sell the
        # curve down to its origin
        endowments = ["account arb RESERVE 1e12", "account arb ISSUED 10"]
    lines = [f"pool {_spec(workdir, pool)}", *endowments]
    prices = ["step,price"]
    step = 0
    for level in walk:
        step += 1
        prices.append(f"{step},{OPENING_SPOT[pool] * level!r}")
        if pool == "dodo-like":  # the oracle trails the reference by a step
            step += 1
            lines.append(f"{step} oracle {OPENING_SPOT[pool] * level!r}")
            step += 1
        lines.append(f"{step} arb arb")
    return _simulate_job(workdir, pool, name, "\n".join(lines) + "\n",
                         "\n".join(prices) + "\n", len(lines) - 1 - len(endowments))


def _arb_jobs(workdir: Path, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for walk_index in range(ARB_WALKS):
        walks = {False: _walk(rng, ARB_STEPS), True: _stable_walk(rng, ARB_STEPS)}
        jobs += [_arb_job(workdir, pool, f"arb-{walk_index}-{pool}",
                          walks[pool in STABLE_POOLS]) for pool in ARB_POOLS]
    return jobs


def _classify_jobs(workdir: Path, seed: int, pools=CLASSIFY_POOLS) -> list[Job]:
    jobs = []
    for pool in pools:
        spec = _spec(workdir, pool)
        for probe_seed in range(seed * CLASSIFY_SEEDS, (seed + 1) * CLASSIFY_SEEDS):
            out = workdir / f"classify-{pool}-{probe_seed}.csv"
            argv = ("classify", "--pool", str(spec), "--seed", str(probe_seed),
                    "--out", str(out))
            jobs.append(Job(pool, argv, out, "classify", len(GOLDEN_TABLE[pool]),
                            PROBED_PER_REPORT * PROBED_TRIALS))
    return jobs


def _accounts(lines: list[str], tokens: tuple[str, ...]) -> list[str]:
    names = [f"u{index:05d}" for index in range(CROWD_ACCOUNTS)]
    for name in names:
        for token in tokens:
            lines.append(f"account {name} {token} {CROWD_ENDOWMENT!r}")
    return names


def _spender(rng: random.Random, names: list[str], spent: dict[str, list[float]],
             amount: float) -> tuple[str, int]:
    """A random account and side whose endowment still covers `amount`."""
    sides = len(next(iter(spent.values())))
    while True:
        who, side = rng.choice(names), rng.randrange(sides)
        if spent[who][side] + amount <= CROWD_ENDOWMENT:
            spent[who][side] += amount
            return who, side


def _crowd_uniswap(rng: random.Random) -> list[str]:
    """Deposits first (at par, so (a, a) stays proportional), then exact-in
    trades both ways, with partial withdrawals of earlier deposits."""
    t0, t1 = TOKENS["uniswap-v2-like"]
    lines: list[str] = []
    names = _accounts(lines, (t0, t1))
    spent = {name: [0.0, 0.0] for name in names}
    shares: dict[str, float] = {}
    deposits = CROWD_EVENTS // 10
    for step, who in enumerate(rng.sample(names, deposits), start=1):
        amount = round(rng.uniform(0.5, 5.0), 6)
        spent[who] = [amount, amount]
        # minted = supply * amount / reserve, and supply == reserve at par
        shares[who] = amount
        lines.append(f"{step} deposit {who} {amount!r} {amount!r}")
    for step in range(deposits + 1, CROWD_EVENTS + 1):
        if step > CROWD_EVENTS // 2 and shares and rng.random() < 0.1:
            holder = rng.choice(sorted(shares))
            part = shares.pop(holder) * rng.uniform(0.2, 0.5)
            lines.append(f"{step} withdraw {holder} {part!r}")
            continue
        amount = round(math.exp(rng.uniform(math.log(0.01), 0.0)), 6)
        who, side = _spender(rng, names, spent, amount)
        pair = (t0, t1) if side == 0 else (t1, t0)
        lines.append(f"{step} trade {who} {pair[0]} {pair[1]} {amount!r}")
    return lines


def _crowd_augur(rng: random.Random) -> list[str]:
    """Outcome buys, and sells of at most half the shares a buy bought;
    LMSR prices are below 1, so cash spent bounds the shares from below."""
    cash, *outcomes = TOKENS["augur-like"]
    lines: list[str] = []
    names = _accounts(lines, (cash,))
    spent = {name: [0.0] for name in names}
    held: dict[tuple[str, str], float] = {}
    for step in range(1, CROWD_EVENTS + 1):
        if held and rng.random() < 0.3:
            key = rng.choice(sorted(held))
            part = held.pop(key) * rng.uniform(0.1, 0.5)
            lines.append(f"{step} trade {key[0]} {key[1]} {cash} {part!r}")
            continue
        amount = round(rng.uniform(0.05, 1.0), 6)
        who, _ = _spender(rng, names, spent, amount)
        outcome = rng.choice(outcomes)
        held[(who, outcome)] = held.get((who, outcome), 0.0) + amount
        lines.append(f"{step} trade {who} {cash} {outcome} {amount!r}")
    return lines


def _crowd_bancor(rng: random.Random) -> list[str]:
    """Curve buys, and sells of at most half of what a buyer bought.  With
    r(S) = S**2 the price 2*S never exceeds 2*sqrt(100 + all reserve bonded),
    which bounds the tokens each buy mints from below."""
    reserve, issued = TOKENS["bancor-like"]
    lines: list[str] = []
    names = _accounts(lines, (reserve,))
    spent = {name: [0.0] for name in names}
    events: list[tuple[str, str, float]] = []
    held: dict[str, float] = {}  # reserve bonded since the last sale
    for _ in range(CROWD_EVENTS):
        if held and rng.random() < 0.3:
            who = rng.choice(sorted(held))
            events.append(("sell", who, held.pop(who) * rng.uniform(0.1, 0.5)))
            continue
        amount = round(rng.uniform(0.05, 1.0), 6)
        who, _ = _spender(rng, names, spent, amount)
        events.append(("buy", who, amount))
        held[who] = held.get(who, 0.0) + amount
    top_price = 2.0 * math.sqrt(100.0 + sum(a for kind, _, a in events if kind == "buy"))
    for step, (kind, who, amount) in enumerate(events, start=1):
        if kind == "buy":
            lines.append(f"{step} trade {who} {reserve} {issued} {amount!r}")
        else:
            lines.append(f"{step} trade {who} {issued} {reserve} {amount / top_price!r}")
    return lines


def _crowd_jobs(workdir: Path, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    # the first job is the warm-up; the cheapest keeps set-up short
    for pool, build in (("augur-like", _crowd_augur),
                        ("bancor-like", _crowd_bancor),
                        ("uniswap-v2-like", _crowd_uniswap)):
        lines = build(rng)
        scenario = "\n".join([f"pool {_spec(workdir, pool)}"] + lines) + "\n"
        jobs.append(_simulate_job(workdir, pool, f"crowd-{pool}", scenario, None,
                                  CROWD_EVENTS))
    return jobs


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files under `workdir`; return its jobs."""
    builders = {"arb-walk": _arb_jobs, "classify-sweep": _classify_jobs,
                "ledger-crowd": _crowd_jobs}
    return builders[workload](workdir, seed)


def defect_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Jobs that reproduce the program's known defects, which the workload's
    own jobs avoid because no operation of a workload may fail:

    * arb-walk: mstable-2021-like and curve-v1-like on a criterion-08 walk;
      arbitrage drains them, then engine.quote raises ZeroDivisionError or
      the arbitrageur's search never ends.
    * classify-sweep: curve-v1-like at chi = 10 over the workload's probe
      seeds; Translation Invariance comes out 'Indeterminate' on about half.
    """
    if workload == "arb-walk":
        walk = _walk(random.Random(seed), ARB_STEPS)
        return [_arb_job(workdir, pool, f"defect-{pool}", walk)
                for pool in ("mstable-2021-like", "curve-v1-like")]
    if workload == "classify-sweep":
        return _classify_jobs(workdir, seed, pools=("curve-v1-like",))
    return []


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _finite(cell: str) -> bool:
    return cell == "" or math.isfinite(float(cell))


def _check_metrics(job: Job, text: str) -> str:
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        return "bad metrics header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != job.rows:
        return f"{len(rows)} rows for {job.rows} events"
    fee = CONSERVATION_FEE.get(job.pool)
    previous = None
    for row in rows:
        if len(row) != 9 or not all(_finite(cell) for cell in row[2:]):
            return f"step {row[0]}: non-finite or missing cells"
        invariant = float(row[5]) if row[5] else None
        if fee is not None and row[1] in ("trade", "arb"):
            if invariant is None or (previous is not None and invariant < previous):
                return f"step {row[0]}: invariant fell on a fee-bearing pool"
        previous = invariant
        if job.pool == "uniswap-v2-like" and row[1] == "arb":
            spot, ref = float(row[2]), float(row[3])
            # the slack is the search tolerance tests/test_sim.py allows
            if abs(spot - ref) / max(spot, ref) > fee + 1e-6:
                return f"step {row[0]}: spot {spot} outside the fee band of {ref}"
    return ""


def _check_classify(job: Job, text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != CLASSIFY_HEADER:
        return "bad classify header"
    expected = GOLDEN_TABLE[job.pool]
    if len(rows) - 1 != len(expected):
        return f"{len(rows) - 1} rows for {len(expected)} dimensions"
    for row, cell in zip(rows[1:], expected):
        if len(row) != 5 or not all(_finite(value) for value in row[2:]):
            return f"{row[0]}: malformed row"
        got = row[1]
        if (got not in BOUNDING_LABELS) if cell is None else (got != cell):
            return f"{row[0]}: got {got!r}"
    return ""


def check(job: Job, code: int | None, error: BaseException | None) -> Outcome:
    """Validate one finished job from its exit code, exception and output."""
    done = 0
    if error is not None:
        timed_out = type(error).__name__ == "JobTimeout"
        reason = "timed out" if timed_out else f"raised {type(error).__name__}"
    elif code != 0:
        reason = f"exit code {code}"
    else:
        done = job.units
        text = job.out.read_text(encoding="utf-8")
        reason = (_check_metrics if job.kind == "simulate" else _check_classify)(job, text)
    return Outcome(not reason, done, reason)
