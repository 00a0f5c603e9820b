"""Golden outputs: the SHA-256 of what the command line writes.

Every case runs one `ammlab` command in process on fixed inputs and compares
the digest of its output bytes with a pinned value.  The outputs are
byte-stable by contract (floats are rendered with `repr` or a fixed format),
so a changed digest is a changed output byte somewhere: a behaviour change
that has to be made on purpose and recorded, never a rounding accident.

The inputs are built here from fixed seeds:

* `classify` on the six built-in pools at probe seeds 0 and 7;
* `quote` on every built-in pool, exact-in and exact-out, token 0 for token 1
  and (where the pool holds outcome or issued supply to sell) back;
* `curve-table --samples 16` on every two-token built-in pool;
* `simulate` on 200-step arbitrage walks (uniswap-v2; dodo with an oracle
  that trails the reference by one step; curve-v1 held near par; bancor);
* `simulate` on scripted trades, deposits and withdrawals (uniswap-v2), an
  augur buy/sell/resolve script, and a bancor script with trades only;
* each `demos/*.py` script, run as `__main__`: the demos are the only
  callers of the public curve functions that no other test runs;
* one call of the library itself: exact-collateral-out LMSR quotes on
  states whose sold outcome leads, a branch that no command reaches.

This module needs only the standard library and `ammlab`: `test_golden.py`
checks its cases under pytest, and `golden_digests.py` checks them on any
installed interpreter without pytest.  `other_pythons` lists those
interpreters for `test_golden.py` and `bench_digests.py`.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import re
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from ammlab.cli import main
from ammlab.curves import Lmsr, quote_exact_in, quote_exact_out, spot_price

DEMOS = Path(__file__).resolve().parent.parent / "demos"

BUILTINS = (
    "uniswap-v2-like",
    "curve-v1-like",
    "mstable-2021-like",
    "dodo-like",
    "bancor-like",
    "augur-like",
)
TWO_TOKEN = BUILTINS[:5]
TOKENS = {
    "uniswap-v2-like": ("TOKEN0", "TOKEN1"),
    "curve-v1-like": ("STABLE0", "STABLE1"),
    "mstable-2021-like": ("STABLE0", "STABLE1"),
    "dodo-like": ("BASE", "QUOTE"),
    "bancor-like": ("RESERVE", "ISSUED"),
    "augur-like": ("CASH", "OUT0"),
}

ARB_STEPS = 200


# ---------------------------------------------------------------------------
# scenario inputs
# ---------------------------------------------------------------------------


def _walk(seed: int, start: float, step: float, band: float = math.inf) -> list[float]:
    """Multiplicative walk; log-steps uniform in [-step, step], log level
    clamped to [-band, band] around the start."""
    rng = random.Random(seed)
    x, out = 0.0, []
    for _ in range(ARB_STEPS):
        x = min(band, max(-band, x + step * (2.0 * rng.random() - 1.0)))
        out.append(start * math.exp(x))
    return out


def _arb_case(pool: str, walk: list[float], endowments: list[str],
              trailing_oracle: bool = False) -> tuple[str, str]:
    """One arb event per walk level; a trailing oracle is set to the
    previous level just before each arb."""
    lines = [f"pool {pool}", *endowments]
    prices = ["step,price"]
    step = 0
    for previous, level in zip(walk[:1] + walk[:-1], walk):
        step += 1
        prices.append(f"{step},{level!r}")
        if trailing_oracle:
            step += 1
            lines.append(f"{step} oracle {previous!r}")
            step += 1
        lines.append(f"{step} arb arb")
    return "\n".join(lines) + "\n", "\n".join(prices) + "\n"


ARB_CASES = {
    "uniswap-v2-like": _arb_case(
        "uniswap-v2-like", _walk(1, 1.0, 0.05),
        ["account arb TOKEN0 1e9", "account arb TOKEN1 1e9"],
    ),
    "dodo-like": _arb_case(
        "dodo-like", _walk(2, 10.0, 0.03),
        ["account arb BASE 1e9", "account arb QUOTE 1e9"],
        trailing_oracle=True,
    ),
    "curve-v1-like": _arb_case(
        "curve-v1-like", _walk(3, 1.0, 0.01, band=0.02),
        ["account arb STABLE0 1e9", "account arb STABLE1 1e9"],
    ),
    "bancor-like": _arb_case(
        "bancor-like", _walk(4, 20.0, 0.05),
        ["account arb RESERVE 1e9", "account arb ISSUED 10"],
    ),
}

SCRIPT_CASES = {
    "uniswap-v2-like": (
        """pool uniswap-v2-like
account alice TOKEN0 1000
account alice TOKEN1 1000
account bob TOKEN0 500
account bob TOKEN1 500
1 deposit bob 50 50
2 trade alice TOKEN0 TOKEN1 25
3 trade bob TOKEN1 TOKEN0 40
4 trade alice TOKEN0 TOKEN1 7.5
5 withdraw bob 20
6 trade alice TOKEN1 TOKEN0 12
7 withdraw creator 30
8 trade bob TOKEN0 TOKEN1 3
""",
        "step,price\n2,1.0\n4,1.2\n7,0.9\n",
    ),
    "augur-like": (
        """pool augur-like
account alice CASH 500
account bob CASH 500
1 trade alice CASH OUT0 40
2 trade bob CASH OUT1 25
3 trade alice OUT0 CASH 10
4 trade bob CASH OUT0 15
5 trade bob OUT1 CASH 5
6 trade alice CASH OUT2 8
7 resolve OUT0
""",
        None,
    ),
    "bancor-like": (
        """pool bancor-like
account alice RESERVE 1000
account bob RESERVE 1000
1 trade alice RESERVE ISSUED 50
2 trade bob RESERVE ISSUED 120
3 trade alice ISSUED RESERVE 1
4 trade bob ISSUED RESERVE 1.5
5 trade alice RESERVE ISSUED 7
6 trade bob ISSUED RESERVE 2
""",
        "step,price\n1,20.0\n3,25.0\n5,18.0\n",
    ),
}


# ---------------------------------------------------------------------------
# pinned digests
# ---------------------------------------------------------------------------

CLASSIFY = {
    ('uniswap-v2-like', 0): '9e57913ca38abc7fc20efacc8dcc3da9b396d5591430c5af8606efe4fb5ac4b0',
    ('uniswap-v2-like', 7): '630ed1ab360bd066ac5cbaa108158785b89017571033354650caa4b877186465',
    ('curve-v1-like', 0): 'b1b099741029b9d8da801b2ef6b76426cd8b74a3d1cd18c43533bc28d0d51b9c',
    ('curve-v1-like', 7): 'a689e1b4264ac2b46ee04828e23c4ec5124435802cfde0928796dc80ba589d15',
    ('mstable-2021-like', 0): '8b9110849ad7f7c56eb7afbb88b56cec27c6a030ea66dacedc9d387140d1a995',
    ('mstable-2021-like', 7): '307edebc95da0178147236445e1d557da259b0fbb9f00eeb75c6d3dec6adc2ac',
    ('dodo-like', 0): '567a20c923bc1c923d694ad443b48726d10688db93bab21209bd410d653651c4',
    ('dodo-like', 7): '790b754ab63b6f52dd002bcb76b53d2cc6c69a5b341f0eacf1b898641ed67421',
    ('bancor-like', 0): '72feb4cf069052d069681ca0158693e4231a21d1f8e369a746e528f1d1722efc',
    ('bancor-like', 7): '6974f496d7c5e6a8ecec0d4d4dc5815e62171888336098e6ec613d821d9c67fc',
    ('augur-like', 0): '487b91b63fdea1b28848a684467d86fa64ed71d221a1ccf006cc5abfc0166eb4',
    ('augur-like', 7): '3d13a156be51e8996a43c38c14f9ab38781d5a1d9c347c498088345a2f4791df',
}

QUOTE = {
    ('uniswap-v2-like', 'forward', 'exact-in'):
        'bc608c39be6e75490251e795af2bc5f500734abd6ad01f734a064f62963283df',
    ('uniswap-v2-like', 'forward', 'exact-out'):
        '3b5320b1b151f5868f3d3c2085288aef1047e81c61d062fe68d0b779ded6604c',
    ('uniswap-v2-like', 'back', 'exact-in'):
        'bb9bde72b1b622e09ffd9bbb941a836c4cbdcd5db5dddbc9eab401dab6959034',
    ('uniswap-v2-like', 'back', 'exact-out'):
        '13d0523bddc665a332b911404bc4b88f174333286ca990223982723908abed8c',
    ('curve-v1-like', 'forward', 'exact-in'):
        '4642da0068badb5676cd31caea38e25650b296b814b44bb1bc68e5376ad558a4',
    ('curve-v1-like', 'forward', 'exact-out'):
        'dc0656bb1f288b1542f33a65328d706730a95d2fbbbd2e8979c41ba184a9e80b',
    ('curve-v1-like', 'back', 'exact-in'):
        'bb5fe100908d664a52c56c4058d9346abeff060fc2b939d3ef11c2aa1d9362fc',
    ('curve-v1-like', 'back', 'exact-out'):
        '8460940611ed408196ede3316826ea06debbcb0752a667d343b3c6c6bfe3e254',
    ('mstable-2021-like', 'forward', 'exact-in'):
        'c09a5accbe2c41aa1e61d1f1d667f6e7bf38a1f7f8b6959abf21b11a70f51764',
    ('mstable-2021-like', 'forward', 'exact-out'):
        '2b3d4d7d8b38222d290b5c689d783c07a5c1bcc486999d3b3fc1322c78e171b1',
    ('mstable-2021-like', 'back', 'exact-in'):
        'b566473062925302083aa02a9efb71ec80b352611dbbe5aede9323924e69bf8c',
    ('mstable-2021-like', 'back', 'exact-out'):
        '42db526e473ce85a878aa0e6eec4494e38cd008eb8d265539d1f545f07653d79',
    ('dodo-like', 'forward', 'exact-in'):
        'acdfa18a1e6ac44c167360ea19276b67bdb277c5930f5dd4ea98ebcc5118a368',
    ('dodo-like', 'forward', 'exact-out'):
        'dd73b4b46337800d21c768ebabe6e94fa621ae55ec054b50be874b72d24bc55c',
    ('dodo-like', 'back', 'exact-in'):
        'aec3b6401c0f44ec64d12be29ad4badf61c07a473b9351ebbd68817046a0f50c',
    ('dodo-like', 'back', 'exact-out'):
        'c54176c974f8528315c9c2abf5fa30eb461a63ffe36e1f40ff3cd601467af810',
    ('bancor-like', 'forward', 'exact-in'):
        '5f9917b888b7b6121b9cce3432502e2f6242793118144b0ee95d8e203b44a6af',
    ('bancor-like', 'forward', 'exact-out'):
        'a8900b3d70327cb826f032e534d8b2467e0cc4cc4f1663328c8bcf47519960e3',
    ('bancor-like', 'back', 'exact-in'):
        'ecb601eff3f3e29e81216ff97ab6750f64d5d29641382a3ab5abfbf541a3d100',
    ('bancor-like', 'back', 'exact-out'):
        'aa5eb77988e56e4aa061ef2b9b570273084e909c1780e01b8ae8f52b01bc332e',
    ('augur-like', 'forward', 'exact-in'):
        'aea859bf6c40d1d80b15267a02929a994318480f2731435fbc5c43a92638d186',
    ('augur-like', 'forward', 'exact-out'):
        '86a5913bf7452c962bc0c5411ab98a752947d8993ce8e88b5e90c5d13e69007e',
}

CURVE_TABLE = {
    'uniswap-v2-like': 'c8be74a8cda4f151eb3c990fdc75e57a3332e621d3181c57360ce0dbddebef8b',
    'curve-v1-like': 'b7f3d2d2b25672c0bb8df8f92549fa15c833915a1faa720fc48be85d91698697',
    'mstable-2021-like': '0fd939a27fa2b46909a286fddb98694b39041aa56c9b52ff47ef2ab1e82fe979',
    'dodo-like': '91feb94a2a0f79e58f8e9e9f0ffdd9d372ec95a8637b1493b41fc96c5f82b187',
    'bancor-like': '306de15d8860099811a652da8e199e4cdc21f342ce3d11ccaf6dbe1a5c7d5718',
}

ARB = {
    'bancor-like': '1d2f082e33a450779be724129a24338476d3f7e56e8b5d6ce892df694591d497',
    'curve-v1-like': 'd194d4777ef19b4c75283fb05761b8a8e26aedaf69f1e1aa3af6961ee2b88414',
    'dodo-like': 'd1b5e7ed487d771f282d3b09bd017283cf42c373847aad8d92b3519fb1231b86',
    'uniswap-v2-like': 'd79ec7b8a504f08ff8118f6d2d8e51781a9e525814f363c30931dcba82fc92c0',
}

DEMO = {
    "demo_bonding.py": "ba6ad633de6aab178c1ef5ae12c7047eb48d6cd0f2fdaf181835abf2c2227f6d",
    "demo_curves.py": "8aa29c79723bcac9c8a3240c0314ed26faaf8506c62bb36846862687c9b5aabc",
    "demo_divergence.py": "bcdab02ad70223fb538fb32c5f2273387bcf123576d6743a54ec22fd7ca3ec74",
    "demo_prediction.py": "8ce778227975be8e1f351ca18a5d6fa8def403bded80d6d6d9a8269d59b7006b",
    "demo_probe.py": "9221800c899942df662b919f5d745e5e77feb743ea1411e7fe1bf0f4980aa36a",
}

API = {
    'lmsr-leading-outcome': 'f43b76b41dc10e6eddec80b8d62d86046cfa7e94b40a2659bf90b05a41e86ba2',
}

SCRIPT = {
    'augur-like': '40e7aed98c95eb0927c12e6d674a519fefa44966e4612c99d0be1801990a7b16',
    'bancor-like': 'dc700759579d9966f75ac763b609ee4db382ff46f471c38947a2a9b9f0d3bebc',
    'uniswap-v2-like': 'b3b9e0082fc72e312f193ceb5db63cb5c6732fa1499f8b0377699e9ab20c98d8',
}


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _captured(run: Callable[[], object], what: str) -> tuple[object, str]:
    """(what `run` returns, what it writes to stdout); AssertionError if it
    writes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = run()
    if err.getvalue():
        raise AssertionError(f"{what} wrote to stderr: {err.getvalue()}")
    return result, out.getvalue()


def command_output(argv: list[str]) -> str:
    """The output of one in-process `ammlab` command, which must exit 0."""
    code, out = _captured(partial(main, argv), f"ammlab {' '.join(argv)}")
    if code != 0:
        raise AssertionError(f"ammlab {' '.join(argv)} exited {code}")
    return out


def simulate_output(name: str, scenario: str, prices: str | None) -> str:
    """The output of `ammlab simulate` on a scenario and an optional price
    series, written to a temporary directory."""
    with tempfile.TemporaryDirectory() as workdir:
        scenario_path = Path(workdir) / f"{name}.scenario"
        scenario_path.write_text(scenario, encoding="utf-8")
        argv = ["simulate", "--scenario", str(scenario_path)]
        if prices is not None:
            prices_path = Path(workdir) / f"{name}.prices"
            prices_path.write_text(prices, encoding="utf-8")
            argv += ["--prices", str(prices_path)]
        return command_output(argv)


def demo_output(demo: str) -> str:
    """What a `demos/*.py` script prints, run as `__main__`."""
    return _captured(partial(runpy.run_path, str(DEMOS / demo), run_name="__main__"), demo)[1]


def lmsr_leading_outcome_output() -> str:
    """The `repr` of exact-collateral-out quotes (the shares that pay out dy
    collateral) on fixed LMSR states, where the sold outcome j is priced
    above e^(-dy/b) on most lines.  There `Lmsr.quote_out` takes its
    leading-outcome branch, which no command reaches: pools open with no
    outstanding shares, and `simulate` trades exact-in only.  Each line
    flags whether the branch ran."""
    spec = Lmsr(b=100.0)
    lines = []
    for q in ((300.0, 0.0, 0.0), (250.0, 180.0, 0.0), (500.0, 0.0, 0.0, 120.0), (1200.0, 0.0)):
        for j in range(len(q)):
            if not q[j]:
                continue
            price = spot_price(spec, q, j, None)  # collateral per share of j, sold
            most = quote_exact_in(spec, q, j, None, q[j])  # the payout for every share
            for fraction in (0.001, 0.05, 0.3, 0.75, 0.999):
                dy = most * fraction
                leading = price > math.exp(-dy / spec.b)
                lines.append(f"{q!r} {j} {dy!r} {leading} {quote_exact_out(spec, q, j, None, dy)!r}")
    return "\n".join(lines) + "\n"


def _quote_argv(pool: str, direction: str, kind: str) -> list[str]:
    t0, t1 = TOKENS[pool]
    token_in, token_out = (t0, t1) if direction == "forward" else (t1, t0)
    # the sale back stays within bancor-like's primed supply of 10
    amount = {"forward": ("10", "5"), "back": ("3", "2")}[direction][kind == "exact-out"]
    return ["quote", "--pool", pool, "--in", token_in, "--out", token_out,
            "--amount", amount, "--kind", kind]


QUOTE_CASES = [
    (pool, direction, kind)
    for pool in BUILTINS
    for direction in ("forward", "back")
    for kind in ("exact-in", "exact-out")
    if not (pool == "augur-like" and direction == "back")  # nothing to sell
]


class GoldenCase(NamedTuple):
    test: str  # the test function of test_golden.py that checks the case
    id: str  # the case's parameters, as pytest names them
    digest: str  # the pinned digest of its output
    output: Callable[[], str]  # runs the case and returns its output


CASES = [
    *(GoldenCase("test_classify", f"{seed}-{pool}", CLASSIFY[pool, seed],
                 partial(command_output, ["classify", "--pool", pool, "--seed", str(seed)]))
      for seed in (0, 7) for pool in BUILTINS),
    *(GoldenCase("test_quote", "-".join(key), QUOTE[key], partial(command_output, _quote_argv(*key)))
      for key in QUOTE_CASES),
    *(GoldenCase("test_curve_table", pool, CURVE_TABLE[pool],
                 partial(command_output, ["curve-table", "--pool", pool, "--samples", "16"]))
      for pool in TWO_TOKEN),
    *(GoldenCase("test_arbitrage_walk", pool, ARB[pool], partial(simulate_output, pool, *ARB_CASES[pool]))
      for pool in sorted(ARB_CASES)),
    *(GoldenCase("test_scripted_scenario", pool, SCRIPT[pool],
                 partial(simulate_output, pool, *SCRIPT_CASES[pool]))
      for pool in sorted(SCRIPT_CASES)),
    *(GoldenCase("test_demo", demo, DEMO[demo], partial(demo_output, demo)) for demo in sorted(DEMO)),
    GoldenCase("test_api", "lmsr-leading-outcome", API["lmsr-leading-outcome"],
               lmsr_leading_outcome_output),
]


def other_pythons() -> list[Path]:
    """Each CPython 3.10 or later but the one running: pyenv's builds, as
    `$PYENV_ROOT/versions/<version>/bin/python` (`~/.pyenv` by default),
    then each `python3.<minor>` on PATH.  pyenv's shims are left out, as
    they may not resolve a version outside a project that pins one; so is
    a second name for a binary already found."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    named = [(path.parent.parent.name, path) for path in sorted(pyenv.glob("versions/*/bin/python"))]
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        if Path(directory).resolve() != (pyenv / "shims").resolve():
            named += [(path.name[len("python"):], path)
                      for path in sorted(Path(directory).glob("python3.*"))]
    found, seen = [], {Path(sys.executable).resolve()}
    for version, path in named:
        release = re.fullmatch(r"3\.(\d+)(\.\w+)?", version)
        if release and int(release[1]) >= 10 and os.access(path, os.X_OK):
            if path.resolve() not in seen:
                seen.add(path.resolve())
                found.append(path)
    return found
