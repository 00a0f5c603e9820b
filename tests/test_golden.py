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
  augur buy/sell/resolve script, and a bancor script with trades only.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from ammlab.cli import main

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


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _run(argv: list[str], capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return captured.out


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
    ('uniswap-v2-like', 0): '9cd9271d3c0d378792ac10950d228b87276758662023292f99f114127a0c165e',
    ('uniswap-v2-like', 7): '9c90a737fa9bf85e13bd30bedbb5f15fac8329962a52d80d639b70297e0e1a21',
    ('curve-v1-like', 0): 'de46f3011f3b1d23ce54af760a224ab71b01768e9380fff35fc8f2718d6746c5',
    ('curve-v1-like', 7): 'ec5407c25043237bc09b6bbb0b981c793484cf0011dc125781a61b199d377379',
    ('mstable-2021-like', 0): '774c6665911b3cf8b12473b701d2bccfffd36dc41ebcdfc7963d7f2a010a2cba',
    ('mstable-2021-like', 7): 'c6ebb9a5c4557e0bc6a2f2ba8102284dbbf2c0a659a9760c48792a8c5ad8328d',
    ('dodo-like', 0): 'f506b7503a9ba0a3907b029e6ae34e2013dee3d83907fb4750d70231b9e95945',
    ('dodo-like', 7): '37efa85b75f49c1ee06a179a79eb38c92edab5d82d50ad34dd744392638a04bc',
    ('bancor-like', 0): 'aa45e9560b90f187c168af003dfcb33740c95c2ec8b58f39f2400f67b5831d65',
    ('bancor-like', 7): '236e81ffea6f8d5573dcc021ef016c811c7740de93ad5737c3a6bb9c53323468',
    ('augur-like', 0): '585e3b43d8e1d0b242d00cdfc7305bc75d31038af3a0f9f824a4a05649b215e9',
    ('augur-like', 7): '72a567d1ed13e3a6d367b53c831f302387966c9dea256959dcae500d75b18242',
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
        '55a52a3136fca98d12576ecbcc29a3c9d6ea6b06ba50616d24487834ca2ae9a5',
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
    'uniswap-v2-like': '1e56bf298af65ee1cd82b08ba8a58998618d1b3fa72ae942fce4f87ad6c65b2b',
    'curve-v1-like': '05761c4879ca0ac10d9bb482baff64f0440429a3dfb8b899968ff29ba5e641d1',
    'mstable-2021-like': '718599587cbff0d23b05548d01d64d9036d364ca018e431ebb8c506a5b0dbd5e',
    'dodo-like': 'ddaef8fd80650eff8c830ec42b6b082a0813db4125c5a26242028171c4921ba1',
    'bancor-like': '7b9344baeebee761768e906470874bbb62f99254f96c89a96d9b4716e75f6391',
}

ARB = {
    'bancor-like': 'fdfecae23197d7dac649c4dde6e9d8380f4c6c2edc4b060213c556a66e46910d',
    'curve-v1-like': '3d0376d58b17f9a8129fd9eb86e5a32e421cb4e8c031e3b8e73c216078882477',
    'dodo-like': '0e8a012972d71764356bd31f062db2602978960b97b978df7f2e6bbb32786cef',
    'uniswap-v2-like': '347da0aaa4f004ebb2b4d9c3736f183505992ebf6e8d1f649c31e865853b50e6',
}

SCRIPT = {
    'augur-like': '54af9202c486d206c338877722b7497408c1f0ae06c4a5c925f5fafab1fe27cd',
    'bancor-like': '4926dc646ae1f2d60de9aeae90b37cc2f061606c27f2355573e5bbd68e3ddcc4',
    'uniswap-v2-like': '634a86505fbb92269d0874c01093dca9eb73adb888ed22566793e654145dc3cc',
}


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("pool", BUILTINS)
@pytest.mark.parametrize("seed", [0, 7])
def test_classify(pool, seed, capsys):
    out = _run(["classify", "--pool", pool, "--seed", str(seed)], capsys)
    assert _digest(out) == CLASSIFY[pool, seed]


@pytest.mark.parametrize("pool,direction,kind", QUOTE_CASES)
def test_quote(pool, direction, kind, capsys):
    out = _run(_quote_argv(pool, direction, kind), capsys)
    assert _digest(out) == QUOTE[pool, direction, kind]


@pytest.mark.parametrize("pool", TWO_TOKEN)
def test_curve_table(pool, capsys):
    out = _run(["curve-table", "--pool", pool, "--samples", "16"], capsys)
    assert _digest(out) == CURVE_TABLE[pool]


def _simulate(tmp_path, capsys, name: str, scenario: str, prices: str | None) -> str:
    scenario_path = tmp_path / f"{name}.scenario"
    scenario_path.write_text(scenario, encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario_path)]
    if prices is not None:
        prices_path = tmp_path / f"{name}.prices"
        prices_path.write_text(prices, encoding="utf-8")
        argv += ["--prices", str(prices_path)]
    return _run(argv, capsys)


@pytest.mark.parametrize("pool", sorted(ARB_CASES))
def test_arbitrage_walk(pool, tmp_path, capsys):
    out = _simulate(tmp_path, capsys, pool, *ARB_CASES[pool])
    assert out.count("\n") == 1 + ARB_STEPS * (2 if pool == "dodo-like" else 1)
    assert _digest(out) == ARB[pool]


@pytest.mark.parametrize("pool", sorted(SCRIPT_CASES))
def test_scripted_scenario(pool, tmp_path, capsys):
    out = _simulate(tmp_path, capsys, pool, *SCRIPT_CASES[pool])
    assert _digest(out) == SCRIPT[pool]
