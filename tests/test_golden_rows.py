"""Golden CLI rows: fixed-seed CSV output must stay byte-identical.

Each case is one small CLI run whose CSV file was captured from the
current streams. The rule: a change that alters any stream (peer,
failure, protocol or input draws) shows here as a differing row; such a
change must be deliberate and documented in CHANGES.md, and the rows it
moves are re-captured in the same change, all others staying byte for
byte. Which stream each group pins:

- ``approx`` and ``selfq`` rows: the tournament's round stream without
  failures (phase I coins and picks, phase II, the K-sample order
  statistic; ``selfq`` runs its grid's tournaments one after another on
  one engine's stream);
- ``robust`` rows and ``exact --mu 0.5``: the round and failure streams
  under failures (pull batch sizes, the short mask and message total
  drawn in law, adoption); ``exact --mu 0.2`` also pins the failure
  budget rule ceil(base / (1 - mu)) at a mu where it differs from scaling
  by ceil(1 / (1 - mu));
- ``exact`` rows: the exact protocol's stream (bracket tournaments,
  min/max spreading, push-sum counts, token duplication);
- ``sketch`` and ``spread``: the sketch input and the spreading
  experiment's contacts.

The case with a non-default --t-extra checks the option's path to the
trial runner byte for byte; it uses the first seed whose t_extra-7 row
succeeds and differs from the default row. K (``tournament.K_SAMPLE``),
exact's narrowing eps (``exact.NARROW_EPS``) and its iteration cap
(``exact.MAX_ITERATIONS``) are constants, not options: the
``CONSTANT_ROWS`` cases run with one of them patched, which shows that
each is read at call time, the exact row's ``eps`` column included.
"""
import pytest

from gossipq import exact, tournament
from gossipq.cli import run_cli

HEADER = "experiment,n,phi,eps,mu,seed,rounds,messages,max_rank_error,success\n"

GOLDEN = [
    (
        ["approx", "--n", "2000", "--phi", "0.3", "--eps", "0.05",
         "--trials", "3", "--seed", "1"],
        "approx,2000,0.3,0.05,0.0,1,63,126000,23,1\n"
        "approx,2000,0.3,0.05,0.0,2,63,126000,54,1\n"
        "approx,2000,0.3,0.05,0.0,3,63,126000,48,1\n",
    ),
    (
        # phi = 0.5: phase II and the K-sample batch only
        ["robust", "--n", "2000", "--phi", "0.5", "--eps", "0.05",
         "--mu", "0.5", "--trials", "2", "--seed", "1"],
        "robust,2000,0.5,0.05,0.5,1,215,214397,26,1\n"
        "robust,2000,0.5,0.05,0.5,2,215,215514,18,1\n",
    ),
    (
        # phi = 0.3: phase I with its coins as well
        ["robust", "--n", "2000", "--phi", "0.3", "--eps", "0.05",
         "--mu", "0.5", "--trials", "2", "--seed", "3"],
        "robust,2000,0.3,0.05,0.5,3,224,224595,68,1\n"
        "robust,2000,0.3,0.05,0.5,4,226,224078,57,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.5", "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.08,0.0,1,2079,692998,0,1\n"
        "exact,256,0.5,0.08,0.0,2,745,232426,0,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.3", "--mu", "0.5",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.3,0.08,0.5,1,1956,273919,0,1\n"
        "exact,256,0.3,0.08,0.5,2,2823,421069,0,1\n",
    ),
    (
        # mu = 0.2: ceil(base / (1 - mu)) differs from base * ceil(1 / (1 - mu))
        ["exact", "--n", "256", "--phi", "0.5", "--mu", "0.2",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.08,0.2,1,879,211895,0,1\n"
        "exact,256,0.5,0.08,0.2,2,2105,527602,0,1\n",
    ),
    (
        ["sketch", "--nprime", "1024", "--k", "16", "--trials", "2", "--seed", "1"],
        "sketch,1024,,,0.0,1,11,0,146,1\n"
        "sketch,1024,,,0.0,2,11,0,136,1\n",
    ),
    (
        ["spread", "--n", "10000", "--eps", "0.01", "--trials", "2", "--seed", "1"],
        "spread,10000,,0.01,0.0,1,6,120000,0,1\n"
        "spread,10000,,0.01,0.0,2,6,120000,0,1\n",
    ),
    (
        ["selfq", "--n", "1000", "--eps", "0.1", "--trials", "2", "--seed", "1"],
        "selfq,1000,,0.1,0.0,1,577,577000,136,1\n"
        "selfq,1000,,0.1,0.0,2,577,577000,124,1\n",
    ),
    (
        # two wrong nodes: success needs 2 <= 300 / 2**t_extra, which the
        # default t_extra = 10 fails
        ["robust", "--n", "300", "--phi", "0.3", "--eps", "0.02", "--mu", "0.5",
         "--t-extra", "7", "--trials", "1", "--seed", "119"],
        "robust,300,0.3,0.02,0.5,119,231,34715,8,1\n",
    ),
]

# (module, constant, value): rows run with one protocol constant patched
CONSTANT_ROWS = [
    (
        (tournament, "K_SAMPLE", 10),
        ["selfq", "--n", "1000", "--eps", "0.1", "--trials", "1", "--seed", "1"],
        "selfq,1000,,0.1,0.0,1,397,397000,134,1\n",
    ),
    (
        (tournament, "K_SAMPLE", 5),
        ["approx", "--n", "2000", "--phi", "0.3", "--eps", "0.05",
         "--trials", "2", "--seed", "1"],
        "approx,2000,0.3,0.05,0.0,1,37,74000,28,1\n"
        "approx,2000,0.3,0.05,0.0,2,37,74000,57,1\n",
    ),
    (
        (tournament, "K_SAMPLE", 7),
        ["robust", "--n", "2000", "--phi", "0.3", "--eps", "0.05", "--mu", "0.5",
         "--trials", "1", "--seed", "1"],
        "robust,2000,0.3,0.05,0.5,1,162,160758,34,1\n",
    ),
    (
        (exact, "NARROW_EPS", 0.1),
        ["exact", "--n", "256", "--phi", "0.5", "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.1,0.0,1,1360,440726,0,1\n"
        "exact,256,0.5,0.1,0.0,2,947,305939,0,1\n",
    ),
    (
        (exact, "MAX_ITERATIONS", 2),
        ["exact", "--n", "256", "--phi", "0.5", "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.08,0.0,1,1328,439043,0,1\n"
        "exact,256,0.5,0.08,0.0,2,540,166163,0,1\n",
    ),
    (
        (tournament, "K_SAMPLE", 10),
        ["exact", "--n", "256", "--phi", "0.3", "--trials", "2", "--seed", "1"],
        "exact,256,0.3,0.08,0.0,1,761,257875,0,1\n"
        "exact,256,0.3,0.08,0.0,2,607,199068,0,1\n",
    ),
]


def _rows(tmp_path, argv):
    path = tmp_path / "rows.csv"
    assert run_cli(argv + ["--threads", "1", "--csv", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("argv, rows", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_rows_byte_identical(tmp_path, argv, rows):
    assert _rows(tmp_path, argv) == (HEADER + rows).encode()


@pytest.mark.parametrize(
    "constant, argv, rows", CONSTANT_ROWS,
    ids=[f"{name}={value} " + " ".join(a) for (_, name, value), a, _ in CONSTANT_ROWS],
)
def test_patched_constant_rows_byte_identical(monkeypatch, tmp_path, constant, argv, rows):
    # each constant is read at call time, so the patch reaches the trial
    monkeypatch.setattr(*constant)
    assert _rows(tmp_path, argv) == (HEADER + rows).encode()
