"""Golden CLI rows: fixed-seed CSV output must stay byte-identical.

Each case is one small CLI run whose CSV file was captured when the
engine moved to one generator per stream, a deliberate change of every
engine stream and of the sketch input. The five ``exact`` cases were
captured again when the exact protocol stopped counting each iteration's
valued keys by push-sum and derived that count from the two bracket
counts instead: one push-sum fewer per iteration moves every later draw
of the exact stream, and with it those rows' rounds and messages. The
five rows under failures (four ``robust`` rows and ``exact --mu 0.5``)
were captured again when the robust pull batch began to sample its good
pulls in distribution instead of drawing a contact per node per round,
which moves the round stream wherever failures are on. The eight
failure-free rows that run a phase-I iteration with delta < 1 (both
``approx`` cases, both ``selfq`` cases and the four ``exact`` cases at
mu = 0) were captured again when every tournament step began to pull
through the good-pull batch: such an iteration now draws its coins
before its picks. The twelve ``approx``, ``selfq --k-sample``, ``robust``
and ``exact`` cases were captured again when the pull batches took sizes
derived from the bad-fraction recursion, the good-pull test became one
uniform per node and the K-sample median one order statistic per node:
the K-sample moves every tournament's round stream, with or without
failures, and the batch sizes move the rounds under failures. The
``t_extra`` case then moved from seed 35 to seed 109, the first seed
whose t_extra-7 row succeeds and differs from the default row. The five
rows under failures were captured again, and the ``t_extra`` case moved
to seed 119 by the same rule, when a pull batch stopped drawing
per-round failure bits under ``uniform`` and began to draw its short
mask and message total in law: that moves the round and failure streams
wherever failures are on. The cases with a non-default --k-sample, --t-extra, --max-iterations or
--exact-eps check each option's path to the trial runner byte for byte.
A change that alters any stream (peer, failure, protocol or input
draws) shows here as a differing row; such a change must be deliberate
and documented, and then the captured rows are replaced in the same change.
"""
import pytest

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
        "exact,256,0.5,0.08,0.0,1,1069,331607,0,1\n"
        "exact,256,0.5,0.08,0.0,2,1207,380831,0,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.3", "--mu", "0.5",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.3,0.08,0.5,1,2239,324048,0,1\n"
        "exact,256,0.3,0.08,0.5,2,2668,394455,0,1\n",
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
        "selfq,1000,,0.1,0.0,1,577,577000,115,1\n"
        "selfq,1000,,0.1,0.0,2,577,577000,147,1\n",
    ),
    (
        ["selfq", "--n", "1000", "--eps", "0.1", "--k-sample", "10",
         "--trials", "1", "--seed", "1"],
        "selfq,1000,,0.1,0.0,1,397,397000,116,1\n",
    ),
    (
        ["approx", "--n", "2000", "--phi", "0.3", "--eps", "0.05",
         "--k-sample", "5", "--trials", "2", "--seed", "1"],
        "approx,2000,0.3,0.05,0.0,1,37,74000,28,1\n"
        "approx,2000,0.3,0.05,0.0,2,37,74000,57,1\n",
    ),
    (
        # two wrong nodes: success needs 2 <= 300 / 2**t_extra, which the
        # default t_extra = 10 fails
        ["robust", "--n", "300", "--phi", "0.3", "--eps", "0.02", "--mu", "0.5",
         "--t-extra", "7", "--trials", "1", "--seed", "119"],
        "robust,300,0.3,0.02,0.5,119,231,34715,8,1\n",
    ),
    (
        ["robust", "--n", "2000", "--phi", "0.3", "--eps", "0.05", "--mu", "0.5",
         "--k-sample", "7", "--trials", "1", "--seed", "1"],
        "robust,2000,0.3,0.05,0.5,1,162,160758,34,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.5", "--exact-eps", "0.1",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.1,0.0,1,574,173215,0,1\n"
        "exact,256,0.5,0.1,0.0,2,774,237904,0,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.5", "--max-iterations", "2",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.5,0.08,0.0,1,737,232676,0,1\n"
        "exact,256,0.5,0.08,0.0,2,966,305932,0,1\n",
    ),
    (
        ["exact", "--n", "256", "--phi", "0.3", "--k-sample", "10",
         "--trials", "2", "--seed", "1"],
        "exact,256,0.3,0.08,0.0,1,451,139610,0,1\n"
        "exact,256,0.3,0.08,0.0,2,626,201308,0,1\n",
    ),
]


@pytest.mark.parametrize("argv, rows", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_rows_byte_identical(tmp_path, argv, rows):
    path = tmp_path / "rows.csv"
    assert run_cli(argv + ["--threads", "1", "--csv", str(path)]) == 0
    assert path.read_bytes() == (HEADER + rows).encode()
