"""CLI subcommands: outputs, exit codes, determinism."""

import concurrent.futures
import json
import multiprocessing
import os
import re

import pytest

from weilrep.cli import BLAS_THREAD_VARS, _one_blas_thread_for_children, main


def body_of(path):
    """CSV content with the comment header (config, timestamp) stripped."""
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def test_selftest_quick():
    assert main(["selftest", "--quick"]) == 0


def test_verify_bounds_and_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    rc = main(["verify-bounds", "--p", "5", "--N", "1", "--torus", "all",
               "--seed", "3", "--out", str(out1)])
    assert rc == 0
    rc = main(["verify-bounds", "--p", "5", "--N", "1", "--torus", "all",
               "--seed", "3", "--out", str(out2)])
    assert rc == 0
    assert body_of(out1 / "bounds.csv") == body_of(out2 / "bounds.csv")
    header = open(out1 / "bounds.csv").readline()
    assert header.startswith("# config=")
    cols = body_of(out1 / "bounds.csv").splitlines()[0].split(",")
    assert cols == ["p", "m", "N", "torus", "chi", "v", "re", "im", "abs", "bound", "ratio"]
    summary = json.loads((out1 / "bounds_summary.json").read_text())
    assert summary["reports"][0]["max_ratio"] <= 1


def test_verify_bounds_checks_the_rank_bound_on_product_tori(tmp_path, capsys):
    """Every Sp(4) kind is checked, the product tori (r = 2) included: the
    terms of their elements that are the identity on a block vanish at the
    admissible vectors."""
    rc = main(["verify-bounds", "--p", "5", "--N", "2", "--torus", "all",
               "--out", str(tmp_path)])
    assert rc == 0
    status = {}
    for line in capsys.readouterr().out.splitlines():
        word, _, _, torus = line.split(" ")[:4]
        status[torus.removeprefix("torus=")] = word
    kinds = ["split+split", "split+inert", "inert+inert", "split2", "irreducible2"]
    assert status == {kind: "PASS" for kind in kinds}
    rows = body_of(tmp_path / "bounds.csv").splitlines()[1:]
    assert {row.split(",")[3] for row in rows} == set(kinds)
    summary = json.loads((tmp_path / "bounds_summary.json").read_text())
    assert set(summary) == {"config", "reports"}
    assert [r["rank"] for r in summary["reports"]] == [2, 2, 2, 1, 1]
    assert all(r["max_ratio"] <= 1 for r in summary["reports"])
    # the character columns are integers, not numpy scalars turned into strings
    assert all(type(e) is int for r in summary["reports"] for e in r["argmax"]["chi"])
    assert all(re.fullmatch(r"\d+(;\d+)*", row.split(",")[4]) for row in rows)


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    """An exception that is not a configuration error is reported as an
    internal error, never as a violated bound or a bad configuration."""
    from weilrep import cli

    def broken(args):
        raise RuntimeError("injected invariant failure")

    monkeypatch.setattr(cli, "cmd_verify_bounds", broken)
    assert main(["verify-bounds", "--p", "5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-1] == "internal error: RuntimeError: injected invariant failure"


def test_multiplicities_cmd(tmp_path):
    rc = main(["multiplicities", "--p", "5,7", "--N", "1", "--torus", "all",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "multiplicities.csv").splitlines()
    assert lines[0] == "p,m,N,torus,chi,multiplicity"
    assert len(lines) == 1 + (4 + 6) + (6 + 8)
    assert all(re.fullmatch(r"\d+(;\d+)*", line.split(",")[4]) for line in lines[1:])


@pytest.mark.parametrize("subcommand,p", [("verify-bounds", "5"), ("multiplicities", "3")])
def test_torus_all_above_sp4_is_refused_by_name(tmp_path, capsys, subcommand, p):
    """--torus all lists the tori of N = 1 and 2 only; at N = 3 the refusal
    names the option, not a block list the user never wrote."""
    rc = main([subcommand, "--p", p, "--N", "3", "--torus", "all", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--torus all" in err and "N = 3" in err
    assert "block dimensions" not in err


def test_multiplicities_of_a_named_sp6_torus(tmp_path):
    rc = main(["multiplicities", "--p", "3", "--N", "3", "--torus", "irreducible3",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "multiplicities.csv").splitlines()
    assert len(lines) == 1 + 28  # |T| = 3^3 + 1


def test_multiplicities_cmd_above_dimension_343(tmp_path):
    rc = main(["multiplicities", "--p", "347", "--N", "1", "--torus", "split",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "multiplicities.csv").splitlines()
    assert len(lines) == 1 + 346


def test_self_reducibility_cmd(tmp_path):
    rc = main(["self-reducibility", "--p", "3", "--samples", "4", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "self_reducibility.json").read_text())
    assert data["reports"][0]["sigma_identity_failures"] == 0
    assert "jobs" not in data["config"]


def test_options_no_code_reads_are_refused(tmp_path):
    """--jobs belongs to the two prime sweeps; the rank sweep takes no window;
    --seed belongs to the commands that draw samples; selftest writes no
    files."""
    assert main(["self-reducibility", "--jobs", "2", "--out", str(tmp_path)]) == 2
    assert main(["rank-density", "--xi-max", "3", "--out", str(tmp_path)]) == 2
    for argv in (
        ["multiplicities", "--p", "5"],
        ["que", "--A", "cat2", "--max-prime", "5"],
        ["statistical", "--A", "cat2", "--max-prime", "5"],
        ["rank-density", "--A", "cat2", "--max-prime", "50"],
    ):
        assert main(argv + ["--seed", "1", "--out", str(tmp_path)]) == 2, argv[0]
    assert main(["selftest", "--quick", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["self-reducibility", "--p", "3", "--N", "2", "--samples", "-1"], "--samples"),
        (["que", "--A", "cat4", "--min-prime", "7", "--max-prime", "7", "--jobs", "0"], "--jobs"),
    ],
)
def test_out_of_range_counts_are_refused_by_name(tmp_path, capsys, argv, flag):
    """A negative sample count or fewer than one worker exits 2, naming the
    flag, before any work starts."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_que_cmd_with_matrix_file(tmp_path):
    mat_file = tmp_path / "A.json"
    mat_file.write_text(json.dumps({"A": [[2, 1], [1, 1]]}))
    rc = main(["que", "--A", str(mat_file), "--max-prime", "11", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "que.csv").splitlines()
    assert lines[0] == "p,r_p,torus_order,max_wigner_ratio,n_eigenstates,skipped_reason"
    skipped = [l for l in lines[1:] if l.endswith("disc(charpoly)")]
    assert len(skipped) == 1 and skipped[0].startswith("5,")


def test_the_sp6_example_file_is_the_seed_and_runs(tmp_path):
    """matrices/sp6_seed.json, the matrix file of the Sp(6) sweep at
    p = 11, holds the seed of criterion 11; que reads it (here at p = 5)."""
    from test_acceptance import SP6_SEED

    from weilrep.cli import _load_matrix

    path = os.path.join(os.path.dirname(__file__), os.pardir, "matrices", "sp6_seed.json")
    assert _load_matrix(path) == SP6_SEED
    rc = main(["que", "--A", path, "--min-prime", "5", "--max-prime", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert body_of(tmp_path / "que.csv").splitlines()[1].startswith("5,2,156,")


def test_the_sp8_example_file_is_the_seed_and_runs(tmp_path):
    """matrices/sp8_seed.json holds the Sp(8) seed; its discriminant
    -2^15 5 7^4 101^2 makes the rank sweep skip 5, 7 and 101, and que reads
    it at p = 3, where its Hecke torus is irreducible4 (|T| = 82)."""
    from test_catmap import SP8_SEED, SP8_SEED_DISC

    from weilrep.catmap import LatticeAutomorphism, rank_density_sweep
    from weilrep.cli import _load_matrix

    path = os.path.join(os.path.dirname(__file__), os.pardir, "matrices", "sp8_seed.json")
    assert _load_matrix(path) == SP8_SEED
    A = LatticeAutomorphism(SP8_SEED)
    assert A.disc == SP8_SEED_DISC and A.strongly_generic and A.generic
    assert rank_density_sweep(A, 3000)["skipped"] == [5, 7, 101]
    rc = main(["que", "--A", path, "--min-prime", "3", "--max-prime", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert body_of(tmp_path / "que.csv").splitlines()[1].startswith("3,1,82,")


def test_que_error_at_one_prime_becomes_an_error_row(tmp_path, monkeypatch):
    from weilrep import catmap

    real = catmap.centralizer_torus

    def fails_at_11(space, A):
        if space.ctx.p == 11:
            raise RuntimeError("injected failure")
        return real(space, A)

    monkeypatch.setattr(catmap, "centralizer_torus", fails_at_11)
    rc = main(["que", "--A", "cat2", "--max-prime", "13", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    lines = body_of(tmp_path / "que.csv").splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["5", "7", "11", "13"]
    assert lines[3] == "11,,,,,error: RuntimeError"
    data = json.loads((tmp_path / "que_summary.json").read_text())
    [err] = data["errors"]
    assert (err["p"], err["error"], err["message"]) == (11, "RuntimeError", "injected failure")
    assert err["where"].endswith("in fails_at_11")
    assert [r["p"] for r in data["rows"]] == [5, 7, 13]
    assert data["violations"] == 0


def test_statistical_cmd(tmp_path):
    rc = main(["statistical", "--A", "cat2", "--max-prime", "11", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "statistical_summary.json").read_text())
    assert data["violations"] == 0


def test_rank_density_cmd(tmp_path):
    rc = main(["rank-density", "--A", "cat4", "--max-prime", "1000",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "rank_density.json").read_text())
    freqs = data["sweep"]["freqs"]
    assert set(freqs) == {"1", "2"} or set(freqs) == {1, 2}


def test_missing_matrix_is_config_error(tmp_path):
    rc = main(["que", "--A", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_bad_subcommand_is_config_error():
    assert main(["definitely-not-a-subcommand"]) == 2


def test_que_parallel_jobs_match_serial(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    rc1 = main(["que", "--A", "cat2", "--max-prime", "13", "--jobs", "1",
                "--out", str(out1)])
    rc2 = main(["que", "--A", "cat2", "--max-prime", "13", "--jobs", "2",
                "--out", str(out2)])
    assert rc1 == rc2 == 0
    assert body_of(out1 / "que.csv") == body_of(out2 / "que.csv")


def test_spawned_workers_get_one_blas_thread_and_the_environment_is_restored(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    for name in BLAS_THREAD_VARS[1:]:
        monkeypatch.delenv(name, raising=False)
    with _one_blas_thread_for_children():
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as ex:
            seen = [ex.submit(os.getenv, name).result() for name in BLAS_THREAD_VARS]
    assert seen == ["1"] * len(BLAS_THREAD_VARS)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert not any(name in os.environ for name in BLAS_THREAD_VARS[1:])


def test_selftest_quick_runtime():
    import time

    t0 = time.time()
    assert main(["selftest", "--quick"]) == 0
    assert time.time() - t0 < 60


def test_multiplicities_sp4_all_kinds(tmp_path):
    rc = main(["multiplicities", "--p", "3", "--N", "2", "--torus", "all",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "multiplicities.csv").splitlines()
    # five torus types: 4+8, 4+6, 6+6... counts are |T| per torus
    assert len(lines) == 1 + 2 * 2 + 2 * 4 + 4 * 4 + 8 + 10


def test_config_file_interface(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "A": [[2, 1], [1, 1]],
        "primes": {"max": 11},
        "xi_window": {"max_coeff": 7},
    }))
    rc = main(["que", "--config", str(cfg), "--jobs", "1", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "que_summary.json").read_text())
    assert data["config"]["max_prime"] == 11
    assert data["config"]["xi_max"] == 7
    assert "seed" not in data["config"]
    ps = [r["p"] for r in data["rows"]]
    assert max(ps) == 11


@pytest.mark.parametrize("subcommand", ["que", "rank-density"])
def test_explicit_flags_win_over_the_config_file(tmp_path, subcommand):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primes": {"max": 13}, "xi_window": {"max_coeff": 3}}))
    argv = [subcommand, "--A", "cat2", "--config", str(cfg), "--max-prime", "11",
            "--out", str(tmp_path)]
    if subcommand == "que":
        argv += ["--xi-max", "5", "--jobs", "1"]
    assert main(argv) == 0
    name = "que_summary.json" if subcommand == "que" else "rank_density.json"
    data = json.loads((tmp_path / name).read_text())
    assert data["config"]["max_prime"] == 11
    if subcommand == "que":
        assert data["config"]["xi_max"] == 5
        assert max(r["p"] for r in data["rows"]) == 11
    else:
        assert "xi_max" not in data["config"]
        assert data["sweep"]["max_prime"] == 11


@pytest.mark.parametrize("subcommand", ["que", "statistical"])
@pytest.mark.parametrize("xi_max", [1, 0])
@pytest.mark.parametrize("from_config", [False, True])
def test_an_exponent_window_without_a_nonzero_exponent_is_refused(
    tmp_path, capsys, subcommand, xi_max, from_config
):
    """[0, xi_max)^2N with xi_max < 2 holds only v = 0: the sweep exits 2,
    naming --xi-max, before any prime runs, whether the flag or the config
    file's xi_window.max_coeff sets it."""
    argv = [subcommand, "--A", "cat2", "--max-prime", "11", "--out", str(tmp_path)]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi_window": {"max_coeff": xi_max}}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--xi-max", str(xi_max)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration: --xi-max")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["que", "--A", "cat2", "--max-prime", "3"],
        ["statistical", "--A", "cat2", "--min-prime", "24", "--max-prime", "28"],
        ["rank-density", "--A", "cat4", "--max-prime", "2"],
    ],
    ids=["que", "statistical", "rank-density"],
)
def test_an_empty_prime_range_is_refused_by_name(tmp_path, capsys, argv):
    """A prime sweep whose range holds no prime (no odd prime for the rank
    sweep) exits 2, naming the bounds, before any work and any file."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    first, want = ("--max-prime", "no odd prime") if argv[0] == "rank-density" else ("--min-prime", "no prime")
    assert err.startswith(f"invalid configuration: {first}") and "--max-prime" in err
    assert err.rstrip().endswith(f"holds {want}")
    assert not list(tmp_path.iterdir())


def test_missing_A_and_config_is_error(tmp_path):
    assert main(["que", "--out", str(tmp_path)]) == 2


#: the Sp(6, Z) seed [[0, I], [-I, S]], S = [[0, 3, -1], [3, 0, 0], [-1, 0, 3]]
SP6_SEED = [
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [-1, 0, 0, 0, 3, -1],
    [0, -1, 0, 3, 0, 0],
    [0, 0, -1, -1, 0, 3],
]


def test_rank_density_sp6_reports_rank_and_factor_degrees(tmp_path, capsys):
    """A 6 x 6 matrix runs end to end; the JSON also counts the factor
    degrees of the trace polynomial mod p, whose lengths are the ranks."""
    mat_file = tmp_path / "sp6.json"
    mat_file.write_text(json.dumps({"A": SP6_SEED}))
    rc = main(["rank-density", "--A", str(mat_file), "--max-prime", "2000",
               "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("rank frequencies over ")
    sweep = json.loads((tmp_path / "rank_density.json").read_text())["sweep"]
    assert set(sweep["freqs"]) == {"1", "2", "3"}
    patterns = sweep["degree_patterns"]
    assert set(patterns) == {"3", "1,2", "1,1,1"}
    for r in ("1", "2", "3"):
        assert sweep["counts"][r] == sum(
            c for key, c in patterns.items() if len(key.split(",")) == int(r)
        )


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 0, 0], [0, 1, 0]], []])
def test_ragged_matrix_file_is_config_error(tmp_path, capsys, matrix):
    mat_file = tmp_path / "A.json"
    mat_file.write_text(json.dumps({"A": matrix}))
    rc = main(["rank-density", "--A", str(mat_file), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("invalid configuration: ")
