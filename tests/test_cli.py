import contextlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasistat
from quasistat import analysis, pointproc
from quasistat.cli import main


def run(args, monkeypatch=None, env_seed=None):
    if env_seed is not None:
        os.environ["QUASISTAT_SEED"] = str(env_seed)
    else:
        os.environ.pop("QUASISTAT_SEED", None)
    return main(args)


def test_seed_is_mandatory(capsys):
    assert run(["sample", "--kind", "pd", "--replicas", "2", "--trunc-n", "10"]) == 2
    assert "seed" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, capsys):
    code = run(
        ["sample", "--kind", "pd", "--replicas", "3", "--trunc-n", "20",
         "--topk", "2", "--out", str(tmp_path)],
        env_seed=42,
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["seed"] == 42


def test_show_config(capsys):
    code = run(["sample", "--seed", "7", "--alpha", "0.3", "--show-config"])
    assert code == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["seed"] == 7 and cfg["alpha"] == 0.3


def test_sample_pp_column_count(tmp_path, capsys):
    code = run(["sample", "--kind", "pp", "--rho", "1", "--replicas", "4",
                "--trunc-n", "30", "--topk", "6", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    header = (tmp_path / "sample.csv").read_text().splitlines()[0]
    assert header.split(",") == [f"x_{j}" for j in range(1, 7)]
    data = np.loadtxt(tmp_path / "sample.csv", delimiter=",", skiprows=1)
    assert data.shape == (4, 6)


def test_sample_pd_mean_matches_stickbreaking_oracle(tmp_path, capsys):
    from quasistat.pointproc import sample_pd_stickbreaking

    code = run(["sample", "--kind", "pd", "--alpha", "0.5", "--replicas", "400",
                "--trunc-n", "300", "--topk", "1", "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    rng = np.random.default_rng(1)
    oracle = np.array([sample_pd_stickbreaking(0.5, 1, rng).masses[0] for _ in range(400)])
    se = oracle.std(ddof=1) * np.sqrt(2.0 / 400)
    assert abs(record["column_means"][0] - oracle.mean()) < 3 * se


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha = 0.3  # component\nreplicas = 5\ntrunc_n = 30\n")
    code = run(["sample", "--config", str(cfg_file), "--seed", "2",
                "--alpha", "0.7", "--topk", "2", "--out", str(tmp_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["alpha"] == 0.7  # flag wins
    assert record["config"]["replicas"] == 5  # file beats default


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("wibble = 3\n")
    assert run(["sample", "--config", str(cfg_file), "--seed", "1"]) == 2


def test_invalid_kind_exits_2(tmp_path, capsys):
    assert run(["sample", "--kind", "weird", "--seed", "1", "--out", str(tmp_path)]) == 2


def test_invariance_pd_consistent(tmp_path, capsys):
    code = run(["test-invariance", "--kind", "pd", "--alpha", "0.5", "--replicas", "400",
                "--trunc-n", "150", "--topk", "3", "--seed", "5", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0
    assert (tmp_path / "pvalues.csv").exists()


def test_invariance_geometric_rejected(tmp_path, capsys):
    code = run(["test-invariance", "--kind", "geometric", "--replicas", "500",
                "--trunc-n", "60", "--topk", "3", "--seed", "5", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "rejected"
    assert code == 1


def test_invariance_mixture_consistent(tmp_path, capsys):
    code = run(["test-invariance", "--kind", "mixture-of-pd", "--alphas", "0.3,0.7",
                "--replicas", "400", "--trunc-n", "150", "--topk", "3",
                "--seed", "9", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0


def _pd_rows_file(tmp_path, edit=lambda rows: rows):
    """600 rows of the top 40 PD(1/2, 0) masses, passed through ``edit``, as CSV."""
    from quasistat import experiments
    from quasistat.cli import write_csv

    rngs = itertools.repeat(np.random.default_rng(3), 600)
    rows = experiments.top_masses(rngs, experiments.PoissonKingman((0.5,), 100), 40)
    path = tmp_path / "masses.csv"
    write_csv(path, [f"xi_{j}" for j in range(1, 41)], edit(rows))
    return ["test-invariance", "--kind", "custom-from-file", "--input", str(path),
            "--topk", "3", "--seed", "4", "--out", str(tmp_path)]


def test_invariance_custom_from_file(tmp_path, capsys):
    code = run(_pd_rows_file(tmp_path))
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0


def test_invariance_custom_rows_in_any_order(tmp_path, capsys):
    # both halves are ranked before they are compared
    code = run(_pd_rows_file(tmp_path, lambda rows: np.random.default_rng(5).permuted(rows, axis=1)))
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0


def test_invariance_custom_first_half_checked(tmp_path, capsys):
    def triple_first_half(rows):
        rows[:300] *= 3.0
        return rows

    assert run(_pd_rows_file(tmp_path, triple_first_half)) == 2
    assert "--input row 1: masses must be nonnegative and sum to at most 1" in capsys.readouterr().err


def test_verify_lemma(tmp_path, capsys):
    code = run(["verify-lemma", "--rho", "0.5", "--replicas", "200", "--trunc-n", "100",
                "--tau", "3", "--ck", "1.5", "--seed", "6", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["markov_violations"] == 0
    assert record["z_violations"] == 0
    assert record["jump"]["passed"]
    assert sorted(record["jump"]) == ["bound", "events", "frequency", "passed", "three_se"]
    assert code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_lemma_infinite_markov_bound(tmp_path, capsys):
    # e^{v tau - beta y} overflows at the low end of the grid, where the bound holds trivially
    code = run(["verify-lemma", "--rho", "0.5", "--sigma", "30", "--tau", "10", "--ck", "1000",
                "--replicas", "5", "--trunc-n", "50", "--seed", "1", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["markov_violations"] == 0 and record["z_violations"] == 0
    assert np.isfinite(record["max_bound_ratio"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, positive", [("1", False), ("0.1", True)])
def test_verify_lemma_underflowed_markov_bound(tmp_path, capsys, sigma, positive):
    # at beta = 150, e^{v tau - beta y} underflows to 0 at the top of the grid, where F is 0
    # too; at sigma = 1, F underflows wherever the bound is finite, so every ratio is 0 in floats
    code = run(["verify-lemma", "--rho", "0.5", "--beta", "150", "--sigma", sigma,
                "--replicas", "20", "--trunc-n", "50", "--tau", "1", "--ck", "1e6",
                "--seed", "1", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["markov_violations"] == 0 and record["z_violations"] == 0
    assert np.isfinite(record["max_bound_ratio"])
    assert (record["max_bound_ratio"] > 0) == positive


def test_front_checks_call_public_names_on_the_main_thread_only(tmp_path, capsys, monkeypatch):
    # perfbench's span tracer patches these names and keeps one span stack for the process
    def main_thread_only(original):
        def guarded(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"{original.__qualname__} called off the main thread")
            return original(*args, **kwargs)
        return guarded

    for owner, name in [(analysis, "front_position"), (pointproc, "pp_exponential_rows"),
                        (pointproc, "check_point_rows"), (pointproc, "shift_tail_rows")]:
        monkeypatch.setattr(owner, name, main_thread_only(getattr(owner, name)))
    code = run(["verify-lemma", "--rho", "0.5", "--replicas", "40", "--trunc-n", "60",
                "--tau", "3", "--ck", "1.5", "--seed", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0


def test_gen_functional(tmp_path, capsys):
    code = run(["gen-functional", "--rho", "1", "--f-a", "0.6931471805599453",
                "--f-d", "0.6931471805599453", "--replicas", "3000", "--trunc-n", "80",
                "--seed", "8", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["closed_form_no_leader"] == pytest.approx(2.0 / 3.0)
    assert abs(record["mc_estimate"] - record["closed_form"]) <= 3 * record["mc_se"]
    assert code == 0


@pytest.mark.parametrize("command,flags", [
    ("gen-functional", ["--trunc-n", "20"]),
    ("compare-oracles", ["--trunc-n", "60", "--topk", "3"]),
])
def test_two_replicas_write_standard_json(tmp_path, capsys, command, flags):
    def no_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code = run([command, "--replicas", "2", *flags, "--seed", "4", "--out", str(tmp_path)])
    assert code in (0, 1)
    json.loads(capsys.readouterr().out, parse_constant=no_constant)
    report = tmp_path / f"{command.replace('-', '_')}_report.json"
    json.loads(report.read_text(), parse_constant=no_constant)


def test_compare_oracles(tmp_path, capsys):
    code = run(["compare-oracles", "--alpha", "0.5", "--replicas", "300",
                "--trunc-n", "200", "--topk", "3", "--seed", "10", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert all(p >= 0.01 for p in record["pairwise_energy_p"].values())
    assert code == 0


def test_report_embeds_full_config(tmp_path, capsys):
    code = run(["sample", "--kind", "pd", "--replicas", "2", "--trunc-n", "10",
                "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "sample_report.json").read_text())
    for key in ("alpha", "rho", "beta", "replicas", "trunc_n", "tau", "topk",
                "level", "seed", "out"):
        assert key in record["config"]


# Golden streams: CSV digests and the report numbers that do not pass through
# stattest, pinned at tiny sizes so any change to a replica's random stream shows.
_GOLDEN_FLAGS = ["--alpha", "0.5", "--alphas", "0.3,0.7", "--rho", "1", "--replicas", "6",
                 "--trunc-n", "40", "--topk", "3", "--tau", "2", "--seed", "123"]
_GOLDEN_CSV = {
    ("sample", "pd"): "7475b13aea49ba59181289fbdbb5fe39a72ef0977635e072910507bd7ce76514",
    ("sample", "pp"): "44643849ac2bc3fc914c26b5e244d806f71df0373f70bf6e3855da690c45f4ed",
    ("sample", "geometric"): "8d9f0364e59e7f9c870af56365c71bdb9141827a7294c745ad92c395d92b5891",
    ("sample", "mixture-of-pd"): "a4a20a4669214598fe38db357bf0b85de7dff3deb4afb59138fbfa8d95f93754",
    ("evolve", "pd"): "3dfb2cca0ba5c248658581cfd30563b3a0921fb20b60367c6767c55ef856fbd8",
    ("evolve", "pp"): "55194df4b59054fce2dfa39ad9e43ea49ded4fd44c2e3cce80c93695039d2a1b",
    ("evolve", "geometric"): "38b4a64f60b2672fa9cd299b8bd2c7d627899ce4fae98fb2aba526f7c5deced0",
    ("evolve", "mixture-of-pd"): "0265a2a15f25e5a6bcc1ec87f706f78c3093084672cb6a7ef3a35abb7828faa2",
}


@pytest.mark.parametrize("command,kind", sorted(_GOLDEN_CSV))
def test_golden_csv_stream(tmp_path, capsys, command, kind):
    import hashlib

    assert run([command, "--kind", kind, *_GOLDEN_FLAGS, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = tmp_path / ("sample.csv" if command == "sample" else "evolved.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == _GOLDEN_CSV[(command, kind)]


_SEED_CASES = [(seed, stream) for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7)
               for stream in (0, 1, 2, 10)]
# across the first block edge of _SEED_BLOCK = 4096 replicas
_SEED_REPLICAS = [*range(300), 4095, 4096, 4097]


def _numpy_seed_sequence(seed, stream, replica):
    return np.random.SeedSequence(seed, spawn_key=(stream, replica))


@pytest.mark.parametrize("seed,stream", _SEED_CASES)
def test_seed_states_are_numpys(seed, stream):
    from quasistat.cli import _seed_states

    # a numpy whose SeedSequence hashes otherwise must fail here, not move the streams
    states = np.concatenate([_seed_states(seed, stream, range(300)),
                             _seed_states(seed, stream, range(4095, 4098))])
    expected = np.array([_numpy_seed_sequence(seed, stream, r).generate_state(4, np.uint64)
                         for r in _SEED_REPLICAS])
    assert states.dtype == expected.dtype == np.uint64
    assert states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed,stream", _SEED_CASES)
def test_replica_generators_are_numpys(seed, stream):
    from quasistat.cli import _rngs, replica_rng

    def first_draws(rng):
        return rng.random(4).tolist()

    def expected(r):
        return first_draws(np.random.default_rng(_numpy_seed_sequence(seed, stream, r)))

    rngs = list(_rngs({"seed": seed, "replicas": 4098}, stream))
    assert len(set(map(id, rngs))) == len(rngs)
    for r in _SEED_REPLICAS:
        assert first_draws(rngs[r]) == expected(r), r
    for r in (0, 4096):
        assert first_draws(replica_rng(seed, stream, r)) == expected(r), r


@pytest.mark.parametrize("command", ["sample", "evolve"])
def test_single_component_mixture_is_pd(tmp_path, capsys, command):
    # one alpha takes no draw, so the replica streams are those of kind=pd
    flags = [command, "--alpha", "0.5", "--alphas", "0.5", "--replicas", "6", "--trunc-n", "40",
             "--topk", "3", "--tau", "2", "--seed", "123"]
    csv = "sample.csv" if command == "sample" else "evolved.csv"
    written = []
    for kind in ("pd", "mixture-of-pd"):
        assert run([*flags, "--kind", kind, "--out", str(tmp_path / kind)]) == 0
        written.append((tmp_path / kind / csv).read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]


def test_golden_report_numbers(tmp_path, capsys):
    def report(args):
        run(args + ["--seed", "123", "--out", str(tmp_path)])
        return json.loads(capsys.readouterr().out)

    gen = report(["gen-functional", "--rho", "1", "--f-a", "0.5", "--f-d", "0.5",
                  "--replicas", "200", "--trunc-n", "40"])
    assert [gen["mc_estimate"], gen["mc_se"]] == [0.48512874455307037, 0.011172565351262032]
    oracles = report(["compare-oracles", "--alpha", "0.5", "--replicas", "40",
                      "--trunc-n", "60", "--topk", "3"])
    assert oracles["sum_squares"] == {
        "exp_of_pp": {"mean": 0.5341373640603889, "se": 0.04994714464121164},
        "poisson_kingman": {"mean": 0.48059675650258693, "se": 0.04519119442991835},
        "stick_breaking": {"mean": 0.49181454241941525, "se": 0.045185526306271456},
    }
    lemma = report(["verify-lemma", "--alpha", "0.5", "--rho", "0.5", "--tau", "3",
                    "--replicas", "30", "--trunc-n", "60", "--grid-points", "20", "--ck", "0.8"])
    assert lemma["max_bound_ratio"] == 0.20509071542131313
    assert (lemma["markov_violations"], lemma["z_violations"], lemma["jump"]["events"]) == (0, 0, 2)


def test_verify_lemma_reads_rho_not_alpha(tmp_path, capsys):
    def max_ratio(alpha, rho):
        run(["verify-lemma", "--alpha", alpha, "--rho", rho, "--replicas", "20",
             "--trunc-n", "50", "--tau", "2", "--seed", "6", "--out", str(tmp_path)])
        return json.loads(capsys.readouterr().out)["max_bound_ratio"]

    assert max_ratio("0.3", "0.5") == max_ratio("0.7", "0.5")
    assert max_ratio("0.5", "0.5") != max_ratio("0.5", "0.7")


def test_geometric_trunc_n_limit(tmp_path, capsys):
    args = ["sample", "--kind", "geometric", "--replicas", "2", "--seed", "1", "--out", str(tmp_path)]
    assert run(args + ["--trunc-n", "1074"]) == 0
    capsys.readouterr()
    assert run(args + ["--trunc-n", "1075"]) == 2
    assert "--trunc-n must be <= 1074" in capsys.readouterr().err


def test_benchmark_smoke():
    # the benchmark patches cli._emit; this catches a rename of what it relies on
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: ok" in done.stdout


def test_option_bounds_name_the_flag(capsys):
    assert run(["sample", "--seed", "1", "--trunc-n", "0"]) == 2
    assert "--trunc-n must be >= 1" in capsys.readouterr().err
    assert run(["sample", "--seed", "1", "--n-perm", "99"]) == 2
    assert "--n-perm must be >= 199" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["1", "0.5"])
def test_verify_lemma_refuses_beta_not_above_rho(tmp_path, capsys, beta):
    # sum_i e^{beta X_i} diverges there, so the starts cannot be tail-normalized
    assert run(["verify-lemma", "--rho", "1", "--beta", beta, "--replicas", "5",
                "--trunc-n", "30", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "verify-lemma needs --beta > --rho" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "nan"),
    ("--level", "0"), ("--level", "1"), ("--level", "nan"),
    ("--rho", "0"), ("--rho", "nan"),
    ("--beta", "-1"), ("--beta", "nan"),
    ("--sigma", "0"), ("--sigma", "nan"),
    ("--f-a", "-0.5"), ("--f-a", "nan"),
    ("--f-d", "0"), ("--f-d", "nan"),
    ("--mu", "nan"), ("--mu", "inf"),
])
def test_option_ranges_name_the_flag(tmp_path, capsys, flag, value):
    assert run(["sample", "--seed", "1", "--replicas", "2", "--trunc-n", "10",
                flag, value, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")


def test_unevolved_pp_draws_only_the_points_read(tmp_path, capsys, monkeypatch):
    from quasistat import pointproc

    drawn = []
    original = pointproc.sample_gamma_arrivals

    def recording(n, rng):
        drawn.append(n)
        return original(n, rng)

    monkeypatch.setattr(pointproc, "sample_gamma_arrivals", recording)
    flags = ["--kind", "pp", "--replicas", "3", "--trunc-n", "40", "--topk", "4",
             "--seed", "2", "--out", str(tmp_path)]
    assert run(["sample", *flags]) == 0
    assert drawn == [4] * 3
    drawn.clear()
    assert run(["test-invariance", *flags]) in (0, 1)
    capsys.readouterr()
    # the unevolved half reads the top k + 1 points; the evolved half needs all of them
    assert drawn == [5] * 3 + [40] * 3


def test_invariance_pp_needs_trunc_n_above_topk(tmp_path, capsys):
    assert run(["test-invariance", "--kind", "pp", "--trunc-n", "5", "--topk", "5",
                "--replicas", "3", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "a replica tracks 5 values; 6 are needed" in capsys.readouterr().err


_LEMMA_FLAGS = ["--ck", "--beta", "--mu", "--sigma"]
_DEPTH_FLAGS = ["--trunc-n", "--rho", "--f-d"]


# each case: the flag the message starts with, then what else it must name
@pytest.mark.parametrize("args,names", [
    (["verify-lemma", "--rho", "0.5", "--ck", "-3"], _LEMMA_FLAGS),
    (["verify-lemma", "--rho", "0.5", "--mu", "3"], _LEMMA_FLAGS),
    (["gen-functional", "--trunc-n", "1"], _DEPTH_FLAGS),
    (["gen-functional", "--rho", "50", "--f-d", "50", "--trunc-n", "50"], _DEPTH_FLAGS),
    (["gen-functional", "--replicas", "1", "--trunc-n", "20"], ["--replicas", "two replicas"]),
    (["compare-oracles", "--alpha", "0.002", "--topk", "3"], ["--alpha", "--topk"]),
    (["compare-oracles", "--replicas", "1", "--trunc-n", "60", "--topk", "3"],
     ["--replicas", "two replicas"]),
    (["sample", "--kind", "weird"], ["--kind"]),
    (["evolve", "--kind", "custom-from-file"], ["--kind", "test-invariance"]),
    (["sample", "--seed", "-1"], ["--seed", ">= 0"]),
    (["QUASISTAT_SEED=-4", "sample"], ["--seed", ">= 0"]),
])
def test_bad_input_names_the_flag(tmp_path, capsys, args, names):
    env_seed = None
    if args[0].startswith("QUASISTAT_SEED="):  # as a shell would set it before the command
        env_seed, args = args[0].split("=", 1)[1], args[1:]
    replicas = [] if "--replicas" in args else ["--replicas", "5"]
    seed = [] if "--seed" in args or env_seed else ["--seed", "1"]
    assert run([*args, *replicas, *seed, "--out", str(tmp_path)], env_seed=env_seed) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {names[0]} "), err
    assert all(name in err for name in names[1:]), err


@pytest.mark.parametrize("kind,trunc_n", [("pd", "500"), ("geometric", "50")])
def test_reshuffle_overflow_names_the_flags(tmp_path, capsys, kind, trunc_n):
    # E[e^{beta h}] = e^{80000} overflows the tail mass; exit 1 would read as a rejection
    assert run(["evolve", "--kind", kind, "--sigma", "400", "--tau", "1", "--trunc-n", trunc_n,
                "--topk", "1", "--replicas", "20", "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma 400.0 and --beta 1.0 ")
    assert "E[e^{beta h}] = e^{80000} overflows" in err


@pytest.mark.parametrize("command,kind,need", [
    ("sample", "pd", 5), ("evolve", "geometric", 5), ("sample", "pp", 5), ("evolve", "pp", 6),
    ("compare-oracles", "pd", 5),
])
def test_trunc_n_below_topk_names_the_flags(tmp_path, capsys, command, kind, need):
    assert run([command, "--kind", kind, "--trunc-n", "3", "--topk", "5", "--replicas", "3",
                "--seed", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: --trunc-n must be >= {need} for --topk 5: "
                                       f"a replica tracks 3 values; {need} are needed\n")


@pytest.mark.parametrize("args", [
    ["test-invariance", "--rho", "0.01", "--beta", "5", "--topk", "1", "--replicas", "50"],
    ["sample", "--rho", "0.01", "--beta", "5", "--topk", "1", "--replicas", "50"],
    ["evolve", "--sigma", "40", "--replicas", "3", "--trunc-n", "20"],
])
def test_pp_positions_ignore_the_tail(tmp_path, capsys, args):
    # the tail Gamma_n^{1 - beta/rho} overflows here, and E[e^{beta h}] in the
    # evolve case; the pp ensembles read positions only and must not need it
    assert run([*args, "--kind", "pp", "--seed", "3", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("args,cause", [
    (["--rho", "0.1", "--beta", "30", "--trunc-n", "1", "--replicas", "20"],
     "Gamma_n^(1 - beta/rho)"),
    (["--rho", "0.01", "--beta", "5", "--replicas", "50"], "times e^{-beta X_1}"),
])
def test_verify_lemma_tail_range_names_the_flags(tmp_path, capsys, args, cause):
    # the tail overflows in the first case; in the second it underflows to 0
    # where e^{-beta X_1} overflows, and 0 * inf is NaN
    assert run(["verify-lemma", *args, "--seed", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rho ") and "--beta" in err and "--trunc-n" in err
    assert "beyond float64" in err and cause in err


def test_pd_small_alpha_drops_underflowed_masses(tmp_path, capsys):
    # one of these 2000 replicas has masses that underflow to 0
    assert run(["sample", "--kind", "pd", "--alpha", "0.02", "--replicas", "2000", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "sample.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2000, 5) and np.all(np.isfinite(rows))
    assert np.all((rows > 0) & (rows <= 1)) and np.all(np.diff(rows, axis=1) <= 0)


@pytest.mark.parametrize("kind,flag", [("pd", "--alpha 0.001 "),
                                       ("mixture-of-pd", "--alphas 0.001,0.5 ")])
def test_pd_atom_overflow_names_alpha(tmp_path, capsys, kind, flag):
    # Gamma_1^{-1000} overflows for Gamma_1 < 0.49
    assert run(["evolve", "--kind", kind, "--alpha", "0.001", "--alphas", "0.001,0.5",
                "--replicas", "20", "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "leaves float64 range" in err


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["sample", "evolve"]),
       rho=st.floats(1e-3, 10), beta=st.floats(1e-3, 10), sigma=st.floats(0.05, 50),
       topk=st.integers(1, 5), extra=st.integers(1, 50), tau=st.integers(0, 2))
def test_pp_rows_finite_and_ranked(command, rho, beta, sigma, topk, extra, tau):
    trunc_n = min(topk + extra, 50)
    with tempfile.TemporaryDirectory() as out:
        assert run([command, "--kind", "pp", "--rho", repr(rho), "--beta", repr(beta),
                    "--sigma", repr(sigma), "--topk", str(topk), "--trunc-n", str(trunc_n),
                    "--tau", str(tau), "--replicas", "4", "--seed", "1", "--out", out]) == 0
        name = "sample.csv" if command == "sample" else "evolved.csv"
        rows = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (4, topk) and np.all(np.isfinite(rows))
    if command == "sample":
        assert np.all(np.diff(rows, axis=1) <= 0)  # points, largest first
    else:
        assert np.all(rows >= 0)  # gaps of points ranked largest first


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["sample", "evolve"]),
       kind=st.sampled_from(["pd", "mixture-of-pd", "geometric"]),
       alphas=st.lists(st.floats(0.02, 0.98), min_size=2, max_size=2),
       sigma=st.floats(0.05, 400), beta=st.floats(0.05, 5), tau=st.integers(0, 3),
       topk=st.integers(1, 5), extra=st.integers(0, 200))
def test_partition_rows_valid_or_flag_error(command, kind, alphas, sigma, beta, tau, topk, extra):
    # either valid ranked masses, or exit 2 with a message that starts with a flag
    trunc_n = min(topk + extra, 200)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run([command, "--kind", kind, "--alpha", repr(alphas[0]),
                    "--alphas", ",".join(map(repr, alphas)), "--sigma", repr(sigma),
                    "--beta", repr(beta), "--tau", str(tau), "--topk", str(topk),
                    "--trunc-n", str(trunc_n), "--replicas", "4", "--seed", "1", "--out", out])
        if code == 0:
            name = "sample.csv" if command == "sample" else "evolved.csv"
            rows = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)
    if code == 2:
        assert err.getvalue().startswith("error: --"), err.getvalue()
        return
    assert code == 0
    assert rows.shape == (4, topk) and np.all(np.isfinite(rows))
    assert np.all((rows >= 0) & (rows <= 1))
    assert np.all(np.diff(rows, axis=1) <= 0)
    assert np.all(rows.sum(axis=1) <= 1 + 1e-12)


def test_every_name_in_all_resolves():
    modules = [importlib.import_module(f"quasistat.{info.name}")
               for info in pkgutil.iter_modules(quasistat.__path__)]
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert {module.__name__ for module in listed} >= {
        "quasistat.pointproc", "quasistat.dynamics", "quasistat.analysis", "quasistat.stattest"}
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_cli_import_leaves_out_scipy_optimize():
    # only analysis.front_position needs scipy.optimize, and the CLI never calls it
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", "import quasistat.cli, sys; "
                           "assert 'scipy.optimize' not in sys.modules"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
