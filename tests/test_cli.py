import ast
import contextlib
import importlib.util
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
    oracle = np.array([sample_pd_stickbreaking(0.5, 1, rng)[0][0] for _ in range(400)])
    se = oracle.std(ddof=1) * np.sqrt(2.0 / 400)
    assert abs(record["column_means"][0] - oracle.mean()) < 3 * se


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# a comment line\nalpha = 0.3  # component\n\n  \nreplicas = 5\n"
                        "trunc_n = 30\n")
    code = run(["sample", "--config", str(cfg_file), "--seed", "2",
                "--alpha", "0.7", "--topk", "2", "--out", str(tmp_path)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["alpha"] == 0.7  # flag wins
    assert record["config"]["replicas"] == 5  # file beats default


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    # each bad file, and what its message says
    for text, message in [("wibble = 3\n", "bad.cfg:1: unknown key 'wibble'"),
                          ("alpha 0.3\n", "bad.cfg:1: expected key=value, got 'alpha 0.3'"),
                          ("seed = abc\n", "--seed expects int, got 'abc'"),
                          (None, "cannot read config file: ")]:
        if text is None:
            cfg_file.unlink()
        else:
            cfg_file.write_text(text)
        assert run(["sample", "--config", str(cfg_file), "--seed", "1"]) == 2
        assert message in capsys.readouterr().err


def test_invalid_kind_exits_2(tmp_path, capsys):
    assert run(["sample", "--kind", "weird", "--seed", "1", "--out", str(tmp_path)]) == 2


def test_invariance_pd_consistent(tmp_path, capsys):
    code = run(["test-invariance", "--kind", "pd", "--alpha", "0.5", "--replicas", "400",
                "--trunc-n", "150", "--topk", "3", "--seed", "5", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0
    assert (tmp_path / "pvalues.csv").exists()
    assert 0 <= record["energy_perms"] <= 199


@pytest.mark.parametrize("seed", ["1", "2"])
def test_invariance_pp_tau_10_consistent(tmp_path, capsys, seed):
    # PP(1) is invariant at every tau: the evolved half once left out the points below
    # --trunc-n that ten steps lift into the top k, and read "rejected" at these seeds
    code = run(["test-invariance", "--kind", "pp", "--tau", "10", "--seed", seed,
                "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert (code, record["verdict"]) == (0, "consistent")


def test_invariance_geometric_rejected(tmp_path, capsys):
    code = run(["test-invariance", "--kind", "geometric", "--replicas", "500",
                "--trunc-n", "60", "--topk", "3", "--seed", "5", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "rejected"
    assert code == 1


def test_energy_test_that_cannot_reject_is_named(tmp_path, capsys):
    args = ["test-invariance", "--kind", "geometric", "--replicas", "200", "--trunc-n", "60",
            "--topk", "3", "--seed", "5", "--out", str(tmp_path)]
    assert run(args) == 1
    assert capsys.readouterr().err == ""
    # 0.001 * (199 + 1) <= 1: the energy p is at least 1/200, so only KS can reject
    assert run(args + ["--level", "0.001"]) == 1
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert (record["energy_perms"], record["energy_p"]) == (0, 1.0)
    assert err.count("\n") == 1 and err.startswith("warning: --level 0.001 with --n-perm 199")


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


# each case: the --input rows (None for a file that is not there), then what the message holds
@pytest.mark.parametrize("rows,pieces", [
    ([[0.5, 0.3, 0.2]], ["error: --input needs at least 2 rows"]),
    ([[0.5, 0.3, 0.2], [0.5, 0.5, 0.0]], ["error: --input row 2: 2 positive masses, --topk is 3"]),
    ([[0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.5, 0.3, 0.2 + 5e-10]],
     ["error: --input row 3: ", "must equal 1"]),
    (None, ["error: cannot read --input file"]),
], ids=["one-row", "short-row", "sum-above-1", "missing-file"])
def test_bad_input_rows_exit_2(tmp_path, capsys, rows, pieces):
    path = tmp_path / "masses.csv"
    if rows is not None:
        path.write_text("xi_1,xi_2,xi_3\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    assert run(["test-invariance", "--kind", "custom-from-file", "--input", str(path),
                "--topk", "3", "--seed", "4", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(piece in err for piece in pieces), err
    assert "np.float64" not in err, err


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


def test_verify_lemma_tiny_sigma(tmp_path, capsys):
    # at sigma = 1e-300, (mu - c) / sigma overflows to +-inf in the front checks' survival
    # terms, where ndtr is exact: the run passes without a RuntimeWarning
    code = run(["verify-lemma", "--rho", "1e-300", "--beta", "0.5", "--mu=1e-300",
                "--sigma", "1e-300", "--ck", "1e10", "--tau", "10", "--trunc-n", "2",
                "--replicas", "5", "--seed", "1", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["markov_violations"] == 0 and record["z_violations"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_lemma_huge_beta_tiny_sigma(tmp_path, capsys):
    # v_beta = beta^2 sigma^2 / 2 = 1/2, where beta^2 alone overflows: it read inf, and the
    # run exited 2 naming --ck
    code = run(["verify-lemma", "--rho", "1", "--beta", "1e200", "--sigma", "1e-200",
                "--ck", "1.5", "--tau", "1", "--trunc-n", "5", "--replicas", "5", "--seed", "1",
                "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["v_beta"] == pytest.approx(0.5, rel=1e-15)


def test_evolve_pp_walk_tiny_sigma(tmp_path, capsys):
    # below its first 512 points each replica walks the points that may enter its top
    # k, where at sigma = 1e-300 the survival terms overflow to ndtr(+-inf): no RuntimeWarning
    code = run(["evolve", "--kind", "pp", "--rho", "1e-300", "--sigma", "1e-300", "--mu=1e-300",
                "--tau", "10", "--trunc-n", "3000", "--topk", "5", "--replicas", "3",
                "--seed", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = np.loadtxt(tmp_path / "evolved.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 5) and np.all(np.isfinite(rows))


def test_front_checks_call_public_names_on_the_main_thread_only(tmp_path, capsys, monkeypatch):
    # perfbench's span tracer patches the targets of its SPANS and keeps one span stack
    # for the process, so the front checks, which run on the calling thread, must call
    # them on the main thread only
    def main_thread_only(original):
        def guarded(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"{original.__qualname__} called off the main thread")
            return original(*args, **kwargs)
        return guarded

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    found = [spans._resolve(target) for targets in spans.SPANS.values() for target in targets]
    found = [target for target in found if target is not None]
    assert found
    for owner, name, original in found:
        monkeypatch.setattr(owner, name, main_thread_only(original))
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
    ("sample", "pd"): "fae88df577c171a6e0c25ede1ff526d5b24375a6e51472993b62007f5889b82f",
    ("sample", "pp"): "44643849ac2bc3fc914c26b5e244d806f71df0373f70bf6e3855da690c45f4ed",
    ("sample", "geometric"): "790a644b97d7b467d324aeeba9b80b092058828b705f713762186feaffb04d91",
    ("sample", "mixture-of-pd"): "8516dc0b3e7b36a2ff71250bbe30e538931e0f4c1ffc7dd895fdcb65aecb8b2c",
    ("evolve", "pd"): "8582731e1863bb9915266f13bcbf0e3624e58da1b7460f99d98190c82f5efacc",
    ("evolve", "pp"): "6c54b1bbb362db9eec9d7b0cf7fb740d41511ee216ec911f3bdc9750dbccfc89",
    ("evolve", "geometric"): "a7e14830aaed91f5afc3e1e25b44f7b1373015ce83c3e864816333835ed562bf",
    ("evolve", "mixture-of-pd"): "bc4dd591d68048a6b23d4ac81cd054836a8df55bee57e24e01db0a0c0221051f",
}


@pytest.mark.parametrize("command,kind", sorted(_GOLDEN_CSV))
def test_golden_csv_stream(tmp_path, capsys, command, kind):
    import hashlib

    assert run([command, "--kind", kind, *_GOLDEN_FLAGS, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = tmp_path / ("sample.csv" if command == "sample" else "evolved.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == _GOLDEN_CSV[(command, kind)]


# One step (--tau 1): the streams every path keeps bit for bit whatever the
# multi-step arithmetic, including the evolved half of test-invariance.
_GOLDEN_ONE_STEP_CSV = {
    ("evolve", "pd"): "8f315acdb76d175dbf6c318448b5e4fe19771117c7f81e8004d822c18a50697a",
    ("evolve", "pp"): "b3a8419b66c5bb256ea0815131c271634587d1544e549266e637ac5efb825d6f",
    ("evolve", "geometric"): "75e9c0ceeb785ce7096c10ef099ccbebc40056d50949bbb39b3e312dae9c5d2c",
    ("evolve", "mixture-of-pd"): "964d90345d4526f7ff02d632d14136fc3d2a10da253d21c41e4dc0872c4aa4be",
    ("test-invariance", "pd"): "42b91b7556be14f86547d7f9c8a807094734c8bce6c140638c10e7a70fa4730f",
    ("test-invariance", "pp"): "b9f5a7b5058f8a705e391c092fa56aa16b349960fe003c6b1d8285030fdaf6eb",
}


@pytest.mark.parametrize("command,kind", sorted(_GOLDEN_ONE_STEP_CSV))
def test_golden_one_step_stream(tmp_path, capsys, command, kind):
    import hashlib

    flags = [*_GOLDEN_FLAGS, "--tau", "1"]  # the last --tau wins
    assert run([command, "--kind", kind, *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv = tmp_path / ("evolved.csv" if command == "evolve" else "pvalues.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == _GOLDEN_ONE_STEP_CSV[(command, kind)]


# An evolved pp replica draws at most its first 512 points one by one, and the
# promotion walk of experiments.top_points the rest; --trunc-n 3000 pins that stream.
_GOLDEN_DEEP_PP_CSV = "1a0df0ae96a34fafc3b3905a179e1f43023774d133633bab2469ae8f78af701f"


def test_golden_deep_pp_stream(tmp_path, capsys):
    import hashlib

    rows = {}
    for trunc_n in ("3000", "512"):
        flags = [*_GOLDEN_FLAGS, "--trunc-n", trunc_n]  # the last --trunc-n wins
        assert run(["evolve", "--kind", "pp", *flags, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows[trunc_n] = (tmp_path / "evolved.csv").read_bytes()
    assert hashlib.sha256(rows["3000"]).hexdigest() == _GOLDEN_DEEP_PP_CSV
    assert rows["3000"] == rows["512"]  # past the head, --trunc-n moves nothing


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
        "poisson_kingman": {"mean": 0.48059675650258704, "se": 0.04519119442991835},
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
    from quasistat import experiments

    drawn = []
    original = experiments.PoissonKingman.draw

    def recording(sampler, rng, row):
        drawn.append(sampler.n)
        return original(sampler, rng, row)

    monkeypatch.setattr(experiments.PoissonKingman, "draw", recording)
    flags = ["--kind", "pp", "--replicas", "3", "--trunc-n", "40", "--topk", "4",
             "--seed", "2", "--out", str(tmp_path)]
    assert run(["sample", *flags]) == 0
    assert drawn == [4] * 3
    drawn.clear()
    assert run(["test-invariance", *flags]) in (0, 1)
    capsys.readouterr()
    # the unevolved half reads the top k + 1 points; the evolved half draws the first
    # min(n, 512) in full, and below them the walk promotes the points that reach the top
    assert drawn == [5] * 3 + [40] * 3
    drawn.clear()
    assert run(["test-invariance", *flags, "--trunc-n", "100000"]) in (0, 1)
    capsys.readouterr()
    assert drawn == [5] * 3 + [512] * 3


def test_invariance_pp_needs_trunc_n_above_topk(tmp_path, capsys):
    assert run(["test-invariance", "--kind", "pp", "--trunc-n", "5", "--topk", "5",
                "--replicas", "3", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "a replica tracks 5 values; 6 are needed" in capsys.readouterr().err


_LEMMA_FLAGS = ["--ck", "--beta", "--mu", "--sigma"]
_DEPTH_FLAGS = ["--trunc-n", "--rho", "--f-d"]


# each case: the first word of the message, as a rule its flag, then what else it must name
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
    (["test-invariance", "--tau", "0"], ["--tau", "test-invariance"]),
    (["sample", "--kind", "mixture-of-pd", "--alphas", "0.3,abc"], ["--alphas:", "bad list"]),
    (["test-invariance", "--kind", "custom-from-file"], ["--input", "kind=custom-from-file"]),
    (["sample", "--kind", "mixture-of-pd", "--alphas", ","],
     ["--alphas", "components must lie in (0, 1)"]),
    # E[e^{beta h}] is e^{inf}; every point less e^{inf} was -inf - (-inf), with a warning
    (["evolve", "--kind", "pd", "--beta", "1e160"],
     ["--sigma", "--beta 1e+160", "overflows the reshuffled tail"]),
    (["evolve", "--kind", "geometric", "--beta", "1e300", "--trunc-n", "50"],
     ["--sigma", "--beta 1e+300", "overflows the reshuffled tail"]),
    # a replica's 5th mass underflows at these seeds
    (["sample", "--kind", "pd", "--alpha", "0.01", "--replicas", "2000", "--seed", "1"],
     ["--alpha", "underflowed"]),
    (["sample", "--kind", "pd", "--alpha", "0.01", "--replicas", "2000", "--seed", "2"],
     ["--alpha", "underflowed"]),
    # beta h overflows, and with it the log-masses, before E[e^{beta h}] is formed
    (["evolve", "--kind", "pd", "--beta", "1e300", "--sigma", "1e10"],
     ["--sigma", "--beta 1e+300", "leading log-mass x + beta h beyond float64"]),
    # beta X_i overflows while the starts are normalized: their weights e^{-inf} are 0
    (["verify-lemma", "--beta", "1e308"], ["--ck", "--beta 1e+308", "v_beta"]),
    # v_beta = inf at tau = 0 too: the front checks' grid was NaN, the report "Infinity"
    (["verify-lemma", "--rho", "0.5", "--tau", "0", "--beta", "1e308"],
     ["--ck", "--beta 1e+308", "v_beta"]),
    (["verify-lemma", "--rho", "0.5", "--tau", "0", "--sigma", "1e200"],
     ["--ck", "--sigma 1e+200", "v_beta"]),
    # r = beta / rho overflows: an infinite r is a tail factor Gamma_n/(r - 1) = 0
    (["verify-lemma", "--rho", "0.5", "--beta", "1e308", "--ck", "1e300"],
     ["--ck", "--beta 1e+308", "v_beta"]),
    # a leader above ~1.8 took beta X_1 to inf before it was subtracted, at 50 replicas
    (["verify-lemma", "--rho", "0.5", "--beta", "1e308", "--replicas", "50"],
     ["--ck", "--beta 1e+308", "v_beta"]),
    # at a subnormal rate, -log(Gamma_i) / rate leaves float64
    (["sample", "--kind", "pd", "--alpha", "1e-310"], ["--alpha", "beyond float64"]),
    (["verify-lemma", "--rho", "1e-310", "--beta", "0.5"], ["--rho", "beyond float64"]),
    (["gen-functional", "--rho", "1e-310"], ["--rho", "beyond float64"]),
    # sigma sqrt(tau) overflows: it warned, and the front checks read ndtr(0) = 1/2 per term
    (["evolve", "--kind", "pp", "--sigma", "1e308", "--tau", "10"],
     ["--mu", "--sigma 1e+308", "--tau 10", "summed increments beyond float64"]),
    (["verify-lemma", "--rho", "1e-162", "--beta", "2e-162", "--mu=-1", "--sigma", "1.3e308",
      "--ck", "0", "--tau", "2", "--trunc-n", "1"],
     ["--mu", "--sigma 1.3e+308", "--tau 2", "summed increments beyond float64"]),
    # beta^2 underflowed before sigma^2 lifted it: v_beta read -2e-162, and the run passed
    (["verify-lemma", "--rho", "1e-162", "--beta", "2e-162", "--mu=-1", "--sigma", "1.3e308",
      "--ck", "0", "--tau", "1", "--trunc-n", "1"],
     ["--ck", "--beta 2e-162", "--mu -1.0", "--sigma 1.3e+308", "3.38e+292"]),
    # (v_beta / beta) tau = inf: the front checks' grid was NaN, and the run passed
    (["verify-lemma", "--rho", "0.4", "--beta", "0.5", "--sigma", "1e154", "--ck", "1e308",
      "--tau", "10", "--trunc-n", "1"],
     ["--mu", "--sigma 1e+154", "--beta 0.5", "--tau 10", "front levels beyond float64"]),
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
    # E[e^{beta h}] of the tau-step sum h overflows the tail mass; exit 1 would read as a rejection
    for sigma, tau, exponent in [("400", "1", "80000"), ("13", "10", "845")]:
        assert run(["evolve", "--kind", kind, "--sigma", sigma, "--tau", tau, "--trunc-n", trunc_n,
                    "--topk", "1", "--replicas", "20", "--seed", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --sigma {float(sigma)}, --beta 1.0 and --tau {tau} ")
        assert f"E[e^{{beta h}}] = e^{{{exponent}}} overflows" in err


def test_custom_overflow_names_its_one_step(tmp_path, capsys):
    # the --input rows take one reshuffle whatever --tau reads, so the message names no --tau
    assert run([*_pd_rows_file(tmp_path), "--sigma", "400", "--tau", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sigma 400.0, --beta 1.0 and the one step of "
                          "--kind custom-from-file take the reshuffle beyond float64")
    assert "--tau" not in err and "E[e^{beta h}] = e^{80000} overflows" in err


@pytest.mark.parametrize("args", [
    ["test-invariance", "--kind", "pp"], ["test-invariance", "--kind", "pd"],
    ["evolve", "--kind", "pp"], ["evolve", "--kind", "pd"],
])
def test_nonfinite_increments_name_the_flags(tmp_path, capsys, args):
    # --sigma 1e308 draws increments beyond float64
    assert run([*args, "--sigma", "1e308", "--replicas", "20", "--seed", "1",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mu 0.0, --sigma 1e+308 and --tau 1 take the increments "
                          "beyond float64: increment law produced non-finite draws"), err


def test_custom_nonfinite_increments_name_its_one_step(tmp_path, capsys):
    assert run([*_pd_rows_file(tmp_path), "--sigma", "1e308", "--tau", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mu 0.0, --sigma 1e+308 and the one step of "
                          "--kind custom-from-file take the increments beyond float64"), err


def test_invariance_distances_beyond_float64_name_the_flags(tmp_path, capsys):
    # at --sigma 1e160 the evolved points' shift rho sigma^2 / 2 leaves float64 before
    # the walk; the energy statistics were NaN, and the verdict a rejection at
    # p = 1 / (n_perm + 1)
    args = ["test-invariance", "--kind", "pp", "--replicas", "20", "--seed", "1",
            "--out", str(tmp_path)]
    assert run([*args, "--sigma", "1e160"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --rho 1.0, --mu 0.0, --sigma 1e+160 and --tau 1 take the "
                          "evolved points beyond float64"), err
    assert "shift mu + rho sigma^2 / 2 = inf" in err
    # at 1e150 the shift fits, and every promoted point rounds to it: the energy test
    # runs, and rejects the evolved gaps, all 0
    assert run([*args, "--sigma", "1e150"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["energy_p"], record["energy_perms"], record["verdict"]) == (
        0.005, 199, "rejected")


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
    # the power Gamma_n^{1 - beta/rho} overflows here, and E[e^{beta h}] in the
    # evolve case; the pp ensembles read positions only and must not need it
    assert run([*args, "--kind", "pp", "--seed", "3", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("args", [
    ["--rho", "0.1", "--beta", "30", "--trunc-n", "1", "--replicas", "20"],
    ["--rho", "0.01", "--beta", "5", "--replicas", "50"],
], ids=["trunc-n-1", "rho-0.01"])
def test_verify_lemma_small_rho_tails_pass(tmp_path, capsys, args):
    # on its own scale the tail Gamma_n^{1 - beta/rho} / (beta/rho - 1) overflows in the
    # first case, and underflows in the second where e^{-beta X_1} overflows; relative to
    # the leading weight it is finite, and the bounds hold
    assert run(["verify-lemma", *args, "--ck", "100", "--seed", "3", "--out", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["markov_violations"], record["z_violations"], record["jump"]["events"]) == (
        0, 0, 0)


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
    # at alpha = 0.001 the masses (Gamma_i / Gamma_1)^{-1000} of a replica underflow
    # before its 5th
    assert run(["evolve", "--kind", kind, "--alpha", "0.001", "--alphas", "0.001,0.5",
                "--replicas", "20", "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "underflowed" in err


def test_pd_small_alpha_top_mass(tmp_path, capsys):
    # its top mass is well defined, though the tail Gamma_n^{-999} / 999 underflows on
    # its own scale where e^{-X_1} = Gamma_1^{1000} overflows
    assert run(["sample", "--kind", "pd", "--alpha", "0.001", "--topk", "1", "--replicas", "20",
                "--seed", "1", "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "sample.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (20, 1) and np.all((rows > 0) & (rows <= 1))


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


def _run_quiet(args):
    """``run(args)`` with its stdout and stderr caught: the exit code, and both texts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


def _scales(lo, hi):
    """10^e for e in [lo, hi]: every scale between the two, not only the largest."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _signed(magnitudes):
    return st.one_of(st.just(0.0), st.builds(lambda sign, m: sign * m,
                                             st.sampled_from([-1.0, 1.0]), magnitudes))


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 11).flatmap(lambda topk: st.tuples(st.just(topk),
                                                               st.integers(topk + 1, 5000))),
       rho=_scales(-300, 300), sigma=_scales(-300, 300), mu=_signed(_scales(-300, 300)),
       tau=st.sampled_from([1, 2, 10, 1000]))
def test_pp_walk_rows_finite_or_flag_error(depth, rho, sigma, mu, tau):
    # below its first min(--trunc-n, 512) points each replica walks: gaps, or exit 2
    # naming a flag, and no RuntimeWarning on the way
    topk, trunc_n = depth
    with tempfile.TemporaryDirectory() as out:
        code, _, err = _run_quiet(["evolve", "--kind", "pp", "--rho", repr(rho),
                                   "--sigma", repr(sigma), f"--mu={mu!r}", "--tau", str(tau),
                                   "--topk", str(topk), "--trunc-n", str(trunc_n),
                                   "--replicas", "3", "--seed", "1", "--out", out])
        if code == 2:
            assert err.startswith("error: --"), err
            return
        rows = np.loadtxt(os.path.join(out, "evolved.csv"), delimiter=",", skiprows=1, ndmin=2)
    assert code == 0
    assert rows.shape == (3, topk) and np.all(np.isfinite(rows)) and np.all(rows >= 0)


def _no_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@settings(max_examples=100, deadline=None)
@given(rho=_scales(-323.3, 308.2), d=_scales(-9, 300), mu=_signed(_scales(-323.3, 308.2)),
       sigma=_scales(-323.3, 308.2), ck=_signed(_scales(-323.3, 308.2)),
       tau=st.integers(0, 1000), trunc_n=st.integers(1, 50))
def test_verify_lemma_report_or_flag_error(rho, d, mu, sigma, ck, tau, trunc_n):
    # beta = rho (1 + d) > rho in floats, or inf, which --beta rejects, or rho itself at a
    # subnormal rho; whether the bounds hold is not asserted here: at |mu tau| ~ 1e17 the
    # front levels lose the points
    beta = rho * (1.0 + d)
    with tempfile.TemporaryDirectory() as out:
        code, text, err = _run_quiet(["verify-lemma", "--rho", repr(rho),
                                      "--beta", repr(beta), f"--mu={mu!r}",
                                      "--sigma", repr(sigma), f"--ck={ck!r}", "--tau", str(tau),
                                      "--trunc-n", str(trunc_n), "--replicas", "5",
                                      "--seed", "1", "--out", out])
        if code == 2:
            flag = "verify-lemma needs --beta > --rho" if beta == rho else "--"
            assert err.startswith(f"error: {flag}"), err
            return
        with open(os.path.join(out, "verify_lemma_report.json")) as fh:
            report = json.load(fh, parse_constant=_no_constant)
    assert code in (0, 1)
    assert json.loads(text, parse_constant=_no_constant) == report
    assert report["passed"] == (code == 0)


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


def _reads(trees, name, skip):
    """Reads of ``name``, as a name or as an attribute, in ``trees`` outside the
    definitions of the names in ``skip``."""
    reads, stack = 0, list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in skip:
            continue
        reads += isinstance(getattr(node, "ctx", None), ast.Load) and (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def _top_level_names(tree):
    """The functions, classes and constants a module binds at its top level,
    dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            # assigned alone or in a tuple, as in ``_A, _B = 1, 2``
            names = [name.id for target in getattr(node, "targets", ())
                     for name in getattr(target, "elts", [target]) if isinstance(name, ast.Name)]
        yield from (name for name in names if not name.startswith("__"))


def test_every_name_in_all_resolves():
    modules = [importlib.import_module(f"quasistat.{info.name}")
               for info in pkgutil.iter_modules(quasistat.__path__)]
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert {module.__name__ for module in listed} >= {
        "quasistat.pointproc", "quasistat.dynamics", "quasistat.stattest"}
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # and the library reads every name a module binds at its top level, outside its own
    # definition and those of names it does not read: a name only tests read is dead code
    # here
    trees = [ast.parse(Path(module.__file__).read_text()) for module in modules]
    names = {name for tree in trees for name in _top_level_names(tree)}
    # the walk sees public and private functions, classes and constants
    assert {"gen_functional_check", "ShallowTruncationError", "_CHUNK_ELEMS", "OPTIONS"} <= names
    unused = set()
    while (dead := {name for name in names if not _reads(trees, name, unused | {name})}) != unused:
        unused = dead
    assert not unused, sorted(unused)


def test_cli_import_leaves_out_scipy_optimize():
    # nothing in the library needs scipy.optimize (the tests' root finder alone does);
    # the KS p-values are built on scipy.special, as scipy.stats adds ~1 s to an import
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", "import quasistat.cli, sys; "
                           "loaded = {'scipy.optimize', 'scipy.stats'} & set(sys.modules); "
                           "assert not loaded, loaded"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
