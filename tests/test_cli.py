import json
import os

import numpy as np
import pytest

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


def test_invariance_custom_from_file(tmp_path, capsys):
    from quasistat.cli import write_csv
    from quasistat.pointproc import sample_pd_poisson_kingman

    rng = np.random.default_rng(3)
    rows = np.array([sample_pd_poisson_kingman(0.5, 100, rng).masses[:40] for _ in range(600)])
    path = tmp_path / "masses.csv"
    write_csv(path, [f"xi_{j}" for j in range(1, 41)], rows)
    code = run(["test-invariance", "--kind", "custom-from-file", "--input", str(path),
                "--topk", "3", "--seed", "4", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "consistent"
    assert code == 0


def test_verify_lemma(tmp_path, capsys):
    code = run(["verify-lemma", "--rho", "0.5", "--replicas", "200", "--trunc-n", "100",
                "--tau", "3", "--ck", "1.5", "--seed", "6", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["markov_violations"] == 0
    assert record["z_violations"] == 0
    assert record["jump"]["passed"]
    assert code == 0


def test_gen_functional(tmp_path, capsys):
    code = run(["gen-functional", "--rho", "1", "--f-a", "0.6931471805599453",
                "--f-d", "0.6931471805599453", "--replicas", "3000", "--trunc-n", "80",
                "--seed", "8", "--out", str(tmp_path)])
    record = json.loads(capsys.readouterr().out)
    assert record["closed_form_no_leader"] == pytest.approx(2.0 / 3.0)
    assert abs(record["mc_estimate"] - record["closed_form"]) <= 3 * record["mc_se"]
    assert code == 0


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


def test_option_bounds_name_the_flag(capsys):
    assert run(["sample", "--seed", "1", "--trunc-n", "0"]) == 2
    assert "--trunc-n must be >= 1" in capsys.readouterr().err
    assert run(["sample", "--seed", "1", "--n-perm", "99"]) == 2
    assert "--n-perm must be >= 199" in capsys.readouterr().err
