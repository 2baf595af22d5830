"""Reproducible experiment runner.

Subcommands: sample | evolve | test-invariance | verify-lemma |
gen-functional | compare-oracles.  Every run needs an explicit master seed
(--seed or QUASISTAT_SEED); per-replica generators are spawned from it as
SeedSequence(seed, spawn_key=(stream, replica)), so outputs are byte-stable.
Exit codes: 0 all checks pass, 1 statistical rejection, 2 usage/config error.
"""

import argparse
import itertools
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import analysis, dynamics, experiments, pointproc, stattest


class Option(NamedTuple):
    default: object
    type: type
    help: str
    lower: object = None  # smallest accepted value, if any


# Every option once: DEFAULTS, the command-line flags, the config-file keys
# and the range checks are all generated from this table.
OPTIONS = {
    "seed": Option(None, int, "master seed (or set QUASISTAT_SEED)"),
    "out": Option(".", str, "output directory"),
    "kind": Option("pd", str, "pd | pp | geometric | mixture-of-pd | custom-from-file"),
    "replicas": Option(2000, int, "replicas per ensemble", 1),
    "alpha": Option(0.5, float, "PD(alpha, 0) index"),
    "alphas": Option("0.3,0.7", str, "comma list of mixture components"),
    "rho": Option(1.0, float, "intensity rho e^{-rho y} of the point process"),
    "beta": Option(1.0, float, "weight exponent, W = e^{beta h}"),
    "mu": Option(0.0, float, "increment law mean"),
    "sigma": Option(1.0, float, "increment law std dev"),
    "tau": Option(1, int, "evolution steps", 0),
    "topk": Option(5, int, "tracked coordinates per replica", 1),
    "trunc_n": Option(500, int, "tracked points per replica", 1),
    "level": Option(0.01, float, "test level, in (0, 1)"),
    "n_perm": Option(199, int, "energy-test permutations", 199),
    "f_a": Option(0.5, float, "step amplitude"),
    "f_d": Option(0.5, float, "step width"),
    "ck": Option(1.5, float, "C + K in the jump-event bound"),
    "grid_points": Option(100, int, "front-profile grid size", 1),
    "input": Option("", str, "CSV of masses for kind=custom-from-file"),
}

DEFAULTS = {key: opt.default for key, opt in OPTIONS.items()}


class ConfigError(ValueError):
    pass


def _flag(key):
    return "--" + key.replace("_", "-")


def load_config_file(path):
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return values


def _coerce(key, value):
    opt = OPTIONS[key]
    try:
        return opt.type(value)
    except ValueError:
        raise ConfigError(f"{_flag(key)} expects {opt.type.__name__}, got {value!r}") from None


def resolve_config(args):
    """defaults < config file < command-line flags; returns a plain dict."""
    cfg = dict(DEFAULTS)
    if args.config:
        for key, value in load_config_file(args.config).items():
            cfg[key] = _coerce(key, value)
    for key in OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["seed"] is None and os.environ.get("QUASISTAT_SEED"):
        cfg["seed"] = _coerce("seed", os.environ["QUASISTAT_SEED"])
    if cfg["seed"] is None:
        raise ConfigError("a master seed is required (--seed or QUASISTAT_SEED)")
    for key, opt in OPTIONS.items():
        if opt.lower is not None and cfg[key] < opt.lower:
            raise ConfigError(f"{_flag(key)} must be >= {opt.lower}")
    if not 0 < cfg["level"] < 1:
        raise ConfigError("--level must be in (0, 1)")
    return cfg


def replica_rng(seed, stream, replica=0):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, replica)))


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _rngs(cfg, stream, n=None):
    """One generator per replica, spawned from the master seed."""
    n = cfg["replicas"] if n is None else n
    return (replica_rng(cfg["seed"], stream, i) for i in range(n))


def _increment_law(cfg):
    return dynamics.IncrementLaw.gaussian(cfg["mu"], cfg["sigma"])


def _partition_sampler(cfg):
    """sample(rng) -> MassPartition for the partition kinds."""
    kind, n = cfg["kind"], cfg["trunc_n"]
    if kind == "pd":
        return lambda rng: pointproc.sample_pd_poisson_kingman(cfg["alpha"], n, rng)
    if kind == "geometric":
        geometric = pointproc.MassPartition(0.5 ** np.arange(1, n + 1), tail_mass=0.5 ** n)
        return lambda rng: geometric
    if kind == "mixture-of-pd":
        try:
            alphas = [float(s) for s in cfg["alphas"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad --alphas list {cfg['alphas']!r}")
        if not alphas or any(not 0 < a < 1 for a in alphas):
            raise ConfigError("--alphas components must lie in (0, 1)")
        return lambda rng: pointproc.sample_pd_poisson_kingman(
            alphas[rng.integers(len(alphas))], n, rng)
    raise ConfigError(f"unsupported partition kind {kind!r}")


def _ensemble(cfg, stream, steps):
    """Replica x topk matrix after ``steps`` evolution steps, and its column prefix:
    gaps of the point process for kind=pp, top masses otherwise."""
    law, k = _increment_law(cfg), cfg["topk"]
    if cfg["kind"] == "pp":
        return experiments.top_gaps(_rngs(cfg, stream), cfg["rho"], cfg["trunc_n"], k,
                                    beta=cfg["beta"], law=law, steps=steps), "gap"
    return experiments.top_masses(_rngs(cfg, stream), _partition_sampler(cfg), k,
                                  law=law, beta=cfg["beta"], steps=steps), "xi"


def _custom_ensembles(cfg):
    """Before: the first half of the --input rows; after: the second half, reshuffled once."""
    if not cfg["input"]:
        raise ConfigError("kind=custom-from-file requires --input <csv path>")
    try:
        data = np.loadtxt(cfg["input"], delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read input file: {exc}")
    if data.shape[0] < 2:
        raise ConfigError("custom input needs at least 2 rows")
    half = data.shape[0] // 2
    rows = iter(data[half:])

    def sample(rng):
        row = next(rows)
        total = row.sum()
        if total > 1 + 1e-9:
            raise ConfigError("custom rows must sum to at most 1")
        return pointproc.MassPartition(np.sort(row[row > 0])[::-1], tail_mass=max(0.0, 1.0 - total))

    after = experiments.top_masses(_rngs(cfg, 1, data.shape[0] - half), sample, cfg["topk"],
                                   law=_increment_law(cfg), beta=cfg["beta"], steps=1)
    return data[:half, : cfg["topk"]], after


def _header(prefix, k):
    return [f"{prefix}_{j}" for j in range(1, k + 1)]


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(cfg, name, header, rows):
    path = os.path.join(cfg["out"], name)
    write_csv(path, header, rows)
    return path


# Each command returns its report fields and whether every check passed.

def cmd_sample(cfg):
    if cfg["kind"] == "pp":
        rows = experiments.top_points(_rngs(cfg, 0), cfg["rho"], cfg["trunc_n"], cfg["topk"],
                                      beta=cfg["beta"])
        prefix = "x"
    else:
        rows, prefix = _ensemble(cfg, 0, steps=0)
    path = _write(cfg, "sample.csv", _header(prefix, cfg["topk"]), rows)
    return {"files": [path], "column_means": [float(m) for m in rows.mean(axis=0)]}, True


def cmd_evolve(cfg):
    rows, prefix = _ensemble(cfg, 0, steps=cfg["tau"])
    return {"files": [_write(cfg, "evolved.csv", _header(prefix, cfg["topk"]), rows)]}, True


def cmd_test_invariance(cfg):
    if cfg["kind"] == "custom-from-file":
        before, after = _custom_ensembles(cfg)
        prefix = "xi"
    else:
        before, prefix = _ensemble(cfg, 0, steps=0)
        after, _ = _ensemble(cfg, 1, steps=max(1, cfg["tau"]))
    names = _header(prefix, cfg["topk"])
    report = stattest.invariance_verdict(before, after, level=cfg["level"],
                                         n_perm=cfg["n_perm"], rng=replica_rng(cfg["seed"], 2))
    pcsv = _write(cfg, "pvalues.csv", ["coordinate", "ks_statistic", "ks_p"],
                  [[j + 1, d, p] for j, (d, p) in enumerate(report.per_coordinate_ks)])
    fields = {
        "coordinates": names,
        "ks": [{"coordinate": n, "statistic": d, "p": p}
               for n, (d, p) in zip(names, report.per_coordinate_ks)],
        "energy_p": report.energy_p,
        "verdict": report.verdict,
        "files": [pcsv],
    }
    return fields, report.verdict == "consistent"


def cmd_verify_lemma(cfg):
    law, beta, tau = _increment_law(cfg), cfg["beta"], cfg["tau"]
    starts = list(experiments.tail_normalized_starts(_rngs(cfg, 0), cfg["rho"], cfg["trunc_n"],
                                                     beta=beta))
    counts = experiments.front_bound_counts(starts, law, tau, beta=beta,
                                            grid_points=cfg["grid_points"])
    c = law.mean() - 1.0
    jump = analysis.jump_event_bound_check(starts, law, tau, K=cfg["ck"] - c, C=c,
                                           beta=beta, rng=replica_rng(cfg["seed"], 1))
    passed = counts["markov_violations"] == 0 and counts["z_violations"] == 0 and jump.passed
    jump_fields = {"frequency": jump.frequency, "bound": jump.bound,
                   "events": jump.n_events, "passed": jump.passed}
    return {"v_beta": law.log_mgf(beta), **counts, "jump": jump_fields, "passed": passed}, passed


def cmd_gen_functional(cfg):
    n = cfg["trunc_n"]
    points = experiments.top_points(_rngs(cfg, 0), cfg["rho"], n, n)
    check = experiments.gen_functional_check(points, cfg["rho"], cfg["f_a"], cfg["f_d"])
    return check, check["passed"]


def cmd_compare_oracles(cfg):
    streams = (_rngs(cfg, stream) for stream in range(3))
    tops, sumsq = experiments.oracle_masses(streams, cfg["alpha"], cfg["trunc_n"], cfg["topk"])
    # one permutation generator shared by all pairs
    pairs = experiments.pairwise_energy(tops, itertools.repeat(replica_rng(cfg["seed"], 10)),
                                        cfg["n_perm"])
    consistent = all(p >= cfg["level"] for p in pairs.values())
    return {"pairwise_energy_p": pairs, "sum_squares": sumsq,
            "expected_sum_squares": 1.0 - cfg["alpha"], "passed": consistent}, consistent


_COMMANDS = {
    "sample": cmd_sample,
    "evolve": cmd_evolve,
    "test-invariance": cmd_test_invariance,
    "verify-lemma": cmd_verify_lemma,
    "gen-functional": cmd_gen_functional,
    "compare-oracles": cmd_compare_oracles,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quasistat",
        description="Simulation and statistical verification of ranked-point and "
                    "mass-partition reshuffling dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        for key, opt in OPTIONS.items():
            p.add_argument(_flag(key), dest=key, type=opt.type, help=opt.help)
        p.add_argument("--show-config", action="store_true",
                       help="print the resolved config and exit")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.show_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    experiment = args.command.replace("-", "_")
    started = time.time()
    try:
        os.makedirs(cfg["out"], exist_ok=True)
        fields, passed = _COMMANDS[args.command](cfg)
        record = {"experiment": experiment, "config": {k: cfg[k] for k in sorted(cfg)},
                  "runtime_seconds": round(time.time() - started, 3), **fields}
        with open(os.path.join(cfg["out"], f"{experiment}_report.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True, default=_json_default))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
