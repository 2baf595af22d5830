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


def _at_least(low):
    return f">= {low}", lambda v: v >= low


def _above(low):
    return f"> {low}", lambda v: v > low


_UNIT = "in (0, 1)", lambda v: 0 < v < 1


class Option(NamedTuple):
    default: object
    type: type
    help: str
    valid: tuple = None  # (description, predicate) of the accepted values, if limited


# Every option once: DEFAULTS, the command-line flags, the config-file keys
# and the range checks are all generated from this table.  Every float option
# must also be finite.
OPTIONS = {
    "seed": Option(None, int, "master seed (or set QUASISTAT_SEED)"),
    "out": Option(".", str, "output directory"),
    "kind": Option("pd", str, "pd | pp | geometric | mixture-of-pd | custom-from-file"),
    "replicas": Option(2000, int, "replicas per ensemble", _at_least(1)),
    "alpha": Option(0.5, float, "PD(alpha, 0) index", _UNIT),
    "alphas": Option("0.3,0.7", str, "comma list of mixture components"),
    "rho": Option(1.0, float, "intensity rho e^{-rho y} of the point process", _above(0)),
    "beta": Option(1.0, float, "weight exponent, W = e^{beta h}", _above(0)),
    "mu": Option(0.0, float, "increment law mean"),
    "sigma": Option(1.0, float, "increment law std dev", _above(0)),
    "tau": Option(1, int, "evolution steps", _at_least(0)),
    "topk": Option(5, int, "tracked coordinates per replica", _at_least(1)),
    "trunc_n": Option(500, int, "tracked points per replica", _at_least(1)),
    "level": Option(0.01, float, "test level", _UNIT),
    "n_perm": Option(199, int, "energy-test permutations", _at_least(199)),
    "f_a": Option(0.5, float, "step amplitude", _at_least(0)),
    "f_d": Option(0.5, float, "step width", _above(0)),
    "ck": Option(1.5, float, "C + K in the jump-event bound"),
    "grid_points": Option(100, int, "front-profile grid size", _at_least(1)),
    "input": Option("", str, "CSV of masses for kind=custom-from-file"),
}

DEFAULTS = {key: opt.default for key, opt in OPTIONS.items()}


class ConfigError(ValueError):
    pass


# 0.5**n underflows to zero for n > 1074, the exponent of the smallest subnormal double
_GEOMETRIC_MAX_N = 1074


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
        if opt.type is float and not np.isfinite(cfg[key]):
            raise ConfigError(f"{_flag(key)} must be finite, got {cfg[key]!r}")
        if opt.valid is not None and not opt.valid[1](cfg[key]):
            raise ConfigError(f"{_flag(key)} must be {opt.valid[0]}, got {cfg[key]!r}")
    return cfg


def replica_rng(seed, stream, replica=0):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, replica)))


def write_csv(path, header, rows):
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _rngs(cfg, stream, n=None):
    """One generator per replica, spawned from the master seed."""
    n = cfg["replicas"] if n is None else n
    return (replica_rng(cfg["seed"], stream, i) for i in range(n))


def _increment_law(cfg):
    return dynamics.IncrementLaw(cfg["mu"], cfg["sigma"])


def _partition_sampler(cfg):
    """The starts of the partition kinds, for ``experiments.top_masses``."""
    kind, n = cfg["kind"], cfg["trunc_n"]
    if kind == "pd":
        return experiments.PoissonKingman((cfg["alpha"],), n)
    if kind == "geometric":
        if n > _GEOMETRIC_MAX_N:
            raise ConfigError(f"--trunc-n must be <= {_GEOMETRIC_MAX_N} for kind=geometric, "
                              f"where 0.5**n underflows beyond it")
        geometric = pointproc.MassPartition(0.5 ** np.arange(1, n + 1), tail_mass=0.5 ** n)
        return experiments.Partitions(lambda rng: geometric, n)
    if kind == "mixture-of-pd":
        try:
            alphas = [float(s) for s in cfg["alphas"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad --alphas list {cfg['alphas']!r}")
        if not alphas or any(not 0 < a < 1 for a in alphas):
            raise ConfigError("--alphas components must lie in (0, 1)")
        return experiments.PoissonKingman(tuple(alphas), n, mixture=True)
    raise ConfigError(f"unsupported partition kind {kind!r}")


def _check_depth(cfg, need):
    """A replica reports ``need`` values of the --trunc-n it tracks."""
    if cfg["trunc_n"] < need:
        raise ConfigError(f"--trunc-n must be >= {need} for --topk {cfg['topk']}: "
                          f"a replica tracks {cfg['trunc_n']} values; {need} are needed")


def _top_masses(cfg, rngs, sampler, steps):
    """``experiments.top_masses`` at the configured law, with a float64 range
    error turned into one that names the flags."""
    law, beta = _increment_law(cfg), cfg["beta"]
    try:
        return experiments.top_masses(rngs, sampler, cfg["topk"], law=law, beta=beta, steps=steps)
    except OverflowError as exc:  # raised by a PD start, before any reshuffle
        key = "alphas" if cfg["kind"] == "mixture-of-pd" else "alpha"
        raise ConfigError(f"{_flag(key)} {cfg[key]} takes the PD(alpha, 0) start beyond "
                          f"float64: {exc}") from None
    except FloatingPointError as exc:
        raise ConfigError(f"--sigma {cfg['sigma']} and --beta {beta} take the reshuffle "
                          f"beyond float64: {exc}") from None


def _ensemble(cfg, stream, steps):
    """Replica x topk matrix after ``steps`` evolution steps, and its column prefix:
    gaps of the point process for kind=pp, top masses otherwise."""
    k = cfg["topk"]
    if cfg["kind"] == "pp":
        _check_depth(cfg, k + 1)
        # unevolved, only the top k + 1 points are read, and they are a prefix of any deeper draw
        n = cfg["trunc_n"] if steps else k + 1
        return experiments.top_gaps(_rngs(cfg, stream), cfg["rho"], n, k,
                                    law=_increment_law(cfg), steps=steps), "gap"
    sampler = _partition_sampler(cfg)
    _check_depth(cfg, k)
    return _top_masses(cfg, _rngs(cfg, stream), sampler, steps), "xi"


def _input_partition(row, i, k):
    """One --input row as a MassPartition: its positive entries in decreasing
    order, and the mass they miss as the tail."""
    total = row.sum()
    if not (np.all(row >= 0) and total <= 1 + 1e-9):
        raise ConfigError(f"--input row {i}: masses must be nonnegative and sum to at most 1")
    masses = np.sort(row[row > 0])[::-1]
    if masses.size < k:
        raise ConfigError(f"--input row {i}: {masses.size} positive masses, --topk is {k}")
    try:
        return pointproc.MassPartition(masses, tail_mass=max(0.0, 1.0 - total))
    except ValueError as exc:
        raise ConfigError(f"--input row {i}: {exc}") from None


def _custom_ensembles(cfg):
    """Top masses of the --input rows: the first half unchanged, the second
    half after one reshuffle."""
    if not cfg["input"]:
        raise ConfigError("kind=custom-from-file requires --input <csv path>")
    try:
        data = np.loadtxt(cfg["input"], delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --input file: {exc}")
    if data.shape[0] < 2:
        raise ConfigError("--input needs at least 2 rows")
    k = cfg["topk"]
    partitions = iter([_input_partition(row, i, k) for i, row in enumerate(data, 1)])
    half = data.shape[0] // 2
    # one iterator: the first half of the partitions feeds before, the rest after
    sampler = experiments.Partitions(lambda rng: next(partitions), data.shape[1])
    before = experiments.top_masses(itertools.repeat(None, half), sampler, k)
    after = _top_masses(cfg, _rngs(cfg, 1, data.shape[0] - half), sampler, steps=1)
    return before, after


def _header(prefix, k):
    return [f"{prefix}_{j}" for j in range(1, k + 1)]


def _emit(cfg, experiment, record):
    """Write the JSON report of one run to <out>/<experiment>_report.json."""
    path = os.path.join(cfg["out"], f"{experiment}_report.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write(cfg, name, header, rows):
    path = os.path.join(cfg["out"], name)
    write_csv(path, header, rows)
    return path


# Each command returns its report fields and whether every check passed.

def cmd_sample(cfg):
    if cfg["kind"] == "pp":
        _check_depth(cfg, cfg["topk"])
        rows = experiments.top_points(_rngs(cfg, 0), cfg["rho"], cfg["topk"], cfg["topk"])
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
    if not beta > cfg["rho"]:
        # sum_i e^{beta X_i} diverges, so the starts cannot be tail-normalized
        raise ConfigError(f"verify-lemma needs --beta > --rho, "
                          f"got --beta {beta} and --rho {cfg['rho']}")
    try:
        starts = list(experiments.tail_normalized_starts(_rngs(cfg, 0), cfg["rho"],
                                                         cfg["trunc_n"], beta=beta))
    except OverflowError as exc:
        raise ConfigError(f"--rho {cfg['rho']}, --beta {beta} and --trunc-n {cfg['trunc_n']} "
                          f"take the tail of the starts beyond float64: {exc}") from None
    counts = experiments.front_bound_counts(starts, law, tau, beta=beta,
                                            grid_points=cfg["grid_points"])
    c = law.mu - 1.0
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
    _check_depth(cfg, cfg["topk"])
    streams = (_rngs(cfg, stream) for stream in range(3))
    try:
        tops, sumsq = experiments.oracle_masses(streams, cfg["alpha"], cfg["trunc_n"],
                                                cfg["topk"])
    except OverflowError as exc:
        raise ConfigError(f"--alpha {cfg['alpha']} and --trunc-n {cfg['trunc_n']} take an "
                          f"oracle beyond float64: {exc}") from None
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
    except ValueError as exc:
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
        _emit(cfg, experiment, record)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
