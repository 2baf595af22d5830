"""Reproducible experiment runner.

Subcommands: sample | evolve | test-invariance | verify-lemma |
gen-functional | compare-oracles.  Every run needs an explicit master seed
(--seed or QUASISTAT_SEED, a nonnegative int).  Replica r of stream s draws
from the generator of SeedSequence(seed, spawn_key=(s, r)), so outputs are
byte-stable; the seed states of a block of replicas are hashed in one numpy
pass (``_seed_states``), which tests/test_cli.py pins against numpy's own.
Exit codes: 0 all checks pass, 1 statistical rejection, 2 usage/config error.
"""

import argparse
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import dynamics, experiments, pointproc, stattest


def _at_least(low):
    return f">= {low}", lambda v: v >= low


def _above(low):
    return f"> {low}", lambda v: v > low


_UNIT = "in (0, 1)", lambda v: 0 < v < 1
_KINDS = ("pd", "pp", "geometric", "mixture-of-pd", "custom-from-file")


class Option(NamedTuple):
    default: object
    type: type
    help: str
    valid: tuple = None  # (description, predicate) of the accepted values, if limited


# Every option once: DEFAULTS, the command-line flags, the config-file keys
# and the range checks are all generated from this table.  Every float option
# must also be finite.
OPTIONS = {
    "seed": Option(None, int, "master seed (or set QUASISTAT_SEED)", _at_least(0)),
    "out": Option(".", str, "output directory"),
    "kind": Option("pd", str, " | ".join(_KINDS),
                   ("one of " + ", ".join(_KINDS), _KINDS.__contains__)),
    "replicas": Option(2000, int, "replicas per ensemble", _at_least(1)),
    "alpha": Option(0.5, float, "PD(alpha, 0) index", _UNIT),
    "alphas": Option("0.3,0.7", str, "comma list of mixture components"),
    "rho": Option(1.0, float, "intensity rho e^{-rho y} of the point process", _above(0)),
    "beta": Option(1.0, float, "weight exponent, W = e^{beta h}", _above(0)),
    "mu": Option(0.0, float, "increment law mean"),
    "sigma": Option(1.0, float, "increment law std dev", _above(0)),
    "tau": Option(1, int, "evolution steps", _at_least(0)),
    "topk": Option(5, int, "tracked coordinates per replica", _at_least(1)),
    "trunc_n": Option(500, int, "tracked points per replica; evolved, it caps a pp head, and a "
                      "pd half reads --topk alone", _at_least(1)),
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for _seed_states
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# replicas seeded per pass: a 4096 x 4 uint64 block of states, 128 KB.  It divides
# 2**32, so no aligned block straddles a multiple of 2**32, where an index gains a word.
_SEED_BLOCK = 4096


def _words(n):
    """The uint32 words of a nonnegative int, least significant first, as SeedSequence
    splits its entropy."""
    if n < 0:  # the shifts below would never reach 0
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init, mult):
    """The multipliers SeedSequence's hashes xor in and multiply by, in turn."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult  # uint32 arrays wrap, as numpy's C loop does
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_states(seed, stream, replicas):
    """Row r holds ``SeedSequence(seed, spawn_key=(stream, r)).generate_state(4,
    np.uint64)`` for each r in the range ``replicas``, hashed for all of them at
    once: numpy's mix_entropy and generate_state on uint32 columns.

    The replicas must share their words above the lowest, so that every row's
    entropy has the same length and the hashes advance alike in each row.
    """
    lo, count = replicas.start, len(replicas)
    if lo >> 32 != (replicas.stop - 1) >> 32:
        raise ValueError(f"replicas {replicas} differ above their lowest 32-bit word")
    # the seed zero-padded to the pool, the stream, then the replica's words
    seed_words, lo_words = _words(seed), _words(lo)
    head = seed_words + [0] * (_POOL_SIZE - len(seed_words)) + _words(stream)
    entropy = np.empty((len(head) + len(lo_words), count), dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head)] = np.arange(lo_words[0], lo_words[0] + count, dtype=np.uint64)
    entropy[len(head) + 1:] = np.array(lo_words[1:], dtype=np.uint32)[:, None]

    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    consts = _hash_consts(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % _POOL_SIZE], consts) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _GeneratedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is already generated, for PCG64 to seed from."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _generators(seed, stream, replicas):
    """One Generator per replica in the range ``replicas``, seeded a block at a time."""
    lo = replicas.start
    while lo < replicas.stop:
        hi = min(lo - lo % _SEED_BLOCK + _SEED_BLOCK, replicas.stop)  # aligned blocks
        for state in _seed_states(seed, stream, range(lo, hi)):
            yield np.random.Generator(np.random.PCG64(_GeneratedState(state)))
        lo = hi


def replica_rng(seed, stream, replica=0):
    """The generator of ``SeedSequence(seed, spawn_key=(stream, replica))``."""
    return next(_generators(seed, stream, range(replica, replica + 1)))


def write_csv(path, header, rows):
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _rngs(cfg, stream, n=None):
    """One generator per replica, spawned from the master seed."""
    n = cfg["replicas"] if n is None else n
    return _generators(cfg["seed"], stream, range(n))


def _increment_law(cfg, steps=1):
    """N(--mu, --sigma^2) summed over ``steps`` steps."""
    try:
        return dynamics.IncrementLaw(cfg["mu"], cfg["sigma"]).summed(steps)
    except ValueError as exc:
        raise ConfigError(f"--mu {cfg['mu']}, --sigma {cfg['sigma']} and --tau {steps} take "
                          f"the summed increments beyond float64: {exc}") from None


def _partition_sampler(cfg):
    """The starts of the partition kinds, for ``experiments.top_masses``."""
    kind, n = cfg["kind"], cfg["trunc_n"]
    if kind == "pd":
        return experiments.PoissonKingman((cfg["alpha"],), n)
    if kind == "geometric":
        if n > _GEOMETRIC_MAX_N:
            raise ConfigError(f"--trunc-n must be <= {_GEOMETRIC_MAX_N} for kind=geometric, "
                              f"where 0.5**n underflows beyond it")
        geometric = 0.5 ** np.arange(1, n + 1), 0.5 ** n
        return experiments.Partitions(lambda rng: geometric, n)
    if kind == "mixture-of-pd":
        try:
            alphas = [float(s) for s in cfg["alphas"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--alphas: bad list {cfg['alphas']!r}")
        if not alphas or any(not 0 < a < 1 for a in alphas):
            raise ConfigError("--alphas components must lie in (0, 1)")
        return experiments.PoissonKingman(tuple(alphas), n)
    raise ConfigError(f"--kind {kind} is read only by test-invariance")


def _check_depth(cfg, need):
    """A replica reports ``need`` values of the --trunc-n it tracks."""
    if cfg["trunc_n"] < need:
        raise ConfigError(f"--trunc-n must be >= {need} for --topk {cfg['topk']}: "
                          f"a replica tracks {cfg['trunc_n']} values; {need} are needed")


def _in_range(cfg, ensemble, *args, **kwargs):
    """``ensemble(*args, **kwargs)``, the rows of an ``experiments`` ensemble (or the
    list of a lazy one's chunks), with a float64 range error turned into one that
    names the flags."""
    # --input rows take one step, whatever --tau reads
    steps = ("the one step of --kind custom-from-file" if cfg["kind"] == "custom-from-file"
             else f"--tau {cfg['tau']}")
    key = ("rho" if ensemble is not experiments.top_masses
           else "alphas" if cfg["kind"] == "mixture-of-pd" else "alpha")
    walked = cfg["kind"] in ("pd", "mixture-of-pd")  # an evolved PD start walks, drawing beta h
    try:
        return ensemble(*args, **kwargs)
    except OverflowError as exc:  # raised by a start, before any reshuffle
        raise ConfigError(f"{_flag(key)} {cfg[key]} takes the start beyond float64: "
                          f"{exc}") from None
    except FloatingPointError as exc:  # raised by a reshuffle, or by a walk, which reads more
        keys = (["rho", "mu", "sigma"] if cfg["kind"] == "pp" else [key, "beta", "mu", "sigma"]
                if walked else ["sigma", "beta"])
        what = "the evolved points" if cfg["kind"] == "pp" else "the reshuffle"
        raise ConfigError(f"{', '.join(f'{_flag(k)} {cfg[k]}' for k in keys)} and {steps} "
                          f"take {what} beyond float64: {exc}") from None
    except dynamics.NonFiniteIncrementError as exc:
        beta = f", --beta {cfg['beta']}" if walked else ""
        raise ConfigError(f"--mu {cfg['mu']}, --sigma {cfg['sigma']}{beta} and {steps} "
                          f"take the increments beyond float64: {exc}") from None


def _ensemble(cfg, stream, steps):
    """Replica x topk matrix after ``steps`` evolution steps, taken as one step of
    their summed law, its column prefix and its report fields: gaps of the point
    process for kind=pp, top masses otherwise, with a walked ``truncation`` block."""
    k, law = cfg["topk"], _increment_law(cfg, steps) if steps else None
    if cfg["kind"] == "pp":
        _check_depth(cfg, k + 1)
        # unevolved, only the top k + 1 points are read, and they are a prefix of any deeper draw
        n = cfg["trunc_n"] if steps else k + 1
        return _in_range(cfg, experiments.top_gaps, _rngs(cfg, stream), cfg["rho"], n, k,
                         law=law), "gap", {}
    sampler = _partition_sampler(cfg)
    if not (steps and isinstance(sampler, experiments.PoissonKingman)):  # a walk draws k points
        _check_depth(cfg, k)
    rows, cut = _in_range(cfg, experiments.top_masses, _rngs(cfg, stream), sampler, k, law=law,
                          beta=cfg["beta"])
    return rows, "xi", {} if cut is None else {"truncation": {
        "head": k, "walked_mean": float(cut[0].mean()), "walked_max": int(cut[0].max()),
        "promoted_replicas": int(cut[1].sum()), "max_remainder_share": float(cut[2].max()),
        "max_sd_bound_share": float(cut[3].max())}}


def _input_partition(row, i, k):
    """One --input row as a checked partition: its positive entries in
    decreasing order, and the mass they miss as the tail."""
    total = row.sum()
    if not (np.all(row >= 0) and total <= 1 + 1e-9):
        raise ConfigError(f"--input row {i}: masses must be nonnegative and sum to at most 1")
    masses = np.sort(row[row > 0])[::-1]
    if masses.size < k:
        raise ConfigError(f"--input row {i}: {masses.size} positive masses, --topk is {k}")
    tail = max(0.0, 1.0 - total)
    try:
        pointproc.check_partition_rows(masses[None], np.array([tail]))
    except ValueError as exc:
        raise ConfigError(f"--input row {i}: {exc}") from None
    return masses, tail


def _custom_ensembles(cfg):
    """Top masses of the --input rows: the first half unchanged, the second
    half after one reshuffle."""
    if not cfg["input"]:
        raise ConfigError("--input <csv path> is required for kind=custom-from-file")
    try:
        data = np.loadtxt(cfg["input"], delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --input file: {exc}")
    if data.shape[0] < 2:
        raise ConfigError("--input needs at least 2 rows")
    k = cfg["topk"]
    partitions = [_input_partition(row, i, k) for i, row in enumerate(data, 1)]
    half = len(partitions) // 2
    before = np.array([masses[:k] for masses, _ in partitions[:half]])
    evolved = iter(partitions[half:])
    sampler = experiments.Partitions(lambda rng: next(evolved), data.shape[1])
    rngs = _rngs(cfg, 1, len(partitions) - half)
    return before, _in_range(cfg, experiments.top_masses, rngs, sampler, k,
                             law=_increment_law(cfg), beta=cfg["beta"])[0]


def _header(prefix, k):
    return [f"{prefix}_{j}" for j in range(1, k + 1)]


def _emit(cfg, experiment, record):
    """Write the JSON report of one run to <out>/<experiment>_report.json."""
    path = os.path.join(cfg["out"], f"{experiment}_report.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)  # standard JSON only
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
        rows = _in_range(cfg, experiments.top_points, _rngs(cfg, 0), cfg["rho"], cfg["topk"],
                         cfg["topk"])
        prefix = "x"
    else:
        rows, prefix, _ = _ensemble(cfg, 0, steps=0)
    path = _write(cfg, "sample.csv", _header(prefix, cfg["topk"]), rows)
    return {"files": [path], "column_means": [float(m) for m in rows.mean(axis=0)]}, True


def cmd_evolve(cfg):
    rows, prefix, fields = _ensemble(cfg, 0, steps=cfg["tau"])
    return {"files": [_write(cfg, "evolved.csv", _header(prefix, cfg["topk"]), rows)],
            **fields}, True


def cmd_test_invariance(cfg):
    if cfg["kind"] == "custom-from-file":
        (before, after), prefix, evolved = _custom_ensembles(cfg), "xi", {}
    else:
        if cfg["tau"] < 1:
            raise ConfigError(f"--tau must be >= 1 for test-invariance, got {cfg['tau']}: "
                              f"the evolved half takes --tau steps")
        before, prefix, _ = _ensemble(cfg, 0, steps=0)
        after, _, evolved = _ensemble(cfg, 1, steps=cfg["tau"])
    names = _header(prefix, cfg["topk"])
    if 1.0 / (cfg["n_perm"] + 1.0) >= cfg["level"]:  # its p is at least 1 / (n_perm + 1)
        print(f"warning: --level {cfg['level']} with --n-perm {cfg['n_perm']}: the energy "
              f"test cannot reject, so the verdict rests on the KS tests alone", file=sys.stderr)
    try:
        report = stattest.invariance_verdict(before, after, level=cfg["level"],
                                             n_perm=cfg["n_perm"], rng=replica_rng(cfg["seed"], 2))
    except ValueError as exc:  # the energy test's distances would leave float64
        raise ConfigError(f"--rho {cfg['rho']}, --mu {cfg['mu']}, --sigma {cfg['sigma']} and "
                          f"--tau {cfg['tau']} spread the ensembles beyond float64: "
                          f"{exc}") from None
    pcsv = _write(cfg, "pvalues.csv", ["coordinate", "ks_statistic", "ks_p"],
                  [[j + 1, d, p] for j, (d, p) in enumerate(report["ks"])])
    fields = {
        **report,
        "coordinates": names,
        "ks": [{"coordinate": n, "statistic": d, "p": p} for n, (d, p) in zip(names, report["ks"])],
        "files": [pcsv],
        **evolved,
    }
    return fields, report["verdict"] == "consistent"


def cmd_verify_lemma(cfg):
    law, beta, tau, ck = _increment_law(cfg), cfg["beta"], cfg["tau"], cfg["ck"]
    if not beta > cfg["rho"]:
        # sum_i e^{beta X_i} diverges, so the starts cannot be tail-normalized
        raise ConfigError(f"verify-lemma needs --beta > --rho, "
                          f"got --beta {beta} and --rho {cfg['rho']}")
    _increment_law(cfg, max(tau, 1))  # both checks take the --tau steps as one
    starts = _in_range(cfg, list, experiments.tail_normalized_starts(
        _rngs(cfg, 0), cfg["rho"], cfg["trunc_n"], beta=beta))
    try:  # before the front profiles, so a bound that says nothing stops the run early
        jump = experiments.jump_event_bound_check((points for points, _ in starts), law, tau, ck,
                                                  beta=beta, rng=replica_rng(cfg["seed"], 1))
    except ValueError as exc:
        raise ConfigError(f"--ck {ck} gives no jump bound at --beta {beta}, --mu {law.mu} "
                          f"and --sigma {law.sigma}: {exc}") from None
    v = law.log_mgf(beta)  # the front levels are (v_beta / beta) tau and the grid around it
    if not (np.isfinite(v * tau) and np.isfinite(v / beta * tau)):
        raise ConfigError(f"--mu {law.mu}, --sigma {law.sigma}, --beta {beta} and --tau {tau} "
                          f"take the front levels beyond float64: v_beta = {v:.6g}")
    counters = {}
    counts = experiments.front_bound_counts(starts, law, tau, beta=beta,
                                            grid_points=cfg["grid_points"], counters=counters)
    passed = counts["markov_violations"] == 0 and counts["z_violations"] == 0 and jump["passed"]
    return {"v_beta": v, **counts, **counters, "jump": jump, "passed": passed}, passed


def _check_se_replicas(cfg):
    if cfg["replicas"] < 2:
        raise ConfigError(f"--replicas must be >= 2 here, got {cfg['replicas']}: "
                          f"a standard error needs two replicas")


def cmd_gen_functional(cfg):
    _check_se_replicas(cfg)
    n, rho, d = cfg["trunc_n"], cfg["rho"], cfg["f_d"]
    points = _in_range(cfg, experiments.top_points, _rngs(cfg, 0), rho, n, n)
    try:
        check = experiments.gen_functional_check(points, rho, cfg["f_a"], d)
    except experiments.ShallowTruncationError as exc:
        raise ConfigError(f"--trunc-n {n} is too shallow for --f-d {d} at --rho {rho}: "
                          f"{exc}") from None
    return check, check["passed"]


def cmd_compare_oracles(cfg):
    _check_se_replicas(cfg)
    _check_depth(cfg, cfg["topk"])
    alpha, k = cfg["alpha"], cfg["topk"]
    streams = (_rngs(cfg, stream) for stream in range(2))
    try:
        tops, sumsq = experiments.oracle_masses(streams, alpha, cfg["trunc_n"], k)
    except OverflowError as exc:
        raise ConfigError(f"--alpha {alpha}, --trunc-n {cfg['trunc_n']} and --topk {k} take "
                          f"an oracle beyond float64: {exc}") from None
    except ValueError as exc:  # e.g. a replica whose other masses underflowed to 0
        raise ConfigError(f"--alpha {alpha} and --topk {k}: an oracle cannot give "
                          f"the top {k} masses: {exc}") from None
    p = stattest.energy_distance_perm_test(tops["poisson_kingman"], tops["stick_breaking"],
                                           n_perm=cfg["n_perm"], rng=replica_rng(cfg["seed"], 10))
    consistent = bool(p >= cfg["level"])
    return {"pairwise_energy_p": {"poisson_kingman|stick_breaking": p}, "sum_squares": sumsq,
            "expected_sum_squares": 1.0 - alpha, "passed": consistent}, consistent


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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    for key, opt in OPTIONS.items():
        parser.add_argument(_flag(key), dest=key, type=opt.type, help=opt.help)
    parser.add_argument("--show-config", action="store_true",
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
    started = time.perf_counter()
    try:
        os.makedirs(cfg["out"], exist_ok=True)
        fields, passed = _COMMANDS[args.command](cfg)
        record = {"experiment": experiment, "config": {k: cfg[k] for k in sorted(cfg)},
                  "runtime_seconds": round(time.perf_counter() - started, 3), **fields}
        _emit(cfg, experiment, record)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
