"""Spans around the public functions of each quasistat module.

The tracer patches module attributes and class methods from outside while a
traced invocation runs, and restores them afterwards, so nothing in ``src/``
carries instrumentation.  Every span records its caller implicitly through a
stack: a span's self time is its duration minus the time its child spans
cover, so the self times of all spans add up to the root span
(``cli.main``), which is the whole invocation.

A call to a target whose span is already the innermost open span is merged
into it (``sample_pd_poisson_kingman`` calling ``sample_gamma_arrivals`` is
one ``pointproc.sample`` call).  Targets are looked up by name when the tracer
is built; a name that is missing, or that no traced invocation calls, is
reported as absent and never stops the run.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "quasistat"

# span name -> targets, written "module:attribute" or "module:Class.method".
# The layer of a span is the part of its name before the first dot.
SPANS = {
    "cli.main": ["cli:main"],
    "cli.replica_rng": ["cli:replica_rng"],
    "cli.write_csv": ["cli:write_csv"],
    "pointproc.sample": [
        "pointproc:sample_gamma_arrivals",
        "pointproc:points_from_arrivals",
        "pointproc:atoms_from_arrivals",
        "pointproc:sample_pp_exponential",
        "pointproc:sample_pk_powerlaw",
        "pointproc:expected_atom_tail",
        "pointproc:normalize_to_mass_partition",
        "pointproc:sample_pd_poisson_kingman",
        "pointproc:sample_pd_stickbreaking",
        "pointproc:mass_partition_from_config",
        "pointproc:config_from_mass_partition",
    ],
    "pointproc.validate": [
        "pointproc:PointConfiguration.__post_init__",
        "pointproc:MassPartition.__post_init__",
        "pointproc:ArrivalTimes.__post_init__",
    ],
    "dynamics.evolve": [
        "dynamics:evolve_additive",
        "dynamics:evolve_multiplicative",
        "dynamics:run_trajectory",
    ],
    "dynamics.shift": ["dynamics:shift_tail", "dynamics:shift_leader"],
    "dynamics.tail_prob": ["dynamics:IncrementLaw.sum_tail_probability"],
    "analysis.front_profile": [
        "analysis:FrontProfile.__call__",
        "analysis:front_position",
    ],
    "analysis.jump_check": ["analysis:jump_event_bound_check"],
    "analysis.gap_vector": ["analysis:gap_vector"],
    # the rest of the analysis module, so its time is not booked to cli
    "analysis.other": [
        "analysis:front_profile",
        "analysis:normalized_profile",
        "analysis:v_beta",
        "analysis:sum_squares",
        "analysis:gen_functional_mc",
        "analysis:gen_functional_pp_exponential",
    ],
    "stattest.verdict": ["stattest:invariance_verdict"],
    "stattest.energy": ["stattest:energy_distance_perm_test"],
    "stattest.ks": ["stattest:ks_two_sample", "stattest:marginal_law_test"],
}


def _drawn(original):
    return lambda args, kwargs, result: {"pointproc.points_drawn": len(result)}


def _reranked(original):
    return lambda args, kwargs, result: {"dynamics.points_reranked": len(args[0]),
                                         "dynamics.reranks": 1}


def _tail_evals(original):
    # the tail probability has one entry per element of y
    return lambda args, kwargs, result: {"dynamics.tail_prob.evals": result.size}


def _energy(original):
    signature = inspect.signature(original)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rows = len(args[0]) + len(args[1])
        return {
            "stattest.energy.pooled_rows": rows,
            "stattest.energy.dist_bytes": rows * rows * 8,
            "stattest.energy.gemm_flops": 2 * rows * rows * (bound.arguments["n_perm"] + 1),
        }
    return count


# target -> factory(original function) -> count(args, kwargs, result) -> {counter: increment}.
# Counts on every call, merged or not; dist_bytes and gemm_flops are computed
# from the arguments, not measured.
COUNTERS = {
    "pointproc:sample_gamma_arrivals": _drawn,
    "dynamics:evolve_additive": _reranked,
    "dynamics:evolve_multiplicative": _reranked,
    "dynamics:IncrementLaw.sum_tail_probability": _tail_evals,
    "stattest:energy_distance_perm_test": _energy,
}


def _resolve(target):
    """(owner, attribute, original) for a target, or None if it is missing."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    return (owner, attr, original) if callable(original) else None


class Tracer:
    """Per-span call counts and self times, summed over traced invocations."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counters = defaultdict(float)
        self.target_calls = {}
        self.missing = []
        self.counter_errors = set()
        self._stack = []
        self._patches = []
        for span, targets in SPANS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, original = found
                factory = COUNTERS.get(target)
                count = factory(original) if factory else None
                self.target_calls[target] = 0
                self._patches.append((owner, attr, original,
                                      self._wrap(span, target, original, count)))

    def uncalled(self):
        """Targets that exist but that no traced invocation called."""
        return [target for target, n in self.target_calls.items() if n == 0]

    def layer_self_s(self):
        layers = defaultdict(float)
        for span, seconds in self.self_s.items():
            layers[span.split(".")[0]] += seconds
        return dict(layers)

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _count(self, target, count, args, kwargs, result):
        try:
            increments = count(args, kwargs, result)
        except (LookupError, TypeError, AttributeError):
            self.counter_errors.add(target)
            return
        for name, value in increments.items():
            self.counters[name] += value

    def _wrap(self, span, target, original, count):
        stack, perf_counter = self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.target_calls[target] += 1
            if stack and stack[-1][0] == span:
                result = original(*args, **kwargs)
            else:
                frame = [span, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self.calls[span] += 1
                    self.self_s[span] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if count is not None:
                self._count(target, count, args, kwargs, result)
            return result

        return traced
