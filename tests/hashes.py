"""Guard hashes: the sha256 of report bytes over fixed, seeded inputs.

Run from the repository root with `PYTHONPATH=src python3 tests/hashes.py`.
A change that must keep every report byte-identical prints the same six lines
before and after. With `--check` it also compares each hash with the one recorded
in RECORDED below, names every hash that differs and exits 1 if any does. Names
after the options pick hashes, e.g. `--check uplift churn random` for the three
that run the prefetcher; an unknown name exits 2. pytest does not collect this file.

- sweep:  the acceptance capacity sweep (600k events, 2000 keys, seed 600),
          five policies x k in {6, 32, 775}, one JSON report.
- uplift: LRU k=32 plain then with the default prefetcher, on 80k events of
          500 keys at seeds 0-9, twenty reports in one JSON report.
- churn:  the benchmark's five churn configs on its 12k-event, 4096-key trace
          at seeds 0-9, one JSON report per seed, concatenated.
- bayes:  the benchmark's bayes pass output at seeds 0-9, concatenated.
- plain:  1,000 random configs without prefetch or pre-eviction.
- random: 1,500 random configs, each with pre-eviction, prefetch, both or neither.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cachelab import (  # noqa: E402
    CacheConfig,
    PredictorConfig,
    PreEvictConfig,
    PrefetchConfig,
    RunConfig,
    compare,
    emit_report,
    gen_markov_trace,
    run_sim,
)
from cachelab.policies import POLICIES  # noqa: E402
from cachelab.prefetch import ON_EVERY_ACCESS, ON_MISS  # noqa: E402

import workloads  # noqa: E402

RECORDED = {
    "sweep": "36dfdc9f15832fad1ce600190e36432aacd2476f4d1781e1d41c7a74da15e666",
    "uplift": "811108537bdfd261b7064686b1d89e73aeec54cf20ae2306f58a2d5ef2e27182",
    "churn": "fba732a0839780f1ff4e814c876825dd73ac23341049f95089d8ad84a06ccf42",
    "bayes": "97700761949b4cdcaedb8298b759405fe04a00cc81733f32e873b98f0bb2ca35",
    "plain": "12b77fe7048c7bef134af2d0457da502c29b7bc41bdcf81160e68f2bd93741a6",
    "random": "4012c01aeb4ba019d0b89c5482ed60a5f15fcda1001bc108efbcce55f856eb95",
}


def sha(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
    return digest.hexdigest()


def sweep():
    trace = gen_markov_trace(seed=600, num_keys=2000, length=600_000, determinism=0.8)
    yield emit_report(compare(trace, workloads.sweep_configs()), "json")


def uplift():
    reports = []
    for seed in range(10):
        trace = gen_markov_trace(seed=seed, num_keys=500, length=80_000, determinism=0.9)
        reports.append(run_sim(trace, RunConfig(cache=CacheConfig(32, "lru"), label="lru")))
        reports.append(run_sim(trace, RunConfig(cache=CacheConfig(32, "lru"), label="lru+pgm",
                                                prefetch=PrefetchConfig(),
                                                predictor=PredictorConfig())))
    yield emit_report(reports, "json")


def churn():
    for seed in range(10):
        trace = gen_markov_trace(seed, workloads.CHURN_KEYS, 12_000, 0.5)
        yield emit_report(compare(trace, workloads.churn_configs()), "json")


def bayes():
    for seed in range(10):
        yield workloads.bayes_pass(workloads.build_inputs("bayes", seed)).output


def random_case(rng, extras):
    """A seeded trace and one config on it; extras adds pre-eviction and prefetch."""
    num_keys = rng.randint(2, 299)
    trace = gen_markov_trace(rng.randrange(1 << 30), num_keys, rng.randint(1, 2999),
                             rng.choice((0.0, 0.5, 0.8, 0.95, 1.0)))
    cache = CacheConfig(rng.randint(1, max(1, num_keys // 2)), rng.choice(POLICIES),
                        rng.choice(("unit", "ratio")))
    pre = prefetch = predictor = None
    if extras:
        timer, halfway = rng.choice(((False, False), (True, False), (False, True),
                                     (True, True)))
        if timer or halfway:
            pre = PreEvictConfig(halfway_enabled=halfway, address_space_size=num_keys + 1,
                                 timer_enabled=timer,
                                 timer_init=rng.randint(1, 3 * cache.capacity + 5))
        if rng.random() < 0.5:
            prefetch = PrefetchConfig(rng.randint(1, 3), rng.choice((0.0, 0.05, 0.3)),
                                      rng.choice((ON_MISS, ON_EVERY_ACCESS)))
            predictor = PredictorConfig(rng.randint(1, 2), rng.choice((0.0, 0.5, 1.0)),
                                        rng.randint(0, 3))
    return trace, RunConfig(cache=cache, pre=pre, prefetch=prefetch, predictor=predictor)


def random_reports(seed, count, extras):
    rng = random.Random(seed)
    for _ in range(count):
        trace, config = random_case(rng, extras)
        yield emit_report([run_sim(trace, config)], "json")


def plain():
    return random_reports(1000, 1000, extras=False)


def random_configs():
    return random_reports(1500, 1500, extras=True)


HASHES = {"sweep": sweep, "uplift": uplift, "churn": churn, "bayes": bayes, "plain": plain,
          "random": random_configs}
USAGE = f"usage: hashes.py [--check] [NAME ...], NAME one of {', '.join(HASHES)}"


def main(argv):
    check = "--check" in argv
    names = [arg for arg in argv if arg != "--check"]
    if any(name not in HASHES for name in names):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    differ = []
    for name in names or HASHES:
        digest = sha(HASHES[name]())
        print(f"{name:<7}{digest}", flush=True)
        if digest != RECORDED[name]:
            differ.append(name)
    if check and differ:
        print(f"differs from the recorded hash: {', '.join(differ)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:])
