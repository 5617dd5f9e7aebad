"""The fuzz campaign driver: generate, conform, shrink, persist.

:func:`run_fuzz` is the loop behind both ``python -m repro.fuzz`` and
the CI smoke job: it derives one case seed per budget step from the
master seed, runs the full oracle battery on each, and on divergence
hands the spec to the shrinker and writes the minimal repro into the
corpus.  Everything is deterministic in (seed, budget, profile).
"""

import time

from repro.fuzz import corpus as corpus_mod
from repro.fuzz.conform import ORACLES, conform_spec
from repro.fuzz.gen import describe_spec, generate_spec
from repro.fuzz.shrink import shrink_spec

#: Recognized campaign profiles (case sizes, batch widths).
PROFILES = ("quick", "deep")


def case_seed(master_seed, step):
    """The derived seed of one budget step (stable across versions)."""
    return (master_seed * 1_000_003 + step * 7_919) & 0x7FFFFFFF


class Failure:
    """One divergence found by a campaign, with its shrunk repro."""

    __slots__ = ("seed", "report", "shrunk", "shrink_steps",
                 "corpus_path")

    def __init__(self, seed, report, shrunk, shrink_steps,
                 corpus_path):
        self.seed = seed
        self.report = report
        self.shrunk = shrunk
        self.shrink_steps = shrink_steps
        self.corpus_path = corpus_path

    def __repr__(self):
        return "Failure(seed=%d, %d divergences, corpus=%r)" % (
            self.seed, len(self.report.divergences), self.corpus_path)


class CampaignResult:
    """The outcome of one :func:`run_fuzz` campaign."""

    def __init__(self, seed, budget, profile, cases, failures,
                 seconds, chaos=False, c_effective=0):
        self.seed = seed
        self.budget = budget
        self.profile = profile
        self.cases = cases
        self.failures = failures
        self.seconds = seconds
        self.chaos = chaos
        self.c_effective = c_effective

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        oracle_count = len(ORACLES) + (1 if self.chaos else 0)
        lines = [
            "fuzz campaign: seed=%d budget=%d profile=%s%s" % (
                self.seed, self.budget, self.profile,
                " chaos=on" if self.chaos else ""),
            "cases: %d conformed in %.1fs (%.0f oracle runs)" % (
                self.cases, self.seconds, self.cases * oracle_count),
            "C backend: %d/%d cases ran effectively in C" % (
                self.c_effective, self.cases),
        ]
        if self.ok:
            lines.append("result: PASS — zero divergences across all "
                         "oracle pairs")
        else:
            lines.append("result: FAIL — %d divergent case(s)"
                         % len(self.failures))
            for failure in self.failures:
                lines.append("  seed %d: %s" % (
                    failure.seed,
                    "; ".join(str(d)
                              for d in failure.report.divergences)))
                if failure.corpus_path:
                    lines.append("    shrunk in %d steps -> %s" % (
                        failure.shrink_steps, failure.corpus_path))
        return "\n".join(lines)


def run_fuzz(seed=0, budget=200, profile="quick",
             corpus_dir=corpus_mod.DEFAULT_CORPUS_DIR,
             max_failures=5, shrink=True, log=None, chaos=False):
    """Run one campaign; returns a :class:`CampaignResult`.

    ``budget`` is the number of generated cases.  Divergent cases are
    shrunk (unless ``shrink=False``) and persisted under
    ``corpus_dir`` (set it to None to skip persistence).  The campaign
    stops early once ``max_failures`` distinct failing cases have been
    collected.  ``log`` is an optional ``print``-like callable for
    progress output.  ``chaos=True`` adds the ``batch_chaos`` oracle
    to every case: the processes batch re-runs with an injected worker
    crash, and recovery must still be bit-identical.
    """
    if profile not in PROFILES:
        raise ValueError("unknown profile %r (choose from %s)"
                         % (profile, ", ".join(PROFILES)))
    start = time.perf_counter()
    failures = []
    cases = 0
    c_effective = 0
    for step in range(budget):
        derived = case_seed(seed, step)
        spec = generate_spec(derived, profile)
        report = conform_spec(spec, profile=profile, chaos=chaos)
        cases += 1
        c_effective += report.c_effective
        if log is not None and (step + 1) % 50 == 0:
            log("  ... %d/%d cases, %d failure(s)"
                % (step + 1, budget, len(failures)))
        if report.ok:
            continue
        if log is not None:
            log("divergence at case seed %d: %s"
                % (derived, describe_spec(spec)))
            for divergence in report.divergences:
                log("  " + str(divergence))
        shrunk, steps = (spec, 0)
        # The shrink predicate's last True verdict belongs to the spec
        # the loop accepted — i.e. the shrunk result — so its report
        # is reused instead of re-running the oracle battery on it.
        last_failing = {"report": report}

        def still_fails(candidate):
            candidate_report = conform_spec(candidate, profile=profile,
                                            chaos=chaos)
            if not candidate_report.ok:
                last_failing["report"] = candidate_report
            return not candidate_report.ok

        if shrink:
            shrunk, steps = shrink_spec(spec, still_fails)
            if log is not None:
                log("  shrunk in %d steps: %s"
                    % (steps, describe_spec(shrunk)))
        path = None
        if corpus_dir is not None:
            path = corpus_mod.save_entry(
                shrunk, corpus_dir=corpus_dir,
                divergences=last_failing["report"].divergences,
                profile=profile,
                note="found by seed %d (case seed %d)" % (seed,
                                                          derived))
            if log is not None:
                log("  repro written: %s" % path)
        failures.append(Failure(derived, report, shrunk, steps, path))
        if len(failures) >= max_failures:
            break
    return CampaignResult(seed, budget, profile, cases, failures,
                          time.perf_counter() - start, chaos=chaos,
                          c_effective=c_effective)
