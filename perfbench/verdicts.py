"""Known answers for every benchmark op, and the checker that compares.

An op's verdict is a dict of facts (check counts, exit codes, ranks).  The
checker never aborts a run: it returns the facts that differ from the known
answer, and the run counts an op with any such fact as a wrong verdict.

A fact listed in `KNOWN_DEFECTS` is a wrong verdict the program is known to
give.  It is still counted and printed as a wrong verdict on every run, but it
does not make the run fail, so the benchmark keeps measuring the workload
until the defect is fixed; once fixed, the fact simply matches.
"""

from __future__ import annotations

# check ids a +epsilon on phi[(1,1,1)][0][0] of a vec_zn(2,1) dump must fail:
# each of these identities is linear in that entry
TAMPER_MUST_FAIL = frozenset({"ff1", "ff2", "quasi-coassociativity"})

EXPECTED = {
    "fib-weak": {
        "axioms": (24, 24),                # (passed, total) weak + transport
        "rank_delta_tau_tau": 3,
    },
    "z3-approx": {
        "axioms": (24, 24),
    },
    "ising-twist-dump": {
        "twist": (4, 4),
        "check_hopf_seed_dump": (0, 25, 25),   # (exit, passed, total)
        "check_hopf_plus_one": (1, True),      # (exit, must-fail ids failed)
        "check_hopf_plus_1e-400": (1, True),
    },
}

KNOWN_DEFECTS = {
    ("ising-twist-dump", "check_hopf_plus_1e-400"):
        "exact verdicts are decided through the float embedding, so a "
        "perturbation of 1e-400 reads as zero and the tampered dump passes",
}


def mismatches(workload: str, facts: dict) -> list[str]:
    """Names of the facts that differ from the known answer (or are absent)."""
    return [key for key, want in EXPECTED[workload].items()
            if facts.get(key) != want]


def split_known(workload: str, wrong: list[str]) -> tuple[list, list]:
    """(known defects, unexpected mismatches) among `wrong`."""
    known = [k for k in wrong if (workload, k) in KNOWN_DEFECTS]
    return known, [k for k in wrong if (workload, k) not in KNOWN_DEFECTS]


def tamper_fact(exit_code: int, failed_ids) -> tuple:
    return (exit_code, TAMPER_MUST_FAIL <= set(failed_ids))
