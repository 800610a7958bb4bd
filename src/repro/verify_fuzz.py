"""Differential fuzzing of the systolic engine against its oracles.

The paper trusts its generated kernels because C-simulation cross-checks
them against known-good software.  This module is that step at campaign
scale: seeded random sequence pairs (randomized lengths and PE counts,
workload-realistic content) are pushed through four independent
implementations —

* the full systolic engine (:func:`repro.systolic.engine.align`),
* the compiled wavefront backend (:func:`repro.backend.compiled_align`),
* the row-major oracle (:func:`repro.reference.dp_oracle.oracle_align`),
* the textbook reference (:func:`repro.reference.dispatch.classic_score`),

and any disagreement on score, traceback start cell or move sequence is
recorded.  Engine-vs-oracle checks use score tolerance where the
references are float-based; the systolic-vs-compiled leg is *strict*
bit-identity — any divergence is reported as a ``backend_*`` failure
whose detail is the full three-way disagreement triple
(``systolic=... compiled=... oracle=...``).  A fifth leg re-runs every
kernel's cases as *one* :func:`repro.backend.compiled_align_batch`
lockstep sweep (mixed lengths, per-case PE counts) and compares each
slot bit-identically against the per-pair compiled result.  Both run the
same sweep, so the leg pits its masked branch (lanes of unequal shape)
against its unmasked one (a batch of one); any divergence is a
``batched_*`` failure.  A failing case is then *shrunk* — query and reference are
greedily truncated and thinned while the failure persists — so every
mismatch lands as a minimal reproducer ready to paste into a regression
test (see ``tests/test_fuzz_regressions.py``).

Corpus generation is a pure function of ``(kernels, cases, seed)`` via
:func:`repro.parallel.derive_seed`, so the same seed always yields a
byte-identical corpus and a report that is independent of ``workers``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import compiled_align, compiled_align_batch
from repro.cache.fingerprint import fingerprint, sequence_blob
from repro.core.spec import StartRule
from repro.experiments.workloads import WORKLOADS
from repro.kernels import get_kernel, kernel_ids
from repro.parallel import ParallelExecutor, derive_seed
from repro.reference.dispatch import classic_score
from repro.reference.dp_oracle import oracle_align
from repro.systolic.engine import align

#: PE counts a fuzz case may run the engine at — deliberately including
#: odd widths and widths larger than typical query lengths.
N_PE_CHOICES = (1, 2, 3, 4, 5, 8, 16)

#: Score tolerance when comparing against the float textbook references
#: (matches the campaign's fixed-point tolerance).
DEFAULT_ATOL = 1e-2


@dataclass(frozen=True)
class FuzzCase:
    """One randomized differential-test input."""

    kernel_id: int
    case_seed: int
    query: Tuple[Any, ...]
    reference: Tuple[Any, ...]
    n_pe: int

    def describe(self) -> str:
        """Compact one-line identification of the case."""
        return (
            f"kernel #{self.kernel_id} n_pe={self.n_pe} "
            f"|Q|={len(self.query)} |R|={len(self.reference)} "
            f"seed={self.case_seed}"
        )


@dataclass(frozen=True)
class FuzzFailure:
    """One differential check a case failed."""

    check: str
    detail: str


@dataclass(frozen=True)
class FuzzMismatch:
    """A failing case plus its shrunk minimal reproducer."""

    case: FuzzCase
    failure: FuzzFailure
    shrunk_query: Tuple[Any, ...]
    shrunk_reference: Tuple[Any, ...]
    shrink_rounds: int

    def summary(self) -> str:
        """Mismatch description plus the paste-ready minimal reproducer."""
        return (
            f"{self.case.describe()}: [{self.failure.check}] "
            f"{self.failure.detail}\n"
            f"    shrunk to |Q|={len(self.shrunk_query)} "
            f"|R|={len(self.shrunk_reference)} "
            f"after {self.shrink_rounds} rounds\n"
            f"    query={self.shrunk_query!r}\n"
            f"    reference={self.shrunk_reference!r}"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    seed: int
    cases_by_kernel: Dict[int, int] = field(default_factory=dict)
    mismatches: List[FuzzMismatch] = field(default_factory=list)
    harness_errors: List[str] = field(default_factory=list)
    batched_pairs: int = 0
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def total_cases(self) -> int:
        """Number of cases executed across all kernels."""
        return sum(self.cases_by_kernel.values())

    @property
    def passed(self) -> bool:
        """No differential mismatch and no harness crash."""
        return not self.mismatches and not self.harness_errors

    def summary(self) -> str:
        """Deterministic report text (identical for any worker count)."""
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"fuzz campaign: {status} — {self.total_cases} cases across "
            f"{len(self.cases_by_kernel)} kernels (seed {self.seed}), "
            f"{len(self.mismatches)} mismatches"
        ]
        if self.batched_pairs:
            batched_bad = sum(
                1 for m in self.mismatches
                if m.failure.check.startswith("batched_")
            )
            lines.append(
                f"  batched-vs-single differential: {self.batched_pairs} "
                f"pairs, {batched_bad} batch mismatches"
            )
        for kid in sorted(self.cases_by_kernel):
            lines.append(
                f"  kernel #{kid:>2} {get_kernel(kid).name:28s} "
                f"{self.cases_by_kernel[kid]:>5} cases"
            )
        for mismatch in self.mismatches:
            lines.append("  " + mismatch.summary().replace("\n", "\n  "))
        for error in self.harness_errors:
            lines.append(f"  harness error: {error}")
        return "\n".join(lines)


def _needs_equal_band(spec) -> bool:
    """Banded global kernels constrain |Q| - |R| to the band width."""
    return spec.banding is not None and spec.start_rule is StartRule.BOTTOM_RIGHT


def _random_length(rng: np.random.RandomState, limit: int) -> int:
    """A length in [1, limit], biased toward the small edge cases."""
    if limit <= 1:
        return 1
    if rng.rand() < 0.25:
        return int(rng.randint(1, min(5, limit) + 1))
    return int(rng.randint(1, limit + 1))


def generate_case(kernel_id: int, case_seed: int, max_len: int = 32) -> FuzzCase:
    """Build one deterministic randomized case for a kernel.

    Content comes from the kernel's stock workload generator (so profile,
    signal and protein kernels all get valid substrates); lengths and the
    PE count are randomized here, honouring banded-global length
    constraints.
    """
    spec = get_kernel(kernel_id)
    rng = np.random.RandomState(case_seed % (2 ** 32))
    base_query, base_reference = WORKLOADS[kernel_id].make_pairs(
        1, seed=int(case_seed % (2 ** 31))
    )[0]
    qlen = _random_length(rng, min(max_len, len(base_query)))
    rlen = _random_length(rng, min(max_len, len(base_reference)))
    if _needs_equal_band(spec):
        qlen = rlen = min(qlen, rlen)
    return FuzzCase(
        kernel_id=kernel_id,
        case_seed=case_seed,
        query=tuple(base_query[:qlen]),
        reference=tuple(base_reference[:rlen]),
        n_pe=int(rng.choice(N_PE_CHOICES)),
    )


def make_corpus(
    kernels: Optional[Sequence[int]] = None,
    cases_per_kernel: int = 10,
    seed: int = 0,
    max_len: int = 32,
) -> List[FuzzCase]:
    """Deterministic corpus: same arguments, byte-identical cases."""
    if cases_per_kernel < 1:
        raise ValueError(
            f"cases_per_kernel must be >= 1, got {cases_per_kernel}"
        )
    kids = sorted(kernels) if kernels is not None else kernel_ids()
    corpus: List[FuzzCase] = []
    counter = 0
    for kid in kids:
        for _ in range(cases_per_kernel):
            corpus.append(
                generate_case(kid, derive_seed(seed, counter), max_len=max_len)
            )
            counter += 1
    return corpus


def case_fingerprint(case: FuzzCase) -> str:
    """Content-addressed key of one fuzz case.

    Built from the same canonical machinery as the alignment cache
    (:mod:`repro.cache.fingerprint`), so a recorded reproducer and a
    served request over the same inputs share one keying discipline.
    """
    return fingerprint({
        # Version stamp of the differential harness a recorded reproducer
        # was found under ("four_way_v1" = systolic vs compiled vs oracle
        # plus the batched-vs-single compiled leg); bumping it retires
        # stale recorded digests explicitly.
        "harness": "four_way_v1",
        "kernel_id": case.kernel_id,
        "case_seed": case.case_seed,
        "n_pe": case.n_pe,
        "query": sequence_blob(case.query),
        "reference": sequence_blob(case.reference),
    })


def corpus_digest(corpus: Sequence[FuzzCase]) -> str:
    """SHA-256 over the per-case fingerprints (regression anchor)."""
    blob = hashlib.sha256()
    for case in corpus:
        blob.update(case_fingerprint(case).encode("ascii"))
        blob.update(b"\n")
    return blob.hexdigest()


def case_failures(
    case: FuzzCase,
    align_fn: Optional[Callable[..., Any]] = None,
    atol: float = DEFAULT_ATOL,
) -> List[FuzzFailure]:
    """Run every differential check on one case.

    ``align_fn`` substitutes for the systolic engine (tests inject faulty
    engines to exercise the shrinker); oracle/textbook failures propagate
    as exceptions because they mean the harness itself is broken.

    The engine leg is followed by a strict three-way backend leg: the
    compiled wavefront backend must reproduce the engine's score, start
    cell, move sequence and cycle totals *bit-identically* (no
    tolerance).  Disagreements are reported as ``backend_*`` failures
    whose detail carries the full systolic/compiled/oracle triple.
    """
    engine = align_fn if align_fn is not None else align
    spec = get_kernel(case.kernel_id)
    failures: List[FuzzFailure] = []

    expected = oracle_align(spec, case.query, case.reference)
    textbook = classic_score(case.kernel_id, case.query, case.reference)
    if not np.isclose(expected.score, textbook, atol=atol):
        failures.append(FuzzFailure(
            "oracle_vs_textbook",
            f"oracle {expected.score} != textbook {textbook}",
        ))

    try:
        actual = engine(
            spec, case.query, case.reference, n_pe=case.n_pe
        )
    except Exception as exc:  # noqa: BLE001 - an engine crash is a finding
        failures.append(FuzzFailure(
            "engine_exception", f"{type(exc).__name__}: {exc}"
        ))
        return failures

    if not np.isclose(actual.score, expected.score):
        failures.append(FuzzFailure(
            "engine_score",
            f"systolic {actual.score} != oracle {expected.score}",
        ))
        return failures
    if actual.start != expected.start:
        failures.append(FuzzFailure(
            "engine_start_cell",
            f"systolic {actual.start} != oracle {expected.start}",
        ))
    if spec.has_traceback:
        ours = actual.alignment.moves if actual.alignment else None
        theirs = expected.alignment.moves if expected.alignment else None
        if ours != theirs:
            failures.append(FuzzFailure(
                "engine_traceback", "recovered move sequences differ"
            ))

    # ------------------------------------------------------------------
    # compiled-backend leg: strict bit-identity against the engine, with
    # the oracle as the third voice of the disagreement triple.
    # ------------------------------------------------------------------
    try:
        lowered = compiled_align(
            spec, case.query, case.reference, n_pe=case.n_pe
        )
    except Exception as exc:  # noqa: BLE001 - a backend crash is a finding
        failures.append(FuzzFailure(
            "compiled_exception", f"{type(exc).__name__}: {exc}"
        ))
        return failures
    if lowered.score != actual.score:
        failures.append(FuzzFailure(
            "backend_score",
            f"systolic={actual.score} compiled={lowered.score} "
            f"oracle={expected.score}",
        ))
        return failures
    if lowered.start != actual.start:
        failures.append(FuzzFailure(
            "backend_start_cell",
            f"systolic={actual.start} compiled={lowered.start} "
            f"oracle={expected.start}",
        ))
    if spec.has_traceback:
        compiled_moves = lowered.alignment.moves if lowered.alignment else None
        if compiled_moves != ours:
            failures.append(FuzzFailure(
                "backend_traceback",
                f"systolic={_moves_str(ours)} "
                f"compiled={_moves_str(compiled_moves)} "
                f"oracle={_moves_str(theirs)}",
            ))
    if (
        actual.cycles is not None
        and lowered.cycles is not None
        and lowered.cycles != actual.cycles
    ):
        failures.append(FuzzFailure(
            "backend_cycles",
            f"systolic={actual.cycles.total} compiled={lowered.cycles.total}",
        ))
    return failures


def _moves_str(moves) -> str:
    """Compact CIGAR-like rendering of a move tuple for triple details."""
    if moves is None:
        return "<none>"
    return "".join(move.value for move in moves) or "<empty>"


def _valid_candidate(spec, query: tuple, reference: tuple) -> bool:
    if not query or not reference:
        return False
    if _needs_equal_band(spec):
        return abs(len(query) - len(reference)) <= spec.banding
    return True


def _shrink_candidates(query: tuple, reference: tuple):
    """Yield (query, reference) reductions, most aggressive first."""
    for side in ("query", "reference"):
        seq = query if side == "query" else reference
        reductions = []
        half = len(seq) // 2
        if half >= 1:
            reductions.append(seq[:half])   # front half
            reductions.append(seq[half:])   # back half
        if len(seq) > 1:
            reductions.append(seq[1:])      # drop first symbol
            reductions.append(seq[:-1])     # drop last symbol
            for pos in range(1, len(seq) - 1):
                reductions.append(seq[:pos] + seq[pos + 1:])
        for reduced in reductions:
            if side == "query":
                yield reduced, reference
            else:
                yield query, reduced


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_rounds: int = 64,
) -> Tuple[FuzzCase, int]:
    """Greedily minimize a failing case while ``still_fails`` holds.

    Each round tries progressively gentler reductions of the query and
    reference (halving, then single-symbol deletions) and restarts from
    the first one that still fails; shrinking stops when a full round
    yields no failing reduction (a local minimum) or after ``max_rounds``.
    Returns the minimal case and the number of accepted reductions.
    """
    spec = get_kernel(case.kernel_id)
    current = case
    rounds = 0
    while rounds < max_rounds:
        improved = False
        for query, reference in _shrink_candidates(
            current.query, current.reference
        ):
            if not _valid_candidate(spec, query, reference):
                continue
            candidate = FuzzCase(
                kernel_id=current.kernel_id,
                case_seed=current.case_seed,
                query=query,
                reference=reference,
                n_pe=current.n_pe,
            )
            try:
                failing = still_fails(candidate)
            except Exception:  # noqa: BLE001 - malformed reduction, skip
                failing = False
            if failing:
                current = candidate
                rounds += 1
                improved = True
                break
        if not improved:
            break
    return current, rounds


def _compare_batched(single, batched) -> List[FuzzFailure]:
    """Strict bit-identity checks between a per-pair compiled result and
    the same pair's slot in a batched sweep (no tolerance anywhere)."""
    failures: List[FuzzFailure] = []
    if batched.score != single.score or (
        type(batched.score) is not type(single.score)
    ):
        failures.append(FuzzFailure(
            "batched_score",
            f"single={single.score!r} batched={batched.score!r}",
        ))
        return failures
    if batched.start != single.start or batched.end != single.end:
        failures.append(FuzzFailure(
            "batched_start_cell",
            f"single={single.start}/{single.end} "
            f"batched={batched.start}/{batched.end}",
        ))
    single_moves = single.alignment.moves if single.alignment else None
    batched_moves = batched.alignment.moves if batched.alignment else None
    if single_moves != batched_moves:
        failures.append(FuzzFailure(
            "batched_traceback",
            f"single={_moves_str(single_moves)} "
            f"batched={_moves_str(batched_moves)}",
        ))
    if batched.cycles != single.cycles:
        failures.append(FuzzFailure(
            "batched_cycles",
            f"single={single.cycles.total if single.cycles else None} "
            f"batched={batched.cycles.total if batched.cycles else None}",
        ))
    return failures


def _batched_failures(
    corpus: Sequence[FuzzCase],
) -> Tuple[int, List[Tuple[FuzzCase, FuzzFailure]]]:
    """Batched-vs-single differential over a whole corpus.

    Each kernel's cases run as *one* ``compiled_align_batch`` sweep
    (mixed lengths and per-case PE counts, exactly as the service's
    batcher would hand them over) and every slot is compared strictly
    against a fresh per-pair ``compiled_align`` — a batch of one, which
    takes the sweep's unmasked branch where the mixed batch takes the
    masked one.  Cases whose single-pair run raises are skipped here —
    the per-case compiled leg already reports them.
    """
    failures: List[Tuple[FuzzCase, FuzzFailure]] = []
    pairs_checked = 0
    by_kernel: Dict[int, List[FuzzCase]] = {}
    for case in corpus:
        by_kernel.setdefault(case.kernel_id, []).append(case)
    for kid in sorted(by_kernel):
        spec = get_kernel(kid)
        singles = []
        runnable = []
        for case in by_kernel[kid]:
            try:
                singles.append(compiled_align(
                    spec, case.query, case.reference, n_pe=case.n_pe
                ))
            except Exception:  # noqa: BLE001 - reported by the single leg
                continue
            runnable.append(case)
        if not runnable:
            continue
        try:
            batched = compiled_align_batch(
                spec,
                [(case.query, case.reference) for case in runnable],
                n_pe=[case.n_pe for case in runnable],
            )
        except Exception as exc:  # noqa: BLE001 - a batch crash is a finding
            failures.append((runnable[0], FuzzFailure(
                "batched_exception",
                f"{type(exc).__name__}: {exc} "
                f"(batch of {len(runnable)}, singles all succeeded)",
            )))
            continue
        pairs_checked += len(runnable)
        for case, single, slot in zip(runnable, singles, batched):
            for failure in _compare_batched(single, slot):
                failures.append((case, failure))
    return pairs_checked, failures


def _fuzz_task(case: FuzzCase, _seed: int) -> List[Tuple[str, str]]:
    """Worker-side check of one case (picklable input and output)."""
    return [(f.check, f.detail) for f in case_failures(case)]


def run_corpus(
    corpus: Sequence[FuzzCase],
    seed: int = 0,
    workers: int = 1,
    align_fn: Optional[Callable[..., Any]] = None,
    shrink: bool = True,
) -> FuzzReport:
    """Differentially test every case in a corpus, shrinking failures.

    ``align_fn`` forces the serial path (an injected engine does not cross
    process boundaries) — used by tests to fault-inject; it also skips
    the batched-vs-single leg, which exists to check the real compiled
    backend against itself, not an injected fake.
    """
    started = time.perf_counter()
    report = FuzzReport(seed=seed)
    for case in corpus:
        report.cases_by_kernel[case.kernel_id] = (
            report.cases_by_kernel.get(case.kernel_id, 0) + 1
        )

    if align_fn is not None:
        outcomes = [
            (case, [(f.check, f.detail) for f in case_failures(case, align_fn)])
            for case in corpus
        ]
    else:
        executor = ParallelExecutor(workers=workers)
        batch = executor.map(_fuzz_task, list(corpus), seed=seed)
        outcomes = []
        for case, outcome in zip(corpus, batch.outcomes):
            if outcome.ok:
                outcomes.append((case, outcome.value))
            else:
                report.harness_errors.append(
                    f"{case.describe()}: {outcome.error.error_type}: "
                    f"{outcome.error.message}"
                )

    for case, failures in outcomes:
        for check, detail in failures:
            failure = FuzzFailure(check, detail)
            if shrink:
                def reproduces(candidate: FuzzCase, _check=check) -> bool:
                    return any(
                        f.check == _check
                        for f in case_failures(candidate, align_fn)
                    )

                minimal, rounds = shrink_case(case, reproduces)
            else:
                minimal, rounds = case, 0
            report.mismatches.append(FuzzMismatch(
                case=case,
                failure=failure,
                shrunk_query=minimal.query,
                shrunk_reference=minimal.reference,
                shrink_rounds=rounds,
            ))

    # ------------------------------------------------------------------
    # batched-vs-single leg: every kernel's cases as one lockstep sweep,
    # slots compared bit-identically to fresh per-pair compiled runs.
    # Not shrunk — the reproducer is the whole batch, and the per-pair
    # inputs are already minimal fuzz cases.
    # ------------------------------------------------------------------
    if align_fn is None:
        pairs_checked, batched_failures = _batched_failures(corpus)
        report.batched_pairs = pairs_checked
        for case, failure in batched_failures:
            report.mismatches.append(FuzzMismatch(
                case=case,
                failure=failure,
                shrunk_query=case.query,
                shrunk_reference=case.reference,
                shrink_rounds=0,
            ))
    report.elapsed_s = time.perf_counter() - started
    return report


def fuzz(
    kernels: Optional[Sequence[int]] = None,
    cases_per_kernel: int = 10,
    seed: int = 0,
    workers: int = 1,
    max_len: int = 32,
    budget_s: Optional[float] = None,
) -> FuzzReport:
    """Top-level fuzzing entry point (the ``repro fuzz`` command).

    Fixed-size mode runs ``cases_per_kernel`` cases for every kernel.
    With ``budget_s``, rounds of fresh cases keep running until the time
    budget is spent (at least one round always completes); case seeds keep
    advancing across rounds so no input repeats.
    """
    kids = sorted(kernels) if kernels is not None else kernel_ids()
    started = time.perf_counter()
    report = FuzzReport(seed=seed)
    counter = 0
    rounds_done = 0
    while True:
        corpus = []
        for kid in kids:
            for _ in range(cases_per_kernel):
                corpus.append(
                    generate_case(kid, derive_seed(seed, counter), max_len=max_len)
                )
                counter += 1
        round_report = run_corpus(corpus, seed=seed, workers=workers)
        for kid, count in round_report.cases_by_kernel.items():
            report.cases_by_kernel[kid] = (
                report.cases_by_kernel.get(kid, 0) + count
            )
        report.mismatches.extend(round_report.mismatches)
        report.harness_errors.extend(round_report.harness_errors)
        report.batched_pairs += round_report.batched_pairs
        rounds_done += 1
        if budget_s is None:
            break
        if time.perf_counter() - started >= budget_s:
            break
    report.elapsed_s = time.perf_counter() - started
    return report
