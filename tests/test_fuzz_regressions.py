"""Named regression cases from differential fuzzing campaigns.

Provenance: the `repro fuzz` harness was run over every registered kernel
with seeds 0–2 (1,200 workload-realistic cases up to length 96) plus a
directed sweep of degenerate inputs (constant, periodic and
extreme-aspect-ratio sequences at PE counts 1–16).  No engine/oracle
mismatch survived — so rather than fixes, this file pins the exact case
classes those sweeps leaned on hardest, as cheap cross-implementation
checks that must keep passing when the engine or an oracle changes.

Each test is a minimal reproducer in fuzz-case form: if one starts
failing, `repro.verify_fuzz.shrink_case` on it will localise the break.

Since the harness became a three-way differential (PR 6), every
`_assert_clean` call also runs the compiled wavefront backend and
demands bit-identical scores, tracebacks and cycle reports — the
`TestThreeWayDifferential` classes below add the case classes that
sweep leaned on hardest while proving the compiled leg.
"""

import pytest

from repro.verify_fuzz import FuzzCase, case_failures


def _assert_clean(kid, query, reference, n_pe):
    case = FuzzCase(
        kernel_id=kid, case_seed=0,
        query=tuple(query), reference=tuple(reference), n_pe=n_pe,
    )
    failures = case_failures(case)
    assert failures == [], (
        f"{case.describe()} regressed: "
        + "; ".join(f"[{f.check}] {f.detail}" for f in failures)
    )


class TestConstantSequences:
    """All-same-symbol inputs: every cell ties, stressing tie-breaking."""

    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 6, 7))
    def test_constant_query_longer_reference(self, kid):
        _assert_clean(kid, (0,) * 7, (0,) * 11, n_pe=3)

    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 6, 7))
    def test_constant_reference_longer_query(self, kid):
        _assert_clean(kid, (0,) * 11, (0,) * 7, n_pe=4)

    @pytest.mark.parametrize("kid", (3, 4))
    def test_all_mismatch_local_kernels_score_zero_paths(self, kid):
        """Local kernels on disjoint constants: empty-alignment optimum."""
        _assert_clean(kid, (1,) * 5, (2,) * 5, n_pe=2)


class TestPeriodicSequences:
    """Repeated motifs create many co-optimal paths across chunk seams."""

    @pytest.mark.parametrize("n_pe", (1, 3, 8, 16))
    def test_alternating_vs_shifted_motif(self, n_pe):
        _assert_clean(2, (0, 1) * 6, (0, 1, 0, 1, 1) * 2, n_pe=n_pe)

    @pytest.mark.parametrize("kid", (1, 5, 7))
    def test_motif_against_reversed_motif(self, kid):
        _assert_clean(kid, (0, 1, 2, 3) * 4, (3, 2, 1, 0) * 4, n_pe=5)


class TestExtremeAspectRatios:
    """1xN and Nx1 matrices: the wavefront degenerates to a single PE."""

    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 6, 7))
    def test_single_base_query(self, kid):
        _assert_clean(kid, (0,), (0, 1, 2, 3) * 4, n_pe=8)

    @pytest.mark.parametrize("kid", (1, 2, 3, 4, 6, 7))
    def test_single_base_reference(self, kid):
        _assert_clean(kid, (2,) * 16, (2,), n_pe=3)


class TestBandedSeams:
    """Band boundary crossing a chunk boundary (n_pe indivisible)."""

    @pytest.mark.parametrize("kid", (11, 12, 13))
    def test_equal_length_band_edges(self, kid):
        _assert_clean(kid, (0, 1, 2, 3) * 9, (0, 1, 3, 3) * 9, n_pe=5)


class TestThreeWayQuantization:
    """Cases where scalar-vs-vector float behaviour could diverge.

    The compiled backend quantizes whole anti-diagonals with numpy while
    the engine quantizes cell-by-cell in Python; these pin the rounding
    seams (half-even ties, truncation toward zero, fixed-point
    resolution steps) where any discrepancy would first appear.
    """

    @pytest.mark.parametrize("n_pe", (1, 2, 7))
    def test_dtw_fixed_point_rounding(self, n_pe):
        from repro.data.signals import random_complex_signal

        qry = random_complex_signal(11, seed=31)
        ref = random_complex_signal(17, seed=32)
        _assert_clean(9, qry, ref, n_pe=n_pe)

    def test_viterbi_log_domain(self):
        from repro.experiments.workloads import WORKLOADS

        qry, ref = WORKLOADS[10].make_pairs(1, seed=33)[0]
        _assert_clean(10, qry[:13], ref[:19], n_pe=6)

    def test_profile_fractional_columns(self):
        from repro.data.profiles import profile_pair

        qry, ref = profile_pair(n_cols=14, seed=34)
        _assert_clean(8, qry[:9], ref[:14], n_pe=5)


class TestThreeWayBandEdges:
    """Band clipping is coordinate arithmetic in the compiled backend but
    boundary muxes in the engine — pin the seams where they must agree."""

    @pytest.mark.parametrize("kid", (11, 13))
    def test_band_wider_than_matrix(self, kid):
        _assert_clean(kid, (0, 1, 2) * 3, (0, 2, 2) * 3, n_pe=4)

    @pytest.mark.parametrize("kid", (11, 12, 13))
    def test_wavefront_clipped_by_band(self, kid):
        # length > banding (32), so interior diagonals are clipped
        _assert_clean(kid, (0, 1, 2, 3) * 10, (0, 1, 2, 2) * 10, n_pe=7)

    def test_score_only_banded_local(self):
        _assert_clean(12, (1, 2, 3, 0) * 8, (1, 2, 0, 0) * 8, n_pe=3)


class TestThreeWayStartCellTies:
    """Co-optimal start cells: both implementations must break ties
    toward the smallest (i, j) in row-major order."""

    @pytest.mark.parametrize("kid", (3, 4, 6, 7))
    def test_constant_inputs_tie_everywhere(self, kid):
        _assert_clean(kid, (2,) * 9, (2,) * 9, n_pe=4)

    def test_overlap_suffix_prefix_tie(self):
        _assert_clean(6, (0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), n_pe=2)


class TestNonDnaSubstrates:
    """Signal/profile/protein kernels at odd PE counts (fuzz seeds 0-2)."""

    def test_dtw_short_warp(self):
        from repro.data.signals import random_complex_signal, warp_signal

        ref = random_complex_signal(18, seed=21)
        qry = warp_signal(ref, seed=22)[:13]
        _assert_clean(9, qry, ref, n_pe=3)

    def test_sdtw_subread(self):
        from repro.data.signals import sdtw_pair

        qry, ref = sdtw_pair(ref_bases=12, seed=23)
        _assert_clean(14, qry[:9], ref[:25], n_pe=5)

    def test_profile_columns(self):
        from repro.data.profiles import profile_pair

        qry, ref = profile_pair(n_cols=16, seed=24)
        _assert_clean(8, qry[:11], ref[:16], n_pe=4)

    def test_protein_blosum(self):
        from repro.data.protein import protein_pairs

        qry, ref = protein_pairs(1, length=20, seed=25)[0]
        _assert_clean(15, qry[:15], ref[:19], n_pe=3)


def _rejections(kid, query, reference, valid):
    """The error each backend raises on one invalid pair, as text; the
    batched call puts the ``valid`` pair ahead of it."""
    from repro.backend import compiled_align, compiled_align_batch
    from repro.kernels import get_kernel
    from repro.systolic import align
    from repro.systolic.engine import SystolicAlignmentError

    spec = get_kernel(kid)
    messages = []
    for run in (
        lambda: align(spec, query, reference, n_pe=4),
        lambda: compiled_align(spec, query, reference, n_pe=4),
        lambda: compiled_align_batch(spec, [valid, (query, reference)]),
    ):
        with pytest.raises(SystolicAlignmentError) as caught:
            run()
        messages.append(str(caught.value))
    return messages


class TestBoundaryValidation:
    """Inputs rejected at the boundary, with one error for every backend.

    Validation used to spot-check only the first symbol of each
    sequence, so a bad symbol further in reached the PE function and
    scored differently per backend (kernel 1, query ``(0, 1.5)``:
    -6 systolic, -2 compiled); and ``bool`` passed as an ``int`` code.
    """

    def test_non_integer_symbol_past_the_first(self):
        expected = (
            "global_linear: query symbol 1.5 does not match alphabet 'dna'"
        )
        assert _rejections(
            1, (0, 1.5), (0, 1, 2, 3), valid=((0, 1), (0, 1, 2, 3))
        ) == [expected] * 3

    def test_bool_symbol_is_not_a_code(self):
        from repro.core.alphabet import DNA

        assert not DNA.validate_symbol(True)
        expected = (
            "global_linear: reference symbol True does not match "
            "alphabet 'dna'"
        )
        assert _rejections(
            1, (0, 1, 2), (0, True, 2), valid=((0, 1, 2), (0, 1, 2))
        ) == [expected] * 3

    @pytest.mark.parametrize("kid", (9, 14, 15))
    def test_out_of_alphabet_symbol_in_the_tail(self, kid):
        from repro.experiments.workloads import WORKLOADS

        query, reference = WORKLOADS[kid].make_pairs(1, seed=kid)[0]
        query, reference = tuple(query[:6]), tuple(reference[:6])
        messages = _rejections(
            kid, query + ("x",), reference, valid=(query, reference)
        )
        assert len(set(messages)) == 1
        assert "query symbol 'x' does not match" in messages[0]
