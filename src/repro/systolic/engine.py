"""Top-level systolic alignment engine.

``align`` runs one sequence pair through the full back-end pipeline the
paper's generated RTL implements:

1. sequential row/column score initialization (DP-HLS does not overlap this
   with compute — the source of its 7.7-16.8 % gap to hand-tuned RTL),
2. chunked wavefront computation on ``n_pe`` register-modelled PEs,
3. per-PE best-cell tracking and the cross-PE reduction,
4. the traceback FSM walk over banked pointer memory,
5. host-interface overhead accounting.

The PE dataflow is register-accurate: PE ``p`` reads its *up* input from PE
``p-1``'s output bus (one wavefront old), its *diag* input from a one-stage
delay register, its *left* input from its own output register, and PE 0
reads the preserved-row buffer filled by the last PE of the previous chunk.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import AlignmentResult, CycleReport
from repro.core.spec import KernelSpec, PEInput, StartRule, band_contains
from repro.obs.recorder import Recorder, get_recorder
from repro.systolic.schedule import chunk_schedules
from repro.systolic.tb_memory import TracebackMemory
from repro.systolic.traceback import BestCellTracker, walk_traceback

#: Host-interface cycles per transferred base — models the OpenCL transfer
#: and kernel-invocation overhead the paper's co-simulation includes.
#: Calibrated so kernel #1/#2 cycle totals land near Table 2.
INTERFACE_CYCLES_PER_BASE = 4

#: Fixed cycles to compute the traceback start address (the DSP-backed
#: pre-computation Section 7.1 mentions).
TRACEBACK_SETUP_CYCLES = 8


class SystolicAlignmentError(ValueError):
    """Raised for inputs the configured hardware could not process."""


def validate_pair(
    spec: KernelSpec,
    query: Sequence[Any],
    reference: Sequence[Any],
    max_q: int,
    max_r: int,
) -> None:
    """Input checks shared by every backend (systolic and compiled).

    Raises :class:`SystolicAlignmentError` with identical messages
    regardless of which backend runs the pair — part of the backends'
    bit-identical contract.
    """
    n_rows, n_cols = len(query), len(reference)
    if n_rows < 1 or n_cols < 1:
        raise SystolicAlignmentError("query and reference must be non-empty")
    if n_rows > max_q or n_cols > max_r:
        raise SystolicAlignmentError(
            f"sequence pair {n_rows}x{n_cols} exceeds configured maximums "
            f"{max_q}x{max_r}; use host-side tiling (repro.tiling) for "
            f"longer alignments"
        )
    # Check every symbol of each input against the alphabet so a
    # mis-encoded sequence fails here, naming its first bad symbol,
    # instead of scoring differently per backend or failing deep in the
    # PE function.
    alphabet = spec.alphabet
    for label, sequence in (("query", query), ("reference", reference)):
        if not alphabet.validate_sequence(sequence):
            bad = next(
                symbol for symbol in sequence
                if not alphabet.validate_symbol(symbol)
            )
            raise SystolicAlignmentError(
                f"{spec.name}: {label} symbol {bad!r} does not "
                f"match alphabet {alphabet.name!r}"
            )
    if spec.banding is not None and spec.start_rule is StartRule.BOTTOM_RIGHT:
        if abs(n_rows - n_cols) > spec.banding:
            raise SystolicAlignmentError(
                f"banded global alignment needs |Q - R| <= band "
                f"({abs(n_rows - n_cols)} > {spec.banding})"
            )


def check_corner(spec: KernelSpec, row0: np.ndarray, col0: np.ndarray) -> None:
    """Shared init consistency check: cell (0, 0) must be unambiguous."""
    if not np.allclose(row0[0], col0[0]):
        raise SystolicAlignmentError(
            f"{spec.name}: init_row[0] and init_col[0] disagree on the "
            f"corner cell: {row0[0]} vs {col0[0]}"
        )


def align(
    spec: KernelSpec,
    query: Sequence[Any],
    reference: Sequence[Any],
    params: Any = None,
    n_pe: int = 32,
    ii: int = 1,
    max_query_len: Optional[int] = None,
    max_ref_len: Optional[int] = None,
    collect_matrix: bool = False,
    model_interface: bool = True,
) -> AlignmentResult:
    """Align one sequence pair on a modelled ``n_pe``-PE systolic block.

    Parameters mirror the front-end knobs: ``params`` defaults to the
    kernel's ``default_params``; ``max_query_len``/``max_ref_len`` size the
    traceback memory (defaulting to the actual lengths); ``ii`` is the
    wavefront initiation interval the synthesis model derived;
    ``collect_matrix`` additionally returns the full score matrix for
    debugging and oracle comparison.

    Execution reports through the current :mod:`repro.obs` recorder:
    an ``engine.align`` span wrapping per-chunk ``engine.chunk`` spans,
    plus cell/wavefront/traceback-write counters.  With the default
    :class:`~repro.obs.recorder.NullRecorder` every recording call is a
    no-op whose overhead is bounded by ``benchmarks/test_obs_overhead``.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return _align_impl(
            spec, query, reference, params, n_pe, ii, max_query_len,
            max_ref_len, collect_matrix, model_interface, recorder,
        )
    with recorder.span(
        "engine.align", kernel=spec.name, query_len=len(query),
        ref_len=len(reference), n_pe=n_pe, ii=ii,
    ):
        return _align_impl(
            spec, query, reference, params, n_pe, ii, max_query_len,
            max_ref_len, collect_matrix, model_interface, recorder,
        )


def _align_impl(
    spec: KernelSpec,
    query: Sequence[Any],
    reference: Sequence[Any],
    params: Any,
    n_pe: int,
    ii: int,
    max_query_len: Optional[int],
    max_ref_len: Optional[int],
    collect_matrix: bool,
    model_interface: bool,
    recorder: Recorder,
) -> AlignmentResult:
    n_rows, n_cols = len(query), len(reference)
    max_q = max_query_len if max_query_len is not None else n_rows
    max_r = max_ref_len if max_ref_len is not None else n_cols
    validate_pair(spec, query, reference, max_q, max_r)
    if params is None:
        params = spec.default_params

    n_layers = spec.n_layers
    sentinel = spec.sentinel()
    sentinel_row = (sentinel,) * n_layers
    quantize = spec.score_type.quantize

    row0 = spec.init_row_scores(params, n_cols + 1)
    col0 = spec.init_col_scores(params, n_rows + 1)
    check_corner(spec, row0, col0)

    matrix: Optional[np.ndarray] = None
    if collect_matrix:
        matrix = np.full((n_layers, n_rows + 1, n_cols + 1), sentinel)
        matrix[:, 0, :] = row0.T
        matrix[:, :, 0] = col0.T

    tb_mem: Optional[TracebackMemory] = None
    if spec.has_traceback:
        tb_mem = TracebackMemory(n_pe, max_q, max_r, spec.tb_ptr_bits)
        tb_mem.begin_alignment(n_cols)

    tracker = BestCellTracker(spec, n_pe, n_rows, n_cols)
    cell = PEInput(
        up=sentinel_row, diag=sentinel_row, left=sentinel_row,
        qry=None, ref=None, params=params,
    )
    pe_func = spec.pe_func
    score_layer = spec.score_layer
    banding = spec.banding

    preserved: List[Tuple[float, ...]] = [tuple(row0[j]) for j in range(n_cols + 1)]
    bottom_right: Optional[Tuple[float, ...]] = None
    stride = n_cols + n_pe - 1
    chunks = chunk_schedules(n_rows, n_cols, n_pe, banding)
    total_wavefronts = 0
    cells_evaluated = 0
    tracing = recorder.enabled

    for chunk_idx, chunk in enumerate(chunks):
        chunk_started = time.monotonic() if tracing else 0.0
        base, rows = chunk.base, chunk.rows
        total_wavefronts += len(chunk.wavefronts)
        # Register state at chunk start (see module docstring).
        left_reg: List[Tuple[float, ...]] = [
            tuple(col0[base + p + 1]) for p in range(rows)
        ]
        diag_reg: List[Tuple[float, ...]] = [
            tuple(col0[base + p]) for p in range(rows)
        ]
        bus: List[Tuple[float, ...]] = [sentinel_row] * rows
        new_preserved: List[Tuple[float, ...]] = [sentinel_row] * (n_cols + 1)
        next_row = base + rows
        if next_row <= n_rows:
            new_preserved[0] = tuple(col0[next_row])
        addr_base = chunk_idx * stride

        for w in chunk.wavefronts:
            # Descending PE order so PE p reads PE p-1's *previous* output.
            for p in range(rows - 1, -1, -1):
                j = w - p + 1
                if not 1 <= j <= n_cols:
                    continue
                i = base + p + 1
                if p == 0:
                    up = preserved[j]
                    diag = preserved[j - 1]
                else:
                    up = bus[p - 1]
                    diag = diag_reg[p]
                    diag_reg[p] = up  # becomes diag of (i, j+1)
                if band_contains(banding, i, j):
                    if banding is not None:
                        # Skipped leading wavefronts leave registers stale;
                        # any neighbour outside the band reads as sentinel
                        # (the boundary mux of banded RTL designs).
                        if not band_contains(banding, i - 1, j):
                            up = sentinel_row
                        if not band_contains(banding, i - 1, j - 1):
                            diag = sentinel_row
                        if not band_contains(banding, i, j - 1):
                            left_reg[p] = sentinel_row
                    cell.up = up
                    cell.diag = diag
                    cell.left = left_reg[p]
                    cell.qry = query[i - 1]
                    cell.ref = reference[j - 1]
                    scores, ptr = pe_func(cell)
                    cells_evaluated += 1
                    out = tuple(quantize(s) for s in scores)
                    tracker.observe(p, i, j, out[score_layer])
                    if tb_mem is not None:
                        tb_mem.write(p, addr_base + w, ptr)
                    if matrix is not None:
                        for layer in range(n_layers):
                            matrix[layer, i, j] = out[layer]
                else:
                    out = sentinel_row
                left_reg[p] = out
                bus[p] = out
                if p == rows - 1:
                    new_preserved[j] = out
                if i == n_rows and j == n_cols:
                    bottom_right = out
        preserved = new_preserved
        if tracing:
            recorder.record_span(
                "engine.chunk", chunk_started, time.monotonic(),
                index=chunk_idx, rows=rows, wavefronts=len(chunk.wavefronts),
            )

    # ------------------------------------------------------------------
    # locate the reported score / traceback start cell
    # ------------------------------------------------------------------
    if spec.start_rule is StartRule.BOTTOM_RIGHT:
        if bottom_right is None:
            raise SystolicAlignmentError(
                f"{spec.name}: bottom-right cell was never computed"
            )
        score = bottom_right[score_layer]
        start = (n_rows, n_cols)
    else:
        score, si, sj = tracker.reduce()
        start = (si, sj)

    alignment = None
    traceback_cycles = 0
    if tb_mem is not None:
        with recorder.span("engine.traceback", start_row=start[0],
                           start_col=start[1]):
            alignment = walk_traceback(spec, tb_mem, start)
        traceback_cycles = alignment.aligned_length + TRACEBACK_SETUP_CYCLES

    if tracing:
        recorder.count("engine.alignments")
        recorder.count("engine.wavefronts", total_wavefronts)
        recorder.count("engine.cells", cells_evaluated)
        recorder.count("engine.cells_total{backend=systolic}", cells_evaluated)
        if total_wavefronts:
            recorder.gauge(
                "engine.pe_utilization",
                cells_evaluated / (total_wavefronts * n_pe),
            )
        if tb_mem is not None:
            recorder.count("engine.tb_writes", tb_mem.writes)
            recorder.count("engine.tb_bank_conflicts", tb_mem.bank_conflicts)

    cycles = CycleReport(
        init_cycles=(n_cols + 1) + (n_rows + 1),
        load_cycles=n_rows,
        compute_cycles=total_wavefronts * ii,
        reduction_cycles=(
            0 if spec.start_rule is StartRule.BOTTOM_RIGHT
            else tracker.reduction_cycles()
        ),
        traceback_cycles=traceback_cycles,
        interface_cycles=(
            INTERFACE_CYCLES_PER_BASE * (n_rows + n_cols)
            if model_interface else 0
        ),
        wavefronts=total_wavefronts,
        ii=ii,
    )
    if alignment is not None:
        end = (alignment.query_start, alignment.ref_start)
    else:
        end = (0, 0)
    return AlignmentResult(
        score=score,
        start=start,
        end=end,
        alignment=alignment,
        cycles=cycles,
        matrix=matrix,
    )
