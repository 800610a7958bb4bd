"""The compiled wavefront sweep: every alignment runs as part of a batch.

``compiled_align_batch`` packs B independent alignments into working
arrays ``(n_layers, B, (Q+1)*(R+1))`` and sweeps all B DP matrices'
anti-diagonals in lockstep: each diagonal of each layer is a single
NumPy expression over a ``(B, wavefront)`` operand block, so the
per-diagonal Python/NumPy dispatch overhead is paid once per diagonal
instead of once per pair per diagonal.  The generated ``_pe`` from
:mod:`repro.backend.compiler` is purely elementwise
(``np.where``/``maximum``/arithmetic/table gathers), so the batch axis
folds in by shaping operands — no compiler change.
:func:`compiled_align` is the same sweep over a batch of one.

This is the inter-sequence parallelism of the DP-HLS PE-array packing,
applied one level up: instead of many PEs per pair, many pairs per
sweep.

Bit-identity contract (enforced by ``repro.verify_fuzz``'s differential
legs, ``tests/test_backend_batch.py`` and
``tests/test_backend_equivalence.py``): for every pair, the returned
:class:`~repro.core.result.AlignmentResult` — score *and its Python
type*, start/end cells, traceback moves, :class:`CycleReport`, collected
matrix — equals :func:`repro.systolic.engine.align` on that pair alone.
The argument is:

* pairs are bucketed by ``(params identity, padded lengths)``; lengths
  are padded up to :data:`PAD_QUANTUM` multiples so mixed-length batches
  share buckets with bounded waste (recorded via ``engine.batch.*``
  counters and the ``engine.batch.waste_frac`` gauge).  A bucket's
  arrays are sized to its longest query and reference, not to the
  padded key;
* each matrix is stored row-major and flat, so cell (i, j) of diagonal
  ``d`` sits at offset ``i*(R+1) + j = i*R + d``: a diagonal's cells are
  ``R`` apart, and its up/left/diag neighbours are the same stride
  shifted by ``-(R+1)``, ``-1`` and ``-(R+2)``.  Every read and write is
  a strided view, never a gather;
* cell (i, j) on diagonal ``d`` depends only on diagonals ``d-1``
  (up/left) and ``d-2`` (diag), so writing in ``d`` order always reads
  finished values;
* banding is applied by *storage* masking: out-of-band cells — and
  init row/column cells beyond the band — hold the sentinel, which is
  exactly what the engine's boundary muxes and the oracle's
  ``neighbour()`` return for out-of-band coordinate reads;
* when every lane spans the whole bucket (always for B=1, and for any
  uniform-shape bucket) every cell of the band range is a real cell and
  results are written straight through.  Otherwise the band range at
  diagonal ``d`` intersected with the per-lane validity mask
  ``(i <= len_q) & (j <= len_r)`` is *exactly* the pair's own active
  set: the bucket box only relaxes the ``i >= d - n_cols`` /
  ``i <= n_rows`` limits, the mask restores them, and the banding clip
  depends on ``d`` alone.  Masked lanes still flow through ``_pe``, but
  are zeroed before quantization (so wrap-mode int conversion never sees
  values a real pair could not produce) and their writes are discarded;
* valid cells' neighbour reads never leave the pair's own region
  (indices only decrease), and every cell there holds the per-pair
  value: init row/column are written per pair and masked writes never
  touch cells outside a pair's active set;
* the computed-cell set is the closed-form band geometry
  (:func:`~repro.backend.wavefront.computed_cells`), the start-cell
  argmax runs on each pair's own ``(len_q+1, len_r+1)`` slice, where
  row-major order is (i, j)-lexicographic, preserving the engine's
  smallest-(i, j) tie break;
* quantization uses the score type's ``quantize_array``, bit-identical
  to the scalar ``quantize`` applied per cell;
* traceback walks each pair's own pointer slice; the cycle model is
  closed-form per pair (``n_pe``/``ii`` may vary across the batch).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.compiler import lower, runtime_params
from repro.backend.wavefront import (
    _DensePointerStore,
    assemble_matrix,
    computed_cells,
    cycle_report,
    select_start,
)
from repro.core.result import AlignmentResult
from repro.core.spec import KernelSpec
from repro.obs.recorder import Recorder, get_recorder
from repro.systolic.engine import (
    TRACEBACK_SETUP_CYCLES,
    check_corner,
    validate_pair,
)
from repro.systolic.traceback import walk_traceback

#: Pair lengths are padded up to the next multiple of this before
#: bucketing, so a mixed-length batch lands in few buckets.  8 keeps the
#: worst-case padding waste per axis under one quantum (< 7 cells) while
#: collapsing the service's near-uniform length distributions into one
#: bucket per kernel.
PAD_QUANTUM = 8


def _padded(n: int) -> int:
    """``n`` rounded up to the bucket quantum (minimum one quantum)."""
    return max(PAD_QUANTUM, -(-n // PAD_QUANTUM) * PAD_QUANTUM)


def _per_pair(value: Any, n: int, name: str) -> List[int]:
    """Normalize an int-or-sequence knob to one int per pair."""
    if isinstance(value, (int, np.integer)):
        return [int(value)] * n
    values = [int(v) for v in value]
    if len(values) != n:
        raise ValueError(
            f"{name} sequence has {len(values)} entries for {n} pairs"
        )
    return values


def _batch_symbols(
    spec: KernelSpec,
    sequences: Sequence[Sequence[Any]],
    length: int,
    reverse: bool = False,
) -> Any:
    """Stack per-pair symbol operands into (B, length) arrays.

    ``reverse`` stores each sequence reversed and right-aligned, so
    symbol ``k`` of every lane lands in column ``length - 1 - k``.
    Padding holds 0 — a valid gather index for sized alphabets, so
    table lookups on masked-out lanes stay in range.
    """
    alphabet = spec.alphabet
    n_fields = len(alphabet.fields)
    dtype = np.intp if alphabet.size and not n_fields else np.float64
    arrays = [
        np.zeros((len(sequences), length), dtype=dtype)
        for _ in range(max(1, n_fields))
    ]
    for b, seq in enumerate(sequences):
        span = slice(length - len(seq), length) if reverse else slice(len(seq))
        if reverse:
            seq = seq[::-1]
        if n_fields:
            for k, arr in enumerate(arrays):
                arr[b, span] = [symbol[k] for symbol in seq]
        else:
            arrays[0][b, span] = np.asarray(seq, dtype=dtype)
    return tuple(arrays) if n_fields else arrays[0]


def _columns(symbols: Any, span: slice) -> Any:
    if isinstance(symbols, tuple):
        return tuple(field[:, span] for field in symbols)
    return symbols[:, span]


@dataclasses.dataclass
class _Pair:
    """One validated batch member plus its bucket coordinates."""

    query: Sequence[Any]
    reference: Sequence[Any]
    n_rows: int
    n_cols: int
    row0: np.ndarray
    col0: np.ndarray
    params: Any
    bucket: Optional["_Bucket"] = None
    lane: int = -1


@dataclasses.dataclass
class _Bucket:
    """All pairs sharing (params identity, padded shape): one sweep.

    After the sweep, ``work`` is ``(n_layers, B, Q+1, R+1)`` and
    ``ptrs`` ``(B, Q+1, R+1)``, with Q/R the longest member lengths.
    """

    params: Any
    pairs: List[_Pair] = dataclasses.field(default_factory=list)
    work: Optional[np.ndarray] = None
    ptrs: Optional[np.ndarray] = None


def _sweep_bucket(spec: KernelSpec, bucket: _Bucket) -> None:
    """Run one lockstep anti-diagonal sweep over a bucket's pairs.

    Fills ``bucket.work`` / ``bucket.ptrs`` with per-pair-identical
    contents; never raises for a well-formed bucket (per-pair failures
    surface later, in submission order, during finishing).
    """
    lanes = bucket.pairs
    n_lanes = len(lanes)
    n_layers = spec.n_layers
    sentinel = float(spec.sentinel())
    banding = spec.banding
    n_rows = max(pair.n_rows for pair in lanes)
    n_cols = max(pair.n_cols for pair in lanes)
    pitch = n_cols + 1
    full = all(
        pair.n_rows == n_rows and pair.n_cols == n_cols for pair in lanes
    )

    # Working matrices: float64 everywhere (exact for the <= 32-bit score
    # types), out-of-band cells pinned at the sentinel so neighbour reads
    # need no masking of their own.
    work = np.full(
        (n_layers, n_lanes, (n_rows + 1) * pitch), sentinel, dtype=np.float64
    )
    grid = work.reshape(n_layers, n_lanes, n_rows + 1, pitch)
    for b, pair in enumerate(lanes):
        grid[:, b, 0, : pair.n_cols + 1] = pair.row0.T
        grid[:, b, : pair.n_rows + 1, 0] = pair.col0.T
    if banding is not None:
        grid[:, :, 0, banding + 1:] = sentinel
        grid[:, :, banding + 1:, 0] = sentinel
    layers = list(work)

    ptrs: Optional[np.ndarray] = None
    if spec.has_traceback:
        ptrs = np.zeros((n_lanes, (n_rows + 1) * pitch), dtype=np.int64)

    compiled = lower(spec, bucket.params)
    scalars, tables = runtime_params(bucket.params)
    q_syms = _batch_symbols(spec, [pair.query for pair in lanes], n_rows)
    # references reversed, so the reference symbols of one diagonal
    # (j falling as i rises) are a forward slice as well
    r_syms = _batch_symbols(
        spec, [pair.reference for pair in lanes], n_cols, reverse=True
    )
    if not full:
        rows = np.arange(n_rows + 1)
        nq = np.asarray([pair.n_rows for pair in lanes])[:, None]
        nr = np.asarray([pair.n_cols for pair in lanes])[:, None]
    quantize_array = spec.score_type.quantize_array
    pe = compiled.fn

    for d in range(2, n_rows + n_cols + 1):
        ilo = max(1, d - n_cols)
        ihi = min(n_rows, d - 1)
        if banding is not None:
            # |i - (d - i)| <= W  <=>  (d - W) / 2 <= i <= (d + W) / 2
            ilo = max(ilo, (d - banding + 1) // 2)
            ihi = min(ihi, (d + banding) // 2)
        if ilo > ihi:
            continue
        # cells (i, d - i) for i in [ilo, ihi], at flat offsets i*R + d
        first = ilo * n_cols + d
        stop = ihi * n_cols + d + 1
        cells = slice(first, stop, n_cols)
        up = slice(first - pitch, stop - pitch, n_cols)
        left = slice(first - 1, stop - 1, n_cols)
        diag = slice(first - pitch - 1, stop - pitch - 1, n_cols)
        scores, ptr = pe(
            tuple(layer[:, up] for layer in layers),
            tuple(layer[:, diag] for layer in layers),
            tuple(layer[:, left] for layer in layers),
            _columns(q_syms, slice(ilo - 1, ihi)),
            _columns(r_syms, slice(n_cols - d + ilo, n_cols - d + ihi + 1)),
            scalars, tables,
        )
        if full:
            for layer, score in zip(layers, scores):
                layer[:, cells] = quantize_array(
                    np.asarray(score, dtype=np.float64)
                )
            if ptrs is not None:
                ptrs[:, cells] = ptr
            continue
        # the mask restores the per-pair  i >= d - n_cols  and
        # i <= n_rows  limits the bucket box relaxed
        i = rows[ilo: ihi + 1]
        mask = (i <= nq) & (d - i <= nr)
        for layer, score in zip(layers, scores):
            # zero the discarded lanes *before* quantizing so wrap-mode
            # int conversion never sees values a real pair cannot reach
            quantized = quantize_array(np.where(mask, score, 0.0))
            layer[:, cells] = np.where(mask, quantized, layer[:, cells])
        if ptrs is not None:
            ptrs[:, cells] = np.where(mask, ptr, ptrs[:, cells])

    bucket.work = grid
    if ptrs is not None:
        bucket.ptrs = ptrs.reshape(n_lanes, n_rows + 1, pitch)


def compiled_align(
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
    """Align one pair with the compiled wavefront backend.

    Accepts exactly the arguments of :func:`repro.systolic.engine.align`
    (``n_pe``/``ii`` only shape the reported cycle model here — the
    NumPy sweep has no PEs) and returns a bit-identical result.  The
    pair runs as a batch of one through :func:`compiled_align_batch`.
    """
    return compiled_align_batch(
        spec, [(query, reference)],
        params=None if params is None else [params],
        n_pe=n_pe, ii=ii,
        max_query_len=max_query_len, max_ref_len=max_ref_len,
        collect_matrix=collect_matrix, model_interface=model_interface,
    )[0]


def compiled_align_batch(
    spec: KernelSpec,
    pairs: Sequence[Tuple[Sequence[Any], Sequence[Any]]],
    params: Any = None,
    n_pe: Any = 32,
    ii: Any = 1,
    max_query_len: Optional[int] = None,
    max_ref_len: Optional[int] = None,
    collect_matrix: bool = False,
    model_interface: bool = True,
) -> List[AlignmentResult]:
    """Align a whole batch with one compiled sweep per bucket.

    ``params`` is a single ScoringParams instance for the whole batch
    (or ``None`` for the spec default) or one instance per pair;
    ``n_pe``/``ii`` likewise accept a single int or one per pair (they
    only shape the reported cycle model).  Returns results index-aligned
    with ``pairs``; validation and finishing errors raise exactly the
    exception the per-pair path would raise for the first failing pair
    in submission order.
    """
    recorder = get_recorder()
    pairs = list(pairs)
    if not pairs:
        return []
    if not recorder.enabled:
        return _batch_impl(
            spec, pairs, params, n_pe, ii, max_query_len, max_ref_len,
            collect_matrix, model_interface, recorder,
        )
    with recorder.span(
        "engine.align_batch", kernel=spec.name, pairs=len(pairs),
        backend="compiled",
    ):
        return _batch_impl(
            spec, pairs, params, n_pe, ii, max_query_len, max_ref_len,
            collect_matrix, model_interface, recorder,
        )


def _batch_impl(
    spec: KernelSpec,
    pairs: List[Tuple[Sequence[Any], Sequence[Any]]],
    params: Any,
    n_pe: Any,
    ii: Any,
    max_query_len: Optional[int],
    max_ref_len: Optional[int],
    collect_matrix: bool,
    model_interface: bool,
    recorder: Recorder,
) -> List[AlignmentResult]:
    n_pairs = len(pairs)
    if params is None:
        params_list: List[Any] = [spec.default_params] * n_pairs
    elif dataclasses.is_dataclass(params):
        params_list = [params] * n_pairs
    else:
        params_list = list(params)
        if len(params_list) != n_pairs:
            raise ValueError(
                f"params sequence has {len(params_list)} entries for "
                f"{n_pairs} pairs"
            )
    n_pe_list = _per_pair(n_pe, n_pairs, "n_pe")
    ii_list = _per_pair(ii, n_pairs, "ii")

    # Validate in submission order so the first bad pair raises exactly
    # what a single-pair call on it would raise.
    members: List[_Pair] = []
    for (query, reference), pair_params in zip(pairs, params_list):
        n_rows, n_cols = len(query), len(reference)
        max_q = max_query_len if max_query_len is not None else n_rows
        max_r = max_ref_len if max_ref_len is not None else n_cols
        validate_pair(spec, query, reference, max_q, max_r)
        row0 = spec.init_row_scores(pair_params, n_cols + 1)
        col0 = spec.init_col_scores(pair_params, n_rows + 1)
        check_corner(spec, row0, col0)
        members.append(_Pair(
            query=query, reference=reference,
            n_rows=n_rows, n_cols=n_cols,
            row0=row0, col0=col0, params=pair_params,
        ))

    # Bucket by (params identity, padded shape); insertion order keeps
    # the sweep sequence deterministic.
    param_slots: Dict[int, int] = {}
    buckets: Dict[Tuple[int, int, int], _Bucket] = {}
    for member in members:
        slot = param_slots.setdefault(id(member.params), len(param_slots))
        key = (slot, _padded(member.n_rows), _padded(member.n_cols))
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = _Bucket(params=member.params)
        member.bucket = bucket
        member.lane = len(bucket.pairs)
        bucket.pairs.append(member)

    padded_cells = 0
    for bucket in buckets.values():
        _sweep_bucket(spec, bucket)
        if recorder.enabled:
            _, n_lanes, rows, cols = bucket.work.shape
            padded_cells += n_lanes * int(np.count_nonzero(
                computed_cells(rows - 1, cols - 1, spec.banding)
            ))

    # Per-pair finishing in submission order (start rule, traceback,
    # cycle model, optional matrix) on each pair's own slice.
    results: List[AlignmentResult] = []
    total_wavefronts = 0
    lane_cells = 0
    for index, member in enumerate(members):
        bucket = member.bucket
        lane = member.lane
        n_rows, n_cols = member.n_rows, member.n_cols
        region = (slice(n_rows + 1), slice(n_cols + 1))
        computed = computed_cells(n_rows, n_cols, spec.banding)
        lane_cells += int(np.count_nonzero(computed))
        raw_score, start = select_start(
            spec, bucket.work[(spec.score_layer, lane) + region],
            computed, n_rows, n_cols,
        )
        # Restore the scalar engine's score type (Python int for ap_int
        # kernels, float for ap_fixed) — quantize is idempotent on
        # already quantized values.
        score = spec.quantize(float(raw_score))
        alignment = None
        traceback_cycles = 0
        if bucket.ptrs is not None:
            alignment = walk_traceback(
                spec, _DensePointerStore(bucket.ptrs[(lane,) + region]),
                start,
            )
            traceback_cycles = (
                alignment.aligned_length + TRACEBACK_SETUP_CYCLES
            )
        cycles = cycle_report(
            spec, n_rows, n_cols, n_pe_list[index], ii_list[index],
            traceback_cycles, model_interface,
        )
        total_wavefronts += cycles.wavefronts
        matrix: Optional[np.ndarray] = None
        if collect_matrix:
            matrix = assemble_matrix(
                spec, member.row0, member.col0,
                bucket.work[(slice(None), lane) + region], computed,
            )
        if alignment is not None:
            end = (alignment.query_start, alignment.ref_start)
        else:
            end = (0, 0)
        results.append(AlignmentResult(
            score=score, start=start, end=end,
            alignment=alignment, cycles=cycles, matrix=matrix,
        ))

    # Break the _Pair <-> _Bucket reference cycles so each sweep's dense
    # matrices free on refcount rather than waiting for a gc pass; the
    # streaming pipeline's bounded-memory guarantee depends on wavefront
    # buffers dying before the next chunk allocates its own.
    for member in members:
        member.bucket = None
    for bucket in buckets.values():
        bucket.pairs.clear()
        bucket.work = bucket.ptrs = None

    if recorder.enabled:
        recorder.count("engine.alignments", n_pairs)
        recorder.count("engine.wavefronts", total_wavefronts)
        recorder.count("engine.cells", lane_cells)
        recorder.count("engine.cells_total{backend=compiled}", lane_cells)
        recorder.count("engine.batch.sweeps", len(buckets))
        recorder.count("engine.batch.pairs", n_pairs)
        recorder.count("engine.batch.lane_cells", lane_cells)
        recorder.count("engine.batch.padded_cells", padded_cells)
        if padded_cells:
            recorder.gauge(
                "engine.batch.waste_frac",
                1.0 - lane_cells / padded_cells,
            )
    return results
