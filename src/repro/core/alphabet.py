"""Sequence alphabets (Section 2.2.1 of the paper).

An :class:`Alphabet` describes the ``char_t`` a kernel consumes: how many
bits one symbol occupies in device memory, whether the symbol is a scalar
code (DNA base, amino acid, quantised current level) or a struct (a complex
sample for DTW, a frequency column for profile alignment), and — for
discrete alphabets — how many distinct symbols exist.

Struct symbols are represented at runtime as plain tuples whose positions
are named by :attr:`Alphabet.fields`; during datapath tracing the same
positions are populated with :class:`~repro.core.trace.TracedValue`
operands of the declared field widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Sequence, Set, Tuple, Type, Union

from repro.core.trace import DatapathGraph, TracedValue


def _all_numbers(
    types: Set[type], allowed: Union[Type, Tuple[Type, ...]]
) -> bool:
    """Whether every type subclasses ``allowed`` — ``bool`` excluded,
    although it subclasses ``int``."""
    return all(
        issubclass(t, allowed) and not issubclass(t, bool) for t in types
    )


@dataclass(frozen=True)
class Alphabet:
    """Description of one kernel's input symbol type (``char_t``).

    Parameters
    ----------
    name:
        Human-readable identifier.
    storage_bits:
        Bits one symbol occupies in sequence memory on the device.
    size:
        Number of distinct symbols for discrete alphabets (``None`` for
        numeric alphabets such as signals).
    fields:
        ``(field_name, field_bits)`` pairs for struct symbols; empty for
        scalar symbols.
    """

    name: str
    storage_bits: int
    size: int = 0
    fields: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_struct(self) -> bool:
        """Whether symbols are tuples of named components."""
        return bool(self.fields)

    def traced_symbol(self, graph: DatapathGraph) -> Any:
        """Build the symbolic operand a traced ``PE_func`` receives."""
        if not self.is_struct:
            return TracedValue(graph, self.storage_bits)
        return tuple(TracedValue(graph, bits) for _name, bits in self.fields)

    def validate_symbol(self, symbol: Any) -> bool:
        """Runtime check that ``symbol`` matches the alphabet."""
        return self.validate_sequence((symbol,))

    def validate_sequence(self, sequence: Sequence[Any]) -> bool:
        """Whether every symbol of ``sequence`` matches the alphabet.

        One pass of builtins over the whole sequence (``type``, ``len``,
        ``min``/``max``), with no Python call per symbol: codes of a
        sized alphabet are ints in ``[0, size)``, numeric symbols are
        ints or floats, struct symbols are tuples of ``len(fields)``
        ints or floats.  ``bool`` is never a number here.
        """
        types = set(map(type, sequence))
        if not types:
            return True
        if self.is_struct:
            return (
                all(issubclass(t, tuple) for t in types)
                and set(map(len, sequence)) == {len(self.fields)}
                and _all_numbers(
                    set(map(type, chain.from_iterable(sequence))),
                    (int, float),
                )
            )
        if self.size:
            return (
                _all_numbers(types, int)
                and min(sequence) >= 0
                and max(sequence) < self.size
            )
        return _all_numbers(types, (int, float))


#: 2-bit DNA/RNA bases (A=0, C=1, G=2, T/U=3).
DNA = Alphabet("dna", storage_bits=2, size=4)

#: 3-bit DNA with an explicit gap symbol, used by the PairHMM/Viterbi kernel
#: whose 5x5 emission matrix covers {A, C, G, T, -}.
DNA_WITH_GAP = Alphabet("dna_gap", storage_bits=3, size=5)

#: 5-bit amino-acid codes (20 canonical residues).
PROTEIN = Alphabet("protein", storage_bits=5, size=20)

#: Profile alignment columns: frequencies of {A, C, G, T, gap} at one
#: alignment position, each a 16-bit fixed-point fraction.
PROFILE_DNA = Alphabet(
    "profile_dna",
    storage_bits=5 * 16,
    fields=(("a", 16), ("c", 16), ("g", 16), ("t", 16), ("gap", 16)),
)

#: Complex temporal samples for DTW basecalling: 24-bit fixed-point
#: real and imaginary parts (``ap_fixed<24,12>`` each).
COMPLEX_SIGNAL = Alphabet(
    "complex_signal", storage_bits=48, fields=(("re", 24), ("im", 24))
)

#: Integer-quantised nanopore current levels for sDTW (SquiggleFilter uses
#: 8-bit normalised samples).
INT_SIGNAL = Alphabet("int_signal", storage_bits=8)

#: Convenience index for tests and the kernel registry.
STANDARD_ALPHABETS = {
    alpha.name: alpha
    for alpha in (DNA, DNA_WITH_GAP, PROTEIN, PROFILE_DNA, COMPLEX_SIGNAL, INT_SIGNAL)
}

DNA_LETTERS = "ACGT"
PROTEIN_LETTERS = "ARNDCQEGHILKMFPSTWYV"


def encode_dna(sequence: str) -> Tuple[int, ...]:
    """Encode an ACGT string into 2-bit codes (T and U both map to 3)."""
    table = {"A": 0, "C": 1, "G": 2, "T": 3, "U": 3}
    try:
        return tuple(table[ch] for ch in sequence.upper())
    except KeyError as exc:
        raise ValueError(f"not a DNA base: {exc.args[0]!r}") from None


def decode_dna(codes: Any) -> str:
    """Decode 2-bit codes back into an ACGT string."""
    return "".join(DNA_LETTERS[c] for c in codes)


def encode_protein(sequence: str) -> Tuple[int, ...]:
    """Encode a protein string into 5-bit amino-acid codes."""
    table = {ch: i for i, ch in enumerate(PROTEIN_LETTERS)}
    try:
        return tuple(table[ch] for ch in sequence.upper())
    except KeyError as exc:
        raise ValueError(f"not a canonical amino acid: {exc.args[0]!r}") from None


def decode_protein(codes: Any) -> str:
    """Decode 5-bit amino-acid codes back into a protein string."""
    return "".join(PROTEIN_LETTERS[c] for c in codes)
