"""Vocabulary, token sequences, decode configuration, and decode traces.

Token sequences are plain tuples of ints. Two shapes matter everywhere:
an encoder input prepared as ``(BOS, x_1..x_n, PAD)`` and a decoder output
``(BOS, o_1..o_m)`` that may end in EOS. Both are immutable and safe to
share across concurrent decode sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, filterfalse, groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

TokenIds = tuple[int, ...]

BOS_SURFACE = "<bos>"
EOS_SURFACE = "<eos>"
PAD_SURFACE = "<pad>"
UNK_SURFACE = "<unk>"
RESERVED_SURFACES = (BOS_SURFACE, EOS_SURFACE, PAD_SURFACE, UNK_SURFACE)

# Fixed character-scheme inventory: printable ASCII, space included.
PRINTABLE_ASCII = tuple(chr(c) for c in range(32, 127))

WHITESPACE = "whitespace"
CHARACTER = "character"


class _TextIds(dict):
    """tokenize's map, surface -> id: a surface it lacks is an unknown word."""

    def __missing__(self, surface: str) -> int:
        return 3  # Vocab's fixed UNK id


class Vocab:
    """Token inventory with reserved BOS/EOS/PAD/UNK ids fixed at 0..3.

    Surface strings must be unique and nonempty: neither scheme splits text
    into an empty token, and detokenize drops empty strings with the
    sentinels. Immutable after construction.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        surfaces = list(RESERVED_SURFACES)
        seen = set(surfaces)
        for tok in tokens:
            if tok in seen:
                raise ValueError(f"duplicate surface string: {tok!r}")
            if not tok:
                raise ValueError("empty surface string")
            seen.add(tok)
            surfaces.append(tok)
        self._surfaces: tuple[str, ...] = tuple(surfaces)
        self._ids: dict[str, int] = {s: i for i, s in enumerate(surfaces)}
        self.bos: int = 0
        self.eos: int = 1
        self.pad: int = 2
        self.unk: int = 3
        self.sentinel_ids: frozenset[int] = frozenset((self.bos, self.eos, self.pad))
        # tokenize's map: in text, the sentinel surfaces are unknown words
        self._text_ids = _TextIds((s, i) for s, i in self._ids.items() if i not in self.sentinel_ids)
        # detokenize's map: a sentinel renders as nothing
        self._texts: dict[int, str | None] = {
            i: None if i in self.sentinel_ids else s for i, s in enumerate(surfaces)
        }

    @classmethod
    def characters(cls) -> "Vocab":
        """Character-scheme vocabulary over the fixed printable-ASCII charset."""
        return cls(PRINTABLE_ASCII)

    def __len__(self) -> int:
        return len(self._surfaces)

    def id_of(self, surface: str) -> int:
        """Id for a surface string; unknown surfaces map to UNK."""
        return self._ids.get(surface, self.unk)

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._surfaces):
            raise ValueError(f"token id {token_id} out of range for vocab of size {len(self)}")
        return self._surfaces[token_id]

    def non_reserved_surfaces(self) -> tuple[str, ...]:
        return self._surfaces[len(RESERVED_SURFACES):]


def build_vocab(corpus: Iterable[str], scheme: str = WHITESPACE) -> Vocab:
    """Vocabulary for a corpus: its sorted unique tokens (whitespace scheme) or
    the fixed printable-ASCII charset (character scheme)."""
    if scheme == CHARACTER:
        return Vocab.characters()
    if scheme != WHITESPACE:
        raise ValueError(f"unsupported scheme: {scheme!r}")
    tokens = set()
    for line in corpus:
        tokens.update(line.split())
    tokens -= set(RESERVED_SURFACES)
    return Vocab(sorted(tokens))


def tokenize(text: str, scheme: str, vocab: Vocab) -> TokenIds:
    """Deterministic text -> ids; out-of-vocabulary surfaces, and the
    sentinel surfaces "<bos>", "<eos>" and "<pad>", become UNK."""
    if scheme == WHITESPACE:
        pieces = text.split()
    elif scheme == CHARACTER:
        pieces = list(text)
    else:
        raise ValueError(f"unsupported scheme: {scheme!r}")
    return tuple(map(vocab._text_ids.__getitem__, pieces))


def join_surfaces(surfaces: Iterable[str], scheme: str = WHITESPACE) -> str:
    """Surfaces joined as `scheme` split them: with spaces (whitespace scheme)
    or with nothing (character scheme, where a space is a token)."""
    if scheme == WHITESPACE:
        sep = " "
    elif scheme == CHARACTER:
        sep = ""
    else:
        raise ValueError(f"unsupported scheme: {scheme!r}")
    return sep.join(surfaces)


def detokenize(seq: Sequence[int], vocab: Vocab, scheme: str = WHITESPACE) -> str:
    """Ids -> surfaces joined by `join_surfaces`. Sentinels render as empty;
    UNK renders as "<unk>". An id out of range, or not an integer, raises
    for the first such id."""
    # A float id hashes as the int it equals, and would find that id's
    # surface, so a sum that is no int sends the ids through the check.
    if type(sum(seq)) is not int:
        for t in seq:
            vocab.surface(t)
    try:
        return join_surfaces(filter(None, map(vocab._texts.__getitem__, seq)), scheme)
    except KeyError:
        for t in seq:
            vocab.surface(t)  # raises for the first id out of range
        raise


def prepare_input(raw: Sequence[int], vocab: Vocab) -> TokenIds:
    """Wrap a sentinel-free sequence as (BOS, raw..., PAD).

    The single trailing PAD guarantees parallel verification always finds a
    disagreement by the input's end, since no scorer may emit PAD.
    """
    raw = tuple(raw)  # read once, so an iterator's tokens are not lost to the check
    sentinels = vocab.sentinel_ids
    if not sentinels.isdisjoint(raw):
        t = next(filter(sentinels.__contains__, raw))
        raise ValueError(f"sentinel id {t} not allowed in raw input")
    return (vocab.bos,) + raw + (vocab.pad,)


def strip_sentinels(seq: Sequence[int], vocab: Vocab) -> TokenIds:
    return tuple(filterfalse(vocab.sentinel_ids.__contains__, seq))


# --- decode configuration ---------------------------------------------------

GREEDY = "greedy"
BEAM = "beam"
AGGRESSIVE = "aggressive"
MODES = (GREEDY, BEAM, AGGRESSIVE)

AUTOREGRESSIVE = "autoregressive"

# How an l_max of None (no cap) is written in `--lmax` and in reports.
UNLIMITED = "unlimited"


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding strategy and its limits.

    max_len bounds the number of emitted tokens (BOS excluded); None derives
    2 * input_length + 16 per sentence. l_max caps how many tokens one
    parallel verification pass may copy; None means unlimited. beam_size
    applies to beam mode only, which ranks hypotheses by summed log-prob
    with no length penalty (see ``beam_decode`` for the key and the stop
    rule).
    """

    mode: str = GREEDY
    max_len: int | None = None
    l_max: int | None = None
    beam_size: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode: {self.mode!r}")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.l_max is not None and self.l_max < 1:
            raise ValueError("l_max must be >= 1 when finite")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")

    def resolve_max_len(self, input_len: int) -> int:
        return self.max_len if self.max_len is not None else 2 * input_len + 16


# --- decode traces ----------------------------------------------------------


# A NamedTuple: the decode loop builds one per pass, and a frozen dataclass
# takes three times as long to build.
class IterationRecord(NamedTuple):
    """One sequential decode-loop step.

    mode is "aggressive" (a parallel draft-and-verify pass) or
    "autoregressive" (a single-token step). source names where a pass's
    draft came from: "input" (a copy after a unique input suffix match),
    "output" (the continuation of an earlier occurrence of the output's last
    two tokens) or "aligned" (the input's re-entry after the last pass's
    bifurcation, the better of two branches verified together: as if the
    disagreeing token were inserted, or substituted). suffix_match carries
    the (index, anchor length - 1) pair that licensed the pass, indexing the
    draft's source sequence; an aligned pass's is (t - 1, -1) for its kept
    branch x[t:], placed by alignment with no suffix matched.
    positions_scored counts every row scored, a row shared by branches once.
    bifurcation is the output index of the first disagreeing token, when one
    was accepted. fallback says why aggressive decoding took an
    autoregressive step: "absent" (the last output token is not in the
    input) or "ambiguous" (it is, but no suffix is unique and the output
    offers no draft); it is None in every other record.
    """

    mode: str
    positions_scored: int
    accepted: int
    suffix_match: tuple[int, int] | None = None
    bifurcation: int | None = None
    source: str | None = None
    fallback: str | None = None


# A NamedTuple, as IterationRecord is: every decode builds one.
class DecodeTrace(NamedTuple):
    iterations: tuple[IterationRecord, ...]

    @property
    def sequential_iterations(self) -> int:
        return len(self.iterations)

    @property
    def positions_scored(self) -> int:
        return sum(r.positions_scored for r in self.iterations)

    @property
    def tokens_accepted(self) -> int:
        return sum(map(attrgetter("accepted"), self.iterations))


def _record_error(idx: int, rec: IterationRecord) -> str | None:
    """Why iteration idx's record is malformed, or None."""
    if rec.mode == AGGRESSIVE:
        if rec.accepted < 1:
            return f"aggressive iteration {idx} accepted {rec.accepted} < 1"
        if rec.positions_scored < rec.accepted:
            return f"iteration {idx} accepted {rec.accepted} > scored {rec.positions_scored}"
    elif rec.mode == AUTOREGRESSIVE:
        if rec.positions_scored != 1 or rec.accepted != 1:
            return f"autoregressive iteration {idx} must score and accept exactly one token"
    else:
        return f"iteration {idx} has unknown mode {rec.mode!r}"
    return None


def validate_trace(trace: DecodeTrace, output_len: int) -> None:
    """Post-hoc invariant check run after every decode.

    output_len counts emitted tokens, BOS excluded. A run of equal records
    is checked once (a decode's autoregressive steps share one record), and
    only a malformed one makes the check walk the trace, to name the first
    bad iteration.
    """
    if trace.tokens_accepted != output_len:
        raise ValueError(
            f"trace accepts {trace.tokens_accepted} tokens but output has {output_len}"
        )
    if any(_record_error(0, rec) for rec, _ in groupby(trace.iterations)):
        raise ValueError(next(filter(None, map(_record_error, count(), trace.iterations))))


# --- corpus IO ---------------------------------------------------------------


def load_corpus(path: str | Path) -> list[str]:
    r"""UTF-8 text, one sentence per line; a leading byte order mark is not
    text. Lines end at "\n" alone (reading turns "\r\n" and "\r" into it),
    and the last line needs none: "" holds no line and "\n" one empty line."""
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def load_parallel_corpus(source_path: str | Path, target_path: str | Path) -> tuple[list[str], list[str]]:
    """Two aligned one-sentence-per-line files with equal line counts."""
    src = load_corpus(source_path)
    tgt = load_corpus(target_path)
    if len(src) != len(tgt):
        raise ValueError(
            f"parallel corpora differ in length: {len(src)} vs {len(tgt)} lines"
        )
    return src, tgt


def corpus_to_ids(lines: Iterable[str], scheme: str, vocab: Vocab) -> list[TokenIds]:
    return [tokenize(line, scheme, vocab) for line in lines]
