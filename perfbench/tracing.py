"""Span recording from outside the program, for the traced run only.

Spans are recorded around the calls into each layer: the benchmark's own
calls into ``aggdec.core`` and the decoders, a scorer proxy around
``session()`` and ``score_positions``, and wrappers installed over the
``aggdec.decoding`` module-level names for the duration of one traced
operation. Each span keeps its name, start, end, parent span and the
operation (one sentence) it belongs to. Spans stay in memory as flat columns
and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from aggdec import decoding
from aggdec.transformer import decoder_flops_per_position

NAMES = (
    "greedy", "aggressive", "tokenize", "prepare_input", "detokenize",
    "session", "score", "argmax", "log_softmax", "suffix_match", "bifurcation",
    "validate_trace",
)
CODE = {name: code for code, name in enumerate(NAMES)}

# aggdec.decoding attribute -> span name; decoding looks these up as module
# globals at call time, so replacing the attribute reaches every call site.
DECODING_CALLS = {
    "find_suffix_match": "suffix_match",
    "argmax_with_tiebreak": "argmax",
    "log_softmax": "log_softmax",
    "find_bifurcation": "bifurcation",
    "validate_trace": "validate_trace",
}


class Tracer:
    def __init__(self):
        self.op = 0                      # id shared by every span of the current sentence
        self._ops = array("i")
        self._names = array("b")
        self._parents = array("i")
        self._starts = array("q")
        self._ends = array("q")
        self._positions = array("i")     # positions scored, for score spans
        self._macs = array("d")          # modelled decoder MACs, for score spans
        self._stack: list[int] = []
        self._originals = {attr: getattr(decoding, attr) for attr in DECODING_CALLS}
        self._wrapped = {
            attr: self.wrap(name, self._originals[attr]) for attr, name in DECODING_CALLS.items()
        }

    def open(self, name: str) -> int:
        idx = len(self._names)
        self._ops.append(self.op)
        self._names.append(CODE[name])
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._positions.append(0)
        self._macs.append(0.0)
        self._ends.append(0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def annotate(self, idx: int, positions: int, macs: float) -> None:
        self._positions[idx] = positions
        self._macs[idx] = macs

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    @contextmanager
    def installed(self):
        """Route the decoders' helper calls through span wrappers."""
        for attr, fn in self._wrapped.items():
            setattr(decoding, attr, fn)
        try:
            yield
        finally:
            for attr, fn in self._originals.items():
                setattr(decoding, attr, fn)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "op": np.frombuffer(self._ops, dtype=np.int32),
            "name": np.frombuffer(self._names, dtype=np.int8),
            "parent": np.frombuffer(self._parents, dtype=np.int32),
            "start_ns": np.frombuffer(self._starts, dtype=np.int64),
            "end_ns": np.frombuffer(self._ends, dtype=np.int64),
            "positions": np.frombuffer(self._positions, dtype=np.int32),
            "macs": np.frombuffer(self._macs, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(NAMES), **self.columns())


class TracedScorer:
    """Scorer proxy: spans ``session()`` (which encodes the input) and every
    ``score_positions`` call of the session it returns."""

    def __init__(self, scorer, tracer: Tracer, transformer=None):
        self.vocab = scorer.vocab
        self._scorer = scorer
        self._tracer = tracer
        self._transformer = transformer

    def session(self, x):
        idx = self._tracer.open("session")
        try:
            session = self._scorer.session(x)
        finally:
            self._tracer.close(idx)
        return _TracedSession(session, self._tracer, self._transformer, len(x))


class _TracedSession:
    def __init__(self, session, tracer: Tracer, transformer, memory_len: int):
        self._session = session
        self._tracer = tracer
        self._transformer = transformer
        self._memory_len = memory_len

    def score_positions(self, prefix, positions):
        tracer = self._tracer
        idx = tracer.open("score")
        try:
            return self._session.score_positions(prefix, positions)
        finally:
            tracer.close(idx)
            macs = 0.0
            if self._transformer is not None:
                # the cost model leaves out the output projection and the encoder
                macs = sum(
                    decoder_flops_per_position(self._transformer, p + 1, self._memory_len)
                    for p in positions
                )
            tracer.annotate(idx, len(positions), macs)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its child spans cover.

    Children of one span run one after another on one thread, so the part
    they cover is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(parent))
    return duration - covered
