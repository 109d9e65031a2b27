"""Weighted finite automata over the reals: representation and basic algebra.

A :class:`Wfa` holds an initial vector ``alpha``, a final covector ``beta``
and one square transition matrix per alphabet symbol.  States are column
vectors; reading a symbol applies its matrix on the left, so the value of a
word ``x = x1 ... xk`` is ``beta . (T[xk] @ ... @ T[x1] @ alpha)``.

Automata are immutable after construction (arrays are frozen), so all
operations here are pure functions and safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

Word = tuple[str, ...]
T = TypeVar("T")


def as_word(x: Iterable[str]) -> Word:
    """Normalize a word to a tuple of symbols.

    A plain string iterates per character, so it names a word over
    one-character symbols; pass a list or tuple for multi-character symbols.
    To read a word's text form, use :func:`parse_word`.
    """
    return tuple(x)


def all_words(alphabet: Sequence[str], max_len: int) -> list[Word]:
    """Every word of length at most ``max_len``: shortest first, then in ``alphabet`` order."""
    return [w for length in range(max_len + 1) for w in itertools.product(alphabet, repeat=length)]


def format_word(word: Sequence[str], alphabet: Sequence[str]) -> str:
    """The text form of ``word`` over ``alphabet``, which :func:`parse_word` reads back.

    The empty word is ``ε``.  Otherwise the symbols are concatenated when
    every symbol of the alphabet is one character, and separated by spaces
    when not.
    """
    if len(word) == 0:
        return "ε"
    return ("" if all(len(s) == 1 for s in alphabet) else " ").join(word)


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """The word over ``alphabet`` whose text form (see :func:`format_word`) is ``text``.

    ``ε`` and the empty string are the empty word.  Over an alphabet of
    one-character symbols each character other than whitespace is a symbol;
    over any other alphabet whitespace separates the symbols.  Symbols are
    checked against the alphabet where the word is used, by
    ``Wfa.check_word``.
    """
    if text in ("", "ε"):
        return ()
    symbols = text.split()
    return tuple("".join(symbols) if all(len(s) == 1 for s in alphabet) else symbols)


def checked_array(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """``value`` as a read-only float copy of ``shape`` with finite entries.

    A ``None`` in ``shape`` allows any length on that axis.  Every failure is
    a ``ValueError`` that names ``name``.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an integer past float range
        raise ValueError(f"{name} must hold numbers: {err}") from None
    if arr.shape != shape and (
        arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
    ):
        expected = str(shape).replace("None", "any")
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def check_budget(count, least: int, name: str = "budget") -> None:
    """Reject a count that is not an integer of at least ``least`` (NaN and inf included).

    Node budgets, depths, ranks, trials and horizons all pass through here.  A
    search stops when its count of nodes or products reaches the budget, so a
    budget that no count can equal would run unbounded; a float count is
    accepted when it is whole, and its callers take ``int(count)``.
    """
    if not (least <= count < np.inf and count % 1 == 0):
        raise ValueError(f"{name} must be an integer of at least {least}, got {count}")


def checked_symbols(symbols: Iterable[str], name: str) -> tuple[str, ...]:
    """``symbols`` in sorted order; a ``ValueError`` names ``name`` if it is empty or repeats a symbol.

    Each symbol must have a text form (see :func:`format_word`): it is not
    empty, not ``ε`` (the empty word) and holds no whitespace (the separator).
    """
    symbols = tuple(symbols)
    if len(symbols) == 0:
        raise ValueError(f"{name} must be non-empty")
    if "" in symbols:
        raise ValueError(f"{name} has an empty symbol")
    for sym in symbols:
        if sym == "ε" or any(ch.isspace() for ch in sym):
            raise ValueError(f"{name} has the symbol {sym!r}; a symbol may not be 'ε' or hold whitespace")
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"{name} has duplicate symbols: {symbols}")
    return tuple(sorted(symbols))


@dataclass(frozen=True)
class Wfa:
    """Dense weighted finite automaton ``(alphabet, alpha, beta, trans)``.

    ``alphabet`` is stored in canonical sorted order.  ``dim`` may be zero
    (the empty automaton computes the zero function); every matrix in
    ``trans`` must be ``dim x dim``.
    """

    alphabet: tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    trans: dict[str, np.ndarray]
    dim: int = field(init=False)

    def __post_init__(self):
        symbols = checked_symbols(self.alphabet, "alphabet")
        alpha = checked_array(self.alpha, "alpha", (None,))
        n = alpha.shape[0]
        beta = checked_array(self.beta, "beta", (n,))
        if set(self.trans) != set(symbols):
            raise ValueError(
                f"trans keys {sorted(self.trans)} do not match alphabet {sorted(symbols)}"
            )
        trans = {
            sym: checked_array(self.trans[sym], f"transition for {sym!r}", (n, n)) for sym in symbols
        }
        object.__setattr__(self, "alphabet", symbols)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "dim", n)

    def trans_stack(self) -> np.ndarray:
        """Transition matrices stacked in alphabet order, shape ``(k, n, n)``."""
        return np.stack([self.trans[s] for s in self.alphabet])

    def check_word(self, word: Iterable[str]) -> Word:
        word = as_word(word)
        for sym in word:
            if sym not in self.trans:
                raise ValueError(f"unknown symbol {sym!r}; alphabet is {list(self.alphabet)}")
        return word


def prefix_states(a: Wfa, word: Iterable[str]) -> np.ndarray:
    """Forward states along ``word``, shape ``(len(word) + 1, dim)``: row ``t`` is ``tau_{x<=t}(alpha)``."""
    word = a.check_word(word)
    states = np.empty((len(word) + 1, a.dim))
    states[0] = a.alpha
    for t, sym in enumerate(word, 1):
        states[t] = a.trans[sym] @ states[t - 1]
    return states


def discounted_sum(a: Wfa, word: Iterable[str], gamma: float) -> float:
    """Partial value ``sum_{t<=len(word)} gamma^t |beta . tau_{x<=t}(alpha)|`` of ``word``.

    ``gamma^t`` is a running product, so every caller sums a word's prefixes
    in the same order and gets the same bits.
    """
    total, gpow = 0.0, 1.0
    for state in prefix_states(a, word):
        total += gpow * abs(float(state @ a.beta))
        gpow *= gamma
    return total


def evaluate(a: Wfa, word: Iterable[str]) -> float:
    """Value of ``a`` on ``word``: ``beta . tau_word(alpha)``.

    The empty word gives ``beta . alpha``.  Raises ``ValueError`` when the
    value overflows floating point.
    """
    word = a.check_word(word)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(a.beta @ prefix_states(a, word)[-1])
    if not np.isfinite(value):
        raise ValueError(f"the value of {format_word(word, a.alphabet)} overflows floating point")
    return value


def reverse(a: Wfa) -> Wfa:
    """Reverse automaton: swaps alpha and beta and transposes each matrix.

    Satisfies ``evaluate(reverse(a), x) == evaluate(a, reversed(x))``.
    """
    return Wfa(
        alphabet=a.alphabet,
        alpha=a.beta,
        beta=a.alpha,
        trans={s: m.T for s, m in a.trans.items()},
    )


def with_initial(a: Wfa, v: np.ndarray) -> Wfa:
    """Copy of ``a`` with the initial vector replaced by ``v``."""
    v = checked_array(v, "initial vector", (a.dim,))
    return Wfa(alphabet=a.alphabet, alpha=v, beta=a.beta, trans=dict(a.trans))


def with_final(a: Wfa, w: np.ndarray) -> Wfa:
    """Copy of ``a`` with the final covector replaced by ``w``."""
    w = checked_array(w, "final vector", (a.dim,))
    return Wfa(alphabet=a.alphabet, alpha=a.alpha, beta=w, trans=dict(a.trans))


def difference(a1: Wfa, a2: Wfa) -> Wfa:
    """Direct-sum automaton computing ``f_a1 - f_a2``.

    Block-diagonal transitions, ``alpha = alpha1 ⊕ (-alpha2)``,
    ``beta = beta1 ⊕ beta2``.
    """
    if a1.alphabet != a2.alphabet:
        missing = set(a1.alphabet) ^ set(a2.alphabet)
        raise ValueError(f"alphabet mismatch; symbols not shared: {sorted(missing)}")
    n1, n2 = a1.dim, a2.dim
    alpha = np.concatenate([a1.alpha, -a2.alpha])
    beta = np.concatenate([a1.beta, a2.beta])
    trans = {}
    for sym in a1.alphabet:
        mat = np.zeros((n1 + n2, n1 + n2))
        mat[:n1, :n1] = a1.trans[sym]
        mat[n1:, n1:] = a2.trans[sym]
        trans[sym] = mat
    return Wfa(alphabet=a1.alphabet, alpha=alpha, beta=beta, trans=trans)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def load_json(path: str, from_doc: Callable[[object], T]) -> T:
    """Build a result from the JSON file at ``path``; every ``ValueError`` names ``path``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}")
        except (UnicodeDecodeError, RecursionError) as err:
            raise ValueError(f"{path}: invalid JSON: {err}")
    try:
        return from_doc(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}")


def json_text(doc) -> str:
    """Interchange text of a document: two-space indent and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def save_json(doc, path: str) -> None:
    """Write ``doc`` to ``path`` as :func:`json_text`."""
    with open(path, "w") as fh:
        fh.write(json_text(doc))


def check_document(doc, kind: str, fields: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a JSON object with exactly the fields in ``fields``."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{kind} document must be a JSON object, got {type(doc).__name__}")
    for key in fields:
        if key not in doc:
            raise ValueError(f"{kind} document missing field {key!r}")
    for key in doc:
        if key not in fields:
            raise ValueError(f"{kind} document has unknown field {key!r}")


def check_size(doc: Mapping, key: str) -> None:
    """Raise ``ValueError`` unless field ``key`` of ``doc`` is an integer, the length of the list ``alpha``."""
    n = doc[key]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"field {key!r} must be an integer, got {n!r}")
    if not isinstance(doc["alpha"], list) or len(doc["alpha"]) != n:
        raise ValueError(f"field 'alpha' must be a list of {key!r} = {n} numbers")


def symbol_list(doc: Mapping, key: str) -> tuple[str, ...]:
    """Field ``key`` of ``doc``, which must be a list of strings, as a tuple."""
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(value)


def matrix_map(doc: Mapping, key: str) -> dict:
    """Field ``key`` of ``doc``, which must be an object mapping symbols to matrices.

    JSON writes a 0-by-0 matrix as ``[]``, which is read as one.
    """
    value = doc[key]
    if not isinstance(value, Mapping):
        raise ValueError(f"field {key!r} must be an object mapping symbols to matrices")
    return {sym: np.zeros((0, 0)) if isinstance(rows, list) and not rows else rows
            for sym, rows in value.items()}


def wfa_to_dict(a: Wfa) -> dict:
    return {
        "alphabet": list(a.alphabet),
        "dim": a.dim,
        "alpha": a.alpha.tolist(),
        "beta": a.beta.tolist(),
        "trans": {s: m.tolist() for s, m in a.trans.items()},
    }


def wfa_from_dict(doc: Mapping) -> Wfa:
    check_document(doc, "WFA", ("alphabet", "dim", "alpha", "beta", "trans"))
    check_size(doc, "dim")
    return Wfa(alphabet=symbol_list(doc, "alphabet"), alpha=doc["alpha"], beta=doc["beta"],
               trans=matrix_map(doc, "trans"))


def load_wfa(path: str) -> Wfa:
    return load_json(path, wfa_from_dict)


def save_wfa(a: Wfa, path: str) -> None:
    save_json(wfa_to_dict(a), path)
