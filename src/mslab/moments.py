"""Truncated *-moment vectors, non-crossing partitions, and free cumulants.

This is the exact oracle layer: moments of a tuple are stored as a finite map
from *-words to complex values, and free-probability predictions (free
products, free additive convolution, reference laws) are computed by the
moment/cumulant Moebius inversion over the lattice of non-crossing
partitions.  All arithmetic is complex double; the sums are small
integer-combinatorial objects, so 1e-12 tolerances are meaningful.

Starred letters are treated as distinct letters throughout (the usual
*-cumulant convention); self-adjointness shows up only through the
conjugate-symmetry invariant value(w*) = conj(value(w)).

Transforms need the value of every *restriction* of a stored word (the
subword at the positions of a partition block), so moment/cumulant vectors
are required to be closed under subsequences; ``validate`` checks this.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .formulas import StarWord

__all__ = [
    "MomentVector",
    "CumulantVector",
    "NonCrossingPartition",
    "enumerate_nc",
    "all_words",
    "subword_closure",
    "moments_to_cumulants",
    "cumulants_to_moments",
    "free_product_moments",
    "free_convolve",
    "reference_law",
]

MAX_LEN_CAP = 10


# ---------------------------------------------------------------------------
# Non-crossing partitions


@dataclass(frozen=True)
class NonCrossingPartition:
    """A non-crossing partition of {1..n}; blocks sorted by minimum."""

    n: int
    blocks: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b or list(b) != sorted(b):
                raise ValueError("blocks must be nonempty and sorted")
            seen.update(b)
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks must partition {1..n}")

    def __len__(self) -> int:
        return len(self.blocks)


_NC_CACHE: Dict[int, List[Tuple[Tuple[int, ...], ...]]] = {0: [()]}


def _nc_blocks(n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Non-crossing partitions of range(n), 0-based, each exactly once.

    The block of element 0 is a subsequence 0 = b_0 < b_1 < ... < b_k; the
    gaps between consecutive block elements (and after the last) must be
    partitioned internally, which is exactly the non-crossing condition.
    """
    if n in _NC_CACHE:
        return _NC_CACHE[n]
    out: List[Tuple[Tuple[int, ...], ...]] = []

    def shift(blocks, offset):
        return tuple(tuple(p + offset for p in b) for b in blocks)

    def extend(block: Tuple[int, ...], start: int, segments: List[Tuple[int, int]]):
        # close the block; trailing gap is [start, n)
        segs = segments + [(start, n)]
        choices = [_nc_blocks(b - a) for a, b in segs]
        def rec(i, acc):
            if i == len(segs):
                out.append((block,) + acc)
                return
            a, _ = segs[i]
            for sub in choices[i]:
                rec(i + 1, acc + shift(sub, a))
        rec(0, ())
        # or extend the block with any later element
        for nxt in range(start, n):
            extend(block + (nxt,), nxt + 1, segments + [(start, nxt)])

    extend((0,), 1, [])
    out.sort()
    _NC_CACHE[n] = out
    return out


def enumerate_nc(n: int) -> List[NonCrossingPartition]:
    """All non-crossing partitions of {1..n} in a canonical order."""
    if not (1 <= n <= 12):
        raise ValueError("enumerate_nc supports 1 <= n <= 12")
    return [
        NonCrossingPartition(n, tuple(tuple(p + 1 for p in b) for b in blocks))
        for blocks in _nc_blocks(n)
    ]


# ---------------------------------------------------------------------------
# Moment / cumulant vectors


def _word_key(w) -> StarWord:
    if isinstance(w, StarWord):
        return w
    return StarWord.parse(w) if w and w != "1" else StarWord()


def all_words(d: int, max_len: int) -> List[StarWord]:
    """Every *-word in d variables of length <= max_len (incl. the unit)."""
    letters = [(j, s) for j in range(1, d + 1) for s in (False, True)]
    out = [StarWord()]
    level: List[Tuple] = [()]
    for _ in range(max_len):
        level = [w + (l,) for w in level for l in letters]
        out.extend(StarWord(w) for w in level)
    return out


def subword_closure(words: Iterable[StarWord]) -> List[StarWord]:
    """Close a word set under subsequences (restriction to block positions)."""
    seen = set()
    for w in words:
        m = len(w.letters)
        for mask in range(1 << m):
            sub = tuple(w.letters[i] for i in range(m) if mask >> i & 1)
            seen.add(StarWord(sub))
    return sorted(seen, key=lambda w: (len(w), w.letters))


def _validate_table(values: Mapping[StarWord, complex], d: int, max_len: int,
                    unit_value: complex, tol: float, check_traciality: bool):
    unit = StarWord()
    if unit not in values or abs(values[unit] - unit_value) > tol:
        raise ValueError(f"empty-word value must be {unit_value}")
    keys = set(values)
    for w in keys:
        if len(w) > max_len:
            raise ValueError(f"word {w} exceeds max_len={max_len}")
        for idx, _ in w.letters:
            if idx > d:
                raise ValueError(f"word {w} uses a variable beyond d={d}")
        wa = w.adjoint()
        if wa in keys and abs(np.conj(values[w]) - values[wa]) > tol:
            raise ValueError(f"conjugate symmetry fails at {w}")
        m = len(w.letters)
        for mask in range(1 << m):
            sub = StarWord(tuple(w.letters[i] for i in range(m) if mask >> i & 1))
            if sub not in keys:
                raise ValueError(f"not subsequence-closed: {sub} missing (from {w})")
        if check_traciality and m >= 2:
            rot = StarWord(w.letters[1:] + w.letters[:1])
            if rot in keys and abs(values[w] - values[rot]) > tol:
                raise ValueError(f"traciality fails at {w}")


@dataclass
class MomentVector:
    """Truncated quantifier-free type: word -> tr value, unit word -> 1."""

    d: int
    max_len: int
    values: Dict[StarWord, complex]

    def __post_init__(self):
        if self.max_len > MAX_LEN_CAP:
            raise ValueError(f"max_len capped at {MAX_LEN_CAP}")
        self.values = {_word_key(w): complex(v) for w, v in self.values.items()}
        self.values.setdefault(StarWord(), 1.0 + 0.0j)

    def validate(self, tol: float = 1e-9, check_traciality: bool = True) -> None:
        _validate_table(self.values, self.d, self.max_len, 1.0, tol, check_traciality)

    def __getitem__(self, w) -> complex:
        return self.values[_word_key(w)]

    def __contains__(self, w) -> bool:
        return _word_key(w) in self.values

    def words(self) -> List[StarWord]:
        return sorted(self.values, key=lambda w: (len(w), w.letters))

    # single self-adjoint variable convenience -----------------------------

    @staticmethod
    def from_single_moments(moments: Sequence[float], max_len: Optional[int] = None) -> "MomentVector":
        """Moments m_1..m_k of one self-adjoint variable (unstarred words)."""
        max_len = max_len if max_len is not None else len(moments)
        vals: Dict[StarWord, complex] = {StarWord(): 1.0}
        for k, m in enumerate(moments[:max_len], start=1):
            vals[StarWord(((1, False),) * k)] = complex(m)
        return MomentVector(1, max_len, vals)

    def single_moments(self) -> List[float]:
        """m_1..m_max_len for a single-variable vector on unstarred words."""
        out = []
        for k in range(1, self.max_len + 1):
            out.append(float(np.real(self.values[StarWord(((1, False),) * k)])))
        return out

    # serialization ---------------------------------------------------------

    def to_json(self) -> str:
        data = {
            "d": self.d,
            "max_len": self.max_len,
            "values": {str(w): [v.real, v.imag] for w, v in sorted(
                self.values.items(), key=lambda kv: (len(kv[0]), kv[0].letters))},
        }
        return json.dumps(data, indent=2)

    @staticmethod
    def from_json(text: str) -> "MomentVector":
        data = json.loads(text)
        vals = {_word_key(w): complex(re_im[0], re_im[1])
                for w, re_im in data["values"].items()}
        return MomentVector(int(data["d"]), int(data["max_len"]), vals)


@dataclass
class CumulantVector:
    """Free cumulants kappa(w); unit word -> 0, single letters = first moments."""

    d: int
    max_len: int
    values: Dict[StarWord, complex]

    def __post_init__(self):
        if self.max_len > MAX_LEN_CAP:
            raise ValueError(f"max_len capped at {MAX_LEN_CAP}")
        self.values = {_word_key(w): complex(v) for w, v in self.values.items()}
        self.values.setdefault(StarWord(), 0.0 + 0.0j)

    def validate(self, tol: float = 1e-9) -> None:
        _validate_table(self.values, self.d, self.max_len, 0.0, tol, False)

    def __getitem__(self, w) -> complex:
        return self.values[_word_key(w)]

    def __contains__(self, w) -> bool:
        return _word_key(w) in self.values

    def words(self) -> List[StarWord]:
        return sorted(self.values, key=lambda w: (len(w), w.letters))


# ---------------------------------------------------------------------------
# Moebius inversion over NC


def _nc_sum(letters: Tuple, kappa_of: Callable[[Tuple], complex],
            moment: Optional[complex] = None) -> complex:
    """Sum over NC partitions of the product of block cumulants.

    ``kappa_of`` maps the letters of a block restriction to its cumulant.
    Without ``moment`` this is the moment sum m(w); with it, the top
    cumulant moment - (sum over partitions with more than one block).
    Partitions and their blocks run in ``_nc_blocks`` order and a product
    stops at its first exact zero; each block's cumulant is looked up once
    and memoized on the block, which leaves every value bit for bit the same.
    """
    memo: Dict[Tuple[int, ...], complex] = {}
    acc = 0.0 + 0.0j if moment is None else moment
    for blocks in _nc_blocks(len(letters)):
        if moment is not None and len(blocks) == 1:
            continue
        prod = 1.0 + 0.0j
        for b in blocks:
            kappa = memo.get(b)
            if kappa is None:
                kappa = memo[b] = kappa_of(tuple(map(letters.__getitem__, b)))
            prod *= kappa
            if prod == 0.0:
                break
        if moment is None:
            acc += prod
        else:
            acc -= prod
    return acc


def _letter_table(values: Mapping[StarWord, complex]) -> Dict[Tuple, complex]:
    return {w.letters: v for w, v in values.items()}


def moments_to_cumulants(mv: MomentVector) -> CumulantVector:
    """Free cumulants by induction on word length.

    kappa(w) = m(w) - sum over NC partitions with more than one block of the
    product of kappa over block restrictions (every proper block is shorter,
    so the recursion is well-founded).
    """
    table: Dict[Tuple, complex] = {}
    kappa: Dict[StarWord, complex] = {StarWord(): 0.0}
    for w in mv.words():
        if w.letters:
            kappa[w] = table[w.letters] = _nc_sum(
                w.letters, table.__getitem__, moment=mv.values[w])
    return CumulantVector(mv.d, mv.max_len, kappa)


def _moments_from(kappa_of: Callable[[Tuple], complex],
                  words: Iterable[StarWord]) -> Dict[StarWord, complex]:
    out: Dict[StarWord, complex] = {StarWord(): 1.0}
    for w in sorted(words, key=lambda w: (len(w), w.letters)):
        if w.letters:
            out[w] = _nc_sum(w.letters, kappa_of)
    return out


def cumulants_to_moments(cv: CumulantVector, words: Optional[Iterable[StarWord]] = None) -> MomentVector:
    """Moments m(w) = sum over NC partitions of products of block cumulants.

    The cumulant vector may be sparse: any restriction not stored counts as
    zero, so e.g. a lone kappa_2 entry specifies a semicircular law.
    """
    table = _letter_table(cv.values)
    return MomentVector(cv.d, cv.max_len, _moments_from(
        lambda sub: table.get(sub, 0.0), cv.values if words is None else words))


# ---------------------------------------------------------------------------
# Free products and free convolution


def free_product_moments(mv_a: MomentVector, mv_b: MomentVector, max_len: int,
                         words: Optional[Iterable[StarWord]] = None) -> MomentVector:
    """Joint moments of the free product; variables of B shifted past A's.

    Mixed free cumulants across the two families vanish; within-family
    cumulants are inherited.  Every requested word (default: all words in
    d_a + d_b variables up to max_len) is summed over NC partitions whose
    blocks are monochromatic.
    """
    if mv_a.max_len < max_len or mv_b.max_len < max_len:
        raise ValueError("input moment vectors must cover max_len")
    ka = _letter_table(moments_to_cumulants(mv_a).values)
    kb = _letter_table(moments_to_cumulants(mv_b).values)
    da = mv_a.d
    d = da + mv_b.d

    @functools.lru_cache(maxsize=None)  # restrictions repeat across words
    def kappa(sub: Tuple) -> complex:
        if max(sub)[0] <= da:
            table, key = ka, sub
        elif min(sub)[0] > da:
            table, key = kb, tuple((idx - da, s) for idx, s in sub)
        else:
            return 0.0  # mixed block: free independence
        try:
            return table[key]
        except KeyError:
            raise ValueError(
                f"input moment vector does not cover the restriction {StarWord(key)}; "
                "free_product_moments needs subsequence-closed factor tables") from None

    return MomentVector(d, max_len, _moments_from(
        kappa, all_words(d, max_len) if words is None else words))


def free_convolve(mu: MomentVector, nu: MomentVector, max_len: int) -> MomentVector:
    """Additive free convolution of single self-adjoint laws via cumulants."""
    for mv in (mu, nu):
        if mv.d != 1:
            raise ValueError("free_convolve expects single-variable laws")
        if mv.max_len < max_len:
            raise ValueError("input moment vectors must cover max_len")
        mv.single_moments()  # KeyError if unstarred words are missing
        for w, v in mv.values.items():
            if abs(v.imag) > 1e-10:
                raise ValueError("free_convolve expects real (self-adjoint) moments")
    km = moments_to_cumulants(
        MomentVector.from_single_moments(mu.single_moments()[:max_len]))
    kn = moments_to_cumulants(
        MomentVector.from_single_moments(nu.single_moments()[:max_len]))
    total = CumulantVector(1, max_len, {
        w: km.values.get(w, 0.0) + kn.values.get(w, 0.0)
        for w in set(km.values) | set(kn.values)})
    words = [StarWord(((1, False),) * k) for k in range(1, max_len + 1)]
    return cumulants_to_moments(total, words)


# ---------------------------------------------------------------------------
# Reference laws


def reference_law(name: str, max_len: int = 6) -> MomentVector:
    """Exact moments from cumulant specifications.

    Recognized names: "semicircular" (one self-adjoint variable, kappa_2 = 1),
    "circular" (one variable, kappa_2(z, z*) = kappa_2(z*, z) = 1), and
    "free_circular_family(d)" for d freely independent circulars.
    """
    fam = re.fullmatch(r"free_circular_family\((\d+)\)", name)
    if name == "semicircular":
        d = 1
        def kappa2(a, b):
            return 1.0  # x = x*, every pair contributes
    elif name == "circular":
        d = 1
        def kappa2(a, b):
            return 1.0 if a[1] != b[1] else 0.0
    elif fam:
        d = int(fam.group(1))
        def kappa2(a, b):
            return 1.0 if a[0] == b[0] and a[1] != b[1] else 0.0
    else:
        raise ValueError(f"unknown reference law {name!r}")

    kvals: Dict[StarWord, complex] = {StarWord(): 0.0}
    letters = [(j, s) for j in range(1, d + 1) for s in (False, True)]
    for a in letters:
        kvals[StarWord((a,))] = 0.0
        for b in letters:
            kvals[StarWord((a, b))] = kappa2(a, b)
    # cumulants beyond order 2 vanish (absent entries read as zero)
    return cumulants_to_moments(CumulantVector(d, max_len, kvals), all_words(d, max_len))
