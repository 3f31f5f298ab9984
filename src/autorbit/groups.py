"""Finite abelian groups presented as direct sums of cyclic groups.

A group is normalized at construction time: every supplied cyclic order is
factorized, the prime-power cyclic factors are collected per prime, and both
the canonical isomorphism key and the invariant-factor chain are derived from
them.  Any list of cyclic orders is accepted, not just invariant-factor
chains; orders equal to 1 contribute nothing to the canonical key but are kept
in ``moduli`` so element coordinates keep their arity.

All types are immutable after construction and all operations are pure, so
everything here can be shared across threads freely.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from typing import Iterable, Iterator

from .arith import crt, factorize
from .errors import DimensionMismatch, ForeignElement, NonPositiveModulus


def format_cyclic(orders: Iterable[int]) -> str:
    """Render cyclic orders as 'C2 x C8 x C8'; the trivial group is 'C1'.

    >>> format_cyclic([2, 8, 8])
    'C2 x C8 x C8'
    >>> format_cyclic([])
    'C1'
    """
    parts = [f"C{d}" for d in orders]
    return " x ".join(parts) if parts else "C1"


class Record:
    """Base of the immutable value records.

    A subclass names its fields once, in ``__slots__``; a subclass that adds
    no field declares ``__slots__ = ()`` and keeps its parent's fields.  From
    that list Record supplies a positional ``__init__`` (TypeError on wrong
    arity), ``__eq__`` (equal fields, same class only), ``__hash__`` (of the
    tuple of fields), pickling and copying through ``__init__``, and the repr
    ``Name(field=value, ...)``.  Assigning or deleting a field raises
    AttributeError.  A one-field record type can also build many records at
    once with ``_many``, which skips ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # the slots' own setters, which bypass the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        # _key(record): one C-level call giving the field's value, or the
        # tuple of values when there are several fields
        cls._key = staticmethod(operator.attrgetter(*fields))

    def __init__(self, *values: object) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(setters)} fields, got {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _many(cls, values: Iterable, count: int) -> tuple:
        """count records of this one-field type, the i-th holding the i-th
        of values; values must hold at least count items.  Equal to
        tuple(map(cls, values)) on exactly count values, but built by C-level
        calls only."""
        (set_field,) = cls._setters
        records = tuple(map(object.__new__, itertools.repeat(cls, count)))
        deque(map(set_field, records, values), maxlen=0)
        return records

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        key = self._key(self)
        return key if len(self._fields) > 1 else (key,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class CanonicalGroupKey(Record):
    """Isomorphism-class fingerprint of a finite abelian group.

    ``parts`` maps each prime (ascending) to the descending list of its
    elementary-divisor exponents; no exponent is zero.  By the structure
    theorem two finite abelian groups are isomorphic exactly when their keys
    are equal.
    """

    __slots__ = ("parts",)
    parts: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_map(cls, primary: dict[int, Iterable[int]]) -> "CanonicalGroupKey":
        """Build a key from a prime -> exponent-iterable map, dropping zero
        exponents and empty primes and sorting everything canonically.
        Raises TypeError for an exponent that is not an integer and
        ValueError for a negative one.

        >>> CanonicalGroupKey.from_map({2: [1, 3, 2], 3: [0]})
        CanonicalGroupKey(parts=((2, (3, 2, 1)),))
        """
        parts = []
        for p in sorted(primary):
            exps = sorted(filter(None, primary[p]), reverse=True)
            # one C-level pass: a float or other non-integer anywhere makes
            # the sum a non-integer, which index rejects
            operator.index(sum(exps))
            if exps and exps[-1] < 0:
                raise ValueError(f"exponent must be >= 0, got {exps[-1]}")
            if exps:
                # a tuple built from a list is allocated at its exact size;
                # one built from an iterator can keep the slack it grew by
                parts.append((p, tuple(exps)))
        return cls(tuple(parts))

    @property
    def primary_parts(self) -> dict[int, tuple[int, ...]]:
        return dict(self.parts)

    def is_trivial(self) -> bool:
        return not self.parts

    def order(self) -> int:
        """The product of p^(sum of p's exponents) over the primes."""
        return math.prod(p ** sum(exps) for p, exps in self.parts)

    def elementary_divisors(self) -> list[int]:
        """All prime-power cyclic factors, ascending.

        >>> CanonicalGroupKey.from_map({2: [2, 1], 3: [1]}).elementary_divisors()
        [2, 3, 4]
        """
        return sorted(p**e for p, exps in self.parts for e in exps)

    def invariant_factors(self) -> list[int]:
        """The divisibility chain m_1 | m_2 | ... | m_k, ascending.

        Zips the per-prime exponent lists largest-first: the j-th largest
        invariant factor is the product of the j-th largest prime powers.

        >>> CanonicalGroupKey.from_map({2: [2, 1], 3: [1]}).invariant_factors()
        [2, 12]
        """
        powers = ([p**e for e in exps] for p, exps in self.parts)
        return [math.prod(ms) for ms in itertools.zip_longest(*powers, fillvalue=1)][::-1]

    def describe_elementary(self) -> str:
        return format_cyclic(self.elementary_divisors())

    def describe_invariant(self) -> str:
        return format_cyclic(self.invariant_factors())

    def __str__(self) -> str:
        return self.describe_invariant()


class AbelianGroup:
    """A finite abelian group given as C_{d_1} + ... + C_{d_n}.

    >>> G = AbelianGroup([8, 2, 4])
    >>> G.invariant_factors
    (2, 4, 8)
    >>> G.canonical
    CanonicalGroupKey(parts=((2, (3, 2, 1)),))
    >>> AbelianGroup([1]).canonical.is_trivial()
    True
    """

    __slots__ = ("moduli", "canonical", "invariant_factors", "order", "_primary")

    def __init__(self, moduli: Iterable[int]):
        mods = tuple(map(operator.index, moduli))
        for d in mods:
            if d <= 0:
                raise NonPositiveModulus(f"cyclic order must be >= 1, got {d}")
        # _primary: prime -> ((position, exponent, p**exponent), ...) over the
        # coordinates whose order that prime divides, in position order.
        primary: dict[int, list[tuple[int, int, int]]] = {}
        for i, d in enumerate(mods):
            for p, e in factorize(d).items():
                primary.setdefault(p, []).append((i, e, p**e))
        self.moduli = mods
        self._primary = {p: tuple(primary[p]) for p in sorted(primary)}
        self.canonical = CanonicalGroupKey.from_map(
            {p: [e for _, e, _ in triples] for p, triples in self._primary.items()}
        )
        self.invariant_factors = tuple(self.canonical.invariant_factors())
        self.order = math.prod(mods)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def primes(self) -> tuple[int, ...]:
        return tuple(self._primary)

    def primary_exponents(self, p: int) -> tuple[int, ...]:
        """Position-aligned exponents of the p-primary part."""
        return tuple(e for _, e, _ in self._primary.get(p, ()))

    def element(self, coords: Iterable[int]) -> "GroupElement":
        cs = tuple(map(operator.index, coords))
        if len(cs) != len(self.moduli):
            raise DimensionMismatch(
                f"expected {len(self.moduli)} coordinates, got {len(cs)}"
            )
        return GroupElement(self, tuple(c % d for c, d in zip(cs, self.moduli)))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.moduli))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in odometer order, last coordinate fastest; meant for small groups."""
        for coords in itertools.product(*map(range, self.moduli)):
            yield GroupElement(self, coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.moduli)})"

    def __str__(self) -> str:
        return format_cyclic(d for d in self.moduli if d > 1)


class GroupElement(Record):
    """A tuple of residues, one per cyclic factor of its parent group."""

    __slots__ = ("parent", "coords")
    parent: AbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        check_elements(self.parent, other)
        return GroupElement(
            self.parent,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.coords, other.coords, self.parent.moduli)
            ),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.parent,
            tuple((-a) % d for a, d in zip(self.coords, self.parent.moduli)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        k = operator.index(k)
        return GroupElement(
            self.parent,
            tuple((k * a) % d for a, d in zip(self.coords, self.parent.moduli)),
        )

    def is_identity(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        return f"GroupElement({list(self.coords)} in {self.parent!r})"


def check_elements(G: AbelianGroup, *elements: GroupElement) -> None:
    """Raise DimensionMismatch when some element's arity differs from G's,
    else ForeignElement when some element belongs to another group.

    Every arity is checked before any parent, and the parent by identity
    before equality, so elements of G itself cost no group comparison.

    >>> check_elements(make_group([4, 4]), make_group([8, 8]).element([1, 0]))
    Traceback (most recent call last):
    ...
    autorbit.errors.ForeignElement: element of C8 x C8 used with C4 x C4
    """
    n = len(G.moduli)
    for x in elements:
        if len(x.coords) != n:
            raise DimensionMismatch(f"expected {n} coordinates, got {len(x.coords)}")
    for x in elements:
        if x.parent is not G and x.parent != G:
            raise ForeignElement(f"element of {x.parent} used with {G}")


def make_group(moduli: Iterable[int]) -> AbelianGroup:
    """Normalize a list of cyclic orders into an AbelianGroup.

    >>> make_group([6, 4]).invariant_factors
    (2, 12)
    """
    return AbelianGroup(moduli)


def element_order(x: GroupElement) -> int:
    """Order of x: lcm over coordinates of d_i / gcd(d_i, x_i); 1 iff identity.

    >>> element_order(make_group([2, 4]).element([1, 2]))
    2
    """
    return math.lcm(*[d // math.gcd(d, c) for c, d in zip(x.coords, x.parent.moduli)])


def to_invariant_coordinates(G: AbelianGroup, x: GroupElement) -> tuple[int, ...]:
    """Re-express x in the invariant-factor presentation of G.

    The isomorphism splits every coordinate into its prime-power residues,
    assigns each prime's factors to the invariant slots largest-to-largest
    (ties kept in position order), and recombines per slot by CRT.  The result
    is aligned with ``G.invariant_factors``.  Raises DimensionMismatch when
    x's arity differs from G's, and ForeignElement when x belongs to another
    group.

    >>> G = make_group([6, 4])
    >>> to_invariant_coordinates(G, G.element([3, 2]))
    (1, 6)
    """
    check_elements(G, x)
    k = G.rank
    slots: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for p, triples in G._primary.items():
        ranked = sorted(triples, key=lambda t: t[1])  # ascending exponent, stable
        offset = k - len(ranked)
        for j, (pos, _e, pe) in enumerate(ranked):
            slots[offset + j].append((pe, x.coords[pos] % pe))
    return tuple(crt(parts) for parts in slots)
