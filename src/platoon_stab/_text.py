"""Text of number arrays, byte for byte that of Python's ``repr`` and ``str``.

The trace and CSV writers turn columns of numbers into text a chunk of rows
at a time.  ``float.__repr__`` costs about a microsecond a value; here each
step is one array operation over a whole chunk:

* :func:`floats` gives the text of ``float.__repr__`` of each float64.  Its
  digits are Schubfach's (R. Giulietti, "The Schubfach way to render
  doubles", 2020): the shortest decimal that reads back as the same double,
  the closer one when there are two.  They come from products of the
  significand with a 126-bit power of ten, taken in 32-bit halves in uint64
  arrays.  The layout is Python's: positional for decimal exponents in
  [-4, 16), with ``.0`` on integral values, and ``d.ddde±XX`` otherwise.
  Subnormals, infinities and nan are rare; they take the text of
  ``fallback`` (``float.__repr__`` by default) one value at a time.
* :func:`ints` gives the text of ``str`` of each int64.  Its digits are
  those of the magnitude, five groups of four from integer division, and
  its layout starts at the first nonzero one.
* :func:`texts` and :func:`pick` give one of a few fixed texts per code.
* :func:`join` lays out a chunk of rows, each row its fields between
  literal texts, as one string.
* :func:`write_rows` writes a CSV file through :func:`join`, about
  :data:`VALUES_PER_WRITE` values per write.

A field is a pair ``(source, which)``: a uint8 array with, along its last
axis, the bytes each value's text is gathered from, and the layout of each
value's text.  A layout (:func:`_layouts`) lists the positions in the source
of the text's bytes.  Layout n, up to :data:`_TEXT_MAX`, is the first n
bytes, so the text of a pick is the first ``which`` bytes of its source.  A
float's source holds its digits, its exponent's and the bytes ``-.0e+``,
and its layout picks and orders them; an int's holds a minus sign and 20
digits, and its layout takes the sign or not, and the digits from the
first nonzero one.

:func:`join` copies a chunk's sources into one line buffer, each value's
source in a slot followed by the bytes of the literal after it.  A layout's
gather row lists the positions of its text in the slot and then those of
the literal, so the line's text comes out of the buffer in one gather, with
each row's first ``length + literal`` positions kept.  The gather's index
takes 8 bytes a gathered byte, so it is built :data:`_GATHER` values at a
time.  A chain CSV write keeps about 120 bytes a value alive at its
peak, in :func:`_decimal` and in :func:`join`: 1.85 MiB for its chunk of
16371 values at n = 16.

Every operation below is on arrays: numpy warns when uint64 scalars
overflow, while array products wrap modulo 2**64 as the arithmetic needs.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

_U64 = np.uint64
_M32 = _U64(2 ** 32 - 1)
_M63 = _U64(2 ** 63 - 1)
_T_MASK = _U64(2 ** 52 - 1)  # the stored bits of a double's significand
_C_MIN = _U64(2 ** 52)
_INF_BITS = _U64(0x7FF0000000000000)
_ONE_BITS = _U64(0x3FF0000000000000)

# The decimal exponents k of the powers of ten 10**-k that normal doubles need.
_K_MIN, _K_MAX = -324, 292

# Values formatted per write by :func:`write_rows`, in whole rows.  A
# chunk's numpy calls cost a fixed 200-300 us, so larger chunks run faster
# per value: 16384 values ran the chain-sim benchmark's p90 9% faster than
# 8192, and a write still holds under 2 MiB.
VALUES_PER_WRITE = 16384

# Values whose gather index :func:`join` builds at once: 200 KiB of index.
# Larger blocks raise a write's peak and, in a long-running process, the
# page faults it takes to get its memory back from the system.
_GATHER = 1024

# The tables below are built on first use, not at import: every command
# imports this module, and most format no number.  Together they take
# about 9 ms to build.


@cache
def _powers():
    """Per biased exponent ``bq`` of a normal double, and at ``bq + 2048``
    for a significand of 2**52 whose lower neighbour is the closer one: the
    decimal exponent k, the shift h, and ``g`` of ``10**-k`` as the 32-bit
    halves of ``g1 = g >> 63`` and ``g0 = g % 2**63``, then g1 and g0.

    ``g`` is ``10**-k`` rounded up to 126 bits: ``(g - 1) * 2**r <= 10**-k
    < g * 2**r`` with ``r = floor(log2(10**-k)) - 125``.  k is
    ``floor(log10(2**q))``, or ``floor(log10(3/4 * 2**q))`` when the lower
    neighbour is closer, found from the least q that reaches each ``10**k``
    or ``4/3 * 10**k``; ``h = q + r + 127`` is 2 to 5.
    """
    tens = [1]
    for _ in range(-_K_MIN):
        tens.append(10 * tens[-1])
    g, r, least = [], [], ([], [])
    for k in range(_K_MIN, _K_MAX + 1):
        # ceil(log2(x)) is the bit length of floor(x) when x > 1 is not a
        # power of two; 10**k is one only at k = 0.
        ten = tens[abs(k)]
        if k <= 0:
            r.append(ten.bit_length() - 126)
            g.append((ten >> r[-1] if r[-1] >= 0 else ten << -r[-1]) + 1)
            least[1].append(1 - (3 * ten // 4).bit_length())  # ceil(log2(4/3 * 10**k))
        else:
            r.append(-ten.bit_length() - 125)
            g.append((1 << -r[-1]) // ten + 1)
            least[1].append((4 * ten // 3).bit_length())
        least[0].append(-r[-1] - 125)  # ceil(log2(10**k))
    q = np.arange(2048) - 1075
    j = np.concatenate([np.searchsorted(reach, q, side="right") - 1 for reach in least])
    j = np.clip(j, 0, len(g) - 1)  # clips only bq 0 and 2047, which are never looked up
    g1, g0 = (np.array(words, dtype=_U64)[j] for words in zip(*[divmod(x, 2 ** 63) for x in g]))
    halves = g1 >> _U64(32), g1 & _M32, g0 >> _U64(32), g0 & _M32
    h = np.tile(q, 2) + np.array(r)[j] + 127
    return ((j + _K_MIN).astype(np.int16), h.astype(np.uint8), *halves, g1, g0)


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the 128-bit products of ``ah * 2**32 + al`` and
    ``bh * 2**32 + bl``, from their 32-bit halves; ``bh < 2**31``."""
    hl = ah * bl
    mid = al * bl
    mid >>= _U64(32)
    mid += al * bh
    mid += hl & _M32
    hl >>= _U64(32)
    hl += ah * bh
    mid >>= _U64(32)
    hl += mid
    return hl


def _round_to_odd(x1, y0, y1):
    """``floor(g * cp / 2**127)``, its lowest bit set when the quotient is
    inexact, for ``g = g1 * 2**63 + g0``: from ``x1``, the high word of
    ``g0 * cp``, and ``y1`` and ``y0``, the words of ``g1 * cp``.  (The low
    word of ``g0 * cp`` does not change the result.)  Overwrites ``y0``."""
    y0 >>= _U64(1)
    y0 += x1
    inexact = y0 & _M63
    inexact += _M63
    inexact >>= _U64(63)
    y0 >>= _U64(63)
    y0 += y1
    y0 |= inexact
    return y0


def _bound(x0, x1, y0, y1, g0, g1, s, up: bool):
    """:func:`_round_to_odd` of the products for ``cp + 2**s`` (``up``) or
    ``cp - 2**s``, from the words ``x0, x1, y0, y1`` of those for ``cp``."""
    rest = 64 - s
    if up:
        low = x0 + (g0 << s)
        x = x1 + (g0 >> rest) + (low < x0)
        del low
        y = y0 + (g1 << s)
        return _round_to_odd(x, y, y1 + (g1 >> rest) + (y < y0))
    low = x0 - (g0 << s)
    x = x1 - (g0 >> rest) - (low > x0)
    del low
    y = y0 - (g1 << s)
    return _round_to_odd(x, y, y1 - (g1 >> rest) - (y > y0))


def _decimal(bits):
    """``d`` and ``k`` such that ``d * 10**k`` is the shortest decimal that
    rounds to each positive normal double, the closer one when there are
    two; ``d`` has 16 or 17 digits, trailing zeros included.  Each
    temporary goes after its last use."""
    j = (bits >> _U64(52)).astype(np.intp)
    c = bits & _T_MASK
    closer_below = (c == _U64(0)) & (j > 1)
    j += 2048 * closer_below
    c |= _C_MIN
    k, h, g1h, g1l, g0h, g0l, g1, g0 = _powers()
    h = h.take(j)
    # The double in quarters of 2**q, shifted left by h: cp.  The ends of
    # the interval of reals that round to it lie 2 quarters above, and 2
    # below (1 when the lower neighbour is closer).  Each times g is in
    # quarters of 10**k.
    cp = c << h + 2
    odd = (c & _U64(1)).astype(bool)
    del c
    ch, cl = cp >> _U64(32), cp & _M32
    x1 = _mulhi(g0h.take(j), g0l.take(j), ch, cl)
    y1 = _mulhi(g1h.take(j), g1l.take(j), ch, cl)
    del ch, cl
    g0, g1, k = g0.take(j), g1.take(j), k.take(j)
    del j
    x0, y0 = g0 * cp, g1 * cp
    del cp
    h += 1
    vbr = _bound(x0, x1, y0, y1, g0, g1, h, up=True)
    h -= closer_below
    vbl = _bound(x0, x1, y0, y1, g0, g1, h, up=False)
    vb = _round_to_odd(x1, y0, y1)
    del x0, x1, y0, y1, g0, g1, h, closer_below
    # A decimal of m quarters is in the interval when m, plus one where c is
    # odd and the ends are open, lies between its ends.  Of the multiples
    # of 10 next to s, at most one is in; else s or s + 1, the closer one.
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    u = s // _U64(10) * _U64(10)
    u_in, w_in = vbl <= u << _U64(2), u + _U64(10) << _U64(2) <= vbr
    s_in, t_in = vbl <= s << _U64(2), s + _U64(1) << _U64(2) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    above = (vb > mid) | (vb == mid) & (s & _U64(1) == _U64(1))
    d = np.where(s_in != t_in, s + t_in, s + above)
    return np.where(u_in != w_in, u + _U64(10) * w_in, d), k


@cache
def _digits():
    """The four ASCII digits of each number below 10**4, one uint32 each;
    and, for such a group of four as the 1st to 4th after a leading digit,
    how many digits of the whole reach the group's last nonzero digit (1,
    the leading one, for 0)."""
    quads = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
    used = np.arange(10 ** 4)  # how many of its own four digits reach it
    used = np.where(used, 4 - sum(used % 10 ** i == 0 for i in (1, 2, 3)), 0)
    return (quads.astype(np.uint8, order="C").view(np.uint32).ravel(),
            np.where(used, 1 + 4 * np.arange(4)[:, None] + used, 1).astype(np.uint8))


_P10 = np.array([10 ** i for i in range(20)], dtype=_U64)


def _quads(d, count=4):
    """Rows of the ``count`` groups of four decimal digits of ``d <
    10**(4 * count)``, the most significant first, as uint32."""
    quads = np.empty((count, len(d)), dtype=np.uint32)
    for i in reversed(range(count)):
        q = d // _P10[4]
        quads[i] = d - q * _P10[4]
        d = q
    return quads


# A float's source: 28 bytes, 7 uint32 words.  Its 17 digits are bytes 3 to
# 19, the decimal exponent's magnitude in four digits bytes 24 to 27.
_SOURCE = 28
_MINUS, _DOT, _ZERO, _E, _PLUS = 0, 1, 2, 20, 21
_HEAD = np.frombuffer(b"-.0\0", np.uint32)[0]  # byte 3 takes the leading digit
_E_PLUS = np.frombuffer(b"e+\0\0", np.uint32)[0]
_X_MIN, _X_MAX = -4, 15  # the positional decimal exponents
_X_LOW = -308  # the least decimal exponent of a normal double

# An int's source: the same 28 bytes, its minus sign byte 0, its magnitude
# in 20 digits bytes 4 to 23.
_INT_DIGITS = 20
_INT_END = 4 + _INT_DIGITS

# The longest text of a value, that of -2.2250738585072014e-308; no int,
# pick or fallback text is longer.
_TEXT_MAX = 24


def _float_layout(x: int, n: int) -> list[int]:
    """Source bytes of the text of an n-digit float with decimal exponent x."""
    digits = list(range(3, 3 + n))
    point = x + 1  # digits before the decimal point
    if not _X_MIN <= x <= _X_MAX:
        exponent = [_E, _MINUS if x < 0 else _PLUS, *range(28 - max(len(str(abs(x))), 2), 28)]
        return [3, _DOT, *digits[1:], *exponent] if n > 1 else [3, *exponent]
    if point <= 0:
        return [_ZERO, _DOT, *[_ZERO] * -point, *digits]
    if point < n:
        return [*digits[:point], _DOT, *digits[point:]]
    return [*range(3, 3 + point), _DOT, _ZERO]  # the digits past n are zeros


# The float layouts: of each positional decimal exponent, of two- and
# three-digit exponents below and above zero, each with 1 to 17 digits;
# then all again with a sign.  They follow the _TEXT_MAX + 1 layouts of the
# first n bytes.  Then the int layouts: of 1 to 20 digits, then again with
# a sign; _INT_LAYOUT is that of one digit.
_LAYOUT_XS = (*range(_X_MIN, _X_MAX + 1), -10, 16, -100, 100)
_SIGNED = len(_LAYOUT_XS) * 17
_INT_LAYOUT = _TEXT_MAX + 1 + 2 * _SIGNED


@cache
def _layouts():
    """Every layout's source positions, padded to :data:`_TEXT_MAX`, and
    its length."""
    floats = [_float_layout(x, n) for x in _LAYOUT_XS for n in range(1, 18)]
    ints = [[*range(_INT_END - n, _INT_END)] for n in range(1, _INT_DIGITS + 1)]
    layouts = [[*range(n)] for n in range(_TEXT_MAX + 1)]
    for kind in (floats, ints):
        layouts += kind + [[_MINUS, *layout] for layout in kind]
    table = np.array([cols + [0] * (_TEXT_MAX - len(cols)) for cols in layouts], dtype=np.int8)
    return table, np.array(list(map(len, layouts)))


@cache
def _first_layouts():
    """Per decimal exponent from _X_LOW, the layout before its first float
    layout, of one digit and no sign: plus n, that of n digits."""
    x = np.arange(_X_LOW, -_X_LOW + 1)
    first = 17 * np.select([x < -99, x < _X_MIN, x <= _X_MAX, x < 100], [22, 20, x - _X_MIN, 21], 23)
    return (first + _TEXT_MAX).astype(np.int16)


def floats(values, fallback=float.__repr__):
    """The text of ``float.__repr__`` of each float64 in ``values``, as a
    field of the same shape; subnormals and non-finite values take the
    text of ``fallback``, at most :data:`_TEXT_MAX` bytes."""
    shape = np.shape(values)
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = values.view(_U64)
    negative = bits > _M63
    bits = bits & _M63
    special = (bits < _C_MIN) | (bits >= _INF_BITS)  # zero, subnormal, inf or nan
    zero = bits == _U64(0)
    np.copyto(bits, _ONE_BITS, where=special)  # 1.0 stands in for them
    d, x = _decimal(bits)
    del bits
    (quad_text, significant), first_layout = _digits(), _first_layouts()
    short = d < _P10[16]
    np.multiply(d, _U64(10), out=d, where=short)
    lead = d // _P10[16]
    d -= lead * _P10[16]
    quads = _quads(d)
    del d
    source = np.empty((len(lead), 7), dtype=np.uint32)
    source[:, 0] = _HEAD
    source[:, 1:5] = quad_text.take(quads).T
    source[:, 5] = _E_PLUS
    x += 16
    x -= short  # the decimal exponent of the leading digit; 0 for zeros
    source[:, 6] = quad_text.take(np.abs(x))
    source = source.view(np.uint8)
    lead -= zero
    lead += _U64(ord("0"))
    source[:, 3] = lead
    which = first_layout.take(x - _X_LOW)
    which += np.maximum.reduce([table.take(q) for table, q in zip(significant, quads)])
    which += negative * _SIGNED
    for i in np.flatnonzero(special & ~zero):
        text = fallback(float(values[i])).encode()
        source[i, :len(text)] = np.frombuffer(text, np.uint8)
        which[i] = len(text)
    return source.reshape(*shape, _SOURCE), which.reshape(shape)


def ints(values):
    """The text of ``str`` of each int64 in ``values``, as a field of the
    same shape."""
    shape = np.shape(values)
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    magnitude = np.abs(values).view(_U64)  # abs(-2**63) wraps to -2**63: 2**63 as uint64
    quads = _quads(magnitude, _INT_DIGITS // 4)
    source = np.zeros((len(values), 7), dtype=np.uint32)
    source[:, 0] = _HEAD
    source[:, 1:6] = _digits()[0].take(quads).T
    del quads
    which = np.searchsorted(_P10[1:], magnitude, side="right")  # digits - 1
    which += _INT_LAYOUT + (values < 0) * _INT_DIGITS
    return source.view(np.uint8).reshape(*shape, _SOURCE), which.reshape(shape)


def texts(strings):
    """A field of the given ASCII strings, one per row, to :func:`pick` from;
    each at most :data:`_TEXT_MAX` bytes."""
    encoded = [s.encode("ascii") for s in strings]
    text = np.array(encoded, dtype=f"S{max(map(len, encoded))}")
    return text.view(np.uint8).reshape(len(encoded), -1), np.array(list(map(len, encoded)))


def pick(field, codes):
    """The field of row ``codes[i]`` of ``field`` for each i."""
    source, which = field
    codes = np.asarray(codes, dtype=np.intp)
    return source.take(codes, axis=0), which.take(codes)


def join(literals, fields) -> str:
    """The rows of ``fields`` as one string: each row ``literals[0]``, the
    row's text of the first token, ``literals[1]`` and so on to the last
    literal.  A field of 1-D ``which`` is one token, one of 2-D ``which`` a
    token per column; there is one literal more than there are tokens."""
    rows = len(fields[0][1])
    if literals[0]:  # a token of no text carries the first literal
        fields = [(np.empty((rows, 0), np.uint8), np.zeros(rows, np.intp)), *fields]
    else:
        literals = literals[1:]
    shapes = tuple((source.shape[-1], which.shape[1] if which.ndim == 2 else 1)
                   for source, which in fields)
    slot, tails, first, table, keep, lengths = _line_plan(literals, shapes)
    # Each token's slot: its value's source bytes, then its literal's.
    line = np.empty((rows, len(first), slot), dtype=np.uint8)
    tokens = np.empty((rows, len(first)), dtype=np.intp)
    token = 0
    for (source, which), (size, columns), tail in zip(fields, shapes, tails):
        line[:, token:token + columns, :size] = source.reshape(rows, columns, size)
        line[:, token:token + columns, size:size + tail.shape[1]] = tail
        np.add(which.reshape(rows, columns), first[token:token + columns],
               out=tokens[:, token:token + columns])
        token += columns
    text = _gather(line.ravel(), tokens.ravel(), slot, table, keep, lengths)
    del line, tokens
    return str(text, "ascii")


def _gather(line, tokens, slot, table, keep, lengths):
    """The bytes of the text of ``tokens``, each token a row of ``table``
    and a slot of ``slot`` bytes in ``line``, one after the other.  The
    index of up to :data:`_GATHER` tokens at a time is each one's layout row
    plus its slot's first byte, kept where the text or the literal is."""
    text = np.empty(lengths.take(tokens).sum(), dtype=np.uint8)
    index = np.empty((min(_GATHER, len(tokens)), table.shape[1]), dtype=np.intp)
    starts = _slot_starts(slot, table.shape[1])
    done = 0
    for a in range(0, len(tokens), _GATHER):
        part = index[:len(tokens) - a]
        table.take(tokens[a:a + _GATHER], axis=0, out=part, mode="clip")
        part += starts[:len(part)]
        part = part[keep.take(tokens[a:a + _GATHER], axis=0, mode="clip")]
        line[a * slot:].take(part, out=text[done:done + len(part)], mode="clip")
        done += len(part)
    return text


@lru_cache(maxsize=16)
def _line_plan(literals, shapes):
    """How :func:`join` lays out a line of tokens of fields of the given
    ``(source width, columns)``, each token followed by its literal.

    Every token of the line takes a slot of one width: its value's source
    bytes, then the literal after it.  Gives the slot's width; per field
    the bytes of its tokens' literals; per token the first row of its
    layouts in the tables of :func:`_gather_rows`; then those tables.  All
    read-only."""
    blocks, tails, token_blocks = {}, [], []
    for size, columns in shapes:
        tail = [text.encode("ascii") for text in literals[len(token_blocks):][:columns]]
        tails.append(np.zeros((columns, max(map(len, tail))), dtype=np.uint8))
        for column, text in enumerate(tail):
            tails[-1][column, :len(text)] = np.frombuffer(text, np.uint8)
            token_blocks.append(blocks.setdefault((size, len(text)), len(blocks)))
    starts, *tables = _gather_rows(tuple(blocks), _TEXT_MAX + max(map(len, literals)))
    first = starts.take(token_blocks)
    for array in (*tails, first):
        array.flags.writeable = False
    slot = max(size + tail.shape[1] for (size, _), tail in zip(shapes, tails))
    return slot, tails, first, *tables


@lru_cache(maxsize=8)
def _gather_rows(blocks, width):
    """For each ``(source width, literal length)`` of ``blocks`` in turn,
    the layouts that fit in the source (all of them in a float's or an
    int's, else the first n bytes up to its width): the first row of each
    block; then per row the positions in a slot of its text's bytes and
    then of the literal after them, padded to ``width``; which of them a
    line keeps; and how many.  Read-only."""
    positions, counts = _layouts()
    tables, lengths = [], []
    for size, room in blocks:
        rows = len(counts) if size >= _SOURCE else min(size, _TEXT_MAX) + 1
        table = np.zeros((rows, width), dtype=np.intp)
        table[:, :_TEXT_MAX] = positions[:rows]
        after = np.arange(room)
        table[np.arange(rows)[:, None], counts[:rows, None] + after] = size + after
        tables.append(table)
        lengths.append(counts[:rows] + room)
    starts = np.cumsum([0, *map(len, lengths[:-1])])
    table, lengths = np.concatenate(tables), np.concatenate(lengths).astype(np.uint8)
    keep = lengths[:, None] > np.arange(width)
    for array in (starts, table, keep, lengths):
        array.flags.writeable = False
    return starts, table, keep, lengths


@lru_cache(maxsize=4)
def _slot_starts(slot, width):
    """Read-only; row i holds ``width`` copies of the first byte of slot i,
    for :data:`_GATHER` slots of ``slot`` bytes."""
    starts = np.repeat(np.arange(0, _GATHER * slot, slot), width).reshape(_GATHER, width)
    starts.flags.writeable = False
    return starts


def write_rows(fh, header: str, rows: int, fields) -> None:
    """Write the CSV line ``header``, then ``rows`` rows, as many whole rows
    per write as make :data:`VALUES_PER_WRITE` values, at least one.
    ``fields(a, b)`` gives the fields of rows a to b - 1, one token per
    column of ``header``; the tokens of a row are comma-separated."""
    fh.write(header + "\n")
    tokens = header.count(",") + 1
    step = max(1, VALUES_PER_WRITE // tokens)
    literals = ("", *[","] * (tokens - 1), "\n")
    for a in range(0, rows, step):
        fh.write(join(literals, fields(a, min(a + step, rows))))
