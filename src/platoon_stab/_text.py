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
* :func:`ints` gives the text of ``str`` of each int64: numpy's cast of
  int64 to bytes writes the digits.
* :func:`texts` and :func:`pick` give one of a few fixed texts per code.
* :func:`join` lays out a chunk of rows, each row its fields between
  literal texts, as one string.
* :func:`write_rows` writes a CSV file through :func:`join`, a chunk of
  rows per write.

A field is a pair ``(chars, lengths)``: a uint8 array with the ASCII text of
each value left-aligned along its last axis, and the length of each text.
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

# The tables below are built on first use, not at import: every command
# imports this module, and most format no number.  Together they take 3 to
# 6 ms to build.


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
    return (j + _K_MIN, (np.tile(q, 2) + np.array(r)[j] + 127).astype(_U64), *halves, g1, g0)


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the 128-bit products of ``ah * 2**32 + al`` and
    ``bh * 2**32 + bl``, from their 32-bit halves; ``bh < 2**31``."""
    hl = ah * bl
    mid = (al * bl >> _U64(32)) + al * bh + (hl & _M32)
    return ah * bh + (hl >> _U64(32)) + (mid >> _U64(32))


def _round_to_odd(x1, y0, y1):
    """``floor(g * cp / 2**127)``, its lowest bit set when the quotient is
    inexact, for ``g = g1 * 2**63 + g0``: from ``x1``, the high word of
    ``g0 * cp``, and ``y1`` and ``y0``, the words of ``g1 * cp``.  (The low
    word of ``g0 * cp`` does not change the result.)"""
    z = (y0 >> _U64(1)) + x1
    return y1 + (z >> _U64(63)) | (z & _M63) + _M63 >> _U64(63)


def _shifted(x0, x1, y0, y1, g0, g1, s, up: bool):
    """The words ``x1, y0, y1`` of the products for ``cp + 2**s`` (``up``)
    or ``cp - 2**s``, from those for ``cp`` and the low word ``x0``."""
    rest = _U64(64) - s
    if up:
        low, y = x0 + (g0 << s), y0 + (g1 << s)
        return x1 + (g0 >> rest) + (low < x0), y, y1 + (g1 >> rest) + (y < y0)
    low, y = x0 - (g0 << s), y0 - (g1 << s)
    return x1 - (g0 >> rest) - (low > x0), y, y1 - (g1 >> rest) - (y > y0)


def _decimal(bits):
    """``d`` and ``k`` such that ``d * 10**k`` is the shortest decimal that
    rounds to each positive normal double, the closer one when there are
    two; ``d`` has 16 or 17 digits, trailing zeros included."""
    bq = (bits >> _U64(52)).astype(np.intp)
    tail = bits & _T_MASK
    closer_below = (tail == _U64(0)) & (bq > 1)
    j = bq + 2048 * closer_below
    k, *tables = _powers()
    h, g1h, g1l, g0h, g0l, g1, g0 = (table.take(j) for table in tables)
    c = tail | _C_MIN
    # The double in quarters of 2**q, shifted left by h: cp.  The ends of
    # the interval of reals that round to it lie 2 quarters above, and 2
    # below (1 when the lower neighbour is closer).  Each times g is in
    # quarters of 10**k.
    cp = c << (h + _U64(2))
    ch, cl = cp >> _U64(32), cp & _M32
    words = g0 * cp, _mulhi(g0h, g0l, ch, cl), g1 * cp, _mulhi(g1h, g1l, ch, cl)
    vb = _round_to_odd(*words[1:])
    vbl = _round_to_odd(*_shifted(*words, g0, g1, h + _U64(1) - closer_below, up=False))
    vbr = _round_to_odd(*_shifted(*words, g0, g1, h + _U64(1), up=True))
    # A decimal of m quarters is in the interval when m, plus one where c is
    # odd and the ends are open, lies between its ends.  Of the multiples
    # of 10 next to s, at most one is in; else s or s + 1, the closer one.
    odd = c & _U64(1)
    s = vb >> _U64(2)
    u = s // _U64(10) * _U64(10)
    u_in = vbl + odd <= u << _U64(2)
    w_in = (u + _U64(10) << _U64(2)) + odd <= vbr
    s_in = vbl + odd <= s << _U64(2)
    t_in = (s + _U64(1) << _U64(2)) + odd <= vbr
    mid = (s << _U64(2)) + _U64(2)
    above = (vb > mid) | (vb == mid) & (s & _U64(1) == _U64(1))
    d = np.where(s_in != t_in, s + t_in, s + above)
    return np.where(u_in != w_in, u + _U64(10) * w_in, d), k.take(j)


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


_P10 = np.array([10 ** i for i in range(17)], dtype=_U64)


def _quads(d):
    """Rows of the four groups of four decimal digits of ``d < 10**16``, the
    most significant first, as uint32."""
    quads = np.empty((4, len(d)), dtype=np.uint32)
    for i in reversed(range(4)):
        q = d // _P10[4]
        quads[i] = d - q * _P10[4]
        d = q
    return quads


def _layout_table(layouts, minus=None):
    """Each layout's source bytes padded to one width, and its length; then,
    given the source byte of a minus sign, each layout again after one."""
    lengths = np.array(list(map(len, layouts)))
    width = lengths.max() + (minus is not None)
    table = np.array([cols + [0] * (width - len(cols)) for cols in layouts], dtype=np.intp)
    if minus is not None:
        signed = np.roll(table, 1, axis=1)
        signed[:, 0] = minus
        table, lengths = np.concatenate([table, signed]), np.concatenate([lengths, lengths + 1])
    return table, lengths


def _lay_out(source, layouts, which):
    """The field of each row of ``source`` (bytes) in layout ``which``."""
    table, lengths = layouts
    index = table.take(which, axis=0)
    index += np.arange(0, source.size, source.shape[1])[:, None]
    return source.ravel().take(index), lengths.take(which)


# A float's source: 28 bytes, 7 uint32 words.  Its 17 digits are bytes 3 to
# 19, the decimal exponent's magnitude in four digits bytes 24 to 27.
_MINUS, _DOT, _ZERO, _E, _PLUS = 0, 1, 2, 20, 21
_HEAD = np.frombuffer(b"-.0\0", np.uint32)[0]  # byte 3 takes the leading digit
_E_PLUS = np.frombuffer(b"e+\0\0", np.uint32)[0]
_X_MIN, _X_MAX = -4, 15  # the positional decimal exponents
_X_LOW = -308  # the least decimal exponent of a normal double


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


# The layouts: of each positional decimal exponent, of two- and three-digit
# exponents below and above zero, each with 1 to 17 digits; then all again
# with a sign.
_LAYOUT_XS = (*range(_X_MIN, _X_MAX + 1), -10, 16, -100, 100)
_SIGNED = len(_LAYOUT_XS) * 17


@cache
def _float_layouts():
    """The float layouts, and the first layout of each exponent from _X_LOW."""
    layouts = _layout_table([_float_layout(x, n) for x in _LAYOUT_XS for n in range(1, 18)], _MINUS)
    x = np.arange(_X_LOW, -_X_LOW + 1)
    return layouts, 17 * np.select([x < -99, x < _X_MIN, x <= _X_MAX, x < 100],
                                   [22, 20, x - _X_MIN, 21], 23)


def floats(values, fallback=float.__repr__):
    """The text of ``float.__repr__`` of each float64 in ``values``, as a
    field of the same shape; subnormals and non-finite values take the
    text of ``fallback``."""
    shape = np.shape(values)
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = values.view(_U64)
    negative = bits > _M63
    bits = bits & _M63
    special = (bits < _C_MIN) | (bits >= _INF_BITS)  # zero, subnormal, inf or nan
    d, k = _decimal(np.where(special, _ONE_BITS, bits))  # 1.0 stands in for them
    (quad_text, significant), (layouts, first_layout) = _digits(), _float_layouts()
    short = d < _P10[16]
    d = np.where(short, d * _U64(10), d)
    lead = d // _P10[16]
    quads = _quads(d - lead * _P10[16])
    source = np.empty((len(d), 7), dtype=np.uint32)
    source[:, 0] = _HEAD
    source[:, 1:5] = quad_text.take(quads.T)
    source[:, 5] = _E_PLUS
    x = k + 16 - short  # the decimal exponent of the leading digit; 0 for zeros
    source[:, 6] = quad_text.take(np.abs(x))
    source = source.view(np.uint8)
    source[:, 3] = lead - (bits == _U64(0)) + _U64(ord("0"))
    n = np.maximum.reduce([table.take(q) for table, q in zip(significant, quads)])
    which = first_layout.take(x - _X_LOW) + n + (negative * _SIGNED - 1)
    chars, lengths = _lay_out(source, layouts, which)
    for i in np.flatnonzero(special & (bits != _U64(0))):
        text = fallback(float(values[i])).encode()
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
        lengths[i] = len(text)
    return chars.reshape(*shape, chars.shape[1]), lengths.reshape(shape)


def ints(values):
    """The text of ``str`` of each int64 in ``values``, as a field of the
    same shape."""
    shape = np.shape(values)
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    text = values.astype("S20")  # 20 bytes hold -2**63
    return text.view(np.uint8).reshape(*shape, 20), np.char.str_len(text).reshape(shape)


def texts(strings):
    """A field of the given ASCII strings, one per row, to :func:`pick` from."""
    table, lengths = _layout_table([list(s.encode("ascii")) for s in strings])
    return table.astype(np.uint8), lengths


def pick(field, codes):
    """The field of row ``codes[i]`` of ``field`` for each i."""
    chars, lengths = field
    codes = np.asarray(codes, dtype=np.intp)
    return chars.take(codes, axis=0), lengths.take(codes)


def join(literals, fields) -> str:
    """The rows of ``fields`` as one string: each row ``literals[0]``, the
    row's text of the first token, ``literals[1]`` and so on to the last
    literal.  A field of 1-D lengths is one token, one of 2-D lengths a
    token per column; there is one literal more than there are tokens."""
    rows = len(fields[0][1])
    blocks = [(chars, lengths) if lengths.ndim == 2 else (chars[:, None], lengths[:, None])
              for chars, lengths in fields]
    pre, template, starts = _literal_slots(literals, max(chars.shape[2] for chars, _ in blocks))
    text = np.empty((rows, *template.shape), dtype=np.uint8)
    text[:] = template
    ends = np.full(text.shape[:2], pre)
    token = 0
    for chars, lengths in blocks:
        tokens = slice(token, token + lengths.shape[1])
        text[:, tokens, pre:pre + chars.shape[2]] = chars
        ends[:, tokens] += lengths
        token = tokens.stop
    keep = _keep_table(template.shape[1]).take(starts + ends, axis=0)
    return text[keep].tobytes().decode("ascii")


@lru_cache(maxsize=16)
def _literal_slots(literals, text_width):
    """Each token in a slot of one width: its literal right-aligned in the
    first ``pre`` bytes, then up to ``text_width`` bytes of text.  Gives
    ``pre``, the read-only template of the slots with their literals, and
    each literal's first byte times ``width + 1``, for :func:`_keep_table`."""
    pre = max(map(len, literals))
    width = pre + text_width
    template = np.zeros((len(literals), width), dtype=np.uint8)
    for row, literal in zip(template, literals):
        row[pre - len(literal):pre] = np.frombuffer(literal.encode("ascii"), np.uint8)
    starts = (pre - np.array(list(map(len, literals)))) * (width + 1)
    template.flags.writeable = starts.flags.writeable = False
    return pre, template, starts


@lru_cache(maxsize=16)
def _keep_table(width):
    """Read-only; row ``start * (width + 1) + end`` keeps bytes start to
    end - 1 of a slot of ``width`` bytes."""
    place = np.arange(width + 1)
    used = (place[:-1] >= place[:, None, None]) & (place[:-1] < place[:, None])
    used.flags.writeable = False
    return used.reshape(-1, width)


def write_rows(fh, header: str, rows: int, step: int, fields) -> None:
    """Write the CSV line ``header``, then ``rows`` rows, ``step`` rows per
    write.  ``fields(a, b)`` gives the fields of rows a to b - 1, one token
    per column of ``header``; the tokens of a row are comma-separated."""
    fh.write(header + "\n")
    literals = ("", *[","] * header.count(","), "\n")
    for a in range(0, rows, step):
        fh.write(join(literals, fields(a, min(a + step, rows))))
