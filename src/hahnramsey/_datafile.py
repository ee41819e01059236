"""The one CSV writer: comment lines, a header line, rows at %.17g.

Both writers write a chunk of rows at a time, so a large file costs
neither one string of the whole file nor a Python call per row.
write_csv formats a chunk of a 2-d float array with one % over a
repeated line template.  write_grid_csv writes one x,y,value row per
cell of a 2-d grid, and builds the %.17g text of the values in numpy,
byte for byte what '%.17g' % v writes.  Seventeen digits take the
bignum path of CPython's float formatting, about 0.4 us a value; the
array steps below take about 0.1 us a value, and the removal of the
padding about 1 ns a byte (2-core x86 container, numpy 2.4).

- The 17-digit significand of |v| is round(|v| 10^p) with p = 16 - X,
  where X is floor(log10 |v|), moved by one when the scaled value falls
  outside [1e16, 1e17).  10^p is a table entry hi + lo of two doubles
  (about 2^-106 relative), and |v| hi is made exact by Dekker's split
  product (Numer. Math. 18, 224 (1971)), so the scaled value carries an
  absolute error under 1e-13.  Its integer part is exact in int64.  A
  decade edge needs no fallback: a scaled value within that error of
  1e16 or of 1e17 rounds to the same power of ten from either side.
- The digits come from a table of the 10^4 four-digit groups; the
  trailing zeros from a table of each group's count.
- A value's text sits in 48 bytes: the sign, '0.000', each digit with
  a decimal point after it, then 'e', the exponent's sign and two
  digits, and the newline.  A layout table of masks, keyed by the form and the
  digit count, keeps the bytes of the text and clears the rest to NUL:
  the fixed form for -4 <= X < 17, else the exponent form, each with
  its trailing zeros stripped, as %g does.
- Each cell's x,y,value line sits in a NUL-padded slot, and one
  bytes.translate per chunk removes the padding.

'%' formats the values that this cannot decide, so every byte is still
CPython's: 0 and -0.0, inf and nan, |v| outside 1e-98..1e99 (the
table's range, which keeps the exponent to two digits and the table
small), and values whose scaled form lies within 1e-9 of a rounding
tie, where %g rounds half to even.  Correct rounding of decimal output:
Steele and White, and Gay (both PLDI 1990).
"""

import functools

import numpy as np

#: the text of every number: 17 significant digits round-trip a float64
_NUMBER = "%.17g"
#: numbers per write; a grid chunk's temporaries peak at about 350 B a cell
_CHUNK = 2 ** 11
#: bytes of a value's text and newline, in 6 words: room for each of
#: the 17 digits to take a decimal point after it
_WIDTH = 48
#: the decimal exponents of the fast path
_X_MIN, _X_MAX = -98, 98
#: distance of the scaled value from a rounding tie below which '%'
#: decides: 1e4 times the error bound
_TIE = 1e-9


def _write(path, header: str, comments, count: int, step: int, text) -> None:
    """Write the head, then the bytes text(start, stop) of each chunk of
    step items out of count."""
    with open(path, "wb") as fh:
        fh.write("".join([f"# {c}\n" for c in comments] + [f"{header}\n"]).encode())
        for start in range(0, count, step):
            fh.write(text(start, min(start + step, count)))


def write_csv(path, header: str, rows, comments=()) -> None:
    """One line per row of the 2-d float array rows."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join([_NUMBER] * rows.shape[1]) + "\n"

    def text(start, stop):
        return (line * (stop - start) % tuple(rows[start:stop].ravel().tolist())).encode()

    _write(path, header, comments, len(rows), max(1, _CHUNK // rows.shape[1]), text)


def write_grid_csv(path, header: str, xs, ys, values, comments=()) -> None:
    """Rows x,y,values[i, j] for every cell of values, whose shape is
    (len(xs), len(ys)), in row-major order."""
    x_text, y_text = (_padded([_NUMBER % v for v in grid]) for grid in (xs, ys))
    flat = np.asarray(values, dtype=float).ravel()
    wx, wy = x_text.shape[1], y_text.shape[1]

    def text(start, stop):
        i, j = np.divmod(np.arange(start, stop), len(ys))
        slots = np.empty((stop - start, wx + wy + 2 + _WIDTH), np.uint8)
        slots[:, :wx] = x_text.take(i, axis=0)
        slots[:, wx + 1:wx + 1 + wy] = y_text.take(j, axis=0)
        slots[:, [wx, wx + 1 + wy]] = ord(",")
        slots[:, wx + wy + 2:] = _text_bytes(flat[start:stop])
        return slots.tobytes().translate(None, b"\0")

    _write(path, header, comments, flat.size, _CHUNK, text)


def _padded(texts) -> np.ndarray:
    """The ASCII texts as rows of a uint8 array, NUL-padded to the
    longest."""
    width = max(map(len, texts))
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode(),
                         np.uint8).reshape(len(texts), width)


def _words(rows) -> np.ndarray:
    """Rows of 8 bytes (an array or ints) as one uint64 word each."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint64)[..., 0]


#: the bytes of a text's first word that are not data: '0.000' and the
#: decimal point after the leading digit
_WORD0 = _words(np.frombuffer(b"\x000.000\x00.", np.uint8))


@functools.cache
def _tables():
    """Built on first use: for X in [_X_MIN - 1, _X_MAX + 1], 10^(16 - X)
    as hi + lo, with hi split in two halves of 26 bits, and the exponent
    words; the digit words and trailing-zero counts of the four-digit
    groups; the layout masks."""
    powers = []
    for p in range(16 - _X_MIN + 1, 16 - _X_MAX - 2, -1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den                     # correctly rounded, as is lo
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        c = 134217729.0 * hi               # Dekker's split of hi
        head = c - (c - hi)
        powers.append((hi, lo, head, hi - head))
    x = np.arange(_X_MIN - 1, _X_MAX + 2)
    texts = "".join(("e%+03d\n" % k).ljust(8, "\0") for k in x.tolist())
    exponents = _words(np.frombuffer(texts.encode(), np.uint8).reshape(-1, 8))
    groups = np.arange(10 ** 4, dtype=np.uint16)
    digits = np.full((10 ** 4, 8), ord("."), np.uint8)
    zeros = np.zeros(10 ** 4, np.uint8)
    for k in range(4):
        digits[:, 2 * k] = groups // 10 ** (3 - k) % 10 + 48
        zeros[groups % 10 ** (k + 1) == 0] = k + 1
    # the key of the layout with 17 significant digits
    forms = np.where((x >= -4) & (x < 17), x + 4, 21) * 17 + 16
    return np.array(powers).T.copy(), exponents, forms, _words(digits), zeros, _layouts()


def _layouts() -> np.ndarray:
    """The masks of the 48 bytes of a value's text, as 6 words each, for
    the key 17 f + n - 1: n significant digits, f = X + 4 in the fixed
    form (-4 <= X < 17) and f = 21 in the exponent form."""
    f, n = (a.ravel() for a in np.meshgrid(np.arange(22), np.arange(1, 18), indexing="ij"))
    x, fixed = f - 4, f < 21
    mask = np.zeros((f.size, 48), bool)
    mask[:, [0, 6]] = True                           # sign, leading digit
    mask[:, 1:6] = fixed[:, None] & (x[:, None] <= -np.array([1, 1, 2, 3, 4]))
    whole = np.where(fixed & (x >= 0), x + 1, 1)     # digits before the point
    k = np.arange(17)
    mask[:, 6:40:2] = k < np.maximum(n, whole)[:, None]
    point = (n > whole) & (~fixed | (x >= 0))         # digits after the point
    mask[:, 7:41:2] = (k == whole[:, None] - 1) & point[:, None]
    mask[:, 40:44] = ~fixed[:, None]
    mask[:, 44] = True                               # the newline
    return (mask * np.uint8(255)).view(np.uint64)


def _scaled(a, i, powers):
    """|v| 10^(16 - X) as hi + lo, for X at index i of the table: hi is
    the rounded product with the table's hi, lo its exact error (Dekker)
    plus |v| times the table's lo."""
    hi10, lo10, head10, tail10 = powers.take(i, axis=1)
    hi = a * hi10
    c = 134217729.0 * a
    head = c - (c - a)
    tail = a - head
    lo = (((head * head10 - hi) + head * tail10 + tail * head10) + tail * tail10
          + a * lo10)
    return hi, lo


def _text_bytes(v) -> np.ndarray:
    """'%.17g' % v and a newline for each value of the 1-d float array v,
    as rows of _WIDTH bytes with NULs between the characters."""
    powers, exponents, forms, digits, zeros, layouts = _tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
    fast = (x >= _X_MIN) & (x <= _X_MAX)
    a = np.where(fast, a, 1.0)
    # X as an index of the tables
    i = np.where(fast, x - (_X_MIN - 1), 1 - _X_MIN).astype(np.intp)
    hi, lo = _scaled(a, i, powers)
    # the decade correction: floor(log10 |v|) can be one off next to a
    # power of ten; the scaled value tells which way
    shift = ((hi - 1e17) + lo >= 0).astype(np.intp) - ((hi - 1e16) + lo < 0)
    if shift.any():
        i += shift
        hi, lo = _scaled(a, i, powers)
    whole = np.floor(lo + 0.5)
    fast &= 0.5 - np.abs(lo - whole) >= _TIE
    n = hi.astype(np.int64) + whole.astype(np.int64)
    # a round up to 10^17 is 10^16 at the next exponent
    top = n == 10 ** 17
    n[top] = 10 ** 16
    i += top
    # the leading digit, then four groups of four digits
    upper = n // 10 ** 8
    lower = n - upper * 10 ** 8
    lead, g2 = np.divmod(upper, 10 ** 4)
    lead, g1 = np.divmod(lead, 10 ** 4)
    g3, g4 = np.divmod(lower, 10 ** 4)
    z1, z2, z3, z4 = (zeros.take(g) for g in (g1, g2, g3, g4))
    tail = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    words = np.empty((v.size, 6), np.uint64)
    words[:, 0] = _WORD0
    for k, g in enumerate((g1, g2, g3, g4), 1):
        words[:, k] = digits.take(g)
    words[:, 5] = exponents.take(i)
    words &= layouts.take(forms.take(i) - tail, axis=0)
    out = words.view(np.uint8)
    out[:, 0] = np.signbit(v) * ord("-")
    out[:, 6] = lead + ord("0")
    for k in np.flatnonzero(~fast):
        out[k] = np.frombuffer((_NUMBER % v[k] + "\n").encode().ljust(_WIDTH, b"\0"),
                               np.uint8)
    return out
