"""The CSV writers against Python's own '%.17g' % v, the oracle of every
number the package writes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnramsey._datafile import _text_bytes, write_csv, write_grid_csv


def texts(values) -> list:
    return [row.tobytes().replace(b"\0", b"").decode() for row in _text_bytes(values)]


def assert_formats_as_percent(values):
    values = np.asarray(values, dtype=float)
    names = [repr(v) for v in values.tolist()]
    want = ["%.17g\n" % v for v in values.tolist()]
    # compared as lists of pairs, so that a failure names the value
    assert list(zip(names, texts(values))) == list(zip(names, want))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_text_of_any_bit_pattern(bits):
    assert_formats_as_percent(np.array(bits, np.uint64).view(np.float64))


def test_text_next_to_every_power_of_ten():
    # floor(log10 |v|) is one off on one side of 10^k, and the rounded
    # significand reaches 10^17 just below it: the decade correction
    sweep = []
    for k in range(-323, 309):
        for toward in (0.0, math.inf):
            v = float(f"1e{k}")
            for _ in range(12):
                sweep += [v, -v]
                v = math.nextafter(v, toward)
    assert_formats_as_percent(sweep)


def test_text_of_exact_and_near_rounding_ties():
    # m / 2^k with m odd and m 5^k of 18 digits is exactly halfway between
    # two 17-digit decimals; %g rounds it to the even one
    rng = np.random.default_rng(11)
    ties = []
    for k in range(3, 26):
        low, high = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        for m in rng.integers(low, high, 40).tolist() + [low, high - 1]:
            m |= 1
            if m < 2 ** 53 and 10 ** 17 <= m * 5 ** k < 10 ** 18:
                ties.append(m / 2 ** k)
    assert len(ties) > 500
    near = [math.nextafter(v, d) for v in ties for d in (0.0, math.inf)]
    scaled = [v * 2.0 ** j for v in ties[::7] for j in (-60, -1, 1, 60)]
    assert_formats_as_percent([s * v for v in ties + near + scaled for s in (1, -1)])


def test_text_of_values_the_fast_path_leaves_to_percent():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 1e-98,
                9.9999999999999e-99, 1e99, 9.9999999999999e98, 1e300,
                1.7976931348623157e308]
    assert_formats_as_percent(specials + [-v for v in specials])


def test_text_of_integers_and_spread_magnitudes():
    rng = np.random.default_rng(5)
    ints = rng.integers(-10 ** 15, 10 ** 15, 2000).astype(float)
    powers = rng.integers(1, 2 ** 53, 2000) * 2.0 ** rng.integers(-70, 70, 2000)
    spread = rng.choice([-1, 1], 4000) * 10.0 ** rng.uniform(-320, 308, 4000)
    fixed_edges = np.array([1e-5, 1e-4, 0.001, 1.0, 1e15, 1e16, 1e17, 123456789.0,
                            0.1, 0.5, 2.5, 1e16 - 2, 1e17 - 16])
    assert_formats_as_percent(np.concatenate([ints, powers, spread, fixed_edges,
                                              rng.random(2000), -rng.random(2000)]))


def write_rows_per_format(path, header, rows, comments):
    with open(path, "w") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(f"{header}\n")
        fh.writelines(",".join("%.17g" % v for v in row) + "\n" for row in rows)


# at 2^11 numbers per write, 4 columns make chunks of 512 rows
@pytest.mark.parametrize("n_rows, n_cols", [(1, 1), (3, 5), (512, 4), (513, 4),
                                            (1500, 4), (2049, 1), (2, 3000)])
def test_write_csv_is_the_per_row_format(n_rows, n_cols, tmp_path):
    rng = np.random.default_rng(n_rows)
    shape = (n_rows, n_cols)
    rows = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape)
    specials = [0.0, -0.0, math.inf, math.nan, 8192.0, -1e-300, 1e22]
    rows.flat[:7 * len(specials):7] = specials[:len(rows.flat[::7])]
    write_csv(tmp_path / "new.csv", "h", rows, ["c1", "c2"])
    write_rows_per_format(tmp_path / "old.csv", "h", rows.tolist(), ["c1", "c2"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# at 2^11 cells per write, (700, 3), (23, 101) and (1, 2000) are written
# in 2, 2 and 1 chunks, the first two splitting a row at a ragged chunk
# edge; the last set holds cells the numpy text leaves to '%'
_SPECIAL_CELLS = [-0.0, 0.0, -2.5, 1e-300, -1e300, 5e-324, 1e16, 1e17, -1e-5,
                  2.0 ** -25, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("shape, special", [
    ((1, 1), False), ((3, 5), False), ((7, 2), False), ((37, 3), False),
    ((1, 101), False), ((23, 101), False), ((700, 3), False), ((1, 2000), False),
    ((6, 12), True)], ids=[f"shape{k}" for k in range(8)] + ["special"])
def test_write_grid_csv_is_the_per_cell_format(shape, special, tmp_path):
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.1, 4.0, shape[0]))
    gam = np.sort(rng.uniform(0.0, 1.2, shape[1]))
    res = rng.random(shape) * 10.0 ** rng.integers(-12, 3, shape)
    if special:
        res.flat[::3] = _SPECIAL_CELLS + [-v for v in _SPECIAL_CELLS[2:]]
    write_grid_csv(tmp_path / "m.csv", "lambda,gamma,residual", lam, gam, res, ["hdr"])
    cells = "".join(f"{lam[i]:.17g},{gam[j]:.17g},{res[i, j]:.17g}\n"
                    for i in range(shape[0]) for j in range(shape[1]))
    # the exact text, compared line by line so that a failure reports fast
    assert (tmp_path / "m.csv").read_text().split("\n") == (
        "# hdr\nlambda,gamma,residual\n" + cells).split("\n")
