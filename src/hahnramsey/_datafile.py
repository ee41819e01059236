"""The one CSV writer: comment lines, a header line, rows at %.17g.

write_csv takes rows; write_grid_csv writes one x,y,value row per cell of
a 2-d grid.  It formats each x and y once and writes a chunk of grid rows
with one % over a template of "x,y,%.17g" lines, so a large grid costs
neither a format call per cell nor one string of the whole file.
"""

#: the text of every number: 17 significant digits round-trip a float64
_NUMBER = "%.17g"
#: cells per write of write_grid_csv, whole grid rows and at least one:
#: about 64 KiB of text at the scan's 101 gamma values
_GRID_CHUNK = 2 ** 10


def _write_head(fh, header: str, comments) -> None:
    fh.writelines(f"# {c}\n" for c in comments)
    fh.write(f"{header}\n")


def write_csv(path, header: str, rows, comments=()) -> None:
    with open(path, "w") as fh:
        _write_head(fh, header, comments)
        fh.writelines(",".join([_NUMBER] * len(row)) % tuple(row) + "\n"
                      for row in rows)


def write_grid_csv(path, header: str, xs, ys, values, comments=()) -> None:
    """Rows x,y,values[i, j] for every cell of values, whose shape is
    (len(xs), len(ys)), in row-major order."""
    # joined with the text of x, these make the lines of one grid row
    pieces = [""] + [f",{_NUMBER % y},{_NUMBER}\n" for y in ys]
    rows = max(1, _GRID_CHUNK // len(pieces))
    with open(path, "w") as fh:
        _write_head(fh, header, comments)
        for start in range(0, len(xs), rows):
            chunk = slice(start, start + rows)
            template = "".join((_NUMBER % x).join(pieces) for x in xs[chunk])
            fh.write(template % tuple(values[chunk].ravel().tolist()))
