"""The one CSV writer: comment lines, a header line, rows at %.17g."""


def write_csv(path, header: str, rows, comments=()) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(f"{header}\n")
        fh.writelines(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
