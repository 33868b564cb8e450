"""End-to-end tests of the ``streamsieve`` command line, driven in-process."""

import csv
import random
import sys
import tracemalloc
from operator import itemgetter

import pytest

from streamsieve import REPLAY_CAP, explode_row
from streamsieve.algorithms import MAX_STEADY_T, _GreedyCurator, parse_int
from streamsieve.benchmark import BENCH_FIELDS
from streamsieve.cli import RECORD_COLUMNS, main, run


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fileobj:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


DUMP_HEADER = ["dstream_algo", "dstream_S", "dstream_T", "dstream_storage_hex", "label"]


class TestExplode:
    def test_happy_path(self, tmp_path, capsys):
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(src, DUMP_HEADER, [["steady", 4, 8, "05010703", "alpha"]])
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 0
        with open(out, newline="") as fileobj:
            rows = list(csv.DictReader(fileobj))
        assert len(rows) == 4
        assert [r["dstream_site"] for r in rows] == ["0", "1", "2", "3"]
        assert [r["dstream_Tbar"] for r in rows] == ["5", "1", "7", "3"]
        assert [r["dstream_value"] for r in rows] == ["5", "1", "7", "3"]
        # source columns pass through verbatim, once per site
        assert {r["label"] for r in rows} == {"alpha"}
        assert {r["dstream_row"] for r in rows} == {"0"}
        assert {r["dstream_storage_hex"] for r in rows} == {"05010703"}
        # clean run still writes an (empty) rejects report
        assert (tmp_path / "long.csv.rejects").read_text() == "dstream_row,error\n"
        assert capsys.readouterr().err == ""

    def test_unwritten_sites_are_blank(self, tmp_path):
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(src, DUMP_HEADER, [["steady", 4, 2, "0001ffff", "beta"]])
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 0
        with open(out, newline="") as fileobj:
            rows = list(csv.DictReader(fileobj))
        assert [r["dstream_Tbar"] for r in rows] == ["0", "1", "", ""]
        assert [r["dstream_value"] for r in rows] == ["0", "1", "", ""]

    def test_bad_rows_are_isolated(self, tmp_path, capsys):
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(
            src,
            DUMP_HEADER,
            [
                ["steady", 4, 8, "05010703", "good"],
                ["steady", 4, 8, "zz010703", "bad hex"],
                ["stretched", 4, 100, "05010703", "past capacity"],
                ["steady", "four", 8, "05010703", "bad S"],
            ],
        )
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 1
        assert "3 of 4 rows rejected" in capsys.readouterr().err
        with open(out, newline="") as fileobj:
            rows = list(csv.DictReader(fileobj))
        assert len(rows) == 4  # only the good row's sites
        assert {r["label"] for r in rows} == {"good"}
        with open(str(out) + ".rejects", newline="") as fileobj:
            rejects = list(csv.DictReader(fileobj))
        assert [r["dstream_row"] for r in rejects] == ["1", "2", "3"]
        assert all(r["error"] for r in rejects)

    @pytest.mark.parametrize(
        "s_cell, t_cell",
        [("+4", "8"), ("4", "1_0"), (" 4 ", "8"), ("4", "\u0661\u0662"), ("4", "--8"), ("4", "")],
        ids=["plus", "underscore", "spaces", "arabic-indic", "double-minus", "empty"],
    )
    def test_integer_cells_are_ascii_digits(self, tmp_path, capsys, s_cell, t_cell):
        # int() would read each of these as S=4 or a T of 10 or 12
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(src, DUMP_HEADER, [["steady", s_cell, t_cell, "05010703", "x"]])
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 1
        assert "1 of 1 rows rejected" in capsys.readouterr().err
        with open(str(out) + ".rejects", newline="") as fileobj:
            [reject] = list(csv.DictReader(fileobj))
        bad = t_cell if s_cell == "4" else s_cell
        assert reject["error"] == f"expected an integer in ASCII digits, got {bad!r}"

    def test_empty_table_is_fine(self, tmp_path):
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(src, DUMP_HEADER, [])
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 0
        header = out.read_text().rstrip("\n").split(",")
        assert header == ["dstream_row", *DUMP_HEADER, "dstream_site", "dstream_Tbar", "dstream_value"]

    def test_cells_past_the_default_csv_field_limit(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        # longer than csv's default limit but not the longest legal dump:
        # a wrong-length digest, so a per-row reject and the batch goes on
        write_csv(
            src,
            DUMP_HEADER,
            [["steady", 4, 4, "0" * 200_000, "long"], ["steady", 4, 8, "05010703", "good"]],
        )
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 1
        assert "1 of 2 rows rejected" in capsys.readouterr().err
        with open(out, newline="") as fileobj:
            assert {r["label"] for r in csv.DictReader(fileobj)} == {"good"}
        # the reject names the length, not the cell, so csv reads it back
        with open(tmp_path / "long.csv.rejects", newline="") as fileobj:
            rejects = list(csv.DictReader(fileobj))
        assert [r["dstream_row"] for r in rejects] == ["0"]
        assert rejects[0]["error"] == "expected 8 hex digits for S=4 width=8, got 200000 characters"
        assert csv.field_size_limit() == limit
        # a cell longer than any dump (2**20 sites at 64 bits) is a usage error
        too_long = "0" * ((1 << 24) + 1)
        write_csv(src, DUMP_HEADER, [["steady", 4, 8, "05010703", "good"], ["steady", 4, 8, too_long, "x"]])
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 2
        assert "line 3" in capsys.readouterr().err
        assert csv.field_size_limit() == limit

    def test_empty_input_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "dumps.csv"
        src.write_text("")
        assert main(["explode", str(src), str(tmp_path / "out.csv"), "--value-bits", "8"]) == 2
        assert capsys.readouterr().err == f"error: {src} has no header row\n"

    def test_missing_column_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "dumps.csv"
        write_csv(src, ["dstream_algo", "dstream_S", "dstream_T"], [["steady", 4, 8]])
        code = main(["explode", str(src), str(tmp_path / "out.csv"), "--value-bits", "8"])
        assert code == 2
        assert "dstream_storage_hex" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(
            ["explode", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv"), "--value-bits", "8"]
        )
        assert code == 2

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "dumps.csv"
        write_csv(src, DUMP_HEADER, [["steady", 4, 8, "05010703", "alpha"]])
        out = tmp_path / "missing" / "out.csv"
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_report_fails_before_any_record(self, tmp_path, capsys):
        # the rejects report is an output too, opened with the output; before,
        # every record was written and only then the report found unwritable
        src = tmp_path / "dumps.csv"
        write_csv(src, DUMP_HEADER, [["steady", 4, 8, "05010703", "alpha"]] * 3)
        out = tmp_path / "out.csv"
        (tmp_path / "out.csv.rejects").mkdir()
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}.rejects: ")
        assert out.read_text() == ""

    def test_value_bits_is_required_and_validated(self, tmp_path):
        src = tmp_path / "dumps.csv"
        write_csv(src, DUMP_HEADER, [])
        assert main(["explode", str(src), str(tmp_path / "o.csv")]) == 2
        assert main(["explode", str(src), str(tmp_path / "o.csv"), "--value-bits", "12"]) == 2

    def test_long_and_short_rows(self, tmp_path, capsys):
        # a row with more cells than the header is rejected and the batch
        # goes on; a short row reads its missing cells as empty
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        src.write_text(
            "dstream_algo,dstream_S,dstream_T,dstream_storage_hex,label\n"
            "steady,4,8,0f0b110d,first,extra\n"
            "steady,4,8,05010703\n"
            "steady,4,8\n"
            "steady,4,2,0a0b0000,last\n"
        )
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 1
        assert "2 of 4 rows rejected" in capsys.readouterr().err
        with open(out, newline="") as fileobj:
            rows = list(csv.DictReader(fileobj))
        assert [r["dstream_row"] for r in rows] == ["1"] * 4 + ["3"] * 4
        assert [r["label"] for r in rows] == [""] * 4 + ["last"] * 4
        assert [r["dstream_Tbar"] for r in rows] == ["5", "1", "7", "3", "0", "1", "", ""]
        with open(str(out) + ".rejects", newline="") as fileobj:
            rejects = list(csv.DictReader(fileobj))
        assert [r["dstream_row"] for r in rejects] == ["0", "2"]
        assert rejects[0]["error"] == "row has 6 cells but the header has 5"
        assert rejects[1]["error"].endswith("got NoneType")  # the missing hex cell

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                # cells that need quoting, a blank line, a short row and
                # unwritten sites
                'label,dstream_algo,dstream_S,dstream_T,dstream_storage_hex,note\n'
                '"a,b",steady,4,8,05010703,"say ""hi"""\n'
                "\n"
                "x,steady,4,2,0a0b0000\n"
                '"q""",tilted,4,3,0a0b0c00,"two\nlines"\n',
                "dstream_row,label,dstream_algo,dstream_S,dstream_T,dstream_storage_hex,note,"
                "dstream_site,dstream_Tbar,dstream_value\n"
                '0,"a,b",steady,4,8,05010703,"say ""hi""",0,5,5\n'
                '0,"a,b",steady,4,8,05010703,"say ""hi""",1,1,1\n'
                '0,"a,b",steady,4,8,05010703,"say ""hi""",2,7,7\n'
                '0,"a,b",steady,4,8,05010703,"say ""hi""",3,3,3\n'
                "1,x,steady,4,2,0a0b0000,,0,0,10\n"
                "1,x,steady,4,2,0a0b0000,,1,1,11\n"
                "1,x,steady,4,2,0a0b0000,,2,,\n"
                "1,x,steady,4,2,0a0b0000,,3,,\n"
                '2,"q""",tilted,4,3,0a0b0c00,"two\nlines",0,0,10\n'
                '2,"q""",tilted,4,3,0a0b0c00,"two\nlines",1,1,11\n'
                '2,"q""",tilted,4,3,0a0b0c00,"two\nlines",2,2,12\n'
                '2,"q""",tilted,4,3,0a0b0c00,"two\nlines",3,,\n',
            ),
            (
                # a repeated name takes its last cell; an input column named
                # like an output column takes the record's value
                "label,dstream_algo,dstream_S,dstream_T,dstream_storage_hex,label,"
                "dstream_site,dstream_row\n"
                "one,steady,4,3,05010703,two,s,r\n",
                "dstream_row,label,dstream_algo,dstream_S,dstream_T,dstream_storage_hex,label,"
                "dstream_site,dstream_row,dstream_site,dstream_Tbar,dstream_value\n"
                "0,two,steady,4,3,05010703,two,0,0,0,0,5\n"
                "0,two,steady,4,3,05010703,two,1,0,1,1,1\n"
                "0,two,steady,4,3,05010703,two,2,0,2,2,7\n"
                "0,two,steady,4,3,05010703,two,3,0,3,,\n",
            ),
            (
                # cells that str.format would read as fields, a quoted \r, a
                # quoted comma and empty cells, around a record column
                "a,dstream_algo,dstream_S,dstream_T,dstream_value,dstream_storage_hex,b,c,d,e,f\n"
                '{0},steady,4,3,{2},05010703,}{,{1!r},"say ""{\r}""","x,y",\n'
                '{,tilted,4,2,v,0a0b0c00,}},"{""}",,"{0:>9}",{}\n',
                "dstream_row,a,dstream_algo,dstream_S,dstream_T,dstream_value,dstream_storage_hex,"
                "b,c,d,e,f,dstream_site,dstream_Tbar,dstream_value\n"
                '0,{0},steady,4,3,5,05010703,}{,{1!r},"say ""{\r}""","x,y",,0,0,5\n'
                '0,{0},steady,4,3,1,05010703,}{,{1!r},"say ""{\r}""","x,y",,1,1,1\n'
                '0,{0},steady,4,3,7,05010703,}{,{1!r},"say ""{\r}""","x,y",,2,2,7\n'
                '0,{0},steady,4,3,,05010703,}{,{1!r},"say ""{\r}""","x,y",,3,,\n'
                '1,{,tilted,4,2,10,0a0b0c00,}},"{""}",,{0:>9},{},0,0,10\n'
                '1,{,tilted,4,2,11,0a0b0c00,}},"{""}",,{0:>9},{},1,1,11\n'
                '1,{,tilted,4,2,,0a0b0c00,}},"{""}",,{0:>9},{},2,,\n'
                '1,{,tilted,4,2,,0a0b0c00,}},"{""}",,{0:>9},{},3,,\n',
            ),
        ],
    )
    def test_output_bytes_are_frozen(self, tmp_path, text, expected):
        # frozen from the former writers: one dict per record through
        # csv.DictWriter, then one csv.writer row per record
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        src.write_text(text)
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 0
        with open(out, newline="") as fileobj:
            assert fileobj.read() == expected

    def test_a_bare_carriage_return_reads_back(self, tmp_path):
        # csv quotes a cell for the characters of its line terminator; a
        # bare \r written unquoted splits the record when it is read back
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        src.write_text(
            'dstream_algo,dstream_S,dstream_T,dstream_storage_hex,"la\rbel"\n'
            'steady,4,8,05010703,"cr\rhere"\n'
            'tilted,4,2,0a0b0c00,"\r"\n',
            newline="",
        )
        assert main(["explode", str(src), str(out), "--value-bits", "8"]) == 0
        with open(out, newline="") as fileobj:
            rows = list(csv.reader(fileobj))
        assert rows[0] == ["dstream_row", *DUMP_HEADER[:4], "la\rbel", *RECORD_COLUMNS]
        assert [row[5] for row in rows[1:]] == ["cr\rhere"] * 4 + ["\r"] * 4
        assert rows[1] == ["0", "steady", "4", "8", "05010703", "cr\rhere", "0", "5", "5"]
        assert rows[8] == ["1", "tilted", "4", "2", "0a0b0c00", "\r", "3", "", ""]

    def test_matches_one_explode_row_per_row(self, tmp_path, capsys):
        """The batch writes the bytes that one explode_row call per row, in
        input order, wrote before rows of a layout shared one pass."""
        texts = []
        for seed in range(3):
            rng = random.Random(seed)
            rows = _explode_cases(rng)
            rng.shuffle(rows)
            texts.append("dstream_algo,dstream_S,dstream_T,dstream_storage_hex,label\n" + "".join(rows))
        # rows whose records span many write blocks, with cells str.format
        # would read as fields before and after a record column mid-header
        rng = random.Random(3)
        texts.append(
            "a,dstream_algo,dstream_S,dstream_T,dstream_Tbar,b,dstream_storage_hex,c\n"
            + "".join(
                f"{{0}},steady,{S},{T},x,}}}},{rng.randbytes(S).hex()},{{1!r}}\n"
                for S, T in ((1024, 1 << 40), (4, 8), (1024, 700), (256, 3))
            )
        )
        # a record column first, so the lead is the row number alone, and the
        # row number again inside the rest; braces and empty cells on both
        # sides of the first record cell, whose input cell is dropped
        texts.append(
            "dstream_site,a,dstream_algo,dstream_S,dstream_T,dstream_row,b,dstream_storage_hex,c\n"
            f"{{0}},}}}},steady,4,9,,{{0}},{rng.randbytes(4).hex()},\n"
            f",{{0}},tilted,16,300,}}}},,{rng.randbytes(16).hex()},}}}}\n"
            f"}}}},,stretched,16,200,{{1!r}},}}{{,{rng.randbytes(16).hex()}\n"
            f",,steady,256,{1 << 50},,,{rng.randbytes(256).hex()},{{0}}\n"
            f"{{0}},}}}},tilted,4,99,,,{rng.randbytes(4).hex()},past capacity\n"
        )
        for seed, text in enumerate(texts):
            src = tmp_path / f"dumps{seed}.csv"
            src.write_text(text)
            got, want = tmp_path / f"got{seed}.csv", tmp_path / f"want{seed}.csv"
            code = main(["explode", str(src), str(got), "--value-bits", "8"])
            err = capsys.readouterr().err
            assert (code, err) == _explode_per_row(src, want, 8), seed
            assert got.read_bytes() == want.read_bytes(), seed
            assert (tmp_path / f"got{seed}.csv.rejects").read_bytes() == (
                tmp_path / f"want{seed}.csv.rejects"
            ).read_bytes(), seed

    @pytest.mark.parametrize(
        "S, value_bits, size",
        [(4096, 8, 32 << 20), (1024, 64, 16 << 20)],
        ids=["S4096-8bit", "S1024-64bit"],
    )
    def test_memory_does_not_grow_with_the_output(self, tmp_path, S, value_bits, size):
        # one steady row writes S records, each with the row's hex cell, of
        # 8 KiB or 16 KiB: streamed in blocks of a few records, never joined
        # per row
        src = tmp_path / "dumps.csv"
        out = tmp_path / "long.csv"
        write_csv(src, DUMP_HEADER, [["steady", S, 10**6, "5a" * (S * value_bits // 8), "big"]])
        tracemalloc.start()
        try:
            assert main(["explode", str(src), str(out), "--value-bits", str(value_bits)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > size
        assert peak < 4 << 20

    def test_one_forward_pass_per_layout(self, tmp_path, monkeypatch, capsys):
        # k rows of one tilted layout step its curator to the deepest T once
        Ts = [3000, 17, 4000, 17, 900, 0, 2500]
        src = tmp_path / "dumps.csv"
        write_csv(src, DUMP_HEADER, [["tilted", 64, T, "00" * 64, T] for T in Ts])
        steps = []
        step = _GreedyCurator.step

        def counting(curator):
            steps.append(curator.T)
            return step(curator)

        monkeypatch.setattr(_GreedyCurator, "step", counting)
        assert main(["explode", str(src), str(tmp_path / "long.csv"), "--value-bits", "8"]) == 0
        assert len(steps) == max(Ts)  # not sum(Ts) = 10434
        assert steps == list(range(max(Ts)))


def _explode_cases(rng):
    """CSV lines (header: algo, S, T, hex, label) covering every route and
    every reject, with repeated and descending Ts within a layout."""

    def dump(S):
        return rng.randbytes(S).hex()

    good = [
        *(("tilted", 16, T) for T in (300, 50, 300, 10, 4000, 0, 1, 16)),
        *(("stretched", 16, T) for T in (65534, 17, 200, 200, 3)),
        ("stretched", 64, rng.randrange(1 << 16)),
        ("stretched", 64, rng.randrange(1 << 16)),
        *(("hybrid(steady:32+tilted:32)", 64, T) for T in (2000, 64, 2000, 5)),
        ("hybrid(steady:32+tilted:032)", 64, 700),  # the same layout, spelled apart
        *(("hybrid(stretched:4+steady:8+tilted:4)", 16, T) for T in (14, 3, 9, 9)),
        ("hybrid(steady:4+steady:4)", 8, REPLAY_CAP),
        ("hybrid(steady:4+steady:4)", 8, REPLAY_CAP + 1),
        ("steady", 64, 1 << 63),
        ("steady", 4, MAX_STEADY_T),
        ("steady", 256, rng.randrange(1 << 62)),
        ("steady", 256, 100),
    ]
    # labels that str.format would read as fields pass through verbatim
    labels = ("ok", "{0}", "}{", '"{1!r},{"', "{{}}")
    lines = [f"{a},{S},{T},{dump(S)},{labels[i % len(labels)]}\n" for i, (a, S, T) in enumerate(good)]
    lines += [
        f"tilted,16,5,{dump(16)},extra,cell\n",  # more cells than the header
        f"steady,four,8,{dump(4)},bad S\n",
        f"steady,4,1.5,{dump(4)},bad T\n",
        f",4,8,{dump(4)},empty token\n",
        "steady,4,8\n",  # the hex cell is missing
        f"bogus,4,8,{dump(4)},bad token\n",
        f"steady,6,8,{dump(6)},bad S\n",
        f"hybrid(steady:32+tilted:32),32,8,{dump(32)},sites mismatch\n",
        f"tilted,16,8,{dump(15)},short hex\n",
        f"tilted,16,8,zz{dump(15)},non-hex\n",
        f"tilted,16,-1,{dump(16)},negative T\n",
        f"stretched,4,100,{dump(4)},past capacity\n",
        f"tilted,8,{1 << 40},{dump(8)},past the reload limit\n",
        f"hybrid(steady:4+steady:4),8,{MAX_STEADY_T + 1},{dump(8)},past the reload limit\n",
        f"steady,4,{MAX_STEADY_T + 1},{dump(4)},past the reload limit\n",
        # several faults: each row reports the first in the check order
        "x,y,z,w,bad S and T\n",
        "steady,4,x,zz,bad T and hex\n",
        "bogus,6,-1,zz,bad token sites T and hex\n",
        "steady,6,-1,zz,bad sites T and hex\n",
        f"tilted,8,{1 << 40},zz,bad hex and past both bounds\n",
        f"stretched,4,-5,{dump(4)},negative and within bounds\n",
    ]
    return lines


def _explode_per_row(src, out, value_bits):
    """The explode loop as it was: one explode_row call per input row."""
    with open(src, newline="") as infile:
        reader = csv.reader(infile)
        fields = next(reader)
        rows = [cells for cells in reader if cells]
    width = len(fields)
    column = {name: i for i, name in enumerate(fields)}
    algo_at, s_at, t_at, hex_at = (
        column[c] for c in ("dstream_algo", "dstream_S", "dstream_T", "dstream_storage_hex")
    )
    records = ("dstream_row", "dstream_site", "dstream_Tbar", "dstream_value")
    column.update({name: width + i for i, name in enumerate(records)})
    out_fields = ["dstream_row", *fields, *records[1:]]
    pick = itemgetter(*(column[name] for name in out_fields))
    rejects = []
    with open(out, "w", newline="") as outfile:
        writer = csv.writer(outfile, lineterminator="\n")
        writer.writerow(out_fields)
        for ordinal, cells in enumerate(rows):
            if len(cells) > width:
                rejects.append((ordinal, f"row has {len(cells)} cells but the header has {width}"))
                continue
            cells += [None] * (width - len(cells))
            try:
                triples = explode_row(
                    cells[algo_at], parse_int(cells[s_at]), parse_int(cells[t_at]), value_bits,
                    cells[hex_at],
                )
            except ValueError as exc:
                rejects.append((ordinal, str(exc)))
                continue
            writer.writerows(pick((*cells, ordinal) + triple) for triple in triples)
    with open(str(out) + ".rejects", "w", newline="") as rejfile:
        writer = csv.writer(rejfile, lineterminator="\n")
        writer.writerow(["dstream_row", "error"])
        writer.writerows(rejects)
    err = f"{len(rejects)} of {len(rows)} rows rejected\n" if rejects else ""
    return (1 if rejects else 0), err


class TestValidate:
    def test_generate_then_check(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        code = main(
            [
                "validate",
                "--generate",
                str(path),
                "--algos",
                "steady",
                "--max-S",
                "8",
                "--max-T",
                "16",
                "--steady-extra",
                "0",
            ]
        )
        assert code == 0
        assert "wrote 32 vectors" in capsys.readouterr().err
        assert main(["validate", "--check", str(path)]) == 0
        assert "checked 32 vectors: 0 mismatches" in capsys.readouterr().err

    def test_check_catches_a_corrupted_vector(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        main(["validate", "--generate", str(path), "--algos", "steady", "--max-S", "4",
              "--max-T", "16", "--steady-extra", "0"])
        lines = path.read_text().split("\n")
        assert lines[6] == "steady,4,5,0"
        lines[6] = "steady,4,5,1"
        path.write_text("\n".join(lines))
        assert main(["validate", "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "1 mismatches" in err
        assert "T=5" in err

    @pytest.mark.parametrize(
        "row",
        [
            "steady,4,-1,0",
            "hybrid(steady:\u00b2+tilted:4),8,0,0",
            f"hybrid(steady:{'4' * 5000}+tilted:4),8,0,0",
        ],
        ids=["negative-T", "superscript-size", "5000-digit-size"],
    )
    def test_check_reports_a_bad_row_as_a_mismatch(self, tmp_path, capsys, row):
        path = tmp_path / "vectors.csv"
        path.write_text(f"algo,S,T,expected_sites\n{row}\n", encoding="utf-8")
        assert main(["validate", "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("vector 0 ") == 1
        assert "checked 1 vectors: 1 mismatches" in err
        # a bad token is named by a bounded prefix, once
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize(
        "row, bad",
        [
            ("steady,+4,5,0", "+4"),
            ("steady,4,1_0,0", "1_0"),
            ("steady, 4 ,5,0", " 4 "),
            ("steady,4,\u0661\u0662,0", "\u0661\u0662"),
            ("steady,4,5,+0", "+0"),
            ("steady,4,5,0; 1", " 1"),
        ],
        ids=["plus-S", "underscore-T", "spaces-S", "arabic-indic-T", "plus-site", "space-site"],
    )
    def test_integer_cells_are_ascii_digits(self, tmp_path, capsys, row, bad):
        path = tmp_path / "vectors.csv"
        path.write_text(f"algo,S,T,expected_sites\n{row}\n", encoding="utf-8")
        assert main(["validate", "--check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 2: expected an integer in ASCII digits, got {bad!r}\n"

    def test_default_algos_generate_and_pass(self, tmp_path):
        path = tmp_path / "vectors.csv"
        assert main(["validate", "--generate", str(path), "--max-T", "32"]) == 0
        assert main(["validate", "--check", str(path)]) == 0

    def test_unknown_algo_is_usage_error(self, tmp_path):
        code = main(["validate", "--generate", str(tmp_path / "v.csv"), "--algos", "bogus"])
        assert code == 2

    def test_malformed_vector_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_text("not,the,right,header\n")
        assert main(["validate", "--check", str(path)]) == 2
        assert "header" in capsys.readouterr().err

    def test_oversized_cell_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        sites = ";".join(["1"] * 70_000)
        path.write_text(f"algo,S,T,expected_sites\nsteady,4,0,0\nsteady,4,1,{sites}\n")
        assert main(["validate", "--check", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "v.csv"
        assert main(["validate", "--generate", str(path), "--max-T", "8"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")

    def test_a_grid_past_the_replay_cap_is_usage_error(self, tmp_path, capsys):
        # 10**11 steady rows, each held before the first is written
        path = tmp_path / "v.csv"
        argv = ["validate", "--generate", str(path), "--algos", "steady", "--max-S", "4",
                "--max-T", "100000000000", "--steady-extra", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: steady with S=4 is capped at 4194304 arrivals, asked for 100000000000\n"
        )
        assert not path.exists()

    def test_generate_and_check_are_exclusive(self, tmp_path):
        assert main(["validate"]) == 2
        assert (
            main(["validate", "--generate", str(tmp_path / "a"), "--check", str(tmp_path / "b")])
            == 2
        )


class TestBench:
    def test_stdout_csv_shape(self, capsys):
        code = main(
            ["bench", "--algo", "steady", "--sizes", "8", "--depths", "0:64", "--replicates", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(BENCH_FIELDS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:5] == ["steady", "8", "0", "64", "64"]
        assert int(first[5]) > 0
        assert float(first[6]) > 0 and len(first[6].partition(".")[2]) == 3
        assert [row.split(",")[-1] for row in lines[1:]] == ["0", "1"]

    def test_output_file_and_multiple_windows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--algo",
                "tilted",
                "--sizes",
                "8,16",
                "--depths",
                "0:64,0:128",
                "--replicates",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fileobj:
            rows = list(csv.DictReader(fileobj))
        assert len(rows) == 4  # 2 sizes x 2 windows x 1 replicate
        assert {(r["S"], r["T_hi"]) for r in rows} == {
            ("8", "64"), ("8", "128"), ("16", "64"), ("16", "128"),
        }

    def test_empty_depth_windows_are_skipped(self, capsys):
        assert main(["bench", "--sizes", "8", "--depths", "0:4,,4:8", "--replicates", "1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(r["T_lo"], r["T_hi"]) for r in rows] == [("0", "4"), ("4", "8")]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--replicates", "0"],
            ["bench", "--depths", "64"],  # no lo:hi separator
            ["bench", "--sizes", "8;16"],
            ["bench", "--algo", "tilted", "--sizes", "32", "--depths", f"1:{REPLAY_CAP + 1}"],
            ["bench", "--algo", "tilted", "--sizes", "8", "--depths", "0:300"],
            ["bench", "--algo", "steady", "--sizes", "6", "--depths", "0:64"],
            # sizes and depths are read as CSV cells are, by parse_int
            ["bench", "--sizes", "+8,1_6", "--depths", "0:8"],
            ["bench", "--sizes", "8", "--depths", " 0:8"],
            # a steady window of 2**64 - 1 steps, past the replay cap
            ["bench", "--sizes", "4", "--depths", "0:18446744073709551615", "--replicates", "1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "b.csv"
        argv = ["bench", "--sizes", "8", "--depths", "0:8", "--replicates", "1", "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


class TestLookup:
    def test_prints_site_table(self, capsys):
        assert main(["lookup", "--algo", "steady", "--S", "4", "--T", "8"]) == 0
        assert capsys.readouterr().out == "0\t5\n1\t1\n2\t7\n3\t3\n"

    def test_unwritten_sites_print_empty(self, capsys):
        assert main(["lookup", "--algo", "steady", "--S", "4", "--T", "2"]) == 0
        assert capsys.readouterr().out == "0\t0\n1\t1\n2\t\n3\t\n"

    def test_steady_depth_beyond_replay_cap(self, capsys):
        assert main(["lookup", "--algo", "steady", "--S", "4", "--T", str(1 << 40)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert all(int(line.split("\t")[1]) < (1 << 40) for line in lines)

    def test_replay_cap_failure(self, capsys):
        code = main(["lookup", "--algo", "tilted", "--S", "8", "--T", str(1 << 40)])
        assert code == 1
        assert (
            f"tilted with S=8 is capped at {REPLAY_CAP} arrivals, asked for {1 << 40}"
            in capsys.readouterr().err
        )

    def test_capacity_failure(self, capsys):
        code = main(["lookup", "--algo", "stretched", "--S", "4", "--T", "100"])
        assert code == 1
        assert "supports at most 14" in capsys.readouterr().err

    def test_negative_T_is_a_refusal(self, capsys):
        assert main(["lookup", "--algo", "steady", "--S", "4", "--T", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: ingest counter must be")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--algo", "bogus", "--S", "4", "--T", "8"], "unknown algorithm token 'bogus'"),
            (["--algo", "steady", "--S", "6", "--T", "8"], "site count must be a power of two"),
            (
                ["--algo", "hybrid(steady:4+tilted:4)", "--S", "16", "--T", "8"],
                "hybrid segments cover 8 sites but S=16",
            ),
        ],
        ids=["bad-token", "bad-S", "sites-mismatch"],
    )
    def test_configuration_errors_are_usage_errors(self, argv, message, capsys):
        # as bench reports the same token and S
        assert main(["lookup", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_help_exits_with_argparse_status(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: streamsieve")


@pytest.mark.parametrize(
    "argv, code", [(["lookup", "--algo", "steady", "--S", "4", "--T", "8"], 0), ([], 2)]
)
def test_run_exits_with_mains_status(argv, code, monkeypatch, capsys):
    # the entry point the package installs
    monkeypatch.setattr(sys, "argv", ["streamsieve", *argv])
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == code


# each integer flag: its argv with {} for the value, then legal values and
# the exit status each gives; {dir} is the test's directory
_GENERATE = ["validate", "--generate", "{dir}/v.csv", "--algos", "steady"]
_INTEGER_FLAGS = {
    "lookup-S": (["lookup", "--algo", "steady", "--S", "{}", "--T", "8"], {"4": 0, "8": 0}),
    "lookup-T": (["lookup", "--algo", "steady", "--S", "4", "--T", "{}"], {"8": 0, "-1": 1}),
    "validate-max-S": ([*_GENERATE, "--max-S", "{}"], {"8": 0, "-1": 0}),
    "validate-max-T": ([*_GENERATE, "--max-T", "{}"], {"8": 0, "-1": 2}),
    "validate-steady-extra": ([*_GENERATE, "--steady-extra", "{}"], {"8": 0, "-1": 0}),
    "validate-seed": ([*_GENERATE, "--seed", "{}"], {"8": 0, "-1": 0}),
    "bench-replicates": (
        ["bench", "--sizes", "8", "--depths", "0:8", "--replicates", "{}"], {"1": 0, "-1": 2}
    ),
    "explode-value-bits": (
        ["explode", "{dir}/in.csv", "{dir}/out.csv", "--value-bits", "{}"], {"8": 0, "16": 1}
    ),
}


@pytest.mark.parametrize("flag", list(_INTEGER_FLAGS))
def test_integer_flags_are_ascii_digits(flag, tmp_path, capsys):
    """Every integer flag reads as CSV cells and bench --sizes do: ASCII
    digits with at most one leading '-'; what int alone takes is refused."""
    write_csv(tmp_path / "in.csv", DUMP_HEADER, [["steady", 4, 8, "05010703", "alpha"]])
    template, legal = _INTEGER_FLAGS[flag]

    def argv(value):
        return [arg.format(value, dir=tmp_path) for arg in template]

    for value in ("+8", "1_6", " 8"):
        assert main(argv(value)) == 2, value
        assert f"invalid parse_int value: {value!r}" in capsys.readouterr().err
    for value, status in legal.items():
        assert main(argv(value)) == status, value
