import json
import os
import tracemalloc

import pytest

from hcl.cli import main
from hcl.hurwitz import MAX_N_MAX, build_table, write_table_csv


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(build_table(3000), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_command(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "table", "--n-max", "100", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "D,twelveH"
    assert len(lines) == 102


def test_table_command_zero(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "table", "--n-max", "0", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[1] == "0,-1"


def test_table_command_over_the_cap(tmp_path, capsys):
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "table", "--n-max", str(MAX_N_MAX + 1), "--out", str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and f"beyond the supported {MAX_N_MAX}" in err
    assert os.listdir(tmp_path) == [] and peak < 2**20, peak


def test_table_command_unwritable(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--n-max", "10", "--out", str(tmp_path / "no" / "dir.csv"))
    assert code == 2 and err.startswith("error: ")


def test_verify_ok_exit_zero(table_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--ell", "5", "--a", "27", "--b", "9",
        "--table", table_file, "--n-max", "3000",
    )
    assert code == 0 and "verified" in out


def test_verify_failure_exit_one(table_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--ell", "5", "--a", "4", "--b", "3",
        "--table", table_file, "--n-max", "1000",
    )
    assert code == 1 and "12*H(3)" in out


def test_verify_json_format(table_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--ell", "5", "--a", "4", "--b", "3",
        "--table", table_file, "--n-max", "1000", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["ok"] is False and payload["counterexample"] == 3
    assert code == 1


def test_verify_full_scale_autobuild(tmp_path, capsys):
    path = tmp_path / "big.csv"
    code, _, err = run(
        capsys, "verify", "--ell", "5", "--a", "125", "--b", "25",
        "--table", str(path), "--n-max", "1000000",
    )
    assert code == 0 and "warning" in err
    # rerun hits the persisted cache
    code, _, err = run(
        capsys, "verify", "--ell", "5", "--a", "125", "--b", "25",
        "--table", str(path), "--n-max", "1000000",
    )
    assert code == 0 and "warning" not in err


def test_verify_autobuilds_missing_table(tmp_path, capsys):
    path = tmp_path / "fresh.csv"
    code, _, err = run(
        capsys, "verify", "--ell", "5", "--a", "27", "--b", "9",
        "--table", str(path), "--n-max", "2000",
    )
    assert code == 0
    assert "warning" in err and path.exists()


def test_hcl_table_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.csv"
    write_table_csv(build_table(2000), path)
    monkeypatch.setenv("HCL_TABLE", str(path))
    code, _, err = run(
        capsys, "verify", "--ell", "5", "--a", "27", "--b", "9", "--n-max", "2000",
    )
    assert code == 0 and "warning" not in err


def test_search_csv_output(table_file, capsys):
    code, out, _ = run(
        capsys, "search", "--ell", "5", "--a-max", "30",
        "--table", table_file, "--n-max", "3000", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,a,b,n_max,class,maximal"
    assert "5,27,9,3000,holomorphic,1" in lines


def test_search_byte_stable(table_file, capsys):
    args = ("search", "--ell", "5", "--a-max", "30", "--table", table_file,
            "--n-max", "3000", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_square_class_command(table_file, capsys):
    code, out, _ = run(
        capsys, "square-class", "--ell", "5", "--a", "27", "--b", "9",
        "--u-max", "10", "--table", table_file, "--n-max", "3000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["ord_within_bounds"] is True


def test_dichotomy_command(table_file, capsys):
    code, out, _ = run(
        capsys, "dichotomy", "--ell", "5", "--a", "27", "--b", "9",
        "--table", table_file, "--n-max", "3000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "hecke_condition"
    assert payload["witness"] == {"p": 3, "kronecker": -1, "f_p": 3}


def test_dichotomy_error_exit_two(table_file, capsys):
    code, _, err = run(
        capsys, "dichotomy", "--ell", "5", "--a", "4", "--b", "3",
        "--table", table_file, "--n-max", "1000",
    )
    assert code == 2
    assert err == "error: H(4n+3) is not == 0 (mod 5) up to 1000: fails at 3\n"


def test_holproj_command(capsys):
    code, out, _ = run(
        capsys, "holproj", "--a", "55", "--b", "54", "--beta", "1", "--n", "167",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nonholomorphic_coefficient"] == "-55"
    assert payload["q_subsets"]["{}"] == 55
    assert payload["q_subsets"]["{5,11}"] == 55


def test_holproj_reports_undefined_subsets(capsys):
    code, out, _ = run(capsys, "holproj", "--a", "12", "--b", "8", "--beta", "2", "--n", "5")
    assert code == 0
    assert json.loads(out)["q_subsets_error"] == (
        "square-root classes of -8 mod 4 are [0, 2], not the two distinct classes +-2; "
        "subset decomposition undefined"
    )


def test_holproj_square_rejected(capsys):
    code, _, err = run(capsys, "holproj", "--a", "5", "--b", "4", "--beta", "1", "--n", "5")
    assert code == 2 and "square" in err


def test_subprogression_command(capsys):
    code, out, _ = run(
        capsys, "subprogression", "--a-tilde", "5", "--b-tilde", "4", "--beta", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["a"], payload["b"], payload["p_big"]) == (35, 34, 7)
    assert all(payload["conditions"].values())
    assert payload["p"] == 37 and payload["degenerate"] is False


def test_subprogression_beta_zero_exit_two(capsys):
    code, _, err = run(
        capsys, "subprogression", "--a-tilde", "3", "--b-tilde", "0", "--beta", "0",
    )
    assert code == 2 and "error" in err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ell", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("square-class", "--ell", "5", "--a", "27", "--b", "9", "--format", "csv"),
    ("dichotomy", "--ell", "5", "--a", "27", "--b", "9", "--format", "json"),
    ("holproj", "--a", "55", "--b", "54", "--beta", "1", "--n", "167", "--format", "text"),
])
def test_ignored_format_values_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--table", str(tmp_path / "never.csv")])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


def test_verify_refuses_truncated_cache(tmp_path, capsys):
    path = tmp_path / "cut.csv"
    write_table_csv(build_table(4999), path)
    cut = path.read_bytes()[:20000]  # cut off inside the row of D = 2383
    path.write_bytes(cut)
    code, out, err = run(
        capsys, "verify", "--ell", "17", "--a", "2384", "--b", "2383",
        "--n-max", "2383", "--table", str(path),
    )
    assert code == 2 and "verified" not in out
    assert "cut off" in err and err.endswith("; delete the file or rebuild it with `hcl table`\n")
    assert path.read_bytes() == cut


@pytest.mark.parametrize("argv", [
    ("verify", "--ell", "5", "--a", "27", "--b", "9"),
    ("search", "--ell", "5", "--a-max", "30"),
    ("square-class", "--ell", "5", "--a", "27", "--b", "9"),
    ("dichotomy", "--ell", "5", "--a", "27", "--b", "9"),
    ("holproj", "--a", "55", "--b", "54", "--beta", "1", "--n", "167"),
    ("holproj", "--a", "55", "--b", "54", "--beta", "1", "--n", "167", "--projection"),
])
def test_n_max_zero_exit_two_before_any_table_work(tmp_path, capsys, argv):
    path = tmp_path / "never.csv"
    code, out, err = run(capsys, *argv, "--n-max", "0", "--table", str(path))
    assert (code, out, err) == (2, "", "error: n_max must be >= 1\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (("dichotomy", "--ell", "5", "--a", "27", "--b", "9", "--max-rows", "-1"), "max_rows must be >= 0"),
    (("dichotomy", "--ell", "5", "--a", "27", "--b", "9", "--max-rows", "-3"), "max_rows must be >= 0"),
    (("square-class", "--ell", "5", "--a", "27", "--b", "9", "--u-max", "0"), "u_max must be >= 1"),
    (("square-class", "--ell", "5", "--a", "27", "--b", "9", "--u-max", "-3"), "u_max must be >= 1"),
    (("search", "--ell", "5", "--a-max", "0"), "a_max must be >= 1"),
    (("search", "--ell", "5", "--a-max", "-1"), "a_max must be >= 1"),
])
def test_empty_or_negative_ranges_exit_two(table_file, capsys, argv, message):
    # each would otherwise print a verdict over nothing, or drop evidence rows
    code, out, err = run(capsys, *argv, "--table", table_file, "--n-max", "3000")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_dichotomy_max_rows_zero_prints_no_rows(table_file, capsys):
    code, out, _ = run(
        capsys, "dichotomy", "--ell", "5", "--a", "27", "--b", "9", "--max-rows", "0",
        "--table", table_file, "--n-max", "3000",
    )
    payload = json.loads(out)
    assert code == 0 and payload["rows"] == [] and payload["rows_total"] > 0


def test_verify_refuses_cache_cell_beyond_int32(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    write_table_csv(build_table(4999), path)
    lines = path.read_bytes().split(b"\r\n")
    lines[4000 + 1] = b"4000,3000000000"
    path.write_bytes(b"\r\n".join(lines))
    code, out, err = run(
        capsys, "verify", "--ell", "5", "--a", "125", "--b", "25",
        "--n-max", "4999", "--table", str(path),
    )
    assert code == 2 and "verified" not in out and "malformed row" in err
    assert path.read_bytes() == b"\r\n".join(lines)


@pytest.mark.parametrize("cells", [lambda D, v: f"{D}", lambda D, v: f"{D},{v},0"], ids=["one", "three"])
def test_verify_refuses_cache_with_wrong_column_count(tmp_path, capsys, cells):
    path = tmp_path / "columns.csv"
    rows = [cells(D, v) for D, v in enumerate(build_table(5000).values.tolist())]
    data = "".join(line + "\r\n" for line in ["D,twelveH", *rows]).encode()
    path.write_bytes(data)
    code, out, err = run(
        capsys, "verify", "--ell", "5", "--a", "125", "--b", "25",
        "--n-max", "5000", "--table", str(path),
    )
    assert code == 2 and out == "" and "malformed row" in err
    assert path.read_bytes() == data
