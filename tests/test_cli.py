import signal

import pytest

from duelhalt.cli import MAX_DUEL_NUMBER, main
from duelhalt.trace import replay_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cards_listing(capsys):
    code, out = run_cli(capsys, "cards")
    assert code == 0
    assert "43 main" in out and "46 main" in out


def test_cards_lookup(capsys):
    code, out = run_cli(capsys, "cards", "yata garasu")
    assert code == 0 and "Yata-Garasu" in out


def test_setup_verify(capsys):
    code, out = run_cli(capsys, "setup", "--deck", "a", "--verify")
    assert code == 0
    assert out.strip().endswith("verdict=OK")


def test_setup_bad_deck_is_usage_error(capsys):
    assert main(["setup", "--deck", "c"]) == 2


def test_setup_trace_replays(tmp_path, capsys, board_a):
    path = tmp_path / "a.trace"
    code, _out = run_cli(capsys, "setup", "--deck", "a", "--trace", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == len(board_a.run.moves)
    replayed = replay_trace(lines, board_a.run.configs[0])
    assert replayed.last() == board_a.final


def test_counters_set(capsys):
    code, out = run_cli(capsys, "counters", "--deck", "a", "--set", "9")
    assert code == 0 and "counters=9" in out


def test_check_win_halting(capsys):
    code, out = run_cli(
        capsys, "check-win", "--reduce", "halting", "--machine", "empty",
        "--max-turns", "120",
    )
    assert code == 0
    assert out.strip().endswith("verdict=WIN")


def test_check_win_wo_undetermined(capsys):
    code, out = run_cli(
        capsys, "check-win", "--reduce", "wo", "--order", "omega-reverse",
        "--max-turns", "14", "--max-number", "3",
    )
    assert code == 0
    assert out.strip().endswith("verdict=UNDETERMINED")


def test_reduce_emits_valid_run(capsys, tmp_path):
    path = tmp_path / "nis.trace"
    code, out = run_cli(
        capsys, "reduce", "--reduce", "nis", "--machine", "successor",
        "--trace", str(path),
    )
    assert code == 0 and "valid=True" in out
    assert path.exists()


def test_tree_command(capsys):
    code, out = run_cli(
        capsys, "tree", "--reduce", "halting", "--machine", "empty",
        "--depth", "20", "--max-turns", "120",
    )
    assert code == 0
    assert "verdict=WELL-FOUNDED" in out


def test_tree_leaves_nodes_past_the_turn_budget_open(capsys):
    # check-win stops at --max-turns, and so does the tree: one turn is far
    # too short for the slow machine, so a branch stays open
    code, out = run_cli(
        capsys, "tree", "--reduce", "halting", "--machine", "slow",
        "--depth", "100", "--max-turns", "1",
    )
    assert code == 0
    assert out.strip().endswith("verdict=OPEN")


def test_compile_tm(tmp_path, capsys):
    prog = tmp_path / "succ.tm"
    prog.write_text("start a\nblank 0\nhalt h\na 1 -> a 0 R\na 0 -> h 1 S\n")
    code, out = run_cli(capsys, "compile-tm", str(prog))
    assert code == 0 and "index=2" in out


def test_duel_scripted_resign(tmp_path, capsys):
    script = tmp_path / "numbers.txt"
    script.write_text("q\n")
    code, out = run_cli(
        capsys, "duel", "--script", str(script),
        "--machine", "identity",
    )
    assert code == 0 and "resigns" in out


def test_duel_scripted_chain_then_mismatch(tmp_path, capsys):
    # the identity chain: triple (0,0,1) codes to 5, pairs (0,1) to 2;
    # then a wrong number triggers the sweep
    script = tmp_path / "numbers.txt"
    script.write_text("5\n2\n2\n1\n0\n0\n0\n0\n")
    code, out = run_cli(
        capsys, "duel", "--script", str(script),
        "--machine", "identity", "--max-rounds", "12",
    )
    assert code == 0
    board = [ln for ln in out.splitlines() if "lp=" in ln]
    assert board == [
        "turn 76: lp=7000/2600 counters=1",
        "turn 78: lp=7000/9400 counters=2",
        "turn 80: lp=7000/13200 counters=3",
        "turn 82: lp=7000/17000 counters=4",
        "turn 84: lp=7000/11100 counters=6",
        "turn 86: lp=7000/4200 counters=7",
        "lp=7000/0 counters=8",
    ]
    assert out.splitlines()[-1] == "verdict=WIN"


def test_setup_verify_diffs_the_documented_board(capsys):
    code, out = run_cli(capsys, "setup", "--deck", "b", "--verify")
    assert code == 0 and "documented board" in out


def test_order_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "order.txt"
    bad.write_text("finite 2\n1 1\n")
    assert main(["check-win", "--reduce", "wo", "--order-file", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["check-win", "--reduce", "halting", "--machine", "empty", "--max-turns", "0"],
    ["check-win", "--reduce", "halting", "--machine", "empty", "--max-number", "0"],
    ["tree", "--reduce", "halting", "--machine", "empty", "--depth", "-1"],
])
def test_bad_budget_or_depth_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _out_of_time(_signum, _frame):
    raise TimeoutError("the duel did not answer within 10 s")


@pytest.mark.parametrize("typed", [False, True], ids=["script", "typed"])
def test_duel_refuses_numbers_over_the_bound(tmp_path, capsys, monkeypatch, typed):
    # a number is played as that many equip pulls, so 10**9 would run for
    # days: a script line over the bound is an error, a typed one is asked
    # for again
    script = tmp_path / "numbers.txt"
    script.write_text(f"{MAX_DUEL_NUMBER + 1}\n")
    argv = ["duel", "--machine", "identity"]
    if typed:
        answers = iter([str(10**9), "q"])
        monkeypatch.setattr("builtins.input", lambda _prompt: next(answers))
    else:
        argv += ["--script", str(script)]
    old = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(10)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    captured = capsys.readouterr()
    if typed:
        assert code == 0 and "resigns" in captured.out
        assert f"enter a number from 0 to {MAX_DUEL_NUMBER} or q" in captured.out
    else:
        assert code == 2
        assert captured.err.startswith(f"error: script line '{MAX_DUEL_NUMBER + 1}'")


@pytest.mark.parametrize("argv", [
    ["reduce", "--reduce", "nis", "--machine", "successor", "--max-turns", "5"],
    ["reduce", "--reduce", "nis", "--machine", "successor", "--max-number", "5"],
    ["reduce", "--reduce", "nis", "--machine", "successor", "--exhaustive"],
    ["duel", "--script", "numbers.txt", "--index", "3"],
    ["duel", "--interactive", "--script", "numbers.txt"],
])
def test_flags_that_change_nothing_are_refused(capsys, argv):
    # reduce runs no budgeted search, duel names its machine with --machine,
    # and it reads typed numbers whenever no --script is given
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compile_tm_refuses_an_unbounded_counter_plan(tmp_path, capsys):
    # a machine outside the curated ones starts from a code of hundreds of
    # bits, far more increment cycles than a counter plan may take
    prog = tmp_path / "pingpong.tm"
    prog.write_text("start a\nblank 0\nhalt h\na 0 -> b 1 R\nb 0 -> a 1 R\na 1 -> h 1 S\n")
    assert main(["compile-tm", str(prog)]) == 1
    captured = capsys.readouterr()
    assert "index=" in captured.out
    assert captured.err.startswith("error: a counter plan of ")


@pytest.mark.parametrize("order", ["finite x", "finite 2\n1 x\n0 1"],
                         ids=["size", "entry"])
def test_a_non_integer_order_is_an_error_line(capsys, order):
    code = main(["check-win", "--reduce", "wo", "--order", order])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err.startswith("error:") and "Traceback" not in err


_INPUTS = {"bad.tm": "start a\nfoo\n", "order.txt": "finite 2\n1 1\n",
           "word.txt": "5\nx\n", "negative.txt": "5\n-3\n", "binary.bin": b"\xff\xfe\x00bad"}
_WO = ["check-win", "--reduce", "wo"]
_HALTING = ["check-win", "--reduce", "halting", "--machine"]
_DUEL = ["duel", "--machine", "identity", "--script"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(_WO + ["--order", "finite x"], None, id="order-word"),
    pytest.param(_WO + ["--order", ""], None, id="order-empty"),
    pytest.param(_WO + ["--order", "finite -3"], "error: finite order size -3 is negative",
                 id="order-negative"),
    pytest.param(_WO + ["--order", "bogus"], None, id="order-keyword"),
    pytest.param(_WO + ["--order-file", "{dir}/order.txt"], None, id="order-file-rows"),
    pytest.param(_WO + ["--order-file", "{dir}/missing.txt"], None, id="order-file-missing"),
    pytest.param(_WO + ["--order-file", "{dir}/binary.bin"], None, id="order-file-binary"),
    pytest.param(_WO + ["--order-file", "{dir}"], None, id="order-file-directory"),
    pytest.param(["compile-tm", "{dir}/bad.tm"], None, id="machine-rule"),
    pytest.param(["compile-tm", "{dir}/missing.tm"], None, id="machine-missing"),
    pytest.param(["compile-tm", "{dir}/binary.bin"], None, id="machine-binary"),
    pytest.param(["compile-tm", "{dir}"], None, id="machine-directory"),
    pytest.param(_HALTING + ["{dir}/binary.bin"], None, id="machine-option-binary"),
    pytest.param(_HALTING + ["{dir}"], None, id="machine-option-directory"),
    pytest.param(["check-win", "--reduce", "halting", "--index", "-1"],
                 "error: machine index -1 is negative", id="machine-index"),
    pytest.param(["reduce", "--reduce", "nis", "--index", "-5"],
                 "error: machine index -5 is negative", id="nis-machine-index"),
    pytest.param(_DUEL + ["{dir}/word.txt"], None, id="script-word"),
    pytest.param(_DUEL + ["{dir}/negative.txt"], None, id="script-negative"),
    pytest.param(_DUEL + ["{dir}/missing.txt"], None, id="script-missing"),
    pytest.param(_DUEL + ["{dir}/binary.bin"], None, id="script-binary"),
    pytest.param(_DUEL + ["{dir}"], None, id="script-directory"),
    pytest.param(_HALTING + ["empty", "--max-turns", "0"], None, id="budget-turns"),
    pytest.param(_HALTING + ["empty", "--max-number", "x"], None, id="budget-number"),
    pytest.param(["tree", "--reduce", "halting", "--depth", "-1"], None, id="budget-depth"),
    pytest.param(["duel", "--max-rounds", "-1"], None, id="budget-rounds"),
    pytest.param(["counters", "--set", "0"], None, id="budget-counters-zero"),
    pytest.param(["counters", "--set", "-4"], None, id="budget-counters-negative"),
])
def test_malformed_input_is_an_error_line(tmp_path, capsys, argv, message):
    for name, body in _INPUTS.items():
        path = tmp_path / name
        path.write_bytes(body) if isinstance(body, bytes) else path.write_text(body)
    code = main([arg.format(dir=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert err.strip() and "Traceback" not in err
    if message is not None:  # the error line names the argument and its rule
        assert err.strip() == message
