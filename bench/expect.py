"""Expected outputs, computed by the benchmark without deutschsim.

Nothing here imports deutschsim.  The 16-amplitude game is re-simulated on
a dict of basis labels, DJ verdicts come from counting ones, and sampled
counts are judged against the re-simulated distribution.  ``check_command``
and ``check_verdict`` return None when an output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math

STAGES = ("input", "after_H_A", "after_H_f", "after_H_A_2")
# The paper's setting table: SETTINGS[b][a] = f_b(a).
SETTINGS = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}
LAYOUT = [["B", 2], ["A", 1], ["V", 1]]
# Label positions of each register in a B,A,V basis label.
REGISTER_BITS = {"B": (0, 1), "A": (2,), "V": (3,)}
VERIFY_CHECKS = 29
TOL = 1e-12

_RT2 = math.sqrt(2.0)
_SYMBOLS = {"1": 1.0, "1/√2": 1 / _RT2, "1/2": 0.5, "1/(2√2)": 1 / (2 * _RT2), "1/4": 0.25}


def classify(values) -> str:
    ones, m = sum(values), len(values)
    if ones in (0, m):
        return "constant"
    if 2 * ones == m:
        return "balanced"
    return "neither"


def promise_functions(n: int) -> list[tuple[int, ...]]:
    """Every constant and balanced function on n argument bits."""
    m = 1 << n
    return [f for f in itertools.product((0, 1), repeat=m) if classify(f) != "neither"]


def _add(state: dict, label: str, amp: float) -> None:
    state[label] = state.get(label, 0.0) + amp


def _hadamard_a(state: dict) -> dict:
    out: dict[str, float] = {}
    for label, amp in state.items():
        a = label[2]
        _add(out, label[:2] + "0" + label[3], amp / _RT2)
        _add(out, label[:2] + "1" + label[3], (-amp if a == "1" else amp) / _RT2)
    return out


def _oracle(state: dict) -> dict:
    out: dict[str, float] = {}
    for label, amp in state.items():
        f = SETTINGS[label[:2]][int(label[2])]
        _add(out, label[:3] + str(int(label[3]) ^ f), amp)
    return out


def game_stages(settings, initial_a: int) -> dict[str, dict[str, float]]:
    """Stage states of the game on an equal superposition of ``settings``,
    with A prepared in |initial_a> and V in (|0> - |1>)/sqrt(2)."""
    w = 1.0 / math.sqrt(2 * len(settings))
    s0: dict[str, float] = {}
    for b in settings:
        s0[f"{b}{initial_a}0"] = w
        s0[f"{b}{initial_a}1"] = -w
    s1 = _hadamard_a(s0)
    s2 = _oracle(s1)
    s3 = _hadamard_a(s2)
    return {
        name: {k: v for k, v in s.items() if abs(v) > TOL}
        for name, s in zip(STAGES, (s0, s1, s2, s3))
    }


def run_outcome(b: str, initial_a: int) -> int:
    """A readout: 1 for balanced with |0>_A, and the rule flips with |1>_A."""
    return initial_a ^ (classify(SETTINGS[b]) == "balanced")


def marginal(state: dict[str, float], register: str) -> dict[str, float]:
    probs: dict[str, float] = {}
    for label, amp in state.items():
        key = "".join(label[p] for p in REGISTER_BITS[register])
        probs[key] = probs.get(key, 0.0) + amp * amp
    return probs


def _compare_state(got: dict[str, complex], want: dict[str, float], stage: str) -> str | None:
    if set(got) != set(want):
        return f"stage {stage}: basis {sorted(got)} != {sorted(want)}"
    dev = max(abs(got[k] - want[k]) for k in want)
    if dev > TOL:
        return f"stage {stage}: amplitude deviation {dev:.3e}"
    return None


def _check_json_stages(doc: dict, want: dict) -> str | None:
    stages = doc.get("stages", [])
    if [s.get("stage") for s in stages] != list(STAGES):
        return f"json stages {[s.get('stage') for s in stages]}"
    for s in stages:
        if s.get("layout") != LAYOUT:
            return f"json layout {s.get('layout')}"
        got = {e["basis"]: complex(e["re"], e["im"]) for e in s["entries"]}
        bad = _compare_state(got, want[s["stage"]], s["stage"])
        if bad:
            return bad
    return None


def _parse_amplitude(text: str) -> complex:
    sign, body = (-1.0 if text[0] == "-" else 1.0), text[1:]
    return sign * _SYMBOLS[body] if body in _SYMBOLS else complex(text.replace("i", "j"))


def _check_text_trace(lines: list[str], want: dict) -> tuple[str | None, list[str]]:
    """Check the ``--trace`` block and return the lines after it."""
    if not lines or lines[0] != "registers: B[2] A[1] V[1]":
        return f"trace header {lines[:1]}", []
    got: dict[str, dict[str, complex]] = {}
    i, order = 1, []
    while i < len(lines) and lines[i].startswith("stage "):
        stage = lines[i][6:]
        order.append(stage)
        got[stage] = {}
        i += 1
        while i < len(lines) and lines[i].startswith("  |"):
            ket, _, amp = lines[i].strip().partition(">")
            try:
                got[stage][ket[1:].replace(" ", "")] = _parse_amplitude(amp.strip())
            except (KeyError, ValueError):
                return f"unparsable amplitude {lines[i]!r}", []
            i += 1
    if order != list(STAGES):
        return f"trace stages {order}", []
    for stage in STAGES:
        bad = _compare_state(got[stage], want[stage], stage)
        if bad:
            return bad, []
    return None, lines[i:]


def check_run(spec: dict, code: int, out: str, err: str) -> str | None:
    b, a = spec["b"], spec["initial_a"]
    if code != 0:
        return f"exit {code}"
    want = game_stages([b], a)
    cls = classify(SETTINGS[b])
    outcome = run_outcome(b, a)
    if spec["json"]:
        doc = json.loads(out)
        verdict = {"outcome": outcome, "classification": cls, "evaluations": 1}
        if doc.get("verdict") != verdict:
            return f"verdict {doc.get('verdict')} != {verdict}"
        return _check_json_stages(doc, want)
    lines = out.splitlines()
    if spec["trace"]:
        bad, lines = _check_text_trace(lines, want)
        if bad:
            return bad
    line = f"outcome={outcome} classification={cls} evaluations=1"
    return None if lines == [line] else f"verdict lines {lines} != {[line]}"


def check_superposed(spec: dict, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    want = game_stages(list(SETTINGS), spec["initial_a"])
    solution = {b: classify(f) for b, f in sorted(SETTINGS.items())}
    if spec["json"]:
        doc = json.loads(out)
        if doc.get("solution") != solution:
            return f"solution {doc.get('solution')} != {solution}"
        return _check_json_stages(doc, want)
    lines = out.splitlines()
    if spec["trace"]:
        bad, lines = _check_text_trace(lines, want)
        if bad:
            return bad
    expected = [f"b={b} {c}" for b, c in solution.items()]
    return None if lines == expected else f"solution lines {lines}"


def check_sample(spec: dict, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    which, reg, shots = spec["which"], spec["register"], spec["shots"]
    settings = list(SETTINGS) if which == "superposed" else [which]
    state = game_stages(settings, spec["initial_a"])[spec["stage"]]
    support = {k for k, p in marginal(state, reg).items() if p > TOL}
    if spec["json"]:
        doc = json.loads(out)
        echo = {k: doc.get(k) for k in ("rng", "seed", "which", "stage", "register", "shots")}
        counts = doc.get("counts", {})
    else:
        lines = out.splitlines()
        header = lines[0].split(" ") if lines else []
        echo = dict(item.split("=", 1) for item in header)
        echo["seed"], echo["shots"] = int(echo.get("seed", -1)), int(echo.get("shots", -1))
        counts = {o: int(c) for o, c in (line.split(" ") for line in lines[1:])}
        if list(counts) != sorted(counts):
            return f"outcomes not sorted: {list(counts)}"
    want_echo = {"rng": "pcg64", "seed": spec["seed"], "which": which,
                 "stage": spec["stage"], "register": reg, "shots": shots}
    if echo != want_echo:
        return f"echo {echo} != {want_echo}"
    if sum(counts.values()) != shots or min(counts.values()) < 1:
        return f"counts {counts} do not sum to {shots}"
    if not set(counts) <= support:
        return f"outcomes {sorted(counts)} outside support {sorted(support)}"
    if len(support) == 1 and counts != {support.pop(): shots}:
        return f"deterministic register sampled as {counts}"
    return None


def dj_line(name: str, values) -> str:
    cls = classify(values)
    return f"{name}: {cls} (outcome={int(cls == 'balanced')}, evaluations=1)"


def check_dj_all(spec: dict, code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    want = sorted(dj_line("".join(map(str, f)), f) for f in promise_functions(spec["n"]))
    got = sorted(out.splitlines())
    return None if got == want else f"dj --all lines differ ({len(got)} vs {len(want)})"


def check_dj_file(spec: dict, code: int, out: str, err: str) -> str | None:
    """Valid files print one verdict per line in file order; the first
    neither-function stops the run with exit 3; malformed files exit 2."""
    if spec["malformed"]:
        if code != 2 or out:
            return f"malformed file: exit {code}, stdout {out[:60]!r}"
        return None
    want, expect_code = [], 0
    for label, values in spec["lines"]:
        if classify(values) == "neither":
            expect_code = 3
            if f"promise violation: {label}:" not in err:
                return f"no promise violation reported for {label}"
            break
        want.append(dj_line(label, values))
    if code != expect_code:
        return f"exit {code}, expected {expect_code}"
    return None if out.splitlines() == want else f"dj file lines {out.splitlines()}"


def check_verify(spec: dict, code: int, out: str, err: str) -> str | None:
    lines = out.splitlines()
    passed = sum(line.startswith("[PASS] ") for line in lines)
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if code != 0 or passed != VERIFY_CHECKS or not lines or lines[-1] != summary:
        return f"verify: exit {code}, {passed} PASS lines, last line {lines[-1:]}"
    return None


CHECKS = {
    "run": check_run,
    "superposed": check_superposed,
    "sample": check_sample,
    "dj_all": check_dj_all,
    "dj_file": check_dj_file,
    "verify": check_verify,
}


def check_command(spec: dict, code: int, out: str, err: str) -> str | None:
    try:
        return CHECKS[spec["kind"]](spec, code, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def check_verdict(values, outcome) -> str | None:
    """Judge one in-process ``run_deutsch_jozsa`` result.

    ``outcome`` is ``(classification, outcome_bit, evaluations)`` or the
    name of the exception raised.
    """
    cls = classify(values)
    want = "PromiseViolationError" if cls == "neither" else (cls, int(cls == "balanced"), 1)
    return None if outcome == want else f"n={len(values).bit_length() - 1}: {outcome} != {want}"
