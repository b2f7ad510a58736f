"""Self-test of the output checks: each passes on real outputs and rejects a
corrupted copy of them.

Run from the root of a checkout (about a minute; it runs one set-up, one
round and one call of each sampled command of every workload):

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workload  # noqa: E402


def shift_log_z(art: dict, delta: float) -> dict:
    printed = dict(art["printed"])
    top = max(printed)
    printed[top] += delta
    return {**art, "printed": printed}


def edit_report(art: dict, row: int, fn) -> dict:
    lines = art["report"].strip().splitlines()
    fields = lines[row].split(",")
    lines[row] = ",".join(fn(fields))
    return {**art, "report": "\n".join(lines) + "\n"}


def combined_one_more_substitution(f):
    s, i, d, n = int(f[2]) + 1, int(f[3]), int(f[4]), int(f[5])
    return f[:2] + [str(s), str(i), str(d), str(n), repr((s + i + d) / n)]


def single_without_errors(f):
    return f[:2] + ["0", "0", "0", f[5], repr(0.0)]


def wrong_rate(f):
    return f[:6] + [repr(float(f[6]) + 1e-3)]


def foreign_pick(art: dict) -> dict:
    lines = art["best"].splitlines()
    utt = lines[0].partition(" ")[0]
    lines[0] = f"{utt} zzzzzz"
    return {**art, "best": "\n".join(lines) + "\n"}


def dropped_pick(art: dict) -> dict:
    return {**art, "best": "\n".join(art["best"].splitlines()[1:]) + "\n"}


def flat_gaps(art: dict) -> dict:
    lines = art["epochs_csv"].strip().splitlines()
    initial = lines[1].split(",")[5]
    rows = [ln.split(",")[:5] + [initial] for ln in lines[1:]]
    return {**art, "epochs_csv": "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"}


def rising_valid_nll(art: dict) -> dict:
    lines = art["epochs_csv"].strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    valid = [r[4] for r in rows][::-1]
    rows = [r[:4] + [v] + r[5:] for r, v in zip(rows, valid)]
    return {**art, "epochs_csv": "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"}


def untrained(art: dict) -> dict:
    return {**art, "j_trained": list(art["j_initial"])}


def check_normalizers(art):
    checks.check_log_z(art["scores"], art["printed"])


def check_mass(art):
    checks.check_total_mass(art["scores"], art["printed"], art["model"].length_prior.probs)


def check_rescore(art):
    checks.check_rescore(art["nbests"], art["refs"], art["best"], art["report"])


def check_zeta(art):
    checks.check_zeta_convergence(art["epochs_csv"])


def check_objective(art):
    checks.check_objective_gain(art["j_initial"], art["j_trained"])


# (workload, check, corruption name, corruption)
CASES = [
    ("pilot-train", check_normalizers, "log_Z of the longest length + 1e-8",
     lambda a: shift_log_z(a, 1e-8)),
    ("pilot-train", check_normalizers, "log_Z of one length missing",
     lambda a: {**a, "printed": {l: z for l, z in a["printed"].items() if l != max(a["printed"])}}),
    ("pilot-train", check_mass, "log_Z of the longest length + 1e-8",
     lambda a: shift_log_z(a, 1e-8)),
    ("pilot-train", check_zeta, "zeta_gap_sq never falls", flat_gaps),
    ("pilot-train", check_zeta, "valid_nll rises", rising_valid_nll),
    ("paper-train", check_normalizers, "log_Z of the longest length - 1e-8",
     lambda a: shift_log_z(a, -1e-8)),
    ("paper-train", check_mass, "log_Z of the longest length - 1e-8",
     lambda a: shift_log_z(a, -1e-8)),
    ("paper-train", check_objective, "trained J equal to the initial J", untrained),
    ("rescore", check_rescore, "a pick outside its n-best list", foreign_pick),
    ("rescore", check_rescore, "an utterance missing from best.txt", dropped_pick),
    ("rescore", check_rescore, "one more substitution in the combined row",
     lambda a: edit_report(a, -1, combined_one_more_substitution)),
    ("rescore", check_rescore, "a single member with a lower WER than combined",
     lambda a: edit_report(a, 1, single_without_errors)),
    ("rescore", check_rescore, "a WER that is not errors / tokens",
     lambda a: edit_report(a, 1, wrong_rate)),
    ("rescore", check_rescore, "one reference token more",
     lambda a: {**a, "refs": {**a["refs"], min(a["refs"]): a["refs"][min(a["refs"])] + " x"}}),
]


def outputs(name: str, seed: int = 0) -> dict:
    wl = workload.WORKLOADS[name]
    s = workload.Runner()
    if wl.seeded:
        os.environ["TRFLM_SEED"] = str(seed)
    workload.do_setup(wl, s, seed, f"selftest-{name}")
    for command in wl.round + wl.sampled:
        wl.run(s, command)
    art = workload.gather(name, seed, s)
    os.chdir(workload.ROOT)
    return art


def main() -> int:
    ok = True
    for name in workload.WORKLOADS:
        art = outputs(name)
        try:
            workload.verify(art)
            print(f"ok    {name}: every check passes on the real outputs")
        except checks.CheckFailed as exc:
            print(f"FAIL  {name}: a check rejects the real outputs: {exc}")
            ok = False
        for case_name, check, what, corrupt in CASES:
            if case_name != name:
                continue
            try:
                check(corrupt(art))
            except checks.CheckFailed as exc:
                print(f"ok    {name}: {check.__name__} rejects {what}: {exc}")
            else:
                print(f"FAIL  {name}: {check.__name__} accepts {what}")
                ok = False
    print("selftest: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
