"""Validated item pools of the three workloads and the seeded item order.

An item is the argv of one ``qrspaces`` CLI call.  Each workload is a list of
strata; a stratum holds variants of one item that cost about the same (they
differ in a map parameter, not in the code path or the grid sizes).  A round
takes one variant per stratum, chosen by the workload seed, in a seeded
order, so every round does the same kind and amount of work while the seed
still changes the inputs.

Every variant has a reference outcome in ``reference.json``.  Items whose
outcome at the seed commit was an error exit are kept out of the pools and
listed in ``EXCLUDED`` with the reason, for a later correctness fix.
"""

from __future__ import annotations

import random

# k of the criterion-5 maps and the claimed K = (1+k)/(1-k) for each
K_OF = {"0.2": "1.5", "0.5": "3", "0.8": "9"}

Q_CELLS = ("Q(1,0.7,-0.5)", "Q(1,1.5,0)", "Q(1,2.5,1)")
F_CELLS = ("F(2,0,1)", "F(0.8,0.8,1)", "F(1.5,1,0.5)")


def _verify(theorem, map_spec, scale, K, *rest):
    return ["verify", "--theorem", theorem, "--map", map_spec, "--scale", scale,
            "--K", K, *rest]


def _conjugate_sweep():
    strata = []
    for cell in Q_CELLS + F_CELLS:
        theorem = "3.1" if cell.startswith("Q") else "3.2"
        strata.append([_verify(theorem, "koebe", cell, "1")])
        for family in ("affine:k={k};sign=-1", "affine:k={k};sign=1",
                       "cayley-shear:k={k}", "koebe-dilatation:k={k}"):
            strata.append([_verify(theorem, family.format(k=k), cell, K)
                           for k, K in K_OF.items()])
    return strata


def _membership_ladder():
    # Items take 13-16 s each, so a round holds the criterion-9 pair: koebe in
    # M(0.8,0,1) stabilizes, in M(1.2,0,1) it diverges.  Its shear with k = 0
    # is the same function built through the shear path, at the same cost.
    # F-scale derivative targets (fz, bfb) are left out: their order-2 jets
    # peak at 403 MB against 237 MB, so peak RSS would follow the pick.
    return [[_verify("4.1", m, scale, "1") for m in ("koebe", "koebe-shear:k=0")]
            for scale in ("M(0.8,0,1)", "M(1.2,0,1)")]


def _norm(map_spec, scale, *rest):
    return ["norm", "--map", map_spec, "--scale", scale, *rest]


def _cli_mix():
    shears = ("cayley-shear:k=0.3", "cayley-shear:k=0.5", "cayley-shear:k=0.7")
    fold = ("fold", "--K", "1", "--Kprime", "4")
    return [
        [_norm("koebe-shear:k=0.3", "M(1,0,1)", "--radial", "8")],
        [_norm("identity", "Q(1,2,0)")],
        [_norm("cayley-shear:k=0.5", "Q(1,1.5,0)")],
        [_norm(m, "Qs(1)") for m in shears],
        [_norm(m, "Morrey(0.5)") for m in shears],
        [_norm(m, "BergmanMorrey(2,0.5)") for m in shears],
        [_norm(m, "Bloch(1)") for m in shears],
        [_norm("koebe", "Q(2,1,1)", "--search-max-j", "4", "--search-angles", "8")],
        [_norm("identity", "F(2,0,1)", "--weight-form", "green",
               "--search-max-j", "3", "--search-angles", "4")],
        [["constants", "--constant", f"sigma-deriv:p=2;alpha={a}"]
         for a in ("0.5", "1")],
        [["constants", "--constant", f"overlap:q={q};s=1"] for q in ("0", "0.5")],
        [["constants", "--constant", f"morrey:lam={lam}"]
         for lam in ("0.3", "0.5", "0.7")],
        [["constants", "--constant", "qs:s=1"]],
        [["verify", "--theorem", "3.5", "--map", *fold, "--scale", "Q(1,1.5,0)"]],
        [["verify", "--theorem", "3.6", "--map", *fold, "--scale", "F(2,0,1)"]],
        [["verify", "--theorem", "cor3.4", "--map", *fold, "--scale", "Morrey(0.5)"]],
        [["verify", "--theorem", "cor3.5", "--map", *fold,
          "--scale", "BergmanMorrey(2,0.5)"]],
        [["verify", "--theorem", "cor3.6", "--map", *fold, "--scale", "Qs(1)"]],
        [_verify("cor3.1", f"affine:k={k};sign=-1", "Morrey(0.5)", K)
         for k, K in K_OF.items()],
        [_verify("cor3.2", f"affine:k={k};sign=-1", "BergmanMorrey(2,0.5)", K)
         for k, K in K_OF.items()],
        [_verify("cor3.3", f"affine:k={k};sign=-1", "Qs(1)", K)
         for k, K in K_OF.items()],
        [["sweep", "--theorem", "3.2", "--K", "3",
          "--maps", f"affine:k=0.5;sign={sign}",
          "--cells", "F(2,0,1)", "F(1.5,1,0.5)"] for sign in ("-1", "1")],
        [["growth", "--map", "koebe", "--which", "hprime"]],
        [["growth", "--map", f"koebe-shear:k={k}", "--which", "hprime"]
         for k in ("0.2", "0.3", "0.5")],
    ]


WORKLOADS = {
    "conjugate-sweep": _conjugate_sweep(),
    "membership-ladder": _membership_ladder(),
    "cli-mix": _cli_mix(),
}

# A few millisecond-scale items for the smoke mode; all are cli-mix items.
SMOKE = [[_norm("identity", "Q(1,2,0)")],
         [["constants", "--constant", "qs:s=1"]],
         [["growth", "--map", "koebe", "--which", "hprime"]]]

# Seed outcome was an error exit; kept out of the pools.
EXCLUDED = [
    (_norm("koebe", "F(2,0,1)", "--weight-form", "green",
           "--search-max-j", "3", "--search-angles", "4"),
     "exit 3: Green-weight integral does not stabilize under cap refinement"),
    (_norm("cayley-shear:k=0.5", "F(2,0,1)", "--weight-form", "green",
           "--search-max-j", "3", "--search-angles", "4"),
     "exit 3: Green-weight integral does not stabilize under cap refinement"),
    (["verify", "--theorem", "cor3.1", "--map", "fold", "--K", "1",
      "--Kprime", "4", "--scale", "Morrey(0.5)"],
     "exit 2: the fold is not K-quasiregular, so the K-form corollaries "
     "cor3.1-cor3.3 reject it"),
]


def all_items():
    seen, out = set(), []
    for strata in list(WORKLOADS.values()) + [SMOKE]:
        for stratum in strata:
            for argv in stratum:
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    out.append(argv)
    return out


def rounds(strata, seed: int, count: int):
    """``count`` rounds: one seeded variant per stratum, in seeded order.

    The first stratum opens every round.  Peak RSS depends on the heap state
    the largest allocation meets, so a workload lists the item that sets its
    peak first (cli-mix: 312 MB every time, against 313-328 MB when it ran
    after a seeded choice of other items).
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        picked = [rng.choice(stratum) for stratum in strata]
        rest = picked[1:]
        rng.shuffle(rest)
        out.append(picked[:1] + rest)
    return out
