"""Transcribe the classical 20-node newborn-heart-disease screening network
("CHILD", Spiegelhalter & Cowell) into the package's BN JSON schema.

The structure (20 nodes, 25 arcs) and state spaces follow the published
model exactly.  Conditional tables are transcribed from the published
parameterisation; rows are declared here in the reading order of the
original source (first declared parent varies slowest) and converted to
this library's convention (parents sorted by variable id) before export.

Writes assets/child.json.
"""

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from latentdag import Dag, DiscreteBayesNet, VariableMeta, bn_to_json, joint_marginal  # noqa: E402

VARIABLES = [
    ("BirthAsphyxia", ("yes", "no")),
    ("HypDistrib", ("Equal", "Unequal")),
    ("HypoxiaInO2", ("Mild", "Moderate", "Severe")),
    ("CO2", ("Normal", "Low", "High")),
    ("ChestXray", ("Normal", "Oligaemic", "Plethoric", "Grd_Glass", "Asy/Patchy")),
    ("Grunting", ("yes", "no")),
    ("LVHreport", ("yes", "no")),
    ("LowerBodyO2", ("<5", "5-12", "12+")),
    ("RUQO2", ("<5", "5-12", "12+")),
    ("CO2Report", ("<7.5", ">=7.5")),
    ("XrayReport", ("Normal", "Oligaemic", "Plethoric", "Grd_Glass", "Asy/Patchy")),
    ("Disease", ("PFC", "TGA", "Fallot", "PAIVS", "TAPVD", "Lung")),
    ("GruntingReport", ("yes", "no")),
    ("Age", ("0-3_days", "4-10_days", "11-30_days")),
    ("LVH", ("yes", "no")),
    ("DuctFlow", ("Lt_to_Rt", "None", "Rt_to_Lt")),
    ("CardiacMixing", ("None", "Mild", "Complete", "Transp.")),
    ("LungParench", ("Normal", "Congested", "Abnormal")),
    ("LungFlow", ("Normal", "Low", "High")),
    ("Sick", ("yes", "no")),
]

# (node, declared parent order, rows).  Row order: lexicographic over the
# declared parents, first parent slowest — i.e. exactly the order the rows
# read in the original source.
TABLES = [
    ("BirthAsphyxia", [], [
        [0.1, 0.9],
    ]),
    ("Disease", ["BirthAsphyxia"], [
        [0.20, 0.30, 0.25, 0.15, 0.05, 0.05],
        [0.03061224, 0.33673469, 0.29591837, 0.23469388, 0.05102041, 0.05102041],
    ]),
    ("LVH", ["Disease"], [
        [0.10, 0.90],
        [0.10, 0.90],
        [0.10, 0.90],
        [0.90, 0.10],
        [0.05, 0.95],
        [0.10, 0.90],
    ]),
    ("DuctFlow", ["Disease"], [
        [0.15, 0.05, 0.80],
        [0.10, 0.80, 0.10],
        [0.80, 0.20, 0.00],
        [1.00, 0.00, 0.00],
        [0.33, 0.33, 0.34],
        [0.20, 0.40, 0.40],
    ]),
    ("CardiacMixing", ["Disease"], [
        [0.40, 0.43, 0.15, 0.02],
        [0.02, 0.09, 0.09, 0.80],
        [0.02, 0.16, 0.80, 0.02],
        [0.01, 0.02, 0.95, 0.02],
        [0.01, 0.03, 0.95, 0.01],
        [0.40, 0.53, 0.05, 0.02],
    ]),
    ("LungParench", ["Disease"], [
        [0.60, 0.10, 0.30],
        [0.80, 0.05, 0.15],
        [0.80, 0.05, 0.15],
        [0.80, 0.05, 0.15],
        [0.10, 0.60, 0.30],
        [0.03, 0.25, 0.72],
    ]),
    ("LungFlow", ["Disease"], [
        [0.30, 0.65, 0.05],
        [0.20, 0.05, 0.75],
        [0.15, 0.80, 0.05],
        [0.10, 0.85, 0.05],
        [0.30, 0.10, 0.60],
        [0.70, 0.10, 0.20],
    ]),
    ("Sick", ["Disease"], [
        [0.40, 0.60],
        [0.30, 0.70],
        [0.20, 0.80],
        [0.30, 0.70],
        [0.70, 0.30],
        [0.70, 0.30],
    ]),
    ("Age", ["Disease", "Sick"], [
        [0.95, 0.03, 0.02],  # PFC, sick
        [0.85, 0.10, 0.05],  # PFC, not sick
        [0.80, 0.15, 0.05],  # TGA, sick
        [0.50, 0.30, 0.20],
        [0.70, 0.20, 0.10],  # Fallot, sick
        [0.25, 0.25, 0.50],
        [0.80, 0.15, 0.05],  # PAIVS, sick
        [0.45, 0.30, 0.25],
        [0.80, 0.15, 0.05],  # TAPVD, sick
        [0.60, 0.30, 0.10],
        [0.90, 0.08, 0.02],  # Lung, sick
        [0.80, 0.15, 0.05],
    ]),
    ("HypDistrib", ["DuctFlow", "CardiacMixing"], [
        [0.95, 0.05],  # Lt_to_Rt x (None, Mild, Complete, Transp.)
        [0.95, 0.05],
        [0.95, 0.05],
        [0.95, 0.05],
        [0.95, 0.05],  # None x ...
        [0.95, 0.05],
        [0.95, 0.05],
        [0.95, 0.05],
        [0.05, 0.95],  # Rt_to_Lt shunt sends desaturated blood down
        [0.05, 0.95],
        [0.95, 0.05],  # ... unless mixing is already complete
        [0.50, 0.50],
    ]),
    ("HypoxiaInO2", ["CardiacMixing", "LungParench"], [
        [0.93, 0.05, 0.02],  # no mixing, normal parenchyma
        [0.15, 0.80, 0.05],
        [0.10, 0.70, 0.20],
        [0.10, 0.80, 0.10],  # mild mixing
        [0.10, 0.75, 0.15],
        [0.05, 0.65, 0.30],
        [0.10, 0.75, 0.15],  # complete mixing
        [0.05, 0.65, 0.30],
        [0.05, 0.55, 0.40],
        [0.02, 0.18, 0.80],  # transposition: severe regardless
        [0.02, 0.18, 0.80],
        [0.02, 0.18, 0.80],
    ]),
    ("CO2", ["LungParench"], [
        [0.80, 0.10, 0.10],
        [0.65, 0.05, 0.30],
        [0.45, 0.05, 0.50],
    ]),
    ("ChestXray", ["LungParench", "LungFlow"], [
        [0.90, 0.03, 0.03, 0.01, 0.03],  # normal parenchyma, normal flow
        [0.14, 0.80, 0.02, 0.02, 0.02],  # low flow reads oligaemic
        [0.15, 0.01, 0.79, 0.04, 0.01],  # high flow reads plethoric
        [0.05, 0.02, 0.15, 0.70, 0.08],  # congested: ground glass
        [0.05, 0.22, 0.08, 0.55, 0.10],
        [0.05, 0.02, 0.40, 0.40, 0.13],
        [0.05, 0.05, 0.05, 0.05, 0.80],  # abnormal: asymmetric/patchy
        [0.05, 0.15, 0.05, 0.05, 0.70],
        [0.05, 0.05, 0.20, 0.05, 0.65],
    ]),
    ("Grunting", ["LungParench", "Sick"], [
        [0.20, 0.80],
        [0.05, 0.95],
        [0.40, 0.60],
        [0.20, 0.80],
        [0.80, 0.20],
        [0.60, 0.40],
    ]),
    ("LVHreport", ["LVH"], [
        [0.90, 0.10],
        [0.05, 0.95],
    ]),
    ("LowerBodyO2", ["HypDistrib", "HypoxiaInO2"], [
        [0.10, 0.30, 0.60],
        [0.30, 0.60, 0.10],
        [0.50, 0.45, 0.05],
        [0.40, 0.50, 0.10],
        [0.50, 0.45, 0.05],
        [0.60, 0.35, 0.05],
    ]),
    ("RUQO2", ["HypoxiaInO2"], [
        [0.10, 0.30, 0.60],
        [0.30, 0.60, 0.10],
        [0.50, 0.40, 0.10],
    ]),
    ("CO2Report", ["CO2"], [
        [0.90, 0.10],
        [0.90, 0.10],
        [0.10, 0.90],
    ]),
    ("XrayReport", ["ChestXray"], [
        [0.80, 0.06, 0.06, 0.02, 0.06],
        [0.10, 0.80, 0.02, 0.02, 0.06],
        [0.10, 0.02, 0.80, 0.02, 0.06],
        [0.08, 0.02, 0.10, 0.60, 0.20],
        [0.08, 0.02, 0.10, 0.10, 0.70],
    ]),
    ("GruntingReport", ["Grunting"], [
        [0.80, 0.20],
        [0.10, 0.90],
    ]),
]


def build() -> DiscreteBayesNet:
    vs = [VariableMeta(n, s) for n, s in VARIABLES]
    idx = {n: i for i, (n, _) in enumerate(VARIABLES)}
    card = {n: len(s) for n, s in VARIABLES}

    arcs = []
    for node, parents, _ in TABLES:
        arcs += [(idx[p], idx[node]) for p in parents]
    dag = Dag.from_arcs(len(vs), arcs, names=[n for n, _ in VARIABLES])

    cpts = {}
    for node, parents, rows in TABLES:
        tab = np.asarray(rows, dtype=float)
        shape = tuple(card[p] for p in parents) + (card[node],)
        tab = tab.reshape(shape)
        # reorder declared parents to ascending variable id
        order = sorted(range(len(parents)), key=lambda k: idx[parents[k]])
        tab = tab.transpose(tuple(order) + (len(parents),))
        cpts[idx[node]] = tab.reshape(-1, card[node])
    return DiscreteBayesNet(vs, dag, cpts)


def main() -> None:
    bn = build()
    assert bn.n_nodes == 20 and len(bn.dag.arcs()) == 25
    # spot-check against published marginals: exact P(Disease) is reachable
    # by variable elimination in well under a second
    p_disease = joint_marginal(bn, (11,))
    print("P(Disease) =", np.round(p_disease, 4))
    eligible = sum(1 for x in range(20) if 1 <= len(bn.dag.parents(x)) <= 2)
    print(f"eligible confounder children: {eligible}/20")

    out = pathlib.Path(__file__).resolve().parents[1] / "assets" / "child.json"
    out.write_text(json.dumps(json.loads(bn_to_json(bn)), indent=1) + "\n")
    print("wrote", out)


if __name__ == "__main__":
    main()
