"""The benchmark's workloads: fixed lists of (scenario id, params).

The workload seed is added to every entry's params as ``seed``.  Why each
workload exists, and which layers it stresses, is in README.md.
"""

WORKLOADS = {
    # generic-path elimination over F_4 / F_9 and periodic cocycle transport
    "alpha-classes": [
        ("alpha-sl2-f4", {}),
        ("alpha-ta-f9", {}),
    ],
    # Dold-Kan over prime fields: blocked elimination, dense levels
    "derived-powers": [
        ("sym-cohomology", {"p": 3, "dim": 6}),
        ("decalage", {"p": 3, "dim": 5, "n": 3}),
        ("sym-cohomology", {"p": 5, "dim": 1}),
        ("decalage", {"p": 5, "dim": 1, "n": 5}),
        ("cartier", {"p": 5}),
    ],
    # every scenario tagged "fast": many small calls over every ring family
    "registry-fast": [(id_, {}) for id_ in (
        "additive-cohomology-dims", "algebra-bockstein", "alpha-u2-f2-zero",
        "bock-alpha-nonzero-p2", "borel-1", "borel-2", "borel-3", "cartier",
        "decalage", "field-search", "four-term-exact", "ghost-v",
        "integral-facts-p2", "lattice-vanishing", "norm-cokernel-zp2",
        "omega-trunc-vs-symp", "semidirect-agree", "steenrod-p0",
        "steenrod-p1", "sym-cohomology", "weights-1", "weights-2",
        "weights-3", "weights-4", "witt-bockstein-agree", "witt-identity")],
}


def entry_key(id_, params):
    """Seed-free key of one workload entry, as stored in reference.json."""
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{id_}({inner})"
