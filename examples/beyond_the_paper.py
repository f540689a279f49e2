#!/usr/bin/env python
"""The paper's Section-5 extensions, running.

1. **Substructure counting** — "whether the hardness results can be
   sharpened to counting the number of substructures (i.e. when all
   probabilities are 1/2)": at uniform 1/2 marginals, probabilities
   are counts.
2. **Boolean properties** (Theorem 3.11) — probabilities of Boolean
   combinations of CQs via inclusion–exclusion, with the PTIME path
   for inversion-free properties.

Run:  python examples/beyond_the_paper.py
"""

from repro import ProbabilisticDatabase, parse
from repro.analysis import (
    conj,
    count_satisfying_substructures,
    is_inversion_free_property,
    neg,
    property_probability,
)


def main() -> None:
    # A small certain structure: which substructures satisfy the query?
    structure = ProbabilisticDatabase.from_dict(
        {
            "R": {(1,): 1, (2,): 1},
            "S": {(1, 2): 1, (2, 1): 1, (2, 2): 1},
        }
    )
    query = parse("R(x), S(x,y)")
    count = count_satisfying_substructures(query, structure)
    total = 2 ** structure.tuple_count()
    print(f"substructures satisfying {query}: {count} of {total}")

    # A Boolean property: "some credible path exists but no self-loop".
    prop = conj(parse("R(x), S(x,y)"), neg(parse("S(z,z)")))
    print(f"\nproperty: {prop}")
    print("inversion-free property:", is_inversion_free_property(prop))
    db = ProbabilisticDatabase.from_dict(
        {
            "R": {(1,): 0.8, (2,): 0.5},
            "S": {(1, 2): 0.9, (2, 2): 0.3},
        }
    )
    print(f"P(property) = {property_probability(prop, db):.6f}")


if __name__ == "__main__":
    main()
