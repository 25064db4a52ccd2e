"""Cross-site patient record linkage.

Patients "leave their EMR scattered around in various medical databases"
(section III.A); building one virtual person-centric record requires linking
site-local records that belong to the same person.  Two mechanisms:

- *deterministic*: equal salted national-id hashes (when present);
- *probabilistic*: Fellegi–Sunter-style log-likelihood scoring over
  quasi-identifiers (birth year, sex, zip3, stable genomic panel), used when
  a site never captured the national id.

Experiment E6 measures linkage precision/recall as the fraction of records
carrying a national id degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LinkageWeights:
    """Agreement/disagreement log-weights per quasi-identifier."""

    birth_year_agree: float = 2.2
    birth_year_disagree: float = -3.0
    sex_agree: float = 0.7
    sex_disagree: float = -4.0
    zip3_agree: float = 2.0
    zip3_disagree: float = -0.8
    genomics_agree_per_locus: float = 0.9
    genomics_disagree_per_locus: float = -2.5
    threshold: float = 6.0


def pair_score(
    a: Dict[str, Any], b: Dict[str, Any], weights: Optional[LinkageWeights] = None
) -> float:
    """Probabilistic match score between two canonical records."""
    weights = weights or LinkageWeights()
    score = 0.0
    score += (
        weights.birth_year_agree
        if a["birth_year"] == b["birth_year"]
        else weights.birth_year_disagree
    )
    score += weights.sex_agree if a["sex"] == b["sex"] else weights.sex_disagree
    score += weights.zip3_agree if a["zip3"] == b["zip3"] else weights.zip3_disagree
    genomics_a, genomics_b = a.get("genomics", {}), b.get("genomics", {})
    for rsid in sorted(set(genomics_a) & set(genomics_b)):
        if genomics_a[rsid] == genomics_b[rsid]:
            score += weights.genomics_agree_per_locus
        else:
            score += weights.genomics_disagree_per_locus
    return score


@dataclass
class LinkageResult:
    """Clusters of records believed to belong to one person."""

    clusters: List[List[Dict[str, Any]]]
    deterministic_links: int
    probabilistic_links: int


class RecordLinker:
    """Links records from many sites into per-person clusters."""

    def __init__(self, weights: Optional[LinkageWeights] = None):
        self.weights = weights or LinkageWeights()

    def link(self, records: Sequence[Dict[str, Any]]) -> LinkageResult:
        """Union-find over deterministic and probabilistic matches.

        Blocking: probabilistic comparison only within (birth_year, sex)
        blocks, keeping the pair count tractable.
        """
        parent = list(range(len(records)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        deterministic = 0
        by_nid: Dict[str, int] = {}
        for index, record in enumerate(records):
            nid = record.get("national_id_hash", "")
            if nid:
                if nid in by_nid:
                    union(by_nid[nid], index)
                    deterministic += 1
                else:
                    by_nid[nid] = index

        probabilistic = 0
        blocks: Dict[Tuple[int, str], List[int]] = {}
        for index, record in enumerate(records):
            blocks.setdefault((record["birth_year"], record["sex"]), []).append(index)
        for block in blocks.values():
            for position, i in enumerate(block):
                for j in block[position + 1:]:
                    if find(i) == find(j):
                        continue
                    if (
                        pair_score(records[i], records[j], self.weights)
                        >= self.weights.threshold
                    ):
                        union(i, j)
                        probabilistic += 1

        clusters: Dict[int, List[Dict[str, Any]]] = {}
        for index, record in enumerate(records):
            clusters.setdefault(find(index), []).append(record)
        return LinkageResult(
            clusters=list(clusters.values()),
            deterministic_links=deterministic,
            probabilistic_links=probabilistic,
        )


def evaluate_linkage(
    result: LinkageResult, truth_key: str = "_person"
) -> Dict[str, float]:
    """Pairwise precision/recall against ground-truth person labels.

    Records must carry a ``truth_key`` field with the true person id
    (test harnesses attach it before masking national ids).
    """
    predicted_pairs = set()
    for cluster in result.clusters:
        ids = [id(record) for record in cluster]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                predicted_pairs.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    true_groups: Dict[Any, List[int]] = {}
    for cluster in result.clusters:
        for record in cluster:
            true_groups.setdefault(record.get(truth_key), []).append(id(record))
    true_pairs = set()
    for members in true_groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                true_pairs.add(
                    (min(members[i], members[j]), max(members[i], members[j]))
                )
    true_positive = len(predicted_pairs & true_pairs)
    precision = true_positive / len(predicted_pairs) if predicted_pairs else 1.0
    recall = true_positive / len(true_pairs) if true_pairs else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
