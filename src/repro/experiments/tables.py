"""Reproduction of the paper's tables (Tables 1-9).

Each function consumes the raw results of :func:`repro.experiments.runner.
run_workloads` (plus ground truth where needed) and returns a list of dict
rows; the corresponding benchmark target renders the rows with
:mod:`repro.experiments.report` and asserts the qualitative claims the paper
makes about the table (who wins, who fails where).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.metrics import (
    l1_normalized_error,
    precision_at_k,
    summarize_times,
)
from repro.experiments.runner import (
    AlgorithmResult,
    ExperimentConfig,
    exact_ground_truth,
    run_algorithm,
    topk_from_values,
    topk_with_cnf_proxy,
    topk_with_ichiban,
)
from repro.workloads.generators import LineageInstance
from repro.workloads.suite import Workload

ResultMap = Mapping[Tuple[str, str], Sequence[AlgorithmResult]]


# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #

def table1_dataset_statistics(workloads: Sequence[Workload]) -> List[Dict[str, object]]:
    """Table 1: per-dataset statistics of the lineage instances."""
    rows = []
    for workload in workloads:
        stats = workload.statistics()
        queries = {instance.query for instance in workload.instances}
        rows.append({
            "dataset": workload.name,
            "queries": len(queries),
            "lineages": stats["count"],
            "avg_vars": stats["avg_vars"],
            "max_vars": stats["max_vars"],
            "avg_clauses": stats["avg_clauses"],
            "max_clauses": stats["max_clauses"],
        })
    return rows


# --------------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------------- #

def _query_success_rate(results: Sequence[AlgorithmResult]) -> float:
    by_query: Dict[str, List[bool]] = defaultdict(list)
    for result in results:
        by_query[result.instance.query].append(result.success)
    if not by_query:
        return float("nan")
    fully_successful = sum(1 for outcomes in by_query.values() if all(outcomes))
    return fully_successful / len(by_query)


def _lineage_success_rate(results: Sequence[AlgorithmResult]) -> float:
    if not results:
        return float("nan")
    return sum(1 for result in results if result.success) / len(results)


def table2_success_rates(results: ResultMap,
                         algorithms: Sequence[str]) -> List[Dict[str, object]]:
    """Table 2: query and lineage success rates per dataset and algorithm."""
    rows = []
    datasets = sorted({workload for workload, _ in results})
    for dataset in datasets:
        for algorithm in algorithms:
            algorithm_results = results.get((dataset, algorithm), [])
            rows.append({
                "dataset": dataset,
                "algorithm": algorithm,
                "query_success_rate": _query_success_rate(algorithm_results),
                "lineage_success_rate": _lineage_success_rate(algorithm_results),
            })
    return rows


# --------------------------------------------------------------------------- #
# Tables 3 and 4 (exact computation)
# --------------------------------------------------------------------------- #

def _index_by_instance(results: Sequence[AlgorithmResult]
                       ) -> Dict[str, AlgorithmResult]:
    return {result.instance.label(): result for result in results}


def table3_exact_runtime(results: ResultMap) -> List[Dict[str, object]]:
    """Table 3: ExaBan vs Sig22 runtimes on instances where Sig22 succeeds."""
    rows = []
    datasets = sorted({workload for workload, _ in results})
    for dataset in datasets:
        sig22 = _index_by_instance(results.get((dataset, "sig22"), []))
        exaban = _index_by_instance(results.get((dataset, "exaban"), []))
        common = [label for label, result in sig22.items()
                  if result.success and label in exaban and exaban[label].success]
        for algorithm, indexed in (("exaban", exaban), ("sig22", sig22)):
            times = [indexed[label].seconds for label in common]
            row = {"dataset": dataset, "algorithm": algorithm,
                   "instances": len(common)}
            row.update(summarize_times(times))
            rows.append(row)
    return rows


def table4_exaban_when_sig22_fails(results: ResultMap) -> List[Dict[str, object]]:
    """Table 4: ExaBan success rate and runtime where Sig22 fails."""
    rows = []
    datasets = sorted({workload for workload, _ in results})
    for dataset in datasets:
        sig22 = _index_by_instance(results.get((dataset, "sig22"), []))
        exaban = _index_by_instance(results.get((dataset, "exaban"), []))
        failed = [label for label, result in sig22.items() if not result.success]
        succeeded = [label for label in failed
                     if label in exaban and exaban[label].success]
        times = [exaban[label].seconds for label in succeeded]
        row = {
            "dataset": dataset,
            "sig22_failures": len(failed),
            "exaban_success_rate": (len(succeeded) / len(failed)
                                    if failed else float("nan")),
        }
        row.update(summarize_times(times) if times else summarize_times([]))
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Tables 5 and 6 (approximate computation)
# --------------------------------------------------------------------------- #

def table5_approx_runtime(results: ResultMap) -> List[Dict[str, object]]:
    """Table 5: AdaBan vs ExaBan vs MC runtimes where ExaBan succeeds."""
    rows = []
    datasets = sorted({workload for workload, _ in results})
    for dataset in datasets:
        exaban = _index_by_instance(results.get((dataset, "exaban"), []))
        successes = [label for label, result in exaban.items() if result.success]
        for algorithm in ("adaban", "exaban", "mc"):
            indexed = _index_by_instance(results.get((dataset, algorithm), []))
            times = [indexed[label].seconds for label in successes
                     if label in indexed and indexed[label].success]
            row = {"dataset": dataset, "algorithm": algorithm,
                   "instances": len(times)}
            row.update(summarize_times(times))
            rows.append(row)
    return rows


def table6_adaban_when_exaban_fails(results: ResultMap) -> List[Dict[str, object]]:
    """Table 6: AdaBan success rate and runtime where ExaBan fails."""
    rows = []
    datasets = sorted({workload for workload, _ in results})
    for dataset in datasets:
        exaban = _index_by_instance(results.get((dataset, "exaban"), []))
        adaban = _index_by_instance(results.get((dataset, "adaban"), []))
        failed = [label for label, result in exaban.items() if not result.success]
        succeeded = [label for label in failed
                     if label in adaban and adaban[label].success]
        times = [adaban[label].seconds for label in succeeded]
        row = {
            "dataset": dataset,
            "exaban_failures": len(failed),
            "adaban_success_rate": (len(succeeded) / len(failed)
                                    if failed else float("nan")),
        }
        row.update(summarize_times(times))
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 7 (accuracy)
# --------------------------------------------------------------------------- #

def table7_accuracy(results: ResultMap,
                    hard_threshold_seconds: float = 0.5
                    ) -> List[Dict[str, object]]:
    """Table 7: l1 error of AdaBan and MC against exact values.

    The exact values come from the ExaBan runs in ``results``; only instances
    where ExaBan succeeded are considered.  The "hard" rows aggregate, across
    datasets, the instances whose exact computation took at least
    ``hard_threshold_seconds``.
    """
    rows = []
    datasets = sorted({workload for workload, _ in results})
    hard_errors: Dict[str, List[float]] = {"adaban": [], "mc": []}
    for dataset in datasets:
        exaban = _index_by_instance(results.get((dataset, "exaban"), []))
        for algorithm in ("adaban", "mc"):
            indexed = _index_by_instance(results.get((dataset, algorithm), []))
            errors = []
            for label, exact_result in exaban.items():
                if not exact_result.success:
                    continue
                approx = indexed.get(label)
                if approx is None or not approx.success:
                    continue
                error = l1_normalized_error(approx.values, exact_result.values)
                errors.append(error)
                if exact_result.seconds >= hard_threshold_seconds:
                    hard_errors[algorithm].append(error)
            row = {"dataset": dataset, "algorithm": algorithm,
                   "instances": len(errors)}
            row.update(summarize_times(errors))
            rows.append(row)
    for algorithm in ("adaban", "mc"):
        row = {"dataset": "hard", "algorithm": algorithm,
               "instances": len(hard_errors[algorithm])}
        row.update(summarize_times(hard_errors[algorithm]))
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 8 (top-k precision)
# --------------------------------------------------------------------------- #

def table8_topk_precision(workloads: Sequence[Workload],
                          config: Optional[ExperimentConfig] = None,
                          k_values: Tuple[int, ...] = (10, 5)
                          ) -> List[Dict[str, object]]:
    """Table 8: precision@k of IchiBan, MC and CNF Proxy per dataset."""
    if config is None:
        config = ExperimentConfig()
    rows = []
    for workload in workloads:
        precisions: Dict[Tuple[str, int], List[float]] = defaultdict(list)
        for instance in workload.instances:
            exact = exact_ground_truth(instance,
                                       timeout_seconds=config.timeout_seconds * 4)
            if exact is None:
                continue
            mc_result = run_algorithm("mc", instance, config)
            for k in k_values:
                if len(exact) < 2:
                    continue
                ichiban = topk_with_ichiban(instance, k, config)
                if ichiban is not None:
                    precisions[("ichiban", k)].append(
                        precision_at_k(ichiban, exact, k))
                if mc_result.success:
                    precisions[("mc", k)].append(precision_at_k(
                        topk_from_values(mc_result.values, k), exact, k))
                proxy = topk_with_cnf_proxy(instance, k, config)
                if proxy is not None:
                    precisions[("cnf_proxy", k)].append(
                        precision_at_k(proxy, exact, k))
        for algorithm in ("ichiban", "mc", "cnf_proxy"):
            row: Dict[str, object] = {"dataset": workload.name,
                                      "algorithm": algorithm}
            for k in k_values:
                values = precisions.get((algorithm, k), [])
                row[f"precision@{k}_mean"] = (sum(values) / len(values)
                                              if values else float("nan"))
                row[f"precision@{k}_min"] = (min(values)
                                             if values else float("nan"))
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 9 (certain top-k)
# --------------------------------------------------------------------------- #

def table9_topk_certain(workloads: Sequence[Workload],
                        config: Optional[ExperimentConfig] = None,
                        k_values: Tuple[int, ...] = (1, 3, 5, 10)
                        ) -> List[Dict[str, object]]:
    """Table 9: runtime and success rate of the certain top-k variant."""
    import time as _time

    from repro.core.adaban import ApproximationTimeout
    from repro.core.ichiban import ichiban_topk_certain

    if config is None:
        config = ExperimentConfig()
    rows = []
    for workload in workloads:
        for k in k_values:
            times: List[float] = []
            failures = 0
            attempts = 0
            for instance in workload.instances:
                if len(instance.lineage.variables) < 2:
                    continue
                attempts += 1
                started = _time.monotonic()
                try:
                    ichiban_topk_certain(instance.lineage, k=k,
                                         timeout_seconds=config.timeout_seconds)
                except ApproximationTimeout:
                    failures += 1
                    continue
                times.append(_time.monotonic() - started)
            row = {
                "dataset": workload.name,
                "k": k,
                "success_rate": ((attempts - failures) / attempts
                                 if attempts else float("nan")),
            }
            row.update(summarize_times(times))
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Appendix D
# --------------------------------------------------------------------------- #

def appendix_d_rows() -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Appendix D: per-size critical-set counts and the Banzhaf/Shapley totals.

    Returns the per-``k`` rows of the Appendix D table plus a summary with
    the two facts' Banzhaf and Shapley values and the resulting (divergent)
    rankings.
    """
    from repro.core.shapley import (
        banzhaf_from_critical_counts,
        critical_counts_exact,
        shapley_from_critical_counts,
    )
    from repro.db.lineage import lineage_of_boolean_query
    from repro.db.reductions import appendix_d_database, appendix_d_query

    database, r_a1, r_a2 = appendix_d_database()
    query = appendix_d_query()
    lineage = lineage_of_boolean_query(query, database, domain="database")
    variable_a1 = database.variable_of(r_a1)
    variable_a2 = database.variable_of(r_a2)
    counts_a1 = critical_counts_exact(lineage, variable_a1)
    counts_a2 = critical_counts_exact(lineage, variable_a2)
    rows = []
    for k, (count_a1, count_a2) in enumerate(zip(counts_a1, counts_a2)):
        rows.append({"k": k, "critical_R_a1": count_a1,
                     "critical_R_a2": count_a2})
    n = lineage.num_variables()
    summary = {
        "banzhaf_R_a1": banzhaf_from_critical_counts(counts_a1),
        "banzhaf_R_a2": banzhaf_from_critical_counts(counts_a2),
        "shapley_R_a1": float(shapley_from_critical_counts(counts_a1, n)),
        "shapley_R_a2": float(shapley_from_critical_counts(counts_a2, n)),
    }
    summary["banzhaf_prefers"] = ("R(a1)" if summary["banzhaf_R_a1"]
                                  > summary["banzhaf_R_a2"] else "R(a2)")
    summary["shapley_prefers"] = ("R(a1)" if summary["shapley_R_a1"]
                                  > summary["shapley_R_a2"] else "R(a2)")
    return rows, summary


def instances_of(workloads: Sequence[Workload]) -> List[LineageInstance]:
    """Flatten the instances of several workloads (helper for benchmarks)."""
    instances: List[LineageInstance] = []
    for workload in workloads:
        instances.extend(workload.instances)
    return instances
