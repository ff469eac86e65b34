"""Benchmark harness and per-table/figure reproduction functions."""

from repro.bench.harness import (
    SCALE_ENV,
    Measured,
    bench_scale,
    measure,
    render_table,
    rows_from_dicts,
    save_and_print,
)
from repro.bench.harness import sparkline
from repro.bench.tables import (
    DEFAULT_SCALES,
    TABLE6_MEMORY_BYTES,
    CompiledWorkload,
    compile_workload,
    dataflow_input,
    figure4_series,
    graphchi_rows,
    race_rows,
    run_graspan_out_of_core,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
    taint_rows,
)
from repro.bench.ablation import (
    ablation_dedup_merge,
    ablation_oldnew,
    ablation_scheduler,
)
from repro.bench.residency import DEFAULT_BUDGET_FACTORS, residency_rows

__all__ = [
    "SCALE_ENV",
    "Measured",
    "bench_scale",
    "measure",
    "render_table",
    "rows_from_dicts",
    "save_and_print",
    "sparkline",
    "DEFAULT_SCALES",
    "TABLE6_MEMORY_BYTES",
    "CompiledWorkload",
    "compile_workload",
    "dataflow_input",
    "figure4_series",
    "graphchi_rows",
    "race_rows",
    "run_graspan_out_of_core",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "table6_rows",
    "taint_rows",
    "ablation_dedup_merge",
    "ablation_oldnew",
    "ablation_scheduler",
    "DEFAULT_BUDGET_FACTORS",
    "residency_rows",
]
