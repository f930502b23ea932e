//! **Table 4** — CPU-counter metrics with and without (Transparent)
//! Hugepages, via the memory-hierarchy simulator (a substitution for
//! the paper's hardware counters).
//!
//! Paper: dTLB load miss rate 5.12% → 0.25%, page-walk cycle share
//! 7.74% → 0.72%, RAM reads from dTLB misses 3.06M/s → 0.75M/s, page
//! faults 32,548/s → 26,527/s.
//!
//! The replayed address stream is the SLIDE training pattern: scattered
//! reads/updates of the active rows of a weight matrix far larger than
//! the TLB reach of 4 KB pages.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table4_hugepages [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_memsim::{AccessTrace, MemoryHierarchy, PageSize};

fn main() {
    let args = ExpArgs::parse();
    // Weight matrix footprint: labels × 128 × 4 bytes.
    let labels: usize = match args.scale {
        slide_bench::Scale::Smoke => 50_000,
        slide_bench::Scale::Medium => 200_000,
        slide_bench::Scale::Full => 670_091,
    };
    let row_bytes = 128u64 * 4;
    let footprint_mb = labels as u64 * row_bytes / (1 << 20);
    println!("Table 4: hugepage impact, {labels} output rows ({footprint_mb} MiB matrix)\n");

    // SLIDE's access pattern: per example, ~1000 LSH-sampled rows are
    // read and updated, scattered over the whole matrix.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(args.seed ^ 0x7AB4);
    let examples = 400usize;
    let active_per_example = 1000usize.min(labels);
    let mut trace = AccessTrace::with_capacity(examples * active_per_example * 8);
    for _ in 0..examples {
        for _ in 0..active_per_example {
            let row = rng.gen_range(0, labels) as u64;
            let base = row * row_bytes;
            let mut a = base;
            while a < base + row_bytes {
                trace.record(0, a);
                a += 64;
            }
        }
    }
    trace.add_compute(trace.len() as u64 * 16 * 2);

    let mut table = TablePrinter::new(
        vec![
            "metric",
            "without_hugepages_4KB",
            "with_hugepages_2MB",
            "paper_without",
            "paper_with",
        ],
        args.csv,
    );
    let mut reports = Vec::new();
    for page in [PageSize::Kb4, PageSize::Mb2] {
        let mut sim = MemoryHierarchy::typical_server(page);
        reports.push(trace.replay(&mut sim));
    }
    let (r4, r2) = (&reports[0], &reports[1]);
    table.row(vec![
        "dTLB load miss rate".into(),
        format!("{:.2}%", r4.dtlb_miss_rate * 100.0),
        format!("{:.2}%", r2.dtlb_miss_rate * 100.0),
        "5.12%".into(),
        "0.25%".into(),
    ]);
    table.row(vec![
        "PTW cycle share".into(),
        format!("{:.2}%", r4.ptw_cycle_fraction * 100.0),
        format!("{:.2}%", r2.ptw_cycle_fraction * 100.0),
        "7.74%".into(),
        "0.72%".into(),
    ]);
    table.row(vec![
        "RAM reads (dTLB miss)".into(),
        r4.ram_reads_tlb_miss.to_string(),
        r2.ram_reads_tlb_miss.to_string(),
        "3,062,039/s".into(),
        "749,485/s".into(),
    ]);
    table.row(vec![
        "page faults".into(),
        r4.page_faults.to_string(),
        r2.page_faults.to_string(),
        "32,548/s".into(),
        "26,527/s".into(),
    ]);
    table.row(vec![
        "memory-bound fraction".into(),
        format!("{:.2}", r4.memory_bound_fraction),
        format!("{:.2}", r2.memory_bound_fraction),
        "-".into(),
        "-".into(),
    ]);
    table.print();
    println!("\npaper shape: hugepages slash TLB misses, page walks and fault counts.");
}
