//! **Table 3** — time of the two bucket insertion policies when
//! (re)building the output layer's hash tables.
//!
//! Paper (Delicious, 205,443 neurons, K=9 L=50): Reservoir 0.371 s vs
//! FIFO 0.762 s for the insertion itself; ~18 s for the full insertion
//! including hash computation — i.e. hashing dominates and the policy
//! choice is noise in the total.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table3_insertion [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{timed, ExpArgs, TablePrinter};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_lsh::family::HashFamily;
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::simhash::SimHash;
use slide_lsh::table::{LshTables, TableConfig};

fn main() {
    let args = ExpArgs::parse();
    let neurons: usize = match args.scale {
        slide_bench::Scale::Smoke => 20_000,
        slide_bench::Scale::Medium => 80_000,
        slide_bench::Scale::Full => 205_443,
    };
    let (k, l, dim) = (9usize, 50usize, 128usize);
    println!("Table 3: insertion policies, {neurons} neurons, K={k} L={l}\n");

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(args.seed ^ 0x7AB3);
    let family = SimHash::new(dim, k, l, 1.0 / 3.0, &mut rng);

    // Pre-compute all hash codes (so "insertion to HT" isolates the table
    // write path, as in the paper's column 1).
    let mut weights = vec![0.0f32; dim];
    let num_codes = family.num_codes();
    let (all_codes, hash_secs) = timed(|| {
        let mut all = vec![0u32; neurons * num_codes];
        for j in 0..neurons {
            for w in weights.iter_mut() {
                *w = rng.next_normal() as f32;
            }
            family.hash_dense(&weights, &mut all[j * num_codes..(j + 1) * num_codes]);
        }
        all
    });

    let mut table = TablePrinter::new(
        vec!["policy", "insertion_to_ht_s", "full_insertion_s"],
        args.csv,
    );
    for policy in [InsertionPolicy::Reservoir, InsertionPolicy::Fifo] {
        let mut tables = LshTables::new(
            TableConfig::new(k, l)
                .with_table_bits(12)
                .with_bucket_capacity(128)
                .with_policy(policy),
        );
        let mut ins_rng = Xoshiro256PlusPlus::seed_from_u64(args.seed ^ 0x7AB4);
        let (_, insert_secs) = timed(|| tables.fill(&all_codes, &mut ins_rng));
        table.row(vec![
            policy.to_string(),
            format!("{insert_secs:.3}"),
            format!("{:.3}", insert_secs + hash_secs),
        ]);
    }
    table.print();
    println!("\n(hash-code computation alone: {hash_secs:.3} s — dominates, as in the paper)");
    println!("paper: reservoir 0.371 s / FIFO 0.762 s insertion; ~18 s full insertion.");
}
