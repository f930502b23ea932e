//! # slide-lsh
//!
//! The Locality Sensitive Hashing substrate of the SLIDE reproduction
//! (paper §2, §3.2, §4 and appendices A–C):
//!
//! * [`family`] — the [`family::HashFamily`] trait plus the four families
//!   SLIDE supports: [`simhash::SimHash`], [`wta::WtaHash`],
//!   [`dwta::DwtaHash`] and [`minhash::DophHash`];
//! * [`table`] — (K, L)-parameterized hash tables over neuron ids, each
//!   one flat array of fixed-capacity buckets built by one bulk fill;
//! * [`policy`] — bucket replacement policies (Vitter reservoir sampling
//!   and FIFO, paper §4.2 and Table 3);
//! * [`sampling`] — the three active-neuron selection strategies
//!   (Vanilla, TopK, Hard-Threshold; paper §4.1, Appendix B);
//! * [`retrieve`] — deterministic query-only bucket-union retrieval with a
//!   probe budget, for the inference/serving path;
//! * [`prob`] — closed-form collision/selection probability math used for
//!   Figure 11 and for property tests.
//!
//! ## Example: build tables over a weight matrix and sample neighbours
//!
//! ```
//! use slide_lsh::{family::HashFamily, simhash::SimHash, table::{LshTables, TableConfig}};
//! use slide_data::rng::{Rng, Xoshiro256PlusPlus};
//!
//! let dim = 32;
//! let (k, l) = (4, 8);
//! let family = SimHash::new(dim, k, l, 1.0, &mut Xoshiro256PlusPlus::seed_from_u64(1));
//! let mut tables = LshTables::new(TableConfig::new(k, l));
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
//!
//! // Hash 100 random "neurons" and fill the tables with ids 0..100.
//! let weights: Vec<Vec<f32>> = (0..100)
//!     .map(|_| (0..dim).map(|_| rng.next_f32() - 0.5).collect())
//!     .collect();
//! let nc = family.num_codes();
//! let mut all = vec![0u32; weights.len() * nc];
//! for (w, codes) in weights.iter().zip(all.chunks_exact_mut(nc)) {
//!     family.hash_dense(w, codes);
//! }
//! tables.fill(&all, &mut rng);
//!
//! // Query with one of the stored vectors: it must be in its own buckets.
//! let mut codes = vec![0u32; nc];
//! family.hash_dense(&weights[42], &mut codes);
//! let found = (0..l).any(|t| tables.bucket(t, &codes).contains(&42));
//! assert!(found);
//! ```

pub mod dwta;
pub mod family;
pub mod minhash;
pub mod policy;
pub mod prob;
pub mod retrieve;
pub mod sampling;
pub mod simhash;
pub mod table;
pub mod wta;

pub use family::{HashFamily, HashFamilyKind};
pub use policy::InsertionPolicy;
pub use retrieve::{retrieve_union, QueryBudget};
pub use sampling::{SamplerScratch, SamplingStrategy};
pub use table::{LshTables, TableConfig};
