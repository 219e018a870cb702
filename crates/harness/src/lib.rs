//! # harness — the paper's benchmark methodology, reproduced
//!
//! The evaluation section of the paper (§5) is driven by a purpose-built
//! benchmark rather than STAMP/TPC-C/YCSB, because those suites cannot
//! exercise long-running range queries under a steady stream of conflicting
//! updates. This crate reproduces that methodology:
//!
//! * operation-mix workloads over a key range (search / range query /
//!   insert / delete percentages), with uniform or Zipfian key access;
//! * **dedicated updater threads** that never perform read-only operations
//!   and whose throughput is *not* counted, so a TM cannot look good on
//!   range-query workloads merely because every thread eventually rolls a
//!   range query at the same time (Figure 7's pitfall);
//! * prefilled structures, timed trials, multiple TMs × thread counts;
//! * time-varying workloads sampled every 200 ms (Figure 8);
//! * maximum-resident-set and versioning-metadata memory accounting
//!   (Figure 9) and process CPU time per trial. Figure 10's energy claim is
//!   not measurable here: RAPL needs privileges, and CPU time is not
//!   energy.

/// Declares a fieldless enum whose variants carry stable CLI names, one
/// `Variant => "name"` row each, and generates `all()` (declaration order),
/// `name()` and a case-insensitive `parse()` for it.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every value, in declaration order.
            pub fn all() -> Vec<$ty> {
                vec![$($ty::$variant),+]
            }

            /// Stable CLI / display name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Parse a CLI name, ignoring ASCII case.
            pub fn parse(s: &str) -> Option<$ty> {
                Self::all()
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(s))
            }
        }
    };
}

pub mod checker;
pub mod cli;
#[cfg(feature = "crashpoint")]
pub mod crash;
pub mod driver;
#[cfg(feature = "sim")]
pub mod explore;
#[cfg(all(feature = "sim", feature = "crashpoint"))]
pub mod explore_wal;
pub mod figures;
pub mod measure;
pub mod oltp;
pub mod registry;
#[cfg(feature = "record")]
pub mod scenario;
#[cfg(feature = "crashpoint")]
pub mod store_e2e;
pub mod timevarying;
pub mod workload;
pub mod zipf;

pub use checker::{check_history, History, Report, Violation};
pub use cli::BenchArgs;
pub use driver::{run_trial, TrialConfig, TrialResult};
pub use figures::{
    default_thread_sweep, print_results, run_sweep, Figure, FigurePoint, FigureSpec,
};
pub use oltp::{run_client, run_clients, serve, OltpSpec, OltpStats, ServedStore};
pub use registry::{run_workload, with_backend, BackendVisitor, RuntimeScale, StructKind, TmKind};
pub use timevarying::{run_time_varying, Interval, TimeVaryingResult};
pub use workload::{KeyDist, OpKind, WorkloadMix, WorkloadSpec};
pub use zipf::Zipf;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::fmt::Debug;

    /// `parse(name(x)) == x` for every value, upper-case input parses too,
    /// names are unique, and an unknown name is rejected.
    fn assert_names<T: Copy + Eq + Debug>(
        all: Vec<T>,
        name: fn(T) -> &'static str,
        parse: fn(&str) -> Option<T>,
    ) {
        let mut seen = HashSet::new();
        for x in all {
            assert_eq!(parse(name(x)), Some(x));
            assert_eq!(parse(&name(x).to_uppercase()), Some(x));
            assert!(seen.insert(name(x)), "duplicate name {}", name(x));
        }
        assert_eq!(parse("no-such-name"), None);
    }

    #[test]
    fn every_name_table_round_trips() {
        use crate::figures::Figure;
        use crate::registry::{StructKind, TmKind};
        assert_names(TmKind::all(), TmKind::name, TmKind::parse);
        assert_names(StructKind::all(), StructKind::name, StructKind::parse);
        assert_names(Figure::all(), Figure::name, Figure::parse);
        #[cfg(feature = "record")]
        {
            use crate::scenario::ScenarioKind;
            assert_names(ScenarioKind::all(), ScenarioKind::name, ScenarioKind::parse);
        }
        #[cfg(feature = "sim")]
        {
            use crate::explore::{BrokenDemo, ExploreScenario};
            assert_names(
                ExploreScenario::all(),
                ExploreScenario::name,
                ExploreScenario::parse,
            );
            assert_names(BrokenDemo::all(), BrokenDemo::name, BrokenDemo::parse);
        }
    }
}
