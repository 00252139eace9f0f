//! [`WorkloadSpec`]: a declarative recipe composing the pattern generators
//! into one benchmark program.

use rudoop_ir::rng::SplitMix64;
use rudoop_ir::{Program, ProgramBuilder, TaintSpec};

use crate::patterns::{self, ProbeCounts};
use crate::stdlib;

/// A benchmark recipe. All counts are knobs of the pattern generators; see
/// [`crate::patterns`] for what each one amplifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Benchmark name (DaCapo-style).
    pub name: String,
    /// RNG seed (workloads are fully deterministic given the spec).
    pub seed: u64,

    /// Hub population size (the paper's fat-points-to source). 0 disables
    /// the hub and both amplifiers.
    pub pool_values: usize,
    /// Classes the hub population is spread over.
    pub pool_value_classes: usize,
    /// Cross-link hub values (gives them fat fields — metric #4 signal).
    pub cross_link: bool,
    /// Reader variables carrying the hub population (hub "popularity",
    /// the metric-#5 signal; Heuristic A's K cutoff is 100).
    pub pool_readers: usize,

    /// Wrapper classes of the object-sensitivity amplifier.
    pub wrapper_classes: usize,
    /// Creator classes (the type-sensitivity knob).
    pub creator_classes: usize,
    /// Creator instances (the object-sensitivity context multiplier).
    pub creator_instances: usize,
    /// Classes whose static methods allocate the creator instances (the
    /// second type-sensitivity multiplier; 0 = allocate in `main`).
    pub allocator_classes: usize,
    /// Wrapper allocation sites per creator class.
    pub wrapper_sites_per_class: usize,
    /// Chained helper calls in `process` (volume per context).
    pub process_steps: usize,
    /// Whether the primary amplifier's wrappers round-trip values through a
    /// state field (fat per-object metrics, catchable by Heuristic B's
    /// cost-product) or stay stateless (diffuse, B-proof).
    pub stateful_wrappers: bool,

    /// Second "deep" amplifier: hub size (0 = disabled). This one is
    /// *concentrated*: its hot methods have points-to volumes above
    /// Heuristic B's cutoff, so IntroB neutralizes it — used to give a
    /// benchmark a type-sensitivity explosion that IntroB still rescues
    /// (the jython 2typeH story) independent of the diffuse amplifier.
    pub deep_pool_values: usize,
    /// Deep amplifier: creator classes (type multiplier 1).
    pub deep_creator_classes: usize,
    /// Deep amplifier: allocator classes (type multiplier 2).
    pub deep_allocator_classes: usize,
    /// Deep amplifier: creator instances.
    pub deep_instances: usize,
    /// Deep amplifier: wrapper sites per creator class.
    pub deep_sites_per_class: usize,
    /// Deep amplifier: chained helper calls (drives volume above B's P).
    pub deep_steps: usize,

    /// Consumers of the static utility chain (call-site amplifier).
    pub util_consumers: usize,
    /// Distributor methods fanning into the consumers.
    pub util_dists: usize,
    /// Utility chain depth.
    pub util_chain: usize,
    /// Local copies per utility level.
    pub util_moves: usize,

    /// Medium hub population (sized between Heuristic A's and B's
    /// thresholds); 0 disables medium probes.
    pub medium_pool: usize,
    /// Precision probes every context flavor resolves.
    pub probes_clean: usize,
    /// Clean probes whose factories live in per-probe classes
    /// (type-sensitivity resolves these too).
    pub probes_type_friendly: usize,
    /// Probes Heuristic A abandons but Heuristic B keeps.
    pub probes_medium: usize,

    /// Listener classes on the megamorphic event bus.
    pub listeners: usize,
    /// Node classes in the visitor-pattern fragment (0 disables).
    pub visitor_nodes: usize,
    /// Visitor classes in the visitor-pattern fragment.
    pub visitor_kinds: usize,
    /// Depth of the decorator/stream chain (0 disables).
    pub stream_depth: usize,
    /// Well-behaved application classes.
    pub app_classes: usize,
    /// Always-failing casts in the application bulk.
    pub app_casts: usize,

    /// Repetitions of the taint-flow battery
    /// ([`patterns::taint_kit`]); 0 (the default) emits nothing, keeping
    /// programs byte-identical to pre-taint builds.
    pub taint_flows: usize,

    /// Threads per shape in the concurrency battery
    /// ([`patterns::concurrency_kit`]): each unit spawns one worker of
    /// every shape (farm, shared counter, guarded cache, lock ladder,
    /// joined writer). 0 (the default) emits nothing, keeping programs
    /// byte-identical to pre-concurrency builds. Deliberately *not*
    /// multiplied by `scale`: thread count is a shape knob — it changes
    /// which races exist, not just volume.
    pub concurrency: usize,

    /// Linear size multiplier. Multiplies the *instance* counts of the
    /// pattern batteries — hub population and readers, utility consumers,
    /// precision probes, listeners, visitor nodes, application classes —
    /// so program volume grows roughly linearly in `scale` without
    /// changing the benchmark's *shape*: the context-explosion
    /// multipliers (creator instances, allocation sites per class, chain
    /// depths) and the threshold-calibrated medium pool are deliberately
    /// left alone, so heuristic classifications survive scaling. `1` (the
    /// default) is the identity: builds are byte-identical to a spec
    /// without the knob. Used to size large programs (50k+ IL
    /// instructions) out of the same recipes.
    pub scale: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "custom".to_owned(),
            seed: 42,
            pool_values: 100,
            pool_value_classes: 4,
            cross_link: true,
            pool_readers: 120,
            wrapper_classes: 2,
            creator_classes: 2,
            creator_instances: 8,
            allocator_classes: 0,
            wrapper_sites_per_class: 8,
            process_steps: 6,
            stateful_wrappers: true,
            deep_pool_values: 0,
            deep_creator_classes: 0,
            deep_allocator_classes: 0,
            deep_instances: 0,
            deep_sites_per_class: 0,
            deep_steps: 0,
            util_consumers: 8,
            util_dists: 4,
            util_chain: 3,
            util_moves: 3,
            medium_pool: 0,
            probes_clean: 10,
            probes_type_friendly: 3,
            probes_medium: 0,
            listeners: 6,
            visitor_nodes: 6,
            visitor_kinds: 3,
            stream_depth: 5,
            app_classes: 20,
            app_casts: 6,
            taint_flows: 0,
            concurrency: 0,
            scale: 1,
        }
    }
}

impl WorkloadSpec {
    /// Builds the benchmark program described by this spec.
    pub fn build(&self) -> Program {
        // Linear knobs grow with `scale`; shape knobs (context
        // multipliers, chain depths, the threshold-sized medium pool) do
        // not. `scale == 1` must stay the identity.
        let s = self.scale.max(1);
        let mut rng = SplitMix64::new(self.seed);
        let mut b = ProgramBuilder::new();
        let std = stdlib::build(&mut b);
        let main_cls = b.class("Main", Some(std.object));
        let main = b.method(main_cls, "main", &[], true);
        b.entry(main);

        if self.pool_values > 0 {
            let pool = patterns::pool(
                &mut b,
                &std,
                main,
                "Hub",
                self.pool_values * s,
                self.pool_value_classes,
                self.cross_link,
                self.pool_readers * s,
                &mut rng,
            );
            if self.creator_instances > 0 && self.wrapper_sites_per_class > 0 {
                patterns::wrapper_amplifier(
                    &mut b,
                    &std,
                    main,
                    "Amp",
                    &pool,
                    self.wrapper_classes,
                    self.creator_classes,
                    self.creator_instances,
                    self.allocator_classes,
                    self.wrapper_sites_per_class,
                    self.process_steps,
                    self.stateful_wrappers,
                    &mut rng,
                );
            }
            if self.util_consumers > 0 && self.util_dists > 0 {
                patterns::util_chain(
                    &mut b,
                    &std,
                    main,
                    "Call",
                    &pool,
                    self.util_consumers * s,
                    self.util_dists,
                    self.util_chain,
                    self.util_moves,
                );
            }
        }

        if self.deep_pool_values > 0 {
            let deep_pool = patterns::pool(
                &mut b,
                &std,
                main,
                "Deep",
                self.deep_pool_values,
                4,
                self.cross_link,
                self.pool_readers,
                &mut rng,
            );
            patterns::wrapper_amplifier(
                &mut b,
                &std,
                main,
                "Deep",
                &deep_pool,
                2,
                self.deep_creator_classes,
                self.deep_instances,
                self.deep_allocator_classes,
                self.deep_sites_per_class,
                self.deep_steps,
                true,
                &mut rng,
            );
        }

        let medium = if self.medium_pool > 0 {
            Some(patterns::pool(
                &mut b,
                &std,
                main,
                "Med",
                self.medium_pool,
                2,
                false, // no cross-linking: must stay under metric-4 cutoffs
                0,
                &mut rng,
            ))
        } else {
            None
        };

        patterns::probes(
            &mut b,
            &std,
            main,
            "Pr",
            self.probes_clean * s,
            self.probes_type_friendly * s,
            self.probes_medium,
            medium.as_ref(),
        );

        if self.listeners > 0 {
            patterns::event_bus(&mut b, &std, main, "Ev", self.listeners * s);
        }
        if self.visitor_nodes > 0 {
            patterns::visitor(
                &mut b,
                &std,
                main,
                "Vis",
                self.visitor_nodes * s,
                self.visitor_kinds,
            );
        }
        if self.stream_depth > 0 {
            patterns::streams(&mut b, &std, main, "St", self.stream_depth);
        }
        if self.app_classes > 0 {
            patterns::app_mass(
                &mut b,
                &std,
                main,
                "App",
                self.app_classes * s,
                self.app_casts,
            );
        }
        if self.taint_flows > 0 {
            patterns::taint_kit(&mut b, &std, main, "Taint", self.taint_flows);
        }
        if self.concurrency > 0 {
            patterns::concurrency_kit(&mut b, &std, main, "Conc", self.concurrency);
        }

        b.finish()
    }

    /// The canonical textual taint spec matching [`patterns::taint_kit`]'s
    /// `Taint` prefix (what [`WorkloadSpec::build`] emits).
    pub const TAINT_SPEC_TEXT: &'static str = "# taint-kit contract\n\
         source TaintKit.source/0\n\
         sanitizer TaintKit.sanitize/1\n\
         sink TaintKit.sink/1 0\n";

    /// The resolved taint spec for a program built from this recipe: empty
    /// when `taint_flows` is 0, the canonical `TaintKit` spec otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `program` was not built by this spec (the references
    /// cannot resolve) — a usage error, not an input condition.
    pub fn taint_spec(&self, program: &Program) -> TaintSpec {
        if self.taint_flows == 0 {
            return TaintSpec::new();
        }
        TaintSpec::parse(Self::TAINT_SPEC_TEXT, program).expect("canonical spec resolves")
    }

    /// The probe tallies this spec emits (for asserting chart shapes),
    /// after `scale` is applied.
    pub fn probe_counts(&self) -> ProbeCounts {
        let s = self.scale.max(1);
        ProbeCounts {
            clean: self.probes_clean * s,
            medium: self.probes_medium,
            type_friendly: self.probes_type_friendly * s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::validate;

    #[test]
    fn default_spec_builds_a_valid_program() {
        let p = WorkloadSpec::default().build();
        assert_eq!(validate(&p), Ok(()));
        assert!(p.instruction_count() > 300);
        assert_eq!(p.entry_points.len(), 1);
    }

    #[test]
    fn build_is_deterministic() {
        let spec = WorkloadSpec::default();
        let p1 = spec.build();
        let p2 = spec.build();
        assert_eq!(rudoop_ir::print_program(&p1), rudoop_ir::print_program(&p2));
    }

    #[test]
    fn zero_pool_disables_amplifiers() {
        let spec = WorkloadSpec {
            pool_values: 0,
            ..WorkloadSpec::default()
        };
        let p = spec.build();
        assert_eq!(validate(&p), Ok(()));
        assert!(!p.classes.values().any(|c| c.name.starts_with("Amp")));
    }

    #[test]
    fn scale_one_is_the_identity() {
        let base = WorkloadSpec::default().build();
        let scaled = WorkloadSpec {
            scale: 1,
            ..WorkloadSpec::default()
        }
        .build();
        assert_eq!(
            rudoop_ir::print_program(&base),
            rudoop_ir::print_program(&scaled)
        );
        // scale: 0 is clamped to the identity too, not an empty program.
        let clamped = WorkloadSpec {
            scale: 0,
            ..WorkloadSpec::default()
        }
        .build();
        assert_eq!(
            rudoop_ir::print_program(&base),
            rudoop_ir::print_program(&clamped)
        );
    }

    #[test]
    fn scale_grows_volume_linearly_without_changing_shape() {
        let base = WorkloadSpec::default();
        let scaled = WorkloadSpec {
            scale: 8,
            ..WorkloadSpec::default()
        };
        let p1 = base.build();
        let p8 = scaled.build();
        assert_eq!(validate(&p8), Ok(()));
        assert!(
            p8.instruction_count() >= 4 * p1.instruction_count(),
            "scale 8: {} vs base {}",
            p8.instruction_count(),
            p1.instruction_count()
        );
        // Shape knobs are untouched: same wrapper/creator class families.
        assert_eq!(scaled.probe_counts().clean, 8 * base.probe_counts().clean);
        assert_eq!(scaled.probe_counts().medium, base.probe_counts().medium);
    }

    #[test]
    fn concurrency_zero_is_the_identity() {
        let base = WorkloadSpec::default().build();
        let off = WorkloadSpec {
            concurrency: 0,
            ..WorkloadSpec::default()
        }
        .build();
        assert_eq!(
            rudoop_ir::print_program(&base),
            rudoop_ir::print_program(&off),
            "concurrency: 0 must be byte-identical to a spec without the knob"
        );
    }

    #[test]
    fn concurrency_grows_volume_linearly_without_changing_shape() {
        let one = WorkloadSpec {
            concurrency: 1,
            ..WorkloadSpec::default()
        }
        .build();
        let eight = WorkloadSpec {
            concurrency: 8,
            ..WorkloadSpec::default()
        }
        .build();
        assert_eq!(validate(&one), Ok(()));
        assert_eq!(validate(&eight), Ok(()));
        assert_eq!(one.spawn_sites().count(), 5, "5 shapes, one thread each");
        assert_eq!(eight.spawn_sites().count(), 40);
        let base = WorkloadSpec::default().build();
        let per_unit_1 = one.instruction_count() - base.instruction_count();
        let per_unit_8 = eight.instruction_count() - base.instruction_count();
        assert!(
            per_unit_8 >= 7 * per_unit_1 / 2,
            "concurrency 8 added {per_unit_8} instrs vs {per_unit_1} for 1"
        );
        // The battery adds workers, not new class families: shape is fixed.
        assert_eq!(
            one.classes
                .values()
                .filter(|c| c.name.starts_with("Conc"))
                .count(),
            eight
                .classes
                .values()
                .filter(|c| c.name.starts_with("Conc"))
                .count()
        );
    }

    #[test]
    fn medium_pool_enables_medium_probes() {
        let spec = WorkloadSpec {
            medium_pool: 40,
            probes_medium: 3,
            ..WorkloadSpec::default()
        };
        let p = spec.build();
        assert_eq!(validate(&p), Ok(()));
        assert!(p.classes.values().any(|c| c.name.starts_with("Med")));
    }
}
