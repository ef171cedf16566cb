//! MPI-IO hints, mirroring the ROMIO `cb_*` info keys the paper tunes.

pub use cc_compress::{Compression, ErrorBound};

/// How the covered file range is partitioned into aggregator file domains.
///
/// Mirrors ROMIO's Lustre driver: plain even splitting, stripe-aligned
/// even splitting, and Liao/Choudhary group-cyclic partitioning where each
/// aggregator owns whole stripe-sets from a disjoint subset of OSTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainPartition {
    /// Even contiguous split of the covered range (generic ROMIO).
    #[default]
    Even,
    /// Even contiguous split with domain boundaries aligned to
    /// `lcm(align_domains_to, stripe_size)`, so no domain splits a stripe.
    /// Falls back to [`Even`](Self::Even) when striping is unknown.
    StripeAligned,
    /// Group-cyclic (Liao/Choudhary-style, Lustre-aware ROMIO): the file is
    /// viewed as periods of `stripe_count × stripe_size` bytes anchored at
    /// offset 0, and each aggregator owns the stripes of a disjoint subset
    /// of OSTs in every period — so each OST is served by (ideally) one
    /// aggregator. Requires known striping with the stripe size a multiple
    /// of the planner's alignment; otherwise falls back to
    /// [`StripeAligned`](Self::StripeAligned).
    GroupCyclic,
}

/// How many collective-buffer slots each aggregator cycles through — the
/// depth of the software pipeline across collective-buffer iterations.
///
/// The engines stage every iteration through a buffer slot; with `d`
/// slots, iteration `i`'s read may not begin until iteration `i - d` has
/// fully drained its slot (shuffled, mapped, or written it out). Depth 1
/// is therefore strictly sequential — read, drain, repeat, exactly the
/// blocking two-phase protocol — and depth 2 is the classic double
/// buffer: the read of `i + 1` overlaps the drain of `i`. See
/// [`crate::pipeline`] for the loop that applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineDepth {
    /// One buffer: each iteration's read waits for the previous iteration
    /// to drain — the blocking two-phase protocol.
    Sequential,
    /// A bounded ring of `n >= 2` buffers (2 = double buffering).
    Depth(usize),
    /// Unlimited staging buffers: reads are gated only by the I/O lane.
    /// The historical engine behavior, and the default.
    #[default]
    Unbounded,
}

impl PipelineDepth {
    /// The classic double buffer.
    pub fn double() -> Self {
        Self::Depth(2)
    }

    /// The ring size this depth imposes, or `None` for unbounded staging.
    pub fn bound(&self) -> Option<usize> {
        match self {
            Self::Sequential => Some(1),
            Self::Depth(n) => Some(*n),
            Self::Unbounded => None,
        }
    }

    /// Validates the invariant that a bounded ring holds at least two
    /// buffers (one buffer *is* [`Sequential`](Self::Sequential)).
    ///
    /// # Panics
    /// Panics on `Depth(0)` or `Depth(1)`.
    pub fn validate(&self) {
        if let Self::Depth(n) = self {
            assert!(
                *n >= 2,
                "PipelineDepth::Depth needs at least two buffers (got {n}); \
                 use PipelineDepth::Sequential for a single buffer"
            );
        }
    }
}

/// File striping as carried by MPI-IO hints (ROMIO's `striping_unit` /
/// `striping_factor` info keys). Engines inject this from the open file's
/// layout before planning, so stripe-aware partition strategies — and the
/// plan-cache key — see the striping without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Striping {
    /// Stripe size in bytes (`striping_unit`).
    pub unit: u64,
    /// Number of OSTs the file round-robins over (`striping_factor`).
    pub factor: usize,
}

impl Striping {
    /// One full round-robin period: `factor × unit` bytes.
    pub fn period(&self) -> u64 {
        self.unit * self.factor as u64
    }
}

impl From<&cc_pfs::StripeLayout> for Striping {
    fn from(layout: &cc_pfs::StripeLayout) -> Self {
        Self {
            unit: layout.stripe_size,
            factor: layout.stripe_count(),
        }
    }
}

/// Tuning knobs of the two-phase engine.
///
/// `Eq`/`Hash` let hints participate in plan-cache keys
/// (`cc_mpiio::schedule::PlanCache`): any hint change must miss the cache,
/// since every field affects the compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hints {
    /// Collective buffer size per aggregator per iteration
    /// (`cb_buffer_size`; ROMIO default 4 MiB — the value profiled in the
    /// paper's Fig. 1 and swept in Fig. 12).
    pub cb_buffer_size: u64,
    /// Aggregators per node (`cb_config_list`-style placement).
    pub aggregators_per_node: usize,
    /// Align file-domain boundaries to stripe boundaries (ROMIO's
    /// `striping_unit`-aware partitioning).
    pub align_domains_to: Option<u64>,
    /// File-domain partition strategy (see [`DomainPartition`]).
    pub domain_partition: DomainPartition,
    /// File striping, when known (`striping_unit`/`striping_factor`).
    /// Engines inject this from the open file's layout; stripe-aware
    /// strategies degrade gracefully when it is `None`.
    pub striping: Option<Striping>,
    /// Software-pipeline depth across collective-buffer iterations (see
    /// [`PipelineDepth`]): `Sequential` is blocking collective I/O, deeper
    /// rings overlap the drain of iteration `i` with the read of `i + 1`
    /// (the paper's default "non-blocking" collective I/O).
    pub pipeline_depth: PipelineDepth,
    /// How shuffle payloads and coalesced frames that cross a node
    /// boundary are compressed (see [`Compression`]). Intra-node traffic
    /// always stays raw — the inter-node links and the PFS are where the
    /// bytes are expensive. `Off` (the default) keeps every engine on its
    /// original unframed path, bit- and clock-identical to the seed.
    pub compression: Compression,
}

impl Default for Hints {
    fn default() -> Self {
        Self {
            cb_buffer_size: 4 << 20,
            aggregators_per_node: 1,
            align_domains_to: None,
            domain_partition: DomainPartition::Even,
            striping: None,
            pipeline_depth: PipelineDepth::Unbounded,
            compression: Compression::Off,
        }
    }
}

impl Hints {
    /// Validates invariants (positive buffer, positive aggregator count).
    ///
    /// # Panics
    /// Panics on a zero buffer size or zero aggregators per node.
    pub fn validate(&self) {
        assert!(self.cb_buffer_size > 0, "cb_buffer_size must be positive");
        assert!(
            self.aggregators_per_node > 0,
            "need at least one aggregator per node"
        );
        if let Some(a) = self.align_domains_to {
            assert!(a > 0, "alignment must be positive");
        }
        if let Some(s) = self.striping {
            assert!(s.unit > 0, "striping unit must be positive");
            assert!(s.factor > 0, "striping factor must be positive");
        }
        self.pipeline_depth.validate();
        if let Compression::ErrorBounded(b) = self.compression {
            assert!(
                b.abs > 0.0 || b.rel > 0.0,
                "error-bounded compression needs a positive bound"
            );
        }
    }

    /// The partition strategy the planner *actually* applies after its
    /// fallback chain: stripe-aware strategies degrade to even splitting
    /// without striping, and group-cyclic degrades to stripe-aligned-even
    /// when the stripe size is not a multiple of the alignment (a
    /// group-cyclic chunk would split an alignment unit). Mirrors
    /// `CollectivePlan::domains_for` and must stay in lockstep with it —
    /// the plan cache's translation gate keys off the effective strategy.
    pub fn effective_partition(&self) -> DomainPartition {
        let align = self.align_domains_to.unwrap_or(1);
        match (self.domain_partition, self.striping) {
            (_, None) => DomainPartition::Even,
            (DomainPartition::GroupCyclic, Some(s)) if s.unit % align != 0 => {
                DomainPartition::StripeAligned
            }
            (p, Some(_)) => p,
        }
    }

    /// The period under which the partition is translation-equivariant:
    /// shifting every request by a multiple of this value shifts the
    /// compiled schedule rigidly, which is what lets the plan cache reuse
    /// a schedule for a translated request set. Even domains repeat at the
    /// alignment; stripe-aligned at `lcm(align, stripe)`; group-cyclic at
    /// `lcm(align, stripe_count × stripe)` (the full round-robin period).
    /// Computed from the [*effective*](Self::effective_partition) strategy:
    /// when group-cyclic falls back to stripe-aligned-even (stripe not a
    /// multiple of the alignment, e.g. stripe 10 with alignment 4), the
    /// partition repeats at `lcm(align, stripe)` already — gating on the
    /// full round-robin period would reject translatable shifts, and
    /// gating on a period the fallback does not honor would corrupt
    /// translated schedules.
    pub fn translation_period(&self) -> u64 {
        let align = self.align_domains_to.unwrap_or(1);
        match (self.effective_partition(), self.striping) {
            (DomainPartition::Even, _) | (_, None) => align,
            (DomainPartition::StripeAligned, Some(s)) => lcm(align, s.unit),
            (DomainPartition::GroupCyclic, Some(s)) => lcm(align, s.period()),
        }
    }

    /// These hints for a file laid out as `layout`. Striping travels as a
    /// hint (ROMIO's `striping_unit`/`striping_factor`): every rank injects
    /// it from the shared file handle, so the value is symmetric and
    /// stripe-aware partition strategies — and the plan-cache key — see it
    /// without separate plumbing.
    pub fn striped_as(mut self, layout: &cc_pfs::StripeLayout) -> Self {
        self.striping = Some(Striping::from(layout));
        self
    }

    /// These hints for a variable of `esize`-byte elements: the collective
    /// buffer rounds up to whole elements and domain boundaries align to
    /// `lcm(align_domains_to, esize)`, so no chunk or file domain splits an
    /// element and the logical map can always reconstruct it.
    pub fn element_aligned(mut self, esize: u64) -> Self {
        self.cb_buffer_size = self.cb_buffer_size.max(esize).div_ceil(esize) * esize;
        self.align_domains_to = Some(lcm(self.align_domains_to.unwrap_or(1).max(1), esize));
        self
    }
}

/// Greatest common divisor.
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (panics on zero operands via division).
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_romio() {
        let h = Hints::default();
        assert_eq!(h.cb_buffer_size, 4 << 20);
        assert_eq!(h.pipeline_depth, PipelineDepth::Unbounded);
        h.validate();
    }

    #[test]
    fn element_alignment_rounds_buffer_and_domains() {
        let h = |cb, align| {
            Hints {
                cb_buffer_size: cb,
                align_domains_to: align,
                ..Hints::default()
            }
            .element_aligned(4)
        };
        assert_eq!(h(7, None).cb_buffer_size, 8);
        assert_eq!(h(8, None).cb_buffer_size, 8);
        // A buffer smaller than one element still holds one.
        assert_eq!(h(1, None).cb_buffer_size, 4);
        assert_eq!(h(8, None).align_domains_to, Some(4));
        assert_eq!(h(8, Some(6)).align_domains_to, Some(12));
        assert_eq!(h(8, Some(8)).align_domains_to, Some(8));
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        Hints {
            cb_buffer_size: 0,
            ..Hints::default()
        }
        .validate();
    }

    #[test]
    fn translation_period_per_strategy() {
        let striped = Some(Striping { unit: 64, factor: 4 });
        let h = |p, s, a| Hints {
            domain_partition: p,
            striping: s,
            align_domains_to: a,
            ..Hints::default()
        };
        assert_eq!(h(DomainPartition::Even, striped, Some(48)).translation_period(), 48);
        assert_eq!(h(DomainPartition::StripeAligned, None, Some(48)).translation_period(), 48);
        // lcm(48, 64) = 192.
        assert_eq!(
            h(DomainPartition::StripeAligned, striped, Some(48)).translation_period(),
            192
        );
        // Stripe 64 is not a multiple of alignment 48, so group-cyclic
        // falls back to stripe-aligned-even: the effective period is
        // lcm(48, 64) = 192, not the full round-robin lcm(48, 256) = 768.
        assert_eq!(
            h(DomainPartition::GroupCyclic, striped, Some(48)).translation_period(),
            192
        );
        // Aligned stripe (64 % 16 == 0): genuine group-cyclic, full period.
        assert_eq!(
            h(DomainPartition::GroupCyclic, striped, Some(16)).translation_period(),
            256
        );
        assert_eq!(h(DomainPartition::GroupCyclic, striped, None).translation_period(), 256);
    }

    #[test]
    fn effective_partition_tracks_planner_fallbacks() {
        let striped = Some(Striping { unit: 10, factor: 4 });
        let h = |p, s, a| Hints {
            domain_partition: p,
            striping: s,
            align_domains_to: a,
            ..Hints::default()
        };
        // No striping: everything degrades to even.
        for p in [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ] {
            assert_eq!(h(p, None, Some(4)).effective_partition(), DomainPartition::Even);
        }
        // Stripe 10 with alignment 4 (the plan.rs fallback case): the
        // planner degrades group-cyclic to stripe-aligned-even, and the
        // translation period follows — lcm(4, 10) = 20, not lcm(4, 40).
        let fallback = h(DomainPartition::GroupCyclic, striped, Some(4));
        assert_eq!(fallback.effective_partition(), DomainPartition::StripeAligned);
        assert_eq!(fallback.translation_period(), 20);
        // Aligned stripe: group-cyclic stands, full round-robin period.
        let aligned = h(DomainPartition::GroupCyclic, striped, Some(2));
        assert_eq!(aligned.effective_partition(), DomainPartition::GroupCyclic);
        assert_eq!(aligned.translation_period(), 40);
    }

    #[test]
    fn pipeline_depth_bounds_and_validation() {
        assert_eq!(PipelineDepth::Sequential.bound(), Some(1));
        assert_eq!(PipelineDepth::double(), PipelineDepth::Depth(2));
        assert_eq!(PipelineDepth::Depth(3).bound(), Some(3));
        assert_eq!(PipelineDepth::Unbounded.bound(), None);
        assert_eq!(PipelineDepth::default(), PipelineDepth::Unbounded);
        Hints {
            pipeline_depth: PipelineDepth::Depth(2),
            ..Hints::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn single_buffer_depth_rejected() {
        PipelineDepth::Depth(1).validate();
    }

    #[test]
    fn striping_from_layout() {
        let layout = cc_pfs::StripeLayout::round_robin(128, 3, 0, 8);
        let s = Striping::from(&layout);
        assert_eq!((s.unit, s.factor, s.period()), (128, 3, 384));
    }
}
