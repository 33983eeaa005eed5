//! # rannc-faults
//!
//! Deterministic, seeded fault injection for pipeline training.
//!
//! A [`FaultPlan`] is an explicit script of failure events plus a seed
//! driving any probabilistic draws (transient communication errors). The
//! same plan is consumed by two very different executors:
//!
//! * `rannc-pipeline`'s churn campaign simulator, after
//!   [`FaultPlan::to_churn_campaign`] turns its latency faults into a
//!   starting cluster and its device failures into `Leave` events, to
//!   predict goodput and MTTR under failures, and
//! * `rannc-train`'s threaded trainer, which physically kills stage
//!   threads and exercises detection, checkpoint restore, and resume.
//!
//! Because the plan is data (not callbacks) and every random draw comes
//! from a splitmix64 stream derived from the seed, a run under faults is
//! exactly reproducible: same seed, same failures, same recovery — the
//! property the bit-identical recovery tests rely on.

use rannc_hw::{ClusterSpec, SpecError};
use serde::{Deserialize, Serialize};

pub mod churn;

pub use churn::{ClusterEvent, ClusterEventTrace, TimedEvent, TraceError};

/// One scripted failure event. Ranks are *global device ranks* for the
/// simulator and *stage indices* for the threaded trainer — each consumer
/// documents its interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Permanent loss of one device at the start of iteration `at_iter`
    /// (0-based). The device stays dead for the rest of the run.
    DeviceFail {
        /// Failing rank.
        rank: usize,
        /// Iteration at which the failure manifests.
        at_iter: usize,
    },
    /// A persistently slow rank: all its compute takes `slowdown`× the
    /// nominal time (`slowdown >= 1`).
    Straggler {
        /// Straggling rank.
        rank: usize,
        /// Multiplicative compute slowdown, `>= 1`.
        slowdown: f64,
    },
    /// All interconnect bandwidth degraded: transfer times scale by
    /// `1 / factor` (`0 < factor <= 1`, e.g. `0.5` halves bandwidth).
    LinkDegrade {
        /// Remaining fraction of nominal bandwidth.
        factor: f64,
    },
    /// Each communication attempt independently fails with probability
    /// `prob` and must be retried (drawn from the plan's seeded stream).
    TransientCommError {
        /// Per-transfer failure probability in `[0, 1)`.
        prob: f64,
    },
}

/// A deterministic fault schedule: scripted events plus the seed that
/// drives probabilistic draws.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (fault-free run) with a seed for probabilistic events.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder-style event append.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Append an event, validating its parameters.
    pub fn push(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Straggler { slowdown, .. } => {
                assert!(slowdown >= 1.0, "straggler slowdown must be >= 1")
            }
            FaultEvent::LinkDegrade { factor } => {
                assert!(
                    factor > 0.0 && factor <= 1.0,
                    "link degrade factor must be in (0, 1]"
                )
            }
            FaultEvent::TransientCommError { prob } => {
                assert!((0.0..1.0).contains(&prob), "comm error prob in [0, 1)")
            }
            FaultEvent::DeviceFail { .. } => {}
        }
        self.events.push(event);
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All scripted events in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Device failures as `(rank, at_iter)`, ordered by iteration.
    pub fn device_failures(&self) -> Vec<(usize, usize)> {
        let mut fails: Vec<(usize, usize)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::DeviceFail { rank, at_iter } => Some((rank, at_iter)),
                _ => None,
            })
            .collect();
        fails.sort_by_key(|&(rank, at_iter)| (at_iter, rank));
        fails
    }

    /// The first device failure at exactly iteration `iter`, if any.
    pub fn failure_at(&self, iter: usize) -> Option<usize> {
        self.device_failures()
            .into_iter()
            .find(|&(_, at)| at == iter)
            .map(|(rank, _)| rank)
    }

    /// Compute slowdown factor for `rank` (product of its stragglers; 1.0
    /// when the rank is healthy).
    pub fn slowdown_for(&self, rank: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::Straggler { rank: r, slowdown } if r == rank => Some(slowdown),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// Remaining link bandwidth fraction (product of all degrades; 1.0
    /// when links are healthy).
    pub fn link_factor(&self) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegrade { factor } => Some(factor),
                _ => None,
            })
            .product::<f64>()
            .clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Per-transfer failure probability: `1 - Π(1 - prob_i)` over all
    /// transient-error events (independent failure sources compose).
    pub fn comm_error_prob(&self) -> f64 {
        let survive: f64 = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::TransientCommError { prob } => Some(1.0 - prob),
                _ => None,
            })
            .product();
        1.0 - survive
    }

    /// The plan as a churn campaign on `cluster`: the starting cluster
    /// and the event trace the churn simulator plays against it. Ranks
    /// are global device ranks.
    ///
    /// * `Straggler{rank, slowdown}` leaves that device at `1/slowdown`
    ///   of its compute efficiency;
    /// * `LinkDegrade{factor}` and `TransientCommError{prob}` scale every
    ///   link's bandwidth (intra, inter and overrides) by
    ///   `factor·(1−prob)`, the expected-retry stretch;
    /// * `DeviceFail{rank, at_iter}` becomes a `Leave` at `at_iter`, in
    ///   [`device_failures`](Self::device_failures) order.
    ///
    /// Returns [`SpecError::DeviceOutsideCluster`] for a rank beyond
    /// `cluster`'s shape.
    pub fn to_churn_campaign(
        &self,
        cluster: &ClusterSpec,
    ) -> Result<(ClusterSpec, ClusterEventTrace), SpecError> {
        let device = |global: usize| {
            let rank = cluster.rank(global);
            if global < cluster.total_devices() {
                Ok(rank)
            } else {
                Err(SpecError::DeviceOutsideCluster { rank })
            }
        };
        let mut start = cluster.clone();
        for event in &self.events {
            if let FaultEvent::Straggler { rank, slowdown } = *event {
                start = start.with_degraded_device(device(rank)?, 1.0 / slowdown);
            }
        }
        let link_scale = self.link_factor() * (1.0 - self.comm_error_prob());
        start.node.intra_link.bandwidth *= link_scale;
        start.inter_link.bandwidth *= link_scale;
        for o in &mut start.link_overrides {
            o.link.bandwidth *= link_scale;
        }
        let mut trace = ClusterEventTrace::new(self.seed);
        for (rank, at_iter) in self.device_failures() {
            trace.push(
                at_iter,
                ClusterEvent::Leave {
                    rank: device(rank)?,
                },
            );
        }
        Ok((start, trace))
    }

    /// Seeded stream for this plan's probabilistic draws. Consumers must
    /// create it once per run so identical runs see identical draws.
    pub fn rng(&self) -> FaultRng {
        FaultRng::new(self.seed)
    }
}

/// Splitmix64 stream used for transient-fault draws.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeded construction.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_over_mixed_plan() {
        let plan = FaultPlan::new(7)
            .with_event(FaultEvent::DeviceFail {
                rank: 3,
                at_iter: 10,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 1,
                at_iter: 4,
            })
            .with_event(FaultEvent::Straggler {
                rank: 2,
                slowdown: 1.5,
            })
            .with_event(FaultEvent::LinkDegrade { factor: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.1 });

        assert_eq!(plan.device_failures(), vec![(1, 4), (3, 10)]);
        assert_eq!(plan.failure_at(4), Some(1));
        assert_eq!(plan.failure_at(5), None);
        assert_eq!(plan.slowdown_for(2), 1.5);
        assert_eq!(plan.slowdown_for(0), 1.0);
        assert_eq!(plan.link_factor(), 0.5);
        assert!((plan.comm_error_prob() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn comm_error_probs_compose() {
        let plan = FaultPlan::new(0)
            .with_event(FaultEvent::TransientCommError { prob: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.5 });
        assert!((plan.comm_error_prob() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rng_deterministic_per_seed() {
        let plan = FaultPlan::new(42).with_event(FaultEvent::TransientCommError { prob: 0.3 });
        let draws_a: Vec<bool> = {
            let mut r = plan.rng();
            (0..64).map(|_| r.chance(0.3)).collect()
        };
        let draws_b: Vec<bool> = {
            let mut r = plan.rng();
            (0..64).map(|_| r.chance(0.3)).collect()
        };
        assert_eq!(draws_a, draws_b);

        let mut other = FaultPlan::new(43).rng();
        let draws_c: Vec<bool> = (0..64).map(|_| other.chance(0.3)).collect();
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn rejects_speedup_straggler() {
        FaultPlan::new(0).push(FaultEvent::Straggler {
            rank: 0,
            slowdown: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_zero_link_factor() {
        FaultPlan::new(0).push(FaultEvent::LinkDegrade { factor: 0.0 });
    }

    #[test]
    fn churn_campaign_maps_each_fault_kind() {
        use rannc_hw::{DeviceRank, LinkSpec};
        let cluster = ClusterSpec::v100_cluster(2).with_link_override(0, 1, LinkSpec::nvlink());
        let plan = FaultPlan::new(9)
            .with_event(FaultEvent::DeviceFail {
                rank: 12,
                at_iter: 700,
            })
            .with_event(FaultEvent::Straggler {
                rank: 3,
                slowdown: 2.0,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 5,
                at_iter: 700,
            })
            .with_event(FaultEvent::DeviceFail {
                rank: 0,
                at_iter: 40,
            })
            .with_event(FaultEvent::LinkDegrade { factor: 0.5 })
            .with_event(FaultEvent::TransientCommError { prob: 0.2 });
        let (start, trace) = plan.to_churn_campaign(&cluster).unwrap();

        // the straggler is a degraded device of the starting cluster
        let slow = DeviceRank { node: 0, local: 3 };
        assert_eq!(start.device_overrides.len(), 1);
        assert_eq!(
            start.device_at(slow).compute_efficiency,
            cluster.device.compute_efficiency / 2.0
        );
        // every link keeps factor·(1−p) = 0.4 of its bandwidth
        let kept = 0.5 * (1.0 - 0.2);
        assert_eq!(
            start.node.intra_link.bandwidth,
            cluster.node.intra_link.bandwidth * kept
        );
        assert_eq!(
            start.inter_link.bandwidth,
            cluster.inter_link.bandwidth * kept
        );
        assert_eq!(
            start.node_link(0, 1).bandwidth,
            cluster.node_link(0, 1).bandwidth * kept
        );
        assert_eq!(start.lost_devices, cluster.lost_devices);

        // failures become leaves ordered by (iteration, rank)
        assert_eq!(trace.seed(), 9);
        let leaves: Vec<(usize, ClusterEvent)> = trace
            .events()
            .iter()
            .map(|e| (e.at_iter, e.event))
            .collect();
        let leave = |node, local| ClusterEvent::Leave {
            rank: DeviceRank { node, local },
        };
        assert_eq!(
            leaves,
            vec![(40, leave(0, 0)), (700, leave(0, 5)), (700, leave(1, 4))]
        );

        // a fault-free plan is the cluster itself and an empty trace
        let (same, quiet) = FaultPlan::new(1).to_churn_campaign(&cluster).unwrap();
        assert_eq!(same, cluster);
        assert!(quiet.is_empty());

        // ranks beyond the cluster are rejected, not silently dropped
        let outside = FaultPlan::new(0).with_event(FaultEvent::Straggler {
            rank: 16,
            slowdown: 2.0,
        });
        assert!(matches!(
            outside.to_churn_campaign(&cluster),
            Err(SpecError::DeviceOutsideCluster { .. })
        ));
        let outside = FaultPlan::new(0).with_event(FaultEvent::DeviceFail {
            rank: 16,
            at_iter: 1,
        });
        assert!(outside.to_churn_campaign(&cluster).is_err());
    }

    #[test]
    fn empty_plan_is_neutral() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        assert!(plan.device_failures().is_empty());
        assert_eq!(plan.slowdown_for(0), 1.0);
        assert_eq!(plan.link_factor(), 1.0);
        assert_eq!(plan.comm_error_prob(), 0.0);
    }
}
