//! Campaigns: long training runs under cluster change and failure.
//!
//! A seeded [`ClusterEventTrace`] of `leave` / `recover` / `degrade` /
//! `join` events plays against a running plan, and a **policy** decides,
//! event by event, whether to pay for a replan now, ride the change out,
//! or permanently degrade in place. The campaign scores each policy on
//! goodput (useful samples per wall second) and MTTR, and emits a
//! deterministic decision log — the same trace and policy always
//! produce the same decisions, so campaigns reproduce from the seed.
//!
//! This is the one campaign engine: a fault script
//! ([`rannc_faults::FaultPlan`]) runs here too, once
//! [`to_churn_campaign`](rannc_faults::FaultPlan::to_churn_campaign) has
//! turned its latency faults into the starting cluster and its device
//! failures into `leave` events. Every policy shares one loss model: a
//! `leave` stops training for detection and restore, and then
//! re-executes the iterations since the last checkpoint at the
//! post-decision iteration time.
//!
//! Pricing is placement-aware: when the evolved cluster is
//! heterogeneous, every stage's simulated time is stretched by the
//! worst [`time_scale`](rannc_hw::DeviceSpec::time_scale_vs) of the
//! devices its contiguous slot group occupies, the same convention the
//! placed DP and the plan verifier use.

use crate::sync::{simulate_sync, SyncSchedule};
use crate::{spec_from_plan, PlanSpecError};
use rannc_core::{PartitionPlan, Rannc};
use rannc_cost::CostModel;
use rannc_faults::{ClusterEvent, ClusterEventTrace};
use rannc_hw::ClusterSpec;
use std::num::NonZeroUsize;

/// How the campaign reacts to each cluster event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPolicy {
    /// Replan on every capacity-changing event (losses *and* gains).
    ReplanAlways,
    /// Never replan; absorb changes expecting them to be transient —
    /// sheds a pipeline replica when a loss forces it, and restores the
    /// shed replica as soon as recoveries make room again.
    RideItOut,
    /// Never replan; accept every loss permanently — shed replicas stay
    /// shed, recovered devices only rejoin the spare pool.
    DegradeInPlace,
    /// Per event, price both options over [`ChurnSimConfig::horizon`]
    /// iterations — ride cost vs. replan downtime + better steady state
    /// — and take the cheaper one.
    Adaptive,
}

/// What the policy did about one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// A new plan was adopted (replan ladder succeeded).
    Replan,
    /// The current plan was kept unchanged.
    Ride,
    /// The current plan was kept but one pipeline replica was shed.
    Shed,
    /// A previously shed replica was restored.
    Restore,
    /// The campaign could not continue.
    Halt,
}

impl ChurnAction {
    /// Lowercase tag for logs and traces.
    pub fn tag(&self) -> &'static str {
        match self {
            ChurnAction::Replan => "replan",
            ChurnAction::Ride => "ride",
            ChurnAction::Shed => "shed",
            ChurnAction::Restore => "restore",
            ChurnAction::Halt => "halt",
        }
    }
}

/// Knobs of a churn campaign.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSimConfig {
    /// Iterations the campaign must complete.
    pub iterations: usize,
    /// A checkpoint is taken every this many iterations (iteration 0
    /// always is); a device loss re-executes the iterations since the
    /// last one.
    pub checkpoint_every: NonZeroUsize,
    /// Wall time from a device leaving to the loss being detected, s.
    pub detect_timeout: f64,
    /// Wall time to restore training state onto the survivors, s.
    pub restore_cost: f64,
    /// Fixed wall time one replan (search + redeploy control plane)
    /// costs, on top of the priced state migration.
    pub replan_cost: f64,
    /// Extra replan-ladder rungs after the warm start (see
    /// [`Rannc::replan_with_backoff`]).
    pub replan_retries: usize,
    /// The policy under test.
    pub policy: ChurnPolicy,
    /// Iterations [`ChurnPolicy::Adaptive`] amortizes a replan over.
    pub horizon: usize,
}

impl Default for ChurnSimConfig {
    fn default() -> Self {
        ChurnSimConfig {
            iterations: 10_000,
            checkpoint_every: NonZeroUsize::new(1000).expect("nonzero"),
            detect_timeout: 5.0,
            restore_cost: 2.0,
            replan_cost: 15.0,
            replan_retries: 2,
            policy: ChurnPolicy::Adaptive,
            horizon: 2_000,
        }
    }
}

/// One entry of the campaign's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnDecision {
    /// Iteration the event struck.
    pub at_iter: usize,
    /// Event kind tag (`leave` / `recover` / `degrade` / `join`).
    pub event: &'static str,
    /// What the policy did.
    pub action: ChurnAction,
    /// Wall-clock seconds of training stopped by the decision, including
    /// the re-execution of `lost_iters`.
    pub downtime: f64,
    /// Per-iteration wall time after the decision, s.
    pub iteration_time: f64,
    /// Replan-ladder attempts consumed (0 when no replan ran).
    pub replan_attempts: usize,
    /// State bytes migrated to adopt a new plan (0 when no replan).
    pub moved_bytes: usize,
    /// Iterations since the last checkpoint that a device loss discarded
    /// (0 for every other event).
    pub lost_iters: usize,
}

/// What a churn campaign reports.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Total wall time, s.
    pub wall_time: f64,
    /// Iterations completed (== the target unless halted).
    pub completed_iterations: usize,
    /// Useful samples per wall second.
    pub goodput: f64,
    /// The full decision log, one entry per consumed event.
    pub decisions: Vec<ChurnDecision>,
    /// Plans adopted during the campaign (each passed verification).
    pub replans: usize,
    /// True when the campaign stopped early.
    pub halted: bool,
}

impl ChurnReport {
    /// Mean time to recovery over decisions that stopped training.
    pub fn mttr(&self) -> f64 {
        let stops: Vec<f64> = self
            .decisions
            .iter()
            .filter(|d| d.downtime > 0.0 && d.downtime.is_finite())
            .map(|d| d.downtime)
            .collect();
        if stops.is_empty() {
            0.0
        } else {
            stops.iter().sum::<f64>() / stops.len() as f64
        }
    }
}

/// Price one iteration of `plan` on (a planning view of) `cluster`,
/// stretching each stage by the worst time scale of its device group.
fn priced_iteration_time(
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    view: &ClusterSpec,
) -> Result<f64, PlanSpecError> {
    let mut spec = spec_from_plan(plan, cost, view)?;
    if view.is_heterogeneous() {
        let precision = cost.options().precision;
        let per_replica = plan.devices_per_replica();
        let mut off = 0usize;
        for (i, st) in plan.stages.iter().enumerate() {
            let width = st.replicas * st.tensor_parallel.max(1);
            let mut worst = 1.0f64;
            for rep in 0..plan.replica_factor {
                for slot in off..off + width {
                    let g = rep * per_replica + slot;
                    if g < view.total_devices() {
                        worst = worst.max(
                            view.device_at_global(g)
                                .time_scale_vs(&view.device, precision),
                        );
                    }
                }
            }
            if worst > 1.0 {
                spec.stages[i].fwd_time *= worst;
                spec.stages[i].bwd_time *= worst;
            }
            off += width;
        }
    }
    Ok(simulate_sync(&spec, SyncSchedule::FillDrain, false)
        .result
        .iteration_time)
}

/// One way to carry on after an event: the plan to run next and what
/// switching to it costs.
struct Next {
    plan: PartitionPlan,
    action: ChurnAction,
    /// Priced per-iteration wall time of `plan`, s.
    iteration_time: f64,
    /// Downtime of adopting `plan` on top of the event's own loss, s.
    downtime: f64,
    /// Replan-ladder attempts consumed.
    attempts: usize,
    /// State bytes migrated to adopt `plan`.
    moved_bytes: usize,
}

/// The ride option: keep `plan` on the evolved cluster, shedding
/// pipeline replicas while it does not fit — or `None` when even one
/// replica no longer fits.
///
/// `planned_replicas` is the replica count the plan's micro-batches were
/// sized for: running the same global batch on fewer replicas stretches
/// the iteration by `planned / current`.
fn ride_option(
    plan: &PartitionPlan,
    planned_replicas: usize,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
) -> Option<Next> {
    let mut plan = plan.clone();
    let mut action = ChurnAction::Ride;
    while cluster.healthy_devices() < plan.total_devices() {
        if plan.replica_factor <= 1 {
            return None;
        }
        plan.replica_factor -= 1;
        action = ChurnAction::Shed;
    }
    let view = cluster.planning_view();
    let mut it = priced_iteration_time(&plan, cost, &view).ok()?;
    if plan.replica_factor < planned_replicas {
        it *= planned_replicas as f64 / plan.replica_factor as f64;
    }
    Some(Next {
        plan,
        action,
        iteration_time: it,
        downtime: 0.0,
        attempts: 0,
        moved_bytes: 0,
    })
}

/// The replan option: run the backoff ladder on the evolved cluster and
/// price the verified plan and its migration.
fn replan_option(
    rannc: &Rannc,
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    cfg: &ChurnSimConfig,
) -> Option<Next> {
    let out = rannc
        .replan_with_backoff(cost.graph(), plan, cluster, cfg.replan_retries)
        .ok()?;
    let view = cluster.planning_view();
    let it = priced_iteration_time(&out.plan, cost, &view).ok()?;
    Some(Next {
        plan: out.plan,
        action: ChurnAction::Replan,
        iteration_time: it,
        downtime: cfg.replan_cost + out.migration.downtime_steps as f64 * it,
        attempts: out.attempts,
        moved_bytes: out.migration.total_bytes(),
    })
}

/// Run a churn campaign: `cfg.iterations` iterations of `plan` on
/// `cluster` while the event trace plays out under `cfg.policy`.
///
/// Deterministic: the same `(plan, cluster, trace, cfg)` always yields
/// the same report and decision log. Every adopted plan went through
/// [`Rannc::replan_with_backoff`] and therefore through the verifier at
/// the partitioner's configured [`VerifyMode`](rannc_core::VerifyMode).
pub fn simulate_churn(
    rannc: &Rannc,
    plan: &PartitionPlan,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    trace: &ClusterEventTrace,
    cfg: &ChurnSimConfig,
) -> Result<ChurnReport, PlanSpecError> {
    let _root = rannc_obs::trace::span("churn.campaign", "churn")
        .arg_i("events", trace.events().len() as i64)
        .arg_i("iterations", cfg.iterations as i64);
    let mut cluster = cluster.clone();
    let mut plan = plan.clone();
    // the replica count the plan's micro-batches were sized for: ride
    // policies stretch shed configurations against it, and RideItOut
    // restores toward it
    let mut planned_replicas = plan.replica_factor;
    let mut iter_time = priced_iteration_time(&plan, cost, &cluster.planning_view())?;

    let mut wall = 0.0f64;
    let mut done = 0usize;
    let mut decisions = Vec::new();
    let mut replans = 0usize;
    let mut halted = false;

    for te in trace.events() {
        let at = te.at_iter.min(cfg.iterations);
        wall += (at - done) as f64 * iter_time;
        done = at;
        if done >= cfg.iterations {
            break;
        }
        let kind = te.event.kind();
        let _span = rannc_obs::trace::span("churn.decision", "churn")
            .arg_i("at_iter", at as i64)
            .arg_i("event", decisions.len() as i64);
        rannc_obs::metrics::counter("churn.events").inc();

        // a loss stops training until detected and restored, and rolls
        // progress back to the last checkpoint; capacity gains and
        // throttles are observed without stopping the run
        let (base_downtime, lost_iters) = if matches!(te.event, ClusterEvent::Leave { .. }) {
            (
                cfg.detect_timeout + cfg.restore_cost,
                at % cfg.checkpoint_every,
            )
        } else {
            (0.0, 0)
        };
        let halt = |downtime: f64, replan_attempts: usize| ChurnDecision {
            at_iter: at,
            event: kind,
            action: ChurnAction::Halt,
            downtime,
            iteration_time: f64::INFINITY,
            replan_attempts,
            moved_bytes: 0,
            lost_iters,
        };

        cluster = match te.event.apply(&cluster) {
            Ok(c) => c,
            Err(_) => {
                // e.g. the last healthy device left: nothing to run on
                decisions.push(halt(cfg.detect_timeout, 0));
                wall += cfg.detect_timeout;
                halted = true;
                break;
            }
        };

        // the chosen way on (None: the campaign halts), and the ladder
        // attempts a halt spent
        let (next, halt_attempts) = match cfg.policy {
            ChurnPolicy::ReplanAlways => match replan_option(rannc, &plan, cost, &cluster, cfg) {
                Some(replan) => (Some(replan), 0),
                // the ladder failed: degrade in place rather than die
                None => {
                    let spent = cfg.replan_retries + 1;
                    let ride = ride_option(&plan, planned_replicas, cost, &cluster);
                    (
                        ride.map(|r| Next {
                            attempts: spent,
                            ..r
                        }),
                        spent,
                    )
                }
            },
            ChurnPolicy::RideItOut | ChurnPolicy::DegradeInPlace => {
                let mut candidate = plan.clone();
                // RideItOut grows back toward the planned replica count
                // as soon as recovered capacity allows; DegradeInPlace
                // keeps sheds permanent
                let restores = cfg.policy == ChurnPolicy::RideItOut;
                if restores {
                    candidate.replica_factor = planned_replicas;
                }
                let ride =
                    ride_option(&candidate, planned_replicas, cost, &cluster).map(|mut r| {
                        if restores && r.plan.replica_factor > plan.replica_factor {
                            r.action = ChurnAction::Restore;
                        }
                        r
                    });
                (ride, 0)
            }
            ChurnPolicy::Adaptive => {
                // both options are always priced; the cheaper one over
                // the horizon wins
                let horizon = cfg.horizon.max(1) as f64;
                let ride = ride_option(&plan, planned_replicas, cost, &cluster);
                let replan = replan_option(rannc, &plan, cost, &cluster, cfg);
                let ride_total = ride
                    .as_ref()
                    .map_or(f64::INFINITY, |r| horizon * r.iteration_time);
                let replan_total = replan
                    .as_ref()
                    .map_or(f64::INFINITY, |r| r.downtime + horizon * r.iteration_time);
                if replan_total < ride_total {
                    (replan, 0)
                } else {
                    (ride, 0)
                }
            }
        };

        let Some(next) = next else {
            decisions.push(halt(base_downtime, halt_attempts));
            wall += base_downtime;
            halted = true;
            break;
        };
        // lost iterations are re-executed at the new speed: wall time,
        // not fresh progress
        let downtime = base_downtime + next.downtime + lost_iters as f64 * next.iteration_time;
        if next.action == ChurnAction::Replan {
            planned_replicas = next.plan.replica_factor;
            replans += 1;
            rannc_obs::metrics::counter("churn.replans").inc();
        }
        decisions.push(ChurnDecision {
            at_iter: at,
            event: kind,
            action: next.action,
            downtime,
            iteration_time: next.iteration_time,
            replan_attempts: next.attempts,
            moved_bytes: next.moved_bytes,
            lost_iters,
        });
        wall += downtime;
        plan = next.plan;
        iter_time = next.iteration_time;
    }

    if !halted {
        wall += (cfg.iterations - done) as f64 * iter_time;
        done = cfg.iterations;
    }
    let goodput = if wall > 0.0 {
        done as f64 * plan.batch_size as f64 / wall
    } else {
        0.0
    };
    let report = ChurnReport {
        wall_time: wall,
        completed_iterations: done,
        goodput,
        decisions,
        replans,
        halted,
    };
    publish_churn_metrics(&report);
    Ok(report)
}

/// Export a churn report to the metrics registry.
fn publish_churn_metrics(report: &ChurnReport) {
    use rannc_obs::metrics;
    metrics::counter("churn.decisions").add(report.decisions.len() as u64);
    let downtime = metrics::histogram("churn.downtime_seconds");
    for d in &report.decisions {
        if d.downtime > 0.0 && d.downtime.is_finite() {
            downtime.observe(d.downtime);
        }
    }
    metrics::gauge("churn.goodput").set(report.goodput);
    metrics::gauge("churn.mttr_seconds").set(report.mttr());
    metrics::gauge("churn.halted").set(if report.halted { 1.0 } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_core::PartitionConfig;
    use rannc_faults::{FaultEvent, FaultPlan};
    use rannc_hw::{DeviceRank, DeviceSpec};
    use rannc_models::{mlp_graph, MlpConfig};
    use rannc_profile::{Profiler, ProfilerOptions};

    fn setup() -> (rannc_graph::TaskGraph, ClusterSpec, Rannc, PartitionPlan) {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(2);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();
        (g, cluster, rannc, plan)
    }

    fn run(policy: ChurnPolicy, trace: &ClusterEventTrace) -> ChurnReport {
        let (g, cluster, rannc, plan) = setup();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let cfg = ChurnSimConfig {
            iterations: 100_000,
            policy,
            horizon: 20_000,
            ..ChurnSimConfig::default()
        };
        simulate_churn(&rannc, &plan, &profiler, &cluster, trace, &cfg).unwrap()
    }

    fn rank(node: usize, local: usize) -> DeviceRank {
        DeviceRank { node, local }
    }

    /// Plan on a clean `nodes`-node cluster, then run `faults` as a
    /// 200k-iteration campaign with a checkpoint every 1000 iterations.
    /// The campaign is long so that recovery overheads do not dominate
    /// the steady-state difference between policies.
    fn run_faults(policy: ChurnPolicy, faults: &FaultPlan, nodes: usize) -> ChurnReport {
        let g = mlp_graph(&MlpConfig::deep(64, 64, 8, 10));
        let cluster = ClusterSpec::v100_cluster(nodes);
        let rannc = Rannc::new(PartitionConfig::new(32).with_k(8));
        let plan = rannc.partition(&g, &cluster).unwrap();
        let profiler = Profiler::new(&g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
        let (start, trace) = faults.to_churn_campaign(&cluster).unwrap();
        let cfg = ChurnSimConfig {
            iterations: 200_000,
            checkpoint_every: NonZeroUsize::new(1000).unwrap(),
            policy,
            ..ChurnSimConfig::default()
        };
        simulate_churn(&rannc, &plan, &profiler, &start, &trace, &cfg).unwrap()
    }

    fn fail_at(at_iter: usize) -> FaultPlan {
        FaultPlan::new(7).with_event(FaultEvent::DeviceFail { rank: 0, at_iter })
    }

    #[test]
    fn quiet_trace_is_a_clean_campaign() {
        let r = run(ChurnPolicy::Adaptive, &ClusterEventTrace::new(1));
        assert!(r.decisions.is_empty());
        assert!(!r.halted);
        assert_eq!(r.completed_iterations, 100_000);
        assert_eq!(r.mttr(), 0.0);
        assert!(r.goodput > 0.0);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cluster = ClusterSpec::v100_cluster(2);
        let trace = ClusterEventTrace::generate(11, 12, &cluster, 5000);
        let a = run(ChurnPolicy::Adaptive, &trace);
        let b = run(ChurnPolicy::Adaptive, &trace);
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.replans, b.replans);
    }

    #[test]
    fn replan_beats_degrade_in_place_under_sustained_loss() {
        // one device lost early in a long campaign: degrade-in-place
        // sheds a whole pipeline replica (idling the rest of its node
        // group), replanning re-spreads the model over the 15 survivors
        let trace =
            ClusterEventTrace::new(0).with_event(1000, ClusterEvent::Leave { rank: rank(1, 0) });
        let degrade = run(ChurnPolicy::DegradeInPlace, &trace);
        let replan = run(ChurnPolicy::ReplanAlways, &trace);
        assert!(!degrade.halted && !replan.halted);
        assert!(
            replan.goodput > degrade.goodput,
            "replan {} must beat degrade-in-place {}",
            replan.goodput,
            degrade.goodput
        );
        assert!(replan.replans >= 1);
        assert!(replan.decisions.iter().any(|d| d.moved_bytes > 0));
    }

    #[test]
    fn ride_it_out_restores_shed_replicas_on_recovery() {
        let mut trace = ClusterEventTrace::new(0);
        // lose a whole node, then get it back
        for local in 0..8 {
            trace.push(
                1000,
                ClusterEvent::Leave {
                    rank: rank(1, local),
                },
            );
        }
        for local in 0..8 {
            trace.push(
                5000,
                ClusterEvent::Recover {
                    rank: rank(1, local),
                },
            );
        }
        let r = run(ChurnPolicy::RideItOut, &trace);
        assert!(!r.halted);
        assert!(r.decisions.iter().any(|d| d.action == ChurnAction::Shed));
        assert!(
            r.decisions.iter().any(|d| d.action == ChurnAction::Restore),
            "recovered capacity must restore the shed replica"
        );
        // back to the original speed once restored
        let last = r.decisions.last().unwrap();
        let first = r.decisions.first().unwrap();
        assert!(last.iteration_time <= first.iteration_time * 1.0001);
    }

    #[test]
    fn degrade_events_slow_ride_campaigns() {
        let trace = ClusterEventTrace::new(0).with_event(
            1000,
            ClusterEvent::Degrade {
                rank: rank(0, 0),
                factor: 0.25,
            },
        );
        let clean = run(ChurnPolicy::DegradeInPlace, &ClusterEventTrace::new(0));
        let throttled = run(ChurnPolicy::DegradeInPlace, &trace);
        assert!(
            throttled.goodput < clean.goodput,
            "a 4x-throttled in-use device must cost goodput: {} vs {}",
            throttled.goodput,
            clean.goodput
        );
    }

    #[test]
    fn generated_campaign_completes_with_decision_log() {
        let cluster = ClusterSpec::v100_cluster(2);
        let trace = ClusterEventTrace::generate(3, 20, &cluster, 4000);
        let r = run(ChurnPolicy::Adaptive, &trace);
        assert!(r.completed_iterations > 0);
        assert!(!r.decisions.is_empty());
        for d in &r.decisions {
            assert!(d.iteration_time > 0.0);
        }
    }

    #[test]
    fn fault_free_campaign_has_no_recoveries() {
        let r = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        assert!(r.decisions.is_empty());
        assert!(!r.halted);
        assert_eq!(r.replans, 0);
        assert_eq!(r.completed_iterations, 200_000);
        assert_eq!(r.mttr(), 0.0);
        assert!(r.goodput > 0.0);
    }

    #[test]
    fn simulation_is_seed_deterministic() {
        let a = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_000), 2);
        let b = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_000), 2);
        assert_eq!(a.wall_time.to_bits(), b.wall_time.to_bits());
        assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());
        assert_eq!(a.mttr().to_bits(), b.mttr().to_bits());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.replans, b.replans);
    }

    #[test]
    fn replan_beats_degrade_on_device_loss() {
        let degrade = run_faults(ChurnPolicy::DegradeInPlace, &fail_at(50_000), 2);
        let replan = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_000), 2);
        assert!(!degrade.halted && !replan.halted);
        assert_eq!(degrade.decisions.len(), 1);
        assert_eq!(degrade.decisions[0].action, ChurnAction::Shed);
        assert_eq!(replan.decisions.len(), 1);
        assert_eq!(replan.decisions[0].action, ChurnAction::Replan);
        assert!(
            replan.goodput > degrade.goodput,
            "replan {} should beat degrade {}",
            replan.goodput,
            degrade.goodput
        );
    }

    #[test]
    fn recovery_accounts_detection_restore_and_replan() {
        let clean = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        let faulted = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_000), 2);
        let d = &faulted.decisions[0];
        assert_eq!((d.at_iter, d.event), (50_000, "leave"));
        assert_eq!(d.action, ChurnAction::Replan);
        assert_eq!(d.lost_iters, 0, "the loss lands on a checkpoint");
        let cfg = ChurnSimConfig::default();
        assert!(d.downtime >= cfg.detect_timeout + cfg.restore_cost + cfg.replan_cost - 1e-9);
        assert!(faulted.wall_time > clean.wall_time);
        assert!(faulted.goodput < clean.goodput);
        assert!(faulted.mttr() >= d.downtime - 1e-9);
    }

    #[test]
    fn lost_work_since_checkpoint_is_paid() {
        let on_ckpt = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_000), 2);
        for policy in [ChurnPolicy::ReplanAlways, ChurnPolicy::DegradeInPlace] {
            let mid = run_faults(policy, &fail_at(50_700), 2);
            let d = &mid.decisions[0];
            assert_eq!(d.lost_iters, 700, "{policy:?}");
            // the rework runs at the post-decision speed, on top of the stop
            let cfg = ChurnSimConfig::default();
            assert!(d.downtime >= cfg.detect_timeout + cfg.restore_cost + 700.0 * d.iteration_time);
        }
        let mid = run_faults(ChurnPolicy::ReplanAlways, &fail_at(50_700), 2);
        assert!(mid.mttr() > on_ckpt.mttr());
    }

    #[test]
    fn degrade_without_redundancy_halts() {
        // a single node: losing every device one by one exhausts the
        // pipeline replicas a degrade-only run can shed
        let mut faults = FaultPlan::new(3);
        for rank in 0..8 {
            faults.push(FaultEvent::DeviceFail {
                rank,
                at_iter: 20 * (rank + 1),
            });
        }
        let r = run_faults(ChurnPolicy::DegradeInPlace, &faults, 1);
        assert!(r.halted, "losing every device must halt a degrade-only run");
        assert_eq!(r.decisions.last().unwrap().action, ChurnAction::Halt);
        assert!(r.completed_iterations < 200_000);
    }

    #[test]
    fn latency_faults_slow_the_campaign_without_decisions() {
        let clean = run_faults(ChurnPolicy::ReplanAlways, &FaultPlan::new(1), 2);
        for event in [
            FaultEvent::Straggler {
                rank: 0,
                slowdown: 3.0,
            },
            FaultEvent::LinkDegrade { factor: 0.25 },
            FaultEvent::TransientCommError { prob: 0.2 },
        ] {
            let slow = run_faults(
                ChurnPolicy::ReplanAlways,
                &FaultPlan::new(9).with_event(event),
                2,
            );
            assert!(slow.decisions.is_empty(), "{event:?}");
            assert!(!slow.halted);
            assert!(
                slow.goodput < clean.goodput,
                "{event:?} must cost goodput: {} vs {}",
                slow.goodput,
                clean.goodput
            );
        }
    }
}
