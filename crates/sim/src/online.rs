//! Online (prediction-driven) simulation with persistent caches and
//! failure-aware serving.
//!
//! The offline [`Runner`](crate::Runner) lets a scheme see the slot's
//! realized demand before placing content — fine for comparing schedulers
//! (every scheme gets the same oracle), but not how a deployment works.
//! The paper's model (§III) is: learn popularity with a predictor, place
//! content *before* the slot, then serve what actually arrives. This
//! module implements that loop:
//!
//! 1. a [`PopularityPredictor`] forecasts the slot's per-hotspot demand
//!    from history;
//! 2. the scheme plans cache placements against the *forecast*;
//! 3. the slot's real requests are routed greedily against the fixed
//!    placement (nearest-first, then radius neighbours holding the video,
//!    then the CDN server);
//! 4. caches persist across slots: the replication cost charged to a slot
//!    is only the **delta** — videos newly pushed into a cache this slot
//!    (the CDN does not re-push what a hotspot already holds).
//!
//! With a [`FailureModel`] attached ([`OnlineRunner::with_failures`]) the
//! loop gains the planning/serving information gap of a real deployment:
//!
//! - **planning sees stale liveness** — the scheme plans slot `t` with
//!   the liveness mask of slot `t − 1` (capacity it believes exists),
//!   because a controller cannot know who will fail *during* the slot;
//! - **serving sees the truth** — requests are routed against the slot's
//!   realized mask: an offline hotspot serves nothing and its cached
//!   content is unreachable;
//! - **failover routing** — a request whose planned server is down is
//!   redirected to the nearest alive radius-neighbour caching the video,
//!   else to the CDN; the per-slot [`failed_over`](OnlineSlotOutcome) and
//!   [`orphaned`](OnlineSlotOutcome) counters tally both outcomes;
//! - **cache wipe** — an offline hotspot loses its cache; when it comes
//!   back the scheme's next placement is charged in full as delta
//!   replication (the re-push is real traffic).
//!
//! # Chaos plane
//!
//! [`OnlineRunner::with_chaos`] attaches a deterministic [`Injector`]
//! (usually a seeded [`FaultPlan`](ccdn_chaos::FaultPlan)) in place of
//! the default one, which fires no faults, and threads its faults
//! through the loop:
//!
//! - **crash/restart** — the hotspot serves nothing this slot but keeps
//!   its cache (no wipe, unlike a `FailureModel` offline transition);
//! - **partition** — the hotspot serves viewers, but replication pushes
//!   cannot reach it; blocked pushes are retried with bounded
//!   exponential [`Backoff`] in *simulated* slots;
//! - **slow peer** — the hotspot's service capacity is scaled down for
//!   the slot (the planner does not know);
//! - **push loss** — a charged push never arrives; retried like a
//!   blocked one. A push whose retry budget runs out is abandoned: the
//!   controller believes the video is cached, so the gap persists until
//!   the next wipe or plan change (visible as lost serving, by design);
//! - **corruption** — a cached entry turns invalid, cannot serve this
//!   slot, and is re-fetched starting next slot;
//! - **planner overrun** — the slot's plan misses its deadline. The
//!   naive controller applies the missing plan as *empty* (caches
//!   flush — the serving cliff). With
//!   [`ChaosOptions::with_degraded_mode`] the runner instead keeps the
//!   previous slot's placements and greedily patches (Nearest-style)
//!   only the hotspots whose forecast demand shifted beyond a
//!   threshold, within an optional replication budget.
//!
//! Every run takes one fault path. Each slot is one sequential step:
//! plan, then realize the slot's faults (the failure model's offline
//! mask, then crashes and slow peers), then replay replication once. The
//! replay keeps one row per hotspot, sorted by video: its videos are
//! what the controller believes is cached (every push assumed landed;
//! degraded patches are priced against them), and each video's push
//! state says whether its copy landed, waits for a retry, or was
//! abandoned. Serving is routed against the landed copies, and every
//! transmitted push is charged.
//!
//! Runnable examples live on [`OnlineRunner`].

use crate::rows::{merge_join, FlatRows, Joined};
use crate::{
    FailureModel, HotspotGeometry, MetricsTotals, PopularityPredictor, Scheme, SimConfigError,
    SlotDecision, SlotDemand, SlotInput, SlotMetrics, Target, ValidationError, VideoDemand,
    COLLABORATION_RADIUS_KM,
};
use ccdn_chaos::{Backoff, Injector};
use ccdn_obs::{Counter, Histogram};
use ccdn_par::Threads;
use ccdn_trace::{Trace, VideoId};

/// Cache wipes applied to offline hotspots during the replication replay.
static CACHE_WIPES: Counter = Counter::new("sim.online.cache_wipes");
/// Delta replication charged across all slots (videos newly pushed).
static REPLICA_DELTA: Counter = Counter::new("sim.online.replica_delta");
/// Per disrupted `(hotspot, video)` batch: how many alive hotspots the
/// failover chain ended up using (0 = everything fell to the CDN).
static FAILOVER_CHAIN_DEPTH: Histogram = Histogram::new("sim.online.failover_chain_depth");
/// Requests sent to the CDN because the failover chain hit its deadline
/// budget while closer options remained untried.
static ORIGIN_SPILLED: Counter = Counter::new("sim.online.origin_spilled");
/// Slots served in degraded mode (previous plan + greedy patch).
static DEGRADED_SLOTS: Counter = Counter::new("sim.online.degraded_slots");
/// Total fault events the chaos injector fired, all families combined.
static FAULTS_INJECTED: Counter = Counter::new("sim.online.chaos.faults_injected");
/// Crash/restart fault events (hotspot-slots).
static CHAOS_CRASHES: Counter = Counter::new("sim.online.chaos.crashes");
/// Partition fault events (hotspot-slots with pushes blocked).
static CHAOS_PARTITIONS: Counter = Counter::new("sim.online.chaos.partitions");
/// Slow-peer fault events (hotspot-slots at reduced capacity).
static CHAOS_SLOW_SLOTS: Counter = Counter::new("sim.online.chaos.slow_slots");
/// Cache entries invalidated by corruption.
static CHAOS_CORRUPTIONS: Counter = Counter::new("sim.online.chaos.corruptions");
/// Replication pushes charged but lost in flight.
static CHAOS_PUSH_LOSSES: Counter = Counter::new("sim.online.chaos.push_losses");
/// Planner-deadline overruns.
static CHAOS_OVERRUNS: Counter = Counter::new("sim.online.chaos.overruns");
/// Replication-push retry attempts.
static CHAOS_RETRIES: Counter = Counter::new("sim.online.chaos.retries");
/// Simulated slots spent waiting in backoff across all retries.
static CHAOS_BACKOFF_SLOTS: Counter = Counter::new("sim.online.chaos.backoff_slots");
/// Pushes abandoned after the retry budget ran out.
static CHAOS_ABANDONED: Counter = Counter::new("sim.online.chaos.abandoned_pushes");

/// Outcome of one online slot.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSlotOutcome {
    /// The timeslot index.
    pub slot: u32,
    /// Validated metrics; `replicas` holds the **delta** replication
    /// (videos newly pushed this slot).
    pub metrics: SlotMetrics,
    /// Forecast accuracy: total absolute error of per-(hotspot, video)
    /// predicted counts vs realized, normalized by realized volume
    /// (0 = perfect, larger = worse; 2.0 would mean everything was both
    /// missed and hallucinated).
    pub forecast_error: f64,
    /// Hotspots that served nothing this slot: offline in the failure
    /// model's realized mask, or crashed by the chaos injector.
    pub offline_hotspots: u32,
    /// Requests whose planned server was offline but that an alive
    /// neighbour caching the video still served.
    pub failed_over: u64,
    /// Requests whose planned server was offline and that fell through
    /// to the CDN (no alive cacher with capacity in radius).
    pub orphaned: u64,
    /// Requests whose planned server was offline, total: always exactly
    /// `failed_over + orphaned` (checked by
    /// [`check_slot_outcome`](crate::validate::check_slot_outcome)).
    pub disrupted: u64,
    /// Requests sent to the CDN because the failover chain hit its
    /// deadline budget while closer options remained untried.
    pub origin_spilled: u64,
    /// Whether this slot was served in degraded mode (planner overran
    /// and the previous plan was reused).
    pub degraded: bool,
}

/// Report of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineReport {
    /// Scheme name.
    pub scheme: String,
    /// Predictor name (`"oracle"` for [`OnlineRunner::run_with_oracle`]).
    pub predictor: String,
    /// Per-slot outcomes.
    pub slots: Vec<OnlineSlotOutcome>,
    /// Request-weighted totals (replication is delta-based).
    pub total: MetricsTotals,
    /// Total failed-over requests across slots.
    pub failed_over: u64,
    /// Total orphaned requests across slots.
    pub orphaned: u64,
    /// Total disrupted requests across slots (`failed_over + orphaned`).
    pub disrupted: u64,
    /// Total requests spilled to the CDN by the deadline budget.
    pub origin_spilled: u64,
    /// Slots served in degraded mode.
    pub degraded_slots: u64,
}

/// Failover tallies of one routed slot (see [`route_with_failover`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailoverStats {
    /// Requests rescued by an alive neighbour after their planned server
    /// went down.
    pub failed_over: u64,
    /// Requests that fell through to the CDN after their planned server
    /// went down.
    pub orphaned: u64,
    /// Requests whose planned server went down, total. Every disrupted
    /// request is either rescued or orphaned, so this always equals
    /// `failed_over + orphaned`.
    pub disrupted: u64,
    /// Requests sent to the CDN because the chain-depth budget ran out
    /// while untried neighbours remained (see
    /// [`ChaosOptions::with_chain_budget`]).
    pub origin_spilled: u64,
}

/// Chaos-plane configuration for an [`OnlineRunner`]: which faults to
/// inject and how the serving path degrades under them.
///
/// # Examples
///
/// ```
/// use ccdn_chaos::{Backoff, ChaosConfig, FaultPlan};
/// use ccdn_sim::ChaosOptions;
///
/// let plan = FaultPlan::new(ChaosConfig::at_intensity(7, 0.4).unwrap()).unwrap();
/// let chaos = ChaosOptions::new(plan)
///     .with_backoff(Backoff::new(1, 4))
///     .with_degraded_mode()
///     .with_chain_budget(4);
/// assert_eq!(chaos.backoff(), Backoff::new(1, 4));
/// ```
#[derive(Debug)]
pub struct ChaosOptions {
    injector: Box<dyn Injector>,
    backoff: Backoff,
    degraded_mode: bool,
    chain_budget: Option<u64>,
    patch_threshold: f64,
    patch_budget: Option<u64>,
}

impl ChaosOptions {
    /// Wraps `injector` with the default degradation posture: default
    /// [`Backoff`], no degraded mode, no chain budget, patch threshold
    /// 0.5, unlimited patch budget.
    pub fn new(injector: impl Injector + 'static) -> Self {
        ChaosOptions {
            injector: Box::new(injector),
            backoff: Backoff::default(),
            degraded_mode: false,
            chain_budget: None,
            patch_threshold: 0.5,
            patch_budget: None,
        }
    }

    /// Sets the retry schedule for blocked or lost replication pushes.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Enables degraded mode: a planner overrun reuses the previous
    /// slot's placements (greedily patched) instead of flushing caches.
    pub fn with_degraded_mode(mut self) -> Self {
        self.degraded_mode = true;
        self
    }

    /// Caps the failover chain depth per request batch: the number of
    /// servers a `(hotspot, video)` batch may consult, the local hotspot
    /// included. When the budget runs out with demand left and
    /// neighbours untried, the rest goes to the CDN and is tallied as
    /// `origin_spilled`.
    pub fn with_chain_budget(mut self, budget: u64) -> Self {
        self.chain_budget = Some(budget);
        self
    }

    /// Sets the demand-shift ratio above which a degraded slot re-plans
    /// a hotspot instead of keeping its previous placement.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ThresholdOutOfRange`] if `threshold` is
    /// negative or non-finite.
    pub fn with_patch_threshold(mut self, threshold: f64) -> Result<Self, SimConfigError> {
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(SimConfigError::ThresholdOutOfRange {
                name: "patch_threshold",
                value: threshold,
            });
        }
        self.patch_threshold = threshold;
        Ok(self)
    }

    /// Caps the *extra* believed replication pushes a degraded slot's
    /// greedy patches may add over keeping the previous plan — the
    /// `B_peak`-style budget degraded plans must respect. Patches are
    /// applied most-shifted-hotspot first until the budget runs out.
    pub fn with_patch_budget(mut self, budget: u64) -> Self {
        self.patch_budget = Some(budget);
        self
    }

    /// The configured retry schedule (exposed so experiments can bound
    /// recovery horizons).
    pub fn backoff(&self) -> Backoff {
        self.backoff
    }
}

/// The injector of a runner without [`OnlineRunner::with_chaos`]: every
/// injection point keeps its "no fault" default.
#[derive(Debug)]
struct NoFaults;

impl Injector for NoFaults {}

/// Drives the predict → place → route loop over a trace.
///
/// # Examples
///
/// ```
/// use ccdn_sim::{Ewma, FailureModel, OnlineRunner, Scheme, SlotDecision, SlotInput, Target};
/// use ccdn_trace::TraceConfig;
///
/// /// Caches each hotspot's most demanded videos (toy placement policy).
/// struct TopLocal;
///
/// impl Scheme for TopLocal {
///     fn name(&self) -> &'static str {
///         "top-local"
///     }
///
///     fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
///         let mut d = SlotDecision::new(input.hotspot_count());
///         for h in 0..input.hotspot_count() {
///             let hid = ccdn_trace::HotspotId(h);
///             let mut vids: Vec<_> = input.demand.videos(hid).to_vec();
///             vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
///             for vd in vids.into_iter().take(input.cache_capacity[h] as usize) {
///                 d.place(hid, vd.video);
///             }
///             for vd in input.demand.videos(hid) {
///                 d.assign(hid, vd.video, Target::Cdn, vd.count);
///             }
///         }
///         d
///     }
/// }
///
/// let trace = TraceConfig::small_test().generate();
/// let report = OnlineRunner::new(&trace)
///     .with_failures(FailureModel::markov(8.0, 2.0, 42).unwrap())
///     .run(&mut TopLocal, &mut Ewma::new(0.5))
///     .unwrap();
/// assert_eq!(report.total.sums.total_requests, trace.requests.len() as u64);
/// // Failure injection produces some disruption over a whole trace.
/// assert!(report.slots.iter().any(|s| s.offline_hotspots > 0));
/// ```
#[derive(Debug)]
pub struct OnlineRunner<'a> {
    trace: &'a Trace,
    geometry: HotspotGeometry,
    failures: Option<FailureModel>,
    chaos: ChaosOptions,
    threads: Threads,
}

impl<'a> OnlineRunner<'a> {
    /// Creates the runner. Failover routes within the paper's
    /// [`COLLABORATION_RADIUS_KM`].
    pub fn new(trace: &'a Trace) -> Self {
        let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
        OnlineRunner {
            trace,
            geometry,
            failures: None,
            chaos: ChaosOptions::new(NoFaults),
            threads: Threads::Auto,
        }
    }

    /// Sets the worker thread count for the pure per-slot phases (demand
    /// aggregation, failover routing, metric evaluation). The report is
    /// bit-identical for every value — only wall-clock time changes.
    /// Planning (predictor + scheme) is stateful and always sequential.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Threads::Fixed(n);
        self
    }

    /// Enables failure injection (see the module docs for the stale-mask
    /// planning, failover routing, and cache-wipe semantics).
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Attaches the chaos plane (see the module docs for each fault's
    /// semantics), replacing the default injector that fires no faults.
    /// Composes with [`OnlineRunner::with_failures`]: the failure model
    /// owns offline transitions and cache wipes, the injector owns
    /// everything subtler. All fault decisions are queried from the
    /// sequential per-slot step only, so the report stays bit-identical
    /// for every thread count.
    pub fn with_chaos(mut self, chaos: ChaosOptions) -> Self {
        self.chaos = chaos;
        self
    }

    /// Runs the loop with `predictor` supplying forecasts. Slot 0, which
    /// the predictor has no history for, is planned from its realized
    /// demand (standing in for "yesterday's" history before the trace
    /// begins).
    ///
    /// # Errors
    ///
    /// Propagates a [`ValidationError`] if the constructed routing ever
    /// violates the model constraints (a bug, not a data condition).
    pub fn run<S, P>(
        &self,
        scheme: &mut S,
        predictor: &mut P,
    ) -> Result<OnlineReport, ValidationError>
    where
        S: Scheme + ?Sized,
        P: PopularityPredictor + ?Sized,
    {
        self.drive(scheme, predictor.name().to_owned(), |actual, slot| {
            let plan = match predictor.predict() {
                None if slot == 0 => Some(actual.clone()),
                forecast => forecast,
            };
            predictor.observe(actual);
            plan
        })
    }

    /// Runs the loop with a perfect oracle: placements are planned from
    /// each slot's realized demand (the upper bound predictors chase).
    /// Failure injection still applies — the oracle knows the demand, not
    /// the future liveness.
    ///
    /// # Errors
    ///
    /// Same as [`OnlineRunner::run`].
    pub fn run_with_oracle<S>(&self, scheme: &mut S) -> Result<OnlineReport, ValidationError>
    where
        S: Scheme + ?Sized,
    {
        self.drive(scheme, "oracle".to_owned(), |actual, _| Some(actual.clone()))
    }

    fn drive<S>(
        &self,
        scheme: &mut S,
        predictor_name: String,
        mut plan_for: impl FnMut(&SlotDemand, u32) -> Option<SlotDemand>,
    ) -> Result<OnlineReport, ValidationError>
    where
        S: Scheme + ?Sized,
    {
        let n = self.trace.hotspots.len();
        let service: Vec<u64> =
            self.trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let cache: Vec<u64> =
            self.trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();

        // Realized demand aggregation is pure per slot: fan out, merge in
        // slot order (ccdn-par's ordered join keeps the report
        // bit-identical for every thread count).
        let slot_ids: Vec<u32> = (0..self.trace.slot_count).collect();
        let actuals: Vec<SlotDemand> = {
            let _span = ccdn_obs::span("sim.online.aggregate");
            ccdn_par::par_map(self.threads, &slot_ids, |&slot| {
                SlotDemand::aggregate(self.trace.slot_requests(slot), &self.geometry)
            })
        };

        // Planning, the slot's faults and the replication replay are
        // stateful (predictor history, `&mut S`, the failure process, the
        // stale-mask chain, the replication rows), so each slot runs
        // them as one sequential step, in slot order.
        let chaos = &self.chaos;
        let injector = &*chaos.injector;
        let mut process = self.failures.as_ref().map(FailureModel::process);
        // Planning for slot t sees slot t−1's liveness; before the trace
        // begins the controller believes everyone is up.
        let mut stale_alive = vec![true; n];
        let mut replay = ChaosReplay::new(injector, chaos.backoff, n);
        let mut planned: Vec<PlannedSlot> = Vec::with_capacity(slot_ids.len());
        for (&slot, actual) in slot_ids.iter().zip(&actuals) {
            // Plan placements against the forecast, under the *stale*
            // liveness mask: capacity the controller believes exists.
            let plan_span = ccdn_obs::span("sim.online.plan");
            let plan_demand = plan_for(actual, slot);
            let plan_service = masked(&service, &stale_alive);
            let plan_cache = masked(&cache, &stale_alive);
            let overrun = injector.planner_overrun(slot);
            let degraded = overrun && chaos.degraded_mode;
            let placements: Vec<Vec<VideoId>> = match &plan_demand {
                // Serve from the previous slot's plan, greedily patching
                // the hotspots whose demand shifted most.
                _ if degraded => {
                    let prev = planned.last();
                    degraded_placements(
                        prev.map_or(&[], |p| &p.placements),
                        plan_demand.as_ref(),
                        prev.and_then(|p| p.forecast.as_ref()),
                        &plan_cache,
                        &replay.rows,
                        chaos.patch_threshold,
                        chaos.patch_budget,
                    )
                }
                Some(forecast) if !overrun => {
                    let input = SlotInput {
                        geometry: &self.geometry,
                        demand: forecast,
                        service_capacity: &plan_service,
                        cache_capacity: &plan_cache,
                        video_count: self.trace.video_count,
                    };
                    let placements = scheme.schedule(&input).placements;
                    // The replay and the router index one row per
                    // hotspot: reject a misshapen plan before either runs.
                    if placements.len() != n {
                        return Err(ValidationError::ShapeMismatch);
                    }
                    placements
                }
                // No forecast yet, or the naive controller applying an
                // overrun's missing plan as empty: caches flush — the
                // serving cliff degraded mode exists to avoid.
                _ => vec![Vec::new(); n],
            };
            drop(plan_span);
            replay.tally.overruns += u64::from(overrun);
            replay.tally.faults += u64::from(overrun);
            replay.tally.degraded_slots += u64::from(degraded);
            #[cfg(feature = "strict-invariants")]
            if degraded {
                if let Err(violation) =
                    crate::validate::check_degraded_plan(&placements, &plan_cache)
                {
                    // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
                    panic!("strict-invariants: degraded plan for slot {slot} is infeasible: {violation}");
                }
            }

            // The slot's faults: the failure model's offline hotspots
            // (cache wiped); then, among the rest, crashed ones serve
            // nothing this slot (but keep their cache) and slow ones lose
            // capacity.
            let replay_span = ccdn_obs::span("sim.online.replay");
            let true_alive = match &mut process {
                Some(p) => p.advance(slot, &self.geometry),
                None => vec![true; n],
            };
            let mut serve_alive = true_alive.clone();
            let mut serve_service = masked(&service, &true_alive);
            for h in 0..n {
                if !serve_alive[h] {
                    continue;
                }
                if injector.crashed(slot, h) {
                    serve_alive[h] = false;
                    serve_service[h] = 0;
                    replay.tally.crashes += 1;
                    replay.tally.faults += 1;
                } else {
                    let pct = injector.capacity_percent(slot, h);
                    let pct = if pct > 100 { 100 } else { pct };
                    if pct < 100 {
                        serve_service[h] = serve_service[h] * u64::from(pct) / 100;
                        replay.tally.slow_slots += 1;
                        replay.tally.faults += 1;
                    }
                }
            }
            let serve_cache = masked(&cache, &serve_alive);
            let (effective, delta) =
                replay.replay_slot(slot, &true_alive, &serve_alive, &placements);
            drop(replay_span);

            stale_alive = true_alive;
            planned.push(PlannedSlot {
                serve_alive,
                forecast: plan_demand,
                placements,
                effective,
                delta,
                serve_service,
                serve_cache,
                degraded,
            });
        }

        // Routing the realized slot against its effective placement,
        // scoring it, and computing the forecast error are pure per
        // slot: fan out. No injector queries happen here — every fault
        // decision was already materialized sequentially.
        let _route_span = ccdn_obs::span("sim.online.route");
        // Geometry and radius are fixed for the run: every slot shares
        // one set of neighbour rows.
        let neighbours = radius_neighbour_rows(&self.geometry, COLLABORATION_RADIUS_KM);
        let routed = ccdn_par::par_map_indexed(self.threads, 0, &planned, |i, p| {
            let actual = &actuals[i];
            // Route the real slot against the fixed placement under the
            // *serving* mask: offline or crashed hotspots serve nothing.
            let (decision, failover) = route_rows(
                &neighbours,
                actual,
                &p.serve_service,
                &p.placements,
                &p.effective,
                &p.serve_alive,
                chaos.chain_budget,
            );
            let input = SlotInput {
                geometry: &self.geometry,
                demand: actual,
                service_capacity: &p.serve_service,
                cache_capacity: &p.serve_cache,
                video_count: self.trace.video_count,
            };
            let metrics = SlotMetrics::evaluate(&input, &decision);
            let forecast_error = match &p.forecast {
                Some(f) => forecast_error(f, actual),
                None => 1.0,
            };
            (failover, metrics, forecast_error)
        });

        drop(_route_span);

        // Sequential merge: the first error in slot order propagates.
        let _merge_span = ccdn_obs::span("sim.online.merge");
        let mut slots = Vec::with_capacity(slot_ids.len());
        let mut total = MetricsTotals::default();
        let mut total_failed_over = 0u64;
        let mut total_orphaned = 0u64;
        let mut total_disrupted = 0u64;
        let mut total_origin_spilled = 0u64;
        let mut total_degraded = 0u64;
        let mut obs_delta = 0u64;
        for (i, (failover, metrics, forecast_error)) in routed.into_iter().enumerate() {
            let mut metrics = metrics?;
            let p = &planned[i];
            metrics.replicas = p.delta;
            obs_delta += p.delta;

            total.add(&metrics);
            total_failed_over += failover.failed_over;
            total_orphaned += failover.orphaned;
            total_disrupted += failover.disrupted;
            total_origin_spilled += failover.origin_spilled;
            total_degraded += u64::from(p.degraded);
            slots.push(OnlineSlotOutcome {
                slot: slot_ids[i],
                metrics,
                forecast_error,
                offline_hotspots: p.serve_alive.iter().filter(|&&a| !a).count() as u32,
                failed_over: failover.failed_over,
                orphaned: failover.orphaned,
                disrupted: failover.disrupted,
                origin_spilled: failover.origin_spilled,
                degraded: p.degraded,
            });
        }

        REPLICA_DELTA.add(obs_delta);
        ORIGIN_SPILLED.add(total_origin_spilled);
        replay.tally.flush();

        let report = OnlineReport {
            scheme: scheme.name().to_owned(),
            predictor: predictor_name,
            slots,
            total,
            failed_over: total_failed_over,
            orphaned: total_orphaned,
            disrupted: total_disrupted,
            origin_spilled: total_origin_spilled,
            degraded_slots: total_degraded,
        };
        #[cfg(feature = "strict-invariants")]
        if let Err(violation) = crate::validate::check_report(&report) {
            // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
            panic!("strict-invariants: online report breaks slot accounting: {violation}");
        }
        Ok(report)
    }
}

/// One slot's planning and replay output, consumed by routing.
struct PlannedSlot {
    /// The serving mask: the failure model's realized mask minus crashed
    /// hotspots (crash keeps the cache, so no wipe).
    serve_alive: Vec<bool>,
    forecast: Option<SlotDemand>,
    placements: Vec<Vec<VideoId>>,
    /// What each hotspot actually holds and can serve.
    effective: Vec<Vec<VideoId>>,
    /// Replication pushes actually charged this slot (initial attempts
    /// plus transmitted retries).
    delta: u64,
    serve_service: Vec<u64>,
    serve_cache: Vec<u64>,
    degraded: bool,
}

/// Local accumulator for the replay and chaos counters, flushed once per
/// run.
#[derive(Debug, Default, PartialEq, Eq)]
struct ChaosTally {
    cache_wipes: u64,
    faults: u64,
    crashes: u64,
    partitions: u64,
    slow_slots: u64,
    corruptions: u64,
    push_losses: u64,
    overruns: u64,
    retries: u64,
    backoff_slots: u64,
    abandoned: u64,
    degraded_slots: u64,
}

impl ChaosTally {
    fn flush(&self) {
        CACHE_WIPES.add(self.cache_wipes);
        FAULTS_INJECTED.add(self.faults);
        CHAOS_CRASHES.add(self.crashes);
        CHAOS_PARTITIONS.add(self.partitions);
        CHAOS_SLOW_SLOTS.add(self.slow_slots);
        CHAOS_CORRUPTIONS.add(self.corruptions);
        CHAOS_PUSH_LOSSES.add(self.push_losses);
        CHAOS_OVERRUNS.add(self.overruns);
        CHAOS_RETRIES.add(self.retries);
        CHAOS_BACKOFF_SLOTS.add(self.backoff_slots);
        CHAOS_ABANDONED.add(self.abandoned);
        DEGRADED_SLOTS.add(self.degraded_slots);
    }
}

/// Replication state of one video the controller believes a hotspot
/// caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Push {
    /// The copy arrived and can serve.
    Landed,
    /// No copy yet: push attempt `attempt` (zero-based) goes out at slot
    /// `due`.
    Retry { attempt: u32, due: u32 },
    /// The attempt budget ran out. No copy serves until a plan evicts
    /// the video or a wipe clears the row.
    Abandoned,
}

/// One hotspot's replication row: `(video, state)` sorted by video, each
/// video once.
type PushRow = Vec<(VideoId, Push)>;

/// The state of `video` in a sorted replication row, if the row holds it.
fn push_state(row: &[(VideoId, Push)], video: VideoId) -> Option<Push> {
    let i = row.binary_search_by_key(&video, |&(v, _)| v).ok()?;
    <[(VideoId, Push)]>::get(row, i).map(|&(_, state)| state)
}

/// Sequential replay of the replication layer, one [`PushRow`] per
/// hotspot. A row's videos are the controller's believed cache (every
/// plan's videos, as if each push landed); their states say which copies
/// can actually serve under the injector's faults and when a blocked or
/// lost push is retried.
struct ChaosReplay<'c> {
    injector: &'c dyn Injector,
    backoff: Backoff,
    rows: Vec<PushRow>,
    tally: ChaosTally,
}

impl<'c> ChaosReplay<'c> {
    /// Empty caches for `hotspots` hotspots.
    fn new(injector: &'c dyn Injector, backoff: Backoff, hotspots: usize) -> Self {
        ChaosReplay {
            injector,
            backoff,
            rows: vec![Vec::new(); hotspots],
            tally: ChaosTally::default(),
        }
    }

    /// Replays one slot's replication of `placements`. `true_alive` is
    /// the failure model's mask (offline ⇒ cache wiped); `serve_alive`
    /// also excludes crashed hotspots. Returns what each hotspot can
    /// actually serve, in planner order, and the pushes charged. A video
    /// a plan lists twice is pushed and charged once.
    fn replay_slot(
        &mut self,
        slot: u32,
        true_alive: &[bool],
        serve_alive: &[bool],
        placements: &[Vec<VideoId>],
    ) -> (Vec<Vec<VideoId>>, u64) {
        let mut delta = 0u64;
        let mut effective: Vec<Vec<VideoId>> = Vec::with_capacity(placements.len());
        // Reused across hotspots: the plan sorted by video, and the
        // buffer the next row is built in.
        let mut plan: Vec<VideoId> = Vec::new();
        let mut next: PushRow = Vec::new();
        for (h, placement) in placements.iter().enumerate() {
            if !true_alive[h] {
                // Offline: the cache is gone and so are its in-flight
                // retries; the next placement is charged as a full
                // re-push.
                self.rows[h].clear();
                self.tally.cache_wipes += 1;
                effective.push(Vec::new());
                continue;
            }
            // A partitioned or crashed hotspot is unreachable for
            // pushes; blocked attempts are not charged.
            let partitioned = self.injector.partitioned(slot, h);
            let blocked = partitioned || !serve_alive[h];
            if partitioned {
                self.tally.partitions += 1;
                self.tally.faults += 1;
            }

            plan.clear();
            plan.extend_from_slice(placement);
            plan.sort_unstable();
            plan.dedup();
            // One pass over the old row and the plan. Evictions are local
            // and reliable: a video the plan drops leaves the row, and its
            // retry with it. A new video gets its first push, a due retry
            // goes out again, and every landed copy is checked for
            // corruption.
            let old = std::mem::take(&mut self.rows[h]);
            for joined in merge_join(&old, |&(v, _)| v, &plan, |&v| v) {
                let (video, state) = match joined {
                    Joined::Left(_) => continue,
                    Joined::Right(&video) => {
                        (video, self.push_attempt(slot, h, video, 0, blocked, &mut delta))
                    }
                    Joined::Both(&(video, Push::Retry { attempt, due }), _) if due <= slot => {
                        self.tally.retries += 1;
                        (video, self.push_attempt(slot, h, video, attempt, blocked, &mut delta))
                    }
                    Joined::Both(&kept, _) => kept,
                };
                // Corruption invalidates a copy before it can serve this
                // slot; the re-fetch is detected on access and scheduled
                // for the next slot.
                let state = if state == Push::Landed
                    && self.injector.corrupted(slot, h, u64::from(video.0))
                {
                    self.tally.corruptions += 1;
                    self.tally.faults += 1;
                    Push::Retry { attempt: 0, due: slot.saturating_add(1) }
                } else {
                    state
                };
                next.push((video, state));
            }

            // Servable contents, in planner order.
            effective.push(
                placement
                    .iter()
                    .copied()
                    .filter(|&v| push_state(&next, v) == Some(Push::Landed))
                    .collect(),
            );
            // The old row's buffer builds the next hotspot's row.
            self.rows[h] = std::mem::replace(&mut next, old);
            next.clear();
        }
        (effective, delta)
    }

    /// One push attempt of `video` to `h`, returning the video's new
    /// state. Transmitted attempts are charged whether or not they
    /// arrive; blocked ones (partition, crash) are not. Failures
    /// reschedule per the backoff, until the attempt budget runs out and
    /// the push is abandoned.
    fn push_attempt(
        &mut self,
        slot: u32,
        h: usize,
        video: VideoId,
        attempt: u32,
        blocked: bool,
        delta: &mut u64,
    ) -> Push {
        let lost = if blocked {
            true
        } else {
            *delta += 1;
            if self.injector.push_lost(slot, h, u64::from(video.0)) {
                self.tally.push_losses += 1;
                self.tally.faults += 1;
                true
            } else {
                false
            }
        };
        if !lost {
            return Push::Landed;
        }
        match self.backoff.delay_slots(attempt) {
            Some(wait) => {
                self.tally.backoff_slots += u64::from(wait);
                Push::Retry { attempt: attempt + 1, due: slot.saturating_add(wait) }
            }
            None => {
                self.tally.abandoned += 1;
                Push::Abandoned
            }
        }
    }
}

/// Degraded-mode plan: keep the previous slot's placements (truncated to
/// the believed capacity) and greedily re-plan — Nearest-style, each
/// hotspot caching its own most-demanded forecast videos — only the
/// hotspots whose demand shifted beyond `threshold`, most-shifted first,
/// spending at most `patch_budget` *extra* believed pushes on patches. A
/// video costs one push when its hotspot's `believed` row lacks it.
fn degraded_placements(
    prev: &[Vec<VideoId>],
    forecast: Option<&SlotDemand>,
    prev_forecast: Option<&SlotDemand>,
    plan_cache: &[u64],
    believed: &[PushRow],
    threshold: f64,
    patch_budget: Option<u64>,
) -> Vec<Vec<VideoId>> {
    let n = plan_cache.len();
    // Base: yesterday's plan under today's believed capacity.
    let mut out: Vec<Vec<VideoId>> = (0..n)
        .map(|h| {
            let mut keep = prev.get(h).cloned().unwrap_or_default();
            keep.truncate(plan_cache[h] as usize);
            keep
        })
        .collect();
    let Some(f) = forecast else { return out };

    // Hotspots whose demand moved the most, patched first.
    let mut shifted: Vec<(f64, usize)> = (0..n)
        .filter(|&h| plan_cache[h] > 0)
        .map(|h| (demand_delta_ratio(f, prev_forecast, ccdn_trace::HotspotId(h)), h))
        .filter(|&(ratio, _)| ratio > threshold)
        .collect();
    shifted.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut budget_left = patch_budget.unwrap_or(u64::MAX);
    for (_, h) in shifted {
        let hid = ccdn_trace::HotspotId(h);
        let mut vids = f.videos(hid).to_vec();
        vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
        let patch: Vec<VideoId> =
            vids.into_iter().take(plan_cache[h] as usize).map(|vd| vd.video).collect();
        let have = <[PushRow]>::get(believed, h).map_or(&[][..], Vec::as_slice);
        let base_cost = out[h].iter().filter(|&&v| push_state(have, v).is_none()).count() as u64;
        let patch_cost = patch.iter().filter(|&&v| push_state(have, v).is_none()).count() as u64;
        let extra = patch_cost.saturating_sub(base_cost);
        if extra <= budget_left {
            budget_left -= extra;
            out[h] = patch;
        }
    }
    out
}

/// Demand-shift ratio of one hotspot between two forecasts: L1 distance
/// of per-video counts normalized by the current forecast's volume
/// (0 = identical shape, ≥ 1 = mostly new demand).
fn demand_delta_ratio(
    current: &SlotDemand,
    previous: Option<&SlotDemand>,
    hid: ccdn_trace::HotspotId,
) -> f64 {
    let now = current.videos(hid);
    let before = previous.map_or(&[][..], |p| p.videos(hid));
    let volume: u64 = now.iter().map(|vd| vd.count).sum();
    let denominator = if volume > 0 { volume as f64 } else { 1.0 };
    demand_row_distance(now, before) as f64 / denominator
}

/// L1 distance between two demand rows sorted by video id: the summed
/// count differences over the union of their videos.
fn demand_row_distance(a: &[VideoDemand], b: &[VideoDemand]) -> u64 {
    merge_join(a, |d| d.video, b, |d| d.video)
        .map(|joined| match joined {
            Joined::Left(d) | Joined::Right(d) => d.count,
            Joined::Both(x, y) => x.count.abs_diff(y.count),
        })
        .sum()
}

/// Applies a liveness mask to per-hotspot capacities.
fn masked(capacity: &[u64], alive: &[bool]) -> Vec<u64> {
    capacity.iter().zip(alive).map(|(&c, &a)| if a { c } else { 0 }).collect()
}

/// Greedy failover routing of realized demand against planned placements
/// under a liveness mask.
///
/// The serving chain per `(hotspot, video)` batch is: the aggregation
/// hotspot itself if it caches the video, then the neighbours within
/// [`COLLABORATION_RADIUS_KM`] caching it in ascending-distance order,
/// then the CDN — skipping offline or capacity-exhausted hotspots. The
/// returned decision's placements are the *effective* ones (offline
/// hotspots emptied: their cache is unreachable and, per the wipe
/// semantics, gone).
///
/// [`FailoverStats`] tallies the requests whose **planned** server — the
/// first chain candidate caching the video under the planned placements,
/// ignoring liveness — was offline: those an alive cacher rescued
/// (`failed_over`) and those that fell to the CDN (`orphaned`).
///
/// Every planned copy serves and a chain has no depth budget, so
/// `origin_spilled` is 0. [`OnlineRunner`] also routes against the copies
/// that actually landed under chaos faults, with the budget of
/// [`ChaosOptions::with_chain_budget`].
///
/// `service` must already be zeroed for offline hotspots (it is re-masked
/// defensively). With an all-alive mask this is exactly the baseline
/// greedy routing and the stats are zero. Placements are indexed per
/// video, up to the largest video id `actual` demands: 32 bytes per id.
///
/// # Errors
///
/// [`ValidationError::ShapeMismatch`] when `service`, `placements`,
/// `alive` or the demand does not cover exactly the geometry's hotspots.
pub fn route_with_failover(
    geometry: &HotspotGeometry,
    actual: &SlotDemand,
    service: &[u64],
    placements: &[Vec<VideoId>],
    alive: &[bool],
) -> Result<(SlotDecision, FailoverStats), ValidationError> {
    let n = geometry.len();
    if [service.len(), placements.len(), alive.len(), actual.hotspot_count()] != [n; 4] {
        return Err(ValidationError::ShapeMismatch);
    }
    let neighbours = radius_neighbour_rows(geometry, COLLABORATION_RADIUS_KM);
    Ok(route_rows(&neighbours, actual, service, placements, placements, alive, None))
}

/// Radius neighbours of every hotspot, one row each: the hotspots within
/// `radius_km` of it, itself excluded, nearest first (equal distances in
/// index order) — the order the failover chain tries them in.
fn radius_neighbour_rows(geometry: &HotspotGeometry, radius_km: f64) -> FlatRows<usize> {
    let n = geometry.len();
    let mut rows = FlatRows::with_capacity(n, 0);
    let mut by_distance: Vec<(f64, usize)> = Vec::new();
    for h in 0..n {
        let hid = ccdn_trace::HotspotId(h);
        by_distance.clear();
        by_distance.extend(
            geometry
                .within_radius(hid, radius_km)
                .into_iter()
                .map(|j| (geometry.distance(hid, j), j.0)),
        );
        by_distance.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        rows.push_row(by_distance.iter().map(|&(_, j)| j));
    }
    rows
}

/// [`route_with_failover`] with the radius neighbours already laid out as
/// rows (see [`radius_neighbour_rows`]). Requests are served from
/// `effective_placements`, what each hotspot can actually serve, while
/// disruption is attributed by the planned placements; pass the planned
/// placements when the two agree. `chain_budget` caps the servers a batch
/// may consult (see [`ChaosOptions::with_chain_budget`]); `None` means
/// unbounded.
///
/// Both placements are looked up through per-video holder rows
/// ([`FlatRows::holders`]) over the slot's demanded video range, two
/// indexes of 16 bytes per video id up to the largest demanded one. A batch
/// whose video no hotspot holds, planned or effective, settles without
/// walking its chain: it has no planned server, so it is not disrupted,
/// and all of it goes to the CDN, counted as origin spill only when the
/// budget is 0, as the chain's first check would count it.
fn route_rows(
    neighbours: &FlatRows<usize>,
    actual: &SlotDemand,
    service: &[u64],
    planned_placements: &[Vec<VideoId>],
    effective_placements: &[Vec<VideoId>],
    alive: &[bool],
    chain_budget: Option<u64>,
) -> (SlotDecision, FailoverStats) {
    let n = planned_placements.len();
    // Rows are sorted by video, so the last entry of each is its largest.
    let videos = (0..actual.hotspot_count())
        .filter_map(|h| actual.videos(ccdn_trace::HotspotId(h)).last())
        .map(|vd| vd.video.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let planned_holders = FlatRows::holders(planned_placements, videos);

    // Effective placements, with offline hotspots emptied (their cache is
    // unreachable).
    let mut placements = effective_placements.to_vec();
    for (placement, &a) in placements.iter_mut().zip(alive) {
        if !a {
            placement.clear();
        }
    }
    let holders = FlatRows::holders(&placements, videos);

    let budget = chain_budget.unwrap_or(u64::MAX);
    let mut decision = SlotDecision { assignments: Vec::new(), placements };
    let mut capacity_left = masked(service, alive);
    let mut stats = FailoverStats::default();
    let mut vids: Vec<VideoDemand> = Vec::new();

    for h in 0..n {
        let hid = ccdn_trace::HotspotId(h);
        let near = neighbours.row_at(h);

        // Most-demanded first so capacity goes to the biggest wins.
        vids.clear();
        vids.extend_from_slice(actual.videos(hid));
        vids.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
        for vd in &vids {
            let video = vd.video.0 as usize;
            // No hotspot holds the video: there is no planned server to
            // lose and none to serve, so the chain would only reach the
            // CDN, having hit its deadline on the first check at budget 0.
            if planned_holders.row_at(video).is_empty() && holders.row_at(video).is_empty() {
                decision.assign(hid, vd.video, Target::Cdn, vd.count);
                if budget == 0 {
                    stats.origin_spilled += vd.count;
                }
                continue;
            }
            // The planned server: first chain candidate caching the
            // video as the scheme intended, liveness unknown to it.
            let planned = if planned_holders.row_holds(video, h) {
                Some(h)
            } else {
                near.iter().copied().find(|&j| planned_holders.row_holds(video, j))
            };
            let disrupted = planned.is_some_and(|j| !alive[j]);

            let mut remaining = vd.count;
            let mut hotspot_served = 0u64;
            let mut servers_used = 0u64;
            let mut deadline_hit = false;
            // Local first (consulting it consumes budget too).
            if budget == 0 {
                deadline_hit = remaining > 0;
            } else if holders.row_holds(video, h) && capacity_left[h] > 0 {
                let m = remaining.min(capacity_left[h]);
                decision.assign(hid, vd.video, Target::Hotspot(hid), m);
                capacity_left[h] -= m;
                remaining -= m;
                hotspot_served += m;
                servers_used += 1;
            }
            // Then neighbours in distance order, while the deadline
            // budget lasts.
            for &j in near {
                if remaining == 0 {
                    break;
                }
                if servers_used >= budget {
                    deadline_hit = true;
                    break;
                }
                if holders.row_holds(video, j) && capacity_left[j] > 0 {
                    let m = remaining.min(capacity_left[j]);
                    decision.assign(hid, vd.video, Target::Hotspot(ccdn_trace::HotspotId(j)), m);
                    capacity_left[j] -= m;
                    remaining -= m;
                    hotspot_served += m;
                    servers_used += 1;
                }
            }
            if remaining > 0 {
                decision.assign(hid, vd.video, Target::Cdn, remaining);
                if deadline_hit {
                    stats.origin_spilled += remaining;
                }
            }
            if disrupted {
                stats.disrupted += vd.count;
                stats.failed_over += hotspot_served;
                stats.orphaned += remaining;
                // Atomic bucket increments commute, so recording inside
                // the routing fan-out stays thread-count invariant.
                FAILOVER_CHAIN_DEPTH.record(servers_used);
            }
        }
    }
    (decision, stats)
}

/// Total absolute per-(hotspot, video) forecast error, normalized by
/// realized volume.
fn forecast_error(forecast: &SlotDemand, actual: &SlotDemand) -> f64 {
    // Misses and hallucinations alike: every term is a whole number, so
    // the integer sum converts to the same f64 as a float running sum.
    let err: u64 = (0..actual.hotspot_count())
        .map(|h| {
            let hid = ccdn_trace::HotspotId(h);
            demand_row_distance(forecast.videos(hid), actual.videos(hid))
        })
        .sum();
    let volume = actual.total_requests().max(1) as f64;
    err as f64 / volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ewma, LastSlot};
    use ccdn_trace::TraceConfig;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Arc, Mutex};

    /// Places each hotspot's top predicted videos; assignments are
    /// irrelevant in online mode (only placements are consumed).
    struct TopLocal;

    impl Scheme for TopLocal {
        fn name(&self) -> &'static str {
            "top-local"
        }

        fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
            let mut d = SlotDecision::new(input.hotspot_count());
            for h in 0..input.hotspot_count() {
                let hid = ccdn_trace::HotspotId(h);
                let mut vids: Vec<_> = input.demand.videos(hid).to_vec();
                vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
                for vd in vids.into_iter().take(input.cache_capacity[h] as usize) {
                    d.place(hid, vd.video);
                }
            }
            d
        }
    }

    fn trace() -> Trace {
        TraceConfig::small_test()
            .with_hotspot_count(30)
            .with_request_count(8_000)
            .with_video_count(400)
            .generate()
    }

    #[test]
    fn oracle_run_validates_and_conserves() {
        let t = trace();
        let report = OnlineRunner::new(&t).run_with_oracle(&mut TopLocal).unwrap();
        assert_eq!(report.predictor, "oracle");
        assert_eq!(report.total.sums.total_requests, t.requests.len() as u64);
        assert!(report.total.hotspot_serving_ratio() > 0.0);
        for s in &report.slots {
            assert_eq!(s.forecast_error, 0.0, "oracle has no forecast error");
            assert_eq!(s.offline_hotspots, 0);
            assert_eq!(s.failed_over, 0);
            assert_eq!(s.orphaned, 0);
        }
        assert_eq!(report.failed_over, 0);
        assert_eq!(report.orphaned, 0);
    }

    /// [`TopLocal`] with its placement rows resized to `n + extra`.
    struct Misshapen(isize);

    impl Scheme for Misshapen {
        fn name(&self) -> &'static str {
            "misshapen"
        }

        fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
            let mut d = TopLocal.schedule(input);
            d.placements.resize(input.hotspot_count().saturating_add_signed(self.0), Vec::new());
            d
        }
    }

    #[test]
    fn wrong_placement_row_count_is_a_shape_mismatch() {
        let t = trace();
        let runner = OnlineRunner::new(&t);
        for extra in [1, -1] {
            let oracle = runner.run_with_oracle(&mut Misshapen(extra));
            assert_eq!(oracle.unwrap_err(), ValidationError::ShapeMismatch, "extra rows {extra}");
            let ewma = runner.run(&mut Misshapen(extra), &mut Ewma::new(0.4));
            assert_eq!(ewma.unwrap_err(), ValidationError::ShapeMismatch, "extra rows {extra}");
        }
    }

    #[test]
    fn predictor_run_is_no_better_than_oracle() {
        let t = trace();
        let runner = OnlineRunner::new(&t);
        let oracle = runner.run_with_oracle(&mut TopLocal).unwrap();
        let ewma = runner.run(&mut TopLocal, &mut Ewma::new(0.4)).unwrap();
        assert!(
            ewma.total.hotspot_serving_ratio() <= oracle.total.hotspot_serving_ratio() + 0.02,
            "ewma {} beat the oracle {}",
            ewma.total.hotspot_serving_ratio(),
            oracle.total.hotspot_serving_ratio()
        );
    }

    #[test]
    fn persistent_caches_charge_only_deltas() {
        let t = trace();
        let report = OnlineRunner::new(&t).run(&mut TopLocal, &mut LastSlot::new()).unwrap();
        // Summed deltas can never exceed slots × total cache capacity, and
        // for stable demand they are far below the naive per-slot refill.
        let naive_per_slot: u64 = t.hotspots.iter().map(|h| u64::from(h.cache_capacity)).sum();
        let slots = report.slots.len() as u64;
        assert!(report.total.sums.replicas < naive_per_slot * slots / 2);
    }

    #[test]
    fn forecast_error_is_zero_for_perfect_prediction() {
        let t = trace();
        let geo = HotspotGeometry::new(t.region, &t.hotspots);
        let d = SlotDemand::aggregate(t.slot_requests(20), &geo);
        assert_eq!(forecast_error(&d, &d), 0.0);
    }

    #[test]
    fn forecast_error_counts_misses_and_hallucinations() {
        let t = trace();
        let geo = HotspotGeometry::new(t.region, &t.hotspots);
        let actual = SlotDemand::aggregate(t.slot_requests(20), &geo);
        let empty = SlotDemand::aggregate(&[], &geo);
        // Predicting nothing: error = 1.0 (all realized demand missed).
        assert!((forecast_error(&empty, &actual) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_degrade_serving_and_are_counted() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut TopLocal).unwrap();
        let failing = OnlineRunner::new(&t)
            .with_failures(FailureModel::markov(6.0, 3.0, 19).unwrap())
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        assert!(
            failing.total.hotspot_serving_ratio() < healthy.total.hotspot_serving_ratio(),
            "failures did not hurt serving"
        );
        assert!(failing.slots.iter().any(|s| s.offline_hotspots > 0));
        assert!(failing.failed_over + failing.orphaned > 0, "no disruption recorded despite churn");
    }

    /// Pins the same small video set at every hotspot that has cache
    /// capacity this slot. Under persistent caches the healthy run pays
    /// for the pins exactly once.
    struct PinnedSet(u64);

    impl Scheme for PinnedSet {
        fn name(&self) -> &'static str {
            "pinned-set"
        }

        fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
            let mut d = SlotDecision::new(input.hotspot_count());
            for h in 0..input.hotspot_count() {
                let k = self.0.min(input.cache_capacity[h]);
                for v in 0..k {
                    d.place(ccdn_trace::HotspotId(h), VideoId(v as u32));
                }
            }
            d
        }
    }

    #[test]
    fn failures_inflate_replication_via_cache_wipes() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut PinnedSet(5)).unwrap();
        // With static placements the healthy run pushes once, then rides
        // the persistent caches for free.
        assert_eq!(healthy.total.sums.replicas, 5 * t.hotspots.len() as u64);
        let failing = OnlineRunner::new(&t)
            .with_failures(FailureModel::markov(8.0, 2.0, 23).unwrap())
            .run_with_oracle(&mut PinnedSet(5))
            .unwrap();
        assert!(
            failing.total.sums.replicas > healthy.total.sums.replicas,
            "returning hotspots must re-pay the push: {} vs {}",
            failing.total.sums.replicas,
            healthy.total.sums.replicas
        );
    }

    #[test]
    fn all_down_slots_serve_everything_from_cdn() {
        let t = trace();
        let report = OnlineRunner::new(&t)
            .with_failures(FailureModel::iid(1.0, 2).unwrap())
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
        assert_eq!(report.total.sums.replicas, 0, "nothing alive to push to");
        for s in &report.slots {
            assert_eq!(s.offline_hotspots, t.hotspots.len() as u32);
        }
    }

    #[test]
    fn route_with_failover_matches_baseline_when_all_alive() {
        let t = trace();
        let geo = HotspotGeometry::new(t.region, &t.hotspots);
        let actual = SlotDemand::aggregate(t.slot_requests(5), &geo);
        let service: Vec<u64> = t.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let mut scheme = TopLocal;
        let input = SlotInput {
            geometry: &geo,
            demand: &actual,
            service_capacity: &service,
            cache_capacity: &t
                .hotspots
                .iter()
                .map(|h| u64::from(h.cache_capacity))
                .collect::<Vec<_>>(),
            video_count: t.video_count,
        };
        let placements = scheme.schedule(&input).placements;
        let alive = vec![true; t.hotspots.len()];
        let (_, stats) = route_with_failover(&geo, &actual, &service, &placements, &alive).unwrap();
        assert_eq!(stats, FailoverStats::default());
    }

    #[test]
    fn route_with_failover_rejects_inputs_of_another_length() {
        let t = trace();
        let geo = HotspotGeometry::new(t.region, &t.hotspots);
        let n = geo.len();
        let actual = SlotDemand::aggregate(t.slot_requests(5), &geo);
        let service: Vec<u64> = t.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        let placements = vec![vec![VideoId(0)]; n];
        let alive = vec![true; n];
        assert!(route_with_failover(&geo, &actual, &service, &placements, &alive).is_ok());
        let rows = |len: usize| (0..len).map(|h| vec![VideoId(h as u32)]).collect::<Vec<_>>();
        let demand = |len: usize| SlotDemand::from_parts(vec![Vec::new(); len], vec![0.0; len]);
        for len in [n - 1, n + 1] {
            let results = [
                ("service", route_with_failover(&geo, &actual, &vec![5; len], &placements, &alive)),
                ("placements", route_with_failover(&geo, &actual, &service, &rows(len), &alive)),
                (
                    "alive",
                    route_with_failover(&geo, &actual, &service, &placements, &vec![true; len]),
                ),
                ("demand", route_with_failover(&geo, &demand(len), &service, &placements, &alive)),
            ];
            for (input, result) in results {
                let err = result.unwrap_err();
                assert_eq!(
                    err,
                    ValidationError::ShapeMismatch,
                    "{input}: {len} rows, {n} hotspots"
                );
            }
        }
    }

    #[test]
    fn quiet_chaos_is_byte_identical_to_chaos_off() {
        let t = trace();
        let plain = OnlineRunner::new(&t).run_with_oracle(&mut TopLocal).unwrap();
        let quiet = ccdn_chaos::FaultPlan::new(ccdn_chaos::ChaosConfig::quiet(1)).unwrap();
        let chaotic = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(quiet))
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        assert_eq!(plain, chaotic, "a quiet fault plan must not perturb the run");
    }

    /// Crashes one hotspot during a slot range; everything else healthy.
    #[derive(Debug)]
    struct CrashOne {
        hotspot: usize,
        slots: std::ops::Range<u32>,
    }

    impl Injector for CrashOne {
        fn crashed(&self, slot: u32, hotspot: usize) -> bool {
            hotspot == self.hotspot && self.slots.contains(&slot)
        }
    }

    #[test]
    fn crash_keeps_cache_warm_unlike_failure_wipe() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut PinnedSet(5)).unwrap();
        let crashed = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(CrashOne { hotspot: 0, slots: 3..6 }))
            .run_with_oracle(&mut PinnedSet(5))
            .unwrap();
        // A crashed hotspot serves nothing mid-slot but restarts with its
        // cache intact, so no re-push is charged (contrast with the
        // failure model's wipe, covered above).
        assert_eq!(crashed.total.sums.replicas, healthy.total.sums.replicas);
        assert!(
            crashed.total.hotspot_serving_ratio() <= healthy.total.hotspot_serving_ratio(),
            "crash slots cannot improve serving"
        );
    }

    #[test]
    fn crashes_are_attributed_as_disruption() {
        let t = trace();
        let crashed = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(CrashOne { hotspot: 0, slots: 3..9 }))
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        // TopLocal places each hotspot's top demanded videos, so the
        // crashed hotspot was somebody's planned server.
        assert!(crashed.disrupted > 0, "planned-server crashes must be attributed");
        assert_eq!(crashed.disrupted, crashed.failed_over + crashed.orphaned);
    }

    /// Loses every replication push in the slot range (after it,
    /// deliveries succeed — retries drain).
    #[derive(Debug)]
    struct LossWindow(std::ops::Range<u32>);

    impl Injector for LossWindow {
        fn push_lost(&self, slot: u32, _hotspot: usize, _video: u64) -> bool {
            self.0.contains(&slot)
        }
    }

    #[test]
    fn push_loss_charges_retries_and_recovers() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut PinnedSet(5)).unwrap();
        let lossy = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(LossWindow(0..2)).with_backoff(Backoff::new(1, 8)))
            .run_with_oracle(&mut PinnedSet(5))
            .unwrap();
        assert!(
            lossy.total.sums.replicas > healthy.total.sums.replicas,
            "every transmitted-then-lost push must be charged: {} vs {}",
            lossy.total.sums.replicas,
            healthy.total.sums.replicas
        );
        // Once the loss window closes the retries deliver, and the run
        // finishes at the healthy serving level for the final slots.
        let last = lossy.slots.last().unwrap();
        let last_healthy = healthy.slots.last().unwrap();
        assert_eq!(last.metrics.hotspot_served, last_healthy.metrics.hotspot_served);
    }

    /// Partitions one hotspot from the CDN for the whole run.
    #[derive(Debug)]
    struct PartitionOne(usize);

    impl Injector for PartitionOne {
        fn partitioned(&self, _slot: u32, hotspot: usize) -> bool {
            hotspot == self.0
        }
    }

    #[test]
    fn partition_defers_pushes_without_charging() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut PinnedSet(5)).unwrap();
        let split = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(PartitionOne(0)))
            .run_with_oracle(&mut PinnedSet(5))
            .unwrap();
        // Blocked pushes never leave the CDN: not charged. The pinned set
        // is 5 videos per hotspot, so hotspot 0's share is exactly 5.
        assert_eq!(split.total.sums.replicas, healthy.total.sums.replicas - 5);
    }

    /// Corrupts one pinned video at one hotspot in one slot.
    #[derive(Debug)]
    struct CorruptOnce;

    impl Injector for CorruptOnce {
        fn corrupted(&self, slot: u32, hotspot: usize, video: u64) -> bool {
            slot == 4 && hotspot == 0 && video == 0
        }
    }

    #[test]
    fn corruption_forces_refetch() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut PinnedSet(5)).unwrap();
        let corrupted = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(CorruptOnce))
            .run_with_oracle(&mut PinnedSet(5))
            .unwrap();
        assert_eq!(
            corrupted.total.sums.replicas,
            healthy.total.sums.replicas + 1,
            "a corrupted entry is re-fetched from the CDN exactly once"
        );
    }

    /// Planner misses its deadline every slot from `0` on.
    #[derive(Debug)]
    struct AlwaysOverrun {
        from: u32,
    }

    impl Injector for AlwaysOverrun {
        fn planner_overrun(&self, slot: u32) -> bool {
            slot >= self.from
        }
    }

    #[test]
    fn degraded_mode_avoids_the_overrun_cliff() {
        let t = trace();
        let healthy = OnlineRunner::new(&t).run_with_oracle(&mut TopLocal).unwrap();
        let naive = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(AlwaysOverrun { from: 2 }))
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        let degraded = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(AlwaysOverrun { from: 2 }).with_degraded_mode())
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        // The naive controller applies the missing plan as empty: caches
        // flush and serving cliffs. Degraded mode rides the last plan.
        assert_eq!(naive.degraded_slots, 0);
        assert!(degraded.degraded_slots > 0);
        assert!(
            degraded.total.hotspot_serving_ratio() > naive.total.hotspot_serving_ratio(),
            "degraded {} should beat the cliff {}",
            degraded.total.hotspot_serving_ratio(),
            naive.total.hotspot_serving_ratio()
        );
        assert!(
            degraded.total.hotspot_serving_ratio() <= healthy.total.hotspot_serving_ratio() + 1e-9,
            "degraded serving cannot beat the healthy plan"
        );
    }

    #[test]
    fn zero_chain_budget_spills_everything_to_origin() {
        let t = trace();
        let quiet = ccdn_chaos::FaultPlan::new(ccdn_chaos::ChaosConfig::quiet(1)).unwrap();
        let report = OnlineRunner::new(&t)
            .with_chaos(ChaosOptions::new(quiet).with_chain_budget(0))
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
        assert_eq!(
            report.origin_spilled, report.total.sums.total_requests,
            "with no deadline budget every request spills to the CDN"
        );
    }

    #[test]
    fn chaos_accounting_stays_consistent() {
        let t = trace();
        let cfg = ccdn_chaos::ChaosConfig::at_intensity(11, 0.8).unwrap();
        let plan = ccdn_chaos::FaultPlan::new(cfg).unwrap();
        let report = OnlineRunner::new(&t)
            .with_failures(FailureModel::iid(0.15, 7).unwrap())
            .with_chaos(
                ChaosOptions::new(plan)
                    .with_degraded_mode()
                    .with_chain_budget(2)
                    .with_patch_threshold(0.3)
                    .unwrap(),
            )
            .run_with_oracle(&mut TopLocal)
            .unwrap();
        crate::validate::check_report(&report).unwrap();
        assert_eq!(report.disrupted, report.failed_over + report.orphaned);
        assert!(report.disrupted > 0, "faults plus churn must disrupt something");
    }

    /// One injector query: `(injection point, slot, hotspot, video)`.
    type Query = (&'static str, u32, usize, u64);

    /// A fault plan that records every query it answers.
    #[derive(Debug)]
    struct Recorded {
        plan: ccdn_chaos::FaultPlan,
        queries: Arc<Mutex<Vec<Query>>>,
    }

    impl Recorded {
        fn record(&self, point: &'static str, slot: u32, hotspot: usize, video: u64) {
            self.queries.lock().unwrap().push((point, slot, hotspot, video));
        }
    }

    impl Injector for Recorded {
        fn crashed(&self, slot: u32, hotspot: usize) -> bool {
            self.record("crashed", slot, hotspot, 0);
            self.plan.crashed(slot, hotspot)
        }
        fn partitioned(&self, slot: u32, hotspot: usize) -> bool {
            self.record("partitioned", slot, hotspot, 0);
            self.plan.partitioned(slot, hotspot)
        }
        fn capacity_percent(&self, slot: u32, hotspot: usize) -> u32 {
            self.record("capacity_percent", slot, hotspot, 0);
            self.plan.capacity_percent(slot, hotspot)
        }
        fn corrupted(&self, slot: u32, hotspot: usize, video: u64) -> bool {
            self.record("corrupted", slot, hotspot, video);
            self.plan.corrupted(slot, hotspot, video)
        }
        fn push_lost(&self, slot: u32, hotspot: usize, video: u64) -> bool {
            self.record("push_lost", slot, hotspot, video);
            self.plan.push_lost(slot, hotspot, video)
        }
        fn planner_overrun(&self, slot: u32) -> bool {
            self.record("planner_overrun", slot, 0, 0);
            self.plan.planner_overrun(slot)
        }
    }

    #[test]
    fn each_fault_coordinate_is_queried_once() {
        let t = trace();
        let cfg = ccdn_chaos::ChaosConfig::at_intensity(5, 0.8).unwrap();
        let queries = Arc::default();
        let injector = Recorded {
            plan: ccdn_chaos::FaultPlan::new(cfg).unwrap(),
            queries: Arc::clone(&queries),
        };
        OnlineRunner::new(&t)
            .with_failures(FailureModel::markov(8.0, 2.0, 3).unwrap())
            .with_chaos(ChaosOptions::new(injector).with_degraded_mode())
            .run(&mut TopLocal, &mut Ewma::new(0.5))
            .unwrap();
        let mut queries = queries.lock().unwrap().clone();
        let asked = queries.len();
        queries.sort_unstable();
        queries.dedup();
        assert!(
            queries.iter().any(|q| q.0 == "push_lost")
                && queries.iter().any(|q| q.0 == "corrupted"),
            "the run must reach the per-video injection points"
        );
        assert_eq!(queries.len(), asked, "an injection point was queried twice for one coordinate");
    }

    #[test]
    fn invalid_patch_threshold_is_rejected() {
        let quiet = ccdn_chaos::FaultPlan::new(ccdn_chaos::ChaosConfig::quiet(1)).unwrap();
        assert_eq!(
            ChaosOptions::new(quiet).with_patch_threshold(-0.5).unwrap_err(),
            SimConfigError::ThresholdOutOfRange { name: "patch_threshold", value: -0.5 }
        );
    }

    // Reference routing, forecast error, demand shift and replication
    // replay over `BTreeSet` placements and `BTreeMap` joins (the routing
    // without its chain-depth probe); the differential tests below pin
    // the row versions to them.

    #[allow(clippy::too_many_arguments)]
    fn reference_route(
        geometry: &HotspotGeometry,
        actual: &SlotDemand,
        service: &[u64],
        planned_placements: &[Vec<VideoId>],
        effective_placements: &[Vec<VideoId>],
        alive: &[bool],
        radius_km: f64,
        chain_budget: Option<u64>,
    ) -> (SlotDecision, FailoverStats) {
        let n = planned_placements.len();
        let planned_cached: Vec<BTreeSet<VideoId>> =
            planned_placements.iter().map(|p| p.iter().copied().collect()).collect();
        let mut placements = effective_placements.to_vec();
        for (h, &a) in alive.iter().enumerate() {
            if !a {
                placements[h].clear();
            }
        }
        let cached: Vec<BTreeSet<VideoId>> =
            placements.iter().map(|p| p.iter().copied().collect()).collect();
        let budget = chain_budget.unwrap_or(u64::MAX);
        let mut decision = SlotDecision::new(n);
        decision.placements = placements;
        let mut capacity_left = masked(service, alive);
        let mut stats = FailoverStats::default();
        for h in 0..n {
            let hid = ccdn_trace::HotspotId(h);
            let mut neighbours: Vec<(f64, usize)> = geometry
                .within_radius(hid, radius_km)
                .into_iter()
                .map(|j| (geometry.distance(hid, j), j.0))
                .collect();
            neighbours.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut vids: Vec<_> = actual.videos(hid).to_vec();
            vids.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
            for vd in vids {
                let planned = if planned_cached[h].contains(&vd.video) {
                    Some(h)
                } else {
                    neighbours
                        .iter()
                        .map(|&(_, j)| j)
                        .find(|&j| planned_cached[j].contains(&vd.video))
                };
                let disrupted = planned.is_some_and(|j| !alive[j]);
                let mut remaining = vd.count;
                let mut hotspot_served = 0u64;
                let mut servers_used = 0u64;
                let mut deadline_hit = false;
                if budget == 0 {
                    deadline_hit = remaining > 0;
                } else if cached[h].contains(&vd.video) && capacity_left[h] > 0 {
                    let m = remaining.min(capacity_left[h]);
                    decision.assign(hid, vd.video, Target::Hotspot(hid), m);
                    capacity_left[h] -= m;
                    remaining -= m;
                    hotspot_served += m;
                    servers_used += 1;
                }
                for &(_, j) in &neighbours {
                    if remaining == 0 {
                        break;
                    }
                    if servers_used >= budget {
                        deadline_hit = true;
                        break;
                    }
                    if cached[j].contains(&vd.video) && capacity_left[j] > 0 {
                        let m = remaining.min(capacity_left[j]);
                        decision.assign(
                            hid,
                            vd.video,
                            Target::Hotspot(ccdn_trace::HotspotId(j)),
                            m,
                        );
                        capacity_left[j] -= m;
                        remaining -= m;
                        hotspot_served += m;
                        servers_used += 1;
                    }
                }
                if remaining > 0 {
                    decision.assign(hid, vd.video, Target::Cdn, remaining);
                    if deadline_hit {
                        stats.origin_spilled += remaining;
                    }
                }
                if disrupted {
                    stats.disrupted += vd.count;
                    stats.failed_over += hotspot_served;
                    stats.orphaned += remaining;
                }
            }
        }
        (decision, stats)
    }

    fn reference_forecast_error(forecast: &SlotDemand, actual: &SlotDemand) -> f64 {
        let mut err = 0.0f64;
        for h in 0..actual.hotspot_count() {
            let hid = ccdn_trace::HotspotId(h);
            let mut f: BTreeMap<VideoId, i64> =
                forecast.videos(hid).iter().map(|vd| (vd.video, vd.count as i64)).collect();
            for vd in actual.videos(hid) {
                let predicted = f.remove(&vd.video).unwrap_or(0);
                err += (predicted - vd.count as i64).abs() as f64;
            }
            err += f.values().map(|&v| v.abs() as f64).sum::<f64>();
        }
        let volume = actual.total_requests().max(1) as f64;
        err / volume
    }

    fn reference_demand_delta_ratio(
        current: &SlotDemand,
        previous: Option<&SlotDemand>,
        hid: ccdn_trace::HotspotId,
    ) -> f64 {
        let mut prev: BTreeMap<VideoId, i64> = match previous {
            Some(p) => p.videos(hid).iter().map(|vd| (vd.video, vd.count as i64)).collect(),
            None => BTreeMap::new(),
        };
        let mut diff = 0i64;
        let mut volume = 0i64;
        for vd in current.videos(hid) {
            let before = prev.remove(&vd.video).unwrap_or(0);
            diff += (vd.count as i64 - before).abs();
            volume += vd.count as i64;
        }
        for before in prev.values() {
            diff += before.abs();
        }
        let denominator = if volume > 0 { volume as f64 } else { 1.0 };
        diff as f64 / denominator
    }

    /// The replication replay over three per-hotspot containers that must
    /// agree: the believed caches (each plan's videos), the copies that
    /// actually landed, and the retry queue (video → `(next attempt, due
    /// slot)`).
    struct ReferenceReplay<'c> {
        injector: &'c dyn Injector,
        backoff: Backoff,
        believed: Vec<BTreeSet<VideoId>>,
        actual: Vec<BTreeSet<VideoId>>,
        pending: Vec<BTreeMap<VideoId, (u32, u32)>>,
        tally: ChaosTally,
    }

    impl<'c> ReferenceReplay<'c> {
        fn new(injector: &'c dyn Injector, backoff: Backoff, hotspots: usize) -> Self {
            ReferenceReplay {
                injector,
                backoff,
                believed: vec![BTreeSet::new(); hotspots],
                actual: vec![BTreeSet::new(); hotspots],
                pending: vec![BTreeMap::new(); hotspots],
                tally: ChaosTally::default(),
            }
        }

        fn run_slot(
            &mut self,
            slot: u32,
            true_alive: &[bool],
            serve_alive: &[bool],
            placements: &[Vec<VideoId>],
        ) -> (Vec<Vec<VideoId>>, u64) {
            let mut delta = 0u64;
            let mut effective: Vec<Vec<VideoId>> = Vec::with_capacity(placements.len());
            for (h, placement) in placements.iter().enumerate() {
                if !true_alive[h] {
                    self.believed[h].clear();
                    self.actual[h].clear();
                    self.pending[h].clear();
                    self.tally.cache_wipes += 1;
                    effective.push(Vec::new());
                    continue;
                }
                // The videos the CDN newly pushes, then the plan becomes
                // the believed contents; evictions drop copies and retries.
                let fresh: Vec<VideoId> =
                    placement.iter().copied().filter(|v| !self.believed[h].contains(v)).collect();
                self.believed[h] = placement.iter().copied().collect();
                let desired = &self.believed[h];
                self.actual[h].retain(|v| desired.contains(v));
                self.pending[h].retain(|v, _| desired.contains(v));

                let partitioned = self.injector.partitioned(slot, h);
                let blocked = partitioned || !serve_alive[h];
                if partitioned {
                    self.tally.partitions += 1;
                    self.tally.faults += 1;
                }
                for v in fresh {
                    self.try_push(slot, h, v, 0, blocked, &mut delta);
                }
                let due: Vec<(VideoId, u32)> = self.pending[h]
                    .iter()
                    .filter(|&(_, &(_, due_slot))| due_slot <= slot)
                    .map(|(&v, &(attempt, _))| (v, attempt))
                    .collect();
                for (v, attempt) in due {
                    self.pending[h].remove(&v);
                    if self.actual[h].contains(&v) {
                        continue;
                    }
                    self.tally.retries += 1;
                    self.try_push(slot, h, v, attempt, blocked, &mut delta);
                }
                self.actual[h].retain(|&v| {
                    let corrupted = self.injector.corrupted(slot, h, u64::from(v.0));
                    if corrupted {
                        self.tally.corruptions += 1;
                        self.tally.faults += 1;
                        self.pending[h].entry(v).or_insert((0, slot.saturating_add(1)));
                    }
                    !corrupted
                });
                effective.push(
                    placement.iter().copied().filter(|v| self.actual[h].contains(v)).collect(),
                );
            }
            (effective, delta)
        }

        fn try_push(
            &mut self,
            slot: u32,
            h: usize,
            video: VideoId,
            attempt: u32,
            blocked: bool,
            delta: &mut u64,
        ) {
            let lost = if blocked {
                true
            } else {
                *delta += 1;
                if self.injector.push_lost(slot, h, u64::from(video.0)) {
                    self.tally.push_losses += 1;
                    self.tally.faults += 1;
                    true
                } else {
                    false
                }
            };
            if !lost {
                self.actual[h].insert(video);
                return;
            }
            match self.backoff.delay_slots(attempt) {
                Some(wait) => {
                    self.tally.backoff_slots += u64::from(wait);
                    self.pending[h].insert(video, (attempt + 1, slot.saturating_add(wait)));
                }
                None => self.tally.abandoned += 1,
            }
        }
    }

    /// Videos no hotspot holds go to the CDN whole, and count as origin
    /// spill only at a zero budget, next to held videos whose chains the
    /// same slot walks, exactly as the reference routes them.
    #[test]
    fn unheld_videos_settle_like_the_reference_at_every_budget() {
        let t = trace();
        let geo = HotspotGeometry::new(t.region, &t.hotspots);
        let actual = SlotDemand::aggregate(t.slot_requests(5), &geo);
        let service: Vec<u64> = t.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
        // Only videos below 20 are placed, some of them on offline hotspots.
        let placements: Vec<Vec<VideoId>> = (0..geo.len())
            .map(|h| vec![VideoId((h % 20) as u32), VideoId(((h + 7) % 20) as u32)])
            .collect();
        let alive: Vec<bool> = (0..geo.len()).map(|h| h % 3 != 0).collect();
        let unheld: u64 =
            actual.per_video().filter(|(_, vd)| vd.video.0 >= 20).map(|(_, vd)| vd.count).sum();
        assert!(
            unheld > 0 && unheld < actual.total_requests(),
            "the slot mixes held and unheld videos"
        );
        let neighbours = radius_neighbour_rows(&geo, COLLABORATION_RADIUS_KM);
        for budget in [None, Some(0), Some(1)] {
            let got = route_rows(
                &neighbours,
                &actual,
                &service,
                &placements,
                &placements,
                &alive,
                budget,
            );
            let want = reference_route(
                &geo,
                &actual,
                &service,
                &placements,
                &placements,
                &alive,
                COLLABORATION_RADIUS_KM,
                budget,
            );
            assert_eq!(got, want, "budget {budget:?}");
            let (decision, stats) = got;
            let unheld_to_cdn: u64 = decision
                .assignments
                .iter()
                .filter(|a| a.video.0 >= 20 && a.target == Target::Cdn)
                .map(|a| a.count)
                .sum();
            assert_eq!(unheld_to_cdn, unheld, "budget {budget:?}: unheld videos go to the CDN");
            if budget == Some(0) {
                assert_eq!(stats.origin_spilled, actual.total_requests(), "zero budget spills all");
            }
        }
    }

    /// SplitMix-style mixing, so a scenario's picks follow from its seeds.
    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 31)
    }

    /// Demand over `hotspots` hotspots from `(video, count)` draws per
    /// hotspot; repeated videos keep their last count.
    fn demand_from(draws: &[Vec<(u32, u64)>], hotspots: usize) -> SlotDemand {
        let per_video = (0..hotspots)
            .map(|h| {
                let row: BTreeMap<u32, u64> = draws.get(h).into_iter().flatten().copied().collect();
                row.into_iter().map(|(v, count)| VideoDemand { video: VideoId(v), count }).collect()
            })
            .collect();
        SlotDemand::from_parts(per_video, vec![0.5; hotspots])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The row routing returns the reference's decision and tallies on
        /// the failover property tests' scenario (a small trace slot,
        /// random planned placements and a random liveness mask), here with
        /// the placements in planner rather than sorted order, a random
        /// effective subset of each placement, a chain budget and a radius.
        /// Placements draw from the lowest `placed_share` of the catalogue,
        /// so many demanded videos have no holder at all and settle
        /// without a chain walk.
        #[test]
        fn prop_row_routing_matches_the_tree_reference(
            hotspots in 2usize..25,
            requests in 0usize..1_500,
            videos in 1usize..200,
            seed in 0u64..500,
            place_seed in 0u64..500,
            p_off in 0.0f64..=1.0,
            keep_share in 0.0f64..=1.0,
            placed_share in 0.0f64..=1.0,
            with_effective in any::<bool>(),
            budget in prop::sample::select(vec![None, Some(0u64), Some(1), Some(2), Some(3)]),
            radius_km in prop::sample::select(vec![0.0, 1.5, 4.0]),
        ) {
            let trace = TraceConfig::small_test()
                .with_hotspot_count(hotspots)
                .with_request_count(requests)
                .with_video_count(videos)
                .with_seed(seed)
                .with_slot_count(1)
                .generate();
            let n = trace.hotspots.len();
            let placed = ((videos as f64 * placed_share).ceil() as u64).max(1);
            let placements: Vec<Vec<VideoId>> = (0..n)
                .map(|h| {
                    let cap = trace.hotspots[h].cache_capacity as usize;
                    let want = mix(place_seed, h as u64) as usize % (cap + 1);
                    let mut vids: Vec<VideoId> = (0..want)
                        .map(|k| VideoId((mix(place_seed, (h * 1_000 + k) as u64) % placed) as u32))
                        .collect();
                    vids.sort_unstable();
                    vids.dedup();
                    let shift = want / 2 % vids.len().max(1);
                    vids.rotate_left(shift);
                    vids
                })
                .collect();
            let alive: Vec<bool> = (0..n)
                .map(|h| (mix(place_seed ^ 0xABCD, h as u64) as f64 / u64::MAX as f64) >= p_off)
                .collect();
            let effective: Vec<Vec<VideoId>> = placements
                .iter()
                .enumerate()
                .map(|(h, p)| {
                    p.iter()
                        .copied()
                        .filter(|v| {
                            let draw = mix(place_seed ^ 0x5EED, (h as u64) << 32 | u64::from(v.0));
                            (draw as f64 / u64::MAX as f64) < keep_share
                        })
                        .collect()
                })
                .collect();
            let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
            let demand = SlotDemand::aggregate(trace.slot_requests(0), &geometry);
            let service: Vec<u64> =
                trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
            let effective = if with_effective { &effective } else { &placements };
            let got = route_rows(
                &radius_neighbour_rows(&geometry, radius_km),
                &demand,
                &service,
                &placements,
                effective,
                &alive,
                budget,
            );
            let want = reference_route(
                &geometry, &demand, &service, &placements, effective, &alive, radius_km, budget,
            );
            prop_assert_eq!(got, want);
        }

        /// Forecast error and demand shift agree with the keyed-map
        /// versions to the bit, on random demand pairs with empty rows and
        /// overlapping or disjoint video sets.
        #[test]
        fn prop_row_joins_match_the_tree_reference(
            hotspots in 1usize..6,
            a in prop::collection::vec(prop::collection::vec((0u32..30, 1u64..1_000), 0..12), 0..6),
            b in prop::collection::vec(prop::collection::vec((0u32..30, 1u64..1_000), 0..12), 0..6),
            disjoint in any::<bool>(),
        ) {
            // Disjoint draws move the second demand's videos past the first's.
            let shift = if disjoint { 30 } else { 0 };
            let b: Vec<Vec<(u32, u64)>> = b
                .into_iter()
                .map(|row| row.into_iter().map(|(v, c)| (v + shift, c)).collect())
                .collect();
            let first = demand_from(&a, hotspots);
            let second = demand_from(&b, hotspots);
            for (x, y) in [(&first, &second), (&second, &first), (&first, &first)] {
                prop_assert_eq!(
                    forecast_error(x, y).to_bits(),
                    reference_forecast_error(x, y).to_bits()
                );
                for h in 0..hotspots {
                    let hid = ccdn_trace::HotspotId(h);
                    for previous in [Some(y), None] {
                        prop_assert_eq!(
                            demand_delta_ratio(x, previous, hid).to_bits(),
                            reference_demand_delta_ratio(x, previous, hid).to_bits()
                        );
                    }
                }
            }
        }

        /// The row replay charges, serves and believes what the
        /// three-container reference does, slot by slot, and ends with the
        /// same tallies. Plans are duplicate-free, in planner order, drawn
        /// from a dozen videos and kept from the previous slot unless they
        /// churn, so they overlap across slots. Failure masks are random,
        /// each serving mask lies inside its failure mask, the fault plan
        /// runs at a random intensity, and short retry budgets abandon
        /// pushes.
        #[test]
        fn prop_row_replay_matches_the_tree_reference(
            hotspots in 1usize..=6,
            slots in 2u32..=12,
            seed in 0u64..10_000,
            p_off in 0.0f64..=0.5,
            p_crash in 0.0f64..=0.5,
            churn in 0.0f64..=1.0,
            intensity in 0.0f64..=1.0,
            attempts in 0u32..=4,
            base in 1u32..=2,
        ) {
            let faults = ccdn_chaos::FaultPlan::new(
                ccdn_chaos::ChaosConfig::at_intensity(seed, intensity).unwrap(),
            )
            .unwrap();
            let backoff = Backoff::new(base, attempts);
            let mut replay = ChaosReplay::new(&faults, backoff, hotspots);
            let mut reference = ReferenceReplay::new(&faults, backoff, hotspots);
            let draw = |salt: u64, key: u64| mix(seed ^ salt, key) as f64 / u64::MAX as f64;
            let mut placements: Vec<Vec<VideoId>> = vec![Vec::new(); hotspots];
            for slot in 0..slots {
                let key = |h: usize| u64::from(slot) << 8 | h as u64;
                let true_alive: Vec<bool> =
                    (0..hotspots).map(|h| draw(0xA11E, key(h)) >= p_off).collect();
                let serve_alive: Vec<bool> = (0..hotspots)
                    .map(|h| true_alive[h] && draw(0xC0DE, key(h)) >= p_crash)
                    .collect();
                for (h, plan) in placements.iter_mut().enumerate() {
                    if slot > 0 && draw(0xC4A9, key(h)) >= churn {
                        continue;
                    }
                    *plan = (0..12u32)
                        .filter(|&v| draw(0x9A7E, key(h) << 8 | u64::from(v)) < 0.5)
                        .map(VideoId)
                        .collect();
                    // Planner order is not sorted order.
                    let shift = mix(seed, key(h)) as usize % plan.len().max(1);
                    plan.rotate_left(shift);
                }
                let got = replay.replay_slot(slot, &true_alive, &serve_alive, &placements);
                let want = reference.run_slot(slot, &true_alive, &serve_alive, &placements);
                prop_assert_eq!(got, want, "slot {}", slot);
                for (row, believed) in replay.rows.iter().zip(&reference.believed) {
                    prop_assert!(
                        row.iter().map(|&(v, _)| v).eq(believed.iter().copied()),
                        "slot {}: believed {:?}, reference {:?}",
                        slot,
                        row,
                        believed
                    );
                }
            }
            prop_assert_eq!(replay.tally, reference.tally);
        }

        /// Delta accounting with no faults: the first push charges the
        /// plan's distinct videos, an unchanged plan is free, a changed
        /// plan charges exactly its new videos, and after a wipe the
        /// re-push is charged in full. Plans come in planner order and may
        /// list a video twice; it is pushed and charged once.
        #[test]
        fn prop_wipe_delta_equals_repushed_set(
            n in 1usize..20,
            a in prop::collection::vec(0u32..150, 0..40),
            b in prop::collection::vec(0u32..150, 0..40),
        ) {
            let a: Vec<VideoId> = a.into_iter().map(VideoId).collect();
            let b: Vec<VideoId> = b.into_iter().map(VideoId).collect();
            let distinct = |p: &[VideoId]| p.iter().collect::<BTreeSet<_>>().len() as u64;
            let h = n - 1;
            let mut replay = ChaosReplay::new(&NoFaults, Backoff::default(), n);
            let alive = vec![true; n];
            let mut plans = vec![Vec::new(); n];
            let mut charge = |slot: u32, alive: &[bool], plans: &[Vec<VideoId>]| {
                replay.replay_slot(slot, alive, alive, plans).1
            };

            plans[h] = a.clone();
            prop_assert_eq!(charge(0, &alive, &plans), distinct(&a), "first push charges the full set");
            prop_assert_eq!(charge(1, &alive, &plans), 0, "unchanged placement is free");

            plans[h] = b.clone();
            let fresh = b.iter().filter(|v| !a.contains(v)).collect::<BTreeSet<_>>().len() as u64;
            prop_assert_eq!(charge(2, &alive, &plans), fresh, "delta must charge exactly the new videos");

            let mut down = alive.clone();
            down[h] = false;
            prop_assert_eq!(charge(3, &down, &plans), 0, "an offline hotspot is not pushed to");
            prop_assert_eq!(
                charge(4, &alive, &plans),
                distinct(&b),
                "wipe forgets everything: the re-push is the whole set"
            );
        }
    }
}
