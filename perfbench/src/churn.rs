//! The `dqosd_churn` workload: dqos-d admission churn.
//!
//! A closed loop of virtual clients, each waiting for its reply before
//! thinking and sending the next request, runs against a daemon that
//! manages the paper's 128-host fabric. The op mix is the chaos soak's
//! (50 % setup, 25 % stamp, 15 % teardown, 10 % query — here as exact
//! per-client counts in seeded order, so every seed sends the same mix)
//! under mild
//! drop/duplicate/reorder faults, with seeded kill/recover cycles and a
//! snapshot every 64 journal records. Every round starts by recovering
//! the daemon from a store pre-populated from the seed — the daemon
//! restart a deployment pays, and this workload's set-up time.
//!
//! No simulator kernel, switch or NIC runs here; admission runs on every
//! setup request instead of once at network construction.
//!
//! A request's host time is what the daemon spends on it: its `ingest`
//! calls (retransmissions and duplicates included) plus its share of each
//! `poll` that answers it (a poll's time split evenly among the responses
//! it emits). Client, transport and loop bookkeeping are not included.

use crate::host::{median, ns_per_item, peak_rss_mib, quantile, wall_s, HostSpeed};
use crate::{layers, per_layer_metrics, Budget, Outcome};
use dqos_sim_core::{SimDuration, SimRng, SimTime};
use dqos_topology::ClosParams;
use dqosd::journal::{append_record, scan, Record};
use dqosd::wire::NO_BUDGET;
use dqosd::{
    Client, Daemon, DaemonConfig, Endpoint, Event, FaultSpec, Loopback, LoopbackConfig, Metrics,
    Op, Outgoing, Reply, ReqClass, Request, Response, RetryPolicy, Store,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Setup requests replayed into the pre-populated store.
    pub pre_flows: u32,
    /// Share of pre-populated flows that reserve bandwidth.
    pub pre_guaranteed: f64,
    /// Concurrent virtual clients.
    pub clients: u64,
    /// Requests each client issues per round.
    pub ops_per_client: u32,
    /// Kill/recover cycles per round.
    pub kills: u32,
}

impl Plan {
    /// The benchmark's plan, or a smoke-test-sized one.
    pub fn of(short: bool) -> Plan {
        if short {
            Plan {
                pre_flows: 512,
                pre_guaranteed: 0.2,
                clients: 4,
                ops_per_client: 16,
                kills: 1,
            }
        } else {
            Plan {
                pre_flows: 8_192,
                pre_guaranteed: 0.1,
                clients: 16,
                ops_per_client: 64,
                kills: 2,
            }
        }
    }

    /// One client's requests for a round, shuffled: exactly half
    /// setups, a quarter stamps, 15 % teardowns (rounded down) and the
    /// rest queries, so every seed sends the same mix.
    fn mix(&self, rng: &mut SimRng) -> Vec<u8> {
        let n = self.ops_per_client as usize;
        let (setup, stamp, teardown) = (n / 2, n / 4, n * 3 / 20);
        let mut kinds: Vec<u8> = [
            (0, setup),
            (1, stamp),
            (2, teardown),
            (3, n - setup - stamp - teardown),
        ]
        .into_iter()
        .flat_map(|(k, c)| std::iter::repeat_n(k, c))
        .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.index(i + 1));
        }
        kinds
    }
}

/// The daemon manages the paper fabric and snapshots every 64 records.
pub fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        topology: ClosParams::paper(),
        snapshot_every: 64,
        ..DaemonConfig::default()
    }
}

const THINK_FIRST_NS: u64 = 40_000;
const THINK_NS: u64 = 30_000;
const GUARANTEED_FRACTION: f64 = 0.6;
const BUDGET_GUARANTEED_NS: u64 = 500_000;
const BUDGET_BEST_NS: u64 = 300_000;
/// Client id of the loader that pre-populates the store.
const LOADER: u64 = 1 << 20;

fn loopback(seed: u64) -> LoopbackConfig {
    LoopbackConfig {
        latency: SimDuration::from_us(5),
        reorder_window: SimDuration::from_us(30),
        faults: FaultSpec {
            drop: 0.01,
            dup: 0.01,
            reorder: 0.02,
        },
        seed,
    }
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        timeout: SimDuration::from_us(300),
        backoff_base: SimDuration::from_us(50),
        backoff_cap: SimDuration::from_ms(2),
        max_retries: 8,
    }
}

fn random_setup(rng: &mut SimRng, guaranteed: bool, n_hosts: u32) -> Op {
    let src = rng.range_u64(0, n_hosts as u64 - 1) as u32;
    let mut dst = rng.range_u64(0, n_hosts as u64 - 1) as u32;
    if dst == src {
        dst = (dst + 1) % n_hosts;
    }
    let bw_bytes_per_sec = 12_500_000 * (1 + rng.range_u64(0, 3));
    let class = if guaranteed {
        ReqClass::Guaranteed
    } else {
        ReqClass::BestEffort
    };
    Op::Setup {
        class,
        src,
        dst,
        bw_bytes_per_sec,
    }
}

/// Build the seed's durable store: `plan.pre_flows` setups served one at
/// a time by a fresh daemon (snapshots included). Returns the store and
/// the number of live flows in it.
pub fn prepopulate(seed: u64, plan: &Plan) -> (Store, usize) {
    let cfg = daemon_config();
    let n_hosts = cfg.topology.n_hosts();
    let mut d = Daemon::new(cfg);
    let mut rng = SimRng::new(seed ^ 0x7072_6570_6f70);
    let mut out: Vec<Outgoing> = Vec::new();
    for i in 0..plan.pre_flows as u64 {
        let guaranteed = rng.chance(plan.pre_guaranteed);
        let op = random_setup(&mut rng, guaranteed, n_hosts);
        let now = SimTime::from_ns(i * 3_000);
        d.ingest(
            now,
            &Request {
                client: LOADER,
                id: i + 1,
                budget_ns: NO_BUDGET,
                op,
            }
            .encode(),
        );
        d.poll(now, &mut out);
        out.clear();
    }
    (d.store().clone(), d.n_flows())
}

/// Layers the loop records spans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Client::begin` / `on_frame` / `on_timer`.
    Client,
    /// `Loopback::send` / `pop_due`.
    Loopback,
    /// `Daemon::ingest`.
    Ingest,
    /// `Daemon::poll`.
    Poll,
    /// `Daemon::recover` at a kill.
    Recover,
}

impl Layer {
    const ALL: [Layer; 5] = [
        Layer::Client,
        Layer::Loopback,
        Layer::Ingest,
        Layer::Poll,
        Layer::Recover,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Client => "dqosd::client",
            Layer::Loopback => "dqosd::transport::loopback",
            Layer::Ingest => "dqosd::server ingest",
            Layer::Poll => "dqosd::server poll",
            Layer::Recover => "dqosd::server recover (kill)",
        }
    }
}

/// One recorded call. Spans of one request share `req`
/// (`client << 32 | request id`, 0 for calls no request owns); `cause`
/// is the index of the span that began that request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Owning request.
    pub req: u64,
    /// Index of the request's `Client::begin` span (`u32::MAX` if none).
    pub cause: u32,
    /// Layer called.
    pub layer: Layer,
    /// Start, ns since the round began.
    pub start_ns: u64,
    /// End, ns since the round began.
    pub end_ns: u64,
}

/// In-memory span recorder; inert when off.
struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn push(&mut self, layer: Layer, req: u64, cause: u32, start: Instant, end: Instant) {
        if self.on {
            let at = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                req,
                cause,
                layer,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    fn span<T>(&mut self, layer: Layer, req: u64, cause: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let s = Instant::now();
        let v = f();
        self.push(layer, req, cause, s, Instant::now());
        v
    }
}

/// One virtual client: workload generator plus retry state machine.
struct Actor {
    client: Client,
    rng: SimRng,
    owned: Vec<u64>,
    /// Kinds of the requests still to send, next one last.
    todo: Vec<u8>,
    wake: Option<SimTime>,
    tearing: Option<u64>,
    stamping: Option<u64>,
    /// Kind of the request in flight: 0 setup, 1 stamp, 2 teardown, 3 query.
    kind: u8,
    /// Daemon host ns spent on the request in flight so far.
    daemon_ns: u64,
    /// `client << 32 | request id` of the request in flight.
    tag: u64,
    /// Span index of its `begin`.
    root: u32,
}

impl Actor {
    fn finished(&self) -> bool {
        self.todo.is_empty() && self.client.is_idle()
    }

    /// Pop the next request. A stamp or teardown due while the client
    /// owns no flow trades places with its next setup, so every round
    /// sends exactly the planned mix.
    fn next_op(&mut self, n_hosts: u32) -> (Op, u64, u8) {
        let mut kind = self.todo.pop().expect("called with requests left");
        if (kind == 1 || kind == 2) && self.owned.is_empty() {
            if let Some(i) = self.todo.iter().rposition(|&k| k == 0) {
                self.todo[i] = kind;
                kind = 0;
            }
        }
        if kind == 0 || self.owned.is_empty() {
            let guaranteed = self.rng.chance(GUARANTEED_FRACTION);
            let budget = if guaranteed {
                BUDGET_GUARANTEED_NS
            } else {
                BUDGET_BEST_NS
            };
            (random_setup(&mut self.rng, guaranteed, n_hosts), budget, 0)
        } else if kind == 1 {
            let flow = self.owned[self.rng.index(self.owned.len())];
            self.stamping = Some(flow);
            let len = 256 + self.rng.range_u64(0, 1244) as u32;
            let parts = 1 + self.rng.range_u64(0, 3) as u32;
            (Op::Stamp { flow, len, parts }, BUDGET_GUARANTEED_NS, 1)
        } else if kind == 2 {
            let flow = self.owned[self.rng.index(self.owned.len())];
            self.tearing = Some(flow);
            (Op::Teardown { flow }, BUDGET_GUARANTEED_NS, 2)
        } else {
            (Op::Query, NO_BUDGET, 3)
        }
    }
}

/// What one round produced.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Requests begun.
    pub begun: u64,
    /// Requests answered (client side).
    pub completed: u64,
    /// Requests given up after the retry limit.
    pub gave_up: u64,
    /// Requests answered with an error (admission refused, unknown flow…).
    pub refused: u64,
    /// Requests the daemon served (its own count, duplicates included).
    pub served: u64,
    /// Requests the daemon shed (overload or budget).
    pub shed: u64,
    /// Frames clients sent, and of those retransmissions.
    pub sent: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Kill/recover cycles whose recovered digest matched / did not.
    pub kills_ok: u32,
    /// See `kills_ok`.
    pub kills_bad: u32,
    /// The end-of-round recovery reproduced the live digest.
    pub end_ok: bool,
    /// The loop converged before its horizon.
    pub converged: bool,
    /// Final control digest.
    pub digest: u64,
    /// Flows live at the end.
    pub flows_live: u64,
    /// Virtual ns the round covered.
    pub virtual_ns: u64,
    /// Host ns of the loop, correctness checks excluded.
    pub loop_ns: u64,
    /// `(kind, daemon host ns)` per answered request.
    pub samples: Vec<(u8, u64)>,
    /// Spans (traced rounds only).
    pub spans: Vec<Span>,
}

impl Round {
    /// Operations this round counts as failed: given-up or refused
    /// requests, digest mismatches, a failed final recovery, a stall.
    pub fn failures(&self) -> u64 {
        self.gave_up
            + self.refused
            + self.kills_bad as u64
            + !self.end_ok as u64
            + !self.converged as u64
    }

    /// Operations attempted: requests plus recovery checks.
    pub fn attempts(&self) -> u64 {
        self.begun + self.kills_ok as u64 + self.kills_bad as u64 + 1
    }
}

/// Run one round of the closed loop against `daemon` (freshly recovered
/// by the caller). Returns the round and the final daemon.
pub fn round(seed: u64, plan: &Plan, mut daemon: Daemon, trace: bool) -> (Round, Daemon) {
    let cfg = daemon.config().clone();
    let n_hosts = cfg.topology.n_hosts();
    let mut r = Round::default();
    let mut rec = Recorder {
        on: trace,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let t_loop = Instant::now();
    let mut check_ns = 0u64;

    let mut master = SimRng::new(seed);
    let mut lb = Loopback::new(loopback(seed));
    let mut actors: Vec<Actor> = (0..plan.clients)
        .map(|i| {
            let mut rng = master.fork(i + 1);
            let first = SimTime::from_ns(rng.range_u64(0, THINK_FIRST_NS));
            let todo = plan.mix(&mut rng);
            Actor {
                client: Client::new(i + 1, policy(), seed ^ (i + 1)),
                rng,
                owned: Vec::new(),
                todo,
                wake: Some(first),
                tearing: None,
                stamping: None,
                kind: 0,
                daemon_ns: 0,
                tag: 0,
                root: u32::MAX,
            }
        })
        .collect();

    // Seeded kill instants inside the active part of the round.
    let per_op_ns = THINK_NS / 2 + 2 * 5_000 + 2_000;
    let kill_hi = THINK_FIRST_NS + (per_op_ns * plan.ops_per_client as u64 / 2).max(1);
    let mut kill_rng = master.fork(0x6b69_6c6c);
    let mut kills: Vec<SimTime> = (0..plan.kills)
        .map(|_| SimTime::from_ns(kill_rng.range_u64(THINK_FIRST_NS, kill_hi)))
        .collect();
    kills.sort();
    let mut metrics = Metrics::default();

    let horizon = SimTime::ZERO + SimDuration::from_secs(2);
    let mut out: Vec<Outgoing> = Vec::new();
    let mut now = SimTime::ZERO;
    r.converged = true;
    loop {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                next = Some(next.map_or(t, |n: SimTime| n.min(t)));
            }
        };
        consider(lb.next_deliver());
        consider(daemon.next_wake());
        consider(kills.first().copied());
        for a in &actors {
            if !a.finished() {
                consider(a.client.deadline());
                consider(a.wake);
            }
        }
        let Some(t) = next else { break };
        now = t;
        if now > horizon {
            r.converged = false;
            break;
        }

        // 1. Kill/recover cycles due now. The digests are the
        //    benchmark's correctness check and are not timed.
        while kills.first().is_some_and(|k| *k <= now) {
            kills.remove(0);
            let tc = Instant::now();
            let want = daemon.control_digest();
            let store = daemon.store().clone();
            check_ns += tc.elapsed().as_nanos() as u64;
            let rebuilt = rec.span(Layer::Recover, 0, u32::MAX, || {
                Daemon::recover(cfg.clone(), &store)
            });
            let tc = Instant::now();
            match rebuilt {
                Ok(d) if d.control_digest() == want => {
                    metrics.merge(daemon.metrics());
                    daemon = d;
                    r.kills_ok += 1;
                }
                _ => r.kills_bad += 1,
            }
            check_ns += tc.elapsed().as_nanos() as u64;
        }

        // 2. Deliver frames due.
        loop {
            let s = Instant::now();
            let Some((at, to, frame)) = lb.pop_due(now) else {
                break;
            };
            match to {
                Endpoint::Server => {
                    let who = Request::decode(&frame)
                        .ok()
                        .and_then(|q| actors.get_mut((q.client as usize).wrapping_sub(1)));
                    let (tag, root) = who.as_ref().map_or((0, u32::MAX), |a| (a.tag, a.root));
                    rec.push(Layer::Loopback, tag, root, s, Instant::now());
                    let t0 = Instant::now();
                    daemon.ingest(at, &frame);
                    let t1 = Instant::now();
                    if let Some(a) = who {
                        a.daemon_ns += (t1 - t0).as_nanos() as u64;
                    }
                    rec.push(Layer::Ingest, tag, root, t0, t1);
                }
                Endpoint::Client(id) => {
                    let a = &mut actors[id as usize - 1];
                    rec.push(Layer::Loopback, a.tag, a.root, s, Instant::now());
                    let ev = rec.span(Layer::Client, a.tag, a.root, || {
                        a.client.on_frame(at, &frame)
                    });
                    handle_event(a, ev, at, &mut lb, &mut r, &mut rec);
                }
            }
        }

        // 3. The daemon serves; responses go back through the transport.
        let t0 = Instant::now();
        daemon.poll(now, &mut out);
        let t1 = Instant::now();
        if !out.is_empty() {
            let share = (t1 - t0).as_nanos() as u64 / out.len() as u64;
            let first = &actors[out[0].client as usize - 1];
            rec.push(Layer::Poll, first.tag, first.root, t0, t1);
            for o in out.drain(..) {
                let a = &mut actors[o.client as usize - 1];
                a.daemon_ns += share;
                rec.span(Layer::Loopback, a.tag, a.root, || {
                    lb.send(o.at, Endpoint::Client(o.client), o.frame)
                });
            }
        }

        // 4. Client timers (timeouts, backoff expiries).
        for a in actors.iter_mut() {
            if a.client.deadline().is_some_and(|d| d <= now) {
                let ev = rec.span(Layer::Client, a.tag, a.root, || a.client.on_timer(now));
                handle_event(a, ev, now, &mut lb, &mut r, &mut rec);
            }
        }

        // 5. Idle clients whose think time expired send their next request.
        for a in actors.iter_mut() {
            if a.client.is_idle() && !a.todo.is_empty() && a.wake.is_some_and(|w| w <= now) {
                a.wake = None;
                let (op, budget, kind) = a.next_op(n_hosts);
                a.kind = kind;
                a.daemon_ns = 0;
                a.tag = (a.client.id() << 32) | (a.client.stats.begun + 1);
                a.root = rec.spans.len() as u32;
                let begun = rec.span(Layer::Client, a.tag, a.root, || {
                    a.client.begin(now, op, budget)
                });
                if let Ok(frame) = begun {
                    r.begun += 1;
                    rec.span(Layer::Loopback, a.tag, a.root, || {
                        lb.send(now, Endpoint::Server, frame)
                    });
                }
            }
        }
    }
    r.converged &= actors.iter().all(|a| a.finished());
    r.loop_ns = (t_loop.elapsed().as_nanos() as u64).saturating_sub(check_ns);
    r.virtual_ns = now.as_ns();

    metrics.merge(daemon.metrics());
    r.served = metrics.served;
    r.shed = metrics.shed_overload + metrics.shed_budget;
    r.sent = actors.iter().map(|a| a.client.stats.sent).sum();
    r.retries = actors.iter().map(|a| a.client.stats.retries).sum();
    r.digest = daemon.control_digest();
    r.flows_live = daemon.n_flows() as u64;
    r.end_ok = Daemon::recover(cfg, daemon.store()).is_ok_and(|d| d.control_digest() == r.digest);
    r.spans = rec.spans;
    (r, daemon)
}

fn handle_event(
    a: &mut Actor,
    ev: Event,
    now: SimTime,
    lb: &mut Loopback,
    r: &mut Round,
    rec: &mut Recorder,
) {
    match ev {
        Event::None => {}
        Event::Send(frame) => rec.span(Layer::Loopback, a.tag, a.root, || {
            lb.send(now, Endpoint::Server, frame)
        }),
        Event::GaveUp { .. } => {
            r.gave_up += 1;
            a.tearing = None;
            a.stamping = None;
            a.wake = Some(now + SimDuration::from_ns(a.rng.range_u64(0, 1 + THINK_NS)));
        }
        Event::Done(resp) => {
            r.completed += 1;
            r.samples.push((a.kind, a.daemon_ns));
            match &resp.result {
                Ok(Reply::Setup { flow, .. }) => a.owned.push(*flow),
                Ok(Reply::Teardown) => {
                    if let Some(f) = a.tearing {
                        a.owned.retain(|&x| x != f);
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    r.refused += 1;
                    if let Some(f) = a.tearing.or(a.stamping) {
                        a.owned.retain(|&x| x != f);
                    }
                }
            }
            a.tearing = None;
            a.stamping = None;
            a.wake = Some(now + SimDuration::from_ns(a.rng.range_u64(0, 1 + THINK_NS)));
        }
    }
}

/// Seed of round `k` of a run with `seed`: every round walks a
/// different seeded path, so one run's figures average over many
/// request orders and fault patterns instead of repeating one.
fn round_seed(seed: u64, k: u64) -> u64 {
    SimRng::new(seed).fork(k + 1).next_u64()
}

/// Largest number of per-request samples kept (packed `kind << 30 | ns`).
const MAX_SAMPLES: usize = 1 << 21;

/// Rounds run back to back until the budget is spent.
struct Rounds {
    rounds: Vec<Round>,
    recover_s: Vec<f64>,
    /// Per-request samples of every round, in a buffer touched up front
    /// so that peak memory does not depend on how many rounds ran.
    samples: Vec<u32>,
    n_samples: usize,
    /// Self time per [`Layer`] and traced loop time, over traced rounds.
    self_ns: [u64; 5],
    traced_loop_ns: u64,
    failed: u64,
    attempted: u64,
    last: Option<Daemon>,
    /// Host-speed passes between blocks of rounds (untraced runs only).
    speed: Option<HostSpeed>,
    /// Per round: the factor its block's times were scaled by (1 when
    /// unscaled).
    factors: Vec<f64>,
}

/// Rounds (≈ 60 ms each) between two host-speed passes (≈ 60 ms).
const ROUNDS_PER_PASS: usize = 16;

impl Rounds {
    fn new(short: bool) -> Rounds {
        let cap = if short { 1 << 12 } else { MAX_SAMPLES };
        Rounds {
            rounds: Vec::new(),
            recover_s: Vec::new(),
            samples: vec![u32::MAX; cap],
            n_samples: 0,
            self_ns: [0; 5],
            traced_loop_ns: 0,
            failed: 0,
            attempted: 0,
            last: None,
            speed: None,
            factors: Vec::new(),
        }
    }

    /// Scale the times of the rounds run since the last host-speed pass
    /// (loop time, recovery, request samples) to reference seconds.
    fn scale_block(&mut self, recover_from: usize, samples_from: usize) {
        let Some(speed) = self.speed.as_mut() else {
            return;
        };
        let f = speed.factor();
        for s in &mut self.recover_s[recover_from..] {
            *s *= f;
        }
        for p in &mut self.samples[samples_from..self.n_samples] {
            let ns = ((*p & ((1 << 30) - 1)) as f64 * f).round() as u32;
            *p = (*p & !((1 << 30) - 1)) | ns.min((1 << 30) - 1);
        }
        self.factors.resize(self.rounds.len(), f);
    }

    /// Recover from `store` (timed), run the next round, check it.
    fn one(&mut self, seed: u64, plan: &Plan, store: &Store, trace: bool) {
        let t = Instant::now();
        let recovered = Daemon::recover(daemon_config(), store);
        self.recover_s.push(t.elapsed().as_secs_f64());
        let Ok(daemon) = recovered else {
            self.attempted += 1;
            self.failed += 1;
            return;
        };
        let k = self.rounds.len() as u64;
        let (mut r, d) = round(round_seed(seed, k), plan, daemon, trace);
        self.attempted += r.attempts();
        self.failed += r.failures();
        for (kind, ns) in std::mem::take(&mut r.samples) {
            if self.n_samples < self.samples.len() {
                self.samples[self.n_samples] = (kind as u32) << 30 | ns.min((1 << 30) - 1) as u32;
                self.n_samples += 1;
            }
        }
        if trace {
            self.traced_loop_ns += r.loop_ns;
            for sp in &r.spans {
                let i = Layer::ALL
                    .iter()
                    .position(|l| *l == sp.layer)
                    .expect("known layer");
                self.self_ns[i] += sp.end_ns - sp.start_ns;
            }
            if k > 0 {
                r.spans = Vec::new();
            }
        }
        self.rounds.push(r);
        self.last = Some(d);
    }

    /// Run round 0 again, untimed: it must reproduce its first run
    /// exactly (digest, answers, daemon count, virtual time).
    fn verify(&mut self, seed: u64, plan: &Plan, store: &Store) {
        let id = |r: &Round| (r.digest, r.completed, r.served, r.virtual_ns);
        self.attempted += 1;
        let again = Daemon::recover(daemon_config(), store)
            .map(|d| round(round_seed(seed, 0), plan, d, false).0);
        let same = match (&again, self.rounds.first()) {
            (Ok(a), Some(first)) => id(a) == id(first),
            _ => false,
        };
        self.failed += !same as u64;
    }

    /// Loop seconds per round (reference seconds where scaled).
    fn loop_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, r)| r.loop_ns as f64 / 1e9 * self.factors.get(i).unwrap_or(&1.0))
            .collect()
    }

    /// Daemon µs per answered request, of one kind or (`None`) all.
    fn serve_us(&self, kind: Option<u8>) -> Vec<f64> {
        self.samples[..self.n_samples]
            .iter()
            .filter(|&&p| kind.is_none_or(|k| p >> 30 == k as u32))
            .map(|&p| (p & ((1 << 30) - 1)) as f64 / 1e3)
            .collect()
    }

    /// Run rounds until `seconds` have passed (at least `min` rounds).
    fn run(
        &mut self,
        seed: u64,
        plan: &Plan,
        store: &Store,
        trace: bool,
        seconds: f64,
        min: usize,
    ) {
        let start = Instant::now();
        let (mut recover_from, mut samples_from) = (0, 0);
        while self.rounds.len() < min || start.elapsed().as_secs_f64() < seconds {
            let before = self.rounds.len();
            self.one(seed, plan, store, trace);
            if self.rounds.len() == before {
                break;
            }
            if self.rounds.len().is_multiple_of(ROUNDS_PER_PASS) {
                self.scale_block(recover_from, samples_from);
                (recover_from, samples_from) = (self.recover_s.len(), self.n_samples);
            }
        }
        if !self.rounds.len().is_multiple_of(ROUNDS_PER_PASS) {
            self.scale_block(recover_from, samples_from);
        }
    }
}

fn counts(out: &mut Outcome, first: Option<&Round>, pre_flows: usize) {
    let r = first.cloned().unwrap_or_default();
    out.counts = vec![
        ("control_digest", r.digest),
        ("requests_served", r.served),
        ("requests_completed", r.completed),
        ("requests_begun", r.begun),
        ("virtual_ns", r.virtual_ns),
        ("pre_flows", pre_flows as u64),
        ("flows_live", r.flows_live),
    ];
}

/// Untraced end-to-end measurement.
pub fn measure(seed: u64, budget: Budget) -> Outcome {
    let plan = Plan::of(budget.short);
    let (store, pre_flows) = prepopulate(seed, &plan);
    let mut rs = Rounds::new(budget.short);
    rs.speed = Some(HostSpeed::start(wall_s));
    rs.run(seed, &plan, &store, false, budget.seconds, budget.min_reps);
    rs.verify(seed, &plan, &store);
    let mut out = Outcome {
        attempted: rs.attempted,
        failed: rs.failed,
        ..Outcome::default()
    };
    let loop_s = rs.loop_s();
    let sim_rates: Vec<f64> = rs
        .rounds
        .iter()
        .zip(&loop_s)
        .map(|(r, s)| r.virtual_ns as f64 / s)
        .collect();
    let req_rates: Vec<f64> = rs
        .rounds
        .iter()
        .zip(&loop_s)
        .map(|(r, s)| r.completed as f64 / s)
        .collect();
    let samples = rs.serve_us(None);
    out.metric("sim_ns_per_s", median(&sim_rates), "ns/s");
    out.metric("setup_s", median(&rs.recover_s), "s");
    let speed = rs.speed.take().expect("measured with host-speed passes");
    out.metric("peak_rss_mb", peak_rss_mib() - speed.resident_mib, "MiB");
    out.metric("requests_per_s", median(&req_rates), "1/s");
    out.metric("request_p50_us", median(&samples), "us");
    out.metric("request_p99_us", quantile(&samples, 0.99), "us");
    counts(&mut out, rs.rounds.first(), pre_flows);
    let r0 = rs.rounds.first().cloned().unwrap_or_default();
    let _ = writeln!(
        out.report,
        "dqosd_churn: {} rounds of {} requests ({} clients), {} pre-populated flows, {} live at round 0's end\n  \
         {} request samples; round 0: {} retries of {} frames, {} shed, {} kills; loop s median {:.4} (reference)\n  \
         host-speed pass s: {}\n  unscaled: {:.0} requests/s",
        rs.rounds.len(),
        r0.begun,
        plan.clients,
        pre_flows,
        r0.flows_live,
        samples.len(),
        r0.retries,
        r0.sent,
        r0.shed,
        r0.kills_ok,
        median(&loop_s),
        speed
            .passes
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        median(
            &rs.rounds
                .iter()
                .map(|r| r.completed as f64 * 1e9 / r.loop_ns as f64)
                .collect::<Vec<_>>()
        )
    );
    out
}

/// `dqosd::wire`: ns per request+response encode/decode round trip over
/// the churn's op mix.
fn wire_roundtrip(slice_s: f64) -> f64 {
    let mut rng = SimRng::new(0x7769_7265);
    let msgs: Vec<(Request, Response)> = (0..1_000u64)
        .map(|i| {
            let (op, reply) = match i % 20 {
                0..=9 => (
                    random_setup(&mut rng, i % 2 == 0, 128),
                    Reply::Setup {
                        flow: i,
                        choice: 3,
                        reserved: true,
                    },
                ),
                10..=14 => (
                    Op::Stamp {
                        flow: i,
                        len: 1024,
                        parts: 2,
                    },
                    Reply::Stamp {
                        deadline_ns: i * 999,
                        eligible_ns: None,
                    },
                ),
                15..=17 => (Op::Teardown { flow: i }, Reply::Teardown),
                _ => (Op::Ping, Reply::Pong),
            };
            (
                Request {
                    client: 1 + i % 16,
                    id: i,
                    budget_ns: 500_000,
                    op,
                },
                Response {
                    id: i,
                    result: Ok(reply),
                },
            )
        })
        .collect();
    ns_per_item(slice_s, 3, || {
        let mut acc = 0u64;
        for (q, p) in &msgs {
            let q2 = Request::decode(&q.encode()).expect("request round trip");
            let p2 = Response::decode(&p.encode()).expect("response round trip");
            acc = acc.wrapping_add(q2.id ^ p2.id);
        }
        black_box(acc);
        msgs.len() as u64
    })
}

/// `dqosd::journal`: ns per record appended and scanned back.
fn journal_record(slice_s: f64) -> f64 {
    let recs: Vec<Record> = (0..4_096u64)
        .map(|i| {
            if i % 4 == 3 {
                Record::Teardown {
                    client: 1 + i % 16,
                    req: i,
                    flow: i / 2,
                }
            } else {
                Record::Setup {
                    client: 1 + i % 16,
                    req: i,
                    flow: i,
                    class: if i % 2 == 0 {
                        ReqClass::Guaranteed
                    } else {
                        ReqClass::BestEffort
                    },
                    src: (i % 128) as u32,
                    dst: ((i * 7 + 1) % 128) as u32,
                    bw: 25_000_000,
                    choice: (i % 8) as u16,
                    reserved: i % 2 == 0,
                }
            }
        })
        .collect();
    let mut journal = Vec::with_capacity(1 << 18);
    ns_per_item(slice_s, 3, || {
        journal.clear();
        for r in &recs {
            append_record(&mut journal, r);
        }
        let (back, valid) = scan(&journal);
        assert!(
            back.len() == recs.len() && valid == journal.len(),
            "journal scan lost records"
        );
        recs.len() as u64
    })
}

/// Traced run: untraced and traced rounds (the ratio of their loop
/// times is the tracing overhead), spans of the first traced round
/// written out, per-layer self time, and the daemon's components timed
/// on the round's end state.
pub fn ledger(seed: u64, budget: Budget) -> Outcome {
    let plan = Plan::of(budget.short);
    let (store, pre_flows) = prepopulate(seed, &plan);
    let part = budget.seconds * 0.3;
    let mut plain = Rounds::new(budget.short);
    plain.run(seed, &plan, &store, false, part, budget.min_reps);
    let mut traced = Rounds::new(budget.short);
    traced.run(seed, &plan, &store, true, part, budget.min_reps);
    traced.verify(seed, &plan, &store);
    let mut out = Outcome {
        attempted: plain.attempted + traced.attempted + 1,
        failed: plain.failed + traced.failed,
        ..Outcome::default()
    };
    // Tracing must not change the path: round 0 is identical either way.
    let id = |rs: &Rounds| {
        rs.rounds
            .first()
            .map(|r| (r.digest, r.completed, r.served, r.virtual_ns))
    };
    out.failed += (id(&plain) != id(&traced)) as u64;

    // Self time per layer over the traced rounds (the benchmark's calls
    // into the layers never nest, so a span's self time is its length).
    let self_ns = traced.self_ns;
    let loop_ns = traced.traced_loop_ns;
    let spanned: u64 = self_ns.iter().sum();

    let slice = if budget.short {
        0.01
    } else {
        budget.seconds * 0.3 / 8.0
    };
    let daemon = traced
        .last
        .take()
        .or(plain.last.take())
        .expect("at least one round ran");
    let digest_us = ns_per_item(slice, 5, || {
        black_box(daemon.control_digest());
        1
    }) / 1e3;
    let snapshot_ms = {
        let mut d = Daemon::recover(daemon_config(), daemon.store()).expect("end state recovers");
        ns_per_item(slice, 3, || {
            d.take_snapshot();
            1
        }) / 1e6
    };
    let wire_ns = wire_roundtrip(slice);
    let journal_ns = journal_record(slice);
    let stamp_ns = layers::stamp_packet(slice);
    let admit_us = layers::admission_pair_us(ClosParams::paper(), slice);
    let topo_ms = layers::topology_build_ms(ClosParams::paper(), slice);

    let all: Vec<&Round> = plain.rounds.iter().chain(&traced.rounds).collect();
    let serve_us = |k: u8| {
        let mut xs = plain.serve_us(Some(k));
        xs.extend(traced.serve_us(Some(k)));
        median(&xs)
    };
    let sum = |f: fn(&Round) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
    let recover_s: Vec<f64> = plain
        .recover_s
        .iter()
        .chain(&traced.recover_s)
        .copied()
        .collect();
    let overhead = median(&traced.loop_s()) / median(&plain.loop_s());

    let _ = writeln!(
        out.report,
        "dqosd_churn ledger (seed {seed}): {} untraced + {} traced rounds, {} pre-populated flows, tracing overhead x{overhead:.3}",
        plain.rounds.len(),
        traced.rounds.len(),
        pre_flows
    );
    let _ = writeln!(
        out.report,
        "  {:<32} {:>12} {:>7}",
        "layer (self time, traced rounds)", "ms", "share"
    );
    for (l, ns) in Layer::ALL.iter().zip(self_ns) {
        let _ = writeln!(
            out.report,
            "  {:<32} {:>12.2} {:>6.1}%",
            l.name(),
            ns as f64 / 1e6,
            100.0 * ns as f64 / loop_ns as f64
        );
    }
    let _ = writeln!(
        out.report,
        "  {:<32} {:>12.2} {:>6.1}%",
        "unexplained (loop bookkeeping)",
        loop_ns.saturating_sub(spanned) as f64 / 1e6,
        100.0 * (1.0 - spanned as f64 / loop_ns as f64)
    );
    let _ = writeln!(
        out.report,
        "  daemon serve us: setup {:.2}, stamp {:.2}, teardown {:.2}, query {:.2}; digest {digest_us:.1} us at {} flows; snapshot {snapshot_ms:.3} ms",
        serve_us(0),
        serve_us(1),
        serve_us(2),
        serve_us(3),
        daemon.n_flows()
    );

    per_layer_metrics(
        &mut out,
        &[
            ("stamp.ns_per_packet", stamp_ns),
            ("admission.us_per_admit", admit_us),
            ("topology.build_ms", topo_ms),
            ("trace.overhead_ratio", overhead),
            ("wire.ns_per_roundtrip", wire_ns),
            ("daemon.serve_us.setup", serve_us(0)),
            ("daemon.serve_us.stamp", serve_us(1)),
            ("daemon.serve_us.teardown", serve_us(2)),
            ("daemon.serve_us.query", serve_us(3)),
            ("daemon.digest_us", digest_us),
            ("journal.ns_per_record", journal_ns),
            ("snapshot.ms", snapshot_ms),
            ("recover.ms", median(&recover_s) * 1e3),
            (
                "dqosd.shed_ratio",
                sum(|r| r.shed) / sum(|r| r.served).max(1.0),
            ),
            (
                "client.retry_ratio",
                sum(|r| r.retries) / sum(|r| r.sent).max(1.0),
            ),
        ],
    );
    counts(&mut out, traced.rounds.first(), pre_flows);

    let spans: String = traced
        .rounds
        .first()
        .map(|r| {
            r.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    format!(
                        "{{\"id\": {i}, \"cause\": {}, \"req\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                        if s.cause == u32::MAX { -1 } else { s.cause as i64 },
                        s.req,
                        s.layer.name(),
                        s.start_ns,
                        s.end_ns
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    out.files
        .push(("dqosd_churn.spans.jsonl".to_string(), spans));
    out.files
        .push(("dqosd_churn.ledger.txt".to_string(), out.report.clone()));
    out
}
