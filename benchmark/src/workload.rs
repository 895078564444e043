//! The four traffic mixes, one round at a time.
//!
//! A round is an OLAP section followed by an OLTP section. The workload
//! decides who runs each section and how large it is, but every workload
//! runs both, so every end-to-end metric has the same definition on every
//! workload. Load comes from at most two client threads.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use apuama_storage::Row;
use apuama_tpch::RefreshTransaction;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cluster::Cluster;
use crate::inputs::{self, OlapStatement, OltpRound, OltpShape, READ_BLOCK};
use crate::oracle::{compare_rows, Baseline, Tally};
use crate::trace::{SpanId, Tracer, NONE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OlapPower,
    OlapStreams,
    MixedRefresh,
    OltpPassthrough,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OlapPower,
        Workload::OlapStreams,
        Workload::MixedRefresh,
        Workload::OltpPassthrough,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapPower => "olap_power",
            Workload::OlapStreams => "olap_streams",
            Workload::MixedRefresh => "mixed_refresh",
            Workload::OltpPassthrough => "oltp_passthrough",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The query streams whose passes run in the OLAP section.
    pub fn streams(self) -> &'static [u64] {
        match self {
            Workload::OlapStreams => &[1, 2],
            _ => &[0],
        }
    }
}

/// The serial OLTP probe of `olap_power` and `olap_streams`; its reads are
/// also what `mixed_refresh`'s reader sends between passes.
pub const PROBE: OltpShape = OltpShape {
    reads: 500,
    refresh_pairs: 50,
    aggregates: 0,
};

/// `oltp_passthrough`'s OLTP section, per client: this many blocks, each
/// [`READ_BLOCK`] point reads followed by [`PASSTHROUGH_WRITES`] times
/// (insert transaction, short SVP aggregate, delete transaction). Sized so
/// that the section lasts about as long as one OLAP pass, and mixed so that
/// the middleware layers, not the engine, hold the largest share of it (a
/// point read alone is three-quarters engine time).
pub const PASSTHROUGH_BLOCKS: usize = 32;
pub const PASSTHROUGH_WRITES: usize = 5;

/// Open-loop rate of `mixed_refresh`'s refresh stream.
pub const REFRESH_RATE_PER_S: f64 = 10.0;

/// One timed 8-query pass.
#[derive(Debug, Clone, Copy)]
pub struct PassSample {
    pub stream: u64,
    pub ms: f64,
    /// Spans were being recorded while it ran.
    pub traced: bool,
}

/// Everything the clients measured.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub passes: Vec<PassSample>,
    /// `(stream, query index, ms)` per evaluation query sent.
    pub queries: Vec<(u64, usize, f64)>,
    /// OLAP queries completed and wall time spent in OLAP sections.
    pub olap_queries: u64,
    pub olap_section_s: f64,
    /// Latency of every insert and every delete refresh transaction, in
    /// ms. Kept apart because an insert costs three times a delete: pooled,
    /// the closed-loop latencies are bimodal and their median is unstable.
    pub refresh_insert_ms: Vec<f64>,
    pub refresh_delete_ms: Vec<f64>,
    /// Open loop only: how late each transaction was sent, in ms.
    pub send_lag_ms: Vec<f64>,
    /// Per block of [`READ_BLOCK`] point reads: block time ÷ block size.
    pub read_block_us: Vec<f64>,
    /// Traced rounds only: every point read on its own.
    pub read_us: Vec<f64>,
    pub short_aggregate_us: Vec<f64>,
    /// Statements sent and wall time spent in OLTP sections.
    pub oltp_statements: u64,
    pub oltp_section_s: f64,
    /// One reading of the host's memory latency after every round, in ns
    /// (`host::MemoryProbe`).
    pub mem_latency_ns: Vec<f64>,
    pub tally: Tally,
    /// FNV-1a over every statement sent, client by client.
    pub statement_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Samples {
    pub fn new() -> Samples {
        Samples {
            statement_hash: FNV_OFFSET,
            ..Samples::default()
        }
    }

    fn hash_statement(&mut self, sql: &str) {
        let mut h = self.statement_hash;
        for b in sql.bytes().chain(std::iter::once(b';')) {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.statement_hash = h;
    }

    /// Folds another client's samples in; hashes combine in call order.
    pub fn merge(&mut self, other: Samples) {
        self.passes.extend(other.passes);
        self.queries.extend(other.queries);
        self.olap_queries += other.olap_queries;
        self.olap_section_s += other.olap_section_s;
        self.refresh_insert_ms.extend(other.refresh_insert_ms);
        self.refresh_delete_ms.extend(other.refresh_delete_ms);
        self.send_lag_ms.extend(other.send_lag_ms);
        self.read_block_us.extend(other.read_block_us);
        self.read_us.extend(other.read_us);
        self.short_aggregate_us.extend(other.short_aggregate_us);
        self.oltp_statements += other.oltp_statements;
        self.oltp_section_s += other.oltp_section_s;
        self.mem_latency_ns.extend(other.mem_latency_ns);
        self.tally.merge(other.tally);
        self.statement_hash = (self.statement_hash ^ other.statement_hash).wrapping_mul(FNV_PRIME);
    }

    pub fn passes_of(&self, stream: u64) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|p| p.stream == stream)
            .map(|p| p.ms)
            .collect()
    }

    pub fn refresh_txns(&self) -> usize {
        self.refresh_insert_ms.len() + self.refresh_delete_ms.len()
    }

    /// Latencies of all refresh transactions, inserts first.
    pub fn refresh_txn_ms(&self) -> Vec<f64> {
        [&self.refresh_insert_ms[..], &self.refresh_delete_ms[..]].concat()
    }

    /// Point reads, refresh transactions and short aggregates sent.
    pub fn short_operations(&self) -> u64 {
        (self.read_block_us.len() * READ_BLOCK
            + self.refresh_txns()
            + self.short_aggregate_us.len()) as u64
    }
}

/// One client thread: sends statements through the controller, times them
/// and checks the answers.
struct Client<'a> {
    cluster: &'a Cluster,
    /// Set on traced rounds.
    tracer: Option<&'a Tracer>,
    out: Samples,
}

impl<'a> Client<'a> {
    fn new(cluster: &'a Cluster, tracer: Option<&'a Tracer>) -> Client<'a> {
        Client {
            cluster,
            tracer,
            out: Samples::new(),
        }
    }

    fn span(&self, name: &'static str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        match self.tracer {
            Some(t) => {
                let request = t.alloc_id();
                t.record(name, "cjdbc", parent, request, start, end)
            }
            None => NONE,
        }
    }

    /// Sends one read; `None` if the controller returned an error (which
    /// includes a shed statement).
    fn send(&mut self, sql: &str) -> Option<Vec<Row>> {
        let result = self.cluster.controller.execute(sql);
        self.out
            .tally
            .record(sql, result)
            .map(|(out, _backend)| out.rows)
    }

    /// [`Client::send`], timed, and recorded as a span on traced rounds.
    fn read(&mut self, sql: &str, parent: SpanId) -> (Option<Vec<Row>>, Duration) {
        let start = Instant::now();
        let rows = self.send(sql);
        let end = Instant::now();
        self.span("controller.execute", parent, start, end);
        (rows, end - start)
    }

    /// Runs one 8-query pass. With `verify`, each answer is compared with
    /// its reference once the pass is over.
    fn olap_pass(&mut self, stream: u64, pass: &[OlapStatement], verify: bool, parent: SpanId) {
        let mut answers = Vec::with_capacity(pass.len());
        let mut total = Duration::ZERO;
        for st in pass {
            self.out.hash_statement(&st.sql);
            let (rows, took) = self.read(&st.sql, parent);
            total += took;
            self.out
                .queries
                .push((stream, st.index, took.as_secs_f64() * 1e3));
            answers.push(rows);
        }
        self.out.olap_queries += pass.len() as u64;
        self.out.passes.push(PassSample {
            stream,
            ms: total.as_secs_f64() * 1e3,
            traced: self.tracer.is_some(),
        });
        if verify {
            let set = inputs::param_set_of(stream);
            for (st, rows) in pass.iter().zip(&answers) {
                if let Some(rows) = rows {
                    let reference = &self.cluster.references[set][st.index];
                    let ordered = inputs::is_ordered(st.query);
                    self.out
                        .tally
                        .check(&st.query.label(), compare_rows(reference, rows, ordered));
                }
            }
        }
    }

    /// Point reads in blocks of [`READ_BLOCK`]; answers are checked against
    /// the generator's rows after each block.
    fn read_blocks(&mut self, reads: &[(i64, String)], parent: SpanId) {
        for block in reads.chunks(READ_BLOCK) {
            for (_, sql) in block {
                self.out.hash_statement(sql);
            }
            let mut answers = Vec::with_capacity(block.len());
            let start = Instant::now();
            if self.tracer.is_some() {
                for (_, sql) in block {
                    let (rows, took) = self.read(sql, parent);
                    self.out.read_us.push(took.as_secs_f64() * 1e6);
                    answers.push(rows);
                }
            } else {
                for (_, sql) in block {
                    answers.push(self.send(sql));
                }
            }
            let took = start.elapsed();
            self.out
                .read_block_us
                .push(took.as_secs_f64() * 1e6 / block.len() as f64);
            self.out.oltp_statements += block.len() as u64;
            for ((key, _), rows) in block.iter().zip(&answers) {
                if let Some(rows) = rows {
                    self.check_point_read(*key, rows);
                }
            }
        }
    }

    fn check_point_read(&mut self, key: i64, rows: &[Row]) {
        let expected = [self.cluster.expected_point_read(key)];
        self.out
            .tally
            .check("point read", compare_rows(&expected, rows, true));
    }

    /// Sends one refresh transaction and records its latency, measured from
    /// `due` when the caller runs an open loop.
    fn refresh(&mut self, txn: &RefreshTransaction, due: Option<Instant>, parent: SpanId) {
        for s in &txn.statements {
            self.out.hash_statement(s);
        }
        let start = Instant::now();
        let result = self
            .cluster
            .controller
            .execute_write_transaction(&txn.statements);
        let end = Instant::now();
        self.span("controller.execute_write_transaction", parent, start, end);
        let what = format!("refresh of order {}", txn.orderkey);
        self.out.tally.record(&what, result);
        self.out.oltp_statements += 1;
        if let Some(due) = due {
            self.out
                .send_lag_ms
                .push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        let ms = end
            .saturating_duration_since(due.unwrap_or(start))
            .as_secs_f64()
            * 1e3;
        if txn.is_insert {
            self.out.refresh_insert_ms.push(ms);
        } else {
            self.out.refresh_delete_ms.push(ms);
        }
    }

    fn short_aggregate(&mut self, lo: i64, sql: &str, parent: SpanId) {
        self.out.hash_statement(sql);
        let (rows, took) = self.read(sql, parent);
        self.out.short_aggregate_us.push(took.as_secs_f64() * 1e6);
        self.out.oltp_statements += 1;
        if let Some(rows) = rows {
            let expected = [self.cluster.expected_short_aggregate(lo)];
            let what = format!("short aggregate from order {lo}");
            self.out
                .tally
                .check(&what, compare_rows(&expected, &rows, true));
        }
    }

    /// The serial probe: all reads, then all inserts, then all deletes.
    fn probe(&mut self, inputs: &OltpRound, parent: SpanId) {
        self.read_blocks(&inputs.reads, parent);
        for t in inputs.inserts.iter().chain(&inputs.deletes) {
            self.refresh(t, None, parent);
        }
    }

    /// `oltp_passthrough`'s section for one client, block after block.
    fn passthrough_blocks(&mut self, inputs: &OltpRound, parent: SpanId) {
        let blocks = inputs.reads.len() / READ_BLOCK;
        for b in 0..blocks {
            self.read_blocks(&inputs.reads[b * READ_BLOCK..(b + 1) * READ_BLOCK], parent);
            let writes = b * PASSTHROUGH_WRITES..(b + 1) * PASSTHROUGH_WRITES;
            for i in writes {
                self.refresh(&inputs.inserts[i], None, parent);
                let (lo, sql) = &inputs.aggregates[i];
                self.short_aggregate(*lo, sql, parent);
                self.refresh(&inputs.deletes[i], None, parent);
            }
        }
    }
}

/// Per-run state the rounds share.
pub struct Runner<'a> {
    pub cluster: &'a Cluster,
    workload: Workload,
    seed: u64,
    passes: Vec<Vec<OlapStatement>>,
}

/// What one round took.
pub struct RoundOutcome {
    pub samples: Samples,
    /// Wall time of the round's timed sections, in seconds.
    pub measured_s: f64,
}

impl<'a> Runner<'a> {
    pub fn new(cluster: &'a Cluster, workload: Workload, seed: u64) -> Runner<'a> {
        Runner {
            cluster,
            workload,
            seed,
            passes: workload
                .streams()
                .iter()
                .map(|&s| inputs::olap_pass(s))
                .collect(),
        }
    }

    /// Starts a section; on traced rounds its span id is reserved now so
    /// the requests inside can name it as their parent.
    fn open_section(tracer: Option<&Tracer>) -> (SpanId, Instant) {
        (tracer.map_or(NONE, Tracer::alloc_id), Instant::now())
    }

    /// Ends a section; returns its wall time in seconds.
    fn close_section(
        tracer: Option<&Tracer>,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        start: Instant,
    ) -> f64 {
        let end = Instant::now();
        if let Some(t) = tracer {
            t.record_as(id, name, "client", parent, NONE, start, end);
        }
        (end - start).as_secs_f64()
    }

    /// Runs `work` once per item, each on a client of its own; with more
    /// than one item the clients are threads released together.
    fn clients<T: Sync>(
        &self,
        tracer: Option<&Tracer>,
        items: &[T],
        work: impl Fn(&mut Client, &T) + Sync,
    ) -> Samples {
        if let [only] = items {
            let mut c = Client::new(self.cluster, tracer);
            work(&mut c, only);
            return c.out;
        }
        let gate = Barrier::new(items.len());
        std::thread::scope(|s| {
            let threads: Vec<_> = items
                .iter()
                .map(|item| {
                    let (gate, work) = (&gate, &work);
                    s.spawn(move || {
                        let mut c = Client::new(self.cluster, tracer);
                        gate.wait();
                        work(&mut c, item);
                        c.out
                    })
                })
                .collect();
            let mut merged = Samples::new();
            for t in threads {
                merged.merge(t.join().expect("client thread panicked"));
            }
            merged
        })
    }

    /// The OLAP section: one pass per stream, concurrently when there are
    /// two. Answers are compared with the references unless a refresh
    /// stream is running beside the pass.
    fn olap_section(&self, tracer: Option<&Tracer>, parent: SpanId) -> Samples {
        let verify = self.workload != Workload::MixedRefresh;
        let streams: Vec<_> = self.workload.streams().iter().zip(&self.passes).collect();
        let (id, start) = Self::open_section(tracer);
        let mut samples = self.clients(tracer, &streams, |c, (stream, pass)| {
            c.olap_pass(**stream, pass, verify, id);
        });
        samples.olap_section_s = Self::close_section(tracer, id, "olap_section", parent, start);
        samples
    }

    /// The OLTP section of `round`: the serial probe (reads only beside a
    /// refresh stream), or `oltp_passthrough`'s two clients on disjoint
    /// keys.
    fn oltp_section(&self, round: u64, tracer: Option<&Tracer>, parent: SpanId) -> Samples {
        let (shape, clients) = match self.workload {
            Workload::OlapPower | Workload::OlapStreams => (PROBE, 1),
            Workload::MixedRefresh => (
                OltpShape {
                    refresh_pairs: 0,
                    ..PROBE
                },
                1,
            ),
            Workload::OltpPassthrough => (
                OltpShape {
                    reads: PASSTHROUGH_BLOCKS * READ_BLOCK,
                    refresh_pairs: PASSTHROUGH_BLOCKS * PASSTHROUGH_WRITES,
                    aggregates: PASSTHROUGH_BLOCKS * PASSTHROUGH_WRITES,
                },
                2,
            ),
        };
        let inputs: Vec<OltpRound> = (0..clients)
            .map(|c| inputs::oltp_round(&self.cluster.tpch, shape, self.seed, round, c, clients))
            .collect();
        let (id, start) = Self::open_section(tracer);
        let mut samples = self.clients(tracer, &inputs, |c, inputs| {
            if self.workload == Workload::OltpPassthrough {
                c.passthrough_blocks(inputs, id);
            } else {
                c.probe(inputs, id);
            }
        });
        samples.oltp_section_s = Self::close_section(tracer, id, "oltp_section", parent, start);
        samples
    }

    /// Every section that inserts also deletes what it inserted, so the
    /// reference answers stay valid for the next pass; this checks it did.
    fn check_baseline(&self, samples: &mut Samples) {
        for node in &self.cluster.nodes {
            let now = Baseline::of(node);
            if now != self.cluster.baseline {
                samples
                    .tally
                    .fail(|| format!("{} is off baseline after the section: {now:?}", node.name()));
            }
        }
    }

    /// One round: OLAP section, then OLTP section (`oltp_passthrough` runs
    /// them the other way round, as its traffic is mostly OLTP).
    pub fn round(&self, round: u64, tracer: Option<&Tracer>) -> RoundOutcome {
        let id = tracer.map_or(NONE, Tracer::alloc_id);
        let start = Instant::now();
        let mut samples = Samples::new();
        if self.workload == Workload::OltpPassthrough {
            samples.merge(self.oltp_section(round, tracer, id));
            self.check_baseline(&mut samples);
            samples.merge(self.olap_section(tracer, id));
        } else {
            samples.merge(self.olap_section(tracer, id));
            samples.merge(self.oltp_section(round, tracer, id));
            if self.workload != Workload::MixedRefresh {
                self.check_baseline(&mut samples);
            }
        }
        if let Some(t) = tracer {
            t.record_as(id, "round", "client", NONE, NONE, start, Instant::now());
        }
        let measured_s = samples.olap_section_s + samples.oltp_section_s;
        RoundOutcome {
            samples,
            measured_s,
        }
    }

    /// One power-order pass with every answer compared against its
    /// reference: the final check of a run that could not compare while it
    /// measured.
    pub fn verified_pass(&self) -> Tally {
        let mut c = Client::new(self.cluster, None);
        c.olap_pass(0, &inputs::olap_pass(0), true, NONE);
        c.out.tally
    }

    /// `mixed_refresh`'s second client: sends the two-phase refresh stream
    /// on a schedule fixed in advance, whatever the cluster does, and times
    /// each transaction from the moment it was due. Transaction `i` is due
    /// at a seeded uniform offset inside the `i`-th slot of
    /// `1 / REFRESH_RATE_PER_S` seconds after `epoch`: an evenly spaced
    /// schedule locks in phase with the reader's near-periodic passes, and
    /// the latency then depends on where in the pass the ticks happen to
    /// fall in that run.
    pub fn refresh_writer(&self, stream: &[RefreshTransaction], epoch: Instant) -> Samples {
        let mut offsets = StdRng::seed_from_u64(inputs::round_seed(self.seed, 0, 9));
        let mut c = Client::new(self.cluster, None);
        for (i, txn) in stream.iter().enumerate() {
            let slot = i as f64 + offsets.random_range(0..1_000_000) as f64 / 1e6;
            let due = epoch + Duration::from_secs_f64(slot / REFRESH_RATE_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            c.refresh(txn, Some(due), NONE);
        }
        c.out
    }
}
