//! The three workloads and the inputs a seed generates for them.
//!
//! Every workload drives the paper's Quantum Viking 2.1 fleet with
//! `serve`'s stored objects (Gamma(200 KB, (100 KB)²) fragments, one
//! content id per object). They differ in which layers they load; see
//! `README.md` for why each exists.

use mzd_cluster::ClusterConfig;
use mzd_workload::{ObjectSpec, SizeDistribution, Zipf};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How requests reach the fleet once the initial population is in.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Every completion re-draws one request (`serve`'s constant
    /// offered load).
    Closed,
    /// Poisson arrivals in simulated time at `load` × the fleet's
    /// completion rate at composed capacity, independent of what the
    /// fleet does with them.
    Open { load: f64 },
}

/// One workload: fleet shape, catalog, arrival process and the layers
/// switched on.
pub struct Shape {
    pub name: &'static str,
    pub nodes: u32,
    pub disks: u32,
    /// Round length, seconds.
    pub round_length: f64,
    /// Rounds served per pass.
    pub rounds: u64,
    /// Passes whose simulated statistics make the result. A run makes
    /// at least these, and further passes until `--seconds` is spent.
    pub passes: u32,
    /// Set-up-only repetitions after each pass, for the `setup_s`
    /// median.
    pub extra_setups: u32,
    /// Catalog size and Zipf skew (0 = uniform).
    pub objects: usize,
    pub zipf: f64,
    /// Object length in rounds, drawn uniformly from this range.
    pub object_rounds: (u32, u32),
    pub arrivals: Arrivals,
    /// Per-node LRU fragment cache, bytes.
    pub cache_bytes: Option<f64>,
    /// `serve --fault-profile` spec applied to the node template.
    pub faults: Option<&'static str>,
    /// Scripted whole-node outages: every `period` rounds (from
    /// `period / 2`), the next node in turn goes silent for `length`
    /// rounds, so the lease table expires it and its streams migrate.
    pub outages: Option<(u64, u64)>,
    /// The operator stack: `enable_health`, `enable_tracing`,
    /// `attach_recorders`, and the Prometheus and JSON exposition
    /// rendered every round.
    pub operator_stack: bool,
}

/// The node a gray fault profile degrades.
const GRAY_NODE: u32 = 2;

pub const NAMES: [&str; 3] = ["steady", "churn", "observed"];

/// The named workload. `quick` keeps the same layers and code path at
/// tiny lengths, for the self-test.
pub fn shape(name: &str, quick: bool) -> Option<Shape> {
    let mut shape = match name {
        // The serving hot path alone, at the `experiments -- fleet`
        // batch size: n* = 267 streams per disk, 16k streams. The large
        // catalog keeps concurrent readers on a disk independent (see
        // README.md).
        "steady" => Shape {
            name: "steady",
            nodes: 16,
            disks: 4,
            round_length: 8.0,
            rounds: 1_200,
            passes: 6,
            extra_setups: 0,
            objects: 65_536,
            zipf: 0.0,
            object_rounds: (3_000, 3_000),
            arrivals: Arrivals::Closed,
            cache_bytes: None,
            faults: None,
            outages: None,
            operator_stack: false,
        },
        // The control plane and the cache: short objects, open-loop
        // arrivals above the completion rate, a Zipf hot set larger
        // than each node's cache.
        "churn" => Shape {
            name: "churn",
            nodes: 32,
            disks: 2,
            round_length: 1.0,
            rounds: 1_100,
            passes: 12,
            extra_setups: 2,
            objects: 400,
            zipf: 1.0,
            object_rounds: (20, 60),
            arrivals: Arrivals::Open { load: 1.2 },
            cache_bytes: Some(48e6),
            faults: None,
            outages: Some((400, 20)),
            operator_stack: false,
        },
        // The operator stack during a gray-failure incident.
        "observed" => Shape {
            name: "observed",
            nodes: 16,
            disks: 1,
            round_length: 1.0,
            rounds: 500,
            passes: 24,
            extra_setups: 1,
            objects: 16,
            zipf: 0.0,
            object_rounds: (600, 600),
            arrivals: Arrivals::Closed,
            cache_bytes: None,
            faults: Some("media=0.01,gray=creep:40:200:2.5"),
            outages: None,
            operator_stack: true,
        },
        _ => return None,
    };
    if quick {
        shape.nodes = shape.nodes.min(4);
        shape.rounds = shape.rounds.min(40);
        shape.passes = 2;
        shape.extra_setups = shape.extra_setups.min(1);
        shape.objects = shape.objects.min(400);
        if shape.outages.is_some() {
            shape.outages = Some((16, 4));
        }
        if shape.faults.is_some() {
            shape.faults = Some("media=0.01,gray=creep:4:8:2.5");
        }
    }
    Some(shape)
}

impl Shape {
    /// Whether the host glitch rate is held to the composed per-round
    /// bound: admission does not price injected faults.
    pub fn bound_applies(&self) -> bool {
        self.faults.is_none()
    }

    /// The fleet configuration `serve --nodes` would build for this
    /// shape.
    pub fn config(&self) -> Result<ClusterConfig, String> {
        let mut cfg =
            ClusterConfig::paper_reference(self.nodes, self.disks).map_err(|e| e.to_string())?;
        cfg.node.round_length = self.round_length;
        if let Some(bytes) = self.cache_bytes {
            cfg.node.cache = Some(mzd_server::CacheSettings::lru(bytes));
        }
        if let Some(spec) = self.faults {
            cfg.node.faults = Some(mzd_fault::FaultConfig::parse(spec).map_err(|e| e.to_string())?);
        }
        cfg.gray_node = GRAY_NODE;
        if let Some((period, length)) = self.outages {
            let mut start = period / 2;
            let mut node = 1;
            while start + length < self.rounds {
                cfg.outages.push(mzd_cluster::NodeOutage {
                    node: node % self.nodes,
                    start,
                    rounds: length,
                });
                start += period;
                node += 7;
            }
        }
        Ok(cfg)
    }
}

/// Everything the program receives, generated from the workload seed:
/// the fleet seed, the catalog, and the request stream.
pub struct Inputs {
    pub fleet_seed: u64,
    catalog: Vec<ObjectSpec>,
    zipf: Zipf,
    requests: StdRng,
    arrivals: StdRng,
    /// Pending open-loop arrival time, in rounds.
    next_arrival: f64,
}

impl Inputs {
    pub fn generate(shape: &Shape, seed: u64) -> Result<Self, String> {
        let sizes = SizeDistribution::gamma(200_000.0, 1e10).map_err(|e| e.to_string())?;
        let mut lengths = StdRng::seed_from_u64(mzd_par::derive_seed(seed, 1));
        let (lo, hi) = shape.object_rounds;
        let catalog = (0..shape.objects)
            .map(|i| {
                let rounds = lengths.random_range(lo..=hi);
                ObjectSpec::new(format!("obj-{i}"), sizes.clone(), rounds)
                    .map(|o| o.with_content_id(i as u64 + 1))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let zipf = Zipf::new(catalog.len(), shape.zipf).map_err(|e| e.to_string())?;
        Ok(Self {
            fleet_seed: mzd_par::derive_seed(seed, 0),
            catalog,
            zipf,
            requests: StdRng::seed_from_u64(mzd_par::derive_seed(seed, 2)),
            arrivals: StdRng::seed_from_u64(mzd_par::derive_seed(seed, 3)),
            next_arrival: 0.0,
        })
    }

    /// The next requested object.
    pub fn next_object(&mut self) -> ObjectSpec {
        self.catalog[self.zipf.sample(&mut self.requests)].clone()
    }

    /// Mean object length in rounds, under the request popularity law.
    pub fn mean_object_rounds(&self) -> f64 {
        self.catalog
            .iter()
            .enumerate()
            .map(|(i, o)| self.zipf.probability(i) * f64::from(o.rounds))
            .sum()
    }

    /// Open-loop arrivals up to the end of simulated round `round`, at
    /// `rate` requests per round (exponential inter-arrival times).
    /// Called once per round, in round order.
    pub fn arrivals_through(&mut self, round: u64, rate: f64) -> u32 {
        let end = (round + 1) as f64;
        let mut n = 0;
        while self.next_arrival < end {
            n += 1;
            let u: f64 = self.arrivals.random();
            self.next_arrival += -(1.0 - u).ln() / rate;
        }
        n
    }
}
