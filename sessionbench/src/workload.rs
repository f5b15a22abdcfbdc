//! The three workloads: which corpus, which session mix, how many sessions, and the seeded
//! session list every run of a workload times.

use qbe_core::graph::QueryClass;
use qbe_server::Model;

/// The twig workload's hidden goal query.
pub const TWIG_GOAL: &str = "//person/name";

/// Live, partly answered join sessions the `join-persist` server recovers at every boot.
pub const LIVE_SESSIONS: usize = 3000;

/// How many times a run launches the server to measure set-up time; the last launch
/// serves the timed phase.
pub const LAUNCHES: usize = 7;

/// Distinct session seeds per workload; the list cycles through them, a whole pass over the
/// mix per seed. An odd count, and timed lists a whole number of cycles long, so every seed
/// runs equally often and a session-level p50 falls in the middle of one seed's sessions
/// rather than at the edge between two.
const DISTINCT_SEEDS: usize = 5;

/// Graph sessions run the three query classes in this fixed round-robin order.
const GRAPH_CLASSES: [QueryClass; 3] = [QueryClass::Rpq, QueryClass::TwoRpq, QueryClass::Crpq];

/// Fewest timed sessions in any run, so that every session-level median has at least ten
/// samples beyond it, also over the half of a traced run's sessions that carry spans.
const MIN_TIMED_SESSIONS: usize = 50;

/// One closed-loop, single-client workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Twig sessions for `//person/name` on corpus `small`: bound by the twig learner.
    TwigSmall,
    /// RPQ, 2RPQ and CRPQ sessions on corpus `medium`: bound by session open.
    GraphMedium,
    /// Join sessions on corpus `small` against a persisting server that recovers a WAL of
    /// live sessions at boot: bound by round trips and WAL appends.
    JoinPersist,
}

/// One session of a workload's list: what the client opens with `START`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// The learner model.
    pub model: Model,
    /// The query class (graph sessions only).
    pub class: Option<QueryClass>,
    /// The session seed sent as `seed=`.
    pub seed: u64,
}

impl SessionSpec {
    /// The `START` options, in protocol order.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let mut params = vec![("seed", self.seed.to_string())];
        if let Some(class) = self.class {
            params.push(("class", class.wire_name().to_string()));
        }
        params
    }

    /// A key identifying the session's deterministic behaviour: equal keys, equal replays.
    pub fn key(&self) -> (&'static str, &'static str, u64) {
        (
            self.model.name(),
            self.class.map_or("", QueryClass::wire_name),
            self.seed,
        )
    }
}

/// SplitMix64: a small, well-mixed hash for deriving seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TwigSmall,
        Workload::GraphMedium,
        Workload::JoinPersist,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwigSmall => "twig-small",
            Workload::GraphMedium => "graph-medium",
            Workload::JoinPersist => "join-persist",
        }
    }

    /// The served corpus the sessions attach to.
    pub fn corpus(self) -> &'static str {
        match self {
            Workload::TwigSmall | Workload::JoinPersist => "small",
            Workload::GraphMedium => "medium",
        }
    }

    /// Whether the server runs with `--data-dir --persist`.
    pub fn persist(self) -> bool {
        self == Workload::JoinPersist
    }

    /// Timed sessions per ten seconds of `--seconds`, calibrated so that the timed phase
    /// lasts about that long on a shared 2-vCPU x86-64 host (twig ~0.4 s, graph ~20 ms and
    /// join ~1.8 ms per session).
    fn sessions_per_10s(self) -> usize {
        match self {
            Workload::TwigSmall => 25,
            Workload::GraphMedium => 510,
            Workload::JoinPersist => 5500,
        }
    }

    /// Untimed warm-up sessions run after each launch, counted in set-up time: whole
    /// passes over the mix, enough that set-up is dominated by their deterministic work
    /// rather than by process start.
    pub fn warmup_sessions(self) -> usize {
        match self {
            Workload::TwigSmall => 1,
            Workload::GraphMedium => 6,
            Workload::JoinPersist => 8,
        }
    }

    /// The fixed number of timed sessions for a run of `seconds`, a whole number of cycles
    /// through the session seeds.
    pub fn timed_sessions(self, seconds: u64) -> usize {
        let n = (self.sessions_per_10s() * seconds as usize / 10).max(MIN_TIMED_SESSIONS);
        let cycle = self.mix_len() * DISTINCT_SEEDS;
        n.div_ceil(cycle) * cycle
    }

    /// Whether a traced run records client spans on timed session `i`: on every other cycle
    /// through the session seeds, so the traced and the untraced half run the same sessions
    /// equally often, interleaved in time.
    pub fn traced(self, i: usize) -> bool {
        (i / (self.mix_len() * DISTINCT_SEEDS)) % 2 == 1
    }

    /// Sessions per chunk of the timed list: whole passes over the mix worth about half a
    /// second of work, so a 20 s run has about forty chunks. Throughput is the median of the
    /// chunks' rates, which stalls on a shared host (CPU steal comes in bursts) cannot move
    /// unless they cover half the run.
    pub fn chunk_len(self) -> usize {
        (self.sessions_per_10s() / 20)
            .div_ceil(self.mix_len())
            .max(1)
            * self.mix_len()
    }

    /// Sessions in one pass over the mix.
    pub fn mix_len(self) -> usize {
        match self {
            Workload::GraphMedium => GRAPH_CLASSES.len(),
            _ => 1,
        }
    }

    /// The first `count` sessions of the workload's list for `seed`. The list is a pure
    /// function of the workload and the seed: it cycles the mix in a fixed order over a few
    /// session seeds derived from the workload seed.
    pub fn sessions(self, seed: u64, count: usize) -> Vec<SessionSpec> {
        let session_seed = |pass: usize| {
            let k = (pass % DISTINCT_SEEDS) as u64;
            splitmix64(seed.wrapping_mul(DISTINCT_SEEDS as u64).wrapping_add(k)) >> 40
        };
        (0..count)
            .map(|i| match self {
                Workload::TwigSmall => SessionSpec {
                    model: Model::Twig,
                    class: None,
                    seed: session_seed(i),
                },
                Workload::GraphMedium => SessionSpec {
                    model: Model::Graph,
                    class: Some(GRAPH_CLASSES[i % GRAPH_CLASSES.len()]),
                    seed: session_seed(i / GRAPH_CLASSES.len()),
                },
                Workload::JoinPersist => SessionSpec {
                    model: Model::Join,
                    class: None,
                    seed: session_seed(i),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_lists_are_seeded_and_round_robin() {
        let a = Workload::GraphMedium.sessions(7, 9);
        assert_eq!(a, Workload::GraphMedium.sessions(7, 9));
        assert_ne!(a, Workload::GraphMedium.sessions(8, 9));
        let classes: Vec<_> = a.iter().map(|s| s.class.unwrap()).collect();
        assert_eq!(classes[..3], GRAPH_CLASSES);
        assert_eq!(classes[3..6], GRAPH_CLASSES);
        for w in Workload::ALL {
            let n = w.timed_sessions(20);
            assert!(n >= MIN_TIMED_SESSIONS);
            assert_eq!(n % (w.mix_len() * DISTINCT_SEEDS), 0);
            let traced = (0..n).filter(|&i| w.traced(i)).count();
            assert!(
                traced >= 20 && n - traced >= 20,
                "{w:?}: {traced} of {n} traced"
            );
        }
        let twig = Workload::TwigSmall.sessions(7, 10);
        assert_eq!(twig[0], twig[DISTINCT_SEEDS]);
        assert_ne!(twig[0], twig[1]);
    }
}
