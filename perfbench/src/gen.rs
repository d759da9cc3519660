//! Deterministic seeded generation of every input the benchmark feeds
//! the program: evaluation tasks, prediction requests and session
//! rosters. The same seed always yields the same inputs; the program
//! under test receives only what these functions produce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metadse_serve::SessionSpec;
use metadse_sim::{ConfigPoint, DesignSpace};
use metadse_workloads::{Dataset, Metric, Task};

/// Named sub-streams of one run seed, so that changing how many values
/// one consumer draws never shifts another consumer's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Evaluation tasks on the target workloads.
    EvalTasks = 1,
    /// Single-prediction requests.
    Requests = 2,
    /// Exploration-session rosters.
    Roster = 3,
    /// Inputs of the traced run's single-layer probes.
    Probe = 4,
}

/// The seed of `stream` under the run seed (splitmix64 finalizer over
/// the pair, so neighbouring run seeds give unrelated streams).
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `per_target` evaluation tasks for each target dataset, in target
/// order. Every task of a target is scored on the same query designs,
/// the dataset's last `query` rows, whatever the seed; the seed draws
/// each task's `support` shots from the rows before them. Seeds then
/// differ in the examples a model adapts on, not in the designs it is
/// scored on, so their quality figures are comparable.
///
/// # Panics
///
/// If a dataset has fewer than `support + query` rows.
pub fn eval_tasks(
    seed: u64,
    targets: &[&Dataset],
    per_target: usize,
    support: usize,
    query: usize,
) -> Vec<Vec<Task>> {
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::EvalTasks));
    let rows = |samples: &[metadse_workloads::Sample]| -> (Vec<Vec<f64>>, Vec<f64>) {
        samples
            .iter()
            .map(|s| (s.features.clone(), s.label(Metric::Ipc)))
            .unzip()
    };
    targets
        .iter()
        .map(|ds| {
            let samples = ds.samples();
            let pool = samples
                .len()
                .checked_sub(query)
                .filter(|&n| n >= support)
                .unwrap_or_else(|| {
                    panic!(
                        "dataset {} has {} rows; tasks need {support} + {query}",
                        ds.workload_name(),
                        samples.len()
                    )
                });
            let (query_x, query_y) = rows(&samples[pool..]);
            (0..per_target)
                .map(|_| {
                    // Partial Fisher-Yates over the pool.
                    let mut picked: Vec<usize> = (0..pool).collect();
                    for i in 0..support {
                        let j = rng.gen_range(i..pool);
                        picked.swap(i, j);
                    }
                    let shots: Vec<_> = picked[..support]
                        .iter()
                        .map(|&i| samples[i].clone())
                        .collect();
                    let (support_x, support_y) = rows(&shots);
                    Task {
                        support_x,
                        support_y,
                        query_x: query_x.clone(),
                        query_y: query_y.clone(),
                    }
                })
                .collect()
        })
        .collect()
}

/// One single-configuration prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index of the tenant the request goes to.
    pub tenant: usize,
    /// The design point to predict.
    pub point: ConfigPoint,
}

/// An endless, seeded request stream: request `i` is the same for a
/// seed however long the run lasts.
pub struct Requests {
    rng: StdRng,
    tenants: usize,
}

impl Requests {
    /// The requests of `stream` under `seed` over `tenants` tenants (at
    /// least one).
    pub fn new(seed: u64, stream: Stream, tenants: usize) -> Requests {
        Requests {
            rng: StdRng::seed_from_u64(derive(seed, stream)),
            tenants: tenants.max(1),
        }
    }

    /// The next request: a uniformly chosen tenant and a fresh
    /// `DesignSpace::random_point`.
    pub fn next(&mut self, space: &DesignSpace) -> Request {
        let tenant = self.rng.gen_range(0..self.tenants);
        Request {
            tenant,
            point: space.random_point(&mut self.rng),
        }
    }
}

/// Shape of one exploration session in a roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionShape {
    /// Random designs in the first round.
    pub initial_samples: u32,
    /// Hill-climbing rounds after the first.
    pub refinement_rounds: u32,
    /// Front entries expanded per refinement round.
    pub beam: u32,
}

/// The session roster of pass `pass`, split over `clients` clients:
/// `base` seeded specs spread evenly over the tenants (from a seeded
/// offset), of which the first `twins` each get a twin (same tenant and
/// seed, beam one wider). A twin runs on its original's client right
/// after it, so the rounds it serves from the point cache do not depend
/// on timing.
pub fn roster(
    seed: u64,
    pass: u64,
    tenants: &[String],
    base: usize,
    twins: usize,
    shape: SessionShape,
    clients: usize,
) -> Vec<Vec<SessionSpec>> {
    let mut rng = StdRng::seed_from_u64(
        derive(seed, Stream::Roster) ^ pass.wrapping_mul(0xA24B_AED4_963E_E407),
    );
    let mut per_client = vec![Vec::new(); clients.max(1)];
    let offset = rng.gen_range(0..tenants.len());
    for i in 0..base {
        let spec = SessionSpec {
            workload: tenants[(offset + i) % tenants.len()].clone(),
            seed: rng.next_u64(),
            initial_samples: shape.initial_samples,
            refinement_rounds: shape.refinement_rounds,
            beam: shape.beam,
            round_timeout_us: 0,
        };
        let client = &mut per_client[i % clients.max(1)];
        client.push(spec.clone());
        if i < twins {
            client.push(SessionSpec {
                beam: shape.beam + 1,
                ..spec
            });
        }
    }
    per_client
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadse_workloads::Sample;

    fn dataset(n: usize) -> Dataset {
        let samples = (0..n)
            .map(|i| Sample {
                features: vec![i as f64; 3],
                ipc: i as f64,
                power_w: 1.0,
            })
            .collect();
        Dataset::from_samples("toy", samples)
    }

    #[test]
    fn derived_streams_are_distinct_and_stable() {
        assert_eq!(derive(1, Stream::Requests), derive(1, Stream::Requests));
        assert_ne!(derive(1, Stream::Requests), derive(2, Stream::Requests));
        assert_ne!(derive(1, Stream::Requests), derive(1, Stream::Roster));
    }

    #[test]
    fn tasks_repeat_for_a_seed() {
        let ds = dataset(100);
        let a = eval_tasks(3, &[&ds, &ds], 2, 5, 7);
        let b = eval_tasks(3, &[&ds, &ds], 2, 5, 7);
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].len(), 2);
        assert_eq!(a[0][0].query_x.len(), 7);
        assert_eq!(a[0][0].support_y, b[0][0].support_y);
        assert_eq!(a[1][1].query_y, b[1][1].query_y);
        let c = eval_tasks(4, &[&ds, &ds], 2, 5, 7);
        assert_ne!(a[0][0].support_y, c[0][0].support_y);
        // The query designs are the last rows, the same for every seed
        // and task; the shots come from the rows before them.
        let last: Vec<f64> = (93..100).map(f64::from).collect();
        for task in a.iter().chain(&c).flatten() {
            assert_eq!(task.query_y, last);
            assert!(task.support_y.iter().all(|&y| y < 93.0));
            let mut shots = task.support_y.clone();
            shots.sort_by(f64::total_cmp);
            shots.dedup();
            assert_eq!(shots.len(), 5);
        }
    }

    #[test]
    fn requests_repeat_for_a_seed() {
        let space = DesignSpace::new();
        let mut a = Requests::new(9, Stream::Requests, 5);
        let mut b = Requests::new(9, Stream::Requests, 5);
        let xs: Vec<Request> = (0..50).map(|_| a.next(&space)).collect();
        let ys: Vec<Request> = (0..50).map(|_| b.next(&space)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|r| r.tenant < 5));
        assert!((0..5).all(|t| xs.iter().any(|r| r.tenant == t)));
        let mut c = Requests::new(10, Stream::Requests, 5);
        assert_ne!(xs[0], c.next(&space));
        let mut d = Requests::new(9, Stream::Probe, 5);
        assert_ne!(xs[0], d.next(&space));
    }

    #[test]
    fn rosters_repeat_and_place_twins_after_their_original() {
        let tenants: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let shape = SessionShape {
            initial_samples: 8,
            refinement_rounds: 2,
            beam: 2,
        };
        let r = roster(5, 0, &tenants, 6, 2, shape, 2);
        assert_eq!(r, roster(5, 0, &tenants, 6, 2, shape, 2));
        assert_ne!(r, roster(5, 1, &tenants, 6, 2, shape, 2));
        assert_eq!(r.iter().map(Vec::len).sum::<usize>(), 8);
        for client in &r {
            for pair in client.windows(2) {
                if pair[1].beam == shape.beam + 1 {
                    assert_eq!(pair[0].workload, pair[1].workload);
                    assert_eq!(pair[0].seed, pair[1].seed);
                    assert_eq!(pair[0].beam, shape.beam);
                }
            }
        }
        let twins = r
            .iter()
            .flatten()
            .filter(|s| s.beam == shape.beam + 1)
            .count();
        assert_eq!(twins, 2);
        // Six base specs over three tenants: two each.
        for t in &tenants {
            let n = r
                .iter()
                .flatten()
                .filter(|s| &s.workload == t && s.beam == shape.beam)
                .count();
            assert_eq!(n, 2, "{t}");
        }
    }
}
