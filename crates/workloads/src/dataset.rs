//! Labeled dataset generation.
//!
//! A dataset row pairs an encoded design point (21 normalized features)
//! with its simulated labels (IPC and power), aggregated over the
//! workload's SimPoint phases the way full-program metrics are derived
//! from SimPoints: instruction-weighted cycles.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use rand::Rng;

use metadse_obs as obs;
use metadse_parallel::ParallelConfig;
use metadse_sim::{ConfigPoint, DesignSpace, Elem, Simulator};

use crate::phases::PhaseSet;
use crate::spec::SpecWorkload;

/// Which label a model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Instructions per cycle.
    #[default]
    Ipc,
    /// Total core power in watts.
    Power,
}

impl Metric {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Ipc => "IPC",
            Metric::Power => "Power",
        }
    }
}

/// One labeled design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Normalized design-point encoding (21 features in `[0, 1]`).
    pub features: Vec<Elem>,
    /// Phase-aggregated instructions per cycle.
    pub ipc: Elem,
    /// Phase-aggregated power in watts.
    pub power_w: Elem,
}

impl Sample {
    /// The label selected by `metric`.
    pub fn label(&self, metric: Metric) -> Elem {
        match metric {
            Metric::Ipc => self.ipc,
            Metric::Power => self.power_w,
        }
    }
}

/// A labeled dataset for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    workload_name: String,
    samples: Vec<Sample>,
}

impl Dataset {
    /// Creates a dataset from parts (used by readers and tests).
    pub fn from_samples(workload_name: impl Into<String>, samples: Vec<Sample>) -> Dataset {
        Dataset {
            workload_name: workload_name.into(),
            samples,
        }
    }

    /// Simulates `n` uniform-random design points for `workload`, using
    /// the default thread count (`METADSE_THREADS`, else the machine).
    pub fn generate<R: Rng + ?Sized>(
        space: &DesignSpace,
        simulator: &Simulator,
        workload: SpecWorkload,
        n: usize,
        rng: &mut R,
    ) -> Dataset {
        Self::generate_with(
            space,
            simulator,
            workload,
            n,
            rng,
            &ParallelConfig::default(),
        )
    }

    /// Simulates `n` uniform-random design points for `workload` with an
    /// explicit thread configuration.
    ///
    /// Points are sampled serially from `rng` on the calling thread, so
    /// the RNG stream — and therefore the dataset — is bit-identical for
    /// every thread count.
    pub fn generate_with<R: Rng + ?Sized>(
        space: &DesignSpace,
        simulator: &Simulator,
        workload: SpecWorkload,
        n: usize,
        rng: &mut R,
        parallel: &ParallelConfig,
    ) -> Dataset {
        let points: Vec<ConfigPoint> = (0..n).map(|_| space.random_point(rng)).collect();
        Self::generate_at_with(space, simulator, workload, &points, parallel)
    }

    /// Simulates the given design points for `workload`, using the default
    /// thread count (`METADSE_THREADS`, else the machine).
    pub fn generate_at(
        space: &DesignSpace,
        simulator: &Simulator,
        workload: SpecWorkload,
        points: &[ConfigPoint],
    ) -> Dataset {
        Self::generate_at_with(
            space,
            simulator,
            workload,
            points,
            &ParallelConfig::default(),
        )
    }

    /// Simulates the given design points for `workload` with an explicit
    /// thread configuration.
    ///
    /// Each point's simulation is a pure function of the point, so
    /// fanning points out across threads and collecting results in point
    /// order yields bit-identical datasets for every thread count.
    pub fn generate_at_with(
        space: &DesignSpace,
        simulator: &Simulator,
        workload: SpecWorkload,
        points: &[ConfigPoint],
        parallel: &ParallelConfig,
    ) -> Dataset {
        let _span = obs::span("dataset/generate");
        obs::counter("dataset/points", points.len() as u64);
        let phases = PhaseSet::generate(workload);
        obs::counter(
            "dataset/phase_sims",
            (points.len() * phases.phases().len()) as u64,
        );
        let samples = parallel.run_indexed(points.len(), |i| {
            let point = &points[i];
            let features = space.encode(point);
            let config = space.config(point);
            // Aggregate over phases the way SimPoint does for the full
            // program: each phase contributes `weight` instructions,
            // so cycles add as weight / IPC and power is time-weighted.
            let mut cycles = 0.0;
            let mut energy_like = 0.0;
            for phase in phases.phases() {
                let out = simulator.simulate(&config, &phase.profile);
                let phase_cycles = phase.weight / out.ipc.max(1e-6);
                cycles += phase_cycles;
                energy_like += out.power_w * phase_cycles;
            }
            Sample {
                features,
                ipc: 1.0 / cycles,
                power_w: energy_like / cycles,
            }
        });
        Dataset {
            workload_name: workload.name().to_string(),
            samples,
        }
    }

    /// The workload this dataset was generated for.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The rows.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of features per row (21 for the MetaDSE space).
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset.
    pub fn feature_dim(&self) -> usize {
        self.samples
            .first()
            .expect("feature_dim of empty dataset")
            .features
            .len()
    }

    /// All labels for `metric`, row order.
    pub fn labels(&self, metric: Metric) -> Vec<Elem> {
        self.samples.iter().map(|s| s.label(metric)).collect()
    }

    /// All feature rows (borrowed).
    pub fn features(&self) -> Vec<&[Elem]> {
        self.samples.iter().map(|s| s.features.as_slice()).collect()
    }

    /// Writes the dataset as CSV (`f0..f20, ipc, power_w` with a header).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "# workload: {}", self.workload_name)?;
        let dim = if self.samples.is_empty() {
            0
        } else {
            self.feature_dim()
        };
        let header: Vec<String> = (0..dim)
            .map(|i| format!("f{i}"))
            .chain(["ipc".to_string(), "power_w".to_string()])
            .collect();
        writeln!(w, "{}", header.join(","))?;
        for s in &self.samples {
            let mut row: Vec<String> = s.features.iter().map(|v| format!("{v:.9}")).collect();
            row.push(format!("{:.9}", s.ipc));
            row.push(format!("{:.9}", s.power_w));
            writeln!(w, "{}", row.join(","))?;
        }
        w.flush()
    }

    /// Reads a dataset previously written by [`Dataset::write_csv`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error, or `InvalidData` for malformed content.
    pub fn read_csv(path: impl AsRef<Path>) -> io::Result<Dataset> {
        let r = BufReader::new(File::open(path)?);
        let mut lines = r.lines();
        let workload_name = match lines.next() {
            Some(Ok(line)) if line.starts_with("# workload: ") => {
                line.trim_start_matches("# workload: ").to_string()
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "missing workload header",
                ))
            }
        };
        // Skip the column header.
        lines.next();
        let mut samples = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<Elem> = line
                .split(',')
                .map(|f| {
                    f.trim().parse::<Elem>().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad number: {e}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            if fields.len() < 3 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "row needs at least one feature and two labels",
                ));
            }
            let n = fields.len();
            samples.push(Sample {
                features: fields[..n - 2].to_vec(),
                ipc: fields[n - 2],
                power_w: fields[n - 1],
            });
        }
        Ok(Dataset {
            workload_name,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dataset(n: usize, seed: u64) -> Dataset {
        let space = DesignSpace::new();
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::generate(&space, &sim, SpecWorkload::Xz657, n, &mut rng)
    }

    #[test]
    fn generation_shapes_and_ranges() {
        let ds = small_dataset(20, 1);
        assert_eq!(ds.len(), 20);
        assert_eq!(ds.feature_dim(), 21);
        for s in ds.samples() {
            assert!(s.features.iter().all(|&f| (0.0..=1.0).contains(&f)));
            assert!(s.ipc > 0.0 && s.ipc <= 12.0);
            assert!(s.power_w > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        assert_eq!(small_dataset(10, 7), small_dataset(10, 7));
        assert_ne!(small_dataset(10, 7), small_dataset(10, 8));
    }

    #[test]
    fn generation_is_bit_identical_across_thread_counts() {
        let space = DesignSpace::new();
        let sim = Simulator::new();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(99);
            Dataset::generate_with(
                &space,
                &sim,
                SpecWorkload::Xz657,
                16,
                &mut rng,
                // Oversubscribe: really spawn workers for these 16 points
                // even on a single-core host.
                &ParallelConfig::with_threads(threads).oversubscribed(),
            )
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            let parallel = run(threads);
            // PartialEq over f64 fields: bit-identical samples, same order.
            assert_eq!(serial, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn labels_match_metric_selection() {
        let ds = small_dataset(5, 2);
        let ipc = ds.labels(Metric::Ipc);
        let power = ds.labels(Metric::Power);
        for (s, (&i, &p)) in ds.samples().iter().zip(ipc.iter().zip(&power)) {
            assert_eq!(s.ipc, i);
            assert_eq!(s.power_w, p);
        }
    }

    #[test]
    fn phase_aggregate_is_within_phase_extremes() {
        // The harmonic-mean aggregate can never exceed the best phase or
        // undercut the worst one.
        let space = DesignSpace::new();
        let sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(3);
        let point = space.random_point(&mut rng);
        let config = space.config(&point);
        let phases = PhaseSet::generate(SpecWorkload::Cam4_627);
        let per_phase: Vec<f64> = phases
            .phases()
            .iter()
            .map(|ph| sim.simulate(&config, &ph.profile).ipc)
            .collect();
        let ds = Dataset::generate_at(&space, &sim, SpecWorkload::Cam4_627, &[point]);
        let agg = ds.samples()[0].ipc;
        let lo = per_phase.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_phase.iter().cloned().fold(0.0, f64::max);
        assert!(agg >= lo && agg <= hi, "{agg} outside [{lo}, {hi}]");
    }

    #[test]
    fn csv_roundtrip() {
        let ds = small_dataset(8, 4);
        let mut path = std::env::temp_dir();
        path.push(format!("metadse-ds-{}.csv", std::process::id()));
        ds.write_csv(&path).unwrap();
        let back = Dataset::read_csv(&path).unwrap();
        assert_eq!(back.workload_name(), ds.workload_name());
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.samples().iter().zip(back.samples()) {
            assert!((a.ipc - b.ipc).abs() < 1e-8);
            assert!((a.power_w - b.power_w).abs() < 1e-8);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_csv_rejects_garbage() {
        let mut path = std::env::temp_dir();
        path.push(format!("metadse-bad-{}.csv", std::process::id()));
        std::fs::write(&path, "nonsense\n1,2\n").unwrap();
        assert!(Dataset::read_csv(&path).is_err());
        std::fs::remove_file(path).ok();
    }
}
