//! The serving rig shared by every workload: a result store pre-filled
//! with a large synthetic index, an in-process sharded `Server` over it,
//! and the two client connections of the load generator.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uniq_core::UniqConfig;
use uniq_serve::{ServeConfig, Server};
use uniq_store::Store;

use crate::client::{self, ConnReport, Kind, Planned};
use crate::gen;

/// Synthetic entries written into the store before a run, standing in
/// for the existing users of a deployed service, so index replay and
/// `lookup_by_seed` work over a large index. The count is not taken from
/// any measured deployment: it is a tenth of the repository's
/// store-scaling experiment (`store_scaling::ENTRIES`), small enough to
/// write through `Store::put` in every run.
pub const PREFILL_ENTRIES: u64 = 10_000;

/// Shard workers of the server.
pub const SHARDS: usize = 2;

/// Connections (and client threads) of the load generator.
pub const CONNECTIONS: usize = 2;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// Where runs keep their scratch files: under the build directory of
/// the checkout.
fn work_base() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("uniq-benchmark-work")
}

/// A per-run scratch directory inside the build directory of the
/// checkout, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = work_base().join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn store_dir(&self) -> PathBuf {
        self.0.join("store")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the synthetic index into `dir` through the store's own `put`.
/// Returns the seconds spent.
pub fn prefill(dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let synthetic = uniq_bench::experiments::store_scaling::synthetic_artifact;
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    for i in 0..PREFILL_ENTRIES {
        store.put(&synthetic(i)).map_err(|e| e.to_string())?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// A running server with its client connections.
#[derive(Debug)]
pub struct Rig {
    pub server: Server,
    pub conns: Vec<TcpStream>,
}

impl Rig {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

fn serve_config(dir: &Path, base: &UniqConfig) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        base: base.clone(),
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Starts the server over `dir` (replaying its index) and connects the
/// load generator.
pub fn start(dir: &Path, base: &UniqConfig) -> Result<Rig, String> {
    let server =
        Server::start("127.0.0.1:0", serve_config(dir, base)).map_err(|e| e.to_string())?;
    let conns = (0..CONNECTIONS)
        .map(|_| client::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Rig { server, conns })
}

/// Set-up, repeated [`SETUP_REPS`] times: a 2-lane worker pool spun up,
/// `Server::start` with its store index replay, and the client
/// connections opened. Returns each repetition's seconds and the last
/// repetition's rig, still running.
pub fn timed_setup(dir: &Path, base: &UniqConfig) -> Result<(Vec<f64>, Rig), String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let pool = uniq_par::ThreadPool::new(2);
        let rig = start(dir, base)?;
        samples.push(t.elapsed().as_secs_f64());
        drop(pool);
        if rep + 1 == SETUP_REPS {
            last = Some(rig);
        } else {
            rig.server.shutdown();
        }
    }
    Ok((samples, last.expect("SETUP_REPS is at least one")))
}

/// Hit requests at `rate` per second over `window_s` for the returning
/// subjects `seeds`, each picking its subject at random.
pub fn hit_plan(seed: u64, seeds: &[u64], rate: f64, window_s: f64) -> Vec<Planned> {
    let count = (rate * window_s).round() as usize;
    let times = gen::fixed_rate_times(count, 1.0 / rate);
    let picks = gen::hit_picks(seed, count, seeds.len());
    times
        .into_iter()
        .zip(picks)
        .map(|(due_s, i)| Planned {
            due_s,
            seed: seeds[i],
            kind: Kind::Hit,
            line: client::personalize_line(seeds[i]),
        })
        .collect()
}

/// Runs one plan per connection on its own thread, all timed from the
/// same start.
pub fn drive_all(
    rig: &Rig,
    plans: Vec<Vec<Planned>>,
    grace: Duration,
) -> Result<Vec<ConnReport>, String> {
    let streams = rig
        .conns
        .iter()
        .map(|c| c.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&plans)
            .map(|(stream, plan)| s.spawn(move || client::drive(stream, plan, t0, grace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    }))
}
