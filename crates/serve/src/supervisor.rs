//! Shard-fleet supervisor: spawn worker processes, gate on readiness,
//! restart crashes.
//!
//! The supervisor owns N child processes (normally `metadse-serve`
//! workers, or any binary re-executing itself with a worker flag). For
//! each it:
//!
//! 1. **spawns** the configured command;
//! 2. **waits ready** by polling the worker's introspection socket with
//!    the same `ready` probe the `metadse-introspect ready --wait` CLI
//!    uses ([`wait_ready`]) — the barrier that keeps load off a shard
//!    still loading its registry partition;
//! 3. **monitors**: a background thread reaps exits. Any child that
//!    dies while the supervisor is running — SIGKILL from a fault
//!    injector, OOM kill, a crash — is respawned with the *same*
//!    command after a short backoff, up to
//!    [`SupervisorConfig::max_restarts`] per shard. The respawned
//!    worker reopens the shared registry root; the registry's
//!    newest-first corrupt-generation fallback means even a crash that
//!    tore an artifact mid-write leaves the shard serving its partition.
//!
//! [`Supervisor::kill`] delivers SIGKILL ([`std::process::Child::kill`]
//! on unix) — the soak harness's fault injector — and the monitor
//! treats it like any other crash.

#![cfg(unix)]

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metadse_obs as obs;
use metadse_obs::introspect::query;

use crate::shard::intro_socket;

/// Polls `sock`'s introspection endpoint with the `ready` command until
/// it answers ok — the same probe/poll loop as
/// `metadse-introspect ready --wait` — or `timeout` elapses.
///
/// # Errors
///
/// `TimedOut` with the last failure detail when the deadline passes.
pub fn wait_ready(sock: &Path, timeout: Duration) -> io::Result<()> {
    const POLL: Duration = Duration::from_millis(25);
    let deadline = Instant::now() + timeout;
    loop {
        let last = match query(sock, "ready") {
            Ok(reply) if reply.ok => return Ok(()),
            Ok(reply) => reply.body,
            Err(e) => e.to_string(),
        };
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} not ready: {last}", sock.display()),
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// How to launch one shard worker, and where to probe its readiness.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Executable to spawn.
    pub program: PathBuf,
    /// Full argument vector.
    pub args: Vec<String>,
    /// The worker's data socket; readiness is probed at
    /// `<socket>.intro`.
    pub socket: PathBuf,
}

impl ShardPlan {
    fn spawn(&self) -> io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::null())
            .spawn()
    }
}

/// Restart policy and readiness budget.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Restarts allowed per shard before it is left down for good.
    pub max_restarts: u64,
    /// Pause before respawning a dead shard.
    pub restart_backoff: Duration,
    /// Readiness budget per worker, at launch and after each restart.
    pub ready_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 64,
            restart_backoff: Duration::from_millis(50),
            ready_timeout: Duration::from_secs(30),
        }
    }
}

struct ShardSlot {
    plan: ShardPlan,
    child: Mutex<Option<Child>>,
    restarts: AtomicU64,
}

struct SupervisorCore {
    slots: Vec<ShardSlot>,
    config: SupervisorConfig,
    stopping: AtomicBool,
    total_restarts: AtomicU64,
}

/// A running fleet of supervised shard workers.
pub struct Supervisor {
    core: Arc<SupervisorCore>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns one worker per plan and blocks until every worker's
    /// introspection endpoint reports ready.
    ///
    /// # Errors
    ///
    /// Spawn failures, or `TimedOut` when a worker never became ready
    /// (the fleet is torn down before returning the error).
    pub fn launch(plans: Vec<ShardPlan>, config: SupervisorConfig) -> io::Result<Supervisor> {
        let core = Arc::new(SupervisorCore {
            slots: plans
                .into_iter()
                .map(|plan| ShardSlot {
                    plan,
                    child: Mutex::new(None),
                    restarts: AtomicU64::new(0),
                })
                .collect(),
            config,
            stopping: AtomicBool::new(false),
            total_restarts: AtomicU64::new(0),
        });
        // Spawn everything first, then barrier: workers load their
        // registry partitions concurrently.
        for slot in &core.slots {
            match slot.plan.spawn() {
                Ok(child) => *slot.child.lock().unwrap() = Some(child),
                Err(e) => {
                    kill_all(&core);
                    return Err(e);
                }
            }
        }
        for slot in &core.slots {
            if let Err(e) = wait_ready(&intro_socket(&slot.plan.socket), config.ready_timeout) {
                kill_all(&core);
                return Err(e);
            }
        }
        let monitor_core = Arc::clone(&core);
        let monitor = std::thread::Builder::new()
            .name("metadse-supervisor".to_string())
            .spawn(move || monitor_loop(&monitor_core))?;
        Ok(Supervisor {
            core,
            monitor: Some(monitor),
        })
    }

    /// Number of supervised shards.
    pub fn len(&self) -> usize {
        self.core.slots.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.core.slots.is_empty()
    }

    /// Total restarts performed across all shards.
    pub fn restarts(&self) -> u64 {
        self.core.total_restarts.load(Ordering::Relaxed)
    }

    /// Restarts performed for one shard.
    pub fn shard_restarts(&self, index: usize) -> u64 {
        self.core.slots[index].restarts.load(Ordering::Relaxed)
    }

    /// Delivers SIGKILL to shard `index` (fault injection). The monitor
    /// observes the death and restarts the worker like any crash.
    /// Returns whether a living child was actually signalled.
    pub fn kill(&self, index: usize) -> bool {
        let mut guard = self.core.slots[index].child.lock().unwrap();
        match guard.as_mut() {
            Some(child) => child.kill().is_ok(),
            None => false,
        }
    }

    /// The pid of shard `index`'s current worker process, if alive.
    pub fn pid(&self, index: usize) -> Option<u32> {
        self.core.slots[index]
            .child
            .lock()
            .unwrap()
            .as_ref()
            .map(Child::id)
    }

    /// Blocks until shard `index` reports ready again (used by fault
    /// injectors to pace kills so every crash is a crash of a *serving*
    /// shard).
    ///
    /// # Errors
    ///
    /// `TimedOut` when the shard never came back.
    pub fn await_shard_ready(&self, index: usize, timeout: Duration) -> io::Result<()> {
        wait_ready(&intro_socket(&self.core.slots[index].plan.socket), timeout)
    }

    /// Stops monitoring, kills every worker, and reaps them.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.core.stopping.store(true, Ordering::Release);
        if let Some(t) = self.monitor.take() {
            let _ = t.join();
        }
        kill_all(&self.core);
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.close();
    }
}

fn kill_all(core: &SupervisorCore) {
    for slot in &core.slots {
        if let Some(mut child) = slot.child.lock().unwrap().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn monitor_loop(core: &SupervisorCore) {
    const SWEEP: Duration = Duration::from_millis(10);
    while !core.stopping.load(Ordering::Acquire) {
        for (index, slot) in core.slots.iter().enumerate() {
            let died = {
                let mut guard = slot.child.lock().unwrap();
                match guard.as_mut().map(Child::try_wait) {
                    Some(Ok(Some(status))) => {
                        *guard = None;
                        Some(status)
                    }
                    // Still running, already down, or a transient wait
                    // error — nothing to do this sweep.
                    _ => None,
                }
            };
            let Some(status) = died else { continue };
            if core.stopping.load(Ordering::Acquire) {
                return;
            }
            let restarts = slot.restarts.load(Ordering::Relaxed);
            if restarts >= core.config.max_restarts {
                obs::report::warn(format!(
                    "supervisor: shard {index} died ({status}) after {restarts} restarts; giving up"
                ));
                continue;
            }
            obs::report::warn(format!(
                "supervisor: shard {index} died ({status}); restarting (restart #{})",
                restarts + 1
            ));
            std::thread::sleep(core.config.restart_backoff);
            match slot.plan.spawn() {
                Ok(child) => {
                    *slot.child.lock().unwrap() = Some(child);
                    slot.restarts.fetch_add(1, Ordering::Relaxed);
                    core.total_restarts.fetch_add(1, Ordering::Relaxed);
                    // Best-effort readiness: the monitor must keep
                    // sweeping other shards, so failures surface on the
                    // next probe of this shard, not here.
                    let _ = wait_ready(&intro_socket(&slot.plan.socket), core.config.ready_timeout);
                }
                Err(e) => {
                    obs::report::warn(format!("supervisor: shard {index} respawn failed: {e}"));
                }
            }
        }
        std::thread::sleep(SWEEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper_plan(tag: &str) -> ShardPlan {
        // `/bin/sleep` stands in for a worker: the supervisor only
        // needs spawn/kill/reap semantics here, so readiness is probed
        // against a socket that a stub listener answers for.
        ShardPlan {
            program: PathBuf::from("/bin/sleep"),
            args: vec!["600".to_string()],
            socket: std::env::temp_dir().join(format!(
                "metadse-supervisor-{tag}-{}.sock",
                std::process::id()
            )),
        }
    }

    fn stub_ready_listener(socket: &Path) -> metadse_obs::frame::FrameServer {
        metadse_obs::introspect::serve_unix(
            &intro_socket(socket),
            Arc::new(|cmd: &str| {
                if cmd == "ready" {
                    metadse_obs::introspect::Response::ok("ready\n")
                } else {
                    metadse_obs::introspect::Response::err("unknown")
                }
            }),
        )
        .unwrap()
    }

    #[test]
    fn crash_restart_respawns_with_backoff_and_counts() {
        let plan = sleeper_plan("restart");
        let _stub = stub_ready_listener(&plan.socket);
        let supervisor = Supervisor::launch(
            vec![plan],
            SupervisorConfig {
                max_restarts: 8,
                restart_backoff: Duration::from_millis(5),
                ready_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        let first_pid = supervisor.pid(0).expect("child alive");

        assert!(supervisor.kill(0), "SIGKILL delivered");
        let deadline = Instant::now() + Duration::from_secs(10);
        while supervisor.restarts() == 0 {
            assert!(
                Instant::now() < deadline,
                "monitor never restarted the shard"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(supervisor.shard_restarts(0), 1);
        let second_pid = supervisor.pid(0).expect("respawned child alive");
        assert_ne!(first_pid, second_pid, "a fresh process was spawned");
        supervisor.shutdown();
    }

    #[test]
    fn max_restarts_caps_the_crash_loop() {
        let plan = sleeper_plan("cap");
        let _stub = stub_ready_listener(&plan.socket);
        let supervisor = Supervisor::launch(
            vec![plan],
            SupervisorConfig {
                max_restarts: 1,
                restart_backoff: Duration::from_millis(1),
                ready_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        assert!(supervisor.kill(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while supervisor.restarts() < 1 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        // Kill the respawn; the cap forbids a second restart.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !supervisor.kill(0) {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(supervisor.restarts(), 1, "cap respected");
        assert!(supervisor.pid(0).is_none(), "shard left down at the cap");
        supervisor.shutdown();
    }

    #[test]
    fn launch_fails_fast_when_readiness_never_comes() {
        // No stub listener → wait_ready must time out and the child be
        // reaped, not leaked.
        let plan = sleeper_plan("noready");
        let result = Supervisor::launch(
            vec![plan],
            SupervisorConfig {
                max_restarts: 0,
                restart_backoff: Duration::from_millis(1),
                ready_timeout: Duration::from_millis(200),
            },
        );
        assert!(matches!(result, Err(ref e) if e.kind() == io::ErrorKind::TimedOut));
    }
}
